"""Tests of the benchmark's own logic.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spec  # noqa: E402
import stats  # noqa: E402

# -- layer attribution ---------------------------------------------------------

SIM = ("/x/src/repro/sim/environment.py", 1, "step")
MPI = ("/x/src/repro/mpi/communicator.py", 1, "isend")
OBS = ("/x/src/repro/obs/metrics.py", 1, "add")
BENCH = ("/x/perfbench/run.py", 1, "run_pass")
HEAPPUSH = ("~", 0, "<built-in method _heapq.heappush>")
LEN = ("~", 0, "<built-in method builtins.len>")
STDLIB = ("/usr/lib/python3.11/random.py", 1, "expovariate")


def entry(tt, callers=None):
    """A pstats entry ``(cc, nc, tt, ct, callers)``."""
    callers = callers or {}
    return (1, 1, tt, tt, {c: (1, 1, ctt, ctt) for c, ctt in callers.items()})


LAYER_OF = stats.repro_layer_of(run.PACKAGE_LAYER)


def test_layer_by_path():
    assert LAYER_OF(SIM[0]) == "sim"
    assert LAYER_OF("/a/src/repro/shard/group.py") == "serve"
    assert LAYER_OF("/a/src/repro/adapt/selector.py") == "serve"
    assert LAYER_OF(OBS[0]) == "other"  # unlisted package
    assert LAYER_OF("/a/src/repro/cli.py") == "other"  # top-level module
    assert LAYER_OF(BENCH[0]) == "other"
    assert LAYER_OF(HEAPPUSH[0]) is None
    assert LAYER_OF(STDLIB[0]) is None


def test_own_self_time_goes_to_own_layer():
    totals = stats.attribute_self_time(
        {SIM: entry(2.0), MPI: entry(1.0), OBS: entry(0.5)}, LAYER_OF
    )
    assert totals == {"sim": 2.0, "mpi": 1.0, "other": 0.5}


def test_builtin_charged_to_callers_in_proportion():
    totals = stats.attribute_self_time(
        {
            SIM: entry(1.0),
            MPI: entry(1.0),
            HEAPPUSH: entry(0.4, {SIM: 0.3, MPI: 0.1}),
        },
        LAYER_OF,
    )
    assert totals["sim"] == pytest.approx(1.3)
    assert totals["mpi"] == pytest.approx(1.1)
    assert sum(totals.values()) == pytest.approx(2.4)


def test_builtin_under_foreign_caller_resolves_to_layer():
    # mpi -> random.expovariate (stdlib) -> len (builtin)
    totals = stats.attribute_self_time(
        {
            MPI: entry(1.0),
            STDLIB: entry(0.2, {MPI: 0.2}),
            LEN: entry(0.1, {STDLIB: 0.1}),
        },
        LAYER_OF,
    )
    assert totals == {"mpi": pytest.approx(1.3)}


def test_unresolvable_foreign_time_goes_to_other():
    cycle_a = ("~", 0, "a")
    cycle_b = ("~", 0, "b")
    totals = stats.attribute_self_time(
        {
            HEAPPUSH: entry(0.5),  # no callers: a root
            cycle_a: entry(0.2, {cycle_b: 0.2}),
            cycle_b: entry(0.2, {cycle_a: 0.2}),
            LEN: entry(0.3, {BENCH: 0.3}),
        },
        LAYER_OF,
    )
    assert totals == {"other": pytest.approx(1.2)}


def test_zero_timed_callers_split_by_calls():
    stats_map = {
        SIM: entry(0.0),
        MPI: entry(0.0),
        HEAPPUSH: (4, 4, 0.4, 0.4, {SIM: (3, 3, 0.0, 0.0), MPI: (1, 1, 0.0, 0.0)}),
    }
    totals = stats.attribute_self_time(stats_map, LAYER_OF)
    assert totals["sim"] == pytest.approx(0.3)
    assert totals["mpi"] == pytest.approx(0.1)


# -- paper fidelity ------------------------------------------------------------


def test_paper_ratio_err_at_the_seed_elapsed_times():
    # EXPERIMENTS.md, Figure 2 at 96 processes, no sync (seconds).
    elapsed = {"mw": 59.27, "ww-posix": 20.85, "ww-list": 14.40, "ww-coll": 34.36}
    expected = (
        abs(math.log(59.27 / 14.40 / 4.64))
        + abs(math.log(20.85 / 14.40 / 1.33))
        + abs(math.log(34.36 / 14.40 / 1.75))
    ) / 3
    assert stats.paper_ratio_err(elapsed) == pytest.approx(expected)
    assert stats.paper_ratio_err(elapsed) == pytest.approx(0.17, abs=0.005)


def test_paper_ratio_err_from_the_headline_speedups():
    # EXPERIMENTS.md headline table: measured +311%, +45%, +139%.
    elapsed = {"ww-list": 1.0, "mw": 4.11, "ww-posix": 1.45, "ww-coll": 2.39}
    assert stats.paper_ratio_err(elapsed) == pytest.approx(0.1731, abs=1e-4)


def test_paper_ratio_err_is_zero_on_the_paper_and_symmetric():
    exact = {"ww-list": 10.0, "mw": 46.4, "ww-posix": 13.3, "ww-coll": 17.5}
    assert stats.paper_ratio_err(exact) == pytest.approx(0.0, abs=1e-12)
    slow = dict(exact, mw=46.4 * 2)
    fast = dict(exact, mw=46.4 / 2)
    assert stats.paper_ratio_err(slow) == pytest.approx(stats.paper_ratio_err(fast))


# -- percentiles -----------------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_highest_percentile_with_ten_samples_beyond(n, expected):
    assert stats.highest_reportable(n) == expected


def test_samples_beyond_counts_strictly_above():
    assert stats.samples_beyond(200, 95.0) == 10
    assert stats.samples_beyond(199, 95.0) == 9
    assert stats.samples_beyond(1000, 99.0) == 10


def test_percentile_interpolates():
    values = [4.0, 1.0, 3.0, 2.0]
    assert stats.median(values) == 2.5
    assert stats.percentile(values, 0) == 1.0
    assert stats.percentile(values, 100) == 4.0
    assert stats.percentile(list(range(101)), 95) == 95.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.0, 10.2, 9.8, 10.1, 9.9]
    assert 0.0 < stats.quartile_spread(values) < 0.1


# -- fingerprints ----------------------------------------------------------------


def test_digest_is_order_independent_and_exact():
    a = {"elapsed": 1.5, "serve": {"x": 1.0, "y": float("nan")}}
    b = {"serve": {"y": float("nan"), "x": 1.0}, "elapsed": 1.5}
    assert stats.digest(a) == stats.digest(b)
    c = dict(a, elapsed=math.nextafter(1.5, 2.0))
    assert stats.digest(a) != stats.digest(c)
    assert stats.combine(["a", "b"]) != stats.combine(["b", "a"])


def _tiny(collect_metrics=False, **kw):
    from repro import SimulationConfig

    return lambda: SimulationConfig(
        nprocs=6, nqueries=3, nfragments=6, strategy="ww-coll",
        collect_metrics=collect_metrics, **kw,
    )


def _tiny_workload(seed, collect_metrics):
    return [("ww-coll", _tiny(collect_metrics, seed=seed))]


def test_fingerprint_stable_across_runs_and_metrics():
    first = run.run_pass(_tiny_workload, 2006, collect_metrics=False)
    again = run.run_pass(_tiny_workload, 2006, collect_metrics=False)
    with run.counting_hooks() as counts:
        metered = run.run_pass(_tiny_workload, 2006, collect_metrics=True)
    assert all(r.ok for r in first + again + metered)
    assert first[0].digest == again[0].digest == metered[0].digest
    assert first[0].events == again[0].events == metered[0].events > 0
    assert counts["isends"] > 0 and counts["processes"] > 0
    other_seed = run.run_pass(_tiny_workload, 7, collect_metrics=False)
    assert other_seed[0].digest != first[0].digest


def test_counting_hooks_restore_the_program():
    from repro.mpi.communicator import RankComm
    from repro.pvfs.server import IOServer
    from repro.sim.environment import Environment

    before = (RankComm.isend, Environment.process, IOServer.service_write)
    with run.counting_hooks():
        assert RankComm.isend is not before[0]
    assert (RankComm.isend, Environment.process, IOServer.service_write) == before


# -- output checks ---------------------------------------------------------------


def _result(complete=True, serve=None, shards=None):
    fs = SimpleNamespace(
        complete=complete, total_bytes=10, expected_bytes=10, nextents=1, dense=True
    )
    res = SimpleNamespace(file_stats=fs, serve_stats=serve or {})
    if shards is not None:
        res.shard_serve_stats = shards
    return res


LEDGER = {"offered": 10.0, "admitted": 9.0, "rejected": 1.0, "shed": 0.0,
          "completed": 9.0}


def test_check_result_accepts_a_balanced_ledger():
    assert run.check_result(_result()) == ""
    assert run.check_result(_result(serve=LEDGER)) == ""
    thief = dict(LEDGER, admitted=10.0, completed=10.0, stolen=1.0)
    victim = dict(LEDGER, donated=1.0, completed=8.0)
    merged = {k: thief[k] + victim[k] for k in LEDGER}
    merged.update(steals=1.0, donated=1.0, completed=18.0)
    assert run.check_result(_result(serve=merged, shards=[thief, victim])) == ""


def test_check_result_rejects_incomplete_output_and_bad_ledgers():
    assert "incomplete" in run.check_result(_result(complete=False))
    lost = dict(LEDGER, rejected=0.0)
    assert "offered+stolen" in run.check_result(_result(serve=lost))
    unfinished = dict(LEDGER, completed=8.0)
    assert "unfinished" in run.check_result(_result(serve=unfinished))
    bad_shard = dict(LEDGER, offered=11.0)
    assert "shard 0" in run.check_result(_result(serve=LEDGER, shards=[bad_shard]))


# -- the spec and the command ----------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_committed_spec_matches_the_catalogue():
    assert (ROOT / "BENCHMARK.json").read_text() == spec.spec_text()


def test_spec_within_the_contract_limits():
    doc = spec.spec()
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in doc["end_to_end"] + doc["per_layer"])
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["per_layer"]) <= 128
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 1 <= doc["run_seconds"] <= 60


def test_metrics_documented_in_the_readme():
    readme = (HERE / "README.md").read_text()
    for metric in spec.END_TO_END + spec.PER_LAYER:
        assert f"`{metric.name}`" in readme, metric.name


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-mixed"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "{" not in proc.stdout
    assert "sources are missing" in proc.stderr


def test_result_line_is_the_contract_json(capsys):
    run.emit(True, 3, 0, {"wall_s": 1.25, "setup_s": 0.01})
    line = capsys.readouterr().out.strip().splitlines()[-1]
    doc = json.loads(line)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["metrics"]["wall_s"] == {"value": 1.25, "unit": "s"}
