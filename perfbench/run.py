"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-96p [--seed 2006] [--seconds 30] [--trace 0|1]
    python3 perfbench/run.py --write-spec        # regenerate BENCHMARK.json

``--trace 0`` measures the end-to-end metrics: whole passes over the
workload's simulations, one after another in this process (a closed loop
with one client), until ``--seconds`` have elapsed.  ``--trace 1`` runs
one pass with the program's metrics registry on and one pass under
``cProfile``, and reports the per-layer metrics.  Every simulation's
output is checked; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 when
every check passed, 1 when one failed and 2 when the program's sources
are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
import traceback
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402
import stats  # noqa: E402

#: Set-up takes milliseconds, so a run times it at least this often, in
#: windows of this many seconds before each pass and after the last one.
SETUP_SAMPLES = 21
SETUP_WINDOW_S = 0.25
#: Seconds of busy work before anything is timed: the first half second
#: of a freshly started process often runs markedly slower.
WARM_UP_S = 1.0
#: The traced pass's per-layer self times must sum to its wall time
#: within this share.
ATTRIBUTION_TOLERANCE = 0.10
#: ``src/repro/<package>`` -> layer; unlisted packages are "other".
PACKAGE_LAYER = {
    "sim": "sim",
    "mpi": "mpi",
    "pvfs": "pvfs",
    "mpiio": "mpiio",
    "core": "core",
    "workload": "workload",
    "serve": "serve",
    "shard": "serve",
    "adapt": "serve",
}
LAYERS = ("sim", "mpi", "pvfs", "mpiio", "core", "workload", "serve", "other")


@dataclass
class SimRecord:
    """One simulation of one pass."""

    label: str
    setup_s: float = 0.0
    run_s: float = 0.0
    events: int = 0
    digest: str = ""
    error: str = ""
    result: object = None

    @property
    def ok(self) -> bool:
        return not self.error


# -- output checks -----------------------------------------------------------


def result_digest(result) -> str:
    """Digest of a run's simulated results: elapsed, per-rank phase
    reports (single-master runs), file bytes and extents, server totals
    and the serve ledger."""
    fs = result.file_stats
    doc = {
        "elapsed": result.elapsed,
        "file": [fs.total_bytes, fs.expected_bytes, fs.nextents, fs.dense],
        "servers": result.server_stats,
        "serve": result.serve_stats,
    }
    if hasattr(result, "master"):
        doc["ranks"] = [result.master.as_dict()] + [
            w.as_dict() for w in result.workers
        ]
    if hasattr(result, "shard_serve_stats"):
        doc["shards"] = result.shard_serve_stats
    return stats.digest(doc)


def check_result(result) -> str:
    """Empty when the output is right, else what is wrong."""
    if not result.file_stats.complete:
        fs = result.file_stats
        return (
            f"output file incomplete: {fs.total_bytes} of "
            f"{fs.expected_bytes} bytes in {fs.nextents} extents"
        )
    if not result.serve_stats:
        return ""
    ledgers = [("global", result.serve_stats)] + [
        (f"shard {i}", s)
        for i, s in enumerate(getattr(result, "shard_serve_stats", []))
    ]
    for name, s in ledgers:
        stolen = s.get("stolen", s.get("steals", 0.0))
        donated = s.get("donated", 0.0)
        # A shed slot's takeover is a fresh admission of the arriving
        # query, so every offered or stolen arrival is admitted or rejected
        # (offered + stolen = admitted + rejected + shed when nothing is shed).
        if s["offered"] + stolen != s["admitted"] + s["rejected"]:
            return f"{name} serve ledger: offered+stolen != admitted+rejected ({s})"
        if s["completed"] + s["shed"] + donated != s["admitted"]:
            return f"{name} serve ledger: admitted queries left unfinished ({s})"
    return ""


# -- one pass over a workload ------------------------------------------------


def run_pass(make_sims, seed: int, collect_metrics: bool, spans=None) -> List[SimRecord]:
    """Build, run and check every simulation of the workload once.

    ``spans``, when a list, receives ``(label, phase, start, end)`` for the
    setup, run and verify step of each simulation.
    """
    from workloads import build

    records: List[SimRecord] = []
    for label, make_config in make_sims(seed, collect_metrics):
        rec = SimRecord(label)
        records.append(rec)
        gc.collect()
        sim = None
        try:
            t0 = time.perf_counter()
            sim = build(make_config())
            t1 = time.perf_counter()
            result = sim.run()
            t2 = time.perf_counter()
            # The one private read: events scheduled by the kernel.
            rec.events = next(sim.world.env._eid)
            rec.error = check_result(result)
            rec.digest = result_digest(result)
            rec.result = result
            t3 = time.perf_counter()
        except Exception:  # a crashed simulation is a failed one
            rec.error = traceback.format_exc(limit=6)
            continue
        finally:
            del sim
        rec.setup_s, rec.run_s = t1 - t0, t2 - t1
        if spans is not None:
            spans += [
                (label, "setup", t0, t1),
                (label, "run", t1, t2),
                (label, "verify", t2, t3),
            ]
    return records


def setup_only(make_sims, seed: int) -> float:
    """Host seconds to build every simulation of the workload, unrun."""
    from workloads import build

    total = 0.0
    for _, make_config in make_sims(seed, False):
        gc.collect()
        t0 = time.perf_counter()
        sim = build(make_config())
        total += time.perf_counter() - t0
        del sim
    return total


def simulated_metrics(records: List[SimRecord]) -> Dict[str, float]:
    """The deterministic end-to-end results of the modelled system."""
    out = {"paper_ratio_err": 0.0, "sim_p95_s": 0.0, "sim_reject_frac": 0.0}
    elapsed = {r.label: r.result.elapsed for r in records if r.ok}
    if set(stats.PAPER_96P_SPEEDUP) | {"ww-list"} <= set(elapsed):
        out["paper_ratio_err"] = stats.paper_ratio_err(elapsed)
    for r in records:
        s = r.result.serve_stats if r.ok else None
        if s:
            out["sim_p95_s"] = s["latency_p95_s"]
            out["sim_reject_frac"] = s["rejected"] / s["offered"]
            out["sim_completed"] = s["completed"]
    return out


# -- untraced measurement ----------------------------------------------------


def warm_up(seconds: float = WARM_UP_S) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        sum(i * i for i in range(1000))


def sample_setups(make_sims, seed: int, setups: List[float], min_total: int = 0) -> None:
    """Append set-up samples for one window (and until ``min_total``)."""
    end = time.perf_counter() + SETUP_WINDOW_S
    while time.perf_counter() < end or len(setups) < min_total:
        setups.append(setup_only(make_sims, seed))


def measure(make_sims, seed: int, seconds: float):
    """Whole passes while another pass of the mean length still fits in
    ``seconds`` (at least one pass), with set-up sampled between passes."""
    warm_up()
    setups: List[float] = []
    passes: List[List[SimRecord]] = []
    start = time.perf_counter()
    while True:
        sample_setups(make_sims, seed, setups)
        passes.append(run_pass(make_sims, seed, collect_metrics=False))
        if not all(r.ok for r in passes[-1]):
            break
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    sample_setups(make_sims, seed, setups, min_total=SETUP_SAMPLES)
    setups += [sum(r.setup_s for r in p) for p in passes]
    return setups, passes


# -- traced run ---------------------------------------------------------------


@contextmanager
def counting_hooks():
    """Count sends, zero-byte sends, processes and server read regions by
    wrapping three methods of the program from outside."""
    from repro.mpi.communicator import RankComm
    from repro.pvfs.server import IOServer
    from repro.sim.environment import Environment

    counts: Counter = Counter()
    isend, process, service = RankComm.isend, Environment.process, IOServer.service_write

    def counted_isend(self, dst, tag, nbytes, payload=None, oob=False):
        counts["isends"] += 1
        if nbytes == 0:
            counts["zero_byte_sends"] += 1
        return isend(self, dst, tag, nbytes, payload, oob)

    def counted_process(self, generator, name=None):
        counts["processes"] += 1
        return process(self, generator, name)

    def counted_service(self, regions, is_read=False):
        if is_read:
            counts["read_regions"] += len(regions)
        return service(self, regions, is_read)

    RankComm.isend = counted_isend
    Environment.process = counted_process
    IOServer.service_write = counted_service
    try:
        yield counts
    finally:
        RankComm.isend = isend
        Environment.process = process
        IOServer.service_write = service


@dataclass
class Traced:
    """The two passes of a traced run over the same inputs."""

    metered: List[SimRecord]  #: the program's metrics registry on
    profiled: List[SimRecord]  #: under cProfile and the counting hooks
    counts: Dict[str, int]
    layer_self: Dict[str, float]
    profiled_wall: float
    spans: List[tuple]


def traced(make_sims, seed: int, workload: str) -> Traced:
    """A metered pass, then a profiled pass of the same inputs.

    The metrics registry stays out of the profiled pass: its bookkeeping
    is many small Python calls, and profiling them would charge the
    profiler's cost of that instrumentation to the layers.
    """
    import cProfile
    import pstats

    warm_up()
    metered = run_pass(make_sims, seed, collect_metrics=True)
    spans: List[tuple] = []
    # builtins=False: a C builtin's time stays in its caller's self time,
    # which charges it to the calling layer exactly and profiles cheaper.
    profiler = cProfile.Profile(builtins=False)
    with counting_hooks() as counts:
        t0 = time.perf_counter()
        profiler.enable()
        profiled = run_pass(make_sims, seed, collect_metrics=False, spans=spans)
        profiler.disable()
        profiled_wall = time.perf_counter() - t0
    layer_self = stats.attribute_self_time(
        pstats.Stats(profiler).stats, stats.repro_layer_of(PACKAGE_LAYER)
    )
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"spans-{workload}-{seed}.json").write_text(
        json.dumps(
            [
                {"sim": s, "span": p, "start": a - t0, "end": b - t0}
                for s, p, a, b in spans
            ],
            indent=1,
        )
    )
    return Traced(metered, profiled, dict(counts), layer_self, profiled_wall, spans)


def layer_metrics(t: Traced) -> Dict[str, float]:
    """Every per-layer metric of ``spec.PER_LAYER``."""
    records, counts = t.metered, t.counts
    snaps = [r.result.metrics for r in records]

    def ctr(name: str, **labels) -> float:
        return sum(s.counter_total(name, **labels) for s in snaps)

    def frac(num: float, den: float) -> float:
        return num / den if den else 0.0

    queue = None
    for s in snaps:
        h = s.histogram_summary("pvfs.disk_queue_depth")
        if h is not None:
            queue = h if queue is None else queue.merged(h)
    events = sum(r.events for r in records)
    serve = [r.result.serve_stats for r in records if r.result.serve_stats]
    m: Dict[str, float] = {
        f"{layer}.self_s": t.layer_self.get(layer, 0.0) for layer in LAYERS
    }
    m.update(
        {
            "sim.events": float(events),
            "sim.processes": float(counts.get("processes", 0)),
            "sim.host_us_per_event": 1e6 * sum(r.run_s for r in records) / events,
            "mpi.messages": ctr("mpi.messages"),
            "mpi.bytes": ctr("mpi.bytes"),
            "mpi.rendezvous_messages": ctr("mpi.messages", kind="rendezvous"),
            "mpi.zero_byte_sends": float(counts.get("zero_byte_sends", 0)),
            "mpi.zero_byte_frac": frac(
                counts.get("zero_byte_sends", 0), counts.get("isends", 0)
            ),
            "pvfs.busy_s_mean": sum(r.result.server_stats["mean_busy_s"] for r in records),
            "pvfs.queue_depth_p95": queue.quantile(0.95) if queue is not None else 0.0,
            "pvfs.readahead_hit_frac": frac(
                ctr("pvfs.readahead_hits"), counts.get("read_regions", 0)
            ),
            "pvfs.readahead_wasted_frac": frac(
                ctr("pvfs.readahead_wasted"), ctr("pvfs.readahead_bytes")
            ),
            "core.tasks_completed": ctr("app.tasks_completed"),
            "workload.result_bytes": float(
                sum(r.result.file_stats.expected_bytes for r in records)
            ),
            "serve.offered": sum(s["offered"] for s in serve),
            "serve.admitted": sum(s["admitted"] for s in serve),
            "serve.completed": sum(s["completed"] for s in serve),
            "shard.steals": sum(s.get("steals", s.get("stolen", 0.0)) for s in serve),
        }
    )
    for name in ("requests", "regions", "seeks", "syncs", "bytes_written", "bytes_read"):
        m[f"pvfs.{name}"] = ctr(f"pvfs.{name}")
    for name in ("posix_writes", "list_writes", "list_regions", "list_reads",
                 "twophase_rounds", "twophase_exchange_bytes"):
        m[f"mpiio.{name}"] = ctr(f"mpiio.{name}")
    for metric in spec.PER_LAYER:
        name = metric.name
        if name.startswith("core.phase_"):
            m[name] = ctr("app.phase_seconds", phase=name[len("core.phase_"):-2])
        elif name.startswith("adapt.choices_"):
            m[name] = ctr("adapt.choices", chosen=name[len("adapt.choices_"):])
    sim = simulated_metrics(records)
    for name in ("paper_ratio_err", "sim_p95_s", "sim_reject_frac"):
        m[name] = sim[name]
    return m


# -- reporting ----------------------------------------------------------------


def print_table(rows: List[Tuple[str, float, str]]) -> None:
    for name, value, unit in rows:
        print(f"  {name:34s} {value:>18.6g} {unit}")


def emit(correct: bool, attempted: int, failed: int, metrics: Dict[str, float]) -> None:
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    k: {"value": v, "unit": spec.UNITS[k]} for k, v in metrics.items()
                },
            }
        )
    )


def report_failures(records: List[SimRecord]) -> int:
    failed = [r for r in records if not r.ok]
    for r in failed:
        print(f"FAILED {r.label}: {r.error}", file=sys.stderr)
    return len(failed)


def fingerprint(records: List[SimRecord]) -> str:
    return stats.combine(f"{r.label}:{r.digest}" for r in records)


def main_untraced(args, make_sims) -> int:
    setups, passes = measure(make_sims, args.seed, args.seconds)
    records = [r for p in passes for r in p]
    failed = report_failures(records)
    digests = {tuple(r.digest for r in p) for p in passes}
    correct = failed == 0
    if failed == 0 and len(digests) != 1:
        print("FAILED: simulated results differ between passes", file=sys.stderr)
        correct = False
    labels = [r.label for r in passes[0]]
    run_s = {
        label: [p[i].run_s for p in passes] for i, label in enumerate(labels)
    }
    wall = sum(stats.median(v) for v in run_s.values())
    metrics = {
        "wall_s": wall,
        "setup_s": stats.median(setups),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    n = len(passes)
    pct = stats.highest_reportable(n)
    print(f"workload {args.workload}  seed {args.seed}  passes {n}  "
          f"setup samples {len(setups)}  fingerprint {fingerprint(passes[0])}")
    for label, values in run_s.items():
        tail = (f"p{pct:g} {stats.percentile(values, pct):.4f} s"
                if pct and pct > 50 else "no tail percentile (<10 samples beyond)")
        print(f"  run {label:12s} median {stats.median(values):.4f} s  n={n}  {tail}  "
              f"samples {' '.join(f'{v:.3f}' for v in values)}")
    sim = simulated_metrics(passes[0]) if correct else {}
    rows = [(k, v, spec.UNITS[k]) for k, v in metrics.items()]
    rows.append(("failed_frac", failed / len(records), "ratio"))
    rows += [(k, v, spec.UNITS.get(k, "count")) for k, v in sim.items()]
    print_table(rows)
    emit(correct, len(records), failed, metrics)
    return 0 if correct else 1


def main_traced(args, make_sims) -> int:
    t = traced(make_sims, args.seed, args.workload)
    failed = report_failures(t.metered + t.profiled)
    correct = failed == 0
    if correct and [(r.digest, r.events) for r in t.metered] != [
        (r.digest, r.events) for r in t.profiled
    ]:
        print("FAILED: the metered and profiled passes differ in results or "
              "event counts", file=sys.stderr)
        correct = False
    metrics: Dict[str, float] = {}
    if failed == 0:
        metrics = layer_metrics(t)
        metered_run = sum(r.run_s for r in t.metered)
        profiled_run = sum(r.run_s for r in t.profiled)
        metrics["bench.trace_overhead_frac"] = (profiled_run - metered_run) / metered_run
        attributed = sum(t.layer_self.values())
        gap = abs(attributed - t.profiled_wall) / t.profiled_wall
        print(f"workload {args.workload}  seed {args.seed}  fingerprint "
              f"{fingerprint(t.metered)} metered, {fingerprint(t.profiled)} profiled")
        print(f"  layer self times sum to {attributed:.3f} s of {t.profiled_wall:.3f} s "
              f"profiled wall (gap {gap:.2%}, tolerance {ATTRIBUTION_TOLERANCE:.0%})")
        if gap > ATTRIBUTION_TOLERANCE:
            print("FAILED: per-layer self times do not account for the profiled "
                  "wall time", file=sys.stderr)
            correct = False
        for phase in ("setup", "run", "verify"):
            total = sum(b - a for _, p, a, b in t.spans if p == phase)
            print(f"  span {phase:7s} {total:.3f} s over {len(t.profiled)} simulations")
        print_table([(m.name, metrics[m.name], m.unit) for m in spec.PER_LAYER])
        metrics = {m.name: metrics[m.name] for m in spec.PER_LAYER}
    emit(correct, len(t.metered) + len(t.profiled), failed, metrics)
    return 0 if correct else 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[n for n, _ in spec.WORKLOADS])
    p.add_argument("--seed", type=int, default=spec.PAPER_SEED)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-spec", action="store_true",
                   help="write BENCHMARK.json at the repository root and exit")
    args = p.parse_args(argv)
    if not args.write_spec and args.workload is None:
        p.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(spec.spec_text())
        return 0
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({src / 'repro'})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    make_sims = WORKLOADS[args.workload]
    if args.trace:
        return main_traced(args, make_sims)
    return main_untraced(args, make_sims)


if __name__ == "__main__":
    sys.exit(main())
