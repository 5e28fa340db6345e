"""The benchmark's catalogue: workloads, metrics, units and bounds.

This module is the single source of ``BENCHMARK.json`` at the repository
root (``python3 perfbench/run.py --write-spec`` regenerates it; a test
checks that the committed file matches).  It imports nothing from
``repro``, so the spec can be written and checked without the program.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: Seed whose 20-query workload matches the paper's constants
#: (``repro.core.config.PAPER_SEED``); the default ``--seed``.
PAPER_SEED = 2006

#: How long one untraced run measures (``--seconds`` default).
RUN_SECONDS = 30

#: Workload names and why each was chosen (one line each).
WORKLOADS: Tuple[Tuple[str, str], ...] = (
    (
        "paper-96p",
        "the paper's 96-process point, all four strategies: ww-coll "
        "two-phase, the mw merge and the heaviest mpi traffic",
    ),
    (
        "scale-1000r",
        "1000 ranks and 128 servers: the largest event population and sync "
        "fan-out, with no two-phase (control for collective changes)",
    ),
    (
        "serve-mixed",
        "the preload scenario as a 4-master open-loop service near its "
        "knee: admission, work-stealing and the adaptive selector, no "
        "two-phase",
    ),
)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  #: "lower" or "higher"
    #: Share of the parent's median a metric may worsen (end-to-end only).
    bound: Optional[float] = None


#: End-to-end metrics: measured untraced, reported with ``--trace 0``.
END_TO_END: Tuple[Metric, ...] = (
    Metric("wall_s", "s", "lower", bound=0.25),
    Metric("setup_s", "s", "lower", bound=0.25),
    Metric("peak_rss_mib", "MiB", "lower", bound=0.15),
)

_PHASES = (
    "data_distribution",
    "compute",
    "merge_results",
    "gather_results",
    "io",
    "sync",
)
#: Strategies the adaptive selector can choose (``adapt.choices_<s>``).
STRATEGIES = ("mw", "ww-posix", "ww-list", "ww-coll")

#: Per-layer metrics: measured in the traced run, reported with
#: ``--trace 1``.  No bounds: they explain end-to-end moves.
PER_LAYER: Tuple[Metric, ...] = (
    Metric("sim.self_s", "s", "lower"),
    Metric("sim.events", "count", "lower"),
    Metric("sim.processes", "count", "lower"),
    Metric("sim.host_us_per_event", "us", "lower"),
    Metric("mpi.self_s", "s", "lower"),
    Metric("mpi.messages", "count", "lower"),
    Metric("mpi.bytes", "B", "lower"),
    Metric("mpi.rendezvous_messages", "count", "lower"),
    Metric("mpi.zero_byte_sends", "count", "lower"),
    Metric("mpi.zero_byte_frac", "ratio", "lower"),
    Metric("pvfs.self_s", "s", "lower"),
    Metric("pvfs.requests", "count", "lower"),
    Metric("pvfs.regions", "count", "lower"),
    Metric("pvfs.seeks", "count", "lower"),
    Metric("pvfs.syncs", "count", "lower"),
    Metric("pvfs.bytes_written", "B", "lower"),
    Metric("pvfs.bytes_read", "B", "lower"),
    Metric("pvfs.busy_s_mean", "s", "lower"),
    Metric("pvfs.queue_depth_p95", "requests", "lower"),
    Metric("pvfs.readahead_hit_frac", "ratio", "higher"),
    Metric("pvfs.readahead_wasted_frac", "ratio", "lower"),
    Metric("mpiio.self_s", "s", "lower"),
    Metric("mpiio.posix_writes", "count", "lower"),
    Metric("mpiio.list_writes", "count", "lower"),
    Metric("mpiio.list_regions", "count", "lower"),
    Metric("mpiio.list_reads", "count", "lower"),
    Metric("mpiio.twophase_rounds", "count", "lower"),
    Metric("mpiio.twophase_exchange_bytes", "B", "lower"),
    Metric("core.self_s", "s", "lower"),
    Metric("core.tasks_completed", "count", "higher"),
    *(Metric(f"core.phase_{p}_s", "s", "lower") for p in _PHASES),
    Metric("workload.self_s", "s", "lower"),
    Metric("workload.result_bytes", "B", "higher"),
    Metric("serve.self_s", "s", "lower"),
    Metric("serve.offered", "count", "higher"),
    Metric("serve.admitted", "count", "higher"),
    Metric("serve.completed", "count", "higher"),
    Metric("shard.steals", "count", "higher"),
    *(
        Metric(f"adapt.choices_{s}", "count", "higher")
        for s in STRATEGIES
    ),
    Metric("paper_ratio_err", "ratio", "lower"),
    Metric("sim_p95_s", "s", "lower"),
    Metric("sim_reject_frac", "ratio", "lower"),
    Metric("other.self_s", "s", "lower"),
    Metric("bench.trace_overhead_frac", "ratio", "lower"),
)

UNITS: Dict[str, str] = {m.name: m.unit for m in END_TO_END + PER_LAYER}


def spec() -> dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


def spec_text() -> str:
    return json.dumps(spec(), indent=2) + "\n"
