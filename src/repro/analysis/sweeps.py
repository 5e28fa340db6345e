"""Parameter sweeps: the experiment drivers behind the paper's figures.

Figure 2/3/4 sweep the process count at fixed compute speed; Figure 5/6/7
sweep the compute speed at 64 processes.  Each sweep point is one full
S3aSim run; results collect into a :class:`SweepResult` that the table and
figure formatters consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.config import SimulationConfig
from ..core.report import RunResult
from ..core.strategies import is_adaptive
from ..exec.engine import (
    PointOutcome,
    PointSpec,
    SweepExecutionError,
    run_points,
)

#: The paper's process-count axis (Section 3.3: "One suite of tests used 2
#: to 96 processors", figures show 2,4,8,16,32,48,64,96).
PAPER_PROCESS_COUNTS: Tuple[int, ...] = (2, 4, 8, 16, 32, 48, 64, 96)

#: The paper's compute-speed axis (0.1 to 25.6, doubling).
PAPER_COMPUTE_SPEEDS: Tuple[float, ...] = (0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4, 12.8, 25.6)

#: All four strategies in the paper's presentation order.
ALL_STRATEGIES: Tuple[str, ...] = ("mw", "ww-posix", "ww-list", "ww-coll")

#: Default cache-size axis (MiB per I/O server) for the server-cache sweep.
DEFAULT_CACHE_MIBS: Tuple[float, ...] = (0.0, 1.0, 4.0, 16.0)

_MIB = 1024 * 1024


def strategy_grid(
    strategies: Sequence[str], sync_options: Sequence[bool]
) -> List[Tuple[bool, str]]:
    """The (query_sync, strategy) product a sweep actually runs.

    ``hybrid-auto`` rejects ``query_sync`` (the per-query strategy choice
    is meaningless when every query gates on a barrier), so the adaptive
    strategy only joins the no-sync series; the statics fill the full
    grid.  Returned in (sync, strategy) nesting order to match the spec
    loops.
    """
    return [
        (query_sync, strategy)
        for query_sync in sync_options
        for strategy in strategies
        if not (query_sync and is_adaptive(strategy))
    ]


@dataclass(frozen=True)
class SweepPoint:
    """One run within a sweep."""

    strategy: str
    query_sync: bool
    x: float  # the swept value (process count or compute speed)
    result: RunResult


@dataclass
class SweepResult:
    """All runs of one sweep, indexable by (strategy, sync, x)."""

    axis_name: str
    points: List[SweepPoint] = field(default_factory=list)

    def add(self, point: SweepPoint) -> None:
        self.points.append(point)

    def series(self, strategy: str, query_sync: bool) -> List[Tuple[float, RunResult]]:
        """The (x, result) series of one strategy/sync combination.

        Sorted by x only (stable): two points may share an x (replicated
        runs, fault sweeps), and ``RunResult`` objects are not orderable.
        """
        return sorted(
            (
                (p.x, p.result)
                for p in self.points
                if p.strategy == strategy and p.query_sync == query_sync
            ),
            key=lambda pair: pair[0],
        )

    def lookup(self, strategy: str, query_sync: bool, x: float) -> RunResult:
        for p in self.points:
            if p.strategy == strategy and p.query_sync == query_sync and p.x == x:
                return p.result
        raise KeyError((strategy, query_sync, x))

    def xs(self) -> List[float]:
        return sorted({p.x for p in self.points})

    def strategies(self) -> List[str]:
        seen: List[str] = []
        for p in self.points:
            if p.strategy not in seen:
                seen.append(p.strategy)
        return seen


ProgressHook = Optional[Callable[[SweepPoint], None]]

#: Engine-level hook: sees every completed point, including failures
#: (e.g. :class:`repro.exec.ProgressReporter` for ETA lines).
OutcomeHook = Optional[Callable[[PointOutcome], None]]


def _execute_sweep(
    axis_name: str,
    specs: Sequence[PointSpec],
    jobs: int,
    progress: ProgressHook,
    reporter: OutcomeHook,
) -> SweepResult:
    """Run the point specs through the engine and collect a SweepResult.

    Points land in the SweepResult in spec (submission) order whatever the
    parallel completion order was; ``progress`` fires per successful point
    in *completion* order.  If any point failed, the survivors still run to
    completion and a :class:`SweepExecutionError` aggregating the failures
    is raised at the end.
    """

    def on_complete(outcome: PointOutcome) -> None:
        if outcome.ok and progress is not None:
            strategy, query_sync, x = outcome.key
            progress(
                SweepPoint(
                    strategy=strategy,
                    query_sync=query_sync,
                    x=x,
                    result=outcome.result,
                )
            )
        if reporter is not None:
            reporter(outcome)

    outcomes = run_points(specs, jobs=jobs, progress=on_complete)
    failures = [o.failure for o in outcomes if o.failure is not None]
    if failures:
        raise SweepExecutionError(failures)

    sweep = SweepResult(axis_name=axis_name)
    for outcome in outcomes:
        strategy, query_sync, x = outcome.key
        sweep.add(
            SweepPoint(
                strategy=strategy, query_sync=query_sync, x=x, result=outcome.result
            )
        )
    return sweep


def process_scaling_sweep(
    base: SimulationConfig,
    process_counts: Sequence[int] = PAPER_PROCESS_COUNTS,
    strategies: Sequence[str] = ALL_STRATEGIES,
    sync_options: Sequence[bool] = (False, True),
    progress: ProgressHook = None,
    jobs: int = 1,
    reporter: OutcomeHook = None,
) -> SweepResult:
    """Figure 2's experiment: overall time vs process count.

    ``jobs > 1`` fans the points out across a process pool; every point
    carries the same workload seed (strategies must compare on identical
    inputs) and rebuilds its random streams from its own config, so the
    result is bit-identical to ``jobs=1``.
    """
    specs = [
        PointSpec(
            key=(strategy, query_sync, float(nprocs)),
            config=base.with_(
                nprocs=nprocs, strategy=strategy, query_sync=query_sync
            ),
        )
        for nprocs in process_counts
        for query_sync, strategy in strategy_grid(strategies, sync_options)
    ]
    return _execute_sweep("processes", specs, jobs, progress, reporter)


def compute_speed_sweep(
    base: SimulationConfig,
    speeds: Sequence[float] = PAPER_COMPUTE_SPEEDS,
    strategies: Sequence[str] = ALL_STRATEGIES,
    sync_options: Sequence[bool] = (False, True),
    nprocs: int = 64,
    progress: ProgressHook = None,
    jobs: int = 1,
    reporter: OutcomeHook = None,
) -> SweepResult:
    """Figure 5's experiment: overall time vs compute speed at 64 procs."""
    specs = [
        PointSpec(
            key=(strategy, query_sync, float(speed)),
            config=base.with_(
                nprocs=nprocs,
                strategy=strategy,
                query_sync=query_sync,
                compute=replace(base.compute, speed=speed),
            ),
        )
        for speed in speeds
        for query_sync, strategy in strategy_grid(strategies, sync_options)
    ]
    return _execute_sweep("compute_speed", specs, jobs, progress, reporter)


def server_cache_sweep(
    base: SimulationConfig,
    cache_mibs: Sequence[float] = DEFAULT_CACHE_MIBS,
    strategies: Sequence[str] = ALL_STRATEGIES,
    sync_options: Sequence[bool] = (False, True),
    nprocs: Optional[int] = None,
    progress: ProgressHook = None,
    jobs: int = 1,
    reporter: OutcomeHook = None,
) -> SweepResult:
    """The new experiment axis: overall time vs per-server cache size.

    Sweeps the write-back cache capacity at the disk scheduler already
    set on ``base.pvfs`` (``disk_sched``; run once per scheduler to
    compare fifo vs elevator).  ``x`` is the cache size in MiB — 0 is the
    seed's cache-less daemon.
    """
    specs = []
    for mib in cache_mibs:
        if mib < 0:
            raise ValueError(f"cache size must be non-negative, got {mib}")
        pvfs = replace(base.pvfs, server_cache_B=int(mib * _MIB))
        for query_sync, strategy in strategy_grid(strategies, sync_options):
            config = base.with_(
                strategy=strategy, query_sync=query_sync, pvfs=pvfs
            )
            if nprocs is not None:
                config = config.with_(nprocs=nprocs)
            specs.append(
                PointSpec(key=(strategy, query_sync, float(mib)), config=config)
            )
    return _execute_sweep("server_cache_mib", specs, jobs, progress, reporter)


def arrival_sweep(
    base: SimulationConfig,
    rates: Sequence[float],
    strategies: Sequence[str] = ALL_STRATEGIES,
    sync_options: Sequence[bool] = (False,),
    nprocs: Optional[int] = None,
    progress: ProgressHook = None,
    jobs: int = 1,
    reporter: OutcomeHook = None,
) -> SweepResult:
    """Serve-mode axis: completion latency vs offered load per strategy.

    ``base.arrival`` must be set (it supplies the arrival process,
    admission policy, and horizon); ``x`` is the offered rate in queries
    per second.  The interesting output is each point's
    ``result.serve_stats`` — admitted/rejected counts and the latency
    percentiles — which diverge across strategies as the rate approaches
    saturation.
    """
    if base.arrival is None:
        raise ValueError("arrival_sweep needs base.arrival set")
    specs = []
    for rate in rates:
        if rate <= 0:
            raise ValueError(f"arrival rate must be positive, got {rate}")
        arrival = replace(base.arrival, rate=float(rate))
        for query_sync, strategy in strategy_grid(strategies, sync_options):
            config = base.with_(
                strategy=strategy, query_sync=query_sync, arrival=arrival
            )
            if nprocs is not None:
                config = config.with_(nprocs=nprocs)
            specs.append(
                PointSpec(key=(strategy, query_sync, float(rate)), config=config)
            )
    return _execute_sweep("arrival_rate", specs, jobs, progress, reporter)


def masters_sweep(
    base: SimulationConfig,
    master_counts: Sequence[int] = (1, 2, 4, 8),
    strategies: Sequence[str] = ALL_STRATEGIES,
    sync_options: Sequence[bool] = (False,),
    nprocs: Optional[int] = None,
    progress: ProgressHook = None,
    jobs: int = 1,
    reporter: OutcomeHook = None,
) -> SweepResult:
    """Sharding axis: latency and throughput vs number of masters.

    ``x`` is the master count — 1 is the seed's single-master topology
    (``shard=None``, bit-identical to every earlier run); each extra
    master splits the same ``nprocs`` into an independent shard with its
    own worker pool, sharing the network and the PVFS volume.  The
    interesting outputs are the merged latency percentiles (does sharding
    relieve the single master's admission bottleneck under saturating
    load?) and ``serve_stats["imbalance"]`` (how well placement plus
    work-stealing spreads the queries).

    ``base.arrival`` must be set: the axis measures serve-mode latency.
    """
    if base.arrival is None:
        raise ValueError("masters_sweep needs base.arrival set")
    from ..shard.state import ShardConfig

    shard_base = base.shard or ShardConfig()
    specs = []
    for masters in master_counts:
        if masters < 1:
            raise ValueError(f"master count must be >= 1, got {masters}")
        shard = (
            replace(shard_base, nshards=int(masters)) if masters > 1 else None
        )
        for query_sync, strategy in strategy_grid(strategies, sync_options):
            config = base.with_(
                strategy=strategy, query_sync=query_sync, shard=shard
            )
            if nprocs is not None:
                config = config.with_(nprocs=nprocs)
            specs.append(
                PointSpec(
                    key=(strategy, query_sync, float(masters)),
                    config=config,
                )
            )
    return _execute_sweep("masters", specs, jobs, progress, reporter)


def replica_sweep(
    base: SimulationConfig,
    replica_counts: Sequence[int] = (1, 2, 3),
    strategies: Sequence[str] = ALL_STRATEGIES,
    sync_options: Sequence[bool] = (False, True),
    nprocs: Optional[int] = None,
    progress: ProgressHook = None,
    jobs: int = 1,
    reporter: OutcomeHook = None,
) -> SweepResult:
    """ROADMAP's replication scale study: overall time vs replica count.

    ``x`` is the per-stripe replica count — 1 is the seed's unreplicated
    volume, each extra copy buys outage survival at the write-amplification
    cost the sweep measures.  Combine with ``base.fault_plan`` to measure
    the degraded-mode price instead of the healthy-path price.
    """
    specs = []
    for replicas in replica_counts:
        if replicas < 1:
            raise ValueError(f"replica count must be >= 1, got {replicas}")
        pvfs = replace(base.pvfs, replicas=int(replicas))
        for query_sync, strategy in strategy_grid(strategies, sync_options):
            config = base.with_(
                strategy=strategy, query_sync=query_sync, pvfs=pvfs
            )
            if nprocs is not None:
                config = config.with_(nprocs=nprocs)
            specs.append(
                PointSpec(
                    key=(strategy, query_sync, float(replicas)), config=config
                )
            )
    return _execute_sweep("replicas", specs, jobs, progress, reporter)
