"""The benchmark's workloads: which simulations each one runs.

Every workload is a fixed list of simulation configurations generated
from the benchmark's ``--seed``.  The program is driven only through its
public entry points: :class:`SimulationConfig` and ``get_scenario`` build
the configurations, :class:`S3aSim` (or, for a multi-master run, its
sharded counterpart :class:`repro.shard.MasterGroup`, which
``run_simulation`` dispatches to) builds and runs each simulation.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Callable, Dict, List, Tuple

from repro import S3aSim, SimulationConfig
from repro.core import get_scenario
from repro.pvfs import PVFSConfig
from repro.serve.arrivals import ArrivalConfig
from repro.shard import MasterGroup, ShardConfig
from repro.workload.results import ResultModel

#: ``(label, make_config)`` for each simulation of a workload, in run
#: order.  Building the configuration is part of the timed set-up.
SimList = List[Tuple[str, Callable[[], SimulationConfig]]]


def paper_96p(seed: int, collect_metrics: bool) -> SimList:
    """Section 3.3 at 96 processes, no query sync, all four strategies."""
    return [
        (
            strategy,
            partial(
                SimulationConfig.paper_setup,
                96,
                strategy,
                seed=seed,
                collect_metrics=collect_metrics,
            ),
        )
        for strategy in ("mw", "ww-posix", "ww-list", "ww-coll")
    ]


def scale_1000r(seed: int, collect_metrics: bool) -> SimList:
    """1000 ranks on 128 servers, one query; ww-coll is left out."""

    def make(strategy: str, nfragments: int) -> SimulationConfig:
        return SimulationConfig(
            nprocs=1000,
            strategy=strategy,
            nqueries=1,
            nfragments=nfragments,
            seed=seed,
            pvfs=replace(PVFSConfig.feynman(), nservers=128),
            collect_metrics=collect_metrics,
        )

    return [
        (strategy, partial(make, strategy, nfragments))
        for strategy, nfragments in (("mw", 1000), ("ww-posix", 250), ("ww-list", 250))
    ]


def serve_mixed(seed: int, collect_metrics: bool) -> SimList:
    """The preload scenario as a 4-master service near its knee.

    64 ranks take 216 Poisson arrivals at 8 queries/s with at most 8
    pending queries per master.  Eight fragments and 250-500 results per
    query keep one simulation to about half a million events; at this
    rate a few percent of arrivals are rejected and masters steal.
    """

    def make() -> SimulationConfig:
        base = SimulationConfig(
            nprocs=64,
            nqueries=216,
            nfragments=8,
            seed=seed,
            result_model=ResultModel(min_count=250, max_count=500),
            arrival=ArrivalConfig(process="poisson", rate=8.0, max_pending=8),
            shard=ShardConfig(nshards=4, placement="hash", steal=True),
            collect_metrics=collect_metrics,
        )
        return get_scenario("preload", base)

    return [("hybrid-auto", make)]


WORKLOADS: Dict[str, Callable[[int, bool], SimList]] = {
    "paper-96p": paper_96p,
    "scale-1000r": scale_1000r,
    "serve-mixed": serve_mixed,
}


def build(config: SimulationConfig):
    """The runnable simulation for ``config`` (``.run()``, ``.world``)."""
    if config.shard is not None and config.shard.nshards > 1:
        return MasterGroup(config)
    return S3aSim(config)
