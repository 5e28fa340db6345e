"""Multi-master sharding: placement, stealing, conservation, bit-identity.

The load-bearing guarantee mirrors serve mode's: a single-master
configuration (``--masters 1`` or no shard config at all) must reproduce
the seed bit-for-bit.  On top of that the sharded path itself must
conserve queries globally *and* per shard (the checker's extended ledger
runs on every test here), keep every shard's output file dense, and
actually steal when placement is skewed.  A sharded closed batch (hybrid
query/database segmentation) is pinned bit for bit by ``BATCH_GOLDEN``.
"""

import pytest

from repro.adapt import StrategySelector
from repro.analysis import masters_sweep
from repro.core import S3aSim, SimulationConfig
from repro.core.app import run_simulation
from repro.faults import FaultPlan, FaultToleranceConfig
from repro.serve import ArrivalConfig
from repro.shard import PLACEMENTS, ShardConfig, partition_ranks, place
from repro.shard.group import MasterGroup, run_sharded

#: Seed completion times (tests/obs/test_determinism.py owns these).
GOLDEN = {
    "mw": 25.410715708394612,
    "ww-posix": 24.30148509613702,
    "ww-list": 21.376782075112857,
    "ww-coll": 21.79613830978692,
}

STRATEGIES = tuple(GOLDEN)

#: Sharded closed batch (hybrid query/database segmentation), nfragments=16
#: with stored data: (strategy, nprocs, nqueries, masters) -> (total
#: elapsed, per-shard elapsed, per-shard file extents).
BATCH_GOLDEN = {
    ('mw', 12, 8, 2): (37.29399512030517, (19.375867449132905, 37.29399512030517), (((0, 32096849),), ((0, 63322138),))),
    ('mw', 13, 10, 3): (39.33062866273938, (21.05342789354151, 39.33062866273938, 20.381474027972704), (((0, 30749637),), ((0, 48436611),), ((0, 25670361),))),
    ('ww-coll', 12, 8, 2): (28.29624167974496, (13.885545886343232, 28.29624167974496), (((0, 32096849),), ((0, 63322138),))),
    ('ww-coll', 13, 10, 3): (32.11278012198611, (16.474784504531392, 32.11278012198611, 17.51158818372821), (((0, 30749637),), ((0, 48436611),), ((0, 25670361),))),
    ('ww-list', 12, 8, 2): (24.674331953863298, (12.678984417587428, 24.674331953863298), (((0, 32096849),), ((0, 63322138),))),
    ('ww-list', 13, 10, 3): (31.6477214296948, (15.175353858610855, 31.6477214296948, 16.75786060739838), (((0, 30749637),), ((0, 48436611),), ((0, 25670361),))),
    ('ww-posix', 12, 8, 2): (31.07985725284133, (18.178412360328192, 31.07985725284133), (((0, 32096849),), ((0, 63322138),))),
    ('ww-posix', 13, 10, 3): (39.65314521560494, (22.708936898530677, 39.65314521560494, 23.199190951532337), (((0, 30749637),), ((0, 48436611),), ((0, 25670361),))),
}

SMALL = dict(nprocs=4, nqueries=3, nfragments=6)


def sharded_config(strategy="ww-list", masters=2, placement="range", **kwargs):
    params = dict(
        nprocs=8,
        nqueries=20,
        nfragments=5,
        check=True,
        arrival=ArrivalConfig(process="poisson", rate=5.0),
        shard=ShardConfig(nshards=masters, placement=placement),
    )
    params.update(kwargs)
    return SimulationConfig(strategy=strategy, **params)


class TestUnsharded:
    """shard=None and nshards=1 are the seed, bit for bit."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_batch_golden_through_both_entrypoints(self, strategy):
        cfg = SimulationConfig(strategy=strategy, check=True, **SMALL)
        assert run_simulation(cfg).elapsed == GOLDEN[strategy]
        single = cfg.with_(shard=ShardConfig(nshards=1))
        assert run_sharded(single).elapsed == GOLDEN[strategy]

    def test_single_shard_serve_matches_unsharded(self):
        arrival = ArrivalConfig(process="poisson", rate=10.0, max_pending=8)
        base = SimulationConfig(
            strategy="ww-list", nprocs=4, nqueries=6, nfragments=4,
            check=True, arrival=arrival,
        )
        plain = S3aSim(base).run()
        single = run_sharded(base.with_(shard=ShardConfig(nshards=1)))
        assert single.elapsed == plain.elapsed
        assert single.serve_stats == plain.serve_stats


class TestPlacement:
    """Placement is a pure function of the arrival index — no randomness."""

    @pytest.mark.parametrize("placement", PLACEMENTS)
    def test_every_index_lands_on_a_shard(self, placement):
        for nshards in (1, 2, 3, 8):
            shards = [place(i, nshards, placement, 100) for i in range(100)]
            assert all(0 <= s < nshards for s in shards)

    def test_hash_spreads(self):
        shards = [place(i, 4, "hash", 1000) for i in range(1000)]
        counts = [shards.count(s) for s in range(4)]
        assert min(counts) > 150  # roughly uniform

    def test_range_is_contiguous_and_skewed_free(self):
        # Range placement is monotone: shard index never decreases.
        shards = [place(i, 3, "range", 30) for i in range(30)]
        assert shards == sorted(shards)
        assert set(shards) == {0, 1, 2}

    def test_partition_ranks_tile_the_world(self):
        for nprocs, nshards in ((8, 2), (9, 4), (16, 3), (7, 3)):
            blocks = [partition_ranks(nprocs, nshards, i) for i in range(nshards)]
            flat = [r for block in blocks for r in block]
            assert flat == list(range(nprocs))
            sizes = [len(b) for b in blocks]
            assert max(sizes) - min(sizes) <= 1
            assert min(sizes) >= 1


class TestConfigValidation:
    def test_sharded_batch_is_valid(self):
        cfg = SimulationConfig(
            strategy="ww-list", nprocs=8, nqueries=4, nfragments=4,
            shard=ShardConfig(nshards=2),
        )
        assert cfg.arrival is None

    def test_sharding_rejects_fault_plan(self):
        plan = FaultPlan.standard(crash_rank=1, crash_time=1.0)
        with pytest.raises(ValueError, match="fault injection"):
            SimulationConfig(
                strategy="ww-list", nprocs=8, nqueries=4, nfragments=4,
                fault_plan=plan, shard=ShardConfig(nshards=2),
            )

    def test_sharding_rejects_fault_tolerance(self):
        with pytest.raises(ValueError, match="fault injection"):
            SimulationConfig(
                strategy="ww-list", nprocs=8, nqueries=4, nfragments=4,
                fault_tolerance=FaultToleranceConfig(),
                shard=ShardConfig(nshards=2),
            )

    def test_sharding_rejects_resume(self):
        with pytest.raises(ValueError, match="resume"):
            SimulationConfig(
                strategy="ww-list", nprocs=8, nqueries=4, nfragments=4,
                resume_from_query=2, shard=ShardConfig(nshards=2),
            )

    def test_sharding_requires_a_query_per_shard(self):
        with pytest.raises(ValueError, match="queries"):
            SimulationConfig(
                strategy="ww-list", nprocs=8, nqueries=2, nfragments=4,
                shard=ShardConfig(nshards=3),
            )

    def test_sharding_requires_two_ranks_per_shard(self):
        with pytest.raises(ValueError, match="processes"):
            SimulationConfig(
                strategy="ww-list", nprocs=5, nqueries=4, nfragments=4,
                arrival=ArrivalConfig(process="poisson", rate=5.0),
                shard=ShardConfig(nshards=3),
            )

    def test_bad_placement_rejected(self):
        with pytest.raises(ValueError, match="placement"):
            ShardConfig(nshards=2, placement="modulo")


def batch_config(strategy, nprocs, nqueries, masters, **kwargs):
    return SimulationConfig(
        strategy=strategy, nprocs=nprocs, nqueries=nqueries, nfragments=16,
        store_data=True, shard=ShardConfig(nshards=masters), **kwargs,
    )


class TestBatchShards:
    """A sharded closed batch: contiguous query blocks, no stealing."""

    @pytest.mark.parametrize("key", sorted(BATCH_GOLDEN))
    def test_golden(self, key):
        total, per_shard, extents = BATCH_GOLDEN[key]
        group = MasterGroup(batch_config(*key))
        result = group.run()
        assert result.elapsed == total
        assert tuple(result.shard_elapsed) == per_shard
        assert tuple(tuple(f.bytestore.extents()) for f in group.files) == extents
        assert result.file_stats.complete

    def test_query_blocks_split_like_the_ranks(self):
        # 6 queries over 4 shards: 2,2,1,1 (``place(..., "range")`` would
        # give 2,1,2,1).
        group = MasterGroup(batch_config("ww-list", 8, 6, 4))
        assert [m.content for m in group.masters] == [
            {0: 0, 1: 1}, {0: 2, 1: 3}, {0: 4}, {0: 5}
        ]
        assert [m.cfg.nqueries for m in group.masters] == [2, 2, 1, 1]

    def test_no_serve_machinery(self):
        result = run_sharded(batch_config("ww-list", 12, 8, 2).with_(check=True))
        assert result.serve_stats == {}
        assert result.shard_serve_stats == []
        assert "s0=" in result.summary_line()
        assert "steals" not in result.summary_line()

    def test_hybrid_auto_consults_each_shards_own_queries(self, monkeypatch):
        asked = []
        choose = StrategySelector.choose

        def spy(self, query_id, content=None, outstanding_faults=0):
            asked.append((id(self), content))
            return choose(self, query_id, content, outstanding_faults)

        monkeypatch.setattr(StrategySelector, "choose", spy)
        group = MasterGroup(
            batch_config("hybrid-auto", 8, 8, 2).with_(check=True)
        )
        assert group.run().file_stats.complete
        for master, block in zip(group.masters, ([0, 1, 2, 3], [4, 5, 6, 7])):
            seen = [c for sel, c in asked if sel == id(master.selector)]
            assert sorted(seen) == block


class TestShardedRuns:
    """The checker's global + per-shard ledgers run on every one of these."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_all_strategies_complete_and_conserve(self, strategy):
        result = run_simulation(sharded_config(strategy=strategy))
        s = result.serve_stats
        assert s["offered"] == 20.0
        assert s["completed"] + s["shed"] + s["rejected"] == s["offered"]
        assert s["pending"] == 0.0
        # Slots: every steal re-admits the query on the thief.
        assert s["admitted"] == s["offered"] - s["rejected"] + s["steals"]
        assert s["steals"] == s["donated"]
        assert result.file_stats.dense
        assert result.file_stats.complete

    def test_range_placement_forces_steals(self):
        # Range placement front-loads shard 0; shard 1 must steal to eat.
        result = run_simulation(sharded_config(masters=2, placement="range"))
        assert result.serve_stats["steals"] > 0

    def test_steal_disabled_stays_put(self):
        cfg = sharded_config(masters=2, placement="range")
        cfg = cfg.with_(shard=ShardConfig(nshards=2, placement="range", steal=False))
        result = run_simulation(cfg)
        s = result.serve_stats
        assert s["steals"] == 0.0
        assert s["donated"] == 0.0
        assert s["completed"] + s["shed"] + s["rejected"] == s["offered"]

    def test_per_shard_stats_sum_to_global(self):
        result = run_simulation(sharded_config(masters=4, nprocs=8, nqueries=24))
        merged = result.serve_stats
        for key in ("offered", "completed", "rejected", "shed"):
            assert merged[key] == sum(
                s.get(key, 0.0) for s in result.shard_serve_stats
            )
        assert merged["steals"] == sum(
            s.get("stolen", 0.0) for s in result.shard_serve_stats
        )
        assert merged["donated"] == sum(
            s.get("donated", 0.0) for s in result.shard_serve_stats
        )

    def test_stolen_latency_spans_original_arrival(self):
        # A stolen query's latency clock starts at its original arrival, so
        # the merged max must be at least every shard's local max.
        result = run_simulation(sharded_config(masters=2, placement="range"))
        merged = result.serve_stats
        assert result.serve_stats["steals"] > 0
        local_max = max(
            s["latency_max_s"] for s in result.shard_serve_stats if s["completed"]
        )
        assert merged["latency_max_s"] == local_max

    def test_determinism(self):
        cfg = sharded_config(masters=3, nprocs=9, placement="hash")
        a = run_simulation(cfg)
        b = run_simulation(cfg)
        assert a.elapsed == b.elapsed
        assert a.serve_stats["completed"] == b.serve_stats["completed"]
        assert a.serve_stats["steals"] == b.serve_stats["steals"]
        assert a.shard_serve_stats[0]["completed"] == b.shard_serve_stats[0]["completed"]

    def test_cutoff_is_well_formed(self):
        cfg = sharded_config(masters=2)
        result = MasterGroup(cfg).run(until=1.0)
        s = result.serve_stats
        assert result.elapsed == 1.0
        if not s["completed"]:
            assert s["latency_p99_s"] != s["latency_p99_s"]  # NaN

    def test_metrics_expose_steal_counters(self):
        cfg = sharded_config(masters=2, placement="range").with_(
            collect_metrics=True
        )
        result = run_simulation(cfg)
        snapshot = result.metrics
        assert snapshot is not None
        total = snapshot.counter_total("shard.steals")
        assert total == result.serve_stats["steals"]
        assert (
            snapshot.counter_total("shard.donated_queries")
            == result.serve_stats["donated"]
        )


class TestMastersSweep:
    def test_sweep_covers_axis_and_keeps_masters_one_plain(self):
        base = SimulationConfig(
            strategy="ww-list", nprocs=8, nqueries=12, nfragments=4,
            check=True, arrival=ArrivalConfig(process="poisson", rate=6.0),
        )
        sweep = masters_sweep(
            base, master_counts=(1, 2), strategies=("ww-list", "mw")
        )
        assert sweep.axis_name == "masters"
        assert len(sweep.points) == 4
        for point in sweep.points:
            s = point.result.serve_stats
            assert s["completed"] + s["shed"] + s["rejected"] == s["offered"]
            if point.x == 1.0:
                # Unsharded result object: no shard keys at all.
                assert "masters" not in s
            else:
                assert s["masters"] == point.x

    def test_sweep_requires_arrival(self):
        base = SimulationConfig(
            strategy="ww-list", nprocs=8, nqueries=4, nfragments=4
        )
        with pytest.raises(ValueError, match="arrival"):
            masters_sweep(base, master_counts=(1, 2))
