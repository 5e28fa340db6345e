"""Hybrid query/database segmentation (the paper's future-work strategy).

``--masters K`` on a closed batch: K master/worker shards on one machine,
shard ``i`` running the contiguous query block ``i`` with the database
segmented across its own workers.
"""

import pytest

from repro.core import S3aSim, SimulationConfig, run_simulation
from repro.shard import ShardConfig, partition_ranks
from repro.shard.group import MasterGroup, run_sharded


def cfg(masters=None, **kwargs):
    defaults = dict(
        nprocs=12, strategy="ww-list", nqueries=8, nfragments=16,
        store_data=True,
    )
    defaults.update(kwargs)
    if masters is not None:
        defaults["shard"] = ShardConfig(nshards=masters)
    return SimulationConfig(**defaults)


class TestValidation:
    def test_partition_bounds(self):
        with pytest.raises(ValueError):
            cfg(masters=0)
        with pytest.raises(ValueError):
            cfg(masters=3, nprocs=4)  # needs >= 2 procs/shard
        with pytest.raises(ValueError):
            cfg(masters=3, nqueries=2)  # needs >= 1 query/shard

    def test_no_resume(self):
        with pytest.raises(ValueError):
            cfg(masters=2, resume_from_query=2)


class TestPartitioning:
    def test_ranks_partition_the_machine(self):
        group = MasterGroup(cfg(masters=3, nprocs=13))
        assert sorted(r for ranks in group.partitions for r in ranks) == list(
            range(13)
        )
        assert [m.comm.global_rank for m in group.masters] == [
            ranks[0] for ranks in group.partitions
        ]

    def test_queries_partition_the_query_set(self):
        group = MasterGroup(cfg(masters=3, nqueries=10))
        queries = [g for m in group.masters for g in m.content.values()]
        assert queries == list(range(10))
        assert [m.cfg.nqueries for m in group.masters] == [
            len(partition_ranks(10, 3, i)) for i in range(3)
        ]


class TestExecution:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_all_partitions_complete(self, k):
        result = run_sharded(cfg(masters=k))
        assert result.file_stats.complete
        if k > 1:
            assert len(result.shard_elapsed) == k
            assert result.elapsed == max(result.shard_elapsed)

    def test_partition_outputs_match_pure_run_content(self):
        """Every shard's file content equals the corresponding query
        blocks of a pure database-segmentation run."""
        ref_app = S3aSim(cfg())
        ref_app.run()
        ref_store = ref_app.fh.file.bytestore
        sizes = [
            ref_app.workload.results.query_total_bytes(q) for q in range(8)
        ]

        group = MasterGroup(cfg(masters=2))
        assert group.run().file_stats.complete
        # Shard 0 holds queries 0..3; its file must equal the
        # concatenation of those blocks in the reference file.
        part0, part1 = (f.bytestore for f in group.files)
        nbytes = sum(sizes[:4])
        assert part0.read(0, nbytes) == ref_store.read(0, nbytes)
        # Shard 1 holds queries 4..7.
        tail = sum(sizes[4:])
        assert part1.read(0, tail) == ref_store.read(nbytes, tail)

    def test_single_partition_equals_pure_database_segmentation(self):
        pure = run_simulation(cfg())
        assert run_sharded(cfg(masters=1)).elapsed == pure.elapsed

    def test_mw_hybrid_runs(self):
        assert run_sharded(cfg(masters=2, strategy="mw")).file_stats.complete

    def test_collective_hybrid_runs(self):
        result = run_sharded(cfg(masters=2, strategy="ww-coll"))
        assert result.file_stats.complete
