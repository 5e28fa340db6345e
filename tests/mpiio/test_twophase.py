"""Two-phase collective writes: correctness, aggregation, synchronization."""

import pytest

from repro.mpi import MpiWorld, NetworkConfig
from repro.mpiio import MPIIOHints, two_phase_write_all
from repro.pvfs import FileSystem, PVFSConfig
from repro.sim import Environment

MIB = 1024 * 1024


def make_stack(nranks, **fs_kwargs):
    world = MpiWorld(
        nranks=nranks,
        network=NetworkConfig(latency_s=1e-6, bandwidth_Bps=1000 * MIB),
    )
    defaults = dict(
        nservers=4,
        network=NetworkConfig(latency_s=1e-6, bandwidth_Bps=1000 * MIB, cpu_overhead_s=0),
        client_pipeline_Bps=1000 * MIB,
        store_data=True,
    )
    defaults.update(fs_kwargs)
    fs = FileSystem(world.env, PVFSConfig(**defaults))
    return world, fs


def interleaved_regions(rank, size, blocks=8, block=1000):
    return [((i * size + rank) * block, block) for i in range(blocks)]


class TestCorrectness:
    @pytest.mark.parametrize("nranks", [1, 2, 4, 7])
    def test_dense_interleaved_write(self, nranks):
        world, fs = make_stack(nranks)

        def main(comm):
            f = yield from fs.open(comm.global_rank, "/out")
            regions = interleaved_regions(comm.rank, comm.size)
            datas = [bytes([comm.rank]) * length for _, length in regions]
            yield from two_phase_write_all(comm, fs, f, regions, datas)

        world.spawn_all(main)
        world.run()
        f = fs.lookup("/out")
        total = 8 * 1000 * nranks
        assert f.bytestore.is_dense(total)
        assert f.bytestore.read(0, 1) == bytes([0])
        if nranks > 1:
            assert f.bytestore.read(1000, 1) == bytes([1])

    def test_some_ranks_empty(self):
        """Ranks without data still participate (the sync the paper studies)."""
        world, fs = make_stack(4)

        def main(comm):
            f = yield from fs.open(comm.global_rank, "/out")
            if comm.rank == 2:
                regions, datas = [], None
            else:
                regions = [(comm.rank * 1000, 1000)]
                datas = [bytes([comm.rank])*1000]
            yield from two_phase_write_all(comm, fs, f, regions, datas)
            return world.env.now

        world.spawn_all(main)
        out = world.run()
        f = fs.lookup("/out")
        assert f.bytestore.total_bytes() == 3000

    def test_all_ranks_empty(self):
        world, fs = make_stack(3)

        def main(comm):
            f = yield from fs.open(comm.global_rank, "/out")
            yield from two_phase_write_all(comm, fs, f, [], None)

        world.spawn_all(main)
        world.run()
        assert fs.lookup("/out").bytestore.total_bytes() == 0

    def test_misaligned_datas_rejected(self):
        world, fs = make_stack(2)

        def main(comm):
            f = yield from fs.open(comm.global_rank, "/out")
            with pytest.raises(ValueError):
                yield from two_phase_write_all(comm, fs, f, [(0, 10)], [])
            yield comm.env.timeout(0)

        world.spawn_all(main)
        world.run()


class TestAggregation:
    def test_aggregators_issue_few_large_requests(self):
        """Interleaved regions become per-aggregator contiguous writes."""
        world, fs = make_stack(4, nservers=2)

        def main(comm):
            f = yield from fs.open(comm.global_rank, "/out")
            regions = interleaved_regions(comm.rank, comm.size, blocks=32, block=512)
            datas = [bytes([comm.rank]) * l for _, l in regions]
            hints = MPIIOHints(cb_nodes=2, sync_after_write=False)
            yield from two_phase_write_all(comm, fs, f, regions, datas, hints)

        world.spawn_all(main)
        world.run()
        total_regions = sum(s.stats.regions for s in fs.servers)
        # 4 ranks x 32 blocks = 128 logical regions; after aggregation the
        # servers see only a handful of contiguous runs (split by strips).
        assert total_regions < 20

    def test_cb_buffer_size_forces_rounds(self):
        """A small collective buffer produces multiple exchange+write rounds
        without corrupting the output."""
        world, fs = make_stack(3)

        def main(comm):
            f = yield from fs.open(comm.global_rank, "/out")
            regions = interleaved_regions(comm.rank, comm.size, blocks=16, block=2048)
            datas = [bytes([comm.rank + 1]) * l for _, l in regions]
            hints = MPIIOHints(cb_nodes=2, cb_buffer_size=8192, sync_after_write=False)
            yield from two_phase_write_all(comm, fs, f, regions, datas, hints)

        world.spawn_all(main)
        world.run()
        f = fs.lookup("/out")
        assert f.bytestore.is_dense(3 * 16 * 2048)
        assert f.bytestore.read(2048, 1) == bytes([2])


class TestSynchronization:
    def test_collective_blocks_until_slowest_arrives(self):
        """The inherent synchronization cost: an early rank cannot finish
        the collective before a late rank enters it."""
        world, fs = make_stack(3)

        def main(comm):
            f = yield from fs.open(comm.global_rank, "/out")
            yield comm.env.timeout(0.5 * comm.rank)  # stagger entry
            regions = [(comm.rank * 100, 100)]
            yield from two_phase_write_all(
                comm, fs, f, regions, [b"x" * 100],
                MPIIOHints(sync_after_write=False),
            )
            return comm.env.now

        world.spawn_all(main)
        out = world.run()
        assert min(out.values()) >= 1.0  # even rank 0 waits for rank 2


class TestWindowEdgeCases:
    def test_empty_window_rounds_skipped(self):
        """Uneven file domains leave the short aggregator with w_lo >= w_hi
        in late rounds; those rounds must be skipped without exchanging or
        writing garbage."""
        world, fs = make_stack(4)
        span = 6001  # not divisible by 4: last domain is 1498 < fd_size 1501

        def main(comm):
            f = yield from fs.open(comm.global_rank, "/out")
            lo = comm.rank * (span // 4)
            hi = span if comm.rank == 3 else (comm.rank + 1) * (span // 4)
            regions = [(lo, hi - lo)]
            datas = [bytes([comm.rank + 1]) * (hi - lo)]
            # cb_buffer_size 1500 < fd_size 1501 forces a second round in
            # which the last aggregator's window is empty (w_lo >= w_hi).
            hints = MPIIOHints(cb_nodes=4, cb_buffer_size=1500, sync_after_write=False)
            yield from two_phase_write_all(comm, fs, f, regions, datas, hints)

        world.spawn_all(main)
        world.run()
        f = fs.lookup("/out")
        assert f.bytestore.is_dense(span)
        assert f.bytestore.read(0, 1) == bytes([1])
        assert f.bytestore.read(span - 1, 1) == bytes([4])

    def test_all_ranks_empty_still_synchronize(self):
        """The all-empty collective is a pure barrier: every rank returns at
        the same instant, no data motion, no server requests."""
        world, fs = make_stack(3)

        def main(comm):
            f = yield from fs.open(comm.global_rank, "/out")
            yield comm.env.timeout(0.25 * comm.rank)  # stagger entry
            yield from two_phase_write_all(comm, fs, f, [], None)
            return comm.env.now

        world.spawn_all(main)
        out = world.run()
        assert fs.lookup("/out").bytestore.total_bytes() == 0
        # Everyone blocks until the slowest participant has entered.
        assert min(out.values()) >= 0.5


class TestCoalescePieces:
    """Duplicate-offset pieces through the aggregator's coalescing step."""

    def test_adjacent_pieces_merge(self):
        from repro.mpiio.twophase import _coalesce_pieces

        regions, datas = _coalesce_pieces([(0, 4, b"aaaa"), (4, 2, b"bb")])
        assert regions == [(0, 6)]
        assert datas == [b"aaaabb"]

    def test_duplicate_offsets_do_not_merge_into_garbage(self):
        from repro.mpiio.twophase import _coalesce_pieces

        regions, datas = _coalesce_pieces(
            [(0, 4, b"aaaa"), (0, 4, b"bbbb"), (8, 2, b"cc")]
        )
        # Two pieces at the same offset stay distinct runs (the write-once
        # store flags the conflict downstream); lengths must stay positive
        # and offsets sorted.
        assert all(length > 0 for _, length in regions)
        assert regions == sorted(regions)
        assert sum(length for _, length in regions) == 10
        # Payload stays aligned with its region.
        for (offset, length), data in zip(regions, datas):
            assert len(data) == length

    def test_unsorted_input_is_sorted_first(self):
        from repro.mpiio.twophase import _coalesce_pieces

        regions, datas = _coalesce_pieces(
            [(8, 2, None), (0, 4, None), (4, 4, None)]
        )
        assert regions == [(0, 10)]
        assert datas is None

    def test_many_adjacent_pieces_join_bit_identical(self):
        import random

        from repro.mpiio.twophase import _coalesce_pieces

        # 4000 adjacent 3-byte pieces in two runs, shuffled, with some
        # pieces carrying no data (zero-filled in the run).
        pieces = []
        for offset in list(range(0, 6000, 3)) + list(range(9000, 15000, 3)):
            data = None if offset % 7 == 0 else bytes([offset % 251]) * 3
            pieces.append((offset, 3, data))
        expected = [
            b"".join(d if d is not None else bytes(3) for _, _, d in run)
            for run in (pieces[:2000], pieces[2000:])
        ]
        random.Random(5).shuffle(pieces)
        regions, datas = _coalesce_pieces(pieces)
        assert regions == [(0, 6000), (9000, 6000)]
        assert datas == expected
