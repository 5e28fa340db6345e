"""Collective operations over simulated point-to-point messaging."""

from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import mpi
from repro.mpi import Communicator, MpiWorld, NetworkConfig
from repro.mpi.collectives import _bruck_counts, _next_tag
from repro.mpiio import MPIIOFile
from repro.pvfs import FileSystem, PVFSConfig


def run_collective(n, body):
    """Spawn ``body`` on every rank of an n-rank world; return results."""
    world = MpiWorld(nranks=n, network=NetworkConfig.myrinet2000())
    world.spawn_all(body)
    return world.run(), world


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13])
class TestBarrier:
    def test_barrier_synchronizes(self, n):
        def main(comm):
            # Stagger arrival; everyone leaves no earlier than the last.
            yield comm.env.timeout(0.01 * comm.rank)
            yield from mpi.barrier(comm)
            return comm.env.now

        out, _ = run_collective(n, main)
        latest_arrival = 0.01 * (n - 1)
        for rank, t in out.items():
            assert t >= latest_arrival - 1e-12


@pytest.mark.parametrize("n", [1, 2, 4, 7])
@pytest.mark.parametrize("root", [0, "last"])
class TestBcast:
    def test_bcast_delivers_to_all(self, n, root):
        root_rank = n - 1 if root == "last" else 0

        def main(comm):
            payload = {"v": 42} if comm.rank == root_rank else None
            result = yield from mpi.bcast(comm, root_rank, 1024, payload)
            return result

        out, _ = run_collective(n, main)
        assert all(v == {"v": 42} for v in out.values())


class TestGatherScatter:
    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_gather(self, n):
        def main(comm):
            return (yield from mpi.gather(comm, 0, 64, payload=comm.rank * 10))

        out, _ = run_collective(n, main)
        assert out[0] == [r * 10 for r in range(n)]
        assert all(out[r] is None for r in range(1, n))

    def test_gatherv_sizes_validated(self):
        def main(comm):
            with pytest.raises(ValueError):
                yield from mpi.gatherv(comm, 0, [10], payload=1)

        run_collective(2, main)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_scatter(self, n):
        def main(comm):
            payloads = [f"p{i}" for i in range(comm.size)] if comm.rank == 0 else None
            return (yield from mpi.scatter(comm, 0, 64, payloads))

        out, _ = run_collective(n, main)
        assert out == {r: f"p{r}" for r in range(n)}

    def test_scatter_missing_payloads_rejected(self):
        def main(comm):
            if comm.rank == 0:
                with pytest.raises(ValueError):
                    yield from mpi.scatterv(comm, 0, [8, 8], None)
            else:
                recv = comm.irecv()
                yield comm.env.timeout(0.001)
                recv.cancel()

        run_collective(2, main)

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_allgather(self, n):
        def main(comm):
            return (yield from mpi.allgather(comm, 32, payload=comm.rank**2))

        out, _ = run_collective(n, main)
        expected = [r**2 for r in range(n)]
        assert all(v == expected for v in out.values())


class TestAllToAll:
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_alltoallv_routes_payloads(self, n):
        def main(comm):
            outbox = [f"{comm.rank}->{d}" for d in range(comm.size)]
            sizes = [100 * (d + 1) for d in range(comm.size)]
            return (yield from mpi.alltoallv(comm, sizes, outbox))

        out, _ = run_collective(n, main)
        for rank, inbox in out.items():
            assert inbox == [f"{s}->{rank}" for s in range(n)]

    def test_alltoallv_size_validation(self):
        def main(comm):
            with pytest.raises(ValueError):
                yield from mpi.alltoallv(comm, [1], None)

        run_collective(3, main)


@contextmanager
def recording_sends():
    """Record ``(src, dst, nbytes)`` of every message put on the wire."""
    sent = []
    start = Communicator._start_send

    def recording(self, src, dst, tag, nbytes, payload, oob=False):
        sent.append((src, dst, nbytes))
        return start(self, src, dst, tag, nbytes, payload, oob)

    Communicator._start_send = recording
    try:
        yield sent
    finally:
        Communicator._start_send = start


def ceil_log2(n):
    return (n - 1).bit_length()


def exchange(matrix):
    """Run one alltoallv over ``matrix[src][dst]`` byte counts (payload
    ``(src, dst)``); return each rank's inbox and the wire messages."""
    n = len(matrix)

    def main(comm):
        payloads = [(comm.rank, d) for d in range(n)]
        return (yield from mpi.alltoallv(comm, matrix[comm.rank], payloads))

    with recording_sends() as sent:
        out, _ = run_collective(n, main)
    return out, sent


@st.composite
def sparse_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    size = st.sampled_from([0, 0, 0, 0, 1, 700, 100_000])  # 100 kB: rendezvous
    return [[draw(size) for _ in range(n)] for _ in range(n)]


class TestSparseExchange:
    """ROMIO's exchange: Bruck count alltoall, then non-zero pairs only."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 8, 13, 16])
    def test_bruck_routes_counts(self, n):
        def main(comm):
            counts_to = [1000 * comm.rank + d for d in range(n)]
            return (yield from _bruck_counts(comm, _next_tag(comm), counts_to))

        with recording_sends() as sent:
            out, _ = run_collective(n, main)
        for rank, counts_from in out.items():
            assert counts_from == [1000 * s + rank for s in range(n)]
        # Round k: every rank ships the blocks whose index has bit k set
        # to rank + 2^k, one 4-byte count each.
        expected = sorted(
            (r, (r + (1 << k)) % n, 4 * sum(1 for i in range(n) if i >> k & 1))
            for k in range(ceil_log2(n))
            for r in range(n)
        )
        assert sorted(sent) == expected

    @settings(max_examples=60, deadline=None)
    @given(sparse_matrices())
    @example([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    @example([[0] * 6 for _ in range(6)])
    def test_receives_payload_iff_nonzero(self, matrix):
        out, sent = exchange(matrix)
        n = len(matrix)
        for rank, inbox in out.items():
            assert inbox == [
                (s, rank) if matrix[s][rank] > 0 else None for s in range(n)
            ]
        assert all(nbytes > 0 for _, _, nbytes in sent)

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 16])
    def test_exact_wire_message_count(self, n):
        # Ranks 0 and 1 talk to a few peers; everyone else sends nothing.
        matrix = [[0] * n for _ in range(n)]
        for d in range(0, n, 3):
            matrix[0][d] = 500
        matrix[1 % n][0] = 80_000
        matrix[n - 1][n - 1] = 9  # diagonal: stays local
        out, sent = exchange(matrix)
        pairs = sum(
            1 for s in range(n) for d in range(n) if s != d and matrix[s][d]
        )
        assert len(sent) == n * ceil_log2(n) + pairs
        assert not [m for m in sent if m[2] == 0]
        assert out[n - 1][n - 1] == (n - 1, n - 1)

    def test_collective_write_read_round_trip_mostly_empty(self):
        n, block = 16, 1000
        writers, readers = (3, 11), {5: 3, 14: 11}
        world = MpiWorld(nranks=n, network=NetworkConfig.myrinet2000())
        fs = FileSystem(world.env, PVFSConfig(nservers=4, store_data=True))

        def regions_of(rank):
            # Interleaved blocks, so each writer feeds several aggregators.
            return [((i * n + rank) * block, block) for i in range(12)]

        def main(comm):
            fh = yield from MPIIOFile.open(comm, fs, "/out")
            regions = regions_of(comm.rank) if comm.rank in writers else []
            datas = [bytes([comm.rank, i]) * (block // 2) for i in range(len(regions))]
            yield from fh.write_at_all(comm, regions, datas)
            source = readers.get(comm.rank)
            wanted = regions_of(source) if source is not None else []
            return (yield from fh.read_at_all(comm, wanted))

        with recording_sends() as sent:
            world.spawn_all(main)
            out = world.run()
        for rank in range(n):
            source = readers.get(rank)
            expected = (
                [bytes([source, i]) * (block // 2) for i in range(12)]
                if source is not None else []
            )
            assert out[rank] == expected
        assert fs.lookup("/out").bytestore.total_bytes() == 2 * 12 * block
        assert not [m for m in sent if m[2] == 0]


class TestReductions:
    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_reduce_sum(self, n):
        def main(comm):
            return (
                yield from mpi.reduce(comm, 0, 8, comm.rank + 1, lambda a, b: a + b)
            )

        out, _ = run_collective(n, main)
        assert out[0] == n * (n + 1) // 2

    @pytest.mark.parametrize("n", [2, 5])
    def test_allreduce_max(self, n):
        def main(comm):
            return (yield from mpi.allreduce(comm, 8, comm.rank, max))

        out, _ = run_collective(n, main)
        assert all(v == n - 1 for v in out.values())


class TestConcurrentCollectives:
    def test_back_to_back_barriers_do_not_cross_match(self):
        def main(comm):
            for _ in range(5):
                yield from mpi.barrier(comm)
            return (yield from mpi.allgather(comm, 8, comm.rank))

        out, _ = run_collective(4, main)
        assert all(v == [0, 1, 2, 3] for v in out.values())

    def test_collectives_interleave_with_user_traffic(self):
        def main(comm):
            if comm.rank == 0:
                yield from comm.send(1, tag=5, nbytes=10, payload="user")
            yield from mpi.barrier(comm)
            if comm.rank == 1:
                payload, _ = yield from comm.recv(source=0, tag=5)
                return payload
            return None

        out, _ = run_collective(3, main)
        assert out[1] == "user"

    def test_barrier_cost_grows_with_ranks(self):
        times = {}
        for n in (2, 16):
            def main(comm):
                yield from mpi.barrier(comm)
                return comm.env.now

            out, world = run_collective(n, main)
            times[n] = world.env.now
        assert times[16] > times[2]
