"""Collective operations built on simulated point-to-point messaging.

Each collective is a *process fragment* to be invoked from every rank of the
communicator (``yield from barrier(comm)``), exactly as real MPI requires
every process to enter the collective.  Algorithms are the classic ones so
the timing scales realistically:

* barrier — dissemination (⌈log₂ n⌉ rounds)
* bcast — binomial tree
* gather/gatherv — linear to root (what ROMIO-era MPICH used for modest n)
* scatter/scatterv — linear from root
* allgather(v) — gather + bcast
* alltoallv — ROMIO's two-phase exchange: a Bruck alltoall of counts
  (⌈log₂ n⌉ rounds), then messages only for the non-zero pairs
* reduce/allreduce — gather-to-root + op (+ bcast)

A reserved, per-invocation tag keeps collective traffic disjoint from user
messages and from other collectives in flight (alltoallv draws two: one for
the counts, one for the data).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Callable, List, Optional, Sequence, Tuple

from .constants import collective_tag

# Wire size of a zero-byte collective control message.
CONTROL_BYTES = 16
# Wire size of one count in alltoallv's count exchange (an MPI_INT).
_COUNT_BYTES = 4


def _next_tag(comm) -> int:
    tag = collective_tag(comm._coll_seq)
    comm._coll_seq += 1
    return tag


def barrier(comm):
    """Dissemination barrier: completes when all ranks have entered."""
    tag = _next_tag(comm)
    size, rank = comm.size, comm.rank
    if size == 1:
        return
    distance = 1
    while distance < size:
        dst = (rank + distance) % size
        src = (rank - distance) % size
        send = comm.isend(dst, tag, CONTROL_BYTES)
        recv = comm.irecv(source=src, tag=tag)
        yield send.done_event & recv.done_event
        distance *= 2


def bcast(comm, root: int, nbytes: int, payload: Any = None):
    """Binomial-tree broadcast; returns the payload on every rank."""
    tag = _next_tag(comm)
    size, rank = comm.size, comm.rank
    if size == 1:
        return payload
    vrank = (rank - root) % size

    if vrank != 0:
        # Receive from the binomial parent.
        payload, _ = yield from comm.recv(source=_abs_rank(_parent(vrank), root, size), tag=tag)
    # Forward to binomial children.
    sends = []
    for child in _children(vrank, size):
        sends.append(comm.isend(_abs_rank(child, root, size), tag, nbytes, payload))
    for send in sends:
        yield from send.wait()
    return payload


def gather(comm, root: int, nbytes: int, payload: Any = None):
    """Linear gather; returns the rank-ordered list on root, None elsewhere."""
    sizes = [nbytes] * comm.size
    return (yield from gatherv(comm, root, sizes, payload))


def gatherv(comm, root: int, nbytes_per_rank: Sequence[int], payload: Any = None):
    """Gather with per-rank sizes; list of payloads on root, None elsewhere."""
    tag = _next_tag(comm)
    size, rank = comm.size, comm.rank
    if len(nbytes_per_rank) != size:
        raise ValueError("nbytes_per_rank must have one entry per rank")
    if rank == root:
        results: List[Any] = [None] * size
        results[root] = payload
        recvs = {
            src: comm.irecv(source=src, tag=tag)
            for src in range(size)
            if src != root
        }
        for src, recv in recvs.items():
            results[src] = yield from recv.wait()
        return results
    yield from comm.send(root, tag, nbytes_per_rank[rank], payload)
    return None


def scatter(comm, root: int, nbytes: int, payloads: Optional[Sequence[Any]] = None):
    """Linear scatter; every rank returns its slice."""
    sizes = [nbytes] * comm.size
    return (yield from scatterv(comm, root, sizes, payloads))


def scatterv(
    comm,
    root: int,
    nbytes_per_rank: Sequence[int],
    payloads: Optional[Sequence[Any]] = None,
):
    """Scatter with per-rank sizes (payloads significant on root only)."""
    tag = _next_tag(comm)
    size, rank = comm.size, comm.rank
    if len(nbytes_per_rank) != size:
        raise ValueError("nbytes_per_rank must have one entry per rank")
    if rank == root:
        if payloads is None or len(payloads) != size:
            raise ValueError("root must supply one payload per rank")
        sends = []
        for dst in range(size):
            if dst == root:
                continue
            sends.append(comm.isend(dst, tag, nbytes_per_rank[dst], payloads[dst]))
        for send in sends:
            yield from send.wait()
        return payloads[root]
    payload, _ = yield from comm.recv(source=root, tag=tag)
    return payload


def allgather(comm, nbytes: int, payload: Any = None):
    """Gather to rank 0 then broadcast the assembled list."""
    gathered = yield from gather(comm, 0, nbytes, payload)
    total = nbytes * comm.size
    result = yield from bcast(comm, 0, total, gathered)
    return result


def alltoallv(comm, nbytes_to: Sequence[int], payloads_to: Optional[Sequence[Any]] = None):
    """Personalized all-to-all with per-destination sizes, ROMIO style.

    ``nbytes_to[d]`` is what this rank sends to rank ``d``.  Returns the list
    of payloads received, indexed by source; entries whose size is zero are
    ``None`` and never touch the wire (the rank's own entry stays local).

    Two phases, as ROMIO's ``ADIOI_W_Exchange_data`` runs them:

    1. a dense alltoall of the 4-byte counts, using Bruck's algorithm
       (what MPICH picks for short messages): ⌈log₂ n⌉ rounds, round ``k``
       ships every block whose index has bit ``k`` set to ``rank+2^k``.
       The counts travel in the payloads, and every rank depends on every
       other rank by the last round;
    2. ``irecv`` from each source whose received count is non-zero and
       ``isend`` to each destination with ``nbytes_to[d] > 0``, in ring
       order from ``rank+1``, then one wait for all of them.
    """
    count_tag = _next_tag(comm)
    data_tag = _next_tag(comm)
    size, rank = comm.size, comm.rank
    if len(nbytes_to) != size:
        raise ValueError("nbytes_to must have one entry per rank")
    if payloads_to is not None and len(payloads_to) != size:
        raise ValueError("payloads_to must have one entry per rank")

    counts_from = yield from _bruck_counts(comm, count_tag, nbytes_to)

    received: List[Any] = [None] * size
    if nbytes_to[rank] > 0 and payloads_to is not None:
        received[rank] = payloads_to[rank]
    peers = [(rank + step) % size for step in range(1, size)]
    recvs = {
        src: comm.irecv(source=src, tag=data_tag)
        for src in peers
        if counts_from[src] > 0
    }
    sends = [
        comm.isend(
            dst, data_tag, nbytes_to[dst],
            payloads_to[dst] if payloads_to is not None else None,
        )
        for dst in peers
        if nbytes_to[dst] > 0
    ]
    if recvs or sends:
        yield comm.env.all_of(
            [r.done_event for r in recvs.values()] + [s.done_event for s in sends]
        )
    for src, recv in recvs.items():
        received[src] = recv.done_event.value
    return received


def _bruck_counts(comm, tag: int, counts_to: Sequence[int]):
    """Bruck alltoall of one 4-byte count per rank pair; returns the counts
    indexed by source."""
    size, rank = comm.size, comm.rank
    # Block i holds the count bound for rank+i; after the rounds it holds
    # the count sent by rank-i.
    blocks = [counts_to[(rank + i) % size] for i in range(size)]
    for bit, moving in _bruck_rounds(size):
        send = comm.isend(
            (rank + bit) % size, tag, _COUNT_BYTES * len(moving),
            [blocks[i] for i in moving],
        )
        recv = comm.irecv(source=(rank - bit) % size, tag=tag)
        yield send.done_event & recv.done_event
        for i, count in zip(moving, recv.done_event.value):
            blocks[i] = count
    return [blocks[(rank - src) % size] for src in range(size)]


@lru_cache(maxsize=64)
def _bruck_rounds(size: int) -> Tuple[Tuple[int, Tuple[int, ...]], ...]:
    """``(2^k, block indices with bit k set)`` for each Bruck round."""
    rounds = []
    bit = 1
    while bit < size:
        rounds.append((bit, tuple(i for i in range(size) if i & bit)))
        bit <<= 1
    return tuple(rounds)


def reduce(comm, root: int, nbytes: int, value: Any, op: Callable[[Any, Any], Any]):
    """Reduce to root via gather + fold (rank order, so op should be
    associative and commutative for MPI-equivalent results)."""
    gathered = yield from gather(comm, root, nbytes, value)
    if comm.rank != root:
        return None
    accumulator = gathered[0]
    for item in gathered[1:]:
        accumulator = op(accumulator, item)
    return accumulator


def allreduce(comm, nbytes: int, value: Any, op: Callable[[Any, Any], Any]):
    """Reduce to rank 0 then broadcast the result."""
    result = yield from reduce(comm, 0, nbytes, value, op)
    result = yield from bcast(comm, 0, nbytes, result)
    return result


# -- binomial-tree helpers ----------------------------------------------------

def _parent(vrank: int) -> int:
    """Parent of ``vrank`` in a binomial broadcast tree (vrank > 0).

    Round ``k`` of the broadcast has every node ``v < 2^k`` send to
    ``v + 2^k``; the parent is therefore ``vrank`` with its highest set bit
    cleared.
    """
    if vrank <= 0:
        raise ValueError("the root has no parent")
    return vrank - (1 << (vrank.bit_length() - 1))


def _children(vrank: int, size: int) -> List[int]:
    """Children of ``vrank``: ``vrank + 2^k`` for all ``2^k > vrank``."""
    children = []
    bit = 1 << vrank.bit_length() if vrank > 0 else 1
    while vrank + bit < size:
        children.append(vrank + bit)
        bit <<= 1
    return children


def _abs_rank(vrank: int, root: int, size: int) -> int:
    return (vrank + root) % size
