"""The simulated communicator: point-to-point operations per rank.

Each rank gets its own :class:`RankComm` handle (as in real MPI, where every
process holds its own view of the communicator).  Sends move bytes through
the :class:`~repro.mpi.network.Network`: eager and out-of-band sends as a
callback chain on kernel events (:class:`_EagerSend`), rendezvous and
loopback sends as small protocol processes.  Receives go through the
rank's :class:`~repro.mpi.mailbox.Mailbox`.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..sim import Environment, Event
from ..sim.events import URGENT
from .constants import ANY_SOURCE, ANY_TAG, EAGER, RENDEZVOUS_RTS
from .mailbox import Mailbox
from .message import Envelope, Status
from .network import LinkFailure, LinkFaults, Network
from .request import RecvRequest, SendRequest

# Size of a rendezvous RTS/CTS control message on the wire.
HEADER_BYTES = 64


class Communicator:
    """Shared state: one mailbox per rank plus the network.

    ``ranks`` maps communicator-local rank → global rank (NIC owner); the
    default identity mapping is the world communicator.  Sub-communicators
    (e.g. the worker-only communicator WW-Coll's collective write runs on)
    share the network but have their own matching space, exactly like real
    MPI communicators isolate message traffic.
    """

    def __init__(
        self,
        env: Environment,
        network: Network,
        ranks: Optional[list] = None,
    ) -> None:
        self.env = env
        self.network = network
        if ranks is None:
            ranks = list(range(network.nranks))
        if len(set(ranks)) != len(ranks):
            raise ValueError("ranks must be distinct")
        for g in ranks:
            if not 0 <= g < network.nranks:
                raise ValueError(f"global rank {g} outside network of {network.nranks}")
        self.ranks = list(ranks)
        self.size = len(self.ranks)
        self.mailboxes: Dict[int, Mailbox] = {
            r: Mailbox(env, r) for r in range(self.size)
        }
        self._send_seq = 0

    def __repr__(self) -> str:
        return f"<Communicator size={self.size}>"

    def global_rank(self, local_rank: int) -> int:
        """Translate a communicator-local rank to the global/network rank."""
        return self.ranks[local_rank]

    def sub(self, ranks_local: list) -> "Communicator":
        """A sub-communicator over the given local ranks (in that order)."""
        return Communicator(
            self.env, self.network, [self.ranks[r] for r in ranks_local]
        )

    def view(self, rank: int) -> "RankComm":
        """The rank-local handle used inside that rank's process."""
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range [0, {self.size})")
        return RankComm(self, rank)

    # -- send protocols --------------------------------------------------
    def _start_send(
        self, src: int, dst: int, tag: int, nbytes: int, payload: Any,
        oob: bool = False,
    ) -> SendRequest:
        if not 0 <= dst < self.size:
            raise ValueError(f"destination rank {dst} out of range [0, {self.size})")
        if tag < 0 and tag > -1000:
            raise ValueError(f"user tags must be >= 0 (got {tag})")
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")

        request = SendRequest(self.env, dst, tag, nbytes)
        self._send_seq += 1
        seq = self._send_seq

        if oob and src != dst:
            kind = "oob"
            _EagerSend(self, src, dst, tag, nbytes, payload, seq, request, oob=True)
        elif src == dst:
            kind = "loopback"
            self.env.process(
                self._loopback(src, dst, tag, nbytes, payload, seq, request),
                name=f"loopback-{src}",
            )
        elif nbytes <= self.network.config.eager_threshold_B:
            kind = "eager"
            _EagerSend(self, src, dst, tag, nbytes, payload, seq, request, oob=False)
        else:
            kind = "rendezvous"
            self.env.process(
                self._rendezvous(src, dst, tag, nbytes, payload, seq, request),
                name=f"rndv-{src}->{dst}",
            )
        m = self.env.metrics
        if m.enabled:
            m.counter("mpi.messages", kind=kind, src=self.ranks[src]).add()
            m.counter("mpi.bytes", kind=kind, src=self.ranks[src]).add(float(nbytes))
        c = self.env.check
        if c.enabled:
            c.msg_sent(kind, nbytes)
        return request

    def _loopback(self, src, dst, tag, nbytes, payload, seq, request):
        yield from self.network.transfer(self.ranks[src], self.ranks[dst], nbytes)
        request._complete()
        self.mailboxes[dst].deliver(
            Envelope(src=src, dst=dst, tag=tag, nbytes=nbytes, payload=payload, seq=seq)
        )
        c = self.env.check
        if c.enabled:
            c.msg_delivered("loopback", nbytes)

    def _rendezvous(self, src, dst, tag, nbytes, payload, seq, request):
        cts = self.env.event()
        data = self.env.event()
        header = Envelope(
            src=src, dst=dst, tag=tag, nbytes=nbytes, payload=None,
            kind=RENDEZVOUS_RTS, seq=seq, cts_event=cts, data_event=data,
        )
        # RTS header to the receiver.
        yield from self.network.occupy_tx(self.ranks[src], HEADER_BYTES)
        yield from self.network.deliver(
            self.ranks[src], self.ranks[dst], HEADER_BYTES
        )
        self.mailboxes[dst].deliver(header)
        # Delivered once the receiver holds the RTS envelope: the payload
        # stream is driven by the matched receive from here on.
        c = self.env.check
        if c.enabled:
            c.msg_delivered("rendezvous", nbytes)
        # Wait for the matching receive (CTS), pay the CTS flight time,
        # then stream the payload.
        yield cts
        yield from self.network.wire_latency()
        yield from self.network.transfer(self.ranks[src], self.ranks[dst], nbytes)
        request._complete()
        data.succeed(payload)


class _EagerSend:
    """One eager or out-of-band send, driven by callbacks on kernel events.

    An eager send needs no process: nothing waits on its completion and
    its steps are a fixed chain.  The chain schedules the events a
    generator process would, in the same order: a start event in the
    URGENT slot an ``Initialize`` takes, the TX grant, the TX hold (the
    send completes locally once the bytes leave the host), the wire
    latency, the loss check, then the RX grant and the RX hold.  A dropped
    message waits out its backoff and is serialized again; a message that
    exhausts its retry budget fails an event nobody defuses, so
    :class:`~repro.mpi.network.LinkFailure` aborts ``env.run`` as a failed
    process would.  Only the process's completion event is gone.

    An out-of-band send rides the management network: it pays the wire
    latency but never competes with bulk data for NIC bandwidth and is
    exempt from injected link faults.  It carries liveness traffic
    (heartbeats, rejoin notices, write acks): a cluster's fault detector
    must not suffocate under the very congestion it watches.
    """

    __slots__ = (
        "comm", "net", "src", "dst", "gsrc", "gdst", "tag", "nbytes",
        "payload", "seq", "request", "tx_nic", "rx_nic", "slot", "attempt",
    )

    def __init__(
        self, comm: Communicator, src: int, dst: int, tag: int, nbytes: int,
        payload: Any, seq: int, request: SendRequest, oob: bool,
    ) -> None:
        self.comm = comm
        self.net = net = comm.network
        self.src = src
        self.dst = dst
        self.gsrc = comm.ranks[src]
        self.gdst = comm.ranks[dst]
        self.tag = tag
        self.nbytes = nbytes
        self.payload = payload
        self.seq = seq
        self.request = request
        self.tx_nic = net.nic(self.gsrc)
        self.rx_nic = net.nic(self.gdst)
        self.slot = None
        self.attempt = 0
        env = comm.env
        start = Event(env)
        start._ok = True
        start._value = None
        start.callbacks.append(self._fly_oob if oob else self._transmit)
        env.schedule(start, priority=URGENT)

    # -- eager ----------------------------------------------------------------
    def _transmit(self, _event) -> None:
        slot = self.tx_nic.tx.request()
        self.slot = slot
        slot.callbacks.append(self._hold_tx)

    def _hold_tx(self, _event) -> None:
        net = self.net
        net.env.timeout(net.hold_time(self.nbytes)).callbacks.append(self._sent)

    def _sent(self, _event) -> None:
        net = self.net
        self.tx_nic.tx.release(self.slot)
        net.count_tx(self.tx_nic, self.gsrc, self.nbytes)
        if not self.attempt:
            # Buffered at the receiver: locally complete once sent.
            self.request._complete()
        net.env.timeout(net.config.latency_s).callbacks.append(self._crossed)

    def _crossed(self, _event) -> None:
        net = self.net
        spec = net.dropped_by(self.gsrc, self.gdst, self.nbytes)
        if spec is None:
            slot = self.rx_nic.rx.request()
            self.slot = slot
            slot.callbacks.append(self._hold_rx)
            return
        self.attempt += 1
        try:
            net.check_retry_budget(
                spec, self.attempt, self.gsrc, self.gdst, self.nbytes
            )
        except LinkFailure as failure:
            net.env.event().fail(failure)
            return
        net.env.timeout(
            LinkFaults.retransmit_delay(spec, self.attempt)
        ).callbacks.append(self._retransmit)

    def _retransmit(self, _event) -> None:
        self.net.count_retransmit(self.gsrc, self.gdst)
        self._transmit(None)

    def _hold_rx(self, _event) -> None:
        net = self.net
        net.env.timeout(net.hold_time(self.nbytes)).callbacks.append(self._received)

    def _received(self, _event) -> None:
        self.rx_nic.rx.release(self.slot)
        self.net.count_rx(self.rx_nic, self.gdst, self.nbytes)
        self._arrive("eager")

    # -- out of band ------------------------------------------------------------
    def _fly_oob(self, _event) -> None:
        net = self.net
        net.env.timeout(net.config.latency_s).callbacks.append(self._landed_oob)

    def _landed_oob(self, _event) -> None:
        self.request._complete()
        self._arrive("oob")

    def _arrive(self, kind: str) -> None:
        comm = self.comm
        comm.mailboxes[self.dst].deliver(
            Envelope(
                src=self.src, dst=self.dst, tag=self.tag, nbytes=self.nbytes,
                payload=self.payload, kind=EAGER, seq=self.seq,
            )
        )
        c = comm.env.check
        if c.enabled:
            c.msg_delivered(kind, self.nbytes)


class RankComm:
    """Rank-local communicator handle (the object rank code talks to)."""

    def __init__(self, comm: Communicator, rank: int) -> None:
        self._comm = comm
        self.rank = rank
        self.mailbox = comm.mailboxes[rank]
        # Per-rank collective sequence number: collectives must be invoked
        # in the same order on every rank (an MPI correctness requirement),
        # so identical counters yield matching reserved tags.
        self._coll_seq = 0

    def __repr__(self) -> str:
        return f"<RankComm rank={self.rank}/{self.size}>"

    @property
    def env(self) -> Environment:
        return self._comm.env

    @property
    def size(self) -> int:
        return self._comm.size

    @property
    def global_rank(self) -> int:
        """The network/world rank behind this communicator-local rank."""
        return self._comm.ranks[self.rank]

    @property
    def network(self) -> Network:
        return self._comm.network

    # -- nonblocking p2p -----------------------------------------------------
    def isend(
        self, dst: int, tag: int, nbytes: int, payload: Any = None,
        oob: bool = False,
    ) -> SendRequest:
        """Start a nonblocking send of ``nbytes`` (``payload`` rides along).

        ``oob=True`` routes the message over the out-of-band management
        channel (wire latency only — no NIC contention, no link faults);
        reserved for tiny liveness/control messages."""
        return self._comm._start_send(self.rank, dst, tag, nbytes, payload, oob=oob)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> RecvRequest:
        """Post a nonblocking receive."""
        request = RecvRequest(self.env, source, tag, self.mailbox)
        self.mailbox.post(request)
        return request

    # -- blocking p2p (process fragments) -------------------------------------
    def send(self, dst: int, tag: int, nbytes: int, payload: Any = None):
        """Process fragment: blocking send."""
        request = self.isend(dst, tag, nbytes, payload)
        yield from request.wait()

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Process fragment: blocking receive, returns ``(payload, status)``."""
        request = self.irecv(source, tag)
        payload = yield from request.wait()
        return payload, request.status

    # -- probing ---------------------------------------------------------------
    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Optional[Status]:
        """Nonblocking probe of the unexpected-message queue."""
        return self.mailbox.probe(source, tag)
