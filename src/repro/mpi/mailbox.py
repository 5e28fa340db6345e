"""Per-rank message matching: posted receives vs. unexpected messages.

Matching follows MPI semantics: a receive posted for ``(source, tag)`` (with
wildcards) pairs with the earliest-arrived matching envelope; an arriving
envelope pairs with the earliest-posted matching receive.  Because envelopes
from one sender arrive in the order they were sent (the sender's TX channel
serializes them), the MPI non-overtaking guarantee holds.
"""

from __future__ import annotations

from typing import List, Optional

from ..sim import Environment
from .constants import ANY_SOURCE, ANY_TAG, EAGER, RENDEZVOUS_RTS
from .message import Envelope, Status
from .request import RecvRequest


class Mailbox:
    """Matching engine for a single rank."""

    def __init__(self, env: Environment, rank: int) -> None:
        self.env = env
        self.rank = rank
        self.unexpected: List[Envelope] = []
        self.posted: List[RecvRequest] = []

    def __repr__(self) -> str:
        return (
            f"<Mailbox rank={self.rank} unexpected={len(self.unexpected)} "
            f"posted={len(self.posted)}>"
        )

    # -- arrival side ------------------------------------------------------
    def deliver(self, envelope: Envelope) -> None:
        """An envelope arrived from the network."""
        if envelope.dst != self.rank:
            raise ValueError(
                f"Envelope for rank {envelope.dst} delivered to mailbox {self.rank}"
            )
        src = envelope.src
        tag = envelope.tag
        posted = self.posted
        for i, recv in enumerate(posted):
            r_source = recv.source
            r_tag = recv.tag
            if (r_source == src or r_source == ANY_SOURCE) and (
                r_tag == tag or r_tag == ANY_TAG
            ):
                del posted[i]
                self._match(recv, envelope)
                return
        self.unexpected.append(envelope)

    # -- receive side ------------------------------------------------------
    def post(self, recv: RecvRequest) -> None:
        """A receive was posted; match against unexpected messages first."""
        i = self._find(recv.source, recv.tag)
        if i < 0:
            self.posted.append(recv)
        else:
            self._match(recv, self.unexpected.pop(i))

    def unpost(self, recv: RecvRequest) -> None:
        try:
            self.posted.remove(recv)
        except ValueError:
            pass

    def probe(self, source: int, tag: int) -> Optional[Status]:
        """Nonblocking probe: status of the first matching arrived envelope."""
        i = self._find(source, tag)
        return None if i < 0 else self.unexpected[i].status

    # -- internals ---------------------------------------------------------
    def _find(self, source: int, tag: int) -> int:
        """Index of the earliest unexpected envelope matching (source, tag),
        or -1."""
        any_source = source == ANY_SOURCE
        any_tag = tag == ANY_TAG
        for i, envelope in enumerate(self.unexpected):
            if (any_source or envelope.src == source) and (
                any_tag or envelope.tag == tag
            ):
                return i
        return -1

    def _match(self, recv: RecvRequest, envelope: Envelope) -> None:
        recv._matched = True
        if envelope.kind == EAGER:
            # Payload already buffered here; the receive completes now.
            recv._deliver(envelope.payload, envelope.status)
        elif envelope.kind == RENDEZVOUS_RTS:
            # Unblock the sender's payload transfer; complete the receive
            # once the payload actually lands.
            assert envelope.data_event is not None and envelope.cts_event is not None

            def on_data(event) -> None:
                recv._deliver(event.value, envelope.status)

            envelope.data_event.callbacks.append(on_data)
            envelope.cts_event.succeed()
        else:  # pragma: no cover - defensive
            raise ValueError(f"Unknown envelope kind {envelope.kind!r}")
