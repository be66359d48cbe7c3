"""Classic active replication client: adopt the first reply.

With a *correct* Atomic Broadcast (e.g. the consensus-based one), all
replies are identical and the first is as good as any -- this client is
what the paper calls "the usual active replication technique" and is the
right client for :class:`~repro.broadcast.ct_abcast.CTAtomicBroadcastServer`.

Over the sequencer baseline it reproduces the client side of
Figure 1(b): the first reply may come from a sequencer whose ordering
never survives its crash.  The trace events are the same shape as
:class:`~repro.core.client.OARClient`'s, so the external-consistency
checker can score both clients identically.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.broadcast.reliable import ReliableMulticast
from repro.core.client import AdoptedReply
from repro.core.messages import Reply, Request
from repro.sim.component import ComponentProcess


class FirstReplyClient(ComponentProcess):
    """Send to all replicas; adopt whatever reply arrives first.

    Parameters
    ----------
    pid:
        Client identifier.
    servers:
        The replica group.
    reliable:
        When True, requests are R-multicast (required by servers that
        expect reliable dissemination, e.g. the CT Atomic Broadcast
        replicas); when False, requests are plain sends to every replica
        (the sequencer baseline of Figure 1).
    """

    def __init__(
        self,
        pid: str,
        servers: Sequence[str],
        reliable: bool = False,
    ) -> None:
        super().__init__(pid)
        self.servers: Tuple[str, ...] = tuple(servers)
        self.reliable = reliable
        #: Fired with every adoption; the workload drivers chain onto it.
        self.on_adopt: Optional[Callable[[AdoptedReply], None]] = None
        self.rmc = self.add_component(ReliableMulticast(self, self._unexpected_rdeliver))
        self._counter = itertools.count()
        self._submit_times: Dict[str, float] = {}
        self.adopted: Dict[str, AdoptedReply] = {}
        self.conflicting_replies = 0

    @property
    def outstanding(self) -> int:
        return len(self._submit_times) - len(self.adopted)

    def submit(self, op: Tuple[Any, ...]) -> str:
        rid = f"{self.pid}-{next(self._counter)}"
        request = Request(rid=rid, client=self.pid, op=tuple(op))
        self._submit_times[rid] = self.env.now
        self.env.trace("submit", rid=rid, op=request.op)
        if self.reliable:
            self.rmc.multicast(request, self.servers)
        else:
            for server in self.servers:
                self.env.send(server, request)
        return rid

    def on_app_message(self, src: str, payload: Any) -> None:
        if not isinstance(payload, Reply):
            return
        adopted = self.adopted.get(payload.rid)
        if adopted is not None:
            # Later replies that disagree with the adopted one reveal the
            # external inconsistency of the unsafe baseline.
            if (
                adopted.value != payload.value
                or adopted.position != payload.position
            ):
                self.conflicting_replies += 1
                self.env.trace(
                    "conflicting_reply",
                    rid=payload.rid,
                    adopted_value=adopted.value,
                    adopted_position=adopted.position,
                    value=payload.value,
                    position=payload.position,
                    server=src,
                )
            return
        submit_time = self._submit_times.get(payload.rid)
        if submit_time is None:
            return
        record = AdoptedReply(
            rid=payload.rid,
            value=payload.value,
            position=payload.position,
            epoch=payload.epoch,
            weight=tuple(sorted(payload.weight)),
            conservative=payload.conservative,
            submit_time=submit_time,
            adopt_time=self.env.now,
        )
        self.adopted[payload.rid] = record
        self.env.trace(
            "adopt",
            rid=payload.rid,
            value=payload.value,
            position=payload.position,
            epoch=payload.epoch,
            weight=record.weight,
            conservative=payload.conservative,
            latency=record.latency,
        )
        if self.on_adopt is not None:
            self.on_adopt(record)

    @staticmethod
    def _unexpected_rdeliver(origin: str, payload: Any) -> None:
        raise RuntimeError(
            f"client R-delivered unexpected payload from {origin}: {payload!r}"
        )
