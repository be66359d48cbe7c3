"""Reliable multicast: the R-multicast(m, Π) primitive of Section 3.

Properties (quoted from the paper):

* **Validity** -- if a correct process executes R-multicast(m, Π), then
  every correct process in Π eventually R-delivers m.
* **Agreement** -- if a correct process R-delivers m, then all correct
  processes in Π eventually R-deliver m.
* **Integrity** -- every process R-delivers m at most once, and only if m
  was previously R-multicast.

The classic crash-fault implementation: on first receipt of a message,
relay it to the whole group, then deliver.  If the original sender crashes
mid-multicast so that only some members received it, the relays complete
the dissemination -- this is what makes the OAR algorithm's Proposition 4
(at-least-once request handling) hold even when the client or sequencer
crashes at the worst moment.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Sequence, Set, Tuple

from repro.sim.component import Component
from repro.sim.process import Process
from repro.values import frozen_value


@frozen_value
class RMsg:
    """The relay envelope of the reliable-multicast protocol."""

    mid: str
    origin: str
    payload: Any
    group: Tuple[str, ...]

    def __repr__(self) -> str:
        return f"RMsg({self.mid} from {self.origin}: {self.payload!r})"


class ReliableMulticast(Component):
    """Relay-on-first-receipt reliable multicast.

    The host receives R-delivered payloads through ``deliver``, called as
    ``deliver(origin, payload)`` -- ``origin`` is the process that invoked
    :meth:`multicast`, not the relaying neighbour.
    """

    MESSAGE_TYPES = (RMsg,)

    def __init__(
        self,
        host: Process,
        deliver: Callable[[str, Any], None],
    ) -> None:
        super().__init__(host)
        self._deliver = deliver
        self._seen: Set[str] = set()
        self._counter = itertools.count()
        # group -> (peers-other-than-self, self in group): multicast and
        # relay fan out to the same few groups thousands of times, so the
        # per-call "everyone but me" filtering is computed once per group.
        self._fanout: dict = {}

    def _group_fanout(self, group: Tuple[str, ...]) -> Tuple[Tuple[str, ...], bool]:
        cached = self._fanout.get(group)
        if cached is None:
            pid = self.host.pid
            cached = (tuple(m for m in group if m != pid), pid in group)
            self._fanout[group] = cached
        return cached

    def multicast(self, payload: Any, group: Sequence[str]) -> str:
        """R-multicast ``payload`` to ``group``; returns the message id.

        If the caller is itself a member of ``group``, its own delivery
        happens locally (no network hop), scheduled as a separate task to
        preserve handler mutual exclusion.
        """
        mid = f"{self.host.pid}:{next(self._counter)}"
        group_tuple = tuple(group)
        message = RMsg(mid=mid, origin=self.host.pid, payload=payload, group=group_tuple)
        peers, self_member = self._group_fanout(group_tuple)
        if self_member:
            # Relays reach members only: an origin outside the group (a
            # client) never sees its own mid again, so it keeps none.
            self._seen.add(mid)
        env = self.env
        send = env.send
        for member in peers:
            send(member, message)
        if self_member:
            env.post(0.0, lambda: self._deliver(self.host.pid, payload))
        return mid

    def on_message(self, src: str, payload: RMsg) -> None:
        """First receipt: relay to the group, then deliver locally."""
        if payload.mid in self._seen:
            return
        self._seen.add(payload.mid)
        # Relay before delivering: if this process crashes inside the
        # delivery handler the relays have already left.
        peers, _ = self._group_fanout(payload.group)
        send = self.env.send
        for member in peers:
            send(member, payload)
        self._deliver(payload.origin, payload.payload)
