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

Integrity is kept by a watermark, not by a set of every mid ever seen.
An origin numbers its multicasts 0, 1, 2, ... separately for each group
it multicasts to.  A receiver keeps, per ``(origin, group)``, the
highest mid ``low`` up to which every mid has arrived, plus the sparse
set of mids that arrived above it; a mid at or under ``low``, or in the
set, is a duplicate.  Each link is FIFO, so in a failure-free run mids
arrive in order unless a relay overtakes a slower direct copy, and the
later mid then waits in the set only until that copy lands: an origin
costs one integer.  The set keeps mids only where one never arrives
below them, which takes one of:

* every copy of the mid dropped on the way here (a lossy link or a
  drop rule);
* its request body repaired outside R-multicast, by an anti-entropy
  ``BodyBatch``.

A crash alone leaves no such gap: a mid that reached any correct member
reaches the rest through its relays, and a crashed origin numbers no
later mid.  The mids above a gap are each kept, so memory is never worse
than a set of every mid.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Iterator, Sequence, Set, Tuple

from repro.sim.component import Component
from repro.sim.process import Process
from repro.values import frozen_value


@frozen_value
class RMsg:
    """The relay envelope of the reliable-multicast protocol.

    ``mid`` numbers the origin's multicasts to ``group``, from 0.
    """

    mid: int
    origin: str
    payload: Any
    group: Tuple[str, ...]

    def __repr__(self) -> str:
        return f"RMsg({self.origin}:{self.mid} from {self.origin}: {self.payload!r})"


_Fanout = Tuple[Tuple[str, ...], bool, Iterator[int]]


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
        # What this process has received, per (origin, group): every mid
        # up to ``_low[key]``, and the mids in ``_above[key]`` -- a set
        # that exists only while a mid is missing below it.
        self._low: Dict[Tuple[str, Tuple[str, ...]], int] = {}
        self._above: Dict[Tuple[str, Tuple[str, ...]], Set[int]] = {}
        # group -> (peers-other-than-self, self in group, the numbering of
        # this process's own multicasts to it): multicast and relay fan
        # out to the same few groups thousands of times, so the per-call
        # "everyone but me" filtering is computed once per group.
        self._fanout: Dict[Tuple[str, ...], _Fanout] = {}

    def _group_fanout(self, group: Tuple[str, ...]) -> _Fanout:
        pid = self.host.pid
        cached = (tuple(m for m in group if m != pid), pid in group, itertools.count())
        self._fanout[group] = cached
        return cached

    def multicast(self, payload: Any, group: Sequence[str]) -> int:
        """R-multicast ``payload`` to ``group``; returns the message id.

        If the caller is itself a member of ``group``, its own delivery
        happens locally (no network hop), scheduled as a separate task to
        preserve handler mutual exclusion.
        """
        group_tuple = tuple(group)
        fanout = self._fanout.get(group_tuple)
        if fanout is None:
            fanout = self._group_fanout(group_tuple)
        peers, self_member, counter = fanout
        mid = next(counter)
        pid = self.host.pid
        message = RMsg(mid=mid, origin=pid, payload=payload, group=group_tuple)
        if self_member:
            # Relays reach members only: an origin outside the group (a
            # client) never sees its own mid again, so it keeps none.
            # Its own mids are numbered in order, so the mark only moves.
            self._low[pid, group_tuple] = mid
        env = self.env
        send = env.send
        for member in peers:
            send(member, message)
        if self_member:
            env.post(0.0, lambda: self._deliver(pid, payload))
        return mid

    def on_message(self, src: str, payload: RMsg) -> None:
        """First receipt: relay to the group, then deliver locally."""
        group = payload.group
        key = (payload.origin, group)
        mid = payload.mid
        low = self._low.get(key, -1)
        if mid == low + 1:
            # The next mid in order -- the usual first receipt -- and the
            # only case that moves the mark (absorbing what waited above
            # it).
            gaps = self._above
            if gaps:
                above = gaps.get(key)
                if above is not None:
                    while mid + 1 in above:
                        mid += 1
                        above.remove(mid)
                    if not above:
                        del gaps[key]
            self._low[key] = mid
        elif mid <= low or mid in self._above.get(key, ()):
            return
        else:
            self._above.setdefault(key, set()).add(mid)
        # Relay before delivering: if this process crashes inside the
        # delivery handler the relays have already left.
        fanout = self._fanout.get(group)
        if fanout is None:
            fanout = self._group_fanout(group)
        send = self.env.send
        for member in fanout[0]:
            send(member, payload)
        self._deliver(payload.origin, payload.payload)
