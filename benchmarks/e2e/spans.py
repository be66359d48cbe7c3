"""In-memory span recorder for the traced benchmark run.

The layers of :mod:`repro` carry no spans of their own, so the traced
run wraps their public callables from out here (class attributes and
module functions, patched before a cluster is built and restored after
the run).  Protocol handlers run one at a time on one thread, so a plain
stack gives every span its parent, and

    self time = duration - time covered by child spans.

Summing self time over every span therefore never counts an interval
twice: the sum plus whatever ran outside any span (event loop, selector,
syscalls, unwrapped timer callbacks) is the wall time of the window.
"""

from __future__ import annotations

import collections
import json
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (span id, parent id or -1, name, start, end, rid or None)
Span = Tuple[int, int, str, float, float, Optional[str]]

_MISSING = object()


def layer_of(name: str) -> str:
    """``runtime.codec.encode`` -> ``runtime.codec``: the module a span is in."""
    return name.rpartition(".")[0]


class SpanRecorder:
    """Records spans around wrapped callables; aggregates per span name.

    ``keep`` bounds how many raw spans stay in memory for :meth:`dump`;
    the per-name aggregates (count, inclusive seconds, self seconds)
    cover every call regardless.
    """

    def __init__(
        self, clock: Callable[[], float] = time.perf_counter, keep: int = 100_000
    ) -> None:
        self.clock = clock
        self.keep = keep
        self.spans: List[Span] = []
        #: name -> [calls, inclusive seconds, self seconds]
        self.totals: Dict[str, List[float]] = {}
        #: counts taken at span boundaries by ``observe`` callbacks
        self.counters: Dict[str, int] = collections.Counter()
        self._stack: List[List[float]] = []  # frames: [span id, child seconds]
        self._next_id = 0
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- wrapping ------------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        rid_of: Optional[Callable[[tuple], Optional[str]]] = None,
        observe: Optional[Callable[[tuple, Dict[str, int]], None]] = None,
    ) -> Callable[..., Any]:
        """``fn`` with a span named ``name`` around every call.

        ``rid_of(args)`` names the request a kept span belongs to;
        ``observe(args, counters)`` counts at the boundary on every call.
        """
        clock = self.clock
        counters = self.counters
        stack = self._stack
        spans = self.spans
        keep = self.keep
        total = self.totals.setdefault(name, [0, 0.0, 0.0])

        def traced(*args: Any, **kwargs: Any) -> Any:
            if observe is not None:
                observe(args, counters)
            frame = [self._next_id, 0.0]
            self._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                total[0] += 1
                total[1] += duration
                total[2] += duration - frame[1]
                parent = -1
                if stack:
                    parent_frame = stack[-1]
                    parent_frame[1] += duration
                    parent = parent_frame[0]
                if len(spans) < keep:
                    rid = rid_of(args) if rid_of is not None else None
                    spans.append((frame[0], parent, name, start, end, rid))

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def install(
        self,
        owner: Any,
        attr: str,
        name: str,
        rid_of: Optional[Callable[[tuple], Optional[str]]] = None,
        observe: Optional[Callable[[tuple, Dict[str, int]], None]] = None,
    ) -> None:
        """Patch ``owner.attr`` (a class or a module) with a traced version.

        An attribute the class only inherits is wrapped on the class
        itself, so the base class (and its other subclasses) stay
        untraced; :meth:`uninstall` removes it again.
        """
        raw = vars(owner).get(attr, _MISSING)
        if isinstance(raw, staticmethod):
            patched: Any = staticmethod(self.wrap(name, raw.__func__, rid_of, observe))
        elif raw is _MISSING:
            patched = self.wrap(name, getattr(owner, attr), rid_of, observe)
        else:
            patched = self.wrap(name, raw, rid_of, observe)
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, patched)

    def uninstall(self) -> None:
        """Restore every attribute :meth:`install` patched."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    # -- reading -------------------------------------------------------

    def calls(self, *names: str) -> int:
        return int(sum(self.totals[n][0] for n in names if n in self.totals))

    def inclusive_s(self, *names: str) -> float:
        return sum(self.totals[n][1] for n in names if n in self.totals)

    def layer_calls(self, layer: str) -> int:
        return int(sum(t[0] for n, t in self.totals.items() if layer_of(n) == layer))

    def layer_self_s(self, layer: str) -> float:
        return sum(t[2] for n, t in self.totals.items() if layer_of(n) == layer)

    def self_s(self) -> float:
        """Self time summed over every span: the attributed part of the wall."""
        return sum(t[2] for t in self.totals.values())

    def dump(self, path: str) -> None:
        """Write the kept spans as JSON lines (header line first)."""
        with open(path, "w", encoding="utf-8") as out:
            header = {
                "fields": ["id", "parent", "name", "start_s", "end_s", "rid"],
                "kept": len(self.spans),
                "recorded": self._next_id,
            }
            out.write(json.dumps(header) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
