"""Frozen slotted values: the one shape of every message and result.

Every wire message, every per-request result a client or replica keeps
(``OpResult``, ``AdoptedReply``, ...) and every trace record is a value:
immutable, compared and hashed by its fields, with no per-instance
``__dict__``.  :func:`frozen_value` declares one.  It is
``@dataclass(frozen=True, slots=True)`` with a different ``__init__``.

A frozen dataclass cannot assign its own fields, so the ``__init__`` that
``dataclasses`` writes sets each one with ``object.__setattr__(self,
name, value)``: a name lookup through the class per field, which makes a
slotted class slower to build than an unslotted one.  The ``__init__``
installed here sets each field through its slot's own descriptor
(``member_descriptor.__set__``), bound once when the class is declared,
as the codec's generated decoders do (``repro.runtime.codec``).  Same
parameters, same defaults, same instance: only the construction is
cheaper.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from typing import Any, Dict, List, TypeVar

__all__ = ["frozen_value"]

T = TypeVar("T", bound=type)


class _Factory:
    """The default a ``default_factory`` parameter shows in a signature."""

    def __repr__(self) -> str:
        return "<factory>"


_FACTORY = _Factory()


def frozen_value(cls: T) -> T:
    """Declare ``cls`` a frozen slotted dataclass built through its slots."""
    cls = dataclass(frozen=True, slots=True)(cls)
    cells: Dict[str, Any] = {}
    params: List[str] = []
    body: List[str] = []
    if hasattr(cls, "__post_init__"):
        raise TypeError(f"frozen_value {cls.__name__}: __post_init__ unsupported")
    for i, f in enumerate(fields(cls)):
        if not f.init or f.kw_only:
            raise TypeError(f"frozen_value {cls.__name__}.{f.name}: init=False/kw_only unsupported")
        cells[f"_s{i}"] = cls.__dict__[f.name].__set__
        arg = f.name
        if f.default is not MISSING:
            cells[f"_d{i}"] = f.default
            params.append(f"{f.name}=_d{i}")
        elif f.default_factory is not MISSING:
            cells[f"_f{i}"] = f.default_factory
            params.append(f"{f.name}=_FACTORY")
            arg = f"_f{i}() if {f.name} is _FACTORY else {f.name}"
        else:
            params.append(f.name)
        body.append(f"  _s{i}(self, {arg})")
    # The setters and defaults are closure cells of a factory, not
    # defaults of ``__init__``: the signature stays the dataclass's own.
    src = (
        f"def _make({', '.join(cells)}):\n"
        f" def __init__(self, {', '.join(params)}):\n"
        + "\n".join(" " + line for line in body or ["  pass"])
        + "\n return __init__\n"
    )
    scope: Dict[str, Any] = {}
    exec(src, {"_FACTORY": _FACTORY}, scope)
    init = scope["_make"](**cells)
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    cls.__init__ = init
    return cls
