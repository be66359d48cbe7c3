"""Compact binary wire codec for the real (TCP) runtime.

The simulator passes Python objects by reference, so serialization cost
is invisible there -- but over real sockets every message is encoded
once and decoded once, and the decentralised-replication literature is
unambiguous that *message cost dominates deployed replication*.
Pickling every frame is general but slow (pickle re-discovers each
dataclass's shape per message, and spells out class paths on the wire),
so the wire format is a registry-driven binary codec:

* every wire dataclass in :mod:`repro.core.messages`,
  :mod:`repro.broadcast`, :mod:`repro.consensus.chandra_toueg`, and the
  result payloads (:class:`~repro.statemachine.base.OpResult` and
  friends) is registered under an integer tag (see :data:`WIRE_TAGS`);
* encode lowers each message to a flat *node* -- ``[tag, field, ...]``
  -- and hands the node tree to :mod:`marshal`, CPython's C-speed
  serializer for builtin values, so all string/int/tuple leaf work
  happens in C.  (A pure-Python ``struct``-packed layout was tried
  first and profiled: per-field bytes assembly in the interpreter caps
  out around 2x pickle, while the node+marshal split clears 3x because
  only one Python-level step runs per *field*, not per *byte*.)
* decode rebuilds each node into its frozen dataclass by hoisted slot
  descriptor ``__set__`` calls on an ``object.__new__`` instance --
  bypassing ``__init__`` (and ``object.__setattr__``'s name lookup) is
  what makes decode cheaper than pickle's reduce machinery.  Every
  registered class is a slotted value (:func:`repro.values.frozen_value`,
  whose ``__init__`` sets its slots the same way), and ``_register``
  refuses one that is not, so a decoded message never carries a
  per-instance ``__dict__``;
* anything unregistered rides a pickle *escape hatch*: unknown objects
  become pickled leaf nodes, and a payload marshal cannot serialize at
  all (e.g. a mis-annotated field holding an open file) falls back to
  a whole-frame pickle, flagged by the leading discriminator byte.

The encoders and decoders are generated source (``exec``), one flat
function per registered class, with every helper hoisted into default
arguments.  Fields whose annotations promise marshal-native types
(``str``/``int``/``bool``/``float``/``Tuple[str, ...]`` and friends)
are passed to marshal untouched; ``Any`` fields go through the
recursive walk that converts nested registered dataclasses to nodes.

This is the one wire codec of :class:`~repro.runtime.tcp.TcpCluster`.
Decoded objects are indistinguishable from the ones encoded -- the
property suite round-trips every registered type, and a seeded scenario
run whose every payload crosses the codec is digest-identical to one
that passes objects by reference (see
``tests/property/test_codec_props.py``).

Caveats, shared with pickle but worth stating: marshal promises no
byte stability across Python *versions*.  Pinning the format
(``_MARSHAL_VERSION``) is what makes the wire classes decode equal and
re-encode byte-identical on every interpreter of the CI matrix
(``tests/unit/test_wire_fixture.py`` holds the committed frames);
anything riding the pickle escape hatch has no such pin.  And
``decode`` is only safe on frames from trusted peers (the runtime is a
closed benchmarking backend, not an open network service).
"""

from __future__ import annotations

import marshal
import pickle
from dataclasses import fields as _dc_fields
from functools import partial
from types import MemberDescriptorType
from typing import Any, Callable, Dict, List, Tuple, Type

from ..broadcast.reliable import RMsg
from ..broadcast.sequencer import OrderBatch, OrderMsg, ViewOrder
from ..consensus.chandra_toueg import CAck, CDecide, CEstimate, CNack, CProposal
from ..core.admission import Overloaded
from ..core.messages import (
    BodyBatch,
    OrderNack,
    PhaseII,
    ReadReply,
    ReadRequest,
    Reply,
    Request,
    SeqOrder,
    ShedNotice,
)
from ..core.sequences import MessageSequence
from ..failure.detector import Heartbeat
from ..statemachine.base import OpResult, WrongShard

__all__ = [
    "BinaryCodec",
    "WIRE_TAGS",
    "registered_types",
]

_MARSHAL_VERSION = 4
_mdumps = marshal.dumps
_mloads = marshal.loads
_pdumps = pickle.dumps
_ploads = pickle.loads
_PICKLE_PROTO = pickle.HIGHEST_PROTOCOL

#: discriminator bytes: every encoded buffer starts with one of these.
_F_BINARY = b"\x01"
_F_PICKLE = b"\x00"

# Node tags.  Registered classes use 0..N (list position in NODE_DEC);
# structural marks are negative so they can never collide.
_M_LIST = -1  #: a real ``list`` payload (bare lists are class nodes)
_M_MSGSEQ = -2  #: a :class:`MessageSequence`
_M_PICKLE = -3  #: an unregistered object, pickled as a leaf
_M_FSET = -4  #: a frozenset whose items needed node conversion
_M_DICT = -5  #: a dict whose *keys* needed node conversion

#: registered class -> node encoder ``f(obj) -> list``
_NODE_ENC: Dict[type, Callable[[Any], list]] = {}
#: node tag -> decoder ``f(node) -> obj``
_NODE_DEC: Dict[int, Callable[[list], Any]] = {}
#: registered wire class -> tag (public, for docs and tests)
WIRE_TAGS: Dict[type, int] = {}


def _walk(x: Any) -> Any:
    """Lower one value to its marshal-ready form (identity for leaves)."""
    t = x.__class__
    if t is str or t is int:
        return x
    f = _NODE_ENC.get(t)
    if f is not None:
        return f(x)
    if t is tuple:
        for i, c in enumerate(x):
            w = _walk(c)
            if w is not c:
                out = list(x[:i])
                out.append(w)
                for c in x[i + 1 :]:
                    out.append(_walk(c))
                return tuple(out)
        return x
    if x is None or t is bool or t is float or t is bytes or t is complex:
        return x
    if t is frozenset:
        for c in x:
            if _walk(c) is not c:
                return [_M_FSET, *map(_walk, x)]
        return x
    if t is dict:
        if any(_walk(k) is not k for k in x):
            out = [_M_DICT]
            for k, v in x.items():
                out.append(_walk(k))
                out.append(_walk(v))
            return out
        if any(_walk(v) is not v for v in x.values()):
            return {k: _walk(v) for k, v in x.items()}
        return x
    if t is list:
        return [_M_LIST, *map(_walk, x)]
    if t is MessageSequence:
        return [_M_MSGSEQ, *map(_walk, x.items)]
    return [_M_PICKLE, _pdumps(x, protocol=_PICKLE_PROTO)]


def _unwalk(x: Any) -> Any:
    """Invert :func:`_walk`: rebuild class nodes, keep leaves as-is."""
    t = x.__class__
    if t is list:
        return _NODE_DEC[x[0]](x)
    if t is tuple:
        for i, c in enumerate(x):
            w = _unwalk(c)
            if w is not c:
                out = list(x[:i])
                out.append(w)
                for c in x[i + 1 :]:
                    out.append(_unwalk(c))
                return tuple(out)
        return x
    if t is dict:
        for k, v in x.items():
            if _unwalk(v) is not v:
                return {k: _unwalk(v) for k, v in x.items()}
        return x
    return x


def _un_list(x: list) -> list:
    return [_unwalk(c) for c in x[1:]]


def _un_msgseq(x: list) -> MessageSequence:
    return MessageSequence(_unwalk(c) for c in x[1:])


def _un_pickle(x: list) -> Any:
    return _ploads(x[1])


def _un_fset(x: list) -> frozenset:
    return frozenset(_unwalk(c) for c in x[1:])


def _un_dict(x: list) -> dict:
    it = iter(x[1:])
    return {_unwalk(k): _unwalk(v) for k, v in zip(it, it)}


_NODE_DEC[_M_LIST] = _un_list
_NODE_DEC[_M_MSGSEQ] = _un_msgseq
_NODE_DEC[_M_PICKLE] = _un_pickle
_NODE_DEC[_M_FSET] = _un_fset
_NODE_DEC[_M_DICT] = _un_dict


# ---------------------------------------------------------------------------
# Per-class codegen
# ---------------------------------------------------------------------------

#: annotations whose values marshal serializes natively, so the codec
#: passes them through without walking.  A field that lies about its
#: annotation still round-trips (marshal doesn't care) unless the value
#: is unmarshalable, in which case the whole frame takes the pickle
#: escape -- slow but correct.
_TRUSTED = {
    "str",
    "int",
    "bool",
    "float",
    "bytes",
    "Tuple[str, ...]",
    # Optionals of native types: marshal serializes None natively.
    "Optional[int]",
    "Optional[str]",
    # Operation tuples are native values (strings/ints/nested tuples) in
    # every shipped state machine; an exotic op containing a non-native
    # object makes ``marshal.dumps`` raise and the frame takes the
    # whole-frame pickle escape -- slower, still correct.
    "Tuple[Any, ...]",
}
#: annotations stored as a tuple node but rebuilt as a frozenset --
#: marshal serializes frozensets natively but ~2x slower than tuples.
_AS_TUPLE = {"FrozenSet[str]": "frozenset"}


def _register(cls: type, tag: int) -> None:
    """Generate and install the node encoder/decoder pair for ``cls``."""
    if tag in _NODE_DEC or cls in WIRE_TAGS:
        raise ValueError(f"duplicate codec registration: {cls.__name__}/{tag}")
    field_list = [(f.name, f.type) for f in _dc_fields(cls)]

    slots = [cls.__dict__.get(name) for name, _t in field_list]
    unslotted = [
        name for (name, _t), slot in zip(field_list, slots)
        if not isinstance(slot, MemberDescriptorType)
    ]
    if unslotted:
        raise TypeError(
            f"codec registers slotted dataclasses only: {cls.__name__}.{unslotted[0]} "
            "is not a slot (declare the class with repro.values.frozen_value)"
        )
    ns: Dict[str, Any] = {
        "_w": _walk,
        "_u": _unwalk,
        "_mk": partial(object.__new__, cls),
    }
    for i, slot in enumerate(slots):
        ns[f"_s{i}"] = slot.__set__

    # -- encoder: one flat list literal ------------------------------------
    items = [str(tag)]
    for name, typ in field_list:
        if typ in _TRUSTED:
            items.append(f"v.{name}")
        elif typ in _AS_TUPLE:
            items.append(f"tuple(v.{name})")
        else:
            items.append(f"_w(v.{name})")
    enc_src = f"def _enc(v, _w=_w):\n    return [{', '.join(items)}]\n"

    # -- decoder: new instance + hoisted descriptor sets -------------------
    def _get(i: int, typ: str) -> str:
        if typ in _TRUSTED:
            return f"x[{i}]"
        if typ in _AS_TUPLE:
            return f"{_AS_TUPLE[typ]}(x[{i}])"
        return f"_u(x[{i}])"

    body: List[str] = ["    m = _mk()"]
    for i, (_name, typ) in enumerate(field_list):
        body.append(f"    _s{i}(m, {_get(i + 1, typ)})")
    setter_args = ", ".join(f"_s{i}=_s{i}" for i in range(len(field_list)))
    dec_args = f"x, _mk=_mk, _u=_u, {setter_args}"
    body.append("    return m")
    dec_src = f"def _dec({dec_args}):\n" + "\n".join(body) + "\n"

    exec(enc_src, ns)
    exec(dec_src, ns)
    _NODE_ENC[cls] = ns["_enc"]
    _NODE_DEC[tag] = ns["_dec"]
    WIRE_TAGS[cls] = tag


#: Registration order is the wire contract -- append only, never reorder.
_WIRE_CLASSES: Tuple[Type[Any], ...] = (
    Request,
    Reply,
    ReadRequest,
    ReadReply,
    ShedNotice,
    SeqOrder,
    OrderNack,
    BodyBatch,
    PhaseII,
    RMsg,
    OrderMsg,
    OrderBatch,
    ViewOrder,
    CEstimate,
    CProposal,
    CAck,
    CNack,
    CDecide,
    OpResult,
    WrongShard,
    Overloaded,
    Heartbeat,
)

for _i, _cls in enumerate(_WIRE_CLASSES):
    _register(_cls, _i)


def registered_types() -> Tuple[Type[Any], ...]:
    """All wire classes with a specialized (non-escape-hatch) encoding."""
    return _WIRE_CLASSES


# ---------------------------------------------------------------------------
# The codec
# ---------------------------------------------------------------------------


class BinaryCodec:
    """The compact tagged binary codec of the real backends."""

    @staticmethod
    def encode(obj: Any) -> bytes:
        try:
            return _F_BINARY + _mdumps(_walk(obj), _MARSHAL_VERSION)
        except (ValueError, RecursionError):
            return _F_PICKLE + _pdumps(obj, protocol=_PICKLE_PROTO)

    @staticmethod
    def decode(buf: bytes) -> Any:
        if buf[0]:
            return _unwalk(_mloads(buf[1:]))
        return _ploads(buf[1:])

    @staticmethod
    def encode_frame(src: str, payload: Any) -> bytes:
        """One wire frame body: the source pid and the payload together."""
        try:
            return _F_BINARY + _mdumps((src, _walk(payload)), _MARSHAL_VERSION)
        except (ValueError, RecursionError):
            return _F_PICKLE + _pdumps((src, payload), protocol=_PICKLE_PROTO)

    @staticmethod
    def decode_frame(buf: bytes) -> Tuple[str, Any]:
        if buf[0]:
            src, node = _mloads(buf[1:])
            # Inline the hot case (payload is a registered-class node)
            # to skip one dispatch layer per frame.
            if node.__class__ is list:
                return src, _NODE_DEC[node[0]](node)
            return src, _unwalk(node)
        return _ploads(buf[1:])
