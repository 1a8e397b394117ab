"""Canonical binary encoding used for signing, hashing, and wire frames.

The format is bit-exact and deliberately small:

  - integers: unsigned 64-bit big-endian
  - byte strings: 4-byte big-endian length prefix, then the raw bytes
  - text: UTF-8 bytes, length-prefixed like a byte string (so text holding
    a lone surrogate, which has no UTF-8 form, is a :class:`CodecError`)
  - booleans: one byte, 0 or 1
  - union variants: one leading tag byte
  - enumerations: one byte, the member's value
  - sequences: 4-byte big-endian element count, then the elements
  - sets: a sequence whose elements are strictly ascending, so no repeats

Decoding is strict: every length is bounds-checked and a frame must be
consumed exactly, so any stray or missing byte is a :class:`CodecError`.

A wire type or ledger state record is described once, on its dataclass:
:func:`wire` gives each field a :class:`Field` codec, :func:`wire_record`
derives the codec of the whole record from them (fields in declaration
order), and :class:`Tagged` tells the members of a union apart by a leading
tag byte.  A record's codec also carries its JSON form, as the genesis doc
holds it, and a checked loader that reads the form back.

Encoders are compiled.  Each field codec gives its encoder as source,
``Field.source(s, value)``: lines that append the value to ``b``, the
writer's bytearray, with a ``_Pack`` for each fixed-width value (see
:class:`_Source`).  A record's encoder is its fields' sources, one after
the other, compiled into one function, so it writes every field in place
with no call per field; each run of adjacent fixed-width values (u64,
bool, enum, a length or a count) is one precompiled
``struct.Struct(...).pack``, whose range errors become CodecError.  Every
codec's own ``encode``, a record's as a combinator's, is its source
compiled on its first call, so every encoding rule is written once and
importing compiles nothing.  A codec without source is called from a
record's encoder instead.  :class:`Writer` keeps the primitives for the
hand-written frames (transaction signing bytes, blocks, messages).
"""

from __future__ import annotations

import dataclasses
import re
import struct
import warnings
from collections.abc import Callable
from enum import Enum
from typing import Any, NamedTuple, TypeVar

from .errors import CodecError

E = TypeVar("E", bound=Enum)

U64_MAX = 2**64 - 1
U32_MAX = 2**32 - 1


class Writer:
    """Accumulates canonical bytes."""

    def __init__(self) -> None:
        self._buf = bytearray()

    def u8(self, value: int) -> None:
        if not (isinstance(value, int) and 0 <= value <= 0xFF):
            raise CodecError(f"u8 out of range: {value!r}")
        self._buf.append(value)

    def u64(self, value: int) -> None:
        if not (isinstance(value, int) and 0 <= value <= U64_MAX):
            raise CodecError(f"u64 out of range: {value!r}")
        self._buf += struct.pack(">Q", value)

    def boolean(self, value: bool) -> None:
        self._buf.append(1 if value else 0)

    def raw(self, data: bytes) -> None:
        """Append bytes without a length prefix (caller controls framing)."""
        self._buf += data

    def bytes_(self, data: bytes) -> None:
        if len(data) > U32_MAX:
            raise CodecError("byte string too long")
        self._buf += struct.pack(">I", len(data))
        self._buf += data

    def text(self, value: str) -> None:
        try:
            data = value.encode("utf-8")
        except UnicodeEncodeError:
            _not_utf8(value)
        self.bytes_(data)

    def count(self, n: int) -> None:
        if not (isinstance(n, int) and 0 <= n <= U32_MAX):
            raise CodecError(f"u32 out of range: {n!r}")
        self._buf += struct.pack(">I", n)

    def getvalue(self) -> bytes:
        return bytes(self._buf)


class Reader:
    """Strict cursor over a canonical byte frame."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def _take(self, n: int) -> bytes:
        if n < 0 or self._pos + n > len(self._data):
            raise CodecError("unexpected end of frame")
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def u8(self) -> int:
        return self._take(1)[0]

    def u64(self) -> int:
        return struct.unpack(">Q", self._take(8))[0]

    def enum(self, kind: type[E]) -> E:
        """One byte holding the value of a member of ``kind``."""
        value = self.u8()
        try:
            return kind(value)
        except ValueError:
            raise CodecError(f"unknown {kind.__name__} value {value}") from None

    def boolean(self) -> bool:
        b = self.u8()
        if b not in (0, 1):
            raise CodecError(f"invalid boolean byte: {b}")
        return b == 1

    def bytes_(self) -> bytes:
        n = struct.unpack(">I", self._take(4))[0]
        return self._take(n)

    def text(self) -> str:
        raw = self.bytes_()
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CodecError("invalid UTF-8 in text field") from exc

    def count(self) -> int:
        return struct.unpack(">I", self._take(4))[0]

    def fixed(self, n: int) -> bytes:
        return self._take(n)

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    def require_end(self) -> None:
        if self._pos != len(self._data):
            raise CodecError(f"{self.remaining} trailing bytes in frame")


# --- field codecs ------------------------------------------------------------------


class Field(NamedTuple):
    """How one value is written to a :class:`Writer` and read back, and its JSON form.

    ``source`` writes the encoder as source (see :class:`_Source`) and
    ``encode`` is that source compiled, so a record's encoder can hold each
    field's encoding in place of a call.  A codec without ``source`` (say,
    one that keeps bytes between encodings) is called there instead.
    ``decode`` is ``None`` for a value only written, as into the state
    digest.  ``to_doc`` gives the JSON form; ``from_doc`` reads it back,
    checked, and a record's loader turns any error it raises into a
    :class:`CodecError` that names the field.  Both are ``None`` for a value
    with no JSON form.
    """

    encode: Callable[[Writer, Any], None]
    decode: Callable[[Reader], Any] | None
    to_doc: Callable[[Any], Any] | None = None
    from_doc: Callable[[Any], Any] | None = None
    source: Callable[[_Source, str], list] | None = None


class _Pack(NamedTuple):
    """A fixed-width value in an encoder's source: its struct code and the expression packed."""

    code: str
    value: str


# what a pack raises for a value out of its range: struct.error, or
# bytearray.append's ValueError or TypeError for a lone byte
_PACK_ERRORS = (struct.error, TypeError, ValueError)
# the name and top of each integer struct code
_RANGES = {"B": ("u8", 0xFF), "I": ("u32", U32_MAX), "Q": ("u64", U64_MAX)}


def _pack_error(codes: str, *values) -> None:
    """Raise the CodecError for the first of ``values`` its struct code cannot take."""
    for code, value in zip(codes, values):
        if code in _RANGES and not (isinstance(value, int) and 0 <= value <= _RANGES[code][1]):
            raise CodecError(f"{_RANGES[code][0]} out of range: {value!r}") from None
    raise CodecError(f"cannot pack {values!r} as {codes}") from None


def _not_utf8(text: str) -> None:
    raise CodecError(f"text is not UTF-8: {text!r}") from None


def is_utf8(text: str) -> bool:
    """Whether ``text`` encodes as UTF-8; one holding a lone surrogate does not."""
    try:
        text.encode()
    except UnicodeEncodeError:
        return False
    return True


class _Source:
    """The source of one encoder ``encode(w, v)``, which appends to ``b``, the bytearray of ``w``.

    A codec's ``source(s, value)`` returns items: lines of source, and a
    :class:`_Pack` for each fixed-width value (u64, bool, enum, a length or
    count).  ``value`` is an expression without side effects, cheap enough
    to evaluate twice.  Adjacent packs are written as one precompiled
    ``struct.Struct(...).pack``, whose range checks raise CodecError.
    ``s`` names fresh locals and the constants the source refers to.
    """

    def __init__(self) -> None:
        self.env: dict[str, Any] = {
            "CodecError": CodecError,
            "_PACK_ERRORS": _PACK_ERRORS,
            "_pack_error": _pack_error,
            "_not_utf8": _not_utf8,
        }
        self._names = 0

    def local(self) -> str:
        self._names += 1
        return f"x{self._names}"

    def const(self, value) -> str:
        self._names += 1
        self.env[f"k{self._names}"] = value
        return f"k{self._names}"

    def bind(self, value: str, items: list) -> str:
        """A name for the expression ``value``, assigned in ``items`` unless it is one."""
        if value.isidentifier():
            return value
        name = self.local()
        items.append(f"{name} = {value}")
        return name

    def block(self, head: str, items: list) -> list[str]:
        """``head``, then ``items`` indented under it."""
        return [head, *(f"    {line}" for line in self.lines(items) or ["pass"])]

    def by_type(self, value: str, cases: list[tuple[type, list]], otherwise: str) -> list[str]:
        """The items of the case whose class ``value`` has, or else the line ``otherwise``."""
        kind = self.local()
        out = [f"{kind} = type({value})"]
        for i, (cls, items) in enumerate(cases):
            out += self.block(f"{'elif' if i else 'if'} {kind} is {self.const(cls)}:", items)
        return out + (self.block("else:", [otherwise]) if cases else [otherwise])

    def lines(self, items: list) -> list[str]:
        """``items`` as lines of source, each run of adjacent packs as one pack."""
        out: list[str] = []
        run: list[_Pack] = []
        for item in [*items, None]:
            if type(item) is _Pack:
                run.append(item)
                continue
            if run:
                out += self._pack(run)
                run = []
            if item is not None:
                out.append(item)
        return out

    def _pack(self, run: list[_Pack]) -> list[str]:
        codes = "".join(p.code for p in run)
        values = ", ".join(p.value for p in run)
        if codes == "?":
            return [f"b.append(1 if {values} else 0)"]
        if codes == "B":
            line = f"b.append({values})"
        else:
            line = f"b += {self.const(struct.Struct('>' + codes).pack)}({values})"
        if all(p.value.isdigit() for p in run):  # tag bytes
            return [line]
        return ["try:", f"    {line}", "except _PACK_ERRORS:", f"    _pack_error({codes!r}, {values})"]


def _compile(source: Callable[[_Source, str], list]) -> Callable[[Writer, Any], None]:
    """``encode(w, v)``, the function ``source`` writes; its text is kept as ``encode.source``."""
    s = _Source()
    body = s.lines(source(s, "v")) or ["pass"]
    text = "\n".join(["def encode(w, v):", "    b = w._buf", *(f"    {line}" for line in body)])
    with warnings.catch_warnings():
        # a warning (a bad escape, say) is a fault of the generator
        warnings.simplefilter("error")
        exec(text, s.env)
    encode = s.env["encode"]
    encode.source = text
    return encode


def _items(s: _Source, codec: Field, value: str) -> list:
    """``codec`` writing ``value``: its source, or a call of its encoder if it has none."""
    if codec.source is None:
        return [f"{s.const(codec.encode)}(w, {value})"]
    return codec.source(s, value)


def _field(source: Callable[[_Source, str], list], decode, to_doc=None, from_doc=None) -> Field:
    """The codec whose encoder ``source`` writes, compiled on its first call.

    Most combinators and many records are only written in place in another
    record's encoder, so compiling each one up front would hold code that
    never runs.
    """
    compiled = None

    def encode(w: Writer, value) -> None:
        nonlocal compiled
        if compiled is None:
            compiled = _compile(source)
        compiled(w, value)

    return Field(encode, decode, to_doc, from_doc, source)


def _same(value):
    """The JSON form of a value that is its own JSON form."""
    return value


def _checked(expected: str, check: str) -> Callable[[Any], Any]:
    """A ``from_doc`` that returns a value ``v`` meeting ``check`` and rejects any other.

    ``check`` is a Python expression, kept on the function: a record's
    loader writes it out in place of the call, which saves a call per value.
    """
    env = {"CodecError": CodecError, "U64_MAX": U64_MAX, "is_utf8": is_utf8, "expected": f"expected {expected}, not "}
    exec(f"def from_doc(v):\n    if {check}:\n        return v\n    raise CodecError(expected + repr(v))", env)
    env["from_doc"].check = check
    return env["from_doc"]


def _bytes(s: _Source, value: str) -> list:
    return [_Pack("I", f"len({value})"), f"b += {value}"]


def _text(s: _Source, value: str) -> list:
    data = s.local()
    return ["try:", f"    {data} = {value}.encode()", "except UnicodeEncodeError:", f"    _not_utf8({value})", *_bytes(s, data)]


U64 = _field(
    lambda s, v: [_Pack("Q", v)],
    Reader.u64,
    _same,
    _checked("an integer in 0..2**64-1", "type(v) is int and 0 <= v <= U64_MAX"),
)
BOOL = _field(lambda s, v: [_Pack("?", v)], Reader.boolean, _same, _checked("true or false", "type(v) is bool"))
BYTES = _field(_bytes, Reader.bytes_, bytes.hex, bytes.fromhex)
TEXT = _field(_text, Reader.text, _same, _checked("UTF-8 text", "type(v) is str and (v.isascii() or is_utf8(v))"))
_LIST = _checked("a list", "type(v) is list")


def _with_doc(codec: Field, inner: Field, to_doc: Callable, from_doc: Callable) -> Field:
    """``codec`` with the JSON form ``to_doc`` and ``from_doc`` if ``inner``, the value it wraps, has one."""
    return codec if inner.to_doc is None else codec._replace(to_doc=to_doc, from_doc=from_doc)


def enum(kind: type[Enum]) -> Field:
    """One byte holding the value of a member of ``kind``; in JSON, its lower-case name."""
    by_name = {member.name.lower(): member for member in kind}
    names = {member: name for name, member in by_name.items()}
    return _field(lambda s, v: [_Pack("B", f"{v}._value_")], lambda r: r.enum(kind), names.__getitem__, by_name.__getitem__)


def text_enum(kind: type[Enum]) -> Field:
    """The text value of a member of ``kind``; only written."""
    return _field(lambda s, v: _text(s, f"{v}._value_"), None)


def optional(inner: Field) -> Field:
    """A presence boolean, then the value if present; ``None`` when absent (null in JSON)."""

    def source(s: _Source, v: str) -> list:
        items: list = []
        value = s.bind(v, items)
        return [*items, f"if {value} is None:", "    b.append(0)", *s.block("else:", [_Pack("B", "1"), *_items(s, inner, value)])]

    return _with_doc(
        _field(source, lambda r: inner.decode(r) if r.boolean() else None),
        inner,
        lambda value: None if value is None else inner.to_doc(value),
        lambda value: None if value is None else inner.from_doc(value),
    )


def none_as(inner: Field, blank) -> Field:
    """``inner`` with ``None`` written as ``blank``, and ``blank`` read back as ``None``.

    Its JSON form is that of ``optional(inner)``: null for ``None``.
    """
    doc = optional(inner)
    return _field(
        lambda s, v: _items(s, inner, f"({s.const(blank)} if {v} is None else {v})"),
        lambda r: None if (value := inner.decode(r)) == blank else value,
        doc.to_doc,
        doc.from_doc,
    )


def _each(inner: Field, ordered: str) -> Callable[[_Source, str], list]:
    """The source of a count, then ``inner`` writing each element of ``ordered.format(values)``."""

    def source(s: _Source, v: str) -> list:
        items: list = []
        values = s.bind(v, items)
        value = s.local()
        return [*items, _Pack("I", f"len({values})"), *s.block(f"for {value} in {ordered.format(values)}:", _items(s, inner, value))]

    return source


def seq_of(inner: Field) -> Field:
    """A count, then the elements in order; decodes to a tuple (a list in JSON)."""
    return _with_doc(
        _field(_each(inner, "{}"), lambda r: tuple([inner.decode(r) for _ in range(r.count())])),
        inner,
        lambda values: list(map(inner.to_doc, values)),
        lambda values: tuple(map(inner.from_doc, values if type(values) is list else _LIST(values))),
    )


def set_of(inner: Field) -> Field:
    """A count, then the elements in ascending order; decodes to a frozenset.

    Decoding rejects elements out of order or repeated, so a set has exactly
    one encoding.  In JSON it is the list of its elements' JSON forms, sorted.
    """

    def decode(r: Reader) -> frozenset:
        values = [inner.decode(r) for _ in range(r.count())]
        out = frozenset(values)
        if sorted(out) != values:
            raise CodecError("set elements not in strictly ascending order")
        return out

    return _with_doc(
        _field(_each(inner, "sorted({})"), decode),
        inner,
        lambda values: sorted(map(inner.to_doc, values)),
        lambda values: frozenset(map(inner.from_doc, values if type(values) is list else _LIST(values))),
    )


def _by_key(key: Field | None, value: Field) -> Callable[[_Source, str], list]:
    """The source of a count, then each entry in ascending key order: its key unless ``key`` is None, then its value."""

    def source(s: _Source, v: str) -> list:
        items: list = []
        mapping = s.bind(v, items)
        k = s.local()
        entry = [*(_items(s, key, k) if key is not None else []), *_items(s, value, f"{mapping}[{k}]")]
        return [*items, _Pack("I", f"len({mapping})"), *s.block(f"for {k} in sorted({mapping}):", entry)]

    return source


def sorted_map(key: Field, value: Field) -> Field:
    """A count, then each entry in ascending key order: its key, then its value.

    Decoding rejects keys out of order or repeated, so a mapping has exactly
    one encoding.
    """

    def decode(r: Reader) -> dict:
        items = [(key.decode(r), value.decode(r)) for _ in range(r.count())]
        mapping = dict(items)
        if sorted(mapping) != [k for k, _ in items]:
            raise CodecError("map keys not in strictly ascending order")
        return mapping

    return _field(_by_key(key, value), decode)


def values_by_key(value: Field) -> Field:
    """A count, then the values of a mapping in ascending key order; only written.

    For a table of records that each hold their own key.
    """
    return _field(_by_key(None, value), None)


def pair(first: Field, second: Field) -> Field:
    """Two values back to back; decodes to a 2-tuple."""

    def source(s: _Source, v: str) -> list:
        items: list = []
        value = s.bind(v, items)
        return [*items, *_items(s, first, f"{value}[0]"), *_items(s, second, f"{value}[1]")]

    return _field(source, lambda r: (first.decode(r), second.decode(r)))


def framed(inner: Field) -> Field:
    """The value's encoding as a byte string, which must hold exactly one value."""

    def encode(w: Writer, value) -> None:
        body = Writer()
        inner.encode(body, value)
        w.bytes_(body.getvalue())

    def decode(r: Reader):
        body = Reader(r.bytes_())
        value = inner.decode(body)
        body.require_end()
        return value

    return Field(encode, decode)


# the tag byte and codec of each type a tagged value may have
_VALUE_TAGS = {int: (1, U64), bytes: (2, BYTES), bool: (3, BOOL), str: (4, TEXT)}


def tagged_value(*types: type) -> Field:
    """A value of one of ``types`` after its tag byte: 1 int, 2 bytes, 3 bool, 4 str.

    Its JSON form is a mapping of two keys, ``type`` (the type's name) and
    ``value``, that a record spreads into its own (``wire(..., doc="*")``).
    """
    by_type = {t: _VALUE_TAGS[t] for t in types}
    by_tag = dict(by_type.values())
    by_name = {t.__name__: codec for t, (_, codec) in by_type.items()}

    def source(s: _Source, v: str) -> list:
        items: list = []
        value = s.bind(v, items)
        cases = [(t, [_Pack("B", str(tag)), *_items(s, codec, value)]) for t, (tag, codec) in by_type.items()]
        return items + s.by_type(value, cases, f"raise CodecError('unsupported value type ' + type({value}).__name__)")

    def decode(r: Reader):
        tag = r.u8()
        if tag not in by_tag:
            raise CodecError(f"unknown value tag {tag}")
        return by_tag[tag].decode(r)

    def to_doc(value) -> dict:
        return {"type": type(value).__name__, "value": by_type[type(value)][1].to_doc(value)}

    def from_doc(doc: dict):
        name = doc["type"]
        if type(name) is not str or name not in by_name:
            raise CodecError(f"unknown value type {name!r}")
        return by_name[name].from_doc(doc["value"])

    return _field(source, decode, to_doc, from_doc)


# --- records and unions ----------------------------------------------------------


def wire(codec: Field, *, when: tuple[str, Any] | None = None, doc: str | None = "", **kwargs) -> Any:
    """A dataclass field written and read by ``codec``.

    ``when=(name, value)`` puts the field on the wire only while the earlier
    field ``name`` equals ``value``; otherwise it is not written and decodes
    as ``None``.  ``doc`` is the field's key in the record's JSON form, by
    default the field's own name; ``doc=None`` leaves the field out, so it
    loads as its default, and ``doc="*"`` spreads the value's JSON form, a
    mapping, into the record's.  Other keyword arguments go to
    :func:`dataclasses.field`.
    """
    return dataclasses.field(metadata={"codec": codec, "when": when, "doc": doc}, **kwargs)


def wire_record(cls: type | None = None, *, frozen: bool = True):
    """Make ``cls`` a dataclass with ``FIELDS``, the codec of its fields.

    The record is its fields' encodings in declaration order.  A wire type
    is frozen and declares every field with :func:`wire`.  A ledger state
    record is declared with ``frozen=False``; a field of it declared
    without :func:`wire` is outside its encoding, and the record then only
    encodes.
    """

    def make(cls: type) -> type:
        cls = dataclasses.dataclass(frozen=frozen)(cls)
        cls.FIELDS = _generate(cls, whole=frozen)
        return cls

    return make if cls is None else make(cls)


def _generate(cls: type, tag: int | None = None, kind: str | None = None, whole: bool = True) -> Field:
    """The codec of the dataclass ``cls``, from the codecs of its fields.

    Its functions are generated as source, as ``dataclasses`` generates
    ``__init__``, so a described record codes as fast as a hand-written
    one: the encoder holds each field's own source (see :class:`_Source`),
    and the decoder one statement per field.  With ``tag`` the encoder
    writes it first.  Unless ``whole`` is false, every field must have a
    codec that decodes; a record with a field outside its codec has no
    decoder and no JSON form, and one with a field only written has no
    decoder.  Otherwise it has a JSON form (see :func:`_doc_source`) when
    every field's value has one and none depends on another.
    """
    every = dataclasses.fields(cls)
    fields = [f for f in every if "codec" in f.metadata]
    coded = len(fields) == len(every)
    decodes = coded and all(f.metadata["codec"].decode is not None for f in fields)
    if whole and not decodes:
        raise TypeError(f"every field of {cls.__name__} needs a codec that decodes")
    names = [f.name for f in fields]
    env: dict[str, Any] = {"cls": cls, "CodecError": CodecError, "U64_MAX": U64_MAX, "is_utf8": is_utf8, "name": cls.__name__}
    decode = ["def decode(r):"]
    for i, f in enumerate(fields):
        codec, when = f.metadata["codec"], f.metadata["when"]
        env[f"d{i}"], env[f"t{i}"], env[f"f{i}"] = codec.decode, codec.to_doc, codec.from_doc
        if when is None:
            decode.append(f"    v{i} = d{i}(r)")
            continue
        if when[0] not in names[:i]:
            raise TypeError(f"{cls.__name__}.{f.name} depends on no earlier field")
        env[f"on{i}"] = when[1]
        decode.append(f"    v{i} = d{i}(r) if v{names.index(when[0])} == on{i} else None")
    decode.append(f"    return cls({', '.join(f'v{i}' for i in range(len(fields)))})")
    source = decode if decodes else []
    if coded and all(f.metadata["codec"].to_doc is not None and f.metadata["when"] is None for f in fields):
        source += _doc_source(fields, kind)
    exec("\n".join(source), env)

    def encoder(s: _Source, v: str) -> list:
        items: list = []
        obj = s.bind(v, items)
        if tag is not None:
            items.append(_Pack("B", str(tag)))
        for f in fields:
            codec, when = f.metadata["codec"], f.metadata["when"]
            written = _items(s, codec, f"{obj}.{f.name}")
            if when is not None:
                missing = s.const(f"{cls.__name__}.{f.name} is required when {when[0]} is {when[1]}")
                written = s.block(
                    f"if {obj}.{when[0]} == {s.const(when[1])}:",
                    [*s.block(f"if {obj}.{f.name} is None:", [f"raise CodecError({missing})"]), *written],
                )
            items += written
        return items

    return _field(encoder, env.get("decode"), env.get("to_doc"), env.get("from_doc"))


def _doc_source(fields: list[dataclasses.Field], kind: str | None) -> list[str]:
    """Source of ``to_doc`` and ``from_doc`` for a record of ``fields``.

    The JSON form is a mapping with one key per field (see :func:`wire`),
    plus ``"kind": kind`` for a union member.  The loader's CodecError
    names the key it was reading.
    """
    to_doc = [] if kind is None else [f"'kind': {kind!r}"]
    load, loaded = [], []
    for i, f in enumerate(fields):
        codec, key = f.metadata["codec"], f.metadata["doc"]
        if key is None:
            continue
        key = key or f.name
        value = f"obj.{f.name}" if codec.to_doc is _same else f"t{i}(obj.{f.name})"
        check = getattr(codec.from_doc, "check", None)
        to_doc.append(f"**{value}" if key == "*" else f"{key!r}: {value}")
        if key == "*":
            load.append(f"        at = {f.name!r}; v{i} = f{i}(doc)")
        elif check is None:
            load.append(f"        at = {key!r}; v{i} = f{i}(doc[{key!r}])")
        else:
            load.append(f"        at = {key!r}; v = v{i} = doc[{key!r}]")
            load.append(f"        if not ({check}): f{i}(v)")
        loaded.append(f"{f.name}=v{i}")
    source = ["def to_doc(obj):", f"    return {{{', '.join(to_doc)}}}", "def from_doc(doc):"]
    if load:
        source += [
            "    try:",
            *load,
            "    except (CodecError, LookupError, TypeError, ValueError) as exc:",
            "        raise CodecError(f'{name} {at}: {exc if type(exc) is CodecError else repr(exc)}') from None",
        ]
    return source + [f"    return cls({', '.join(loaded)})"]


class Tagged:
    """A union of wire records told apart by a leading tag byte.

    Usable as a :class:`Field`: ``encode`` writes the member's tag, then its
    fields; ``decode`` reads the tag and the fields of the member it names.
    In JSON a member is a mapping of its fields plus ``kind``, its class name
    in snake case.
    """

    def __init__(self, name: str):
        self.name = name
        self.by_tag: dict[int, type] = {}
        self._encoders: dict[type, Callable[[Writer, Any], None]] = {}
        self._sources: dict[type, Callable[[_Source, str], list]] = {}
        self._decoders: dict[int, Callable[[Reader], Any]] = {}
        self._to_docs: dict[type, Callable[[Any], dict]] = {}
        self._from_docs: dict[str, Callable[[dict], Any]] = {}

    def member(self, tag: int) -> Callable[[type], type]:
        """Class decorator: make the class a frozen dataclass with ``TAG``.

        Its fields are declared with :func:`wire`, as for :func:`wire_record`.
        A member without fields has one value, so it has one instance: every
        construction, decode and load returns it.
        """

        def register(cls: type) -> type:
            if tag in self.by_tag:
                raise ValueError(f"{self.name} tag {tag} is already {self.by_tag[tag].__name__}")
            cls = dataclasses.dataclass(frozen=True)(cls)
            if not dataclasses.fields(cls):
                only = object.__new__(cls)
                cls.__new__ = staticmethod(lambda _cls: only)
            cls.TAG = tag
            self.by_tag[tag] = cls
            kind = re.sub(r"(?<!^)(?=[A-Z])", "_", cls.__name__).lower()
            codec = _generate(cls, tag, kind)
            self._encoders[cls], self._sources[cls], self._decoders[tag] = codec.encode, codec.source, codec.decode
            if codec.to_doc is not None:
                self._to_docs[cls], self._from_docs[kind] = codec.to_doc, codec.from_doc
            return cls

        return register

    def encode(self, w: Writer, value) -> None:
        encode = self._encoders.get(type(value))
        if encode is None:
            raise CodecError(f"unknown {self.name} type {type(value).__name__}")
        encode(w, value)

    def source(self, s: _Source, v: str) -> list:
        """The tag and fields of the member the value is, chosen in place among
        the members declared so far; any other value goes through ``encode``."""
        items: list = []
        value = s.bind(v, items)
        cases = [(cls, source(s, value)) for cls, source in self._sources.items()]
        return items + s.by_type(value, cases, f"{s.const(self.encode)}(w, {value})")

    def decode(self, r: Reader):
        return self.decode_member(r.u8(), r)

    def decode_member(self, tag: int, r: Reader):
        """The member ``tag``, whose tag byte was already read."""
        decode = self._decoders.get(tag)
        if decode is None:
            raise CodecError(f"unknown {self.name} tag {tag}")
        return decode(r)

    def to_doc(self, value) -> dict:
        return self._to_docs[type(value)](value)

    def from_doc(self, doc):
        try:
            from_doc = self._from_docs[doc["kind"]]
        except (KeyError, TypeError):  # no kind, an unknown one, or no mapping
            raise CodecError(f"no known {self.name} kind in {doc!r}") from None
        return from_doc(doc)
