"""Canonical binary encoding used for signing, hashing, and wire frames.

The format is bit-exact and deliberately small:

  - integers: unsigned 64-bit big-endian
  - byte strings: 4-byte big-endian length prefix, then the raw bytes
  - text: UTF-8 bytes, length-prefixed like a byte string
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
"""

from __future__ import annotations

import dataclasses
import re
import struct
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
        if not 0 <= value <= 0xFF:
            raise CodecError(f"u8 out of range: {value}")
        self._buf.append(value)

    def u64(self, value: int) -> None:
        if not 0 <= value <= U64_MAX:
            raise CodecError(f"u64 out of range: {value}")
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
        self.bytes_(value.encode("utf-8"))

    def count(self, n: int) -> None:
        if not 0 <= n <= U32_MAX:
            raise CodecError(f"count out of range: {n}")
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


def _same(value):
    """The JSON form of a value that is its own JSON form."""
    return value


def _checked(expected: str, check: str) -> Callable[[Any], Any]:
    """A ``from_doc`` that returns a value ``v`` meeting ``check`` and rejects any other.

    ``check`` is a Python expression, kept on the function: a record's
    loader writes it out in place of the call, which saves a call per value.
    """
    env = {"CodecError": CodecError, "U64_MAX": U64_MAX, "expected": f"expected {expected}, not "}
    exec(f"def from_doc(v):\n    if {check}:\n        return v\n    raise CodecError(expected + repr(v))", env)
    env["from_doc"].check = check
    return env["from_doc"]


U64 = Field(Writer.u64, Reader.u64, _same, _checked("an integer in 0..2**64-1", "type(v) is int and 0 <= v <= U64_MAX"))
BOOL = Field(Writer.boolean, Reader.boolean, _same, _checked("true or false", "type(v) is bool"))
BYTES = Field(Writer.bytes_, Reader.bytes_, bytes.hex, bytes.fromhex)
TEXT = Field(Writer.text, Reader.text, _same, _checked("text", "type(v) is str"))
_LIST = _checked("a list", "type(v) is list")


def _with_doc(codec: Field, inner: Field, to_doc: Callable, from_doc: Callable) -> Field:
    """``codec`` with the JSON form ``to_doc`` and ``from_doc`` if ``inner``, the value it wraps, has one."""
    return codec if inner.to_doc is None else codec._replace(to_doc=to_doc, from_doc=from_doc)


def enum(kind: type[Enum]) -> Field:
    """One byte holding the value of a member of ``kind``; in JSON, its lower-case name."""
    by_name = {member.name.lower(): member for member in kind}
    names = {member: name for name, member in by_name.items()}
    return Field(lambda w, member: w.u8(member.value), lambda r: r.enum(kind), names.__getitem__, by_name.__getitem__)


def text_enum(kind: type[Enum]) -> Field:
    """The text value of a member of ``kind``; only written."""
    return Field(lambda w, member: w.text(member.value), None)


def optional(inner: Field) -> Field:
    """A presence boolean, then the value if present; ``None`` when absent (null in JSON)."""

    def encode(w: Writer, value) -> None:
        w.boolean(value is not None)
        if value is not None:
            inner.encode(w, value)

    return _with_doc(
        Field(encode, lambda r: inner.decode(r) if r.boolean() else None),
        inner,
        lambda value: None if value is None else inner.to_doc(value),
        lambda value: None if value is None else inner.from_doc(value),
    )


def none_as(inner: Field, blank) -> Field:
    """``inner`` with ``None`` written as ``blank``, and ``blank`` read back as ``None``.

    Its JSON form is that of ``optional(inner)``: null for ``None``.
    """
    doc = optional(inner)
    return Field(
        lambda w, value: inner.encode(w, blank if value is None else value),
        lambda r: None if (value := inner.decode(r)) == blank else value,
        doc.to_doc,
        doc.from_doc,
    )


def seq_of(inner: Field) -> Field:
    """A count, then the elements in order; decodes to a tuple (a list in JSON)."""

    def encode(w: Writer, values) -> None:
        w.count(len(values))
        for value in values:
            inner.encode(w, value)

    return _with_doc(
        Field(encode, lambda r: tuple([inner.decode(r) for _ in range(r.count())])),
        inner,
        lambda values: list(map(inner.to_doc, values)),
        lambda values: tuple(map(inner.from_doc, values if type(values) is list else _LIST(values))),
    )


def set_of(inner: Field) -> Field:
    """A count, then the elements in ascending order; decodes to a frozenset.

    Decoding rejects elements out of order or repeated, so a set has exactly
    one encoding.  In JSON it is the list of its elements' JSON forms, sorted.
    """

    def encode(w: Writer, values) -> None:
        w.count(len(values))
        for value in sorted(values):
            inner.encode(w, value)

    def decode(r: Reader) -> frozenset:
        values = [inner.decode(r) for _ in range(r.count())]
        out = frozenset(values)
        if sorted(out) != values:
            raise CodecError("set elements not in strictly ascending order")
        return out

    return _with_doc(
        Field(encode, decode),
        inner,
        lambda values: sorted(map(inner.to_doc, values)),
        lambda values: frozenset(map(inner.from_doc, values if type(values) is list else _LIST(values))),
    )


def sorted_map(key: Field, value: Field) -> Field:
    """A count, then each entry in ascending key order: its key, then its value.

    Decoding rejects keys out of order or repeated, so a mapping has exactly
    one encoding.
    """

    def encode(w: Writer, mapping) -> None:
        w.count(len(mapping))
        for k in sorted(mapping):
            key.encode(w, k)
            value.encode(w, mapping[k])

    def decode(r: Reader) -> dict:
        items = [(key.decode(r), value.decode(r)) for _ in range(r.count())]
        mapping = dict(items)
        if sorted(mapping) != [k for k, _ in items]:
            raise CodecError("map keys not in strictly ascending order")
        return mapping

    return Field(encode, decode)


def pair(first: Field, second: Field) -> Field:
    """Two values back to back; decodes to a 2-tuple."""

    def encode(w: Writer, value) -> None:
        first.encode(w, value[0])
        second.encode(w, value[1])

    return Field(encode, lambda r: (first.decode(r), second.decode(r)))


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

    def encode(w: Writer, value) -> None:
        tagged = by_type.get(type(value))
        if tagged is None:
            raise CodecError(f"unsupported value type {type(value).__name__}")
        w.u8(tagged[0])
        tagged[1].encode(w, value)

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

    return Field(encode, decode, to_doc, from_doc)


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

    Its functions are generated as source with one statement per field, as
    ``dataclasses`` generates ``__init__``, so a described record codes as
    fast as a hand-written one.  With ``tag`` the encoder writes it first.
    Unless ``whole`` is false, every field must have a codec that decodes;
    a record with a field outside its codec has no decoder and no JSON
    form, and one with a field only written has no decoder.  Otherwise it
    has a JSON form (see :func:`_doc_source`) when every field's value has
    one and none depends on another.
    """
    every = dataclasses.fields(cls)
    fields = [f for f in every if "codec" in f.metadata]
    coded = len(fields) == len(every)
    decodes = coded and all(f.metadata["codec"].decode is not None for f in fields)
    if whole and not decodes:
        raise TypeError(f"every field of {cls.__name__} needs a codec that decodes")
    names = [f.name for f in fields]
    env: dict[str, Any] = {"cls": cls, "CodecError": CodecError, "U64_MAX": U64_MAX, "name": cls.__name__}
    encode = ["def encode(w, obj):", "    pass" if tag is None else f"    w.u8({tag})"]
    decode = ["def decode(r):"]
    for i, f in enumerate(fields):
        codec, when = f.metadata["codec"], f.metadata["when"]
        env[f"e{i}"], env[f"d{i}"] = codec.encode, codec.decode
        env[f"t{i}"], env[f"f{i}"] = codec.to_doc, codec.from_doc
        if when is None:
            encode.append(f"    e{i}(w, obj.{f.name})")
            decode.append(f"    v{i} = d{i}(r)")
            continue
        if when[0] not in names[:i]:
            raise TypeError(f"{cls.__name__}.{f.name} depends on no earlier field")
        env[f"on{i}"] = when[1]
        env[f"missing{i}"] = f"{cls.__name__}.{f.name} is required when {when[0]} is {when[1]}"
        encode += [
            f"    if obj.{when[0]} == on{i}:",
            f"        if obj.{f.name} is None:",
            f"            raise CodecError(missing{i})",
            f"        e{i}(w, obj.{f.name})",
        ]
        decode.append(f"    v{i} = d{i}(r) if v{names.index(when[0])} == on{i} else None")
    decode.append(f"    return cls({', '.join(f'v{i}' for i in range(len(fields)))})")
    source = encode + decode if decodes else encode
    if coded and all(f.metadata["codec"].to_doc is not None and f.metadata["when"] is None for f in fields):
        source += _doc_source(fields, kind)
    exec("\n".join(source), env)
    return Field(env["encode"], env.get("decode"), env.get("to_doc"), env.get("from_doc"))


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
            self._encoders[cls], self._decoders[tag] = codec.encode, codec.decode
            if codec.to_doc is not None:
                self._to_docs[cls], self._from_docs[kind] = codec.to_doc, codec.from_doc
            return cls

        return register

    def encode(self, w: Writer, value) -> None:
        encode = self._encoders.get(type(value))
        if encode is None:
            raise CodecError(f"unknown {self.name} type {type(value).__name__}")
        encode(w, value)

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
