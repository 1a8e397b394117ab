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

A wire type is described once, on its dataclass: :func:`wire` gives each
field a :class:`Field` codec, :func:`wire_record` derives the codec of the
whole record from them (fields in declaration order), and :class:`Tagged`
tells the members of a union apart by a leading tag byte.
"""

from __future__ import annotations

import dataclasses
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

    def optional_bytes(self, data: bytes | None) -> None:
        if data is None:
            self.boolean(False)
        else:
            self.boolean(True)
            self.bytes_(data)

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

    def optional_bytes(self) -> bytes | None:
        return self.bytes_() if self.boolean() else None

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
    """How one value is written to a :class:`Writer` and read back."""

    encode: Callable[[Writer, Any], None]
    decode: Callable[[Reader], Any]


U64 = Field(Writer.u64, Reader.u64)
BOOL = Field(Writer.boolean, Reader.boolean)
BYTES = Field(Writer.bytes_, Reader.bytes_)
TEXT = Field(Writer.text, Reader.text)


def enum(kind: type[Enum]) -> Field:
    """One byte holding the value of a member of ``kind``."""
    return Field(lambda w, member: w.u8(member.value), lambda r: r.enum(kind))


def optional(inner: Field) -> Field:
    """A presence boolean, then the value if present; ``None`` when absent."""

    def encode(w: Writer, value) -> None:
        w.boolean(value is not None)
        if value is not None:
            inner.encode(w, value)

    return Field(encode, lambda r: inner.decode(r) if r.boolean() else None)


def seq_of(inner: Field) -> Field:
    """A count, then the elements in order; decodes to a tuple."""

    def encode(w: Writer, values) -> None:
        w.count(len(values))
        for value in values:
            inner.encode(w, value)

    return Field(encode, lambda r: tuple([inner.decode(r) for _ in range(r.count())]))


def set_of(inner: Field) -> Field:
    """A count, then the elements in ascending order; decodes to a frozenset.

    Decoding rejects elements out of order or repeated, so a set has exactly
    one encoding.
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


# --- records and unions ----------------------------------------------------------


def wire(codec: Field, *, when: tuple[str, Any] | None = None, **kwargs) -> Any:
    """A dataclass field written and read by ``codec``.

    ``when=(name, value)`` puts the field on the wire only while the earlier
    field ``name`` equals ``value``; otherwise it is not written and decodes
    as ``None``.  Other keyword arguments go to :func:`dataclasses.field`.
    """
    return dataclasses.field(metadata={"codec": codec, "when": when}, **kwargs)


def wire_record(cls: type) -> type:
    """Make ``cls`` a frozen dataclass with ``FIELDS``, the codec of its fields.

    Every field must be declared with :func:`wire`; the record is its
    fields' encodings in declaration order.
    """
    cls = dataclasses.dataclass(frozen=True)(cls)
    cls.FIELDS = _generate(cls)
    return cls


def _generate(cls: type, tag: int | None = None) -> Field:
    """Encode and decode functions for the fields of the dataclass ``cls``.

    They are generated as source with one statement per field, as
    ``dataclasses`` generates ``__init__``, so a described record codes as
    fast as a hand-written one.  With ``tag`` the encoder writes it first.
    """
    fields = dataclasses.fields(cls)
    names = [f.name for f in fields]
    env: dict[str, Any] = {"cls": cls, "CodecError": CodecError}
    encode = ["def encode(w, obj):", "    pass" if tag is None else f"    w.u8({tag})"]
    decode = ["def decode(r):"]
    for i, f in enumerate(fields):
        codec, when = f.metadata["codec"], f.metadata["when"]
        env[f"e{i}"], env[f"d{i}"] = codec.encode, codec.decode
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
    exec("\n".join(encode + decode), env)
    return Field(env["encode"], env["decode"])


class Record:
    """Base of an untagged wire record; its class is built with :func:`wire_record`."""

    FIELDS: Field

    def encode(self, w: Writer) -> None:
        self.FIELDS.encode(w, self)

    @classmethod
    def decode(cls, r: Reader):
        return cls.FIELDS.decode(r)


class Tagged:
    """A union of wire records told apart by a leading tag byte.

    Usable as a :class:`Field`: ``encode`` writes the member's tag, then its
    fields; ``decode`` reads the tag and the fields of the member it names.
    """

    def __init__(self, name: str):
        self.name = name
        self.by_tag: dict[int, type] = {}
        self._encoders: dict[type, Callable[[Writer, Any], None]] = {}
        self._decoders: dict[int, Callable[[Reader], Any]] = {}

    def member(self, tag: int) -> Callable[[type], type]:
        """Class decorator: make the class a frozen dataclass with ``TAG``.

        Its fields are declared with :func:`wire`, as for :func:`wire_record`.
        """

        def register(cls: type) -> type:
            if tag in self.by_tag:
                raise ValueError(f"{self.name} tag {tag} is already {self.by_tag[tag].__name__}")
            cls = dataclasses.dataclass(frozen=True)(cls)
            cls.TAG = tag
            self.by_tag[tag] = cls
            self._encoders[cls], self._decoders[tag] = _generate(cls, tag)
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
