"""Canonical binary encoding used for signing, hashing, and wire frames.

The format is bit-exact and deliberately small:

  - integers: unsigned 64-bit big-endian
  - byte strings: 4-byte big-endian length prefix, then the raw bytes
  - text: UTF-8 bytes, length-prefixed like a byte string
  - booleans: one byte, 0 or 1
  - union variants: one leading tag byte
  - enumerations: one byte, the member's value
  - sequences: 4-byte big-endian element count, then the elements

Decoding is strict: every length is bounds-checked and a frame must be
consumed exactly, so any stray or missing byte is a :class:`CodecError`.
"""

from __future__ import annotations

import struct
from enum import Enum
from typing import TypeVar

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
