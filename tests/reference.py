"""Field-by-field primitives of the canonical encoding, the tests' reference.

``rolechain.codec`` writes and reads every frame with compiled codecs.
These primitives write and read one value at a time, each by its rule in
the ``codec`` module docstring, so the reference encoders and decoders of
``test_compiled_encoders`` and ``test_compiled_decoders`` can be built from
them and compared with the compiled ones.  A :class:`Writer` is a
bytearray, so a compiled encoder may also write into one.
"""

from __future__ import annotations

import struct
from enum import Enum
from typing import TypeVar

from rolechain.codec import U32_MAX, U64_MAX, _not_bytes, _not_utf8
from rolechain.errors import CodecError

E = TypeVar("E", bound=Enum)


class Writer(bytearray):
    """Accumulates canonical bytes."""

    def u8(self, value: int) -> None:
        if not (isinstance(value, int) and 0 <= value <= 0xFF):
            raise CodecError(f"u8 out of range: {value!r}")
        self.append(value)

    def u64(self, value: int) -> None:
        if not (isinstance(value, int) and 0 <= value <= U64_MAX):
            raise CodecError(f"u64 out of range: {value!r}")
        self += struct.pack(">Q", value)

    def boolean(self, value: bool) -> None:
        self.append(1 if value else 0)

    def raw(self, data: bytes) -> None:
        """Append bytes without a length prefix (caller controls framing)."""
        self += data

    def bytes_(self, data: bytes) -> None:
        if not isinstance(data, (bytes, bytearray)):
            _not_bytes(data)
        if len(data) > U32_MAX:
            raise CodecError("byte string too long")
        self += struct.pack(">I", len(data))
        self += data

    def text(self, value: str) -> None:
        try:
            data = value.encode("utf-8")
        except (UnicodeEncodeError, AttributeError):
            _not_utf8(value)
        self.bytes_(data)

    def count(self, n: int) -> None:
        if not (isinstance(n, int) and 0 <= n <= U32_MAX):
            raise CodecError(f"u32 out of range: {n!r}")
        self += struct.pack(">I", n)

    def getvalue(self) -> bytes:
        return bytes(self)


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

    def require_end(self) -> None:
        if self._pos != len(self._data):
            raise CodecError(f"{len(self._data) - self._pos} trailing bytes in frame")
