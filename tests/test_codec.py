from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from rolechain.codec import BYTES, U64, optional, sorted_map, whole
from rolechain.errors import CodecError
from rolechain.payloads import Transfer, tx_signing_bytes

from reference import Reader, Writer


def roundtrip(write, read):
    w = Writer()
    write(w)
    r = Reader(w.getvalue())
    out = read(r)
    r.require_end()
    return out


def test_u64_roundtrip_bounds():
    for value in (0, 1, 2**64 - 1):
        assert roundtrip(lambda w: w.u64(value), lambda r: r.u64()) == value
    with pytest.raises(CodecError):
        Writer().u64(2**64)
    with pytest.raises(CodecError):
        Writer().u64(-1)


@pytest.mark.parametrize("value", [1.5, 1.0, "5", None, b"\x01"])
def test_writer_refuses_a_non_integer_as_the_compiled_encoders_do(value):
    for write, name in ((Writer.u8, "u8"), (Writer.u64, "u64"), (Writer.count, "u32")):
        with pytest.raises(CodecError) as exc:
            write(Writer(), value)
        assert str(exc.value) == f"{name} out of range: {value!r}"
    for write in (lambda: tx_signing_bytes(bytes(32), value, Transfer(bytes(32), 1)), lambda: U64.encode(Writer(), value)):
        with pytest.raises(CodecError) as exc:  # a nonce, and the compiled encoder
            write()
        assert str(exc.value) == f"u64 out of range: {value!r}"


def test_u64_is_big_endian_fixed_width():
    w = Writer()
    w.u64(0x0102030405060708)
    assert w.getvalue() == bytes([1, 2, 3, 4, 5, 6, 7, 8])


def test_bytes_length_prefix():
    w = Writer()
    w.bytes_(b"abc")
    assert w.getvalue() == b"\x00\x00\x00\x03abc"


def test_boolean_strict():
    r = Reader(b"\x02")
    with pytest.raises(CodecError):
        r.boolean()


def test_trailing_bytes_rejected():
    w = Writer()
    w.u64(5)
    r = Reader(w.getvalue() + b"x")
    r.u64()
    with pytest.raises(CodecError):
        r.require_end()


def test_truncated_frame_rejected():
    w = Writer()
    w.bytes_(b"abcdef")
    data = w.getvalue()[:-2]
    with pytest.raises(CodecError):
        Reader(data).bytes_()


@given(st.binary(max_size=64), st.integers(min_value=0, max_value=2**64 - 1), st.booleans())
def test_mixed_roundtrip(blob, number, flag):
    w = Writer()
    w.bytes_(blob)
    w.u64(number)
    w.boolean(flag)
    w.text("héllo")
    r = Reader(w.getvalue())
    assert r.bytes_() == blob
    assert r.u64() == number
    assert r.boolean() == flag
    assert r.text() == "héllo"
    r.require_end()


@given(st.one_of(st.none(), st.binary(max_size=32)))
def test_optional_bytes_roundtrip(value):
    w = Writer()
    optional(BYTES).encode(w, value)
    assert whole(optional(BYTES).read, w.getvalue()) == value


def _map_frame(*entries: tuple[int, int]) -> bytes:
    w = Writer()
    w.count(len(entries))
    for key, value in entries:
        w.u64(key)
        w.u64(value)
    return w.getvalue()


def test_sorted_map_round_trips_in_key_order():
    codec = sorted_map(U64, U64)
    w = Writer()
    codec.encode(w, {9: 1, 2: 3})
    assert w.getvalue() == _map_frame((2, 3), (9, 1))
    assert whole(codec.read, w.getvalue()) == {2: 3, 9: 1}


@pytest.mark.parametrize("entries", [((9, 1), (2, 3)), ((2, 3), (2, 4))], ids=["out_of_order", "repeated"])
def test_sorted_map_rejects_keys_out_of_order_or_repeated(entries):
    with pytest.raises(CodecError, match="strictly ascending"):
        whole(sorted_map(U64, U64).read, _map_frame(*entries))
