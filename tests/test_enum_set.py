"""The table-backed role-set codec writes and reads exactly what ``set_of(enum(Role))`` does.

``EnumSet`` codes each set through two tables, set to encoding and encoding
to set, falling back to the generic codec on a miss.  Its bytes, its values
and the frames it rejects must be the generic codec's, before and after its
tables fill, and each table holds at most one entry per subset of ``Role``.
"""

from __future__ import annotations

import dataclasses
import struct
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from rolechain.codec import EnumSet, encoding, enum, set_of, whole
from rolechain.errors import CodecError
from rolechain.ledger import Account
from rolechain.payloads import Role

GENERIC = set_of(enum(Role))
SUBSETS = [frozenset(roles) for size in range(len(Role) + 1) for roles in combinations(Role, size)]
ACCOUNT_ROLES = next(f.metadata["codec"] for f in dataclasses.fields(Account) if f.name == "roles")


def frame(*values: int, count: int | None = None) -> bytes:
    """A count, then one byte per value; the count is the values' unless given."""
    return struct.pack(">I", len(values) if count is None else count) + bytes(values)


HOSTILE = {
    "out_of_order": frame(4, 1),
    "out_of_order_after_two": frame(1, 2, 6, 5),
    "repeated": frame(4, 4),
    "repeated_first": frame(1, 1, 2),
    "unknown_0": frame(0),
    "unknown_7": frame(7),
    "unknown_255": frame(255),
    "unknown_after_a_member": frame(1, 7),
    "count_past_the_bytes_left": frame(1, 2, count=3),
    "count_past_with_a_valid_tail": frame(4, count=2),
    "huge_count": frame(1, count=2**32 - 1),
    "truncated_by_one_byte": frame(1, 2, 4)[:-1],
    "truncated_count": frame()[:-1],
    "empty": b"",
}


def outcome(read, data, pos: int = 0):
    """What reading at ``pos`` gives: the value and the position after it, or CodecError."""
    try:
        return read(data, pos)
    except CodecError:
        return CodecError


def fill(codec: EnumSet) -> None:
    """Write and read every subset of ``Role`` through ``codec``, each read between other bytes."""
    for roles in SUBSETS:
        raw = encoding(codec.encode, roles)
        assert codec.read(b"\xff" + raw + b"\xee", 1) == (roles, len(raw) + 1)


@pytest.mark.parametrize("codec", [EnumSet(Role), ACCOUNT_ROLES], ids=["fresh", "account"])
def test_every_subset_of_roles_writes_the_generic_bytes_and_reads_back_equal(codec):
    for _ in range(2):  # once through the misses, once through the tables
        for roles in SUBSETS:
            raw = encoding(GENERIC.encode, roles)
            for value in (roles, set(roles), sorted(roles, reverse=True)):
                assert encoding(codec.encode, value) == raw
            read = whole(codec.read, raw)
            assert read == roles and type(read) is frozenset
            assert codec.read(b"\xff" + raw + b"\xee", 1) == (roles, len(raw) + 1)
    assert len(codec.encodings) == len(codec.sets) == 2 ** len(Role)


def test_once_filled_the_tables_write_and_read_every_subset_alone():
    codec = EnumSet(Role)
    fill(codec)
    codec.generic = None  # a miss now fails
    for roles in SUBSETS:
        raw = encoding(GENERIC.encode, roles)
        assert encoding(codec.encode, roles) == raw
        assert codec.read(b"\xff" + raw + b"\xee", 1) == (roles, len(raw) + 1)
        assert codec.read(memoryview(raw), 0) == (roles, len(raw))


@pytest.mark.parametrize("raw", HOSTILE.values(), ids=HOSTILE.keys())
def test_a_hostile_frame_is_rejected_exactly_when_the_generic_codec_rejects_it(raw):
    codec = EnumSet(Role)
    expected = outcome(GENERIC.read, raw)
    assert outcome(codec.read, raw) == expected  # a miss, with empty tables
    fill(codec)
    for data in (raw, bytearray(raw), memoryview(raw), memoryview(bytearray(raw))):
        assert outcome(codec.read, data) == expected
    assert outcome(codec.read, b"\0" + raw, 1) == outcome(GENERIC.read, b"\0" + raw, 1)
    assert len(codec.encodings) <= 2 ** len(Role) and len(codec.sets) <= 2 ** len(Role)


def test_the_tables_keep_at_most_one_entry_per_subset_after_hostile_frames_and_values():
    codec = EnumSet(Role)
    for raw in HOSTILE.values():
        outcome(codec.read, raw)
    fill(codec)
    for raw in HOSTILE.values():
        outcome(codec.read, raw)
    for value in ({Role.USER}, [Role.USER, Role.USER], (Role.VALIDATOR,), frozenset({1}), None):
        try:
            encoding(codec.encode, value)
        except CodecError:
            pass
    assert len(codec.encodings) == len(codec.sets) == 2 ** len(Role)
    assert set(codec.encodings) == set(SUBSETS) and set(codec.sets.values()) == set(SUBSETS)


@pytest.mark.parametrize("value", [frozenset({1}), {Role.USER, 1}, None, 7, [b"x"]], ids=repr)
def test_a_value_that_is_no_set_of_roles_fails_as_the_generic_encoder_fails(value):
    codec = EnumSet(Role)
    fill(codec)
    with pytest.raises(Exception) as generic:
        encoding(GENERIC.encode, value)
    with pytest.raises(type(generic.value)):
        encoding(codec.encode, value)
    assert len(codec.encodings) == 2 ** len(Role)


@given(st.binary(max_size=12), st.integers(0, 3))
def test_any_frame_reads_as_the_generic_codec_reads_it(raw, pos):
    codec = EnumSet(Role)
    for _ in range(2):  # the second read may hit what the first one kept
        assert outcome(codec.read, raw, pos) == outcome(GENERIC.read, raw, pos)
    fill(codec)
    assert outcome(codec.read, raw, pos) == outcome(GENERIC.read, raw, pos)


@given(st.lists(st.integers(0, 8), max_size=8), st.integers(0, 10), st.binary(max_size=3))
def test_any_count_and_elements_read_as_the_generic_codec_reads_them(values, count, tail):
    codec = ACCOUNT_ROLES
    raw = frame(*values, count=count) + tail
    assert outcome(codec.read, raw) == outcome(GENERIC.read, raw)
    assert len(codec.sets) <= 2 ** len(Role)
