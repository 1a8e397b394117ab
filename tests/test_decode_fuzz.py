"""Hostile bytes: decoders fail with CodecError only, admission never raises."""

from __future__ import annotations

import struct
import sys

import pytest
from hypothesis import given, settings, strategies as st

from rolechain import errors as err
from rolechain.codec import Reader, Writer
from rolechain.errors import CodecError
from rolechain.gateway import Rejected, SecurityGateway
from rolechain.payloads import (
    AssignRole,
    CastVote,
    ConvertFiat,
    CreateProposal,
    FiatDirection,
    Guardians,
    InterestMode,
    Mint,
    Payload,
    Permanence,
    RevokeRole,
    Role,
    SetInterestRule,
    SetPolicy,
    decode_payload,
    decode_transaction,
    encode_payload,
)

from conftest import World, make_world

WORLD = make_world()
A, B = WORLD.aid("alice"), WORLD.aid("bob")

# one signed transaction per payload kind whose decoder reads an enum byte
SWEPT = {
    "revoke_role": RevokeRole(B, Role.CURRENCY_MANAGER),
    "assign_role": AssignRole(B, Role.USER, b"\x07" * 32, b"possess", Guardians(frozenset({A}), 1)),
    "convert_fiat": ConvertFiat(B, FiatDirection.OUT, 25),
    "set_interest_rule": SetInterestRule(1, 100, 10, 20, InterestMode.PULL, frozenset({A, B}), 3, False),
}
ENCODED = {kind: WORLD.tx("mgr", payload).encode() for kind, payload in SWEPT.items()}


def _admit(world: World, raw: bytes):
    """Admission outcome of ``raw`` and whether it decodes at all."""
    try:
        decode_transaction(raw)
        decodes = True
    except CodecError:
        decodes = False
    outcome = SecurityGateway(world.aid("mgr")).admit(world.state, raw, tick=1)
    return outcome, decodes


def test_unknown_role_byte_is_malformed_not_a_crash():
    raw = bytearray(ENCODED["revoke_role"])
    role_at = len(raw) - 4 - 32 - 1  # the role byte sits just before the signature
    assert raw[role_at] == Role.CURRENCY_MANAGER.value
    raw[role_at] = 99
    with pytest.raises(CodecError, match="Role"):
        decode_transaction(bytes(raw))
    outcome, _ = _admit(WORLD, bytes(raw))
    assert outcome == Rejected(err.MALFORMED)


# small values hit tags, booleans and enum members; the rest cover
# out-of-range enum bytes, huge length prefixes and sign-bit flips
SWEEP_VALUES = (0, 1, 2, 3, 4, 5, 6, 7, 8, 0x13, 0x14, 0x40, 0x63, 0x7F, 0x80, 0xFE, 0xFF)


@pytest.mark.parametrize("kind", sorted(SWEPT))
def test_single_byte_mutation_sweep(kind):
    """Every byte of the frame overwritten: CodecError or a clean rejection."""
    original = ENCODED[kind]
    assert decode_transaction(original).payload == SWEPT[kind]
    gateway = SecurityGateway(WORLD.aid("mgr"))
    malformed = 0
    for i in range(len(original)):
        for value in {*SWEEP_VALUES, original[i] ^ 1}:
            if value == original[i]:
                continue
            mutant = original[:i] + bytes([value]) + original[i + 1 :]
            try:
                decode_transaction(mutant)
            except CodecError:
                malformed += 1
                assert gateway.admit(WORLD.state, mutant, tick=1) == Rejected(err.MALFORMED)
                continue
            # it decodes, but every byte is signed or is the signature
            assert isinstance(gateway.admit(WORLD.state, mutant, tick=1), Rejected)
    assert malformed > 0
    assert gateway.pool == {}


def _nested_proposal(depth: int) -> bytes:
    w = Writer()
    encode_payload(w, CastVote(1, True))
    body = w.getvalue()
    for _ in range(depth):
        body = bytes([CreateProposal.TAG]) + struct.pack(">I", len(body)) + body + bytes([Role.VALIDATOR.value])
    return body


def test_proposal_of_a_proposal_decodes_and_round_trips():
    nested = CreateProposal(CreateProposal(CastVote(1, True), Role.VALIDATOR), Role.VALIDATOR)
    raw = _nested_proposal(2)
    assert decode_payload(Reader(raw)) == nested
    w = Writer()
    encode_payload(w, nested)
    assert w.getvalue() == raw


def _nested_frame(depth: int) -> bytes:
    """A transaction from a known sender whose payload nests ``depth`` proposals."""
    w = Writer()
    w.raw(b"tx:")
    w.bytes_(WORLD.aid("mgr"))
    w.u64(0)
    w.raw(_nested_proposal(depth))
    w.bytes_(b"")
    return w.getvalue()


def test_deeply_nested_proposal_is_rejected_without_recursion_error():
    outcome, decodes = _admit(WORLD, _nested_frame(5_000))
    assert not decodes
    assert outcome == Rejected(err.MALFORMED)


def test_admission_never_raises_at_any_nesting_depth_near_the_stack_limit():
    """A frame just shallow enough to decode must also encode for the signature check."""
    limit = sys.getrecursionlimit()
    results = [_admit(WORLD, _nested_frame(depth)) for depth in range(limit - 100, limit + 20)]
    # the range straddles the depth at which decoding gives up
    assert {decodes for _, decodes in results} == {True, False}
    assert {type(outcome) for outcome, _ in results} == {Rejected}


def _payloads() -> list[Payload]:
    return [
        *SWEPT.values(),
        SetPolicy("rate.capacity", 5, Permanence.TIMED_EXPIRATION, 99),
        CreateProposal(Mint(B, 10), Role.CURRENCY_MANAGER),
    ]


FRAMES = [WORLD.tx("mgr", p).encode() for p in _payloads()]


def _mutate(frame: bytes, edits: list[tuple[int, int]], cut: int, tail: bytes) -> bytes:
    buf = bytearray(frame)
    for i, value in edits:
        buf[i % len(buf)] = value
    return bytes(buf[:cut]) + tail


hostile = st.one_of(
    st.binary(max_size=200),
    st.binary(max_size=200).map(lambda b: b"tx:" + b),
    # valid frames with a few bytes overwritten, then truncated or extended
    st.builds(
        _mutate,
        st.sampled_from(FRAMES),
        st.lists(st.tuples(st.integers(0, 400), st.integers(0, 255)), max_size=4),
        st.integers(0, 400),
        st.binary(max_size=8),
    ),
)


@settings(max_examples=400, deadline=None)
@given(hostile)
def test_decode_transaction_raises_only_codec_error(raw):
    try:
        decode_transaction(raw)
    except CodecError:
        pass


@settings(max_examples=400, deadline=None)
@given(hostile)
def test_admit_never_raises(raw):
    outcome, decodes = _admit(WORLD, raw)
    if not decodes:
        assert outcome == Rejected(err.MALFORMED)
