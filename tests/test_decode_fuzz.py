"""Hostile bytes: decoders fail with CodecError only, admission never raises,
and a read fails with QueryError only.

Covers transactions, queries, blocks, chain dumps and the genesis inside a
dump.
"""

from __future__ import annotations

import hashlib
import struct
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from rolechain import errors as err
from rolechain.chain import (
    DUMP_MAGIC,
    DUMP_VERSION,
    Chain,
    decode_block,
    export_chain,
    import_chain,
    replay,
)
from rolechain.codec import whole
from rolechain.errors import CodecError, QueryError, RolechainError
from rolechain.gateway import QueryRequest, Rejected, SecurityGateway, VisibilityGateway, sign_request
from rolechain.keys import keypair_from_label
from rolechain.payloads import (
    AssignRole,
    BootstrapValidators,
    CastVote,
    Claimable,
    ConvertFiat,
    CreateProposal,
    FiatDirection,
    GatewayDirectory,
    Guardians,
    InterestMode,
    ManagementLog,
    Mint,
    OwnBalance,
    OwnHistory,
    Payload,
    Permanence,
    RevokeRole,
    Role,
    SetInterestRule,
    SetPolicy,
    SupplyView,
    Transaction,
    ValidationServerAddress,
    challenge_message,
    decode_query,
    decode_transaction,
    encode_payload,
    encode_query,
    read_payload,
    tx_signing_bytes,
)
from rolechain.sim import load_scenario, run

from conftest import World, make_world
from reference import Writer
from test_payloads import ALL_PAYLOADS

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

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


# the four kinds above plus every variant in test_payloads.ALL_PAYLOADS
SWEEP = {
    **SWEPT,
    **{f"{i:02d}-{type(p).__name__}": p for i, p in enumerate(ALL_PAYLOADS)},
}


@pytest.mark.parametrize("kind", sorted(SWEEP))
def test_single_byte_mutation_sweep(kind):
    """Every byte of the frame overwritten: CodecError or a clean rejection."""
    original = WORLD.tx("mgr", SWEEP[kind]).encode()
    assert decode_transaction(original).payload == SWEEP[kind]
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
    assert whole(read_payload, raw) == nested
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
    """A frame just shallow enough to decode is rejected cleanly, not with a RecursionError."""
    limit = sys.getrecursionlimit()
    results = [_admit(WORLD, _nested_frame(depth)) for depth in range(limit - 100, limit + 20)]
    # the range straddles the depth at which decoding gives up
    assert {decodes for _, decodes in results} == {True, False}
    assert {type(outcome) for outcome, _ in results} == {Rejected}


def _validators_frame(ids: list[bytes]) -> bytes:
    """A ``BootstrapValidators`` frame listing ``ids`` as given, with the
    signature of the canonical frame (the ids sorted, once each)."""
    signed = WORLD.tx("mgr", BootstrapValidators(frozenset(ids)))
    w = Writer()
    w.raw(b"tx:")
    w.bytes_(signed.sender)
    w.u64(signed.nonce)
    w.u8(BootstrapValidators.TAG)
    w.count(len(ids))
    for validator in ids:
        w.bytes_(validator)
    w.bytes_(signed.signature)
    return w.getvalue()


LOW, HIGH = sorted([A, B])


def _written_afresh(tx: Transaction) -> bytes:
    """The encoding of ``tx`` written from its fields, not the frame a decoded one keeps."""
    w = Writer()
    w.raw(tx_signing_bytes(tx.sender, tx.nonce, tx.payload))
    w.bytes_(tx.signature)
    return w.getvalue()


def test_canonical_validator_set_frame_decodes():
    raw = _validators_frame([LOW, HIGH])
    assert raw == WORLD.tx("mgr", BootstrapValidators(frozenset({A, B}))).encode()
    assert _written_afresh(decode_transaction(raw)) == raw


@pytest.mark.parametrize("ids", [[HIGH, LOW], [LOW, LOW, HIGH]], ids=["swapped", "repeated"])
def test_set_out_of_order_or_repeated_is_malformed(ids):
    """Each decoded to the canonical transaction, with its tx_id, from other bytes."""
    raw = _validators_frame(ids)
    with pytest.raises(CodecError, match="strictly ascending"):
        decode_transaction(raw)
    outcome, _ = _admit(WORLD, raw)
    assert outcome == Rejected(err.MALFORMED)


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


def _hostile(prefix: bytes, samples: list[bytes]):
    """Random bytes, random bytes after ``prefix``, and mangled ``samples``."""
    size = max(map(len, samples))
    return st.one_of(
        st.binary(max_size=200),
        st.binary(max_size=200).map(lambda b: prefix + b),
        # valid encodings with a few bytes overwritten, then truncated or extended
        st.builds(
            _mutate,
            st.sampled_from(samples),
            st.lists(st.tuples(st.integers(0, size), st.integers(0, 255)), max_size=4),
            st.integers(0, max(400, 2 * size)),
            st.binary(max_size=8),
        ),
    )


hostile = _hostile(b"tx:", FRAMES)


@settings(max_examples=400, deadline=None)
@given(hostile)
def test_decode_transaction_raises_only_codec_error(raw):
    try:
        decode_transaction(raw)
    except CodecError:
        pass


@settings(max_examples=400, deadline=None)
@given(hostile)
def test_an_accepted_transaction_frame_is_its_own_encoding(raw):
    try:
        tx = decode_transaction(raw)
    except CodecError:
        return
    assert _written_afresh(tx) == raw


@settings(max_examples=400, deadline=None)
@given(hostile)
def test_admit_never_raises(raw):
    outcome, decodes = _admit(WORLD, raw)
    if not decodes:
        assert outcome == Rejected(err.MALFORMED)


# --- read queries -------------------------------------------------------------

QUERY_FRAMES = [
    encode_query(q)
    for q in (
        OwnBalance(A),
        OwnHistory(A),
        ManagementLog(0, 5),
        SupplyView(),
        GatewayDirectory(),
        ValidationServerAddress(B),
        Claimable(A),
    )
]
# after the management-log tag, any 16 bytes decode
hostile_queries = _hostile(bytes([ManagementLog.TAG]), QUERY_FRAMES)


@settings(max_examples=400, deadline=None)
@given(hostile_queries)
def test_decode_query_raises_only_codec_error(raw):
    try:
        decode_query(raw)
    except CodecError:
        pass


@settings(max_examples=400, deadline=None)
@given(hostile_queries)
def test_an_accepted_query_frame_is_its_own_encoding(raw):
    try:
        query = decode_query(raw)
    except CodecError:
        return
    assert encode_query(query) == raw


VIEW = keypair_from_label("mock", "view", 0)


@settings(max_examples=400, deadline=None)
@given(hostile_queries)
@example(b"\x63")  # an unknown query tag
def test_answer_to_a_signed_hostile_echo_raises_only_query_error(echo):
    """A validly signed request whose echo is any bytes: an answer echoing
    them, or a QueryError; a malformed echo leaves its challenge open."""
    gateway = VisibilityGateway(WORLD.aid("mgr"), VIEW)
    challenge = gateway.issue_challenge()
    alice = WORLD.kp("alice")
    request = QueryRequest(A, challenge, alice.sign(challenge_message(challenge, echo)), echo)
    try:
        decode_query(echo)
        decodes = True
    except CodecError:
        decodes = False
    try:
        assert gateway.answer(WORLD.state, request).echo == echo
    except QueryError as exc:
        if decodes:
            return
        assert exc.code == err.MALFORMED
        good = sign_request(alice, challenge, OwnBalance(A), A)
        assert gateway.answer(WORLD.state, good).echo == good.echo
    else:
        assert decodes


# --- blocks and chain dumps ---------------------------------------------------

SIMS = {
    name: run(load_scenario(SCENARIOS / f"{name}.yaml"))[1]
    for name in ("bootstrap_and_transfer", "corrupt_gateway")
}
DUMPS = [sim.export() for sim in SIMS.values()]
BLOCKS = [block.encode() for sim in SIMS.values() for block in sim.chain.blocks[1:]]


@settings(max_examples=400, deadline=None)
@given(_hostile(b"blk:", BLOCKS))
def test_decode_block_raises_only_codec_error(raw):
    try:
        decode_block(raw)
    except CodecError:
        pass


@settings(max_examples=400, deadline=None)
@given(_hostile(b"blk:", BLOCKS))
def test_an_accepted_block_frame_is_its_own_encoding(raw):
    try:
        block = decode_block(raw)
    except CodecError:
        return
    assert block.encode() == raw


@settings(max_examples=200, deadline=None)
@given(_hostile(DUMP_MAGIC + bytes([DUMP_VERSION]), DUMPS))
def test_import_chain_raises_only_codec_error(raw):
    try:
        import_chain(raw)
    except CodecError:
        pass


@pytest.mark.parametrize(
    "genesis",
    [
        pytest.param(b"", id="empty"),
        pytest.param(b"\x00\x00\x00\x01\xff" + bytes(40), id="scheme_not_utf8"),
        pytest.param(b"\x00\x00\x00\x04mock" + bytes(24) + b"\xff\xff\xff\xff", id="count_past_the_end"),
    ],
)
def test_replay_rejects_an_unparsable_genesis(genesis):
    w = Writer()
    w.raw(DUMP_MAGIC)
    w.u8(DUMP_VERSION)
    w.bytes_(genesis)
    w.bytes_(hashlib.sha256(genesis).digest())
    w.count(0)
    with pytest.raises(CodecError, match="^genesis: "):
        replay(*import_chain(w.getvalue()))


# the dump pins its genesis by a digest it declares itself, so any bytes may
# stand in it
DOC_SIM = SIMS["corrupt_gateway"]


@settings(max_examples=300, deadline=None)
@given(_hostile(b"\x00\x00\x00\x04mock", [DOC_SIM.genesis]))
def test_any_genesis_doc_fails_only_with_rolechain_errors(genesis):
    """What ``rolechain verify`` catches: no other exception may escape.

    Alone, a genesis fails only with CodecError; the blocks after it may
    then fail to apply to the state it holds.
    """
    try:
        replay(*import_chain(export_chain(Chain(), genesis)))
    except CodecError:
        pass
    try:
        _, state = replay(*import_chain(export_chain(DOC_SIM.chain, genesis)))
    except RolechainError:
        return
    state.digest()  # printed by ``rolechain verify``
