from __future__ import annotations

import dataclasses
import hashlib
import struct

import pytest

from rolechain.codec import whole
from rolechain.errors import CodecError
from rolechain.keys import keypair_from_label
from rolechain.payloads import (
    AssignRole,
    BootstrapValidators,
    Burn,
    CastVote,
    ClaimAllowance,
    Confiscate,
    ConvertFiat,
    CreateProposal,
    DiscrepancyEvent,
    FiatDirection,
    FinalizeProposal,
    Guardians,
    InterestMode,
    ManagementLog,
    Mint,
    OwnBalance,
    Permanence,
    ProviderPlusSecurity,
    RegisterEndpoints,
    Reverse,
    RevokeRole,
    Role,
    RotateKey,
    SetFrozen,
    SetInterestRule,
    SetPolicy,
    SignedQueryResponse,
    Transaction,
    Transfer,
    ValidatorRecord,
    decode_query,
    decode_transaction,
    encode_payload,
    encode_query,
    read_payload,
    sign_transaction,
)

from reference import Writer

A = b"\x11" * 32
B = b"\x22" * 32
C = b"\x33" * 32


def test_transfer_golden_bytes():
    # expected frame assembled by hand with struct, independent of the codec
    tx = Transaction(A, 7, Transfer(B, 40), b"\xaa" * 16)
    expected = b"tx:"
    expected += struct.pack(">I", 32) + A
    expected += struct.pack(">Q", 7)
    expected += bytes([0x01])
    expected += struct.pack(">I", 32) + B
    expected += struct.pack(">Q", 40)
    assert tx.signing_bytes() == expected
    full = expected + struct.pack(">I", 16) + b"\xaa" * 16
    assert tx.encode() == full
    assert tx.tx_id == hashlib.sha256(full).digest()
    # frozen digest of the full frame
    assert tx.tx_id.hex() == "5969d3344dcbad0f25496ff6211ed55aa2e4a9eb2a3adf85c89d680de387d73f"


RESPONSE = SignedQueryResponse(A, b"echo", b"result", 9, b"sig")

ALL_PAYLOADS = [
    Transfer(B, 40),
    SetFrozen(B, True),
    Confiscate(A, B, 55),
    Reverse(C),
    RotateKey(A, B, ((C, b"approval-sig"),)),
    SetPolicy("vote.window_blocks", 12, Permanence.TEMPORARY),
    SetPolicy("security.escrow", C, Permanence.PERMANENT),
    SetPolicy("rate.capacity", 5, Permanence.TIMED_EXPIRATION, 99),
    AssignRole(B, Role.USER, B, b"possess-sig", Guardians(frozenset({A, C}), 2)),
    AssignRole(B, Role.CURRENCY_MANAGER, None, None, ProviderPlusSecurity()),
    RevokeRole(B, Role.VALIDATOR),
    BootstrapValidators(frozenset({A, B, C})),
    CreateProposal(Mint(B, 1000), Role.CURRENCY_MANAGER),
    CreateProposal(RevokeRole(B, Role.VALIDATOR), Role.VALIDATOR),
    CastVote(3, True),
    FinalizeProposal(3),
    Mint(B, 1_000),
    Burn(B, 200),
    ConvertFiat(B, FiatDirection.IN, 100),
    ConvertFiat(B, FiatDirection.OUT, 100),
    SetInterestRule(1, 100, 10, 20, InterestMode.PUSH),
    SetInterestRule(1, 100, 10, 20, InterestMode.PULL, frozenset({A, B}), None, True),
    SetInterestRule(0, 1, 1, 0, InterestMode.PULL, None, 4, False),
    ClaimAllowance(2, 5),
    RegisterEndpoints(
        ValidatorRecord(A, ("sim://a/sec0", "sim://a/sec1"), ("sim://a/vis0",), "sim://a/val", B, "ops@a")
    ),
    DiscrepancyEvent(RESPONSE, SignedQueryResponse(B, b"echo", b"other", 9, b"sig2")),
]


@pytest.mark.parametrize("payload", ALL_PAYLOADS, ids=lambda p: type(p).__name__)
def test_payload_roundtrip(payload):
    w = Writer()
    encode_payload(w, payload)
    assert whole(read_payload, w.getvalue()) == payload


def test_transaction_roundtrip_every_payload():
    for i, payload in enumerate(ALL_PAYLOADS):
        tx = Transaction(A, i, payload, b"s" * 64)
        assert decode_transaction(tx.encode()) == tx


def test_tx_ids_distinct():
    ids = {Transaction(A, i, p, b"sig").tx_id for i, p in enumerate(ALL_PAYLOADS)}
    assert len(ids) == len(ALL_PAYLOADS)


def test_decode_rejects_garbage():
    with pytest.raises(CodecError):
        decode_transaction(b"not a transaction")
    with pytest.raises(CodecError):
        whole(read_payload, b"\xff")


def test_decode_rejects_trailing_bytes():
    tx = Transaction(A, 0, Transfer(B, 1), b"sig")
    with pytest.raises(CodecError):
        decode_transaction(tx.encode() + b"\x00")


def test_query_roundtrip():
    for q in (OwnBalance(A), ManagementLog(3, 9)):
        assert decode_query(encode_query(q)) == q


def test_signed_response_roundtrip():
    w = Writer()
    SignedQueryResponse.FIELDS.encode(w, RESPONSE)
    assert whole(SignedQueryResponse.FIELDS.read, w.getvalue()) == RESPONSE


def test_signing_bytes_cover_all_fields():
    base = RESPONSE.signing_bytes()
    for changed in (
        SignedQueryResponse(B, b"echo", b"result", 9, b"sig"),
        SignedQueryResponse(A, b"echo2", b"result", 9, b"sig"),
        SignedQueryResponse(A, b"echo", b"result2", 9, b"sig"),
        SignedQueryResponse(A, b"echo", b"result", 10, b"sig"),
    ):
        assert changed.signing_bytes() != base


def test_signature_scheme_binds_to_tx_bytes():
    kp = keypair_from_label("mock", "signer", 0)
    tx = Transaction(kp.account_id, 0, Transfer(B, 1))
    sig = kp.sign(tx.signing_bytes())
    from rolechain.keys import get_scheme

    scheme = get_scheme("mock")
    assert scheme.verify(kp.public_key, tx.signing_bytes(), sig)
    tampered = Transaction(kp.account_id, 0, Transfer(B, 2))
    assert not scheme.verify(kp.public_key, tampered.signing_bytes(), sig)


@pytest.mark.parametrize("payload", ALL_PAYLOADS, ids=lambda p: type(p).__name__)
def test_decoded_and_signed_transactions_are_constructed_ones(payload):
    # both build through a helper that sets the slots directly, so each must
    # be indistinguishable from the public constructor's object
    kp = keypair_from_label("mock", "signer", 0)
    signed = sign_transaction(kp, kp.account_id, 7, payload)
    built = Transaction(kp.account_id, 7, payload, signed.signature)
    for tx in (signed, decode_transaction(signed.encode())):
        assert type(tx) is Transaction
        assert tx == built and hash(tx) == hash(built) and repr(tx) == repr(built)
        assert (tx._tx_id, tx._verified_scheme, tx._verified_key) == (None, None, None)
        assert tx.encode() == built.encode() and tx.tx_id == built.tx_id
        for f in dataclasses.fields(Transaction):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(tx, f.name, getattr(tx, f.name))
