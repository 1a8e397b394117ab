from __future__ import annotations

import hashlib
import hmac

import pytest
from hypothesis import given, strategies as st

from rolechain.errors import InvalidKey
from rolechain.keys import KeyPair, derive_account_id, get_scheme, keypair_from_label

# pinned from an independent sha256 tool over the 32-byte key 00 01 .. 1f
GOLDEN_KEY = bytes(range(32))
GOLDEN_ID = bytes.fromhex("630dcd2966c4336691125448bbb25b4ff412a49c732db2c8abc1b8581bd710dd")


def test_account_id_golden_vector():
    assert derive_account_id(GOLDEN_KEY) == GOLDEN_ID


def test_account_id_deterministic():
    assert derive_account_id(GOLDEN_KEY) == derive_account_id(GOLDEN_KEY)


def test_malformed_key_rejected():
    with pytest.raises(InvalidKey):
        derive_account_id(b"short")
    with pytest.raises(InvalidKey):
        derive_account_id(b"\x00" * 33)


@given(st.sets(st.binary(min_size=32, max_size=32), min_size=2, max_size=20))
def test_account_id_injective_on_corpus(keys):
    ids = {derive_account_id(k) for k in keys}
    assert len(ids) == len(keys)


@pytest.mark.parametrize("scheme_name", ["mock", "ed25519"])
def test_sign_verify_roundtrip(scheme_name):
    scheme = get_scheme(scheme_name)
    pair = scheme.keypair(b"seed-a" * 6)
    other = scheme.keypair(b"seed-b" * 6)
    message = b"payload bytes"
    sig = pair.sign(message)
    assert scheme.verify(pair.public_key, message, sig)
    assert not scheme.verify(other.public_key, message, sig)
    assert not scheme.verify(pair.public_key, message + b"x", sig)
    assert not scheme.verify(pair.public_key, message, sig[:-1] + bytes([sig[-1] ^ 1]))


@pytest.mark.parametrize("scheme_name", ["mock", "ed25519"])
def test_keypairs_deterministic_from_label(scheme_name):
    a1 = keypair_from_label(scheme_name, "alice", 7)
    a2 = keypair_from_label(scheme_name, "alice", 7)
    b = keypair_from_label(scheme_name, "alice", 8)
    assert a1 == a2
    assert a1.public_key != b.public_key


def test_signatures_deterministic():
    # replay determinism depends on this for both schemes
    for name in ("mock", "ed25519"):
        pair = keypair_from_label(name, "x", 1)
        assert pair.sign(b"m") == pair.sign(b"m")


def test_a_kept_signing_key_signs_as_its_secret_does():
    pair = keypair_from_label("ed25519", "x", 1)
    assert pair.private is not None
    by_hand = KeyPair(pair.scheme, pair.public_key, pair.secret)
    assert by_hand.private is None and by_hand == pair
    assert by_hand.sign(b"m") == pair.sign(b"m")
    assert get_scheme("ed25519").verify(pair.public_key, b"m", pair.sign(b"m"))
    assert keypair_from_label("mock", "x", 1).private is None


def test_unknown_scheme_rejected():
    with pytest.raises(InvalidKey):
        get_scheme("rsa")


@given(key_len=st.integers(0, 200), message=st.binary(max_size=300), data=st.data())
def test_mock_signature_is_rfc_2104_hmac_sha256(key_len, message, data):
    # keys up to 200 bytes cross SHA-256's 64-byte block, past which a key is hashed first
    key = data.draw(st.binary(min_size=key_len, max_size=key_len), label="key")
    mock = get_scheme("mock")
    signature = mock.sign(KeyPair("mock", key, b""), message)
    assert signature == hmac.new(key, message, hashlib.sha256).digest()
    public = data.draw(st.binary(min_size=32, max_size=32), label="public key")
    signature = mock.sign(KeyPair("mock", public, b""), message)
    assert mock.verify(public, message, signature)
    bit = data.draw(st.integers(0, 8 * len(signature) - 1), label="flipped bit")
    flipped = bytearray(signature)
    flipped[bit // 8] ^= 1 << (bit % 8)
    assert not mock.verify(public, message, bytes(flipped))
