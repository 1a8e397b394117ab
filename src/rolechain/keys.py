"""Signature schemes and account-id derivation.

Two interchangeable schemes sit behind one interface:

  - ``ed25519``: the release scheme, backed by the ``cryptography`` package.
  - ``mock``: a deterministic keyed-hash double for fast tests and sims.
    Signatures are HMAC-SHA256 keyed by the public key, so they verify
    against the public key alone.  It offers no forgery resistance and is
    never meant to leave a test process.  The HMAC is computed as RFC 2104
    defines it, in two ``hashlib.sha256`` calls: the key (hashed first if
    longer than SHA-256's 64-byte block) is zero-padded to a block, each
    pad is that block with every byte XORed by 0x36 or 0x5C (one
    ``bytes.translate`` each), and the tag is
    ``sha256(opad + sha256(ipad + message))``.  It equals
    ``hmac.new(key, message, hashlib.sha256).digest()`` without that
    wrapper's per-call objects, which cost more than the two hashes.

Account ids are the SHA-256 digest of the account's original public key;
they are stable across key rotations.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass, field

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .errors import InvalidKey

KEY_LEN = 32


def derive_account_id(public_key: bytes) -> bytes:
    """Deterministic 32-byte id for a well-formed public key."""
    if not isinstance(public_key, bytes) or len(public_key) != KEY_LEN:
        raise InvalidKey(f"public key must be {KEY_LEN} bytes")
    return hashlib.sha256(public_key).digest()


@dataclass(frozen=True)
class KeyPair:
    scheme: str
    public_key: bytes
    secret: bytes
    # the scheme's parsed form of ``secret``, kept so that signing does not
    # parse it again; None for a scheme that signs from the bytes themselves,
    # and for a pair built by hand, which parses on each signature
    private: object = field(default=None, repr=False, compare=False)

    def sign(self, message: bytes) -> bytes:
        return get_scheme(self.scheme).sign(self, message)

    @property
    def account_id(self) -> bytes:
        return derive_account_id(self.public_key)


class MockScheme:
    """Keyed-hash test double; deterministic and fast, not secure."""

    name = "mock"
    # a check costs ~2 µs, far below what forking a process costs, so
    # neither a replay nor a sim run checks these on another process
    costly_verify = False

    def keypair(self, seed: bytes) -> KeyPair:
        secret = hashlib.sha256(b"mock-secret:" + seed).digest()
        public = hashlib.sha256(b"mock-public:" + secret).digest()
        return KeyPair(self.name, public, secret)

    def sign(self, pair: KeyPair, message: bytes) -> bytes:
        return _hmac_sha256(pair.public_key, message)

    def verify(self, public_key: bytes, message: bytes, signature: bytes) -> bool:
        if len(public_key) != KEY_LEN:
            return False
        return hmac.compare_digest(_hmac_sha256(public_key, message), signature)


_BLOCK = 64  # SHA-256's block size in bytes
_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))
_sha256 = hashlib.sha256


def _hmac_sha256(key: bytes, message: bytes) -> bytes:
    """HMAC-SHA256 of ``message`` under ``key`` (RFC 2104), in two hashes."""
    if len(key) > _BLOCK:
        key = _sha256(key).digest()
    key = key.ljust(_BLOCK, b"\0")
    inner = _sha256(key.translate(_IPAD) + message).digest()
    return _sha256(key.translate(_OPAD) + inner).digest()


class Ed25519Scheme:
    """Release scheme: Ed25519 with raw 32-byte keys."""

    name = "ed25519"
    # a check costs ~130 µs, so two users check these on forked processes
    # (rolechain.fanout): replay's pre-pass (chain.precheck_signatures) and
    # a sim run's admission helper (gateway.AdmissionHelper)
    costly_verify = True

    def keypair(self, seed: bytes) -> KeyPair:
        secret = hashlib.sha256(b"ed25519-seed:" + seed).digest()
        private = Ed25519PrivateKey.from_private_bytes(secret)
        public = private.public_key().public_bytes_raw()
        return KeyPair(self.name, public, secret, private)

    def sign(self, pair: KeyPair, message: bytes) -> bytes:
        # parsing a secret costs as much as signing with it (~40 µs each)
        private = pair.private if pair.private is not None else Ed25519PrivateKey.from_private_bytes(pair.secret)
        return private.sign(message)

    def verify(self, public_key: bytes, message: bytes, signature: bytes) -> bool:
        if len(public_key) != KEY_LEN:
            return False
        try:
            Ed25519PublicKey.from_public_bytes(public_key).verify(signature, message)
            return True
        except (InvalidSignature, ValueError):
            return False


_SCHEMES = {s.name: s for s in (MockScheme(), Ed25519Scheme())}


def get_scheme(name: str) -> MockScheme | Ed25519Scheme:
    try:
        return _SCHEMES[name]
    except KeyError:
        raise InvalidKey(f"unknown signature scheme: {name!r}") from None


def keypair_from_label(scheme: str, label: str, seed: int) -> KeyPair:
    """Deterministic per-actor keypair used by scenarios and tests."""
    material = hashlib.sha256(f"actor:{label}:{seed}".encode()).digest()
    return get_scheme(scheme).keypair(material)
