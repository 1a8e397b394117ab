"""Golden vectors: the canonical outputs that every refactor must keep.

Each bundled scenario is run at its own seed (and one of them again under
ed25519).  Its state digest, head hash, full report JSON and the SHA-256
of its chain dump were recorded from the code before the write path
gained its caches; any change to wire bytes, digests or reports shows
here first.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from rolechain.codec import Writer
from rolechain.payloads import decode_transaction, tx_signing_bytes
from rolechain.sim import load_scenario, run

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"

# (scenario file stem, scheme override, state_digest, head_hash, sha256 of export())
VECTORS = [
    (
        "bootstrap_and_transfer",
        None,
        "a5cf43cdbe22248672e1cb9f36c3a367daf60805e70b2798b3e0cb256d4bb9ae",
        "1d1bdb174e204cb478e1b0d2ec53bb36d94d5d5355bc8308c89078e84cc1986b",
        "da77d59854f4e14b575504bd511aaa53710d46ab6ae45139f499689051313f49",
    ),
    (
        "corrupt_gateway",
        None,
        "0f1a6849f84dd1f937d83214dc7385d15308e1332f959ef609749f36104c901d",
        "8f24b3a537135d0a6415c7920604700a03e7386755ae1e3f2a245129b48c83d5",
        "f1440de12b74759b69902b1c4016af768ff27b0c4a6158125a5c87d5d5c47f58",
    ),
    (
        "interest_pull",
        None,
        "b3772868fa7e5664de2e3604105bca8a3d4076e2d57a86b320ed858a38f7884d",
        "46095d55bed650df6fdca81750a6144b314c7b8991eddb1056e6fd6bbc4a41ee",
        "20e853d229374e8d558adf4d302e3527336ff09dbc037b539640a85e6a70c7ec",
    ),
    (
        "bootstrap_and_transfer",
        "ed25519",
        "993084d80c325645a424e2ae6cd8905db66c619d1c0f4fd6bf3e42d036f5986c",
        "b7db56de86dcb28bc9f268e5919b02497324a8121466d1d805abe0f67e557459",
        "60b8489f6b64c2dcfeb63d0ed2e620f15312f56c6f1118f003f0f2db3af07357",
    ),
]


def _run(stem: str, scheme: str | None):
    scenario = load_scenario(ROOT / "scenarios" / f"{stem}.yaml")
    if scheme is not None:
        scenario.scheme = scheme
    return run(scenario)


@pytest.mark.parametrize(
    "stem, scheme, state_digest, head_hash, dump_sha256",
    VECTORS,
    ids=[f"{v[0]}-{v[1] or 'mock'}" for v in VECTORS],
)
def test_golden_run(stem, scheme, state_digest, head_hash, dump_sha256):
    report, sim = _run(stem, scheme)
    assert report.all_passed
    assert report.state_digest == state_digest
    assert report.head_hash == head_hash
    suffix = f".{scheme}" if scheme else ""
    assert report.to_json() + "\n" == (GOLDEN / f"{stem}{suffix}.report.json").read_text()
    assert hashlib.sha256(sim.export()).hexdigest() == dump_sha256


@pytest.mark.parametrize("stem", ["bootstrap_and_transfer", "corrupt_gateway", "interest_pull"])
def test_cached_encodings_match_fresh_ones(stem):
    """Every committed transaction's reused bytes equal a fresh encoding."""
    _, sim = _run(stem, None)
    txs = [tx for block in sim.chain.blocks for tx in block.txs]
    assert txs
    for tx in txs:
        fresh_signing = tx_signing_bytes(tx.sender, tx.nonce, tx.payload)
        w = Writer()
        w.raw(fresh_signing)
        w.bytes_(tx.signature)
        fresh = w.getvalue()
        assert tx.signing_bytes() == fresh_signing
        assert tx.encode() == fresh
        assert tx.tx_id == hashlib.sha256(fresh).digest()
        assert decode_transaction(fresh).encode() == fresh
        # asking again returns the same bytes
        assert tx.encode() == fresh and tx.signing_bytes() == fresh_signing
