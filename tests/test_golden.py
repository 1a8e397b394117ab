"""Golden vectors: the canonical outputs that every refactor must keep.

Each bundled scenario is run at its own seed (and one of them again under
ed25519).  Its state digest, head hash, full report JSON and the SHA-256
of its chain dump were recorded from the code before the write path
gained its caches; any change to wire bytes, digests or reports shows
here first.  The dump hashes, and the dump among the wire bytes, were
recorded again when a dump's genesis became the state's own encoding
(dump version 2); nothing else changed then.

``golden/wire_bytes.json`` holds the canonical bytes of every wire type:
each payload, query, validator record, signed response, a block, a dump,
a state digest, and the digest of a state holding every kind of state
record and log value.

``golden/read_answers.json`` holds the SHA-256 of the honest answer to
every read kind at the end of two scenarios.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from rolechain.chain import ZERO_HASH, Block, Chain, export_chain, genesis_block, genesis_doc
from rolechain.codec import BYTES, encoding, whole
from rolechain.engine import build_genesis
from rolechain.gateway import compute_result
from rolechain.ledger import (
    Account,
    AllowanceLedger,
    Allowances,
    InterestRule,
    LogEntry,
    Policy,
    Proposal,
    ProposalStatus,
)
from rolechain.payloads import (
    AssignRole,
    Claimable,
    GatewayDirectory,
    Guardians,
    InterestMode,
    ManagementLog,
    OwnBalance,
    OwnHistory,
    Permanence,
    ProviderOnly,
    ProviderPlusSecurity,
    Query,
    Role,
    SignedQueryResponse,
    SupplyView,
    Transaction,
    ValidationServerAddress,
    ValidatorRecord,
    challenge_message,
    decode_query,
    decode_transaction,
    encode_payload,
    encode_query,
    possession_message,
    read_payload,
    rotation_message,
    tx_signing_bytes,
)
from rolechain.sim import load_scenario, run

from test_payloads import ALL_PAYLOADS, A, B, C

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"

# (scenario file stem, scheme override, state_digest, head_hash, sha256 of export())
VECTORS = [
    (
        "bootstrap_and_transfer",
        None,
        "a5cf43cdbe22248672e1cb9f36c3a367daf60805e70b2798b3e0cb256d4bb9ae",
        "1d1bdb174e204cb478e1b0d2ec53bb36d94d5d5355bc8308c89078e84cc1986b",
        "4fe0a74b28302c211a52e512ffc7b1ecc2d9549b1969618ea5cd5fcf16536297",
    ),
    (
        "corrupt_gateway",
        None,
        "0f1a6849f84dd1f937d83214dc7385d15308e1332f959ef609749f36104c901d",
        "8f24b3a537135d0a6415c7920604700a03e7386755ae1e3f2a245129b48c83d5",
        "88130a22d1a4974a709cea9f20c82779f64e0f9621810c893f9351be3460b2f0",
    ),
    (
        "interest_pull",
        None,
        "e76a503f196bf58455cfdb253686a6b4072553ccba4ee72f126344f23e6bc1d8",
        "46095d55bed650df6fdca81750a6144b314c7b8991eddb1056e6fd6bbc4a41ee",
        "7fe167440e7e76418aa4d26c7ffd2dde74a0d5bacf6b75e8f6059df46c025b1b",
    ),
    (
        "interest_settle",
        None,
        "51d629647bd7bef932e7f1de25ffe10e3b10ec27c85a02af731c854a81a3cfcd",
        "4d083de6bfa205a89e48b31ea691d779cb6c6c7da598e5109bf9e191b295fbf0",
        "9dc29fe621d67552965999b0b8f6e5e4e730e58c063579fefea22b095ee9aa54",
    ),
    (
        "bootstrap_and_transfer",
        "ed25519",
        "993084d80c325645a424e2ae6cd8905db66c619d1c0f4fd6bf3e42d036f5986c",
        "b7db56de86dcb28bc9f268e5919b02497324a8121466d1d805abe0f67e557459",
        "a13acb29157f8b2c383a9a1299b38d797ee8475a911c808fc33bd0d2f15db9f1",
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


# --- read answers ----------------------------------------------------------------
#
# SHA-256 of ``compute_result`` at the end of a scenario, for every read
# kind: the balance, history and claimable amount of every actor (escrow
# included), ``ManagementLog`` over the whole chain, a middle window and a
# window holding no management entry, the supply and the directory, and the
# validation server of every registered validator.  The log reads were
# recorded while both still scanned the whole transaction log, the others
# before each read kind was described once.

READS = json.loads((GOLDEN / "read_answers.json").read_text())

# scenario stem -> {label: (start_height, end_height)}
WINDOWS = {
    "corrupt_gateway": {"all": (0, 10**9), "middle": (8, 9), "empty": (10, 11)},
    "interest_pull": {"all": (0, 10**9), "middle": (3, 9), "empty": (4, 5)},
}


def read_queries(stem: str, sim) -> dict[str, Query]:
    """The reads pinned for ``stem``, by label."""
    queries: dict[str, Query] = {}
    for name in sorted(sim.ids):
        aid = sim.aid(name)
        queries[f"own_balance {name}"] = OwnBalance(aid)
        queries[f"own_history {name}"] = OwnHistory(aid)
        queries[f"claimable {name}"] = Claimable(aid)
    for label, (start, end) in WINDOWS[stem].items():
        queries[f"management_log {label} {start}..{end}"] = ManagementLog(start, end)
    queries["supply"] = SupplyView()
    queries["directory"] = GatewayDirectory()
    for aid in sorted(sim.state.validator_registry):
        queries[f"validation_server {sim.names_by_id[aid]}"] = ValidationServerAddress(aid)
    return queries


def read_answer_bytes(stem: str) -> dict[str, tuple[Query, bytes]]:
    """Each pinned read of ``stem`` with its honest answer."""
    _, sim = _run(stem, None)
    return {label: (query, compute_result(sim.state, query)) for label, query in read_queries(stem, sim).items()}


def read_answers(stem: str) -> dict[str, str]:
    return {label: hashlib.sha256(answer).hexdigest() for label, (_, answer) in read_answer_bytes(stem).items()}


@pytest.mark.parametrize("stem", sorted(WINDOWS))
def test_read_answers(stem):
    assert read_answers(stem) == READS[stem]


def _fresh_encoding(tx: Transaction) -> bytes:
    """The encoding of ``tx`` written afresh from its fields."""
    return tx_signing_bytes(tx.sender, tx.nonce, tx.payload) + encoding(BYTES.encode, tx.signature)


@pytest.mark.parametrize("stem", ["bootstrap_and_transfer", "corrupt_gateway", "interest_pull", "interest_settle"])
def test_cached_encodings_match_fresh_ones(stem):
    """Every committed transaction's reused bytes equal a fresh encoding,
    and so do those of its decoded copy."""
    _, sim = _run(stem, None)
    txs = [tx for block in sim.chain.blocks for tx in block.txs]
    assert txs
    for tx in txs:
        fresh_signing = tx_signing_bytes(tx.sender, tx.nonce, tx.payload)
        fresh = _fresh_encoding(tx)
        assert tx.signing_bytes() == fresh_signing
        assert tx.encode() == fresh
        assert tx.tx_id == hashlib.sha256(fresh).digest()
        assert _fresh_encoding(decode_transaction(fresh)) == fresh
        # asking again returns the same bytes
        assert tx.encode() == fresh and tx.signing_bytes() == fresh_signing


# --- wire bytes -------------------------------------------------------------------
#
# The canonical bytes of every wire type, recorded in golden/wire_bytes.json
# from the hand-written encoders before payloads, queries, recovery
# policies and records were described by field codecs.  A new entry in
# ``test_payloads.ALL_PAYLOADS`` needs its bytes recorded here too.

WIRE = json.loads((GOLDEN / "wire_bytes.json").read_text())

EXTRA_PAYLOADS = {
    "AssignRole-no-recovery": AssignRole(B, Role.PLATFORM_MANAGER),
    "AssignRole-provider-only": AssignRole(B, Role.USER, B, b"possess-sig", ProviderOnly()),
}
PAYLOADS = {
    **{f"payload {i:02d} {type(p).__name__}": p for i, p in enumerate(ALL_PAYLOADS)},
    **{f"payload {name}": p for name, p in EXTRA_PAYLOADS.items()},
}
QUERIES = {
    f"query {type(q).__name__}": q
    for q in (
        OwnBalance(A),
        OwnHistory(B),
        ManagementLog(3, 2**64 - 1),
        SupplyView(),
        GatewayDirectory(),
        ValidationServerAddress(C),
        Claimable(A),
    )
}
RECORD = ValidatorRecord(A, ("sim://a/sec0", "sim://a/sec1"), (), "sim://a/val", B, "ops@a")
RESPONSE = SignedQueryResponse(B, b"echo", b"\x00" * 8, 2**40, b"view-sig")


def _encoded(obj) -> bytes:
    return encoding(obj.FIELDS.encode, obj)


def _block() -> Block:
    txs = (
        Transaction(A, 0, ALL_PAYLOADS[0], b"sig-0"),
        Transaction(B, 5, ALL_PAYLOADS[12], b"sig-1"),
    )
    return Block(1, ZERO_HASH, C, 4, txs, b"block-sig")


def _state():
    """A genesis state holding each recovery policy and a validator record."""
    accounts = [
        Account(A, b"\x01" * 32, {Role.USER}, 70, recovery=ProviderOnly(), provider=C),
        Account(B, b"\x02" * 32, {Role.USER, Role.VALIDATOR}, 30, recovery=Guardians(frozenset({A, C}), 1)),
        Account(C, b"\x03" * 32, {Role.ACCOUNT_PROVIDER}, recovery=ProviderPlusSecurity()),
    ]
    state = build_genesis("mock", accounts, [("rate.capacity", 4, Permanence.TIMED_EXPIRATION, 9)])
    state.validator_registry[B] = ValidatorRecord(
        B, ("sim://b/sec0",), ("sim://b/vis0",), "sim://b/val", b"\x04" * 32, "ops@b"
    )
    return state


def _every_record_state():
    """A state reaching every branch of the digest: each kind of record and value."""
    state = _state()
    D = b"\x44" * 32
    state.height = 12
    state.supply.burned = 5
    state.accounts[D] = Account(
        account_id=D, public_key=b"\x05" * 32, frozen=True, nonce=3, provider=C, recovery=ProviderPlusSecurity()
    )
    state.accounts[b"\x55" * 32] = Account(account_id=b"\x55" * 32, public_key=b"\x06" * 32, roles=set())
    for key, value, permanence, expiry in [
        ("custom.bytes.permanent", b"\x01\x02", Permanence.PERMANENT, None),
        ("custom.bytes.temporary", b"", Permanence.TEMPORARY, None),
        ("custom.bytes.timed", b"\xff", Permanence.TIMED_EXPIRATION, 40),
        ("custom.int.permanent", 0, Permanence.PERMANENT, None),
        ("custom.int.temporary", 2**64 - 1, Permanence.TEMPORARY, None),
    ]:
        state.policies[key] = Policy(key, value, permanence, expiry, D, 7)
    state.proposals[1] = Proposal(
        proposal_id=1, action=ALL_PAYLOADS[0], proposer=A, electorate=Role.USER, created_at=2, expires_at=9,
        yes={B, A}, no={C}, status=ProposalStatus.PASSED,
    )
    state.proposals[2] = Proposal(
        proposal_id=2, action=ALL_PAYLOADS[1], proposer=B, electorate=Role.SYSTEM_SECURITY, created_at=3,
        expires_at=8, yes={B}, status=ProposalStatus.FAILED, execution_error="InsufficientFunds",
    )
    state.proposals[3] = Proposal(
        proposal_id=3, action=ALL_PAYLOADS[2], proposer=C, electorate=Role.VALIDATOR, created_at=11, expires_at=21
    )
    state.interest_rules[1] = InterestRule(
        rule_id=1, rate_num=1, rate_den=100, period_blocks=5, start_height=0, mode=InterestMode.PUSH, scope=None,
        last_accrued_period=2, created_total=14,
    )
    state.interest_rules[2] = InterestRule(
        rule_id=2, rate_num=3, rate_den=7, period_blocks=4, start_height=4, mode=InterestMode.PULL,
        scope=frozenset({B, A}), active=False,
    )
    state.allowances[B] = Allowances(
        settled=3,
        ledgers={2: AllowanceLedger(last_claimed_period=1, accrued=[(2, 6), (3, 4)]), 1: AllowanceLedger(accrued=[(2, 1)])},
    )
    state.allowances[A] = Allowances(ledgers={2: AllowanceLedger()})
    state.validator_registry[A] = RECORD
    state.tx_log += [
        LogEntry(
            tx_id=b"\x07" * 32, height=1, kind="transfer", sender=A, ok=True, error=None, management=False,
            participants=(A, A), data={"from": A, "to": A, "amount": 5}, reversed_by=b"\x08" * 32,
        ),
        LogEntry(
            tx_id=b"\x08" * 32, height=2, kind="reverse", sender=D, ok=False, error="AlreadyReversed",
            management=True, participants=(D,), data={},
        ),
        LogEntry(
            tx_id=b"\x09" * 32, height=3, kind="set_policy", sender=None, ok=True, error=None, management=True,
            participants=(), data={"key": "k", "value": b"\x00", "frozen": False, "active": True, "n": 0},
        ),
    ]
    return state


def wire_cases() -> dict[str, bytes]:
    """Every case's canonical bytes under the current encoders."""
    cases = {}
    for name, payload in PAYLOADS.items():
        cases[name] = encoding(encode_payload, payload)
    for name, query in QUERIES.items():
        cases[name] = encode_query(query)
    cases["validator record"] = _encoded(RECORD)
    cases["signed query response"] = _encoded(RESPONSE)
    cases["signed query response signing bytes"] = RESPONSE.signing_bytes()
    cases["rotation message"] = rotation_message(A, b"\x05" * 32)
    cases["possession message"] = possession_message(C, b"\x06" * 32)
    cases["challenge message"] = challenge_message(b"\x07" * 32, encode_query(OwnBalance(A)))
    cases["transaction nested proposal"] = Transaction(C, 9, ALL_PAYLOADS[13], b"s").encode()
    block = _block()
    cases["block"] = block.encode()
    state = _state()
    cases["dump"] = export_chain(Chain([genesis_block(), block]), genesis_doc(state, {"a": A, "b": B, "c": C}))
    cases["state digest"] = state.digest()
    cases["state digest, every record"] = _every_record_state().digest()
    return cases


def test_wire_bytes_cover_every_case():
    assert sorted(WIRE) == sorted(wire_cases())


@pytest.mark.parametrize("name", sorted(WIRE))
def test_wire_bytes(name):
    assert wire_cases()[name].hex() == WIRE[name]


@pytest.mark.parametrize("name", sorted(PAYLOADS))
def test_golden_payload_bytes_decode(name):
    assert whole(read_payload, bytes.fromhex(WIRE[name])) == PAYLOADS[name]


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_golden_query_bytes_decode(name):
    assert decode_query(bytes.fromhex(WIRE[name])) == QUERIES[name]


def test_golden_record_bytes_decode():
    assert whole(ValidatorRecord.FIELDS.read, bytes.fromhex(WIRE["validator record"])) == RECORD
    assert whole(SignedQueryResponse.FIELDS.read, bytes.fromhex(WIRE["signed query response"])) == RESPONSE
