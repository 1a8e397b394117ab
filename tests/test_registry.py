"""Each payload kind is described once; every table derived from it is complete.

Adding a kind means one class declared with ``payloads.payload_kind``, one
entry in ``engine.HANDLERS`` and one in ``sim.TX_STEPS``, plus a round-trip
case in ``test_payloads.ALL_PAYLOADS``.  Adding a read kind means one member
of ``payloads.QUERY``, one entry in ``gateway.READS`` (who may see it, its
answer's codec and its answer), one in ``sim.QUERY_STEPS`` and one CLI name
in ``cli.QUERIES``.  Leaving out any of them fails here, and every golden
answer must decode with its declared codec and encode back to its bytes.

Each ledger state record is described once too: every field the state
digest writes is declared with a codec, and a genesis, the height-0 state's
own encoding, reads back to the same state.
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from rolechain.chain import decode_genesis, genesis_doc
from rolechain.cli import QUERIES
from rolechain.codec import U64, U64_MAX, Field, whole
from rolechain.engine import HANDLERS, execute_payload
from rolechain.errors import TxError
from rolechain.gateway import READS, Visibility
from rolechain.ledger import (
    Account,
    AllowanceLedger,
    Applied,
    Authority,
    InterestRule,
    LedgerState,
    LogEntry,
    Policy,
    Proposal,
)
from rolechain.payloads import (
    PAYLOAD,
    QUERY,
    RECOVERY,
    Guardians,
    Payload,
    Permanence,
    ProviderOnly,
    ProviderPlusSecurity,
    Role,
    ValidatorRecord,
    encode_payload,
)
from rolechain.sim import QUERY_STEPS, TX_STEPS, Simulation, parse_scenario

from reference import Writer
from test_golden import READS as GOLDEN_READS, read_answer_bytes
from conftest import make_world
from test_payloads import ALL_PAYLOADS

# every class declared as a payload, and every subclass of Payload even if
# its declaration was forgotten
CLASSES = sorted({*PAYLOAD.by_tag.values(), *Payload.__subclasses__()}, key=lambda cls: cls.__name__)
# the kind name each class declares, as receipts, logs and scenario steps spell it
KINDS = {getattr(cls, "KIND", None) for cls in CLASSES}


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_payload_class_is_described_everywhere(cls):
    assert PAYLOAD.by_tag.get(getattr(cls, "TAG", None)) is cls, "no tag, or one another class took"
    assert isinstance(vars(cls).get("KIND"), str), "no kind name of its own"
    assert isinstance(cls.MANAGEMENT, bool)
    assert cls in HANDLERS, "no engine handler"
    assert any(type(p) is cls for p in ALL_PAYLOADS), "no round-trip case in ALL_PAYLOADS"
    if cls.KIND != "discrepancy_event":  # only the comparator files these
        assert cls.KIND in TX_STEPS, "no sim builder"


def test_tags_and_kinds_are_unique_and_tables_hold_no_strays():
    assert len({cls.TAG for cls in CLASSES}) == len(CLASSES)
    assert len(KINDS) == len(CLASSES)
    assert set(HANDLERS) == set(CLASSES)
    assert set(TX_STEPS) == KINDS - {"discrepancy_event"}


def test_every_handler_takes_its_payload():
    """Each handler, called as ``execute_payload`` calls it, applies or fails with TxError."""
    outcomes = Counter()
    for authority in Authority:
        for payload in ALL_PAYLOADS:
            world = make_world()
            try:
                result = execute_payload(world.state, world.aid("mgr"), payload, bytes(32), authority)
            except TxError:
                outcomes["TxError"] += 1
            else:
                assert type(result) is Applied, (type(payload).__name__, authority)
                outcomes["Applied"] += 1
    assert outcomes == {"Applied": 6, "TxError": 46}


@pytest.mark.parametrize("payload", ALL_PAYLOADS, ids=lambda p: type(p).__name__)
def test_encode_payload_matches_the_field_description(payload):
    """``encode_payload`` and ``read_payload`` take proposals directly; the bytes match."""
    described = Writer()
    PAYLOAD.encode(described, payload)
    direct = Writer()
    encode_payload(direct, payload)
    assert direct.getvalue() == described.getvalue()
    assert whole(PAYLOAD.read, described.getvalue()) == payload


def test_every_query_has_exactly_one_query_step():
    sim = Simulation(parse_scenario({"ticks": 0, "actors": [{"name": "a", "roles": ["validator"]}]}))
    body = {"as": "a", "validator": "a"}  # every required field but kind
    built = {kind: type(step.act(sim, {**body, "kind": kind}, "a")) for kind, step in QUERY_STEPS.items()}
    assert Counter(built.values()) == Counter(QUERY.by_tag.values())
    # expect_int only where the answer is one integer
    for kind, step in QUERY_STEPS.items():
        assert ("expect_int" in step.fields.types) == (READS[built[kind]].answer is U64), kind


def test_every_query_has_exactly_one_read_entry_and_cli_name():
    assert set(READS) == set(QUERY.by_tag.values())
    for read in READS.values():
        assert isinstance(read.visibility, Visibility)
        assert isinstance(read.answer, Field) and read.answer.read is not None
    account = b"\x01" * 32
    built = Counter(type(build(account, lambda: account, LedgerState())) for build, _ in QUERIES.values())
    assert built == Counter(QUERY.by_tag.values())


@pytest.mark.parametrize("stem", sorted(GOLDEN_READS))
def test_golden_answers_decode_with_their_declared_codec(stem):
    answers = read_answer_bytes(stem)
    assert {type(query) for query, _ in answers.values()} == set(QUERY.by_tag.values())
    for label, (query, answer) in answers.items():
        assert hashlib.sha256(answer).hexdigest() == GOLDEN_READS[stem][label]
        codec = READS[type(query)].answer
        value = whole(codec.read, answer)
        w = Writer()
        codec.encode(w, value)
        assert w.getvalue() == answer, label


# --- ledger state records -----------------------------------------------------------

# every record LedgerState.digest writes
DIGEST_RECORDS = [
    Account,
    Policy,
    Proposal,
    InterestRule,
    AllowanceLedger,
    ValidatorRecord,
    LogEntry,
    *RECOVERY.by_tag.values(),
]


def test_every_field_the_digest_walks_has_a_codec():
    uncoded = {
        f"{record.__name__}.{f.name}"
        for record in DIGEST_RECORDS
        for f in dataclasses.fields(record)
        if "codec" not in f.metadata
    }
    # the proposal's action and a log entry's kept read bytes stay out of the digest
    assert uncoded == {"Proposal.action", "LogEntry.public_bytes"}


ids = st.binary(min_size=32, max_size=32)
texts = st.text(st.characters(blacklist_categories=["Cs"]), max_size=8)
u64s = st.integers(0, U64_MAX)
recoveries = st.one_of(
    st.just(ProviderOnly()),
    st.just(ProviderPlusSecurity()),
    st.builds(Guardians, st.frozensets(ids, max_size=3), u64s),
)
accounts = st.builds(
    Account,
    account_id=ids,
    public_key=st.binary(max_size=33),
    roles=st.sets(st.sampled_from(Role)),
    balance=st.integers(0, 2**40),
    frozen=st.booleans(),
    provider=st.none() | ids,
    recovery=recoveries,
)
# a policy has an expiry height exactly when it is timed, as genesis stores
# it; the encoding writes none as 0, so a genesis expiry is at least 1
policies = st.builds(
    lambda key, value, permanence, expiry: Policy(
        key, value, permanence, expiry if permanence is Permanence.TIMED_EXPIRATION else None
    ),
    texts,
    u64s | st.binary(max_size=8),
    st.sampled_from(Permanence),
    st.integers(1, U64_MAX),
)
records = st.builds(
    ValidatorRecord,
    account=ids,
    security_gateways=st.lists(texts, max_size=2).map(tuple),
    visibility_gateways=st.lists(texts, max_size=2).map(tuple),
    validation_server=texts,
    view_key=st.binary(max_size=33),
    contact=texts,
)


@st.composite
def genesis_states(draw) -> LedgerState:
    state = LedgerState(scheme=draw(st.sampled_from(["mock", "ed25519"])))
    for acct in draw(st.lists(accounts, max_size=4, unique_by=lambda a: a.account_id)):
        state.accounts[acct.account_id] = acct
        state.supply.minted += acct.balance
    state.policies = {p.key: p for p in draw(st.lists(policies, max_size=4, unique_by=lambda p: p.key))}
    state.validator_registry = {r.account: r for r in draw(st.lists(records, max_size=3, unique_by=lambda r: r.account))}
    return state


@settings(max_examples=150, deadline=None)
@given(genesis_states(), st.dictionaries(texts, ids, max_size=2))
def test_genesis_doc_round_trips(state, names):
    """A genesis decodes to its state and names, keeping the shared role sets and single field-less members."""
    genesis = genesis_doc(state, names)
    loaded, loaded_names = decode_genesis(genesis)
    assert (loaded, loaded_names) == (state, names)
    assert genesis_doc(loaded, names) == genesis
    for aid, acct in state.accounts.items():
        assert loaded.accounts[aid].roles is acct.roles
        if not dataclasses.fields(acct.recovery):
            assert loaded.accounts[aid].recovery is acct.recovery


@settings(max_examples=50, deadline=None)
@given(genesis_states(), st.dictionaries(texts, ids, max_size=2))
def test_the_state_part_of_a_genesis_hashes_to_its_digest(state, names):
    """The names follow the state part, whose SHA-256 is the state's digest."""
    w = Writer()
    w.count(len(names))
    for name in sorted(names):
        w.text(name)
        w.bytes_(names[name])
    genesis, names_part = genesis_doc(state, names), w.getvalue()
    assert genesis.endswith(names_part)
    assert hashlib.sha256(genesis[: len(genesis) - len(names_part)]).digest() == state.digest()
