"""Each compiled encoder writes what its declaration says, and keeps every check.

The reference here writes each declared field with ``Writer`` primitives, in
declaration order, from its own description of every field codec.  The
compiled ``FIELDS.encode`` of every payload, query, answer and state record
must give the same bytes, and ``LedgerState.digest`` must be SHA-256 of the
same walk.  Every check an encoder makes must raise CodecError through the
compiled path, and no compiled record encoder may call a codec that has
source.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import re
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rolechain import gateway, ledger, monetary, payloads
from rolechain.codec import BYTES, TEXT, U64_MAX, Tagged, _compile, seq_of
from rolechain.errors import CodecError
from rolechain.gateway import READS
from rolechain.ledger import Account, LedgerState, LogEntry, ProposalStatus
from rolechain.payloads import (
    PAYLOAD,
    QUERY,
    RECOVERY,
    Claimable,
    CreateProposal,
    FiatDirection,
    GatewayDirectory,
    Guardians,
    InterestMode,
    ManagementLog,
    OwnBalance,
    OwnHistory,
    Permanence,
    ProviderOnly,
    ProviderPlusSecurity,
    Role,
    SetPolicy,
    SupplyView,
    Transfer,
    ValidationServerAddress,
    encode_payload,
    tx_signing_bytes,
)
from rolechain.sim import load_scenario, run

from reference import Writer
from test_registry import genesis_states

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

# every record declared with wire_record, and every member of a union
RECORDS = sorted(
    {obj for mod in (ledger, payloads, gateway, monetary) for obj in vars(mod).values() if hasattr(obj, "FIELDS")},
    key=lambda cls: cls.__name__,
)
MEMBERS = [(union, cls) for union in (PAYLOAD, QUERY, RECOVERY) for cls in union.by_tag.values()]


# --- the reference: Writer primitives only ------------------------------------------


def u64(w, v):
    w.u64(v)


def boolean(w, v):
    w.boolean(v)


def raw_bytes(w, v):
    w.bytes_(v)


def text(w, v):
    w.text(v)


def enum_byte(w, v):
    w.u8(v.value)


def enum_text(w, v):
    w.text(v.value)


def optional(inner):
    def write(w, v):
        w.boolean(v is not None)
        if v is not None:
            inner(w, v)

    return write


def blank_for_none(inner, blank):
    return lambda w, v: inner(w, blank if v is None else v)


def sequence(inner, order=list):
    def write(w, values):
        w.count(len(values))
        for v in order(values):
            inner(w, v)

    return write


def by_key(key, value):
    """A count, then each entry in key order: its key (unless ``key`` is None), then its value."""

    def write(w, mapping):
        w.count(len(mapping))
        for k in sorted(mapping):
            if key is not None:
                key(w, k)
            value(w, mapping[k])

    return write


def pair(first, second):
    def write(w, v):
        first(w, v[0])
        second(w, v[1])

    return write


VALUE_TAGS = {int: (1, u64), bytes: (2, raw_bytes), bool: (3, boolean), str: (4, text)}


def tagged_value(w, v):
    tag, inner = VALUE_TAGS[type(v)]
    w.u8(tag)
    inner(w, v)


def record(w, obj):
    """A union member's tag, then each declared field in declaration order."""
    if hasattr(type(obj), "TAG"):
        w.u8(type(obj).TAG)
    for f in dataclasses.fields(obj):
        if "codec" not in f.metadata:
            continue
        when = f.metadata["when"]
        if when is None or getattr(obj, when[0]) == when[1]:
            spec(type(obj), f)[0](w, getattr(obj, f.name))


def framed(w, v):
    inner = Writer()
    record(inner, v)
    w.bytes_(inner.getvalue())


def written(write, value) -> bytes:
    w = Writer()
    write(w, value)
    return w.getvalue()


# --- each field's reference writer and values, by annotation ------------------------

ids = st.binary(max_size=40)
u64s = st.integers(0, U64_MAX)
texts = st.text(max_size=8)
id_sets = st.frozensets(ids, max_size=3)
recoveries = st.one_of(st.just(ProviderOnly()), st.just(ProviderPlusSecurity()), st.builds(Guardians, id_sets, u64s))
log_data = st.dictionaries(texts, u64s | ids | st.booleans() | texts, max_size=3)

BY_TYPE = {
    "int": (u64, u64s),
    "bool": (boolean, st.booleans()),
    "bytes": (raw_bytes, ids),
    "str": (text, texts),
    "bytes | None": (optional(raw_bytes), st.none() | ids),
    "str | None": (blank_for_none(text, ""), st.none() | texts),
    "int | bytes": (tagged_value, u64s | ids),
    "frozenset[bytes]": (sequence(raw_bytes, sorted), id_sets),
    "frozenset[bytes] | None": (optional(sequence(raw_bytes, sorted)), st.none() | id_sets),
    "set[bytes]": (sequence(raw_bytes, sorted), st.sets(ids, max_size=3)),
    "frozenset[Role]": (sequence(enum_byte, sorted), st.frozensets(st.sampled_from(Role))),
    "tuple[bytes, ...]": (sequence(raw_bytes), st.lists(ids, max_size=3).map(tuple)),
    "tuple[str, ...]": (sequence(text), st.lists(texts, max_size=3).map(tuple)),
    "tuple[tuple[bytes, bytes], ...]": (
        sequence(pair(raw_bytes, raw_bytes)),
        st.lists(st.tuples(ids, ids), max_size=3).map(tuple),
    ),
    "list[tuple[int, int]]": (sequence(pair(u64, u64)), st.lists(st.tuples(u64s, u64s), max_size=3)),
    **{kind.__name__: (enum_byte, st.sampled_from(kind)) for kind in (Role, Permanence, InterestMode, FiatDirection)},
    "ProposalStatus": (enum_text, st.sampled_from(ProposalStatus)),
    "RecoveryPolicy": (record, recoveries),
    "RecoveryPolicy | None": (optional(record), st.none() | recoveries),
    "ValidatorRecord": (record, st.deferred(lambda: instances(payloads.ValidatorRecord))),
    "SignedQueryResponse": (record, st.deferred(lambda: instances(payloads.SignedQueryResponse))),
    # one level of nesting: the action is any payload but a proposal
    "Payload": (framed, st.deferred(lambda: st.sampled_from(sorted(NESTED, key=lambda c: c.TAG)).flatmap(instances))),
}
# fields whose annotation leaves their codec open
BY_FIELD = {
    "Policy.expiry_height": (blank_for_none(u64, 0), st.none() | u64s),
    "SetPolicy.expiry_height": (u64, st.none() | u64s),
    "SetInterestRule.rule_id": (optional(u64), st.none() | u64s),
    "LogEntry.data": (by_key(text, tagged_value), log_data),
    "PublicEntry.data": (by_key(text, tagged_value), log_data),
    "Supply.rules": (by_key(u64, u64), st.dictionaries(u64s, u64s, max_size=3)),
    "Allowances.ledgers": (
        by_key(u64, record),
        st.dictionaries(u64s, st.deferred(lambda: instances(ledger.AllowanceLedger)), max_size=3),
    ),
}
NESTED = set(PAYLOAD.by_tag.values()) - {CreateProposal}


def spec(cls, f):
    """The reference writer and the values of field ``f`` of ``cls``."""
    return BY_FIELD.get(f"{cls.__name__}.{f.name}") or BY_TYPE[f.type]


@cache
def instances(cls):
    """Values of ``cls`` that encode: a field written only ``when`` another has a value is then given."""
    fields = [f for f in dataclasses.fields(cls) if f.init]
    kwargs = {f.name: spec(cls, f)[1] if "codec" in f.metadata else st.none() for f in fields}
    values = st.builds(cls, **kwargs)
    for f in fields:
        if "codec" in f.metadata and f.metadata["when"] is not None:
            (other, value), name = f.metadata["when"], f.name
            values = values.filter(lambda obj, other=other, value=value, name=name: getattr(obj, other) != value or getattr(obj, name) is not None)
    return values


def test_every_field_has_a_reference():
    for cls in RECORDS + [cls for _, cls in MEMBERS]:
        for f in dataclasses.fields(cls):
            if "codec" in f.metadata:
                assert f"{cls.__name__}.{f.name}" in BY_FIELD or f.type in BY_TYPE, f"{cls.__name__}.{f.name}"


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_record_encoder_matches_the_reference(cls, data):
    obj = data.draw(instances(cls))
    assert written(cls.FIELDS.encode, obj) == written(record, obj)


@pytest.mark.parametrize("union, cls", MEMBERS, ids=lambda x: x.__name__ if isinstance(x, type) else x.name)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_union_member_encoder_matches_the_reference(union, cls, data):
    obj = data.draw(instances(cls))
    assert written(union.encode, obj) == written(record, obj)
    if union is PAYLOAD:
        assert written(encode_payload, obj) == written(record, obj)


# each read kind's answer: its reference writer and values
ANSWERS = {
    OwnBalance: (u64, u64s),
    Claimable: (u64, u64s),
    OwnHistory: (sequence(record), st.lists(instances(gateway.PublicEntry), max_size=3)),
    ManagementLog: (sequence(record), st.lists(instances(gateway.PublicEntry), max_size=3)),
    SupplyView: (record, instances(monetary.Supply)),
    GatewayDirectory: (sequence(record), st.lists(instances(gateway.DirectoryEntry), max_size=3)),
    ValidationServerAddress: (text, texts),
}


def test_every_read_kind_has_a_reference_answer():
    assert set(ANSWERS) == set(READS)


@pytest.mark.parametrize("query", sorted(ANSWERS, key=lambda cls: cls.__name__), ids=lambda cls: cls.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_answer_encoder_matches_the_reference(query, data):
    write, values = ANSWERS[query]
    answer = data.draw(values)
    assert written(READS[query].answer.encode, answer) == written(write, answer)


def reference_digest(state: LedgerState) -> bytes:
    w = Writer()
    w.text(state.scheme)
    w.u64(state.height)
    w.u64(state.supply.minted)
    w.u64(state.supply.burned)
    table = by_key(None, record)
    for records in (state.accounts, state.policies, state.proposals, state.interest_rules):
        table(w, records)
    by_key(raw_bytes, record)(w, state.allowances)
    table(w, state.validator_registry)
    sequence(record)(w, state.tx_log)
    return hashlib.sha256(w.getvalue()).digest()


@settings(max_examples=100, deadline=None)
@given(genesis_states())
def test_genesis_digest_matches_the_reference(state):
    assert state.digest() == reference_digest(state)


@pytest.mark.parametrize("name", ["bootstrap_and_transfer", "corrupt_gateway", "interest_pull", "interest_settle"])
def test_scenario_digest_matches_the_reference(name):
    """A run's final state holds proposals, interest rules, allowances and a log."""
    _, sim = run(load_scenario(SCENARIOS / f"{name}.yaml"))
    assert sim.state.tx_log
    assert sim.state.digest() == reference_digest(sim.state)


# --- checks ----------------------------------------------------------------------------

ID = bytes(32)


@pytest.mark.parametrize("amount", [-1, 2**64])
def test_an_amount_outside_u64_is_a_codec_error(amount):
    for write in (
        lambda: written(encode_payload, Transfer(ID, amount)),
        lambda: tx_signing_bytes(ID, 0, Transfer(ID, amount)),
        lambda: written(Account.FIELDS.encode, Account(ID, ID, balance=amount)),
        lambda: LedgerState(accounts={ID: Account(ID, ID, balance=amount)}).digest(),
    ):
        with pytest.raises(CodecError, match="u64 out of range"):
            write()


def test_a_float_in_log_data_is_a_codec_error():
    entry = LogEntry(ID, 1, "transfer", None, True, None, False, (), {"amount": 1.5})
    with pytest.raises(CodecError, match="unsupported value type float"):
        written(LogEntry.FIELDS.encode, entry)
    with pytest.raises(CodecError, match="unsupported value type float"):
        LedgerState(tx_log=[entry]).digest()


def test_a_timed_set_policy_without_expiry_is_a_codec_error():
    with pytest.raises(CodecError, match="SetPolicy.expiry_height is required"):
        tx_signing_bytes(ID, 0, SetPolicy("k", 1, Permanence.TIMED_EXPIRATION, None))


def test_lengths_and_counts_past_u32_are_codec_errors():
    class Huge(bytes):
        def __len__(self):
            return 2**32

    class Many(tuple):
        def __len__(self):
            return 2**32

    with pytest.raises(CodecError, match="u32 out of range"):
        written(BYTES.encode, Huge())
    with pytest.raises(CodecError, match="u32 out of range"):
        written(seq_of(BYTES).encode, Many())


def test_an_unknown_union_member_is_a_codec_error():
    with pytest.raises(CodecError, match="unknown recovery type Transfer"):
        written(Account.FIELDS.encode, Account(ID, ID, recovery=Transfer(ID, 1)))


def test_text_with_a_lone_surrogate_is_a_codec_error():
    for write in (
        lambda: Writer().text("a\ud800"),
        lambda: written(TEXT.encode, "a\ud800"),
        lambda: written(PAYLOAD.encode, SetPolicy("a\ud800", 1, Permanence.TEMPORARY)),
    ):
        with pytest.raises(CodecError, match="text is not UTF-8"):
            write()


def test_a_value_of_the_wrong_type_is_a_codec_error():
    for write, message in (
        (lambda: Writer().bytes_("ab"), "expected bytes, not 'ab'"),
        (lambda: written(BYTES.encode, "ab"), "expected bytes, not 'ab'"),
        (lambda: written(BYTES.encode, 5), "wrong type"),
        (lambda: Writer().text(b"ab"), "expected text, not b'ab'"),
        (lambda: written(TEXT.encode, 5), "expected text, not 5"),
        (lambda: written(Account.FIELDS.encode, Account(ID, ID, provider="p")), "expected bytes"),
        (lambda: written(PAYLOAD.encode, SetPolicy("k", 1, 3)), "wrong type"),
    ):
        with pytest.raises(CodecError, match=message):
            write()


def test_no_compiled_encoder_calls_a_codec_that_has_source():
    """A record calls only a codec without source, or its union's encoder for a member declared later."""
    classes = RECORDS + [cls for _, cls in MEMBERS]
    sourceless = {
        f.metadata["codec"].encode
        for cls in classes
        for f in dataclasses.fields(cls)
        if "codec" in f.metadata and f.metadata["codec"].source is None
    }
    sources = [cls.FIELDS.source for cls in RECORDS] + [union._codecs[cls].source for union, cls in MEMBERS]
    encoders = [_compile(source) for source in sources]  # as each first call compiles it
    called = set()
    for encode in encoders:
        for name in re.findall(r"\b(k\d+)\(b, ", encode.source):
            callee = encode.__globals__[name]
            assert callee in sourceless or isinstance(getattr(callee, "__self__", None), Tagged), encode.source
            called.add(callee)
    assert called  # the framed action of a proposal, at least


def test_an_encoder_is_compiled_on_its_first_call():
    """Importing the program compiles nothing, no decoder either; one transfer compiles its own encoder alone."""
    script = """
import rolechain.codec as codec
compiled, reads = [], []
original, original_read = codec._compile, codec._compile_read
codec._compile = lambda source: compiled.append(source) or original(source)
codec._compile_read = lambda source: reads.append(source) or original_read(source)
import rolechain.cli
from rolechain.payloads import PAYLOAD, Transfer
print(len(compiled) + len(reads))
PAYLOAD.encode(bytearray(), Transfer(bytes(32), 1))
PAYLOAD.encode(bytearray(), Transfer(bytes(32), 2))
print(len(compiled))
"""
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.split() == ["0", "1"]
