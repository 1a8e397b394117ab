"""Each compiled decoder reads what its declaration says, and keeps every check.

The reference here reads each declared field with ``Reader`` primitives, in
declaration order, from its own description of every field codec.  The
compiled decoder of every record, union member, read answer, transaction
and block must give what the reference gives for any frame: the same value
from a frame that decodes, and a CodecError from every other one, be it
truncated, followed by a stray byte, or holding a boolean byte of 2, an
unknown enum value or tag, set elements or map keys out of order, or text
that is not UTF-8.
"""

from __future__ import annotations

import dataclasses
import struct

import pytest
from hypothesis import given, settings, strategies as st

from rolechain.chain import Block, decode_block
from rolechain.codec import whole
from rolechain.errors import CodecError
from rolechain.gateway import READS, DirectoryEntry, PublicEntry
from rolechain.ledger import AllowanceLedger
from rolechain.monetary import Supply
from rolechain.payloads import (
    PAYLOAD,
    RECOVERY,
    BootstrapValidators,
    Claimable,
    FiatDirection,
    GatewayDirectory,
    InterestMode,
    ManagementLog,
    OwnBalance,
    OwnHistory,
    Permanence,
    RevokeRole,
    Role,
    SetFrozen,
    SetPolicy,
    SignedQueryResponse,
    SupplyView,
    Transaction,
    ValidationServerAddress,
    ValidatorRecord,
    decode_transaction,
    sign_transaction,
)
from rolechain.keys import keypair_from_label

from reference import Reader, Writer
from test_compiled_encoders import ANSWERS, MEMBERS, RECORDS, ids, instances, u64s, written

# --- the reference: Reader primitives only ------------------------------------------


def u64(r):
    return r.u64()


def boolean(r):
    return r.boolean()


def raw_bytes(r):
    return r.bytes_()


def text(r):
    return r.text()


def enum_byte(kind):
    return lambda r: r.enum(kind)


def optional(inner):
    return lambda r: inner(r) if r.boolean() else None


def none_for_blank(inner, blank):
    def read(r):
        value = inner(r)
        return None if value == blank else value

    return read


def sequence(inner):
    return lambda r: tuple([inner(r) for _ in range(r.count())])


def ascending_set(inner):
    def read(r):
        values = [inner(r) for _ in range(r.count())]
        if sorted(set(values)) != values:
            raise CodecError("set elements out of order")
        return frozenset(values)

    return read


def by_key(key, value):
    def read(r):
        entries = [(key(r), value(r)) for _ in range(r.count())]
        mapping = dict(entries)
        if sorted(mapping) != [k for k, _ in entries]:
            raise CodecError("map keys out of order")
        return mapping

    return read


def pair(first, second):
    return lambda r: (first(r), second(r))


VALUE_TAGS = {1: u64, 2: raw_bytes, 3: boolean, 4: text}


def tagged_value(r):
    tag = r.u8()
    if tag not in VALUE_TAGS:
        raise CodecError(f"unknown value tag {tag}")
    return VALUE_TAGS[tag](r)


def fields(cls):
    """Each declared field of ``cls`` in declaration order, a field written ``when`` another has a value read only then."""

    def read(r):
        values = {}
        for f in dataclasses.fields(cls):
            when = f.metadata["when"]
            if when is None or values[when[0]] == when[1]:
                values[f.name] = reader(cls, f)(r)
            else:
                values[f.name] = None
        return cls(**values)

    return read


def union(tagged):
    def read(r):
        tag = r.u8()
        if tag not in tagged.by_tag:
            raise CodecError(f"unknown tag {tag}")
        return fields(tagged.by_tag[tag])(r)

    return read


def framed(inner):
    def read(r):
        body = Reader(r.bytes_())
        value = inner(body)
        body.require_end()
        return value

    return read


def transaction(r):
    if bytes(r.u8() for _ in range(3)) != b"tx:":
        raise CodecError("missing transaction prefix")
    return Transaction(raw_bytes(r), u64(r), union(PAYLOAD)(r), raw_bytes(r))


def block(r):
    if bytes(r.u8() for _ in range(4)) != b"blk:":
        raise CodecError("missing block prefix")
    height, prev_hash, publisher, tick = u64(r), raw_bytes(r), raw_bytes(r), u64(r)
    txs = sequence(framed(transaction))(r)
    return Block(height, prev_hash, publisher, tick, txs, raw_bytes(r))


# each field's reference reader, by annotation, then by field where the annotation leaves it open
BY_TYPE = {
    "int": u64,
    "bool": boolean,
    "bytes": raw_bytes,
    "str": text,
    "bytes | None": optional(raw_bytes),
    "str | None": none_for_blank(text, ""),
    "int | bytes": tagged_value,
    "frozenset[bytes]": ascending_set(raw_bytes),
    "frozenset[bytes] | None": optional(ascending_set(raw_bytes)),
    "frozenset[Role]": ascending_set(enum_byte(Role)),
    "tuple[bytes, ...]": sequence(raw_bytes),
    "tuple[str, ...]": sequence(text),
    "tuple[tuple[bytes, bytes], ...]": sequence(pair(raw_bytes, raw_bytes)),
    "list[tuple[int, int]]": sequence(pair(u64, u64)),
    **{kind.__name__: enum_byte(kind) for kind in (Role, Permanence, InterestMode, FiatDirection)},
    "RecoveryPolicy": union(RECOVERY),
    "RecoveryPolicy | None": optional(union(RECOVERY)),
    "ValidatorRecord": fields(ValidatorRecord),
    "SignedQueryResponse": fields(SignedQueryResponse),
    "Payload": framed(union(PAYLOAD)),
}
BY_FIELD = {
    "Policy.expiry_height": none_for_blank(u64, 0),
    "SetPolicy.expiry_height": u64,
    "SetInterestRule.rule_id": optional(u64),
    "PublicEntry.data": by_key(text, tagged_value),
    "Supply.rules": by_key(u64, u64),
    "Allowances.ledgers": by_key(u64, fields(AllowanceLedger)),
}


def reader(cls, f):
    return BY_FIELD.get(f"{cls.__name__}.{f.name}") or BY_TYPE[f.type]


def outcome(read, frame: bytes):
    """What ``read`` makes of all of ``frame``: ``("ok", value)`` or ``("error", None)`` for a CodecError."""
    r = Reader(frame)
    try:
        value = read(r)
        r.require_end()
    except CodecError:
        return "error", None
    return "ok", value


def whole_frame(decode):
    """``decode`` of a whole frame as a Reader-taking function."""

    def read(r):
        value = decode(r._data)
        r._pos = len(r._data)
        return value

    return read


def framed_by(read):
    """The compiled ``read(data, pos)`` of a whole frame (see ``codec.whole``) as a Reader-taking function."""
    return whole_frame(lambda data: whole(read, data))


# every decoder under test: name -> (compiled, reference, values, encode)
DECODABLE = [cls for cls in RECORDS if cls.FIELDS.read is not None]
CASES = {
    **{cls.__name__: (framed_by(cls.FIELDS.read), fields(cls), instances(cls), cls.FIELDS.encode) for cls in DECODABLE},
    **{
        f"{tagged.name}.{cls.__name__}": (framed_by(tagged.read), union(tagged), instances(cls), tagged.encode)
        for tagged, cls in MEMBERS
    },
    **{
        f"answer.{query.__name__}": (framed_by(READS[query].answer.read), reference, ANSWERS[query][1], READS[query].answer.encode)
        for query, reference in {
            OwnBalance: u64,
            Claimable: u64,
            OwnHistory: sequence(fields(PublicEntry)),
            ManagementLog: sequence(fields(PublicEntry)),
            SupplyView: fields(Supply),
            GatewayDirectory: sequence(fields(DirectoryEntry)),
            ValidationServerAddress: text,
        }.items()
    },
}
transactions = st.builds(
    Transaction, ids, u64s, st.sampled_from(sorted(PAYLOAD.by_tag.values(), key=lambda c: c.TAG)).flatmap(instances), st.binary(max_size=8)
)
FRAMES = {
    "Transaction": (whole_frame(decode_transaction), transaction, transactions, lambda w, tx: w.raw(tx.encode())),
    "Block": (
        whole_frame(decode_block),
        block,
        st.builds(Block, u64s, ids, ids, u64s, st.lists(transactions, max_size=2).map(tuple), st.binary(max_size=8)),
        lambda w, b: w.raw(b.encode()),
    ),
}


def test_every_record_but_those_holding_more_than_their_encoding_decodes():
    assert {cls.__name__ for cls in RECORDS if cls not in DECODABLE} == {"Proposal", "LogEntry"}


# 2 is no boolean, 0x7F no enum member or tag, and 0xFF no UTF-8 byte, or
# the top byte of a length past the frame
SWEEP_VALUES = (2, 0x7F, 0xFF)


def _agree(compiled, reference, frame: bytes) -> str:
    got, expected = outcome(compiled, frame), outcome(reference, frame)
    assert got == expected, frame.hex()
    return got[0]


@pytest.mark.parametrize("name", sorted(CASES) + sorted(FRAMES))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_compiled_decoder_matches_the_reference(name, data):
    compiled, reference, values, encode = {**CASES, **FRAMES}[name]
    frame = written(encode, data.draw(values))
    kind, value = outcome(compiled, frame)
    assert (kind, value) == outcome(reference, frame)
    assert written(encode, value) == frame
    assert _agree(compiled, reference, frame + b"\x00") == "error"
    if frame:
        assert _agree(compiled, reference, frame[:-1]) == "error"
    for i in range(len(frame)):
        for byte in {*SWEEP_VALUES, frame[i] ^ 1} - {frame[i]}:
            _agree(compiled, reference, frame[:i] + bytes([byte]) + frame[i + 1 :])


# --- each fault, on a frame that holds it ------------------------------------------------

MGR = keypair_from_label("mock", "mgr", 0)
ID_A, ID_B = sorted([b"\x01" * 32, b"\x02" * 32])


def _tx(payload) -> bytes:
    return sign_transaction(MGR, MGR.account_id, 0, payload).encode()


def _replaced(frame: bytes, old: bytes, new: bytes) -> bytes:
    assert frame.count(old) == 1
    return frame.replace(old, new)


def _fault_frames() -> dict[str, tuple[object, object, bytes]]:
    tx = whole_frame(decode_transaction), transaction
    frozen = _tx(SetFrozen(ID_A, True))
    revoke = _tx(RevokeRole(ID_A, Role.CURRENCY_MANAGER))
    validators = _tx(BootstrapValidators(frozenset({ID_A, ID_B})))
    policy = _tx(SetPolicy("key", 1, Permanence.TEMPORARY))
    w = Writer()
    Supply.FIELDS.encode(w, Supply(1, 0, {1: 5, 2: 6}))
    supply = w.getvalue()
    return {
        "truncated": (*tx, frozen[:-1]),
        "trailing byte": (*tx, frozen + b"\x00"),
        "bool byte 2": (*tx, _replaced(frozen, ID_A + b"\x01", ID_A + b"\x02")),
        "unknown enum value": (*tx, _replaced(revoke, ID_A + bytes([Role.CURRENCY_MANAGER.value]), ID_A + b"\x7f")),
        "unknown tag": (*tx, _replaced(frozen, struct.pack(">Q", 0) + bytes([SetFrozen.TAG]), struct.pack(">Q", 0) + b"\x7f")),
        "unknown value tag": (*tx, _replaced(policy, b"key\x01", b"key\x7f")),
        "set out of order": (*tx, _replaced(validators, ID_A + b"\x00\x00\x00\x20" + ID_B, ID_B + b"\x00\x00\x00\x20" + ID_A)),
        "map keys out of order": (
            framed_by(Supply.FIELDS.read),
            fields(Supply),
            _replaced(supply, struct.pack(">QQQQ", 1, 5, 2, 6), struct.pack(">QQQQ", 2, 6, 1, 5)),
        ),
        "invalid UTF-8": (*tx, _replaced(policy, b"key", b"k\xffy")),
    }


@pytest.mark.parametrize("fault", sorted(_fault_frames()))
def test_each_fault_is_a_codec_error_in_both(fault):
    compiled, reference, frame = _fault_frames()[fault]
    with pytest.raises(CodecError):
        compiled(Reader(frame))
    assert outcome(reference, frame) == ("error", None)
