"""Each payload kind is described once; every table derived from it is complete.

Adding a kind means one class declared with ``payloads.payload_kind``, one
entry in ``engine.HANDLERS`` and one in ``sim.TX_STEPS``, plus a round-trip
case in ``test_payloads.ALL_PAYLOADS``.  Adding a query means one member of
``payloads.QUERY`` and one entry in ``sim.QUERY_STEPS``.  Leaving out any of
them fails here.
"""

from __future__ import annotations

from collections import Counter

import pytest

from rolechain.codec import Reader, Writer
from rolechain.engine import HANDLERS
from rolechain.payloads import PAYLOAD, PAYLOAD_KINDS, QUERY, Payload, encode_payload
from rolechain.sim import QUERY_STEPS, TX_STEPS, Simulation, parse_scenario

from test_payloads import ALL_PAYLOADS

# every class declared as a payload, and every subclass of Payload even if
# its declaration was forgotten
CLASSES = sorted({*PAYLOAD_KINDS, *Payload.__subclasses__()}, key=lambda cls: cls.__name__)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_payload_class_is_described_everywhere(cls):
    assert PAYLOAD.by_tag.get(getattr(cls, "TAG", None)) is cls, "no tag, or one another class took"
    assert PAYLOAD_KINDS.get(cls) == cls.KIND
    assert isinstance(cls.MANAGEMENT, bool)
    assert cls in HANDLERS, "no engine handler"
    assert any(type(p) is cls for p in ALL_PAYLOADS), "no round-trip case in ALL_PAYLOADS"
    if cls.KIND != "discrepancy_event":  # only the comparator files these
        assert cls.KIND in TX_STEPS, "no sim builder"


def test_tags_and_kinds_are_unique_and_tables_hold_no_strays():
    assert len({cls.TAG for cls in CLASSES}) == len(CLASSES)
    assert len(set(PAYLOAD_KINDS.values())) == len(CLASSES)
    assert set(HANDLERS) == set(CLASSES)
    assert set(TX_STEPS) == set(PAYLOAD_KINDS.values()) - {"discrepancy_event"}


@pytest.mark.parametrize("payload", ALL_PAYLOADS, ids=lambda p: type(p).__name__)
def test_encode_payload_matches_the_field_description(payload):
    """``encode_payload`` and ``decode_payload`` take proposals directly; the bytes match."""
    described = Writer()
    PAYLOAD.encode(described, payload)
    direct = Writer()
    encode_payload(direct, payload)
    assert direct.getvalue() == described.getvalue()
    r = Reader(described.getvalue())
    assert PAYLOAD.decode(r) == payload
    r.require_end()


def test_every_query_has_exactly_one_query_step():
    sim = Simulation(parse_scenario({"ticks": 0, "actors": [{"name": "a", "roles": ["validator"]}]}))
    body = {"as": "a", "validator": "a"}  # every required field but kind
    built = Counter(type(step.act(sim, {**body, "kind": kind}, "a")) for kind, step in QUERY_STEPS.items())
    assert built == Counter(QUERY.by_tag.values())
