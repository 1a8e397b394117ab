"""The sim's gateway machinery: what an actor's gateways, view key and fault
set do, wherever and whenever the sim first needs them.

Only validators with registered endpoints receive broadcasts, but a query
step may name any actor's gateway, and an actor that becomes a validator
later registers the view key its label derives.
"""

from __future__ import annotations

import gc

import pytest

from rolechain.chain import import_chain, replay
from rolechain.codec import U64, encoding
from rolechain.engine import view_key_fault
from rolechain.gateway import SecurityGateway, VisibilityGateway
from rolechain.keys import KeyPair, keypair_from_label
from rolechain.payloads import OwnBalance, ProviderOnly, RegisterEndpoints, encode_query
from rolechain.sim import Simulation, parse_scenario, run

SEED = 9


def _u64(value: int) -> bytes:
    return encoding(U64.encode, value)


def _non_validator_gateway_raw(scheme: str) -> dict:
    return {
        "ticks": 4,
        "seed": SEED,
        "scheme": scheme,
        "actors": [
            {"name": "v1", "roles": ["validator"]},
            {"name": "alice", "roles": ["user"], "balance": 50},
            {"name": "bob", "roles": ["user"], "balance": 7},
            {"name": "carol"},  # keys only, no account
        ],
        "steps": [
            {"tick": 2, "query": {"as": "alice", "kind": "own_balance", "gateways": ["bob"], "store": "bal"}},
            {"tick": 2, "query": {"as": "alice", "kind": "own_balance", "gateways": ["bob"], "expect_int": 50}},
            {"tick": 2, "query": {"as": "alice", "kind": "supply", "gateways": ["carol"], "store": "sup"}},
            {
                "tick": 2,
                "query": {"as": "alice", "kind": "own_balance", "account": "bob", "gateways": ["bob"],
                          "expect_error": "NotOwner"},
            },
            {
                "tick": 2,
                "query": {"as": "alice", "kind": "validation_server", "validator": "v1", "gateways": ["carol"],
                          "expect_error": "NotValidator"},
            },
            # an offline gateway is skipped: nothing answers, nothing is stored
            {"tick": 3, "fault": {"actor": "carol", "set": ["offline"]}},
            {"tick": 3, "query": {"as": "alice", "kind": "supply", "gateways": ["carol"], "store": "off"}},
            {"tick": 4, "fault": {"actor": "carol", "set": []}},
            {"tick": 4, "query": {"as": "alice", "kind": "supply", "gateways": ["carol"], "store": "back"}},
        ],
    }


@pytest.mark.parametrize("scheme", ["mock", "ed25519"])
def test_a_query_through_a_non_validator_gateway_is_answered_under_its_label_view_key(scheme):
    report, sim = run(parse_scenario(_non_validator_gateway_raw(scheme)))
    assert report.all_passed, report.assertions
    assert [a.kind for a in report.assertions] == ["query_int", "query_error", "query_error"]

    (answer,) = sim.stored_responses["bal"]
    view = keypair_from_label(scheme, "bob.view", SEED)
    assert answer.validator == sim.aid("bob")
    assert answer.echo == encode_query(OwnBalance(sim.aid("alice")))
    assert answer.result == _u64(50)
    assert answer.as_of_height == 2
    assert answer.signature == view.sign(answer.signing_bytes())
    # bob registered no endpoints, so no reader can check the signature
    assert view_key_fault(sim.state, answer) is not None

    (supply,) = sim.stored_responses["sup"]
    carol_view = keypair_from_label(scheme, "carol.view", SEED)
    assert supply.validator == sim.aid("carol")
    assert supply.signature == carol_view.sign(supply.signing_bytes())
    assert "off" not in sim.stored_responses
    (back,) = sim.stored_responses["back"]
    assert back.as_of_height == 4
    assert back.signature == carol_view.sign(back.signing_bytes())


def _late_validator_raw(scheme: str) -> dict:
    return {
        "ticks": 4,
        "seed": SEED,
        "scheme": scheme,
        "actors": [
            {"name": "mgr", "roles": ["platform_manager"]},
            {"name": "v1", "roles": ["validator"]},
            {"name": "v2", "roles": ["user"]},
            {"name": "alice", "roles": ["user"], "balance": 5},
        ],
        "steps": [
            {"tick": 1, "tx": {"from": "mgr", "kind": "bootstrap_validators", "validators": ["v1", "v2"]}},
            {"tick": 2, "tx": {"from": "v2", "kind": "register_endpoints"}},
            {"tick": 2, "assert": {"kind": "validators", "equals": ["v1", "v2"]}},
            {"tick": 4, "query": {"as": "alice", "kind": "own_balance", "gateways": ["v2"], "store": "q"}},
        ],
    }


@pytest.mark.parametrize("scheme", ["mock", "ed25519"])
def test_a_validator_registering_after_genesis_publishes_its_label_view_key(scheme):
    report, sim = run(parse_scenario(_late_validator_raw(scheme)))
    assert report.all_passed, report.assertions
    view_key = keypair_from_label(scheme, "v2.view", SEED).public_key

    (tx,) = [tx for block in sim.chain.blocks for tx in block.txs if isinstance(tx.payload, RegisterEndpoints)]
    assert sim.receipts[tx.tx_id].ok
    assert tx.payload.record.view_key == view_key
    assert sim.state.validator_registry[sim.aid("v2")].view_key == view_key

    # its gateway signs reads under that registered key
    (answer,) = sim.stored_responses["q"]
    assert answer.validator == sim.aid("v2")
    assert view_key_fault(sim.state, answer) is None


# --- what a set-up and a replay keep alive ---------------------------------------------

ACTORS, VALIDATORS = 200, 3


def _crowd_raw() -> dict:
    users = [f"u{i}" for i in range(ACTORS - VALIDATORS)]
    return {
        "ticks": 6,
        "seed": SEED,
        "actors": [{"name": f"v{i}", "roles": ["validator"]} for i in range(VALIDATORS)]
        + [{"name": name, "roles": ["user"], "balance": 10} for name in users],
        "steps": [
            {"tick": t, "tx": {"from": users[i], "kind": "transfer", "to": users[-1 - i], "amount": 1}}
            for t in range(1, 5)
            for i in range(t * 10, t * 10 + 10)
        ]
        + [{"tick": 5, "query": {"as": "u0", "kind": "own_balance"}}],
    }


def _instances(*classes: type) -> int:
    gc.collect()
    return sum(type(o) in classes for o in gc.get_objects())


def test_set_up_builds_gateways_only_where_one_runs():
    scenario = parse_scenario(_crowd_raw())
    gateways, keypairs = _instances(SecurityGateway, VisibilityGateway), _instances(KeyPair)
    sim = Simulation(scenario)
    assert _instances(SecurityGateway, VisibilityGateway) - gateways <= VALIDATORS
    # a signing key per actor and escrow, and a view key per genesis validator
    assert _instances(KeyPair) - keypairs <= ACTORS + VALIDATORS + 1

    report = sim.run()
    assert report.all_passed and report.blocks_produced == 6
    assert len(sim.sec_gateways) == len(sim.vis_gateways) == VALIDATORS
    assert set(sim.view_keys) == {f"v{i}" for i in range(VALIDATORS)}


def test_a_replayed_state_holds_one_provider_only_instance():
    _, sim = run(parse_scenario(_crowd_raw()))
    _, state = replay(*import_chain(sim.export()))
    assert state.digest() == sim.state.digest()
    assert all(type(acct.recovery) is ProviderOnly for acct in state.accounts.values())
    assert _instances(ProviderOnly) <= 1
