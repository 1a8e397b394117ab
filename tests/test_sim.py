from __future__ import annotations

from pathlib import Path

import pytest

from rolechain.errors import ScenarioError
from rolechain.sim import Simulation, load_scenario, parse_scenario, run

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def minimal_raw(**overrides) -> dict:
    raw = {
        "ticks": 0,
        "actors": [{"name": "mgr", "roles": ["platform_manager"]}],
    }
    raw.update(overrides)
    return raw


# --- loading and schema -----------------------------------------------------------

def test_minimal_genesis_only_scenario_runs():
    scenario = parse_scenario(minimal_raw())
    report, sim = run(scenario)
    assert report.blocks_produced == 0
    assert report.assertions == []
    assert report.supply["circulating"] == 0


def test_unknown_top_level_field_rejected():
    with pytest.raises(ScenarioError, match="unknown field 'color'"):
        parse_scenario(minimal_raw(color="blue"))


def test_unknown_actor_field_rejected():
    raw = minimal_raw()
    raw["actors"][0]["shoe_size"] = 42
    with pytest.raises(ScenarioError, match="shoe_size"):
        parse_scenario(raw)


def test_unknown_role_rejected():
    raw = minimal_raw()
    raw["actors"][0]["roles"] = ["archmage"]
    with pytest.raises(ScenarioError, match="archmage"):
        parse_scenario(raw)


def test_undeclared_actor_in_step_rejected():
    raw = minimal_raw(
        ticks=2,
        steps=[{"tick": 1, "tx": {"from": "nobody", "kind": "transfer", "to": "mgr", "amount": 1}}],
    )
    with pytest.raises(ScenarioError, match="nobody"):
        parse_scenario(raw)


def test_step_tick_out_of_range_rejected():
    raw = minimal_raw(
        ticks=2,
        steps=[{"tick": 5, "assert": {"kind": "height", "equals": 5}}],
    )
    with pytest.raises(ScenarioError, match="outside"):
        parse_scenario(raw)


def test_unknown_tx_kind_rejected():
    raw = minimal_raw(
        ticks=1,
        steps=[{"tick": 1, "tx": {"from": "mgr", "kind": "teleport"}}],
    )
    with pytest.raises(ScenarioError, match="teleport"):
        parse_scenario(raw)


def test_unknown_fault_rejected():
    raw = minimal_raw()
    raw["actors"][0]["faults"] = ["gremlins"]
    with pytest.raises(ScenarioError, match="gremlins"):
        parse_scenario(raw)


def test_reserved_escrow_name_rejected():
    raw = minimal_raw()
    raw["actors"].append({"name": "escrow"})
    with pytest.raises(ScenarioError, match="escrow"):
        parse_scenario(raw)


def _with_step(step: dict) -> dict:
    return minimal_raw(
        ticks=1,
        actors=[{"name": "mgr", "roles": ["platform_manager", "user"]}, {"name": "v1", "roles": ["validator"]}],
        steps=[{"tick": 1, **step}],
    )


# each of these raised TypeError (unhashable type) out of parse_scenario
UNHASHABLE_FIELDS = {
    "tx kind": {"tx": {"from": "mgr", "kind": ["transfer"], "to": "mgr", "amount": 1}},
    "revoke_role role": {"tx": {"from": "mgr", "kind": "revoke_role", "target": "mgr", "role": ["x"]}},
    "create_proposal electorate": {
        "tx": {
            "from": "mgr",
            "kind": "create_proposal",
            "electorate": ["x"],
            "action": {"kind": "revoke_role", "target": "v1", "role": "validator"},
        }
    },
    "tx from": {"tx": {"from": ["mgr"], "kind": "transfer", "to": "mgr", "amount": 1}},
    "query account": {"query": {"as": "mgr", "kind": "own_balance", "account": ["mgr"]}},
    "query kind": {"query": {"as": "mgr", "kind": {"a": 1}}},
    "assert kind": {"assert": {"kind": ["height"], "equals": 1}},
}


@pytest.mark.parametrize("step", UNHASHABLE_FIELDS.values(), ids=UNHASHABLE_FIELDS.keys())
def test_list_or_mapping_where_a_name_belongs_is_a_scenario_error(step):
    with pytest.raises(ScenarioError):
        parse_scenario(_with_step(step))


@pytest.mark.parametrize(
    "actor",
    [
        {"name": ["mgr"]},
        {"name": "a", "roles": [["user"]]},
        {"name": "a", "faults": [{"a": 1}]},
        {"name": "a", "provider": ["mgr"]},
        {"name": "a", "roles": 5},
    ],
    ids=["name", "role", "fault", "provider", "roles-not-a-list"],
)
def test_malformed_actor_fields_are_scenario_errors(actor):
    raw = minimal_raw()
    raw["actors"].append(actor)
    with pytest.raises(ScenarioError):
        parse_scenario(raw)


@pytest.mark.parametrize(
    "step",
    [
        {"fault": {"actor": "v1", "set": 5}},
        {"assert": {"kind": "validators", "equals": None}},
        {"tx": {"from": "mgr", "kind": "bootstrap_validators", "validators": True}},
    ],
    ids=["fault-set", "assert-validators", "tx-validators"],
)
def test_scalar_where_a_list_belongs_is_a_scenario_error(step):
    with pytest.raises(ScenarioError, match="expected a list"):
        parse_scenario(_with_step(step))


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ScenarioError, match="no such scenario"):
        load_scenario(tmp_path / "ghost.yaml")


def test_non_mapping_file_rejected(tmp_path):
    path = tmp_path / "list.yaml"
    path.write_text("- 1\n- 2\n")
    with pytest.raises(ScenarioError, match="mapping"):
        load_scenario(path)


# --- bundled fixtures ---------------------------------------------------------------

@pytest.mark.parametrize(
    "fixture", ["bootstrap_and_transfer", "corrupt_gateway", "interest_pull"]
)
def test_bundled_scenarios_pass(fixture):
    scenario = load_scenario(SCENARIOS / f"{fixture}.yaml")
    report, _ = run(scenario)
    failed = [a for a in report.assertions if not a.ok]
    assert not failed, failed


def test_corrupt_gateway_publishes_event_and_evicts():
    scenario = load_scenario(SCENARIOS / "corrupt_gateway.yaml")
    report, sim = run(scenario)
    assert report.compare_results["q1"] == "evidence"
    assert any(e["kind"] == "discrepancy_event" for e in report.management_log)
    validators = sim.state.validators()
    assert sim.aid("v2") not in validators
    assert len(validators) == 3


def test_same_scenario_same_seed_identical_reports():
    scenario_a = load_scenario(SCENARIOS / "corrupt_gateway.yaml")
    scenario_b = load_scenario(SCENARIOS / "corrupt_gateway.yaml")
    report_a, _ = run(scenario_a)
    report_b, _ = run(scenario_b)
    assert report_a.to_json() == report_b.to_json()
    assert report_a.state_digest == report_b.state_digest


def test_different_seed_changes_digest():
    scenario_a = load_scenario(SCENARIOS / "bootstrap_and_transfer.yaml")
    scenario_b = load_scenario(SCENARIOS / "bootstrap_and_transfer.yaml")
    scenario_b.seed = 43
    report_a, _ = run(scenario_a)
    report_b, _ = run(scenario_b)
    assert report_a.state_digest != report_b.state_digest


def test_report_balances_equal_ledger_exactly():
    scenario = load_scenario(SCENARIOS / "interest_pull.yaml")
    report, sim = run(scenario)
    for name, balance in report.balances.items():
        aid = sim.keys[name].account_id
        assert sim.state.accounts[aid].balance == balance


# --- behaviour under faults -----------------------------------------------------------

def _offline_validator_raw() -> dict:
    return {
        "ticks": 10,
        "seed": 5,
        "actors": [
            {"name": "alice", "roles": ["user"], "balance": 50},
            {"name": "bob", "roles": ["user"]},
            {"name": "v1", "roles": ["validator"]},
            {"name": "v2", "roles": ["validator"]},
            {"name": "v3", "roles": ["validator"]},
            {"name": "v4", "roles": ["validator"]},
        ],
        "steps": [
            {"tick": 3, "fault": {"actor": "v2", "set": ["offline"]}},
            {"tick": 4, "tx": {"from": "alice", "kind": "transfer", "to": "bob", "amount": 5}},
            {"tick": 8, "fault": {"actor": "v2", "set": []}},
            {"tick": 10, "assert": {"kind": "balance", "account": "bob", "equals": 5}},
            {"tick": 10, "assert": {"kind": "height", "equals": 10}},
        ],
    }


def test_offline_validator_does_not_stall_chain():
    report, sim = run(parse_scenario(_offline_validator_raw()))
    assert report.blocks_produced == 10
    assert report.all_passed
    # the offline validator published nothing while down
    v2 = sim.aid("v2")
    down = [b.publisher for b in sim.chain.blocks if 3 <= b.height <= 8]
    assert v2 not in down


def test_single_censoring_gateway_cannot_block_a_sender():
    raw = {
        "ticks": 4,
        "actors": [
            {"name": "alice", "roles": ["user"], "balance": 10},
            {"name": "bob", "roles": ["user"]},
            {"name": "v1", "roles": ["validator"], "faults": ["censor_all"]},
            {"name": "v2", "roles": ["validator"]},
        ],
        "steps": [
            {"tick": 1, "tx": {"from": "alice", "kind": "transfer", "to": "bob", "amount": 10}},
            {"tick": 4, "assert": {"kind": "balance", "account": "bob", "equals": 10}},
        ],
    }
    report, _ = run(parse_scenario(raw))
    assert report.all_passed


def test_spacing_rule_never_violated_in_produced_schedule():
    report, sim = run(parse_scenario(_offline_validator_raw()))
    publishers = [b.publisher for b in sim.chain.blocks if b.height > 0]
    spacing = 2  # floor(0.5 * 4)
    for i, publisher in enumerate(publishers):
        assert publisher not in publishers[max(0, i - spacing) : i]


def test_rotate_key_step_through_sim():
    raw = {
        "ticks": 6,
        "actors": [
            {"name": "prov", "roles": ["account_provider"]},
            {"name": "alice", "roles": ["user"], "balance": 30, "provider": "prov"},
            {"name": "bob", "roles": ["user"]},
            {"name": "v1", "roles": ["validator"]},
        ],
        "steps": [
            {
                "tick": 2,
                "tx": {
                    "from": "prov",
                    "kind": "rotate_key",
                    "target": "alice",
                    "new_key_label": "alice-fresh",
                    "approvers": ["prov"],
                },
            },
            # signed with the rotated key, sent from the same account id
            {"tick": 4, "tx": {"from": "alice", "kind": "transfer", "to": "bob", "amount": 30}},
            {"tick": 6, "assert": {"kind": "balance", "account": "bob", "equals": 30}},
            {"tick": 6, "assert": {"kind": "log_contains", "entry_kind": "rotate_key"}},
        ],
    }
    report, sim = run(parse_scenario(raw))
    assert report.all_passed, [a for a in report.assertions if not a.ok]
    # the ledger account still lives under the original id with the new key
    acct = sim.state.accounts[sim.aid("alice")]
    assert acct.public_key == sim.keys["alice"].public_key


def test_ed25519_scheme_end_to_end():
    raw = {
        "ticks": 4,
        "scheme": "ed25519",
        "actors": [
            {"name": "alice", "roles": ["user"], "balance": 50},
            {"name": "bob", "roles": ["user"]},
            {"name": "v1", "roles": ["validator"]},
            {"name": "v2", "roles": ["validator"]},
        ],
        "steps": [
            {"tick": 1, "tx": {"from": "alice", "kind": "transfer", "to": "bob", "amount": 20}},
            {"tick": 2, "query": {"as": "bob", "kind": "own_balance", "expect_int": 20}},
            {"tick": 4, "assert": {"kind": "balance", "account": "bob", "equals": 20}},
        ],
    }
    report_a, _ = run(parse_scenario(raw))
    report_b, _ = run(parse_scenario(raw))
    assert report_a.all_passed
    assert report_a.to_json() == report_b.to_json()  # ed25519 signing is deterministic


def test_multi_role_account_acts_in_both_roles():
    raw = {
        "ticks": 3,
        "actors": [
            {"name": "hybrid", "roles": ["user", "validator"], "balance": 40},
            {"name": "bob", "roles": ["user"]},
        ],
        "steps": [
            {"tick": 1, "tx": {"from": "hybrid", "kind": "transfer", "to": "bob", "amount": 15}},
            {"tick": 3, "assert": {"kind": "balance", "account": "bob", "equals": 15}},
        ],
    }
    report, sim = run(parse_scenario(raw))
    assert report.all_passed
    # the same account also published every block
    assert all(b.publisher == sim.aid("hybrid") for b in sim.chain.blocks[1:])


def test_invalid_genesis_recovery_is_schema_error():
    raw = {
        "ticks": 1,
        "actors": [
            {"name": "guard", "roles": ["user"]},
            {
                "name": "alice",
                "roles": ["user"],
                "recovery": {"guardians": ["guard"], "threshold": 3},
            },
            {"name": "v1", "roles": ["validator"]},
        ],
    }
    with pytest.raises(ScenarioError, match="threshold"):
        run(parse_scenario(raw))


def test_chain_with_liveness_skips_still_verifies():
    # blocks published out of strict slot order (offline skips) must replay:
    # a verifier without liveness knowledge checks membership plus spacing
    from rolechain.chain import verify_dump

    _, sim = run(parse_scenario(_offline_validator_raw()))
    chain, state = verify_dump(sim.export())
    assert state.digest() == sim.state.digest()
    assert chain.head_hash == sim.chain.head_hash


def test_gateway_pools_hold_no_committed_transaction():
    for fixture in ("bootstrap_and_transfer", "corrupt_gateway", "interest_pull"):
        _, sim = run(load_scenario(SCENARIOS / f"{fixture}.yaml"))
        committed = {tx.tx_id for block in sim.chain.blocks for tx in block.txs}
        assert committed
        for gateway in sim.sec_gateways.values():
            assert not committed & set(gateway.pool)


def test_escrow_as_validator_publishes_blocks_with_transactions():
    raw = minimal_raw(
        ticks=6,
        actors=[
            {"name": "mgr", "roles": ["platform_manager"]},
            {"name": "v1", "roles": ["validator"]},
            {"name": "a", "roles": ["user"], "balance": 50},
            {"name": "b", "roles": ["user"]},
        ],
        steps=[{"tick": 1, "tx": {"from": "mgr", "kind": "bootstrap_validators", "validators": ["v1", "escrow"]}}]
        + [{"tick": t, "tx": {"from": "a", "kind": "transfer", "to": "b", "amount": 1}} for t in range(2, 7)],
    )
    report, sim = run(parse_scenario(raw))
    assert report.blocks_produced == 6
    assert sim.aid("escrow") in {block.publisher for block in sim.chain.blocks}
    assert report.balances["b"] == 5
