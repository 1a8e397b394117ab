from __future__ import annotations

import copy
from pathlib import Path

import pytest

from rolechain.errors import InternalInvariantViolation, RolechainError, ScenarioError
from rolechain.schema import Fields
from rolechain.sim import (
    ACTIONS,
    ACTOR_ENTRY,
    MAX_TICKS,
    POLICY_ENTRY,
    SCENARIO,
    STEP_BODIES,
    Simulation,
    load_scenario,
    parse_scenario,
    run,
)

from conftest import write_behind_the_primitives

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


def test_a_directory_is_a_scenario_error_naming_it(tmp_path):
    with pytest.raises(ScenarioError, match=f"cannot read scenario file {tmp_path}"):
        load_scenario(tmp_path)


def test_a_file_that_is_not_utf8_is_a_scenario_error_naming_it(tmp_path):
    path = tmp_path / "binary.yaml"
    path.write_bytes(b"ticks: 1\n\xff\n")
    with pytest.raises(ScenarioError, match=r"binary\.yaml: not UTF-8 text at byte 9"):
        load_scenario(path)


def test_yaml_nested_past_the_recursion_limit_is_a_scenario_error_naming_the_file(tmp_path):
    path = tmp_path / "deep.yaml"
    path.write_text("ticks: " + "[" * 5_000 + "]" * 5_000 + "\n")
    with pytest.raises(ScenarioError, match=r"deep\.yaml: parse error: nested too deeply"):
        load_scenario(path)


def test_non_mapping_file_rejected(tmp_path):
    path = tmp_path / "list.yaml"
    path.write_text("- 1\n- 2\n")
    with pytest.raises(ScenarioError, match="mapping"):
        load_scenario(path)


# --- bundled fixtures ---------------------------------------------------------------

@pytest.mark.parametrize(
    "fixture", ["bootstrap_and_transfer", "corrupt_gateway", "interest_pull", "interest_settle"]
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


ROTATE_VALIDATOR = {
    "ticks": 3,
    "actors": [
        {"name": "prov", "roles": ["account_provider"]},
        {"name": "v1", "roles": ["validator"], "provider": "prov"},
    ],
    "steps": [
        {
            "tick": 1,
            "tx": {"from": "prov", "kind": "rotate_key", "target": "v1", "new_key_label": "v1-fresh", "approvers": ["prov"]},
        },
        {"tick": 3, "assert": {"kind": "log_contains", "entry_kind": "rotate_key"}},
    ],
}


def test_a_validator_signs_with_its_rotated_key_only_once_the_rotation_commits():
    """The block that carries the rotation is signed with the key the state still holds."""
    report, sim = run(parse_scenario(ROTATE_VALIDATOR))
    assert report.all_passed and report.blocks_produced == 3
    assert sim.state.accounts[sim.aid("v1")].public_key == sim.keys["v1"].public_key
    assert sim.keys["v1"].public_key != sim._keypair("v1").public_key
    assert sim.new_keys == {}


def test_a_failed_rotation_leaves_the_signing_key():
    raw = copy.deepcopy(ROTATE_VALIDATOR)
    raw["actors"].append({"name": "mallory", "roles": ["user"]})
    raw["steps"][0]["tx"]["approvers"] = ["mallory"]  # not the provider: the rotation fails
    raw["steps"][1]["assert"]["present"] = False
    report, sim = run(parse_scenario(raw))
    assert report.all_passed and report.blocks_produced == 3
    assert sim.keys["v1"].public_key == sim._keypair("v1").public_key
    assert sim.state.accounts[sim.aid("v1")].public_key == sim.keys["v1"].public_key


def test_a_lying_gateway_inflates_the_largest_balance_within_u64():
    raw = {
        "ticks": 1,
        "actors": [
            {"name": "v1", "roles": ["validator"], "faults": ["corrupt_results"]},
            {"name": "rich", "roles": ["user"], "balance": 2**64 - 1},
        ],
        "steps": [{"tick": 1, "query": {"as": "rich", "kind": "own_balance", "store": "q"}}],
    }
    report, sim = run(parse_scenario(raw))
    [response] = sim.stored_responses["q"]
    assert response.result == (99).to_bytes(8, "big")  # 2**64 - 1 + 100, wrapped


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
    from rolechain.chain import import_chain, replay

    _, sim = run(parse_scenario(_offline_validator_raw()))
    chain, state = replay(*import_chain(sim.export()))
    assert state.digest() == sim.state.digest()
    assert chain.head_hash == sim.chain.head_hash


def test_gateway_pools_hold_no_committed_transaction():
    # pools are keyed by frame, so committed transactions are compared as frames
    for fixture in ("bootstrap_and_transfer", "corrupt_gateway", "interest_pull", "interest_settle"):
        _, sim = run(load_scenario(SCENARIOS / f"{fixture}.yaml"))
        committed = {tx.encode() for block in sim.chain.blocks for tx in block.txs}
        assert committed
        for gateway in sim.sec_gateways.values():
            assert all(frame == tx.encode() for frame, tx in gateway.pool.items())
            assert not committed & gateway.pool.keys()


def test_gateway_operators_follow_registrations_and_validator_changes(monkeypatch):
    """The kept list of gateway operators is a fresh scan's at every tick,
    as a validator is revoked and a new one registers endpoints mid-run."""
    raw = minimal_raw(
        ticks=6,
        actors=[
            {"name": "mgr", "roles": ["platform_manager"]},
            {"name": "v1", "roles": ["validator"]},
            {"name": "v2", "roles": ["validator"]},
            {"name": "v3", "roles": ["user"]},
            {"name": "a", "roles": ["user"], "balance": 50},
            {"name": "b", "roles": ["user"]},
        ],
        steps=[
            {"tick": 2, "tx": {"from": "mgr", "kind": "bootstrap_validators", "validators": ["v1", "v3"]}},
            {"tick": 4, "tx": {"from": "v3", "kind": "register_endpoints"}},
        ]
        + [{"tick": t, "tx": {"from": "a", "kind": "transfer", "to": "b", "amount": 1}} for t in range(1, 7)],
    )
    sim = Simulation(parse_scenario(raw))
    seen = []
    publish = Simulation._publish_block

    def publish_and_record(self, tick):
        publish(self, tick)
        current = set(self.state.validators())
        fresh = sorted(self.names_by_id[v] for v in self.state.validator_registry if v in current)
        seen.append(self._gateway_operators())
        assert seen[-1] == fresh

    monkeypatch.setattr(Simulation, "_publish_block", publish_and_record)
    report = sim.run()
    assert report.all_passed
    assert seen == [["v1", "v2"]] + [["v1"]] * 2 + [["v1", "v3"]] * 3
    assert report.balances["b"] == 6  # every transfer found a gateway


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


# --- reverse steps ------------------------------------------------------------------


def _reverse_raw(target: str) -> dict:
    return {
        "ticks": 3,
        "actors": [
            {"name": "alice", "roles": ["user"], "balance": 50},
            {"name": "bob", "roles": ["user"]},
            {"name": "sec", "roles": ["system_security"]},
            {"name": "v1", "roles": ["validator"]},
        ],
        "steps": [
            {"tick": 1, "tx": {"from": "alice", "kind": "transfer", "to": "bob", "amount": 20, "store": "t1"}},
            {"tick": 2, "assert": {"kind": "balance", "account": "bob", "equals": 20}},
            {"tick": 3, "tx": {"from": "sec", "kind": "reverse", "target": target}},
            {"tick": 3, "assert": {"kind": "balance", "account": "alice", "equals": 50}},
            {"tick": 3, "assert": {"kind": "balance", "account": "bob", "equals": 0}},
        ],
    }


def test_ticks_past_the_bound_are_a_load_error_naming_ticks():
    assert parse_scenario(minimal_raw(ticks=MAX_TICKS)).ticks == MAX_TICKS
    for ticks in (MAX_TICKS + 1, 2**64 - 1):
        with pytest.raises(ScenarioError, match=f"^scenario: ticks: at most {MAX_TICKS} ticks"):
            parse_scenario(minimal_raw(ticks=ticks))


def test_reverse_step_returns_a_stored_transfer():
    report, sim = run(parse_scenario(_reverse_raw("t1")))
    assert report.all_passed, [a for a in report.assertions if not a.ok]
    assert report.balances["alice"] == 50 and report.balances["bob"] == 0
    assert sim.receipts[sim.stored_tx_ids["t1"]].ok


def test_reverse_of_a_label_no_earlier_step_stores_is_rejected():
    with pytest.raises(ScenarioError, match="tx reverse: target: no earlier tx step stores 't2'"):
        parse_scenario(_reverse_raw("t2"))


def test_reverse_of_a_stored_but_refused_transaction_fails_the_run():
    raw = _reverse_raw("t1")
    raw["actors"].append({"name": "keyholder"})  # keys only: no account, so every gateway refuses it
    raw["steps"][0]["tx"]["from"] = "keyholder"
    with pytest.raises(ScenarioError, match="no stored tx labelled 't1'"):
        run(parse_scenario(raw))


# --- every declared field, fed hostile values ----------------------------------------
#
# The sweep builds one valid step of every kind from the declarations in
# rolechain.sim, so a new step kind is swept without a change here; a new
# field type needs a sample below.

HOSTILE = {
    "list": ["a"],
    "mapping": {"a": 1},
    "null": None,
    "true": True,
    "float": 5.5,
    "negative": -1,
    "2**64": 2**64,
    "unknown name": "zz-unknown",
}

# a valid value of each field type, by its name
SAMPLES = {
    "actor": "a",
    "list of actor": ["a", "b"],
    "stored label": "t1",
    "text": "x",
    "u64": 1,
    "integer": 1,
    "bool": True,
    "role": "user",
    "list of role": ["user"],
    "list of fault": ["offline"],
    "list of text": ["sim://x"],
    "permanence": "temporary",
    "mode": "pull",
    "direction": "in",
    "compare outcome": "consistent",
    "compare result": "consistent",
    "proposal status": "open",
    "policy value": 1,
    "recovery spec": "provider_only",
    "tx": {"kind": "cast_vote", "proposal": 1, "approve": True},
    "scheme": "mock",
}


def _sweep_raw(step: dict | None = None) -> dict:
    steps = [{"tick": 1, "tx": {"from": "a", "kind": "transfer", "to": "b", "amount": 1, "store": "t1"}}]
    return {
        "name": "sweep",
        "seed": 1,
        "scheme": "mock",
        "ticks": 2,
        "policies": [{"key": "vote.window_blocks", "value": 5, "permanence": "temporary", "expiry_height": 9}],
        "actors": [
            {"name": "a", "roles": ["user", "validator"], "balance": 100, "provider": "b", "recovery": "provider_only"},
            {
                "name": "b",
                "roles": ["platform_manager", "system_security", "currency_manager", "account_provider", "validator"],
                "balance": 100,
                "faults": [],
            },
        ],
        "steps": steps + ([{"tick": 2, **step}] if step else []),
    }


def _sample_body(declaration: Fields, kind: str | None) -> dict:
    body = {} if kind is None else {"kind": kind}
    for name, field_type in declaration.types.items():
        if name != "kind":
            body[name] = SAMPLES[field_type.name]
    return body


def _outcome(raw: dict) -> str:
    """``rejected`` by parse_scenario, ``failed`` with a RolechainError while running, or ``ran``."""
    try:
        scenario = parse_scenario(raw)
    except ScenarioError:
        return "rejected"
    try:
        run(scenario)
    except RolechainError:
        return "failed"
    return "ran"


def _sweep(raw: dict, entry: dict) -> list[str]:
    """Each hostile value at each field of ``entry``, a dict inside ``raw``; the escapes."""
    escapes = []
    for name in list(entry):
        original = entry[name]
        for label, value in HOSTILE.items():
            entry[name] = copy.deepcopy(value)
            try:
                _outcome(copy.deepcopy(raw))
            except Exception as exc:  # anything but a RolechainError escaped
                escapes.append(f"{name}={label}: {type(exc).__name__}: {exc}")
        entry[name] = original
    return escapes


STEP_ENTRIES = {
    f"{step_kind} {kind}": (step_kind, kind)
    for step_kind, declaration in STEP_BODIES.items()
    for kind in ([None] if isinstance(declaration, Fields) else declaration)
}


@pytest.mark.parametrize("step_kind, kind", STEP_ENTRIES.values(), ids=[k.replace(" None", "") for k in STEP_ENTRIES])
def test_hostile_value_in_any_step_field_is_a_scenario_or_run_error(step_kind, kind):
    declaration = STEP_BODIES[step_kind]
    fields = declaration if kind is None else declaration[kind].fields
    body = _sample_body(fields, kind)
    step = {step_kind: body}
    raw = _sweep_raw(step)
    assert _outcome(raw) in ("ran", "failed"), "the sample step must parse"
    assert _sweep(raw, body) == []
    assert _sweep(raw, raw["steps"][1]) == []  # the step's tick


@pytest.mark.parametrize("kind", ACTIONS)
def test_hostile_value_in_any_proposal_action_field(kind):
    action = _sample_body(ACTIONS[kind].fields, kind)
    raw = _sweep_raw({"tx": {"from": "b", "kind": "create_proposal", "action": action, "electorate": "validator"}})
    assert _outcome(raw) in ("ran", "failed"), "the sample action must parse"
    assert _sweep(raw, action) == []


@pytest.mark.parametrize("entry", ["scenario", "actor", "policy"])
def test_hostile_value_in_any_scenario_actor_or_policy_field(entry):
    raw = _sweep_raw()
    assert _outcome(raw) == "ran"
    declaration = {"scenario": SCENARIO, "actor": ACTOR_ENTRY, "policy": POLICY_ENTRY}[entry]
    target = {"scenario": raw, "actor": raw["actors"][0], "policy": raw["policies"][0]}[entry]
    for name, field_type in declaration.types.items():
        target.setdefault(name, SAMPLES.get(field_type.name))
    assert _sweep(raw, target) == []


def _malformed(**where) -> dict:
    """The sweep scenario with one tick-2 ``step``, or ``actor``/``top`` fields replaced."""
    raw = _sweep_raw(where.get("step"))
    raw["actors"][0].update(where.get("actor", {}))
    raw.update(where.get("top", {}))
    return raw


def _tx(**body) -> dict:
    return {"step": {"tx": {"from": "b", **body}}}


# each was accepted by parse_scenario and then crashed the run with a
# TypeError, AttributeError, ValueError, struct.error or CodecError, or ran on
# a silently wrong value
MALFORMED = {
    "amount text": (_tx(kind="transfer", to="a", amount="5"), "amount"),
    "amount float": (_tx(kind="transfer", to="a", amount=5.5), "amount"),
    "amount negative": (_tx(kind="transfer", to="a", amount=-5), "amount"),
    "amount 2**64": (_tx(kind="mint", to="a", amount=2**64), "amount"),
    "amount bool": (_tx(kind="transfer", to="a", amount=True), "amount"),
    "to list": (_tx(kind="transfer", to=["a"], amount=5), "to"),
    "source list": (_tx(kind="confiscate", source=["a"], amount=5), "source"),
    "user mapping": (_tx(kind="convert_fiat", user={"a": 1}, direction="in", amount=5), "user"),
    "rate_den text": (
        _tx(kind="set_interest_rule", rate_num=1, rate_den="3", period_blocks=3, start_height=3, mode="pull"),
        "rate_den",
    ),
    "mode unknown": (
        _tx(kind="set_interest_rule", rate_num=1, rate_den=3, period_blocks=3, start_height=3, mode="sideways"),
        "mode",
    ),
    "direction unknown": (_tx(kind="convert_fiat", user="a", direction="sideways", amount=5), "direction"),
    "frozen text": (_tx(kind="set_frozen", target="a", frozen="no"), "frozen"),
    "proposal text": (_tx(kind="cast_vote", proposal="1", approve=True), "proposal"),
    "approve text": (_tx(kind="cast_vote", proposal=1, approve="yes"), "approve"),
    "policy key number": (_tx(kind="set_policy", key=5, value=1), "key"),
    "policy value bad hex": (_tx(kind="set_policy", key="k", value={"hex": "zz"}), "value"),
    "policy expiry text": (
        _tx(kind="set_policy", key="k", value=1, permanence="timed_expiration", expiry_height="9"),
        "expiry_height",
    ),
    "new_key_label number": (_tx(kind="rotate_key", target="a", new_key_label=5, approvers=["b"]), "new_key_label"),
    "contact number": (_tx(kind="register_endpoints", contact=5), "contact"),
    "validation_server list": (_tx(kind="register_endpoints", validation_server=["x"]), "validation_server"),
    "security_gateways text": (_tx(kind="register_endpoints", security_gateways="abc"), "security_gateways"),
    "store list": (_tx(kind="transfer", to="a", amount=5, store=["x"]), "store"),
    "compare label list": ({"step": {"compare": {"label": ["q1"]}}}, "label"),
    "within_last_blocks text": (
        {"step": {"assert": {"kind": "log_contains", "entry_kind": "transfer", "within_last_blocks": "4"}}},
        "within_last_blocks",
    ),
    "publisher height text": ({"step": {"assert": {"kind": "publisher", "height": "1", "equals": "a"}}}, "height"),
    "frozen assert text": ({"step": {"assert": {"kind": "frozen", "account": "a", "equals": "no"}}}, "equals"),
    "query start text": ({"step": {"query": {"as": "a", "kind": "management_log", "start": "0"}}}, "start"),
    "expect_int text": ({"step": {"query": {"as": "a", "kind": "own_balance", "expect_int": "60"}}}, "expect_int"),
    "balance text": ({"actor": {"balance": "x"}}, "balance"),
    "balance negative": ({"actor": {"balance": -1}}, "balance"),
    "recovery guardians number": ({"actor": {"recovery": {"guardians": 5}}}, "guardians"),
    "seed list": ({"top": {"seed": [1]}}, "seed"),
    "name list": ({"top": {"name": [1]}}, "name"),
    "ticks bool": ({"top": {"ticks": True}}, "ticks"),
}


TIMED = {"key": "k", "value": 1, "permanence": "timed_expiration"}
# each parsed: the genesis policy was stored with no expiry, so it was
# mutable from height 0, and a step crashed the run with a CodecError
TIMED_WITHOUT_EXPIRY = {
    "genesis policy": {"top": {"policies": [TIMED]}},
    "genesis policy null expiry": {"top": {"policies": [{**TIMED, "expiry_height": None}]}},
    "set_policy step": _tx(kind="set_policy", **TIMED),
    "set_policy action": _tx(kind="create_proposal", electorate="platform_manager", action={"kind": "set_policy", **TIMED}),
}


@pytest.mark.parametrize("where", TIMED_WITHOUT_EXPIRY.values(), ids=TIMED_WITHOUT_EXPIRY.keys())
def test_timed_policy_without_expiry_is_a_load_error(where):
    with pytest.raises(ScenarioError, match="missing field 'expiry_height', required when permanence"):
        parse_scenario(_malformed(**where))
    # with its expiry height, the same entry parses and runs
    if "top" in where:
        where["top"]["policies"][0]["expiry_height"] = 4
    else:
        body = where["step"]["tx"]
        (body.get("action") or body)["expiry_height"] = 4
    run(parse_scenario(_malformed(**where)))


def test_a_timed_genesis_policy_expiring_at_height_0_is_a_load_error():
    """A genesis writes no expiry height as 0, so a timed one at 0 could not be told from one without."""
    at_0 = {**TIMED, "expiry_height": 0}
    with pytest.raises(ScenarioError, match="expiry_height must be at least 1"):
        parse_scenario(_malformed(top={"policies": [at_0]}))
    run(parse_scenario(_malformed(**_tx(kind="set_policy", **at_0))))  # a set_policy frame writes its expiry height as it is


def _nested_proposal(depth: int) -> dict:
    action = {"kind": "cast_vote", "proposal": 1, "approve": True}
    for _ in range(depth):
        action = {"kind": "create_proposal", "electorate": "validator", "action": action}
    return _sweep_raw({"tx": {"from": "b", **action}})


def test_proposal_nested_past_the_stack_is_a_load_error():
    run(parse_scenario(_nested_proposal(50)))
    with pytest.raises(ScenarioError, match="nested too deeply"):
        parse_scenario(_nested_proposal(5_000))


def test_genesis_balances_past_the_u64_supply_are_a_load_error():
    raw = _sweep_raw()
    raw["actors"][0]["balance"] = raw["actors"][1]["balance"] = 2**63
    with pytest.raises(ScenarioError, match="balances sum past"):
        Simulation(parse_scenario(raw))
    raw["actors"][1]["balance"] = 2**63 - 1
    assert run(parse_scenario(raw))[0].supply["minted"] == 2**64 - 1


def test_a_balance_without_roles_is_a_load_error_naming_the_actor():
    raw = minimal_raw()
    raw["actors"].append({"name": "ghost", "balance": 7})
    with pytest.raises(ScenarioError, match="actor ghost: a balance needs at least one role"):
        parse_scenario(raw)
    raw["actors"][1]["roles"] = []
    with pytest.raises(ScenarioError, match="actor ghost: "):
        parse_scenario(raw)
    raw["actors"][1]["balance"] = 0  # an actor with keys only, whose account may be created on-chain
    assert run(parse_scenario(raw))[0].supply["minted"] == 0


def test_a_stray_write_that_no_block_check_sees_is_caught_at_the_end_of_the_run(monkeypatch):
    sim = Simulation(parse_scenario(_sweep_raw()))
    # block 2 writes no money, so its check passes; the full sum at the end does not
    write_behind_the_primitives(monkeypatch, 2, sim.aid("b"))
    with pytest.raises(InternalInvariantViolation, match="end of run"):
        sim.run()
    assert sim.chain.height == 2


@pytest.mark.parametrize("where, field_name", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_field_is_a_load_error_naming_the_field(where, field_name):
    with pytest.raises(ScenarioError, match=f"{field_name}: "):
        parse_scenario(_malformed(**where))


@pytest.mark.parametrize(
    "step",
    [
        {"assert": {"kind": "balance", "account": "escrow", "equals": 0}},
        {"tx": {"from": "b", "kind": "reverse", "target": "t1"}},
        # escrow is an actor like any other, so it may send and serve reads
        {"tx": {"from": "escrow", "kind": "register_endpoints"}},
        {"query": {"as": "a", "kind": "supply", "gateways": ["escrow"]}},
    ],
    ids=["escrow-balance", "stored-label-reverse", "escrow-registers-endpoints", "escrow-gateway"],
)
def test_well_formed_edge_cases_parse_and_pass(step):
    report, _ = run(parse_scenario(_sweep_raw(step)))
    assert report.all_passed, report.assertions
