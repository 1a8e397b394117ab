from __future__ import annotations

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from rolechain.chain import Chain, export_chain, genesis_block, import_chain
from rolechain.cli import main
from rolechain.errors import InvalidBlock
from rolechain.sim import Simulation

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def dump_path(tmp_path, runner) -> Path:
    dump = tmp_path / "chain.bin"
    result = runner.invoke(
        main,
        ["run", str(SCENARIOS / "bootstrap_and_transfer.yaml"), "--dump", str(dump)],
    )
    assert result.exit_code == 0, result.output
    return dump


def test_run_green_scenario_exits_zero(runner, tmp_path):
    report = tmp_path / "report.json"
    result = runner.invoke(
        main,
        ["run", str(SCENARIOS / "bootstrap_and_transfer.yaml"), "--report", str(report)],
    )
    assert result.exit_code == 0, result.output
    assert "[PASS]" in result.output and "[FAIL]" not in result.output
    payload = json.loads(report.read_text())
    assert payload["blocks_produced"] == 8
    assert payload["balances"]["alice"] == 60


def test_run_failing_assertion_exits_one(runner, tmp_path):
    scenario = tmp_path / "bad.yaml"
    scenario.write_text(
        """
ticks: 2
actors:
  - {name: alice, roles: [user], balance: 10}
  - {name: v1, roles: [validator]}
steps:
  - tick: 2
    assert: {kind: balance, account: alice, equals: 999}
"""
    )
    result = runner.invoke(main, ["run", str(scenario)])
    assert result.exit_code == 1
    assert "[FAIL]" in result.output


def test_run_schema_error_exits_two(runner, tmp_path):
    scenario = tmp_path / "broken.yaml"
    scenario.write_text("ticks: 1\nactors: []\nwheels: 4\n")
    result = runner.invoke(main, ["run", str(scenario)])
    assert result.exit_code == 2
    assert "scenario error" in result.output


def test_run_timed_policy_without_expiry_exits_two(runner, tmp_path):
    scenario = tmp_path / "timed.yaml"
    scenario.write_text(
        """
ticks: 1
actors: [{name: mgr, roles: [platform_manager]}]
steps:
  - tick: 1
    tx: {from: mgr, kind: set_policy, key: k, value: 1, permanence: timed_expiration}
"""
    )
    result = runner.invoke(main, ["run", str(scenario)])
    assert result.exit_code == 2
    assert "tx set_policy: missing field 'expiry_height'" in result.output


# a double-quoted YAML "\ud800" loads as a lone surrogate, which has no UTF-8
# form, so no canonical encoding can hold it
MGR = "actors: [{name: a, roles: [platform_manager]}]\n"
LONE_SURROGATES = {
    "tx set_policy: key": MGR + r'steps: [{tick: 1, tx: {from: a, kind: set_policy, key: "a\ud800", value: 1, permanence: temporary}}]',
    "actor: name": r'actors: [{name: "a\ud800", roles: [user]}]',
    "assert log_contains: entry_kind": MGR + r'steps: [{tick: 1, assert: {kind: log_contains, entry_kind: "a\ud800"}}]',
}


@pytest.mark.parametrize("field", sorted(LONE_SURROGATES))
def test_run_of_a_lone_surrogate_in_scenario_text_exits_two(runner, tmp_path, field):
    scenario = tmp_path / "surrogate.yaml"
    scenario.write_text(f"ticks: 1\n{LONE_SURROGATES[field]}\n")
    result = runner.invoke(main, ["run", str(scenario)])
    assert result.exit_code == 2, result.output
    assert f"scenario error: {field}: expected UTF-8 text, not 'a\\ud800'" in result.output


def test_run_of_a_validator_key_rotation_exits_zero(runner, tmp_path):
    """The sim hands v1 its new key only once the rotation commits."""
    scenario = tmp_path / "rotate.yaml"
    scenario.write_text(
        """
ticks: 2
actors:
  - {name: prov, roles: [account_provider]}
  - {name: v1, roles: [validator], provider: prov}
steps:
  - tick: 1
    tx: {from: prov, kind: rotate_key, target: v1, new_key_label: v1-fresh, approvers: [prov]}
"""
    )
    result = runner.invoke(main, ["run", str(scenario)])
    assert result.exit_code == 0, result.output
    assert "blocks=2" in result.output


def test_run_with_the_widest_vote_window_exits_zero(runner, tmp_path):
    """A proposal's expiry height stays in the u64 range the digest writes."""
    scenario = tmp_path / "window.yaml"
    scenario.write_text(
        """
ticks: 2
actors:
  - {name: mgr, roles: [platform_manager]}
  - {name: v1, roles: [validator]}
  - {name: cm, roles: [currency_manager]}
  - {name: a, roles: [user], balance: 5}
policies:
  - {key: vote.window_blocks, value: 18446744073709551615, permanence: temporary}
steps:
  - tick: 1
    tx: {from: cm, kind: create_proposal, electorate: currency_manager, action: {kind: mint, to: a, amount: 1}}
"""
    )
    result = runner.invoke(main, ["run", str(scenario)])
    assert result.exit_code == 0, result.output


def test_run_reports_any_other_error_on_one_line_and_exits_three(runner, monkeypatch):
    def fail(self):
        raise InvalidBlock(["BadBlockSignature"])

    monkeypatch.setattr(Simulation, "run", fail)
    result = runner.invoke(main, ["run", str(SCENARIOS / "bootstrap_and_transfer.yaml")])
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == 3
    assert result.stderr == "run failed: InvalidBlock: BadBlockSignature\n"


def test_run_seed_override_changes_digest(runner, tmp_path):
    reports = []
    for seed in (1, 2):
        path = tmp_path / f"r{seed}.json"
        result = runner.invoke(
            main,
            [
                "run",
                str(SCENARIOS / "bootstrap_and_transfer.yaml"),
                "--seed",
                str(seed),
                "--report",
                str(path),
            ],
        )
        assert result.exit_code == 0
        reports.append(json.loads(path.read_text())["state_digest"])
    assert reports[0] != reports[1]


def test_verify_ok(runner, dump_path):
    result = runner.invoke(main, ["verify", str(dump_path)])
    assert result.exit_code == 0
    assert result.output.startswith("ok:")


def test_verify_detects_tampering(runner, dump_path, tmp_path):
    data = bytearray(dump_path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    bad = tmp_path / "tampered.bin"
    bad.write_bytes(bytes(data))
    result = runner.invoke(main, ["verify", str(bad)])
    assert result.exit_code == 1
    assert "verification failed" in result.output


def _set(*path_and_value):
    *parents, last, value = path_and_value

    def mutate(doc):
        target = doc
        for key in parents:
            target = target[key]
        target[last] = value
        return doc

    return mutate


def _drop(*path):
    def mutate(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        del target[path[-1]]
        return doc

    return mutate


GENESIS_MUTATIONS = {
    "unchanged": lambda doc: doc,
    "unknown_role": _set("accounts", 0, "roles", ["archmage"]),
    "unknown_permanence": _set("policies", 0, "permanence", "forever"),
    "unknown_recovery_kind": _set("accounts", 0, "recovery", "kind", "wizard"),
    "missing_balance": _drop("accounts", 0, "balance"),
    "string_balance": _set("accounts", 0, "balance", "100"),
    "balance_over_u64": _set("accounts", 0, "balance", 2**64),
    "bad_hex_key": _set("accounts", 0, "key", "zz"),
    "unknown_policy_type": _set("policies", 0, "type", "float"),
    "unknown_scheme": _set("scheme", "rsa"),
    "registry_not_a_list": _set("registry", {}),
    "name_not_hex": _set("names", "alice", "not hex"),
    "doc_not_an_object": lambda doc: [doc],
    "account_listed_twice": lambda doc: {**doc, "accounts": doc["accounts"] + doc["accounts"][:1]},
    "policy_listed_twice": lambda doc: {**doc, "policies": doc["policies"] + doc["policies"][-1:]},
    "validator_listed_twice": lambda doc: {**doc, "registry": doc["registry"] + doc["registry"][:1]},
    # policy 0 is permanent, with no expiry
    "timed_policy_without_expiry": _set("policies", 0, "permanence", "timed_expiration"),
    "permanent_policy_with_expiry": _set("policies", 0, "expiry_height", 7),
}


@pytest.mark.parametrize("mutation", sorted(GENESIS_MUTATIONS))
def test_verify_of_a_bad_genesis_doc_exits_one(runner, dump_path, tmp_path, mutation):
    """The doc's digest is self-declared, so a re-exported bad doc must fail cleanly."""
    doc, blocks = import_chain(dump_path.read_bytes())
    mutated = tmp_path / "mutated.bin"
    chain = Chain([genesis_block(), *blocks])
    mutated.write_bytes(export_chain(chain, GENESIS_MUTATIONS[mutation](doc)))
    result = runner.invoke(main, ["verify", str(mutated)])
    if mutation == "unchanged":
        assert result.exit_code == 0, result.output
        return
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == 1
    assert "verification failed: genesis doc" in result.output


def test_verify_of_a_lone_surrogate_in_the_genesis_doc_exits_one(runner, dump_path, tmp_path):
    """A JSON lone-surrogate escape loads as text with no UTF-8 form; the loader rejects it before the digest."""
    doc, blocks = import_chain(dump_path.read_bytes())
    doc["policies"][0]["key"] = "a\ud800"
    mutated = tmp_path / "mutated.bin"
    mutated.write_bytes(export_chain(Chain([genesis_block(), *blocks]), doc))
    result = runner.invoke(main, ["verify", str(mutated)])
    assert result.exit_code == 1, result.output
    assert result.output == "verification failed: genesis doc: Policy key: expected UTF-8 text, not 'a\\ud800'\n"


def test_inspect_lists_blocks(runner, dump_path):
    result = runner.invoke(main, ["inspect", str(dump_path)])
    assert result.exit_code == 0
    assert "block height=1" in result.output
    single = runner.invoke(main, ["inspect", str(dump_path), "--height", "3"])
    assert "block height=3" in single.output
    assert "block height=1" not in single.output


@pytest.mark.parametrize("height", ["999", "-1"])
def test_inspect_of_a_height_the_chain_lacks_exits_one(runner, dump_path, height):
    result = runner.invoke(main, ["inspect", str(dump_path), "--height", height])
    assert result.exit_code == 1
    assert (result.stdout, result.stderr) == ("", f"no block at height {height}\n")


def test_query_own_balance(runner, dump_path):
    result = runner.invoke(main, ["query", str(dump_path), "--as", "alice", "balance"])
    assert result.exit_code == 0
    assert result.output.strip() == "60"


def test_query_management_log_public(runner, dump_path):
    result = runner.invoke(main, ["query", str(dump_path), "--as", "bob", "management-log"])
    assert result.exit_code == 0
    assert "bootstrap_validators" in result.output


def test_query_supply(runner, dump_path):
    result = runner.invoke(main, ["query", str(dump_path), "--as", "bob", "supply"])
    assert result.exit_code == 0
    assert "minted=100" in result.output


def test_query_validation_server_denied_to_user(runner, dump_path):
    result = runner.invoke(
        main, ["query", str(dump_path), "--as", "alice", "validation-server", "v1"]
    )
    assert result.exit_code == 1
    assert "NotValidator" in result.output


def test_query_validation_server_allowed_to_validator(runner, dump_path):
    result = runner.invoke(
        main, ["query", str(dump_path), "--as", "v2", "validation-server", "v1"]
    )
    assert result.exit_code == 0
    assert "sim://v1/validation" in result.output


def test_query_directory_redacts_validation_servers(runner, dump_path):
    result = runner.invoke(main, ["query", str(dump_path), "--as", "alice", "directory"])
    assert result.exit_code == 0
    assert "sim://v1/sec0" in result.output
    assert "validation" not in result.output


def test_query_unknown_actor(runner, dump_path):
    result = runner.invoke(main, ["query", str(dump_path), "--as", "mallory", "balance"])
    assert result.exit_code == 1


# --- query output -----------------------------------------------------------------
#
# ``golden/cli_query.json`` holds the exit code, stdout and stderr of
# ``rolechain query`` on the dumps of two scenarios: the balance, history
# and claimable amount of every actor asked by that actor, the management
# log, supply and directory asked by a user, the validation server of every
# registered validator asked by a validator, and one such read denied to a
# user.  Recorded before each read kind was described once.

# scenario stem -> (actors, the validator that asks, the registered validators)
QUERY_DUMPS = {
    "corrupt_gateway": (["alice", "bob", "escrow", "mgr", "v1", "v2", "v3", "v4"], "v1", ["v1", "v2", "v3", "v4"]),
    "interest_pull": (["alice", "bank", "bob", "escrow", "mgr", "v1"], "v1", ["v1"]),
}


def query_invocations(stem: str) -> list[list[str]]:
    actors, validator, registered = QUERY_DUMPS[stem]
    cases = [[who, kind] for who in actors for kind in ("balance", "history", "claimable")]
    cases += [["alice", kind] for kind in ("management-log", "supply", "directory")]
    cases += [[validator, "validation-server", name] for name in registered]
    cases.append(["alice", "validation-server", validator])
    return cases


def query_outputs(runner: CliRunner, stem: str, dump: Path) -> dict[str, dict]:
    outputs = {}
    for who, *kind in query_invocations(stem):
        result = runner.invoke(main, ["query", str(dump), "--as", who, *kind])
        outputs[" ".join([who, *kind])] = {
            "exit_code": result.exit_code,
            "stdout": result.stdout,
            "stderr": result.stderr,
        }
    return outputs


def scenario_dump(runner: CliRunner, stem: str, directory: Path) -> Path:
    dump = directory / f"{stem}.bin"
    result = runner.invoke(main, ["run", str(SCENARIOS / f"{stem}.yaml"), "--dump", str(dump)])
    assert result.exit_code == 0, result.output
    return dump


@pytest.mark.parametrize("stem", sorted(QUERY_DUMPS))
def test_query_output_is_golden(runner, tmp_path, stem):
    golden = json.loads((GOLDEN / "cli_query.json").read_text())[stem]
    assert query_outputs(runner, stem, scenario_dump(runner, stem, tmp_path)) == golden
