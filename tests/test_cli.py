from __future__ import annotations

import dataclasses
import json
import struct
from pathlib import Path

import pytest
from click.testing import CliRunner

from rolechain import chain, ledger
from rolechain.chain import Chain, export_chain, genesis_block, genesis_doc, import_chain
from rolechain.cli import QUERIES, main
from rolechain.codec import TEXT, encoding
from rolechain.errors import InvalidBlock
from rolechain.payloads import Permanence
from rolechain.sim import Simulation

from conftest import write_behind_the_primitives

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


SPACING_ACTORS = """
ticks: 12
actors:
  - {name: mgr, roles: [platform_manager]}
  - {name: v1, roles: [validator]}
  - {name: v2, roles: [validator]}
  - {name: v3, roles: [validator]}
"""
DIVERSITY_100 = {
    "genesis policy": "policies:\n  - {key: consensus.diversity, value: 100, permanence: temporary}\n",
    "set_policy step": (
        "steps:\n  - tick: 1\n"
        "    tx: {from: mgr, kind: set_policy, key: consensus.diversity, value: 100, permanence: temporary}\n"
    ),
}


@pytest.mark.parametrize("how", sorted(DIVERSITY_100))
def test_full_diversity_keeps_strict_rotation(runner, tmp_path, how):
    """A spacing window as wide as the validator set is capped at n - 1:
    every tick still gets a block, in rotation order, and the dump verifies."""
    scenario, dump = tmp_path / "spacing.yaml", tmp_path / "spacing.bin"
    scenario.write_text(SPACING_ACTORS + DIVERSITY_100[how])
    result = runner.invoke(main, ["run", str(scenario), "--dump", str(dump)])
    assert result.exit_code == 0, result.output
    assert "blocks=12" in result.output
    genesis, blocks = import_chain(dump.read_bytes())
    validators = genesis[0].validators()
    assert [b.publisher for b in blocks] == [validators[h % 3] for h in range(1, 13)]
    assert chain.replay(genesis, blocks)[1].policy_int("consensus.diversity") == 100
    result = runner.invoke(main, ["verify", str(dump)])
    assert result.exit_code == 0, result.output
    assert result.output.startswith("ok: 12 blocks")


def test_verify_of_a_replay_that_breaks_conservation_exits_one(runner, dump_path, monkeypatch):
    (_, names), _ = import_chain(dump_path.read_bytes())
    # mgr's balance is written by no block, so only the end-of-replay sum sees it
    write_behind_the_primitives(monkeypatch, 2, names["mgr"])
    result = runner.invoke(main, ["verify", str(dump_path)])
    assert result.exit_code == 1
    assert result.output == "verification failed: conservation broken at end of replay\n"


@pytest.mark.parametrize("command", [["verify"], ["inspect"], ["query", "--as", "00", "supply"]], ids=lambda c: c[0])
@pytest.mark.parametrize("where", ["missing", "directory"])
def test_a_dump_that_cannot_be_read_fails_verification_without_a_traceback(runner, tmp_path, command, where):
    path = tmp_path / "ghost.bin" if where == "missing" else tmp_path
    result = runner.invoke(main, [command[0], str(path), *command[1:]])
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == 1
    assert result.output.startswith("verification failed: ") and result.output.count("\n") == 1, result.output
    assert str(path) in result.output


def test_verify_detects_tampering(runner, dump_path, tmp_path):
    data = bytearray(dump_path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    bad = tmp_path / "tampered.bin"
    bad.write_bytes(bytes(data))
    result = runner.invoke(main, ["verify", str(bad)])
    assert result.exit_code == 1
    assert "verification failed" in result.output


def _encoded(codec, value) -> bytes:
    return encoding(codec.encode, value)


def _at(genesis: bytes, record, field: str) -> int:
    """Where ``field`` of ``record``, a genesis account, policy or validator record, lies in ``genesis``."""
    fields = [f for f in dataclasses.fields(record) if "codec" in f.metadata]
    before = fields[: [f.name for f in fields].index(field)]
    start = genesis.index(_encoded(type(record).FIELDS, record))
    return start + sum(len(_encoded(f.metadata["codec"], getattr(record, f.name))) for f in before)


def _put(pick, field: str, new: bytes, skip: int = 0, cut: int | None = None):
    """Overwrite ``field`` of the record ``pick(state)`` with ``new``, ``skip``
    bytes into it, or replace ``cut`` bytes there with ``new``."""

    def mutate(genesis: bytes, state) -> bytes:
        at = _at(genesis, pick(state), field) + skip
        return genesis[:at] + new + genesis[at + (len(new) if cut is None else cut) :]

    return mutate


def _twice(table: str):
    """The first record of ``table`` listed twice in a row, the table's count one more."""

    def mutate(genesis: bytes, state) -> bytes:
        records = getattr(state, table)
        _, record = min(records.items())
        first = _encoded(type(record).FIELDS, record)
        at = genesis.index(first)  # just after the table's count
        return genesis[: at - 4] + struct.pack(">I", len(records) + 1) + first + genesis[at:]

    return mutate


def _header(offset: int, new: bytes):
    """``new`` written ``offset`` bytes past the scheme, into the height (0), minted (8) or burned (16) supply or the counts after."""

    def mutate(genesis: bytes, state) -> bytes:
        at = 4 + len(state.scheme) + offset
        return genesis[:at] + new + genesis[at + len(new) :]

    return mutate


def _empty_table(n: int):
    """Table ``n`` of the proposals (0), interest rules (1), allowances (2) and log (3) given a count of 1."""

    def mutate(genesis: bytes, state) -> bytes:
        registry = _encoded(ledger._REGISTRY, state.validator_registry)
        start = genesis.index(registry)
        at = start - 12 + 4 * n if n < 3 else start + len(registry)
        return genesis[:at] + struct.pack(">I", 1) + genesis[at + 4 :]

    return mutate


def _first(table: str, where=lambda record: True):
    return lambda state: next(r for _, r in sorted(getattr(state, table).items()) if where(r))


FIRST_ACCOUNT = _first("accounts")
PERMANENT_POLICY = _first("policies", lambda p: p.permanence is Permanence.PERMANENT)

# each a mutation of a genesis and the reason verify must give, if one alone
# applies (a balance missing or written as text shifts every later field)
GENESIS_MUTATIONS = {
    "unchanged": (lambda genesis, state: genesis, None),
    "unknown_role": (_put(_first("accounts", lambda a: a.roles), "roles", b"\x7f", skip=4), "unknown Role value 127"),
    "unknown_permanence": (_put(PERMANENT_POLICY, "permanence", b"\x7f"), "unknown Permanence value 127"),
    "unknown_recovery_kind": (_put(FIRST_ACCOUNT, "recovery", b"\x7f"), "unknown recovery tag 127"),
    "missing_balance": (_put(FIRST_ACCOUNT, "balance", b"", cut=8), None),
    "string_balance": (_put(FIRST_ACCOUNT, "balance", _encoded(TEXT, "100"), cut=8), None),
    "balance_over_u64": (
        _put(_first("accounts", lambda a: not a.balance), "balance", struct.pack(">Q", 2**64 - 1)),
        "is not the sum of the balances",
    ),
    "unknown_policy_type": (_put(PERMANENT_POLICY, "value", b"\x7f"), "unknown value tag 127"),
    "unknown_scheme": (_header(-1, b"x"), "unknown signature scheme: 'mocx'"),
    **{
        f"{name}_listed_twice": (_twice(table), "map keys not in strictly ascending order")
        for name, table in [("account", "accounts"), ("policy", "policies"), ("validator", "validator_registry")]
    },
    "timed_policy_without_expiry": (
        _put(PERMANENT_POLICY, "permanence", bytes([Permanence.TIMED_EXPIRATION.value])),
        "expiry_height is set exactly when it is timed_expiration",
    ),
    "permanent_policy_with_expiry": (
        _put(PERMANENT_POLICY, "expiry_height", b"\x07", skip=7),
        "expiry_height is set exactly when it is timed_expiration",
    ),
    "nonzero_height": (_header(7, b"\x01"), "a genesis state has no height"),
    "nonzero_burned": (_header(23, b"\x01"), "a genesis state has no height, burned supply"),
    "minted_differs": (_header(15, b"\x01"), "is not the sum of the balances"),
    "nonzero_nonce": (_put(FIRST_ACCOUNT, "nonce", b"\x01", skip=7), "nonce is not 0"),
    "policy_set_by": (_put(PERMANENT_POLICY, "set_by", b"\x01", skip=4), "was set by a transaction"),
    "policy_set_at": (_put(PERMANENT_POLICY, "set_at", b"\x01", skip=7), "was set by a transaction"),
    **{
        f"{table}_not_empty": (_empty_table(n), "a genesis state has no height")
        for n, table in enumerate(["proposals", "interest_rules", "allowances", "log"])
    },
    "name_not_utf8": (lambda genesis, state: genesis.replace(b"\x05alice", b"\x05\xfflice"), "invalid UTF-8 in text field"),
    "truncated": (lambda genesis, state: genesis[:-1], "unexpected end of frame"),
    "trailing_byte": (lambda genesis, state: genesis + b"\x00", "1 trailing bytes in frame"),
}


def _verify_mutated(runner, dump_path: Path, tmp_path: Path, mutate):
    """``rolechain verify`` of the dump with its genesis mutated and pinned afresh."""
    (state, names), blocks = import_chain(dump_path.read_bytes())
    genesis = genesis_doc(state, names)  # the bytes it was decoded from
    mutated = tmp_path / "mutated.bin"
    mutated.write_bytes(export_chain(Chain([genesis_block(), *blocks]), mutate(genesis, state)))
    return runner.invoke(main, ["verify", str(mutated)])


@pytest.mark.parametrize("mutation", sorted(GENESIS_MUTATIONS))
def test_verify_of_a_bad_genesis_doc_exits_one(runner, dump_path, tmp_path, mutation):
    """The genesis digest is self-declared, so a re-exported bad genesis must fail cleanly and say why."""
    mutate, reason = GENESIS_MUTATIONS[mutation]
    result = _verify_mutated(runner, dump_path, tmp_path, mutate)
    if mutation == "unchanged":
        assert result.exit_code == 0, result.output
        return
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == 1
    assert result.output.startswith("verification failed: genesis: "), result.output
    assert reason is None or reason in result.output, result.output


def test_verify_of_a_lone_surrogate_in_the_genesis_doc_exits_one(runner, dump_path, tmp_path):
    """A lone surrogate's bytes, which are not UTF-8, in place of the start of a policy key."""
    surrogate = "\ud800".encode("utf-8", "surrogatepass")
    result = _verify_mutated(runner, dump_path, tmp_path, _put(PERMANENT_POLICY, "key", surrogate, skip=4))
    assert result.exit_code == 1, result.output
    assert result.output == "verification failed: genesis: invalid UTF-8 in text field\n"


def test_verify_of_a_flipped_genesis_byte_names_the_pin(runner, dump_path, tmp_path):
    data = bytearray(dump_path.read_bytes())
    data[5 + 4 + 10] ^= 1  # inside the genesis, after the magic, version and its length
    bad = tmp_path / "flipped.bin"
    bad.write_bytes(bytes(data))
    result = runner.invoke(main, ["verify", str(bad)])
    assert (result.exit_code, result.output) == (1, "verification failed: genesis digest mismatch\n")


def test_verify_of_a_version_1_dump_exits_one(runner, dump_path, tmp_path):
    data = bytearray(dump_path.read_bytes())
    data[4] = 1
    old = tmp_path / "v1.bin"
    old.write_bytes(bytes(data))
    result = runner.invoke(main, ["verify", str(old)])
    assert (result.exit_code, result.output) == (1, "verification failed: unsupported dump version\n")


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


@pytest.mark.parametrize("kind", sorted(set(QUERIES) - {"validation-server"}))
def test_a_query_that_takes_no_argument_refuses_one(runner, dump_path, kind):
    result = runner.invoke(main, ["query", str(dump_path), "--as", "alice", kind, "bob"])
    assert (result.exit_code, result.stdout, result.stderr) == (1, "", f"{kind} takes no argument\n")


def test_one_query_decodes_the_genesis_once(runner, dump_path, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return ledger.read_genesis(*args)

    monkeypatch.setattr(chain, "read_genesis", counted)
    result = runner.invoke(main, ["query", str(dump_path), "--as", "alice", "balance"])
    assert (result.exit_code, result.stdout) == (0, "60\n")
    assert len(calls) == 1


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
