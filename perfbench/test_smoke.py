"""Smoke test of the benchmark itself, at tiny sizes and with no time bounds."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run
from rolechain import chain, sim
from scenario_gen import Workload, generate
from tracer import Probes

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = Workload(
    name="tiny_mixed",
    why="every traffic feature at toy size",
    accounts=20,
    validators=5,
    scheme="mock",
    ticks=14,
    transfers_per_tick=5,
    reads_per_tick=5,
    read_kinds=("own_balance", "own_history", "claimable", "management_log", "supply"),
    corrupt_validator=True,
    offline_stretch=(4, 8),
    proposal_every=4,
    interest_scope=None,
    claims_per_tick=2,
    burst_every=10,
    overdraft_every=3,
)


def _check_schema(result: dict, section: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("trace", [False, True])
def test_result_schema_matches_benchmark_json(tmp_path, trace):
    result = run.measure(TINY, seed=5, seconds=0, trace=trace, out_dir=tmp_path)
    _check_schema(result, "per_layer" if trace else "end_to_end")
    # the designed refusals and failed receipts are counted, not hidden
    if not trace:
        assert 0 < result["metrics"]["ok_ops_share"]["value"] < 1
    # every wrapper is removed again
    assert sim.append_block is chain.append_block


def test_transfer_workload_shape_runs_correctly(tmp_path):
    small = replace(run.WORKLOADS["transfer_1k_ed25519"], accounts=30, ticks=14, transfers_per_tick=10)
    result = run.measure(small, seed=2, seconds=0, trace=False, out_dir=tmp_path)
    _check_schema(result, "end_to_end")
    assert result["metrics"]["ok_ops_share"]["value"] == 1


def test_benchmark_json_lists_the_generator_workloads():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [(w.name, w.why) for w in run.WORKLOADS.values()]


def test_generator_is_seeded():
    assert generate(TINY, 1)[0] == generate(TINY, 1)[0]
    assert generate(TINY, 1)[0] != generate(TINY, 2)[0]


def _rep(raw, expected, tmp_path):
    probes = Probes()
    probes.install()
    try:
        return run.run_rep(raw, expected, probes, None, tmp_path / "dump.bin")
    finally:
        probes.restore()


def test_correctness_gate_catches_a_wrong_supply(tmp_path):
    raw, expected = generate(TINY, 3)
    supply = next(s["assert"] for s in raw["steps"] if s.get("assert", {}).get("kind") == "supply")
    supply["minted"] += 1
    rep = _rep(raw, expected, tmp_path)
    assert any("supply" in p for p in rep.problems)
    assert rep.mismatches >= 1


def test_correctness_gate_catches_a_wrong_prediction(tmp_path):
    raw, expected = generate(TINY, 3)
    expected.failed_receipts += 1
    rep = _rep(raw, expected, tmp_path)
    assert rep.problems == [f"failed receipts: {expected.failed_receipts - 1}, generator predicts {expected.failed_receipts}"]


def test_a_crash_is_a_failed_run(tmp_path, monkeypatch):
    def crash(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(run, "run_rep", crash)
    result = run.measure(TINY, seed=1, seconds=0, trace=False, out_dir=tmp_path)
    assert result["correct"] is False and result["metrics"] == {} and result["failed"] == 1


def test_verify_of_a_corrupt_dump_fails(tmp_path):
    dump = tmp_path / "bad.bin"
    dump.write_bytes(b"RCHN\x01garbage")
    code, _ = run._verify(dump)
    assert code != 0


def test_compare_prints_one_row_per_workload(tmp_path, capsys):
    def results(rate):
        metrics = {"commit_tx_per_s": {"value": rate, "unit": "tx/s"}}
        return {"workloads": {w: {"correct": True, "metrics": metrics} for w in ("a", "b")}}

    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps(results(100.0)))
    new.write_text(json.dumps(results(50.0)))
    run.compare(old, new)
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 2 and all("commit_tx_per_s 100->50 tx/s (-50.0%)!" in r for r in rows)


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", "transfer_10k_mock", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
