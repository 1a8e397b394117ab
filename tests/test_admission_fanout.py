"""The sim's admission helper changes no outcome and leaves no process behind.

While ``Simulation.run`` runs an ed25519 scenario on a machine with two
usable CPUs, a forked ``gateway.AdmissionHelper`` checks the copies of the
last k // 2 of the k gateways that will check a broadcast's signature,
and those gateways admit with ``checked`` set.  Each case here runs with the
helper forced on (two usable CPUs, whatever this machine has) and forced
off (one), and requires byte-identical reports and dumps and the same
admission outcome at every gateway.
"""

from __future__ import annotations

import copy
import os
import signal
import threading
import time
from collections import Counter

import pytest

from rolechain import errors as err
from rolechain import fanout
from rolechain import gateway as gateway_module
from rolechain.errors import ScenarioError
from rolechain.gateway import AdmissionHelper, SecurityGateway, sign_request
from rolechain.keys import Ed25519Scheme
from rolechain.payloads import DiscrepancyEvent, OwnBalance, Transfer, decode_transaction, sign_transaction
from rolechain.sim import Simulation, parse_scenario

VALIDATORS = ["v1", "v2", "v3", "v4"]


def _transfer(tick: int, sender: str, to: str, amount: int = 1) -> dict:
    return {"tick": tick, "tx": {"from": sender, "kind": "transfer", "to": to, "amount": amount}}


BASE = {
    "ticks": 6,
    "scheme": "ed25519",
    "actors": [
        {"name": "prov", "roles": ["account_provider"]},
        {"name": "alice", "roles": ["user"], "balance": 100, "provider": "prov"},
        {"name": "bob", "roles": ["user"], "balance": 100},
        {"name": "carol", "roles": ["user"]},
        *({"name": name, "roles": ["validator"]} for name in VALIDATORS),
    ],
    "steps": [
        step
        for tick in range(1, 7)
        for step in (_transfer(tick, "alice", "bob"), _transfer(tick, "bob", "carol", 2), _transfer(tick, "alice", "carol"))
    ],
}


def _scenario(*steps: dict, actors: tuple[dict, ...] = (), faults: dict[str, list[str]] | None = None) -> dict:
    raw = copy.deepcopy(BASE)
    raw["actors"].extend(actors)
    for actor in raw["actors"]:
        if faults and actor["name"] in faults:
            actor["faults"] = faults[actor["name"]]
    raw["steps"].extend(steps)
    return raw


def _stale_key(sim: Simulation, tick: int) -> None:
    """After the rotation's block, alice's client keeps signing with her old key."""
    if tick == 2:
        sim.keys["alice"] = sim._keypair("alice")


def _kill_helper(sim: Simulation, tick: int) -> None:
    """After tick 2's block the helper dies; the run reaps it, so this waits
    for its death without reaping it."""
    if tick == 2 and sim._helper is not None:
        os.kill(sim._helper.child.pid, signal.SIGKILL)
        os.waitid(os.P_PID, sim._helper.child.pid, os.WEXITED | os.WNOWAIT)


ROTATION = {
    "tick": 2,
    "tx": {"from": "prov", "kind": "rotate_key", "target": "alice", "new_key_label": "alice-new", "approvers": ["prov"]},
}

# burst passes its bucket's capacity (10) at tick 2, so every gateway throttles
# its last three transfers, those that admit at once and those that defer alike
BURST = tuple(_transfer(2, "burst", "carol") for _ in range(13))

# case -> (scenario, hook called after each tick's block, an admission reason the case must show)
CASES = {
    "stale key": (_scenario(ROTATION), _stale_key, err.BAD_SIGNATURE),
    "unknown sender": (_scenario(_transfer(3, "ghost", "bob"), actors=({"name": "ghost"},)), None, err.UNKNOWN_SENDER),
    "censor_all": (_scenario(faults={"v2": ["censor_all"]}), None, "Censored"),
    "offline": (
        _scenario({"tick": 2, "fault": {"actor": "v3", "set": ["offline"]}}, {"tick": 5, "fault": {"actor": "v3", "set": []}}),
        None,
        None,
    ),
    "helper killed": (_scenario(), _kill_helper, None),
    # v4, a gateway the helper checks for, starts to censor after tick 3's
    # broadcasts: it must have admitted them before the fault applies
    "censor set mid-tick": (
        _scenario({"tick": 3, "fault": {"actor": "v4", "set": ["censor_all"]}}, {"tick": 5, "fault": {"actor": "v4", "set": []}}),
        None,
        "Censored",
    ),
    "burst": (_scenario(*BURST, actors=({"name": "burst", "roles": ["user"], "balance": 100},)), None, err.THROTTLED),
}


@pytest.fixture
def forks(monkeypatch) -> list[int]:
    """The pid each ``os.fork`` returned to this process."""
    pids: list[int] = []
    original = os.fork

    def recording():
        pid = original()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return pids


@pytest.fixture
def flags(monkeypatch) -> list[tuple[int, bytes]]:
    """(how many copies were asked for, the flags read back) per answered request."""
    read: list[tuple[int, bytes]] = []
    answer = AdmissionHelper.answer

    def recording(self, copies):
        read.append((copies, answer(self, copies)))
        return read[-1][1]

    monkeypatch.setattr(AdmissionHelper, "answer", recording)
    return read


def _helper(monkeypatch, on: bool) -> None:
    monkeypatch.setattr(fanout, "usable_cpus", lambda: 2 if on else 1)


def _play(raw: dict, monkeypatch, hook=None) -> tuple[str, bytes, list]:
    """A run's report, dump and every admission outcome, sorted."""
    outcomes = []
    admit = SecurityGateway.admit

    def recording(self, state, raw_tx, tick, checked=None):
        outcome = admit(self, state, raw_tx, tick, checked)
        outcomes.append((tick, self.validator, raw_tx, type(outcome).__name__, getattr(outcome, "reason", "")))
        return outcome

    monkeypatch.setattr(SecurityGateway, "admit", recording)
    try:
        sim = Simulation(parse_scenario(raw))
        if hook is not None:
            publish = sim._publish_block

            def publish_then_hook(tick):
                publish(tick)
                hook(sim, tick)

            sim._publish_block = publish_then_hook
        report = sim.run()
    finally:
        monkeypatch.setattr(SecurityGateway, "admit", admit)
    return report.to_json(), sim.export(), sorted(outcomes)


def _no_children_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# --- same outcome ------------------------------------------------------------------


@pytest.mark.parametrize("case", CASES)
def test_the_helper_gives_the_outcome_of_a_run_without_it(case, forks, flags, monkeypatch):
    raw, hook, reason = CASES[case]
    _helper(monkeypatch, on=True)
    helped = _play(raw, monkeypatch, hook)
    assert len(forks) == 1
    _no_children_left()
    asked = len(flags)
    assert asked > 0 and any(any(f) for _, f in flags)

    _helper(monkeypatch, on=False)
    alone = _play(raw, monkeypatch, hook)
    assert len(forks) == 1 and len(flags) == asked
    _no_children_left()

    assert helped[0] == alone[0]  # the report
    assert helped[1] == alone[1]  # the dump
    assert helped[2] == alone[2]  # each gateway's outcome for each frame
    if reason is not None:
        assert reason in {o[3] for o in alone[2]} | {o[4] for o in alone[2]}
    if case == "helper killed":
        # asked at ticks 1 and 2 only: after the kill every gateway checks inline
        assert asked == 2 * 3 and all(f == b"\1\1" for _, f in flags[:asked])


def test_a_stale_key_is_refused_by_every_gateway(flags, monkeypatch):
    _helper(monkeypatch, on=True)
    raw, hook, _ = CASES["stale key"]
    _, _, outcomes = _play(raw, monkeypatch, hook)
    stale = [o for o in outcomes if o[0] == 3 and o[4] == err.BAD_SIGNATURE]
    assert len(stale) == 2 * len(VALIDATORS)  # alice's two transfers of tick 3, at every gateway
    assert (2, b"\0\0") in flags  # the helper found them false and vouched for nothing


def _admissions_in_order(monkeypatch, helped: bool) -> dict[str, list[tuple[str, str]]]:
    """Each gateway's (payload kind, outcome or refusal reason) in the order
    it admitted them, for a transfer and a discrepancy event alice
    broadcasts in one window, with v1 censoring discrepancy events and a
    bucket that holds one token.

    With a helper the transfer defers at v3 and v4 and the event only at
    v4, so v3 admits the event in this process while it still holds the
    transfer unsettled.
    """
    raw = _scenario(faults={"v1": ["censor_discrepancy"]})
    raw["steps"] = []
    raw["policies"] = [{"key": "rate.capacity", "value": 1}]
    order: dict[bytes, list[tuple[str, str]]] = {}
    admit = SecurityGateway.admit

    def recording(self, state, raw_tx, tick, checked=None):
        outcome = admit(self, state, raw_tx, tick, checked)
        kind = type(decode_transaction(raw_tx).payload).__name__
        order.setdefault(self.validator, []).append((kind, getattr(outcome, "reason", type(outcome).__name__)))
        return outcome

    monkeypatch.setattr(SecurityGateway, "admit", recording)
    _helper(monkeypatch, on=helped)
    sim = Simulation(parse_scenario(raw))
    sim._helper = AdmissionHelper.start("ed25519")
    assert (sim._helper is not None) == helped
    try:
        sim._submit_tx("alice", Transfer(sim.aid("bob"), 1), 1)
        responses = []
        for name in ("v2", "v3"):
            gw = sim._visibility_gateway(name)
            request = sign_request(sim.keys["alice"], gw.issue_challenge(), OwnBalance(sim.aid("alice")), sim.aid("alice"))
            responses.append(gw.answer(sim.state, request))
        event = sign_transaction(sim.keys["alice"], sim.aid("alice"), sim.nonces["alice"], DiscrepancyEvent(*responses))
        sim._broadcast(event, 1)
        sim._settle()
    finally:
        monkeypatch.setattr(SecurityGateway, "admit", admit)
        if sim._helper is not None:
            sim._helper.stop()
    _no_children_left()
    return {sim.names_by_id[validator]: admitted for validator, admitted in order.items()}


def test_a_gateway_admits_in_broadcast_order_whichever_gateways_defer(monkeypatch):
    alone = _admissions_in_order(monkeypatch, helped=False)
    assert alone["v1"] == [("Transfer", "Admitted"), ("DiscrepancyEvent", "Censored")]
    for name in ("v2", "v3", "v4"):
        assert alone[name] == [("Transfer", "Admitted"), ("DiscrepancyEvent", err.THROTTLED)]
    # v3 settles the transfer before it admits the event, so it too admits
    # the transfer and throttles the event
    assert _admissions_in_order(monkeypatch, helped=True) == alone


# --- each copy checked once ----------------------------------------------------------


@pytest.mark.parametrize("on", [True, False], ids=["helper", "no helper"])
@pytest.mark.parametrize("offline", [[], ["v3"]], ids=["all online", "v3 offline"])
def test_each_copy_is_checked_once_here_or_in_the_helper(on, offline, forks, monkeypatch):
    here: Counter[bytes] = Counter()  # signing bytes -> checks this process made
    vouched: Counter[bytes] = Counter()  # signing bytes -> true flags the helper wrote
    verify, ask, answer = Ed25519Scheme.verify, AdmissionHelper.ask, AdmissionHelper.answer
    asked: list[bytes] = []  # asked and not yet answered: answers come in the order asked

    def counting_verify(self, public_key, message, signature):
        if message.startswith(b"tx:"):
            here[message] += 1
        return verify(self, public_key, message, signature)

    def recording_ask(self, frame, key, copies):
        asked.append(decode_transaction(frame).signing_bytes())
        return ask(self, frame, key, copies)

    def counting_answer(self, copies):
        read = answer(self, copies)
        vouched[asked.pop(0)] += sum(read)
        return read

    monkeypatch.setattr(Ed25519Scheme, "verify", counting_verify)
    monkeypatch.setattr(AdmissionHelper, "ask", recording_ask)
    monkeypatch.setattr(AdmissionHelper, "answer", counting_answer)
    _helper(monkeypatch, on)
    sim = Simulation(parse_scenario(_scenario(faults={name: ["offline"] for name in offline})))
    sim.run()
    _no_children_left()

    signed = [tx.signing_bytes() for block in sim.chain.blocks for tx in block.txs]
    assert len(signed) == 18
    online = len(VALIDATORS) - len(offline)
    assert {m: here[m] + vouched[m] for m in signed} == {m: online for m in signed}
    assert len(forks) == on and bool(vouched) == on
    if on:
        assert all(vouched[m] == online // 2 for m in signed)


# --- process hygiene -----------------------------------------------------------------


def test_no_helper_outlives_a_scenario_error(forks, monkeypatch):
    _helper(monkeypatch, on=True)
    # ghost has no account, so no gateway admits its transfer and nothing is stored
    lost = {"tick": 2, "tx": {"from": "ghost", "kind": "transfer", "to": "bob", "amount": 1, "store": "lost"}}
    reverse = {"tick": 3, "tx": {"from": "prov", "kind": "reverse", "target": "lost"}}
    raw = _scenario(lost, reverse, actors=({"name": "ghost"},))
    with pytest.raises(ScenarioError, match="no stored tx"):
        Simulation(parse_scenario(raw)).run()
    assert len(forks) == 1
    _no_children_left()


def test_an_interrupt_while_the_helper_checks_stops_and_reaps_it(forks, flags, monkeypatch):
    _helper(monkeypatch, on=True)
    # the helper would check for a minute; this process is interrupted at its first admission
    monkeypatch.setattr(gateway_module, "_copy_verifies", lambda *args: time.sleep(60))
    asked: list[int] = []
    ask = AdmissionHelper.ask

    def recording_ask(self, frame, key, copies):
        asked.append(copies)
        return ask(self, frame, key, copies)

    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(AdmissionHelper, "ask", recording_ask)
    monkeypatch.setattr(SecurityGateway, "admit", interrupted)
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        Simulation(parse_scenario(_scenario())).run()
    assert time.monotonic() - started < 30
    assert len(forks) == 1 and asked == [2] and flags == []
    _no_children_left()


def _answers_short(scheme, replies: int, requests: int) -> None:
    """A helper that answers its first request one flag short, all true, and exits."""
    copies = gateway_module._REQUEST.unpack(fanout.read_exactly(requests, gateway_module._REQUEST.size))[0]
    fanout.write_all(replies, b"\1" * (copies - 1))


@pytest.mark.parametrize("fate", ["dies before answering", "answers short"])
def test_a_helper_that_fails_vouches_for_nothing(fate, forks, flags, monkeypatch):
    _helper(monkeypatch, on=False)
    raw, hook, _ = CASES["stale key"]
    expected = _play(raw, monkeypatch, hook)

    _helper(monkeypatch, on=True)
    serve = (lambda *args: os._exit(1)) if fate == "dies before answering" else _answers_short
    monkeypatch.setattr(gateway_module, "_serve", serve)
    vouched = []
    mark = gateway_module.mark_verified
    monkeypatch.setattr(gateway_module, "mark_verified", lambda *args: vouched.append(args) or mark(*args))
    assert _play(raw, monkeypatch, hook) == expected
    assert len(forks) == 1 and vouched == []
    # only tick 1's three broadcasts can be asked before the failure shows, at
    # a failed write or at the settle before tick 1's block
    assert len(flags) <= 3 and all(read == bytes(copies) for copies, read in flags)
    _no_children_left()


# --- when not to fork ----------------------------------------------------------------


def test_a_mock_run_never_forks(forks, monkeypatch):
    _helper(monkeypatch, on=True)
    raw = _scenario()
    raw["scheme"] = "mock"
    Simulation(parse_scenario(raw)).run()
    assert forks == []


def test_a_process_with_another_thread_never_forks(forks, monkeypatch):
    _helper(monkeypatch, on=True)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        Simulation(parse_scenario(_scenario())).run()
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert forks == []


def test_a_failing_fork_means_every_gateway_checks_here(monkeypatch):
    _helper(monkeypatch, on=False)
    expected = _play(_scenario(), monkeypatch)

    def failing_fork():
        raise OSError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", failing_fork)
    _helper(monkeypatch, on=True)
    assert _play(_scenario(), monkeypatch) == expected
    _no_children_left()
