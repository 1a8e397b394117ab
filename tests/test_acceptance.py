"""Acceptance suite: every release criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print.  Each criterion drives the public machinery (state engine, chain,
gateways, sim) and checks against independent oracles where one exists.
"""

from __future__ import annotations

import itertools
import random
from contextlib import contextmanager
from pathlib import Path

import pytest

from rolechain import errors as err
from rolechain.chain import Chain, append_block, build_block, import_chain, replay
from rolechain.codec import U64_MAX
from rolechain.engine import apply_transaction, finalize_expired_proposals, verify_evidence
from rolechain.errors import TxError
from rolechain.gateway import (
    Admitted,
    Rejected,
    SecurityGateway,
    VisibilityGateway,
    compare_responses,
    sign_request,
)
from rolechain.keys import keypair_from_label
from rolechain.ledger import ProposalStatus
from rolechain.monetary import accrue_period, claimable_amount
from rolechain.payloads import (
    AssignRole,
    BootstrapValidators,
    Burn,
    CastVote,
    ClaimAllowance,
    Confiscate,
    ConvertFiat,
    CreateProposal,
    FiatDirection,
    Guardians,
    InterestMode,
    Mint,
    OwnBalance,
    Permanence,
    ProviderOnly,
    ProviderPlusSecurity,
    Reverse,
    Role,
    RotateKey,
    SetFrozen,
    SetInterestRule,
    SetPolicy,
    Transaction,
    Transfer,
    rotation_message,
    sign_transaction,
)
from rolechain.sim import load_scenario, parse_scenario, run

from conftest import World, make_world
from reference import EagerInterest

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL - {title}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS - {title}")


# --- 1. conservation under randomized load ------------------------------------------


def _random_ops_world(seed: int) -> tuple[World, Chain]:
    roles = {
        "mgr": {Role.PLATFORM_MANAGER},
        "sec": {Role.SYSTEM_SECURITY},
        "bank": {Role.CURRENCY_MANAGER},
        "prov": {Role.ACCOUNT_PROVIDER},
        "v0": {Role.VALIDATOR},
    }
    users = [f"u{i}" for i in range(6)]
    for name in users:
        roles[name] = {Role.USER}
    balances = {name: 1_000 for name in users}
    balances["bank"] = 10_000
    world = make_world(roles, balances=balances, seed=seed)
    world.state.policies["mint.requires_vote"].value = 0
    world.state.policies["interest.requires_vote"].value = 0
    return world, Chain()


def _run_random_scenario(seed: int, ops: int) -> World:
    rng = random.Random(seed)
    world, chain = _random_ops_world(seed)
    users = [f"u{i}" for i in range(6)]
    signer = world.kp("v0")
    publisher = world.aid("v0")
    mode = InterestMode.PULL if seed % 2 == 0 else InterestMode.PUSH

    pending_nonces: dict[str, int] = {}
    batch: list[Transaction] = []
    reversible: list[bytes] = []

    def queue(sender: str, payload) -> Transaction:
        aid = world.aid(sender)
        nonce = pending_nonces.get(sender, world.state.accounts[aid].nonce)
        pending_nonces[sender] = nonce + 1
        tx = world.tx(sender, payload, nonce=nonce)
        batch.append(tx)
        return tx

    def flush():
        nonlocal batch
        block = build_block(signer, publisher, chain.head, batch, chain.height + 1, world.state)
        receipts = append_block(chain, world.state, block)  # conservation checked here
        for receipt in receipts:
            if receipt.kind == "transfer" and receipt.ok:
                reversible.append(receipt.tx_id)
        batch = []
        pending_nonces.clear()

    def amount(high: int) -> int:
        """Mostly 1..high; one draw in fifty is within 2**32 of the u64 maximum."""
        if rng.random() < 0.02:
            return U64_MAX - rng.randint(0, 2**32)
        return rng.randint(1, high)

    queue("bank", SetInterestRule(1, 50, 7, 1, mode))
    flush()

    done = 0
    while done < ops:
        for _ in range(min(20, ops - done)):
            roll = rng.random()
            if roll < 0.45:
                a, b = rng.sample(users, 2)
                queue(a, Transfer(world.aid(b), amount(80)))
            elif roll < 0.55:
                queue("bank", Mint(world.aid(rng.choice(users)), amount(50)))
            elif roll < 0.60:
                queue("bank", Burn(world.aid("bank"), rng.randint(1, 40)))
            elif roll < 0.70:
                direction = FiatDirection.IN if rng.random() < 0.5 else FiatDirection.OUT
                queue("prov", ConvertFiat(world.aid(rng.choice(users)), direction, amount(30)))
            elif roll < 0.75:
                queue("sec", SetFrozen(world.aid(rng.choice(users)), rng.random() < 0.5))
            elif roll < 0.80:
                queue("sec", Confiscate(world.aid(rng.choice(users)), world.aid("escrow"), amount(25)))
            elif roll < 0.85 and reversible:
                queue("sec", Reverse(reversible.pop(rng.randrange(len(reversible)))))
            else:
                claimer = rng.choice(users)
                up_to = world.state.interest_rules[1].last_accrued_period
                queue(claimer, ClaimAllowance(1, max(1, up_to)))
            done += 1
        flush()
    assert world.state.conservation_holds()
    return world


def test_criterion_01_conservation_randomized():
    with criterion(1, "conservation holds at every block boundary, 100 seeds x 1000 ops"):
        for seed in range(100):
            # append_block raises InternalInvariantViolation on any violation
            _run_random_scenario(seed, ops=1_000)


# --- 2. policy permanence -------------------------------------------------------------


def test_criterion_02_policy_permanence():
    with criterion(2, "permanent policies survive 500 overwrites; timed boundary exact"):
        world = make_world(balances={"alice": 10})
        world.apply_ok("mgr", SetPolicy("anchor.rule", 42, Permanence.PERMANENT))
        actors = ["mgr", "sec", "bank", "prov", "alice", "bob"]
        for i in range(500):
            receipt = world.apply(actors[i % len(actors)], SetPolicy("anchor.rule", i, Permanence.TEMPORARY))
            assert not receipt.ok
        assert world.state.policy_int("anchor.rule") == 42

        world.apply_ok("mgr", SetPolicy("timed.rule", 1, Permanence.TIMED_EXPIRATION, 50))
        world.state.height = 49
        blocked = world.apply("mgr", SetPolicy("timed.rule", 2, Permanence.TEMPORARY))
        assert blocked.error == err.POLICY_IMMUTABLE
        world.state.height = 50
        world.apply_ok("mgr", SetPolicy("timed.rule", 2, Permanence.TEMPORARY))
        assert world.state.policy_int("timed.rule") == 2


# --- 3. bootstrap lock and vote brute force ----------------------------------------------


def _electorate_world(size: int) -> World:
    roles = {
        "mgr": {Role.PLATFORM_MANAGER},
        "cand": {Role.USER},
    }
    for i in range(size):
        roles[f"v{i}"] = {Role.VALIDATOR}
    return make_world(roles)


def test_criterion_03_bootstrap_lock_and_majority():
    with criterion(3, "bootstrap window closes at 11; afterwards only strict-majority votes"):
        world = make_world(balances={})
        world.state.height = 10
        world.apply_ok("mgr", BootstrapValidators(frozenset({world.aid("alice")})))
        world.state.height = 11
        late = world.apply("mgr", BootstrapValidators(frozenset({world.aid("bob")})))
        assert late.error == err.BOOTSTRAP_OVER
        direct = world.apply("mgr", AssignRole(world.aid("bob"), Role.VALIDATOR))
        assert direct.error == err.VALIDATOR_ROLE_LOCKED

        # brute force over every yes/no/abstain pattern for sizes 3, 4, 5
        for size in (3, 4, 5):
            for votes in itertools.product("yna", repeat=size):
                w = _electorate_world(size)
                receipt = w.apply_ok(
                    "v0",
                    CreateProposal(AssignRole(w.aid("cand"), Role.VALIDATOR), Role.VALIDATOR),
                )
                pid = receipt.data["proposal_id"]
                for i, v in enumerate(votes):
                    if v != "a":
                        w.apply_ok(f"v{i}", CastVote(pid, v == "y"))
                w.state.height = w.state.proposals[pid].expires_at + 1
                finalize_expired_proposals(w.state)
                passed = w.state.proposals[pid].status is ProposalStatus.PASSED
                assert passed == (votes.count("y") > size // 2), votes
                assert (w.aid("cand") in w.state.validators()) == passed


# --- 4. rotation fairness and spacing ----------------------------------------------------


def test_criterion_04_round_robin_fairness_and_spacing():
    with criterion(4, "4 live validators publish 25 blocks each; spacing honored with one offline"):
        base = {
            "ticks": 100,
            "seed": 11,
            "actors": [
                {"name": "alice", "roles": ["user"], "balance": 10},
                {"name": "v1", "roles": ["validator"]},
                {"name": "v2", "roles": ["validator"]},
                {"name": "v3", "roles": ["validator"]},
                {"name": "v4", "roles": ["validator"]},
            ],
        }
        report, sim = run(parse_scenario(base))
        assert report.blocks_produced == 100
        counts: dict[str, int] = {}
        for block in sim.chain.blocks[1:]:
            counts[sim.names_by_id[block.publisher]] = counts.get(sim.names_by_id[block.publisher], 0) + 1
        assert counts == {"v1": 25, "v2": 25, "v3": 25, "v4": 25}

        faulty = dict(base)
        faulty["steps"] = [
            {"tick": 20, "fault": {"actor": "v2", "set": ["offline"]}},
            {"tick": 41, "fault": {"actor": "v2", "set": []}},
        ]
        report, sim = run(parse_scenario(faulty))
        publishers = [b.publisher for b in sim.chain.blocks if b.height > 0]
        spacing = 2  # floor(0.5 * 4)
        for i, publisher in enumerate(publishers):
            assert publisher not in publishers[max(0, i - spacing) : i]
        offline_span = [b.publisher for b in sim.chain.blocks if 20 <= b.tick <= 40]
        assert sim.aid("v2") not in offline_span


# --- 5. discrepancy detection end to end ---------------------------------------------------


def test_criterion_05_discrepancy_detection_and_eviction():
    with criterion(5, "corrupt gateway caught, event published within 4 blocks, liar voted out"):
        scenario = load_scenario(SCENARIOS / "corrupt_gateway.yaml")
        report, sim = run(scenario)
        assert report.all_passed, [a for a in report.assertions if not a.ok]
        assert report.compare_results["q1"] == "evidence"
        # the on-chain event self-verifies against the registry
        events = [e for e in sim.state.tx_log if e.kind == "discrepancy_event" and e.ok]
        assert len(events) == 1
        filed_height = events[0].height
        assert filed_height <= 6 + 4  # filed at tick 6, published within 4 blocks
        assert sim.aid("v2") not in sim.state.validators()


# --- 6. delay window --------------------------------------------------------------------


def test_criterion_06_delay_window():
    with criterion(6, "fresh discrepancies excluded; old ones produce evidence"):
        roles = {
            "alice": {Role.USER},
            "v0": {Role.VALIDATOR},
            "v1": {Role.VALIDATOR},
        }
        world = make_world(roles, balances={"alice": 90})
        from rolechain.payloads import ValidatorRecord

        gateways = {}
        for name in ("v0", "v1"):
            view = keypair_from_label("mock", f"{name}.view", 0)
            world.state.validator_registry[world.aid(name)] = ValidatorRecord(
                world.aid(name), ("s",), ("v",), "val", view.public_key, "ops"
            )
            faults = {"corrupt_results"} if name == "v1" else set()
            gateways[name] = VisibilityGateway(world.aid(name), view, faults)
        query = OwnBalance(world.aid("alice"))
        responses = [
            gw.answer(world.state, sign_request(world.kp("alice"), gw.issue_challenge(), query, world.aid("alice")))
            for gw in gateways.values()
        ]
        assert responses[0].result != responses[1].result  # a discrepancy exists
        delay = world.state.policy_int("gateway.delay_blocks", 3)
        world.state.height = responses[0].as_of_height + delay - 1
        assert compare_responses(world.state, responses) is None
        world.state.height = responses[0].as_of_height + delay
        evidence = compare_responses(world.state, responses)
        assert evidence is not None
        assert verify_evidence(world.state, evidence) is None


# --- 7. push/pull equivalence over randomized histories -------------------------------------


def _interest_world(balances: dict[str, int], seed: int) -> World:
    roles = {
        "bank": {Role.CURRENCY_MANAGER},
        "sec": {Role.SYSTEM_SECURITY},
        "alice": {Role.USER},
        "bob": {Role.USER},
    }
    world = make_world(roles, balances=balances, seed=seed)
    world.state.policies["interest.requires_vote"].value = 0
    return world


def _drive_history(world: World, rule_id: int, mode: InterestMode, periods: int,
                   period_len: int, transfers, claim_every: bool, eager: EagerInterest | None = None) -> list[int]:
    ends = []
    for height in range(1, periods * period_len + 1):
        world.state.height = height
        for h, a, b, amount in transfers:
            if h == height:
                world.apply(a, Transfer(world.aid(b), amount))
        if height % period_len == 0:
            k = height // period_len
            if eager is not None:
                eager.accrue(world.state)
            accrue_period(world.state, rule_id, k)
            if claim_every:
                world.apply("alice", ClaimAllowance(rule_id, k))
                world.apply("bob", ClaimAllowance(rule_id, k))
            ends.append((world.balance("alice"), world.balance("bob")))
    return ends


def test_criterion_07_push_pull_equivalence():
    with criterion(7, "every-period pull claimer matches push balances over 200 histories"):
        for trial in range(200):
            rng = random.Random(10_000 + trial)
            period_len = rng.randint(2, 5)
            periods = rng.randint(2, 4)
            balances = {"alice": rng.randint(0, 3_000), "bob": rng.randint(0, 3_000)}
            transfers = [
                (rng.randint(1, periods * period_len), *rng.sample(["alice", "bob"], 2), rng.randint(1, 60))
                for _ in range(rng.randint(0, 8))
            ]
            rate = (rng.randint(1, 4), 100)

            push = _interest_world(dict(balances), seed=trial)
            push.apply_ok("bank", SetInterestRule(rate[0], rate[1], period_len, 0, InterestMode.PUSH))
            push_ends = _drive_history(push, 1, InterestMode.PUSH, periods, period_len, transfers, False)

            pull = _interest_world(dict(balances), seed=trial)
            pull.apply_ok("bank", SetInterestRule(rate[0], rate[1], period_len, 0, InterestMode.PULL))
            pull_ends = _drive_history(pull, 1, InterestMode.PULL, periods, period_len, transfers, True)

            assert pull_ends == push_ends, f"trial {trial}"

            # deferred claimer receives exactly what an eager accrual records at each boundary
            deferred, eager = _interest_world(dict(balances), seed=trial), EagerInterest()
            deferred.apply_ok("bank", SetInterestRule(rate[0], rate[1], period_len, 0, InterestMode.PULL))
            _drive_history(deferred, 1, InterestMode.PULL, periods, period_len, transfers, False, eager)
            expected = eager.unclaimed(deferred.aid("alice"))
            before = deferred.balance("alice")
            receipt = deferred.apply("alice", ClaimAllowance(1, periods))
            gained = deferred.balance("alice") - before
            if expected:
                assert receipt.ok and gained == expected
            else:
                assert gained == 0


# --- 8. skip-and-claim ------------------------------------------------------------------


def test_criterion_08_skip_and_claim():
    with criterion(8, "skipped periods pay out combined in one claim; double claim rejected"):
        world = _interest_world({"alice": 1_000, "bob": 0}, seed=1)
        world.apply_ok("bank", SetInterestRule(1, 100, 10, 0, InterestMode.PULL))
        for k in (1, 2, 3, 4):
            world.state.height = 10 * k
            accrue_period(world.state, 1, k)
        combined = claimable_amount(world.state, world.aid("alice"))
        receipt = world.apply_ok("alice", ClaimAllowance(1, 4))
        assert receipt.data["amount"] == combined == 40
        assert world.balance("alice") == 1_040
        again = world.apply("alice", ClaimAllowance(1, 4))
        assert again.error == err.NOTHING_TO_CLAIM


# --- 9. rate limiting and admission soundness -------------------------------------------


def test_criterion_09_rate_limiting_and_admission_soundness():
    with criterion(9, "11th tx throttled, whitelisted 50/50 pass, no rejected tx on-chain"):
        world = make_world(balances={"alice": 1_000, "bob": 1_000})
        gateway = SecurityGateway(b"\x01" * 32)
        outcomes = [
            gateway.admit(world.state, world.tx("alice", Transfer(world.aid("bob"), 1), nonce=n).encode(), tick=1)
            for n in range(11)
        ]
        assert all(isinstance(o, Admitted) for o in outcomes[:10])
        assert isinstance(outcomes[10], Rejected) and outcomes[10].reason == err.THROTTLED

        world.state.policies["rate.whitelist"].value = world.aid("bob")
        bob_outcomes = [
            gateway.admit(world.state, world.tx("bob", Transfer(world.aid("alice"), 1), nonce=n).encode(), tick=1)
            for n in range(50)
        ]
        assert sum(isinstance(o, Admitted) for o in bob_outcomes) == 50

        # across every bundled scenario, whatever reached a block was admitted
        for fixture in ("bootstrap_and_transfer", "corrupt_gateway", "interest_pull", "interest_settle"):
            _, sim = run(load_scenario(SCENARIOS / f"{fixture}.yaml"))
            for block in sim.chain.blocks[1:]:
                for tx in block.txs:
                    assert tx.tx_id in sim.admitted_ids


# --- 10. key rotation across all recovery policies ----------------------------------------


def test_criterion_10_key_rotation():
    with criterion(10, "all three recovery policies rotate; stale keys and thin approvals fail"):
        world = make_world(balances={"alice": 100, "bob": 100})
        scheme_alice = world.state.accounts[world.aid("alice")]
        scheme_alice.provider = world.aid("prov")

        def approval(approver: str, target: bytes, new_key: bytes):
            kp = world.kp(approver)
            return kp.account_id, kp.sign(rotation_message(target, new_key))

        # provider-only
        new1 = keypair_from_label("mock", "alice-r1", 0)
        world.apply_ok("prov", RotateKey(world.aid("alice"), new1.public_key,
                                         (approval("prov", world.aid("alice"), new1.public_key),)))
        stale = sign_transaction(
            world.kp("alice"), world.aid("alice"), scheme_alice.nonce, Transfer(world.aid("bob"), 1)
        )
        assert apply_transaction(world.state, stale).error == err.BAD_SIGNATURE
        world.keys["alice"] = new1

        # guardians with threshold 2
        target = world.state.accounts[world.aid("bob")]
        target.recovery = Guardians(frozenset({world.aid("prov"), world.aid("sec"), world.aid("mgr")}), 2)
        new2 = keypair_from_label("mock", "bob-r1", 0)
        thin = world.apply("prov", RotateKey(world.aid("bob"), new2.public_key,
                                             (approval("sec", world.aid("bob"), new2.public_key),)))
        assert thin.error == err.INSUFFICIENT_APPROVALS
        world.apply_ok("prov", RotateKey(world.aid("bob"), new2.public_key,
                                         (approval("sec", world.aid("bob"), new2.public_key),
                                          approval("mgr", world.aid("bob"), new2.public_key))))
        world.keys["bob"] = new2

        # provider plus security
        alice = world.state.accounts[world.aid("alice")]
        alice.recovery = ProviderPlusSecurity()
        new3 = keypair_from_label("mock", "alice-r2", 0)
        missing_security = world.apply(
            "prov", RotateKey(world.aid("alice"), new3.public_key,
                              (approval("prov", world.aid("alice"), new3.public_key),)))
        assert missing_security.error == err.INSUFFICIENT_APPROVALS
        world.apply_ok("prov", RotateKey(world.aid("alice"), new3.public_key,
                                         (approval("prov", world.aid("alice"), new3.public_key),
                                          approval("sec", world.aid("alice"), new3.public_key))))
        assert alice.public_key == new3.public_key


# --- 11. freeze / confiscate / reverse -----------------------------------------------------


def test_criterion_11_freeze_confiscate_reverse():
    with criterion(11, "freeze blocks sender only; reverse is exact and refuses partial clawback"):
        world = make_world(balances={"alice": 100, "bob": 50})
        world.apply_ok("sec", SetFrozen(world.aid("alice"), True))
        assert world.apply("alice", Transfer(world.aid("bob"), 5)).error == err.SENDER_FROZEN
        world.apply_ok("bob", Transfer(world.aid("alice"), 10))  # recipient unaffected
        assert world.balance("alice") == 110
        world.apply_ok("sec", SetFrozen(world.aid("alice"), False))

        transfer = world.apply_ok("alice", Transfer(world.aid("bob"), 40))
        world.apply_ok("sec", Reverse(transfer.tx_id))
        assert world.balance("alice") == 110 and world.balance("bob") == 40

        spent = world.apply_ok("alice", Transfer(world.aid("bob"), 40))
        world.apply_ok("bob", Transfer(world.aid("alice"), 70))  # bob keeps 10 < 40
        digest_before = world.state.digest()
        refused = world.apply("sec", Reverse(spent.tx_id))
        assert refused.error == err.INSUFFICIENT_RECIPIENT_FUNDS
        balances_after = (world.balance("alice"), world.balance("bob"))
        assert balances_after == (140, 10)  # untouched by the failed reversal
        assert world.state.conservation_holds()


# --- 12. chain integrity and deterministic replay -----------------------------------------


def test_criterion_12_chain_integrity_and_replay():
    with criterion(12, "every single-byte flip breaks verify; 10 replays give identical digests"):
        raw = {
            "ticks": 3,
            "seed": 9,
            "actors": [
                {"name": "alice", "roles": ["user"], "balance": 100},
                {"name": "bob", "roles": ["user"]},
                {"name": "v1", "roles": ["validator"]},
                {"name": "v2", "roles": ["validator"]},
            ],
            "steps": [
                {"tick": 1, "tx": {"from": "alice", "kind": "transfer", "to": "bob", "amount": 30}},
                {"tick": 2, "tx": {"from": "bob", "kind": "transfer", "to": "alice", "amount": 5}},
            ],
        }
        _, sim = run(parse_scenario(raw))
        dump = sim.export()
        replay(*import_chain(dump))  # intact dump verifies
        for i in range(len(dump)):
            corrupted = bytearray(dump)
            corrupted[i] ^= 0x01
            with pytest.raises(Exception):
                replay(*import_chain(bytes(corrupted)))

        digests = {run(parse_scenario(raw))[0].state_digest for _ in range(10)}
        assert len(digests) == 1
