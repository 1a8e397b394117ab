from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from rolechain import errors as err
from rolechain.engine import build_genesis, run_accruals
from rolechain.errors import TxError
from rolechain.ledger import Account, Authority
from rolechain.monetary import accrue_period, claimable_amount, supply_view
from rolechain.payloads import (
    Burn,
    CastVote,
    ClaimAllowance,
    ConvertFiat,
    CreateProposal,
    FiatDirection,
    FinalizeProposal,
    InterestMode,
    Mint,
    Permanence,
    Role,
    SetFrozen,
    SetInterestRule,
    SetPolicy,
    Transfer,
)

from conftest import World, make_world
from reference import EagerInterest


def _monetary_world(**kwargs) -> World:
    world = make_world(balances=kwargs.pop("balances", {"alice": 1_000, "bob": 500}))
    # direct currency-manager action for these tests; the vote path is covered separately
    world.state.policies["mint.requires_vote"].value = 0
    world.state.policies["interest.requires_vote"].value = 0
    return world


# --- mint / burn -------------------------------------------------------------------

def test_mint_requires_vote_by_default(world):
    receipt = world.apply("bank", Mint(world.aid("alice"), 100))
    assert receipt.error == err.VOTE_REQUIRED


def test_mint_via_passed_proposal(world):
    receipt = world.apply_ok("bank", CreateProposal(Mint(world.aid("alice"), 1_000), Role.CURRENCY_MANAGER))
    pid = receipt.data["proposal_id"]
    world.apply_ok("bank", CastVote(pid, True))
    world.apply_ok("bank", FinalizeProposal(pid))
    assert world.balance("alice") == 1_100
    assert world.state.supply.minted == 1_100


def test_mint_direct_when_policy_open():
    world = _monetary_world()
    world.apply_ok("bank", Mint(world.aid("alice"), 50))
    assert world.balance("alice") == 1_050
    assert world.state.supply.minted == 1_550


def test_mint_to_unknown_account():
    world = _monetary_world()
    receipt = world.apply("bank", Mint(b"\x77" * 32, 50))
    assert receipt.error == err.UNKNOWN_ACCOUNT


def test_mint_requires_currency_role():
    world = _monetary_world()
    receipt = world.apply("mgr", Mint(world.aid("alice"), 50))
    assert receipt.error == err.NOT_CURRENCY_MANAGER


def test_burn_and_inverse():
    world = _monetary_world(balances={"bank": 500, "alice": 0, "bob": 0})
    world.apply_ok("bank", Burn(world.aid("bank"), 200))
    assert world.balance("bank") == 300
    assert world.state.supply.burned == 200
    start = world.state.supply.circulating
    world.apply_ok("bank", Mint(world.aid("bank"), 70))
    world.apply_ok("bank", Burn(world.aid("bank"), 70))
    assert world.state.supply.circulating == start


def test_burn_exceeding_balance():
    world = _monetary_world()
    receipt = world.apply("bank", Burn(world.aid("alice"), 10_000))
    assert receipt.error == err.INSUFFICIENT_FUNDS


# --- fiat conversion ------------------------------------------------------------------

def test_convert_in_mints():
    world = _monetary_world()
    world.apply_ok("prov", ConvertFiat(world.aid("alice"), FiatDirection.IN, 100))
    assert world.balance("alice") == 1_100
    assert world.state.supply.minted == 1_600


def test_convert_out_burns():
    world = _monetary_world()
    world.apply_ok("bank", ConvertFiat(world.aid("alice"), FiatDirection.OUT, 100))
    assert world.balance("alice") == 900
    assert world.state.supply.burned == 100


def test_convert_out_frozen_user():
    world = _monetary_world()
    world.apply_ok("sec", SetFrozen(world.aid("alice"), True))
    receipt = world.apply("prov", ConvertFiat(world.aid("alice"), FiatDirection.OUT, 10))
    assert receipt.error == err.USER_FROZEN


def test_convert_requires_institution_role():
    world = _monetary_world()
    receipt = world.apply("alice", ConvertFiat(world.aid("bob"), FiatDirection.IN, 10))
    assert receipt.error == err.NOT_AUTHORIZED_CONVERTER


# --- the u64 supply bound ----------------------------------------------------------------

NEAR_MAX = 2**64 - 6  # minted supply, all of it alice's


def test_genesis_balances_past_the_u64_supply_raise_supply_overflow():
    accounts = [Account(bytes([i]) * 32, bytes([i]) * 32, {Role.USER}, 2**63) for i in (1, 2)]
    with pytest.raises(TxError) as exc:
        build_genesis("mock", accounts)
    assert exc.value.code == err.SUPPLY_OVERFLOW
    accounts[1].balance -= 1
    assert build_genesis("mock", accounts).supply.minted == 2**64 - 1


@pytest.mark.parametrize(
    "sender, credit",
    [("bank", lambda to, n: Mint(to, n)), ("prov", lambda to, n: ConvertFiat(to, FiatDirection.IN, n))],
    ids=["mint", "convert_fiat_in"],
)
def test_credit_past_the_u64_supply_fails_before_any_change(sender, credit):
    world = _monetary_world(balances={"alice": NEAR_MAX, "bob": 0})
    receipt = world.apply(sender, credit(world.aid("bob"), 10))
    assert receipt.error == err.SUPPLY_OVERFLOW
    assert world.balance("bob") == 0
    assert world.state.supply.minted == NEAR_MAX
    world.state.digest()  # the digest raised CodecError here before the bound
    world.apply_ok(sender, credit(world.aid("bob"), 5))
    assert world.state.supply.minted == 2**64 - 1
    world.state.digest()


def test_voted_mint_past_the_u64_supply_records_the_error():
    world = make_world(balances={"alice": NEAR_MAX})
    receipt = world.apply_ok("bank", CreateProposal(Mint(world.aid("bob"), 10), Role.CURRENCY_MANAGER))
    pid = receipt.data["proposal_id"]
    world.apply_ok("bank", CastVote(pid, True))
    receipt = world.apply_ok("bank", FinalizeProposal(pid))
    assert receipt.data["execution_error"] == err.SUPPLY_OVERFLOW
    assert world.balance("bob") == 0
    world.state.digest()


@pytest.mark.parametrize("mode", [InterestMode.PUSH, InterestMode.PULL], ids=["push", "pull"])
def test_accrual_past_the_u64_supply_credits_nothing_and_ends_the_rule(mode):
    world = _monetary_world(balances={"alice": NEAR_MAX, "bob": 0})
    rule = _rule(world, mode=mode, num=1, den=100, period=5)
    world.state.height = 5
    before = world.state.digest()
    with pytest.raises(TxError) as exc:
        accrue_period(world.state, rule, 1)
    assert exc.value.code == err.SUPPLY_OVERFLOW
    assert world.state.digest() == before

    run_accruals(world.state)  # the digest raised CodecError after this before the bound
    assert world.state.supply.minted == NEAR_MAX
    assert world.balance("alice") == NEAR_MAX
    assert claimable_amount(world.state, world.aid("alice")) == 0
    assert world.state.interest_rules[rule].active is False
    assert world.state.interest_rules[rule].created_total == 0
    assert world.state.interest_rules[rule].last_accrued_period == 0
    entry = world.state.tx_log[-1]
    assert (entry.kind, entry.ok, entry.error, entry.management) == ("accrual", False, err.SUPPLY_OVERFLOW, True)
    assert entry.data == {"rule_id": rule, "period": 1}
    assert entry.participants == ()
    assert world.state.conservation_holds()
    world.state.digest()

    log_length = len(world.state.tx_log)
    world.state.height = 10
    run_accruals(world.state)  # the rule is inactive: no further boundary fires
    assert len(world.state.tx_log) == log_length


def test_accrual_up_to_the_u64_supply_still_credits():
    # 1/2**63 of alice's balance is 1 unit, which fills the supply exactly
    world = _monetary_world(balances={"alice": 2**64 - 2, "bob": 0})
    rule = _rule(world, mode=InterestMode.PUSH, num=1, den=2**63, period=5)
    world.state.height = 5
    run_accruals(world.state)
    assert world.balance("alice") == 2**64 - 1
    assert world.state.supply.minted == 2**64 - 1
    assert world.state.interest_rules[rule].active
    assert world.state.tx_log[-2].ok and world.state.tx_log[-2].data["total"] == 1
    world.state.digest()


# --- interest rules ---------------------------------------------------------------------

def _rule(world: World, *, mode=InterestMode.PULL, num=1, den=100, period=10, start=0, scope=None):
    receipt = world.apply_ok("bank", SetInterestRule(num, den, period, start, mode, scope))
    return receipt.data["rule_id"]


def test_rule_requires_vote_by_default(world):
    receipt = world.apply("bank", SetInterestRule(1, 100, 10, 5, InterestMode.PUSH))
    assert receipt.error == err.VOTE_REQUIRED


def test_overlapping_all_users_rule_rejected():
    world = _monetary_world()
    _rule(world)
    receipt = world.apply("bank", SetInterestRule(1, 50, 5, 0, InterestMode.PUSH))
    assert receipt.error == err.OVERLAPPING_RULE


def test_rule_start_in_past_rejected():
    world = _monetary_world()
    world.state.height = 20
    receipt = world.apply("bank", SetInterestRule(1, 100, 10, 19, InterestMode.PUSH))
    assert receipt.error == err.START_IN_PAST


@pytest.mark.parametrize("den, period", [(0, 1), (100, 0)], ids=["zero_denominator", "zero_period"])
def test_rule_with_a_zero_denominator_or_period_is_invalid(den, period):
    world = _monetary_world()
    receipt = world.apply("bank", SetInterestRule(1, den, period, 5, InterestMode.PUSH))
    assert receipt.error == err.INVALID_RULE
    assert world.state.interest_rules == {}


def test_push_accrual_credits_balance():
    world = _monetary_world()
    rule = _rule(world, mode=InterestMode.PUSH)
    world.state.height = 10
    accrue_period(world.state, rule, 1)
    assert world.balance("alice") == 1_010
    assert world.balance("bob") == 505
    assert world.state.supply.minted == 1_515
    assert world.state.conservation_holds()


def test_pull_accrual_records_allowance():
    world = _monetary_world()
    rule = _rule(world, mode=InterestMode.PULL)
    world.state.height = 10
    accrue_period(world.state, rule, 1)
    assert world.balance("alice") == 1_000
    assert claimable_amount(world.state, world.aid("alice")) == 10
    assert world.state.supply.minted == 1_515
    assert world.state.conservation_holds()


def test_small_balance_floors_to_zero_entry():
    world = _monetary_world(balances={"alice": 50, "bob": 0})
    rule = _rule(world, mode=InterestMode.PULL)
    world.state.height = 10
    accrue_period(world.state, rule, 1)
    assert claimable_amount(world.state, world.aid("alice")) == 0
    # the worthless period settles as a ledger without it, and claims as 0
    assert world.apply_ok("alice", ClaimAllowance(rule, 1)).data["amount"] == 0
    ledger = world.state.allowances[world.aid("alice")].ledgers[rule]
    assert (ledger.last_claimed_period, ledger.accrued) == (1, [])


def test_accrue_twice_rejected():
    world = _monetary_world()
    rule = _rule(world)
    world.state.height = 10
    accrue_period(world.state, rule, 1)
    with pytest.raises(Exception) as exc:
        accrue_period(world.state, rule, 1)
    assert exc.value.code == err.ALREADY_ACCRUED


def test_scoped_rule_only_hits_members():
    world = _monetary_world()
    rule = _rule(world, scope=frozenset({world.aid("alice")}))
    world.state.height = 10
    accrue_period(world.state, rule, 1)
    assert claimable_amount(world.state, world.aid("alice")) == 10
    assert claimable_amount(world.state, world.aid("bob")) == 0


def test_frozen_accounts_skip_periods():
    world = _monetary_world()
    rule = _rule(world)
    world.apply_ok("sec", SetFrozen(world.aid("alice"), True))
    world.state.height = 10
    accrue_period(world.state, rule, 1)
    assert world.state.interest_rules[rule].created_total == 5  # bob's alone
    # unfreezing settles the period at the freeze it saw: worthless, skipped, not deferred
    world.apply_ok("sec", SetFrozen(world.aid("alice"), False))
    assert world.state.allowances[world.aid("alice")].ledgers[rule].accrued == []
    assert claimable_amount(world.state, world.aid("alice")) == 0
    assert world.apply_ok("alice", ClaimAllowance(rule, 1)).data["amount"] == 0


def test_claim_combined_periods():
    world = _monetary_world()
    rule = _rule(world)
    for k in (1, 2, 3):
        world.state.height = 10 * k
        accrue_period(world.state, rule, k)
    receipt = world.apply_ok("alice", ClaimAllowance(rule, 3))
    assert receipt.data["amount"] == 30
    assert world.balance("alice") == 1_030
    assert world.state.conservation_holds()


def test_double_claim_rejected():
    world = _monetary_world()
    rule = _rule(world)
    world.state.height = 10
    accrue_period(world.state, rule, 1)
    world.apply_ok("alice", ClaimAllowance(rule, 1))
    receipt = world.apply("alice", ClaimAllowance(rule, 1))
    assert receipt.error == err.NOTHING_TO_CLAIM


def test_claim_future_period_rejected():
    world = _monetary_world()
    rule = _rule(world)
    for k in (1, 2, 3):
        world.state.height = 10 * k
        accrue_period(world.state, rule, k)
    receipt = world.apply("alice", ClaimAllowance(rule, 5))
    assert receipt.error == err.PERIOD_NOT_YET_ACCRUED


def test_frozen_cannot_claim():
    world = _monetary_world()
    rule = _rule(world)
    world.state.height = 10
    accrue_period(world.state, rule, 1)
    world.apply_ok("sec", SetFrozen(world.aid("alice"), True))
    receipt = world.apply("alice", ClaimAllowance(rule, 1))
    assert receipt.error == err.FROZEN


def test_supply_view_additivity():
    world = _monetary_world()
    world.apply_ok("bank", Mint(world.aid("alice"), 1_000))
    rule = _rule(world)
    world.state.height = 10
    accrue_period(world.state, rule, 1)
    view = supply_view(world.state)
    assert view.minted == 1_500 + 1_000 + view.rules[rule]
    assert view.rules[rule] == (2_000 // 100) + (500 // 100)


def test_accruals_fire_through_block_hook():
    world = _monetary_world()
    _rule(world, period=5)
    world.state.height = 5
    run_accruals(world.state)
    assert claimable_amount(world.state, world.aid("alice")) == 10
    world.state.height = 6
    run_accruals(world.state)  # not a boundary: nothing happens
    assert claimable_amount(world.state, world.aid("alice")) == 10
    # per-account accrual entries are private; totals entry is public
    mgmt = [e.kind for e in world.state.management_log()]
    assert "accrual" in mgmt
    assert "interest_accrued" not in mgmt


# --- push/pull equivalence and deferred-claim oracles -------------------------------------

def _drive(world: World, rule: int, mode: InterestMode, periods: int, period_len: int,
           transfers: list[tuple[int, str, str, int]], claim_every: bool) -> list[int]:
    """Drive boundaries and transfers; return alice's balance at each period end.

    ``transfers``: (height, from, to, amount), applied before any boundary at
    the same height.
    """
    balances = []
    by_height: dict[int, list] = {}
    for h, a, b, amt in transfers:
        by_height.setdefault(h, []).append((a, b, amt))
    for height in range(1, periods * period_len + 1):
        world.state.height = height
        for a, b, amt in by_height.get(height, []):
            world.apply(a, Transfer(world.aid(b), amt))
        if height % period_len == 0:
            k = height // period_len
            accrue_period(world.state, rule, k)
            if mode is InterestMode.PULL and claim_every:
                world.apply("alice", ClaimAllowance(rule, k))
                world.apply("bob", ClaimAllowance(rule, k))
            balances.append(world.balance("alice"))
    return balances


@pytest.mark.parametrize("seed", range(20))
def test_push_pull_equivalence_randomized(seed):
    rng = random.Random(seed)
    period_len = rng.randint(2, 5)
    periods = rng.randint(2, 4)
    start_balances = {"alice": rng.randint(0, 2_000), "bob": rng.randint(0, 2_000)}
    transfers = [
        (
            rng.randint(1, periods * period_len),
            *rng.sample(["alice", "bob"], 2),
            rng.randint(1, 50),
        )
        for _ in range(rng.randint(0, 10))
    ]

    push_world = _monetary_world(balances=dict(start_balances))
    push_rule = _rule(push_world, mode=InterestMode.PUSH, num=3, den=100, period=period_len)
    push_balances = _drive(push_world, push_rule, InterestMode.PUSH, periods, period_len, transfers, False)

    pull_world = _monetary_world(balances=dict(start_balances))
    pull_rule = _rule(pull_world, mode=InterestMode.PULL, num=3, den=100, period=period_len)
    pull_balances = _drive(pull_world, pull_rule, InterestMode.PULL, periods, period_len, transfers, True)

    # claiming at every boundary reproduces push balances exactly, period by period
    assert pull_balances == push_balances


@pytest.mark.parametrize("seed", range(10))
def test_deferred_claim_pays_recorded_accruals_exactly(seed):
    rng = random.Random(1_000 + seed)
    world = _monetary_world(balances={"alice": rng.randint(100, 5_000), "bob": 1_000})
    rule = _rule(world, mode=InterestMode.PULL, num=rng.randint(1, 5), den=100, period=3)
    periods = rng.randint(3, 6)
    rate_num = world.state.interest_rules[rule].rate_num
    expected = 0
    for k in range(1, periods + 1):
        world.state.height = 3 * k
        # interleave transfers so the balance-at-boundary varies
        world.apply("bob", Transfer(world.aid("alice"), rng.randint(1, 40)))
        # independent oracle: alice's own share at each boundary
        expected += rate_num * world.balance("alice") // 100
        accrue_period(world.state, rule, k)
    before = world.balance("alice")
    receipt = world.apply_ok("alice", ClaimAllowance(rule, periods))
    assert world.balance("alice") - before == expected
    assert receipt.data["amount"] == expected
    assert world.state.conservation_holds()


def test_reactivating_all_users_rule_checks_overlap():
    world = _monetary_world()
    first = _rule(world)
    world.apply_ok("bank", SetInterestRule(0, 1, 1, 0, InterestMode.PULL, None, first, False))
    second = _rule(world)  # allowed while the first is inactive
    receipt = world.apply("bank", SetInterestRule(0, 1, 1, 0, InterestMode.PULL, None, first, True))
    assert receipt.error == err.OVERLAPPING_RULE
    # deactivate the second, then reactivation of the first is fine
    world.apply_ok("bank", SetInterestRule(0, 1, 1, 0, InterestMode.PULL, None, second, False))
    world.apply_ok("bank", SetInterestRule(0, 1, 1, 0, InterestMode.PULL, None, first, True))


# --- the one unclaimed sum ----------------------------------------------------------

USERS = ("alice", "bob")


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_one_unclaimed_sum_answers_claimable_holding_and_both_conservation_checks(data):
    """Pending and settled periods, over freezes, claims and transfers between
    boundaries of several pull rules, sum to what the eager reference recorded."""
    world = _monetary_world(balances={name: data.draw(st.integers(0, 5_000), label=name) for name in USERS})
    state, eager = world.state, EagerInterest()
    # pull rules over all users (at most one) or over some of them, so a user may hold several ledgers
    scopes = data.draw(st.lists(st.sampled_from([None, ("alice",), ("bob",), USERS]), min_size=1, max_size=3), label="scopes")
    for i, scope in enumerate(scopes):
        if scope is None and None in scopes[:i]:
            continue
        _rule(
            world,
            num=data.draw(st.integers(0, 20)),
            den=data.draw(st.integers(1, 100)),
            period=data.draw(st.integers(1, 4)),
            start=data.draw(st.integers(0, 3)),
            scope=None if scope is None else frozenset(map(world.aid, scope)),
        )
    assert state.conserved_since_check()
    for height in range(1, data.draw(st.integers(1, 12), label="heights") + 1):
        state.height = height
        for _ in range(data.draw(st.integers(0, 3))):
            name = data.draw(st.sampled_from(USERS))
            action = data.draw(st.sampled_from(["freeze", "unfreeze", "claim", "transfer"]))
            if action == "claim":
                rule = state.interest_rules[data.draw(st.sampled_from(sorted(state.interest_rules)))]
                claim = ClaimAllowance(rule.rule_id, data.draw(st.integers(0, rule.last_accrued_period + 1)))
                code, amount = eager.claim(state, world.aid(name), claim)
                receipt = world.apply(name, claim)
                assert (receipt.error, receipt.data.get("amount")) == (code, amount)
            elif action == "transfer":
                world.apply(name, Transfer(world.aid("bob" if name == "alice" else "alice"), data.draw(st.integers(0, 100))))
            else:
                world.apply("sec", SetFrozen(world.aid(name), action == "freeze"))
        eager.accrue(state)
        run_accruals(state)
        # a write behind the primitives to an account this block wrote, which both checks must see
        stray = data.draw(st.sampled_from([None, *USERS]), label="stray")
        if stray is not None and world.aid(stray) in state._held_before:
            state.accounts[world.aid(stray)].balance += 1
        full = state.conservation_holds()
        assert state.conserved_since_check() == full
        if not full:  # a failed check keeps failing
            return
        for aid in state.accounts:
            assert claimable_amount(state, aid) == state.unclaimed(aid) == eager.unclaimed(aid)
        assert state.total_unclaimed() == sum(map(eager.unclaimed, state.accounts))


def test_a_boundary_journals_no_account_and_settles_on_the_next_write():
    world = _monetary_world()
    state = world.state
    rule = _rule(world, period=5)
    assert state.conserved_since_check()
    state.height = 5
    run_accruals(state)
    assert state._held_before == {}
    assert state.allowances == {}
    assert state._pool == 15
    assert state.conserved_since_check()
    # alice's transfer settles her period, and bob's as the recipient
    world.apply_ok("alice", Transfer(world.aid("bob"), 100))
    assert state._pool == 0
    assert state.allowances[world.aid("alice")].ledgers[rule].accrued == [(1, 10)]
    assert state.allowances[world.aid("bob")].ledgers[rule].accrued == [(1, 5)]
    assert state._pull[rule].next_total == 9 + 6
    assert state.conserved_since_check()
    assert state.conservation_holds()


def test_an_account_outside_every_rule_keeps_no_allowances():
    world = _monetary_world()
    state = world.state
    rule = _rule(world, period=5, scope=frozenset({world.aid("alice")}))
    state.height = 5
    run_accruals(state)
    world.apply_ok("bob", Transfer(world.aid("alice"), 100))
    assert world.aid("bob") not in state.allowances
    assert state.allowances[world.aid("alice")].ledgers[rule].accrued == [(1, 10)]
    assert state.conserved_since_check()
    assert state.conservation_holds()


def test_a_full_sum_catches_a_wrong_pool_or_next_total():
    world = _monetary_world()
    state = world.state
    rule = _rule(world, period=5)
    state.height = 5
    run_accruals(state)
    assert state.conservation_holds()
    state._pull[rule].next_total += 1
    assert not state.conservation_holds()
    state._pull[rule].next_total -= 1
    state._pool += 1
    state.supply.minted += 1  # still balanced, but the pool is not the pending periods' sum
    assert not state.conservation_holds()
