"""Money supply control: mint/burn, fiat conversion, and periodic creation.

The handlers here check what an action acts on (its kind's gates check who
sends it); money moves only through the ledger's writers (``LedgerState.issue``,
``retire``, ``promise`` and ``claim``), which keep the u64 bound on minted supply.

Periodic creation rules accrue at block heights ``start + k * period``,
each account's amount the floor of the rate times its balance at the
boundary.  Unclaimed amounts are not part of the accrual base, and frozen
accounts neither accrue (their periods are worth 0, so period indices
stay dense) nor claim while frozen.

Push rules credit every balance at the boundary.  Pull rules cost O(rules)
there: the ledger keeps each active pull rule's next total, the sum of its
accounts' amounts, and a boundary mints that total into a pending pool.
Each account a rule with periods pending covers settles them from the
pool on the next write of its balance, freeze or roles, or its next claim,
at the balance those periods saw, which no write changed in between; any
other account settles nothing until a role write grants or revokes the
user role.  So the conservation equation gains one term:

    sum(balances) + sum(unclaimed allowances) + pending pool == minted - burned

``claimable_amount`` counts the pending periods without settling them.  A
pull boundary logs only its public ``accrual`` total: per-account entries
would grow the log by one per account every period, and claim receipts and
``claimable`` answers carry every amount.
"""

from __future__ import annotations

from . import errors as err
from .codec import U64, sorted_map, wire, wire_record
from .errors import TxError
from .ledger import _USER, Applied, Authority, InterestRule, LedgerState
from .payloads import (
    Burn,
    ClaimAllowance,
    ConvertFiat,
    FiatDirection,
    InterestMode,
    Mint,
    Role,
    SetInterestRule,
)


def _reject_all_users_overlap(state: LedgerState, except_id: int | None = None) -> None:
    for other in state.interest_rules.values():
        if other.active and other.scope is None and other.rule_id != except_id:
            raise TxError(err.OVERLAPPING_RULE)


def mint(state: LedgerState, actor: bytes, payload: Mint, tx_id: bytes, authority: Authority) -> Applied:
    to, amount = payload.to, payload.amount
    state.issue(state.account(to), amount)
    return Applied((actor, to), {"to": to, "amount": amount})


def burn(state: LedgerState, actor: bytes, payload: Burn, tx_id: bytes, authority: Authority) -> Applied:
    source, amount = payload.source, payload.amount
    state.retire(state.account(source), amount)
    return Applied((actor, source), {"from": source, "amount": amount})


def convert_fiat(
    state: LedgerState, institution: bytes, payload: ConvertFiat, tx_id: bytes, authority: Authority
) -> Applied:
    """Mint on fiat received off-chain; burn on fiat paid out off-chain."""
    user, direction, amount = payload.user, payload.direction, payload.amount
    acct = state.account(user)
    if _USER not in acct.roles:
        raise TxError(err.NOT_AUTHORIZED_CONVERTER, "target lacks the user role")
    if direction is FiatDirection.IN:
        state.issue(acct, amount)
    else:
        if acct.frozen:
            raise TxError(err.USER_FROZEN)
        state.retire(acct, amount)
    return Applied(
        (institution, user),
        {"user": user, "direction": direction.name.lower(), "amount": amount},
    )


def set_interest_rule(
    state: LedgerState, actor: bytes, payload: SetInterestRule, tx_id: bytes, authority: Authority
) -> Applied:
    if payload.rule_id is not None:
        rule = state.interest_rules.get(payload.rule_id)
        if rule is None:
            raise TxError(err.RULE_INACTIVE, "no such rule")
        if payload.active and rule.scope is None:
            _reject_all_users_overlap(state, except_id=rule.rule_id)
        state.set_rule_active(rule, payload.active)
        return Applied((actor,), {"rule_id": rule.rule_id, "active": payload.active})

    if payload.start_height < state.height:
        raise TxError(err.START_IN_PAST)
    if payload.rate_den <= 0 or payload.period_blocks <= 0:
        raise TxError(err.INVALID_RULE, "zero rate denominator or period")
    if payload.scope is None:
        _reject_all_users_overlap(state)
    rule_id = state.next_rule_id
    state.next_rule_id += 1
    state.add_rule(
        InterestRule(
            rule_id=rule_id,
            rate_num=payload.rate_num,
            rate_den=payload.rate_den,
            period_blocks=payload.period_blocks,
            start_height=payload.start_height,
            mode=payload.mode,
            scope=payload.scope,
            active=payload.active,
        )
    )
    return Applied(
        (actor,),
        {
            "rule_id": rule_id,
            "rate": f"{payload.rate_num}/{payload.rate_den}",
            "period_blocks": payload.period_blocks,
            "start_height": payload.start_height,
            "mode": payload.mode.name.lower(),
            "scope": "all_users" if payload.scope is None else len(payload.scope),
        },
    )


def _rule_members(state: LedgerState, rule: InterestRule) -> list[bytes]:
    if rule.scope is None:
        return state.holders(Role.USER)
    return sorted(rule.scope)


def accrue_period(state: LedgerState, rule_id: int, period_index: int) -> tuple[int, list[tuple[bytes, int]]]:
    """Create one period's funds: a push rule credits every in-scope
    account now, a pull rule mints its next total into the pending pool.

    Returns the period's total and, for a push rule, the (account, amount)
    pairs it credited, for logging.  Must be invoked exactly once per
    boundary, in period order; the rule tracks the last index.  Raises
    ``SupplyOverflow`` before any change when the period's total would take
    minted supply past the u64 range.
    """
    rule = state.interest_rules.get(rule_id)
    if rule is None or not rule.active:
        raise TxError(err.RULE_INACTIVE)
    if period_index <= rule.last_accrued_period:
        raise TxError(err.ALREADY_ACCRUED)
    credited: list[tuple[bytes, int]] = []
    if rule.mode is InterestMode.PUSH:
        members = [acct for acct in map(state.accounts.get, _rule_members(state, rule)) if acct is not None]
        amounts = [(acct, rule.share(acct)) for acct in members]
        total = sum(amount for _, amount in amounts)
        state.check_supply(total)
        for acct, amount in amounts:
            if amount:
                state.issue(acct, amount)
                credited.append((acct.account_id, amount))
    else:
        total = state.promise(rule, period_index)
    rule.created_total += total
    rule.last_accrued_period = period_index
    return total, credited


def boundaries_at(state: LedgerState, height: int) -> list[tuple[int, int]]:
    """(rule_id, period_index) pairs whose boundary lands on ``height``."""
    hits: list[tuple[int, int]] = []
    for rule_id in sorted(state.interest_rules):
        rule = state.interest_rules[rule_id]
        if not rule.active or height <= rule.start_height:
            continue
        offset = height - rule.start_height
        if offset % rule.period_blocks == 0:
            hits.append((rule_id, offset // rule.period_blocks))
    return hits


def claim_allowance(
    state: LedgerState, account: bytes, payload: ClaimAllowance, tx_id: bytes, authority: Authority
) -> Applied:
    """Withdraw all unclaimed periods up to and including ``payload.up_to_period``."""
    rule_id, up_to_period = payload.rule_id, payload.up_to_period
    acct = state.account(account)
    if acct.frozen:
        raise TxError(err.FROZEN)
    rule = state.interest_rules.get(rule_id)
    if rule is None:
        raise TxError(err.RULE_INACTIVE, "no such rule")
    in_scope = rule.scope is None or account in rule.scope
    if not in_scope:
        raise TxError(err.NOTHING_TO_CLAIM, "account not in rule scope")
    if up_to_period > rule.last_accrued_period:
        raise TxError(err.PERIOD_NOT_YET_ACCRUED)
    # the account holds a ledger of the rule once it settles a period of it
    entry = state.allowances.get(account)
    ledger = None if entry is None else entry.ledgers.get(rule_id)
    if ledger is None and not any(r is rule for r, _, _ in state.pending(acct)):
        raise TxError(err.NOTHING_TO_CLAIM)
    if up_to_period <= (0 if ledger is None else ledger.last_claimed_period):
        raise TxError(err.NOTHING_TO_CLAIM)
    total = state.claim(acct, rule_id, up_to_period)
    return Applied(
        (account,),
        {"rule_id": rule_id, "up_to_period": up_to_period, "amount": total},
    )


def claimable_amount(state: LedgerState, account: bytes) -> int:
    """Total unclaimed accruals across every rule, pending periods included, for the account owner."""
    state.account(account)
    return state.unclaimed(account)


@wire_record
class Supply:
    """The supply counters and the total each interest rule has created."""

    minted: int = wire(U64)
    burned: int = wire(U64)
    rules: dict = wire(sorted_map(U64, U64))


def supply_view(state: LedgerState) -> Supply:
    """Public supply counters plus per-rule created totals."""
    rules = {rid: rule.created_total for rid, rule in state.interest_rules.items()}
    return Supply(state.supply.minted, state.supply.burned, rules)
