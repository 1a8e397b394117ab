"""Transaction envelope verification, payload dispatch, and genesis.

``apply_transaction`` is the single mutation entry point.  Envelope-level
failures (unknown sender, bad signature, stale nonce, no roles) change
nothing at all.  Once the envelope is valid, the payload runs; if it fails,
the sender's nonce is still consumed and the failure is recorded in the
transaction log, so an on-chain transaction can never be replayed whether
or not it succeeded.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from . import errors as err
from . import governance, ledger, monetary
from .errors import TxError
from .keys import get_scheme
from .ledger import (
    Account,
    Applied,
    Authority,
    LedgerState,
    LogEntry,
    Policy,
    Proposal,
)
from .payloads import (
    PAYLOAD_KINDS,
    AssignRole,
    BootstrapValidators,
    Burn,
    CastVote,
    ClaimAllowance,
    Confiscate,
    ConvertFiat,
    CreateProposal,
    DiscrepancyEvent,
    FinalizeProposal,
    Mint,
    Payload,
    Permanence,
    RegisterEndpoints,
    Reverse,
    Role,
    RevokeRole,
    RotateKey,
    SetFrozen,
    SetInterestRule,
    SetPolicy,
    Transaction,
    Transfer,
    ZERO_ID,
)

# kinds that belong to the public management log
MANAGEMENT_KINDS = {
    "set_policy",
    "assign_role",
    "revoke_role",
    "bootstrap_validators",
    "set_frozen",
    "confiscate",
    "reverse",
    "rotate_key",
    "create_proposal",
    "cast_vote",
    "finalize_proposal",
    "mint",
    "burn",
    "convert_fiat",
    "set_interest_rule",
    "register_endpoints",
    "discrepancy_event",
    "accrual",
}


@dataclass
class Receipt:
    tx_id: bytes
    height: int
    kind: str
    ok: bool
    error: str | None = None
    data: dict = field(default_factory=dict)


def verify_evidence(state: LedgerState, event: DiscrepancyEvent) -> str | None:
    """Check a discrepancy report against the on-chain registry.

    Returns a reason string when the evidence does not self-verify: both
    responses must carry valid view-key signatures from two different
    registered validators, answer the same query, disagree on the result,
    and be older than the comparison delay window.
    """
    first, second = event.first, event.second
    if first.validator == second.validator:
        return "responses from the same validator"
    if first.echo != second.echo:
        return "responses answer different queries"
    if first.result == second.result:
        return "responses agree"
    delay = state.policy_int("gateway.delay_blocks", 3)
    scheme = get_scheme(state.scheme)
    for resp in (first, second):
        record = state.validator_registry.get(resp.validator)
        if record is None:
            return "validator has no registered view key"
        if not scheme.verify(record.view_key, resp.signing_bytes(), resp.signature):
            return "view-key signature invalid"
        if resp.as_of_height > state.height - delay:
            return "response too recent to compare"
    return None


def _apply_discrepancy(state: LedgerState, sender: bytes, event: DiscrepancyEvent) -> Applied:
    reason = verify_evidence(state, event)
    if reason is not None:
        raise TxError(err.INVALID_EVIDENCE, reason)
    return Applied(
        (sender, event.first.validator, event.second.validator),
        {
            "first_validator": event.first.validator,
            "second_validator": event.second.validator,
            "as_of_height": max(event.first.as_of_height, event.second.as_of_height),
            "echo_digest": hashlib.sha256(event.first.echo).digest(),
        },
    )


def execute_payload(
    state: LedgerState,
    sender: bytes,
    payload: Payload,
    tx_id: bytes,
    authority: Authority,
) -> tuple[str, Applied]:
    """Dispatch one payload; raises TxError without side effects on failure."""
    kind = PAYLOAD_KINDS[type(payload)]
    if isinstance(payload, Transfer):
        applied = ledger.transfer(state, sender, payload.to, payload.amount)
    elif isinstance(payload, SetFrozen):
        applied = ledger.set_frozen(state, sender, payload.target, payload.frozen, authority)
    elif isinstance(payload, Confiscate):
        applied = ledger.confiscate(
            state, sender, payload.source, payload.to, payload.amount, authority
        )
    elif isinstance(payload, Reverse):
        applied = ledger.reverse_transaction(state, sender, payload.target_tx, tx_id, authority)
    elif isinstance(payload, RotateKey):
        applied = ledger.rotate_key(state, payload.target, payload.new_key, payload.approvals)
    elif isinstance(payload, SetPolicy):
        applied = governance.set_policy(
            state,
            sender,
            payload.key,
            payload.value,
            payload.permanence,
            payload.expiry_height,
            authority,
        )
    elif isinstance(payload, AssignRole):
        applied = governance.assign_role(state, sender, payload, authority)
    elif isinstance(payload, RevokeRole):
        applied = governance.revoke_role(state, sender, payload.target, payload.role, authority)
    elif isinstance(payload, BootstrapValidators):
        applied = governance.bootstrap_set_validators(state, sender, payload.validators)
    elif isinstance(payload, CreateProposal):
        applied, _ = governance.create_proposal(state, sender, payload.action, payload.electorate)
    elif isinstance(payload, CastVote):
        applied = governance.cast_vote(state, sender, payload.proposal_id, payload.approve)
    elif isinstance(payload, FinalizeProposal):
        applied = governance.finalize_proposal(
            state, payload.proposal_id, _proposal_executor(state)
        )
    elif isinstance(payload, Mint):
        applied = monetary.mint(state, sender, payload.to, payload.amount, authority)
    elif isinstance(payload, Burn):
        applied = monetary.burn(state, sender, payload.source, payload.amount, authority)
    elif isinstance(payload, ConvertFiat):
        applied = monetary.convert_fiat(state, sender, payload.user, payload.direction, payload.amount)
    elif isinstance(payload, SetInterestRule):
        applied = monetary.set_interest_rule(state, sender, payload, authority)
    elif isinstance(payload, ClaimAllowance):
        applied = monetary.claim_allowance(state, sender, payload.rule_id, payload.up_to_period)
    elif isinstance(payload, RegisterEndpoints):
        applied = ledger.register_endpoints(state, sender, payload.record)
    elif isinstance(payload, DiscrepancyEvent):
        applied = _apply_discrepancy(state, sender, payload)
    else:
        raise TxError("UnknownPayload", type(payload).__name__)
    return kind, applied


def _proposal_executor(state: LedgerState):
    """Build the callback that runs a passed proposal's action."""

    def run(prop: Proposal) -> str | None:
        exec_id = hashlib.sha256(
            b"exec:" + prop.proposal_id.to_bytes(8, "big") + state.height.to_bytes(8, "big")
        ).digest()
        try:
            kind, applied = execute_payload(
                state, prop.proposer, prop.action, exec_id, Authority.SYSTEM
            )
        except TxError as exc:
            return exc.code
        state.log(
            LogEntry(
                tx_id=exec_id,
                height=state.height,
                kind=kind,
                sender=prop.proposer,
                ok=True,
                error=None,
                management=kind in MANAGEMENT_KINDS,
                participants=applied.participants,
                data={**applied.data, "proposal_id": prop.proposal_id},
            )
        )
        return None

    return run


def finalize_expired_proposals(state: LedgerState) -> list[Receipt]:
    """Auto-finalize every open proposal whose voting window has closed."""
    receipts = []
    for pid in governance.expired_open_proposals(state):
        applied = governance.finalize_proposal(state, pid, _proposal_executor(state))
        event_id = hashlib.sha256(
            b"autofinalize:" + pid.to_bytes(8, "big") + state.height.to_bytes(8, "big")
        ).digest()
        state.log(
            LogEntry(
                tx_id=event_id,
                height=state.height,
                kind="finalize_proposal",
                sender=None,
                ok=True,
                error=None,
                management=True,
                participants=applied.participants,
                data=applied.data,
            )
        )
        receipts.append(Receipt(event_id, state.height, "finalize_proposal", True, data=applied.data))
    return receipts


def run_accruals(state: LedgerState) -> None:
    """Fire every period boundary that lands on the current height."""
    for rule_id, period_index in monetary.boundaries_at(state, state.height):
        credited = monetary.accrue_period(state, rule_id, period_index)
        rule = state.interest_rules[rule_id]
        total = sum(amount for _, amount in credited)
        boundary_id = hashlib.sha256(
            b"accrual:" + rule_id.to_bytes(8, "big") + period_index.to_bytes(8, "big")
        ).digest()
        # public entry records only the rule-level total
        state.log(
            LogEntry(
                tx_id=boundary_id,
                height=state.height,
                kind="accrual",
                sender=None,
                ok=True,
                error=None,
                management=True,
                participants=(),
                data={"rule_id": rule_id, "period": period_index, "total": total},
            )
        )
        credit_kind = (
            "interest_credit" if rule.mode.name == "PUSH" else "interest_accrued"
        )
        for account_id, amount in credited:
            entry_id = hashlib.sha256(boundary_id + account_id).digest()
            state.log(
                LogEntry(
                    tx_id=entry_id,
                    height=state.height,
                    kind=credit_kind,
                    sender=None,
                    ok=True,
                    error=None,
                    management=False,
                    participants=(account_id,),
                    data={"rule_id": rule_id, "period": period_index, "amount": amount},
                )
            )


def apply_transaction(state: LedgerState, tx: Transaction) -> Receipt:
    """Verify the envelope, run the payload, and record the outcome."""
    tx_id = tx.tx_id
    acct = state.accounts.get(tx.sender)
    if acct is None:
        return Receipt(tx_id, state.height, "unknown", False, err.UNKNOWN_SENDER)
    if not tx.signature_ok(state.scheme, acct.public_key):
        return Receipt(tx_id, state.height, "unknown", False, err.BAD_SIGNATURE)
    if tx.nonce != acct.nonce:
        return Receipt(tx_id, state.height, "unknown", False, err.BAD_NONCE)
    if not acct.roles:
        return Receipt(tx_id, state.height, "unknown", False, err.NO_ROLE)

    kind = PAYLOAD_KINDS[type(tx.payload)]
    try:
        kind, applied = execute_payload(state, tx.sender, tx.payload, tx_id, Authority.USER)
        ok, code = True, None
    except TxError as exc:
        applied = Applied((tx.sender,), {})
        ok, code = False, exc.code
    acct.nonce += 1
    state.log(
        LogEntry(
            tx_id=tx_id,
            height=state.height,
            kind=kind,
            sender=tx.sender,
            ok=ok,
            error=code,
            management=kind in MANAGEMENT_KINDS,
            participants=applied.participants,
            data=applied.data,
        )
    )
    return Receipt(tx_id, state.height, kind, ok, code, applied.data)


# --- genesis -------------------------------------------------------------------

DEFAULT_POLICIES: list[tuple[str, int | bytes, Permanence]] = [
    ("bootstrap.window_blocks", 10, Permanence.PERMANENT),
    ("vote.window_blocks", 10, Permanence.TEMPORARY),
    ("vote.threshold_percent", 51, Permanence.TEMPORARY),
    ("security.freeze.enabled", 1, Permanence.TEMPORARY),
    ("security.freeze.requires_vote", 0, Permanence.TEMPORARY),
    ("security.confiscate.enabled", 1, Permanence.TEMPORARY),
    ("security.confiscate.requires_vote", 0, Permanence.TEMPORARY),
    ("security.reverse.enabled", 1, Permanence.TEMPORARY),
    ("security.reverse.requires_vote", 0, Permanence.TEMPORARY),
    ("mint.requires_vote", 1, Permanence.TEMPORARY),
    ("interest.requires_vote", 1, Permanence.TEMPORARY),
    ("consensus.diversity", 50, Permanence.TEMPORARY),
    ("consensus.max_txs_per_block", 1000, Permanence.TEMPORARY),
    ("rate.capacity", 10, Permanence.TEMPORARY),
    ("rate.refill", 1, Permanence.TEMPORARY),
    ("rate.whitelist", b"", Permanence.TEMPORARY),
    ("gateway.delay_blocks", 3, Permanence.TEMPORARY),
]


def build_genesis(
    scheme: str = "mock",
    accounts: list[Account] | None = None,
    policy_overrides: list[tuple[str, int | bytes, Permanence, int | None]] | None = None,
    escrow: Account | None = None,
) -> LedgerState:
    """Assemble the height-0 state: accounts, default policies, escrow.

    Genesis balances count toward minted supply so conservation holds from
    the first block.
    """
    state = LedgerState(scheme=scheme)
    for key, value, permanence in DEFAULT_POLICIES:
        state.policies[key] = Policy(key, value, permanence, None, ZERO_ID, 0)
    for spec in policy_overrides or []:
        key, value, permanence, expiry = spec
        state.policies[key] = Policy(
            key,
            value,
            permanence,
            expiry if permanence is Permanence.TIMED_EXPIRATION else None,
            ZERO_ID,
            0,
        )
    for acct in accounts or []:
        state.accounts[acct.account_id] = acct
        state.supply.minted += acct.balance
    if escrow is not None:
        escrow.roles.add(Role.SYSTEM_SECURITY)
        state.accounts[escrow.account_id] = escrow
        state.supply.minted += escrow.balance
        state.policies["security.escrow"] = Policy(
            "security.escrow", escrow.account_id, Permanence.PERMANENT, None, ZERO_ID, 0
        )
    return state
