"""Transaction envelope verification, payload dispatch, and genesis.

``apply_transaction`` is the single mutation entry point, and the log entry
it returns is the transaction's receipt.  Envelope-level failures (unknown
sender, no roles, bad signature, stale nonce) change nothing at all: their
entry, of kind ``"unknown"``, is returned but never logged.  Once the
envelope is valid, the payload runs; if it fails, the sender's nonce is
still consumed and the failure is recorded in the transaction log, so an
on-chain transaction can never be replayed whether or not it succeeded.
Security gateways admit by :func:`envelope_fault`, and the comparator
returns only evidence :func:`verify_evidence` accepts.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable

from . import errors as err
from . import governance, ledger, monetary
from .errors import TxError
from .keys import get_scheme
from .ledger import (
    POLICY_DEFAULTS,
    Account,
    Applied,
    Authority,
    LedgerState,
    LogEntry,
    Proposal,
    SupplyCounters,
    new_policy,
)
from .payloads import (
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
    SignedQueryResponse,
    Transaction,
    Transfer,
)


def envelope_fault(state: LedgerState, tx: Transaction) -> str | None:
    """Why ``tx``'s envelope is refused, nonce aside, or None.

    The sender must exist, then hold a role, then have signed under its
    current key: cheapest first, so a refused sender costs no signature check.
    """
    acct = state.accounts.get(tx.sender)
    if acct is None:
        return err.UNKNOWN_SENDER
    if not acct.roles:
        return err.NO_ROLE
    if not tx.signature_ok(state.scheme, acct.public_key):
        return err.BAD_SIGNATURE
    return None


def view_key_fault(state: LedgerState, response: SignedQueryResponse) -> str | None:
    """Why ``response`` is not signed under its validator's registered view key, or None."""
    record = state.validator_registry.get(response.validator)
    if record is None:
        return "validator has no registered view key"
    if not get_scheme(state.scheme).verify(record.view_key, response.signing_bytes(), response.signature):
        return "view-key signature invalid"
    return None


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
    delay = state.policy_int("gateway.delay_blocks")
    for resp in (first, second):
        fault = view_key_fault(state, resp)
        if fault is not None:
            return fault
        if resp.as_of_height > state.height - delay:
            return "response too recent to compare"
    return None


def _apply_discrepancy(
    state: LedgerState, sender: bytes, event: DiscrepancyEvent, tx_id: bytes, authority: Authority
) -> Applied:
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


# payload type -> handler(state, sender, payload, tx_id, authority); a
# handler raises TxError without side effects on failure
HANDLERS: dict[type, Callable[[LedgerState, bytes, Payload, bytes, Authority], Applied]] = {
    Transfer: ledger.transfer,
    SetFrozen: ledger.set_frozen,
    Confiscate: ledger.confiscate,
    Reverse: ledger.reverse_transaction,
    RotateKey: ledger.rotate_key,
    SetPolicy: governance.set_policy,
    AssignRole: governance.assign_role,
    RevokeRole: governance.revoke_role,
    BootstrapValidators: governance.bootstrap_set_validators,
    CreateProposal: governance.create_proposal,
    CastVote: governance.cast_vote,
    # finalizing also needs the engine's executor
    FinalizeProposal: lambda st, who, p, tx_id, auth: governance.finalize_proposal(
        st, p.proposal_id, _proposal_executor(st)
    ),
    Mint: monetary.mint,
    Burn: monetary.burn,
    ConvertFiat: monetary.convert_fiat,
    SetInterestRule: monetary.set_interest_rule,
    ClaimAllowance: monetary.claim_allowance,
    RegisterEndpoints: ledger.register_endpoints,
    DiscrepancyEvent: _apply_discrepancy,
}


def execute_payload(
    state: LedgerState,
    sender: bytes,
    payload: Payload,
    tx_id: bytes,
    authority: Authority,
) -> Applied:
    """Dispatch one payload; raises TxError without side effects on failure."""
    handler = HANDLERS.get(type(payload))
    if handler is None:
        raise TxError(err.UNKNOWN_PAYLOAD, type(payload).__name__)
    return handler(state, sender, payload, tx_id, authority)


def _event_id(prefix: bytes, first: int, second: int) -> bytes:
    """The logged id of an event no transaction carries: SHA-256 of ``prefix``
    and the two numbers, each as 8 big-endian bytes."""
    return hashlib.sha256(prefix + first.to_bytes(8, "big") + second.to_bytes(8, "big")).digest()


def _proposal_executor(state: LedgerState):
    """Build the callback that runs a passed proposal's action."""

    def run(prop: Proposal) -> str | None:
        exec_id = _event_id(b"exec:", prop.proposal_id, state.height)
        try:
            applied = execute_payload(state, prop.proposer, prop.action, exec_id, Authority.SYSTEM)
        except TxError as exc:
            return exc.code
        state.log(
            LogEntry(
                tx_id=exec_id,
                height=state.height,
                kind=prop.action.KIND,
                sender=prop.proposer,
                ok=True,
                error=None,
                management=prop.action.MANAGEMENT,
                participants=applied.participants,
                data={**applied.data, "proposal_id": prop.proposal_id},
            )
        )
        return None

    return run


def finalize_expired_proposals(state: LedgerState) -> list[LogEntry]:
    """Auto-finalize every open proposal whose voting window has closed.

    Returns the entries it logged, one per proposal.
    """
    entries = []
    for pid in governance.expired_open_proposals(state):
        applied = governance.finalize_proposal(state, pid, _proposal_executor(state))
        event_id = _event_id(b"autofinalize:", pid, state.height)
        entry = LogEntry(
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
        state.log(entry)
        entries.append(entry)
    return entries


def run_accruals(state: LedgerState) -> None:
    """Fire every period boundary that lands on the current height.

    Each boundary logs one public ``accrual`` entry with the period's total;
    a push period also logs a private ``interest_credit`` entry per account
    it credited.  A period whose total would take minted supply past the
    u64 range credits nothing: the rule is deactivated and its public entry
    records the failure.
    """
    for rule_id, period_index in monetary.boundaries_at(state, state.height):
        rule = state.interest_rules[rule_id]
        boundary_id = _event_id(b"accrual:", rule_id, period_index)
        data = {"rule_id": rule_id, "period": period_index}
        try:
            data["total"], credited = monetary.accrue_period(state, rule_id, period_index)
            ok, code = True, None
        except TxError as exc:
            if exc.code != err.SUPPLY_OVERFLOW:
                raise
            state.set_rule_active(rule, False)
            credited, ok, code = [], False, exc.code
        state.log(
            LogEntry(
                tx_id=boundary_id,
                height=state.height,
                kind="accrual",
                sender=None,
                ok=ok,
                error=code,
                management=True,
                participants=(),
                data=data,
            )
        )
        for account_id, amount in credited:
            state.log(
                LogEntry(
                    tx_id=hashlib.sha256(boundary_id + account_id).digest(),
                    height=state.height,
                    kind="interest_credit",
                    sender=None,
                    ok=True,
                    error=None,
                    management=False,
                    participants=(account_id,),
                    data={"rule_id": rule_id, "period": period_index, "amount": amount},
                )
            )


def _unlogged(state: LedgerState, tx: Transaction, code: str) -> LogEntry:
    """The entry of an envelope failure: returned, never logged."""
    return LogEntry(tx.tx_id, state.height, "unknown", tx.sender, False, code, False, (), {})


def apply_transaction(state: LedgerState, tx: Transaction) -> LogEntry:
    """Verify the envelope, run the payload, and log the outcome.

    Returns the logged entry, or on an envelope failure (see
    :func:`envelope_fault`, then a stale nonce) an entry of kind
    ``"unknown"`` that is not logged.
    """
    fault = envelope_fault(state, tx)
    if fault is not None:
        return _unlogged(state, tx, fault)
    acct = state.accounts[tx.sender]
    if tx.nonce != acct.nonce:
        return _unlogged(state, tx, err.BAD_NONCE)

    tx_id = tx.tx_id
    try:
        applied = execute_payload(state, tx.sender, tx.payload, tx_id, Authority.USER)
        ok, code = True, None
    except TxError as exc:
        applied = Applied((tx.sender,), {})
        ok, code = False, exc.code
    acct.nonce += 1
    entry = LogEntry(
        tx_id=tx_id,
        height=state.height,
        kind=tx.payload.KIND,
        sender=tx.sender,
        ok=ok,
        error=code,
        management=tx.payload.MANAGEMENT,
        participants=applied.participants,
        data=applied.data,
    )
    state.log(entry)
    return entry


# --- genesis -------------------------------------------------------------------

def build_genesis(
    scheme: str = "mock",
    accounts: list[Account] | None = None,
    policy_overrides: list[tuple[str, int | bytes, Permanence, int | None]] | None = None,
    escrow: Account | None = None,
) -> LedgerState:
    """Assemble the height-0 state: accounts, default policies, escrow.

    Genesis balances count toward minted supply so conservation holds from
    the first block; balances summing past the u64 range raise
    SupplyOverflow.
    """
    state = LedgerState(scheme=scheme)
    for key, (value, permanence) in POLICY_DEFAULTS.items():
        state.policies[key] = new_policy(key, value, permanence)
    for key, value, permanence, expiry in policy_overrides or []:
        state.policies[key] = new_policy(key, value, permanence, expiry)
    for acct in accounts or []:
        state.add_account(acct)
    if escrow is not None:
        state.add_account(escrow)
        state.set_roles(escrow, escrow.roles | {Role.SYSTEM_SECURITY})
        state.policies["security.escrow"] = new_policy("security.escrow", escrow.account_id, Permanence.PERMANENT)
    # minted supply is the balances' sum, as read_genesis requires
    minted = state.total_balances()
    state.check_supply(minted)
    state.supply = SupplyCounters(minted)
    return state
