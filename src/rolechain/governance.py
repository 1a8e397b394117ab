"""Policies, role assignment rules, bootstrapping, and on-chain voting.

Who may send each kind is in README's authority matrix, rendered from each
kind's sender gates (``payloads.payload_kind``).  A provider granting the user
role proves the target holds its key.  The validator role changes only through
``bootstrap_set_validators`` in the bootstrap window, or a passed
validator-electorate proposal.

Votes pass on a strict majority of the *current* electorate: membership is
re-evaluated at finalize time, so votes from accounts that lost the role in
the meantime are discarded.
"""

from __future__ import annotations

from collections.abc import Callable

from . import errors as err
from .codec import U64_MAX
from .errors import InvalidKey, TxError
from .keys import derive_account_id, get_scheme
from .ledger import (
    Account,
    Applied,
    Authority,
    LedgerState,
    Proposal,
    ProposalStatus,
    is_mutable,
    new_policy,
)
from .payloads import (
    AssignRole,
    BootstrapValidators,
    CastVote,
    CreateProposal,
    Guardians,
    Payload,
    Permanence,
    ProviderOnly,
    RecoveryPolicy,
    RevokeRole,
    Role,
    SetPolicy,
    possession_message,
)

def set_policy(
    state: LedgerState, actor: bytes, payload: SetPolicy, tx_id: bytes, authority: Authority
) -> Applied:
    key, permanence = payload.key, payload.permanence
    existing = state.policies.get(key)
    if existing is not None and not is_mutable(existing, state.height):
        raise TxError(err.POLICY_IMMUTABLE)
    state.policies[key] = new_policy(key, payload.value, permanence, payload.expiry_height, actor, state.height)
    data: dict = {"key": key, "value": payload.value, "permanence": permanence.name.lower()}
    if permanence is Permanence.TIMED_EXPIRATION:
        data["expiry_height"] = payload.expiry_height or 0
    return Applied((actor,), data)


def validate_recovery(recovery: RecoveryPolicy, account_id: bytes) -> None:
    """Structural checks on a recovery choice at account creation."""
    if isinstance(recovery, Guardians):
        if not 1 <= recovery.threshold <= len(recovery.guardians):
            raise TxError(
                err.INVALID_RECOVERY_POLICY,
                "guardian threshold must be between 1 and the number of guardians",
            )
        if account_id in recovery.guardians:
            raise TxError(err.INVALID_RECOVERY_POLICY, "an account cannot guard itself")


def _new_account(
    target: bytes,
    target_key: bytes | None,
    provider: bytes | None,
    recovery: RecoveryPolicy | None,
) -> Account:
    """A role-less account for ``target``, checked but not yet in the state."""
    if target_key is None:
        raise TxError(err.UNKNOWN_ACCOUNT, "new account needs its public key")
    try:
        derived = derive_account_id(target_key)
    except InvalidKey:
        raise TxError(err.INVALID_KEY, "malformed target key") from None
    if derived != target:
        raise TxError(err.UNKNOWN_ACCOUNT, "target id does not match the key")
    if recovery is not None:
        validate_recovery(recovery, target)
    return Account(
        account_id=target,
        public_key=target_key,
        recovery=recovery if recovery is not None else ProviderOnly(),
        provider=provider,
    )


def assign_role(
    state: LedgerState, actor: bytes, payload: AssignRole, tx_id: bytes, authority: Authority
) -> Applied:
    target, role = payload.target, payload.role
    # an account provider granting the user role must prove the target holds its key
    provider = actor if role is Role.USER and authority is not Authority.SYSTEM else None
    acct = state.accounts.get(target)
    if acct is None:
        acct = _new_account(target, payload.target_key, provider, payload.recovery)
    if provider is not None:
        if payload.possession_sig is None:
            raise TxError(err.MISSING_POSSESSION_PROOF)
        message = possession_message(actor, acct.public_key)
        if not get_scheme(state.scheme).verify(acct.public_key, message, payload.possession_sig):
            raise TxError(err.MISSING_POSSESSION_PROOF, "possession signature invalid")
    # every check has passed: only now may a new account enter the state
    if target not in state.accounts:
        state.add_account(acct)
    state.set_roles(acct, acct.roles | {role})
    return Applied((actor, target), {"target": target, "role": role.name.lower()})


def revoke_role(
    state: LedgerState, actor: bytes, payload: RevokeRole, tx_id: bytes, authority: Authority
) -> Applied:
    target, role = payload.target, payload.role
    acct = state.account(target)
    if role not in acct.roles:
        raise TxError(err.ROLE_ABSENT)
    state.set_roles(acct, acct.roles - {role})
    return Applied((actor, target), {"target": target, "role": role.name.lower()})


def bootstrap_set_validators(
    state: LedgerState, actor: bytes, payload: BootstrapValidators, tx_id: bytes, authority: Authority
) -> Applied:
    validators = payload.validators
    window = state.policy_int("bootstrap.window_blocks")
    if state.height > window:
        raise TxError(err.BOOTSTRAP_OVER)
    if not validators:
        raise TxError(err.EMPTY_VALIDATOR_SET)
    for v in validators:
        state.account(v)  # all listed accounts must exist
    for existing in state.validators():
        if existing not in validators:
            acct = state.accounts[existing]
            state.set_roles(acct, acct.roles - {Role.VALIDATOR})
    for v in validators:
        acct = state.accounts[v]
        state.set_roles(acct, acct.roles | {Role.VALIDATOR})
    return Applied(
        (actor, *sorted(validators)),
        {"count": len(validators)},
    )


# --- proposals and voting -----------------------------------------------------

def _required_electorate(action: Payload) -> Role:
    electorate = action.ELECTORATE
    if electorate is None:
        raise TxError(err.ACTION_NOT_VOTEABLE)
    if isinstance(action, (AssignRole, RevokeRole)) and action.role is not Role.VALIDATOR:
        # non-validator role changes are direct manager actions, not votes
        raise TxError(err.ACTION_NOT_VOTEABLE)
    return electorate


def create_proposal(
    state: LedgerState, proposer: bytes, payload: CreateProposal, tx_id: bytes, authority: Authority
) -> Applied:
    action, electorate = payload.action, payload.electorate
    required = _required_electorate(action)
    if electorate is not required:
        raise TxError(err.ACTION_NOT_VOTEABLE, f"electorate must be {required.name}")
    acct = state.accounts.get(proposer)
    if acct is None or electorate not in acct.roles:
        raise TxError(err.NOT_ELIGIBLE_PROPOSER)
    window = state.policy_int("vote.window_blocks")
    pid = state.next_proposal_id
    state.next_proposal_id += 1
    state.add_proposal(
        Proposal(
            proposal_id=pid,
            action=action,
            proposer=proposer,
            electorate=electorate,
            created_at=state.height,
            # no height passes U64_MAX, so the cap changes no outcome
            expires_at=min(state.height + window, U64_MAX),
        )
    )
    return Applied(
        (proposer,),
        {"proposal_id": pid, "electorate": electorate.name.lower(), "action": action.KIND},
    )


def cast_vote(
    state: LedgerState, voter: bytes, payload: CastVote, tx_id: bytes, authority: Authority
) -> Applied:
    proposal_id, approve = payload.proposal_id, payload.approve
    prop = state.proposals.get(proposal_id)
    if prop is None:
        raise TxError(err.UNKNOWN_PROPOSAL)
    if prop.status is not ProposalStatus.OPEN or state.height > prop.expires_at:
        raise TxError(err.PROPOSAL_CLOSED)
    acct = state.accounts.get(voter)
    if acct is None or prop.electorate not in acct.roles:
        raise TxError(err.NOT_IN_ELECTORATE)
    if voter in prop.yes or voter in prop.no:
        raise TxError(err.ALREADY_VOTED)
    (prop.yes if approve else prop.no).add(voter)
    return Applied(
        (voter,),
        {"proposal_id": proposal_id, "vote": "yes" if approve else "no"},
    )


def _pass_threshold(state: LedgerState, electorate_size: int) -> int:
    """Smallest yes-count that passes: strictly above the threshold percent."""
    percent = state.policy_int("vote.threshold_percent")
    return electorate_size * percent // 100 + 1


def tally(state: LedgerState, prop: Proposal) -> tuple[int, int, int, int]:
    """(valid yes, valid no, electorate size, yes-count needed to pass)."""
    members = set(state.holders(prop.electorate))
    yes = len(prop.yes & members)
    no = len(prop.no & members)
    n = len(members)
    return yes, no, n, _pass_threshold(state, n)


def decide_outcome(yes: int, no: int, n: int, needed: int, expired: bool) -> ProposalStatus | None:
    """Pure decision rule; None while the proposal must stay open.

    Passes once yes reaches the threshold, fails once yes can no longer
    reach it (so ties in an even electorate fail), expires if the window
    closed without either.
    """
    if yes >= needed:
        return ProposalStatus.PASSED
    if no > n - needed:
        return ProposalStatus.FAILED
    if expired:
        return ProposalStatus.EXPIRED
    return None


def finalize_proposal(
    state: LedgerState,
    proposal_id: int,
    execute: Callable[[Proposal], str | None],
) -> Applied:
    """Resolve an open proposal once its outcome is decided.

    Passes early on a strict majority of yes votes, fails early once passage
    is impossible, and expires otherwise when the window closes.  A passed
    action executes immediately with system authority; if the action itself
    now fails, the proposal still finalizes as passed and its log entry keeps
    the execution error.
    """
    prop = state.proposals.get(proposal_id)
    if prop is None:
        raise TxError(err.UNKNOWN_PROPOSAL)
    if prop.status is not ProposalStatus.OPEN:
        raise TxError(err.ALREADY_FINAL)
    yes, no, n, needed = tally(state, prop)
    outcome = decide_outcome(yes, no, n, needed, state.height > prop.expires_at)
    if outcome is None:
        raise TxError(err.PROPOSAL_NOT_DECIDABLE)
    prop.status = outcome

    if prop.status is ProposalStatus.PASSED:
        prop.execution_error = execute(prop)
    data = {
        "proposal_id": proposal_id,
        "status": prop.status.value,
        "yes": yes,
        "no": no,
        "electorate_size": n,
    }
    if prop.execution_error:
        data["execution_error"] = prop.execution_error
    return Applied((prop.proposer,), data)


def expired_open_proposals(state: LedgerState) -> list[int]:
    """Ids of the open proposals whose voting window has closed, ascending.

    Reads the state's expiry index (``LedgerState.closed_windows``), so a
    block costs what expires in it, not every proposal ever made; each
    proposal leaves the index here, so the caller must finalize them all.
    """
    return sorted(pid for pid in state.closed_windows() if state.proposals[pid].status is ProposalStatus.OPEN)
