from __future__ import annotations

import ast
import itertools
from pathlib import Path

import pytest

from rolechain import errors as err
from rolechain.codec import U64_MAX
from rolechain.engine import build_genesis, finalize_expired_proposals
from rolechain.keys import keypair_from_label
from rolechain.ledger import POLICY_DEFAULTS, Account, LedgerState, Policy, ProposalStatus, is_mutable, new_policy
from rolechain.payloads import (
    AssignRole,
    Guardians,
    BootstrapValidators,
    CastVote,
    CreateProposal,
    FinalizeProposal,
    Mint,
    Permanence,
    RevokeRole,
    Role,
    SetPolicy,
    Transfer,
    possession_message,
)

from conftest import World, make_world


# --- policy permanence ----------------------------------------------------------

def test_temporary_policy_overwrite(world):
    world.apply_ok("mgr", SetPolicy("vote.window_blocks", 5, Permanence.TEMPORARY))
    world.apply_ok("mgr", SetPolicy("vote.window_blocks", 7, Permanence.TEMPORARY))
    assert world.state.policy_int("vote.window_blocks") == 7


def test_permanent_policy_immutable(world):
    world.apply_ok("mgr", SetPolicy("custom.flag", 1, Permanence.PERMANENT))
    receipt = world.apply("mgr", SetPolicy("custom.flag", 2, Permanence.TEMPORARY))
    assert receipt.error == err.POLICY_IMMUTABLE
    assert world.state.policy_int("custom.flag") == 1


def test_timed_expiration_exact_boundary(world):
    world.apply_ok("mgr", SetPolicy("custom.timed", 1, Permanence.TIMED_EXPIRATION, 50))
    world.state.height = 49
    receipt = world.apply("mgr", SetPolicy("custom.timed", 2, Permanence.TEMPORARY))
    assert receipt.error == err.POLICY_IMMUTABLE
    world.state.height = 50
    world.apply_ok("mgr", SetPolicy("custom.timed", 2, Permanence.TEMPORARY))
    assert world.state.policy_int("custom.timed") == 2


def test_genesis_installs_the_default_table():
    state = make_world().state
    for key, (value, permanence) in POLICY_DEFAULTS.items():
        policy = state.policies[key]
        assert (policy.value, policy.permanence, policy.expiry_height) == (value, permanence, None)
    assert set(state.policies) == {*POLICY_DEFAULTS, "security.escrow"}


def test_a_policy_of_the_wrong_type_reads_as_the_tables_default():
    state = make_world(
        policy_overrides=[
            ("consensus.diversity", b"\x01", Permanence.TEMPORARY, None),
            ("rate.whitelist", 7, Permanence.TEMPORARY, None),
        ]
    ).state
    assert state.policy_int("consensus.diversity") == POLICY_DEFAULTS["consensus.diversity"][0] == 50
    assert state.policy_bytes("rate.whitelist") == b""
    # an explicit default wins over the table; a key the table lacks reads as zero
    assert state.policy_int("consensus.diversity", -1) == -1
    assert state.policy_int("custom.unset") == 0 and state.policy_bytes("custom.unset") == b""


def test_only_a_timed_policy_keeps_its_expiry_height(world):
    for permanence in Permanence:
        timed = permanence is Permanence.TIMED_EXPIRATION
        assert new_policy("k", 1, permanence, 9).expiry_height == (9 if timed else None)
        world.apply_ok("mgr", SetPolicy(f"k.{permanence.name}", 1, permanence, 9))
        assert world.state.policies[f"k.{permanence.name}"].expiry_height == (9 if timed else None)
    state = make_world(policy_overrides=[("k", 1, Permanence.TEMPORARY, 9)]).state
    assert state.policies["k"].expiry_height is None


SRC = Path(__file__).resolve().parents[1] / "src" / "rolechain"


def test_no_policy_read_in_src_names_its_own_default():
    """``POLICY_DEFAULTS`` is the one source of defaults: a read in ``src`` names
    only its key, and a key it names as a constant is in the table with a value
    of the type it reads.  The escrow key is set by genesis from the escrow
    account; the sim's ``policy`` assert reads -1 for an absent key."""
    reads = 0
    for path in sorted(SRC.glob("*.py")):
        for call in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(call, ast.Call) and getattr(call.func, "attr", None) in ("policy_int", "policy_bytes")):
                continue
            reads += 1
            where = f"{path.name}:{call.lineno}"
            default = call.args[1:] + [k.value for k in call.keywords]
            if path.name == "sim.py" and ast.unparse(call) == "self.state.policy_int(b['key'], -1)":
                continue
            assert not default, f"{where} names its own default"
            key = call.args[0]
            if isinstance(key, ast.Constant) and key.value != "security.escrow":
                assert key.value in POLICY_DEFAULTS, f"{where} reads {key.value!r}, which has no default"
                kind = int if call.func.attr == "policy_int" else bytes
                assert type(POLICY_DEFAULTS[key.value][0]) is kind, f"{where} reads {key.value!r} as {kind.__name__}"
    assert reads >= 14


@pytest.mark.parametrize(
    "permanence,expiry,height,expected",
    [
        (Permanence.PERMANENT, None, 0, False),
        (Permanence.PERMANENT, None, 10**6, False),
        (Permanence.TEMPORARY, None, 0, True),
        (Permanence.TIMED_EXPIRATION, 100, 99, False),
        (Permanence.TIMED_EXPIRATION, 100, 100, True),
    ],
)
def test_is_mutable_matrix(permanence, expiry, height, expected):
    policy = Policy("k", 1, permanence, expiry, b"\x00" * 32, 0)
    assert is_mutable(policy, height) == expected


def test_set_policy_requires_platform_manager(world):
    receipt = world.apply("alice", SetPolicy("x.y", 1, Permanence.TEMPORARY))
    assert receipt.error == err.NOT_PLATFORM_MANAGER


def test_multiple_platform_managers_gate_policy_changes(world):
    world.apply_ok("mgr", AssignRole(world.aid("bob"), Role.PLATFORM_MANAGER))
    receipt = world.apply("mgr", SetPolicy("x.y", 1, Permanence.TEMPORARY))
    assert receipt.error == err.VOTE_REQUIRED


# --- role matrix -------------------------------------------------------------------

def _possession(world: World, provider: str, target: str) -> bytes:
    kp = world.kp(target)
    return kp.sign(possession_message(world.aid(provider), kp.public_key))


def test_provider_assigns_user_with_possession_proof(world):
    carol = keypair_from_label("mock", "carol", 0)
    world.keys["carol"] = carol
    sig = carol.sign(possession_message(world.aid("prov"), carol.public_key))
    world.apply_ok(
        "prov", AssignRole(carol.account_id, Role.USER, carol.public_key, sig)
    )
    acct = world.state.accounts[carol.account_id]
    assert Role.USER in acct.roles
    assert acct.provider == world.aid("prov")


def test_provider_assign_user_without_proof(world):
    carol = keypair_from_label("mock", "carol", 0)
    receipt = world.apply("prov", AssignRole(carol.account_id, Role.USER, carol.public_key, None))
    assert receipt.error == err.MISSING_POSSESSION_PROOF


def test_failed_user_grant_creates_no_account(world):
    carol = keypair_from_label("mock", "carol", 0)
    grants = [
        (AssignRole(carol.account_id, Role.USER, carol.public_key, None), err.MISSING_POSSESSION_PROOF),
        (AssignRole(carol.account_id, Role.USER, carol.public_key, b"\x00" * 16), err.MISSING_POSSESSION_PROOF),
        (AssignRole(carol.account_id, Role.USER, b"\x01" * 5), err.INVALID_KEY),
    ]
    for payload, code in grants:
        assert world.apply("prov", payload).error == code
    assert carol.account_id not in world.state.accounts


def test_provider_cannot_assign_security(world):
    receipt = world.apply("prov", AssignRole(world.aid("bob"), Role.SYSTEM_SECURITY))
    assert receipt.error == err.NOT_AUTHORIZED_FOR_ROLE


def test_manager_cannot_assign_validator_directly(world):
    receipt = world.apply("mgr", AssignRole(world.aid("bob"), Role.VALIDATOR))
    assert receipt.error == err.VALIDATOR_ROLE_LOCKED


def test_revoke_user_role_blocks_transfers(world):
    world.apply_ok("prov", RevokeRole(world.aid("alice"), Role.USER))
    receipt = world.apply("alice", Transfer(world.aid("bob"), 1))
    assert receipt.error == err.NO_ROLE


def test_revoke_absent_role(world):
    receipt = world.apply("mgr", RevokeRole(world.aid("alice"), Role.CURRENCY_MANAGER))
    assert receipt.error == err.ROLE_ABSENT


# --- bootstrap window -----------------------------------------------------------------

def test_bootstrap_within_window(world):
    world.state.height = 3
    validators = frozenset({world.aid("alice"), world.aid("bob")})
    world.apply_ok("mgr", BootstrapValidators(validators))
    assert set(world.state.validators()) == set(validators)


def test_bootstrap_boundary_is_inclusive(world):
    world.state.height = 10
    world.apply_ok("mgr", BootstrapValidators(frozenset({world.aid("alice")})))
    world.state.height = 11
    receipt = world.apply("mgr", BootstrapValidators(frozenset({world.aid("bob")})))
    assert receipt.error == err.BOOTSTRAP_OVER
    assert world.state.validators() == [world.aid("alice")]


def test_bootstrap_replaces_prior_assignment(world):
    world.apply_ok("mgr", BootstrapValidators(frozenset({world.aid("alice")})))
    world.apply_ok("mgr", BootstrapValidators(frozenset({world.aid("bob")})))
    assert world.state.validators() == [world.aid("bob")]


def test_bootstrap_empty_set_rejected(world):
    receipt = world.apply("mgr", BootstrapValidators(frozenset()))
    assert receipt.error == err.EMPTY_VALIDATOR_SET


def test_bootstrap_requires_platform_manager(world):
    receipt = world.apply("sec", BootstrapValidators(frozenset({world.aid("alice")})))
    assert receipt.error == err.NOT_PLATFORM_MANAGER


# --- proposals ---------------------------------------------------------------------------

def _validator_world(n: int = 5) -> World:
    roles = {
        "mgr": {Role.PLATFORM_MANAGER},
        "bank": {Role.CURRENCY_MANAGER},
        "cand": {Role.USER},
    }
    for i in range(n):
        roles[f"v{i}"] = {Role.VALIDATOR}
    return make_world(roles)


def test_validator_proposal_flow():
    world = _validator_world(5)
    cand = world.aid("cand")
    receipt = world.apply_ok(
        "v0", CreateProposal(AssignRole(cand, Role.VALIDATOR), Role.VALIDATOR)
    )
    pid = receipt.data["proposal_id"]
    for voter in ("v0", "v1", "v2"):
        world.apply_ok(voter, CastVote(pid, True))
    world.apply_ok("v3", FinalizeProposal(pid))
    assert world.state.proposals[pid].status is ProposalStatus.PASSED
    assert cand in world.state.validators()


def test_user_cannot_propose_mint(world):
    receipt = world.apply("alice", CreateProposal(Mint(world.aid("alice"), 10), Role.CURRENCY_MANAGER))
    assert receipt.error == err.NOT_ELIGIBLE_PROPOSER


def test_transfer_not_voteable(world):
    receipt = world.apply(
        "bank", CreateProposal(Transfer(world.aid("alice"), 10), Role.CURRENCY_MANAGER)
    )
    assert receipt.error == err.ACTION_NOT_VOTEABLE


def test_vote_rules():
    world = _validator_world(5)
    receipt = world.apply_ok(
        "v0", CreateProposal(RevokeRole(world.aid("v4"), Role.VALIDATOR), Role.VALIDATOR)
    )
    pid = receipt.data["proposal_id"]
    world.apply_ok("v1", CastVote(pid, True))
    again = world.apply("v1", CastVote(pid, False))
    assert again.error == err.ALREADY_VOTED
    outsider = world.apply("cand", CastVote(pid, True))
    assert outsider.error == err.NOT_IN_ELECTORATE
    world.state.height = world.state.proposals[pid].expires_at + 1
    late = world.apply("v2", CastVote(pid, True))
    assert late.error == err.PROPOSAL_CLOSED


def test_proposal_expiry_is_capped_at_the_u64_range():
    world = make_world(
        balances={"alice": 5},
        policy_overrides=[("vote.window_blocks", U64_MAX, Permanence.TEMPORARY, None)],
    )
    world.state.height = 1
    receipt = world.apply_ok("bank", CreateProposal(Mint(world.aid("alice"), 1), Role.CURRENCY_MANAGER))
    pid = receipt.data["proposal_id"]
    assert world.state.proposals[pid].expires_at == U64_MAX
    world.state.digest()  # every stored height fits the u64 the digest writes
    # no height passes the cap: at the last height the vote is still open
    world.state.height = U64_MAX
    assert finalize_expired_proposals(world.state) == []
    world.apply_ok("bank", CastVote(pid, True))
    world.apply_ok("bank", FinalizeProposal(pid))
    assert world.state.proposals[pid].status is ProposalStatus.PASSED
    assert world.balance("alice") == 6


def test_expired_proposals_finalize_in_id_order_whatever_their_expiry():
    """The expiry index yields proposals by expiry height; finalizing keeps
    ascending ids, skips one a vote already closed, and empties the index."""
    world = make_world(balances={"alice": 5})
    state = world.state
    state.policies["vote.window_blocks"].value = 3
    first = world.apply_ok("bank", CreateProposal(Mint(world.aid("alice"), 1), Role.CURRENCY_MANAGER)).data["proposal_id"]
    state.height = 1
    state.policies["vote.window_blocks"].value = 1
    second = world.apply_ok("bank", CreateProposal(Mint(world.aid("alice"), 2), Role.CURRENCY_MANAGER)).data["proposal_id"]
    closed = world.apply_ok("bank", CreateProposal(Mint(world.aid("alice"), 3), Role.CURRENCY_MANAGER)).data["proposal_id"]
    world.apply_ok("bank", CastVote(closed, True))
    world.apply_ok("bank", FinalizeProposal(closed))
    assert state.proposals[second].expires_at < state.proposals[first].expires_at
    state.height = 2
    assert finalize_expired_proposals(state) == []
    state.height = 10
    entries = finalize_expired_proposals(state)
    assert [e.data["proposal_id"] for e in entries] == [first, second]
    assert [state.proposals[pid].status for pid in (first, second)] == [ProposalStatus.EXPIRED] * 2
    assert state._expiring == []
    assert finalize_expired_proposals(state) == []


def test_finalize_undecided_open_proposal_rejected():
    world = _validator_world(5)
    receipt = world.apply_ok(
        "v0", CreateProposal(AssignRole(world.aid("cand"), Role.VALIDATOR), Role.VALIDATOR)
    )
    pid = receipt.data["proposal_id"]
    world.apply_ok("v0", CastVote(pid, True))
    undecided = world.apply("v1", FinalizeProposal(pid))
    assert undecided.error == err.PROPOSAL_NOT_DECIDABLE


def test_proposal_expires_without_quorum():
    world = _validator_world(5)
    receipt = world.apply_ok(
        "v0", CreateProposal(AssignRole(world.aid("cand"), Role.VALIDATOR), Role.VALIDATOR)
    )
    pid = receipt.data["proposal_id"]
    world.apply_ok("v0", CastVote(pid, True))
    world.apply_ok("v1", CastVote(pid, True))
    world.apply_ok("v2", CastVote(pid, False))
    world.apply_ok("v3", CastVote(pid, False))
    world.state.height = world.state.proposals[pid].expires_at + 1
    finalize_expired_proposals(world.state)
    assert world.state.proposals[pid].status is ProposalStatus.EXPIRED
    assert world.aid("cand") not in world.state.validators()


def test_even_electorate_tie_fails_never_passes():
    world = _validator_world(4)
    receipt = world.apply_ok(
        "v0", CreateProposal(AssignRole(world.aid("cand"), Role.VALIDATOR), Role.VALIDATOR)
    )
    pid = receipt.data["proposal_id"]
    for voter, vote in (("v0", True), ("v1", True), ("v2", False), ("v3", False)):
        world.apply_ok(voter, CastVote(pid, vote))
    world.state.height = world.state.proposals[pid].expires_at + 1
    finalize_expired_proposals(world.state)
    # half the electorate against makes passage impossible: failed, not passed
    assert world.state.proposals[pid].status is ProposalStatus.FAILED


def test_votes_and_outcomes_in_public_log():
    world = _validator_world(3)
    receipt = world.apply_ok(
        "v0", CreateProposal(AssignRole(world.aid("cand"), Role.VALIDATOR), Role.VALIDATOR)
    )
    pid = receipt.data["proposal_id"]
    world.apply_ok("v0", CastVote(pid, True))
    world.apply_ok("v1", CastVote(pid, True))
    world.apply_ok("v2", FinalizeProposal(pid))
    kinds = [e.kind for e in world.state.management_log()]
    assert kinds.count("cast_vote") == 2
    assert "create_proposal" in kinds and "finalize_proposal" in kinds


def test_passed_proposal_with_failing_action_keeps_status():
    world = _validator_world(3)
    # minting to an account that will not exist fails at execution time
    ghost = keypair_from_label("mock", "ghost", 0).account_id
    bank = world.state.accounts[world.aid("bank")]
    world.state.set_roles(bank, bank.roles | {Role.VALIDATOR})
    receipt = world.apply_ok(
        "bank", CreateProposal(Mint(ghost, 10), Role.CURRENCY_MANAGER)
    )
    pid = receipt.data["proposal_id"]
    world.apply_ok("bank", CastVote(pid, True))
    final = world.apply_ok("bank", FinalizeProposal(pid))
    prop = world.state.proposals[pid]
    assert prop.status is ProposalStatus.PASSED
    assert prop.execution_error == err.UNKNOWN_ACCOUNT
    assert final.data["execution_error"] == err.UNKNOWN_ACCOUNT
    assert world.state.conservation_holds()


# --- brute-force voting oracle --------------------------------------------------------------

def brute_force_outcome(votes: tuple[str, ...]) -> str:
    """Independent oracle: pass only on a strict yes-majority of members."""
    n = len(votes)
    yes = votes.count("y")
    no = votes.count("n")
    if yes > n // 2:
        return "passed"
    if no >= n - n // 2:
        return "failed"  # yes can never reach strict majority
    return "expired"


@pytest.mark.parametrize("size", [3, 4, 5])
def test_finalize_matches_brute_force_over_all_patterns(size):
    for votes in itertools.product("yna", repeat=size):
        world = _validator_world(size)
        receipt = world.apply_ok(
            "v0", CreateProposal(AssignRole(world.aid("cand"), Role.VALIDATOR), Role.VALIDATOR)
        )
        pid = receipt.data["proposal_id"]
        for i, v in enumerate(votes):
            if v != "a":
                world.apply_ok(f"v{i}", CastVote(pid, v == "y"))
        world.state.height = world.state.proposals[pid].expires_at + 1
        finalize_expired_proposals(world.state)
        status = world.state.proposals[pid].status.value
        assert status == brute_force_outcome(votes), f"votes={votes}"
        # pass <=> yes strictly above half, the core majority rule
        assert (status == "passed") == (votes.count("y") > size // 2)


def _decide(yes: int, no: int, n: int) -> str:
    from rolechain.governance import decide_outcome

    needed = n * 51 // 100 + 1
    outcome = decide_outcome(yes, no, n, needed, expired=True)
    assert outcome is not None
    return outcome.value


def test_finalize_monotone_in_added_votes():
    # adding a yes vote never flips passed away; adding a no never flips failed
    for n in range(1, 7):
        for yes in range(n + 1):
            for no in range(n - yes + 1):
                outcome = _decide(yes, no, n)
                if yes + no < n:
                    if outcome == "passed":
                        assert _decide(yes + 1, no, n) == "passed"
                    if outcome == "failed":
                        assert _decide(yes, no + 1, n) == "failed"


def test_stale_role_votes_discarded_at_finalize():
    world = _validator_world(5)
    receipt = world.apply_ok(
        "v0", CreateProposal(AssignRole(world.aid("cand"), Role.VALIDATOR), Role.VALIDATOR)
    )
    pid = receipt.data["proposal_id"]
    for voter in ("v0", "v1", "v2"):
        world.apply_ok(voter, CastVote(pid, True))
    # v2 loses the validator role before finalize; its vote no longer counts
    v2 = world.state.accounts[world.aid("v2")]
    world.state.set_roles(v2, v2.roles - {Role.VALIDATOR})
    undecided = world.apply("v3", FinalizeProposal(pid))
    # electorate is now 4, yes=2: not decidable yet
    assert undecided.error == err.PROPOSAL_NOT_DECIDABLE


def test_permanent_policy_first_value_wins_against_500_attempts(world):
    world.apply_ok("mgr", SetPolicy("anchor.value", 42, Permanence.PERMANENT))
    actors = ["mgr", "sec", "bank", "prov", "alice", "bob"]
    for i in range(500):
        world.apply(actors[i % len(actors)], SetPolicy("anchor.value", i, Permanence.TEMPORARY))
    assert world.state.policy_int("anchor.value") == 42


def test_two_platform_managers_change_policy_by_vote(world):
    world.apply_ok("mgr", AssignRole(world.aid("bob"), Role.PLATFORM_MANAGER))
    direct = world.apply("mgr", SetPolicy("fees.flag", 1, Permanence.TEMPORARY))
    assert direct.error == err.VOTE_REQUIRED
    receipt = world.apply_ok(
        "mgr",
        CreateProposal(SetPolicy("fees.flag", 1, Permanence.TEMPORARY), Role.PLATFORM_MANAGER),
    )
    pid = receipt.data["proposal_id"]
    world.apply_ok("mgr", CastVote(pid, True))
    world.apply_ok("bob", CastVote(pid, True))
    world.apply_ok("mgr", FinalizeProposal(pid))
    assert world.state.policy_int("fees.flag") == 1


def test_guardians_recovery_validated_at_creation(world):
    carol = keypair_from_label("mock", "carol", 0)
    bad_threshold = Guardians(frozenset({world.aid("bob")}), 5)
    sig = carol.sign(possession_message(world.aid("prov"), carol.public_key))
    receipt = world.apply(
        "prov", AssignRole(carol.account_id, Role.USER, carol.public_key, sig, bad_threshold)
    )
    assert receipt.error == "InvalidRecoveryPolicy"
    self_guard = Guardians(frozenset({carol.account_id, world.aid("bob")}), 1)
    receipt = world.apply(
        "prov", AssignRole(carol.account_id, Role.USER, carol.public_key, sig, self_guard)
    )
    assert receipt.error == "InvalidRecoveryPolicy"
    ok = world.apply_ok(
        "prov",
        AssignRole(
            carol.account_id, Role.USER, carol.public_key, sig,
            Guardians(frozenset({world.aid("bob")}), 1),
        ),
    )
    assert ok.ok
