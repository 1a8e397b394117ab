"""A failed handler changes nothing, over random sequences on a small world.

A step either seals empty blocks or sends one payload: of any handled
kind, from a drawn sender, to drawn targets that include four accounts not
yet created (``FRESH``); a proposal or a vote that an electorate can pass;
or a small transfer between the genesis users.  The handler first runs on
a deep copy under each authority: when it raises ``TxError``, the copy's
digest and id counters must be as they were.
The payload is then signed and committed in a block of its own, so
proposals that pass run their action with system authority on the live
state.
After every step conservation holds, every amount fits in u64, each
cached role-holder list equals a full scan and each active pull rule's next
total equals its full sum.  Before each block is committed, it is applied
to a copy, where each claim's receipt and each boundary's public total must
be what the eager reference (``reference.EagerInterest``) gives, and the
per-block conservation check must give the full sum's verdict: with and
without a stray write to an account the block wrote.  After each block,
every account's ``claimable`` and each rule's created total are the eager
reference's.  Two of the paper's checks and balances hold on every block
(``assert_roles_change_by_rule``): each role gained or lost is a successful
grant or revoke by a holder of the role ``GRANTED_BY`` names, or a passed
proposal's action, and the validator set changes only through a bootstrap
inside its window or a passed validator-electorate proposal.
At teardown the exported chain replays to the same digest.
"""

from __future__ import annotations

import copy
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from rolechain import engine
from rolechain.chain import (
    Chain,
    append_block,
    build_block,
    export_chain,
    genesis_doc,
    import_chain,
    publisher_at,
    replay,
)
from rolechain.codec import U64_MAX
from rolechain.engine import HANDLERS, execute_payload
from rolechain.errors import TxError
from rolechain.keys import keypair_from_label
from rolechain.ledger import Authority, LedgerState, ProposalStatus
from rolechain.monetary import claimable_amount
from rolechain.payloads import (
    GRANTED_BY,
    AssignRole,
    BootstrapValidators,
    Burn,
    CastVote,
    ClaimAllowance,
    Confiscate,
    ConvertFiat,
    CreateProposal,
    DiscrepancyEvent,
    FiatDirection,
    FinalizeProposal,
    Guardians,
    InterestMode,
    Mint,
    Permanence,
    ProviderOnly,
    ProviderPlusSecurity,
    RegisterEndpoints,
    Reverse,
    RevokeRole,
    Role,
    RotateKey,
    SetFrozen,
    SetInterestRule,
    SetPolicy,
    SignedQueryResponse,
    Transaction,
    Transfer,
    ValidatorRecord,
    possession_message,
    rotation_message,
    sign_response,
    sign_transaction,
)

from conftest import make_world
from reference import EagerInterest

GENESIS_ROLES = {
    "mgr": {Role.PLATFORM_MANAGER},
    "sec": {Role.SYSTEM_SECURITY},
    "bank": {Role.CURRENCY_MANAGER},
    "prov": {Role.ACCOUNT_PROVIDER},
    "alice": {Role.USER},
    "bob": {Role.USER},
    "v0": {Role.VALIDATOR},
    "v1": {Role.VALIDATOR},
}
# mint and interest rules need no vote, so both the direct and the voted path run
POLICIES = [
    ("mint.requires_vote", 0, Permanence.TEMPORARY, None),
    ("interest.requires_vote", 0, Permanence.TEMPORARY, None),
]
FRESH = ["carol", "dave", "erin", "frank"]
NAMES = [*GENESIS_ROLES, "escrow", *FRESH]
KEYS = {name: keypair_from_label("mock", name, 0) for name in [*NAMES, "spare0", "spare1"]}
ID = {name: kp.account_id for name, kp in KEYS.items()}
# every key an account can hold, by public key: its own, or a spare rotated in
BY_PUBLIC_KEY = {kp.public_key: kp for kp in KEYS.values()}
VIEW = {name: keypair_from_label("mock", f"{name}.view", 0) for name in NAMES}
MALFORMED_KEY = b"\x01" * 5
ROLES = list(Role)

AMOUNT = st.one_of(st.sampled_from([0, 1, U64_MAX - 1, U64_MAX]), st.integers(0, 60), st.integers(0, U64_MAX))
NAME = st.sampled_from(NAMES)
TARGET = st.one_of(st.sampled_from(FRESH), NAME)
USER = st.one_of(st.sampled_from(["alice", "bob"]), TARGET)
# most signatures are valid; the rest are missing or forged
SIG = st.one_of(st.just("valid"), st.sampled_from(["none", "valid", "forged"]))
POLICY_KEYS = [
    "mint.requires_vote",
    "interest.requires_vote",
    "security.freeze.enabled",
    "security.confiscate.requires_vote",
    "vote.threshold_percent",
    "vote.window_blocks",
    "bootstrap.window_blocks",
    "app.note",
]


def _sign(draw, kp, message: bytes) -> bytes:
    how = draw(SIG)
    if how == "none":
        return b""
    return kp.sign(message) if how == "valid" else b"\x00" * 16


def _recent(draw, next_id: int) -> int:
    """Mostly the newest id a counter gave out; else any id up to the next one."""
    return draw(st.one_of(st.just(max(0, next_id - 1)), st.integers(0, next_id)))


def _assign_role(draw, m, sender):
    target = draw(TARGET)
    others = [None, KEYS["spare0"].public_key, MALFORMED_KEY]
    key = draw(st.one_of(st.just(KEYS[target].public_key), st.sampled_from(others)))
    # missing, valid or forged, evenly: only a valid proof may add an account
    sig = None
    if key is not None and draw(st.booleans()):
        sig = KEYS[target].sign(possession_message(ID[sender], key)) if draw(st.booleans()) else b"\x00" * 16
    recovery = draw(
        st.one_of(
            st.none(),
            st.sampled_from([ProviderOnly(), ProviderPlusSecurity()]),
            st.builds(Guardians, st.frozensets(NAME.map(ID.get), max_size=3), st.integers(0, 3)),
        )
    )
    role = draw(st.one_of(st.just(Role.USER), st.sampled_from(ROLES)))
    return AssignRole(ID[target], role, key, sig, recovery)


def _revoke_role(draw, m, sender):
    target = draw(NAME)
    held = sorted(m.state.accounts[ID[target]].roles, key=ROLES.index) if ID[target] in m.state.accounts else []
    return RevokeRole(ID[target], draw(st.sampled_from(held) if held else st.sampled_from(ROLES)))


def _rotate_key(draw, m, sender):
    target = draw(TARGET)
    new_key = draw(st.sampled_from([KEYS["spare0"].public_key, KEYS["spare1"].public_key, MALFORMED_KEY]))
    approvers = draw(st.one_of(st.just(["prov"]), st.lists(NAME, max_size=3)))
    message = rotation_message(ID[target], new_key)
    return RotateKey(ID[target], new_key, tuple((ID[a], _sign(draw, m.key_of(a), message)) for a in approvers))


def _set_policy(draw, m, sender):
    permanence = draw(st.sampled_from(list(Permanence)))
    timed = permanence is Permanence.TIMED_EXPIRATION
    return SetPolicy(
        draw(st.sampled_from(POLICY_KEYS)),
        draw(st.one_of(st.integers(0, 3), st.just(U64_MAX), st.binary(max_size=4))),
        permanence,
        draw(st.integers(0, m.state.height + 3)) if timed else None,
    )


def _set_interest_rule(draw, m, sender):
    return SetInterestRule(
        draw(st.one_of(st.integers(0, 3), st.just(U64_MAX))),
        draw(st.one_of(st.just(10), st.integers(0, 4))),
        draw(st.one_of(st.just(1), st.integers(0, 3))),
        max(0, m.state.height + draw(st.one_of(st.integers(0, 2), st.just(-1)))),
        draw(st.sampled_from(list(InterestMode))),
        draw(st.one_of(st.none(), st.frozensets(USER.map(ID.get), max_size=3))),
        None if draw(st.booleans()) else _recent(draw, m.state.next_rule_id),
        draw(st.booleans()),
    )


def _register_endpoints(draw, m, sender):
    account = draw(st.one_of(st.just(sender), NAME))
    others = [KEYS[account].public_key, MALFORMED_KEY]
    view_key = draw(st.one_of(st.just(VIEW[account].public_key), st.sampled_from(others)))
    gateways = st.one_of(st.just(("gw0",)), st.lists(st.sampled_from(["gw0", "gw1"]), max_size=2).map(tuple))
    contact = draw(st.sampled_from(["ops", ""]))
    return RegisterEndpoints(ValidatorRecord(ID[account], draw(gateways), draw(gateways), "server", view_key, contact))


def _response(draw, m, echo: bytes) -> SignedQueryResponse:
    validator = draw(st.sampled_from(["v0", "v1", "alice"]))
    signer = SimpleNamespace(sign=lambda message: _sign(draw, VIEW[validator], message))
    return sign_response(
        signer, ID[validator], echo, draw(st.sampled_from([b"1", b"2"])), draw(st.integers(0, m.state.height))
    )


def _discrepancy(draw, m, sender):
    echo = draw(st.sampled_from([b"query", b"other"]))
    return DiscrepancyEvent(_response(draw, m, echo), _response(draw, m, echo))


def _reverse(draw, m, sender):
    transfers = [e.tx_id for e in m.state.tx_log if e.kind == "transfer"]
    return Reverse(draw(st.sampled_from([*transfers, bytes(32)]) if transfers else st.just(bytes(32))))


def _create_proposal(draw, m, sender):
    kind = draw(st.sampled_from([k for k in BUILDERS if k is not CreateProposal]))
    action = BUILDERS[kind][1](draw, m, sender)
    electorate = draw(st.one_of(st.just(action.ELECTORATE or Role.USER), st.sampled_from(ROLES)))
    return CreateProposal(action, electorate)


# payload class -> (the senders that may usually send it, a builder that
# draws one payload of that class given the machine and the sender)
BUILDERS = {
    Transfer: (["alice", "bob"], lambda draw, m, s: Transfer(ID[draw(USER)], draw(AMOUNT))),
    SetFrozen: (["sec"], lambda draw, m, s: SetFrozen(ID[draw(USER)], draw(st.booleans()))),
    Confiscate: (
        ["sec"],
        lambda draw, m, s: Confiscate(ID[draw(USER)], ID[draw(st.one_of(st.just("escrow"), USER))], draw(AMOUNT)),
    ),
    Reverse: (["sec"], _reverse),
    RotateKey: (FRESH, _rotate_key),
    SetPolicy: (["mgr"], _set_policy),
    AssignRole: (["prov"], _assign_role),
    RevokeRole: (["prov", "mgr"], _revoke_role),
    BootstrapValidators: (
        ["mgr"],
        lambda draw, m, s: BootstrapValidators(draw(st.frozensets(NAME.map(ID.get), max_size=3))),
    ),
    CreateProposal: (["mgr", "sec", "bank", "v0"], _create_proposal),
    CastVote: (
        ["mgr", "sec", "bank", "v0", "v1"],
        lambda draw, m, s: CastVote(_recent(draw, m.state.next_proposal_id), draw(st.booleans())),
    ),
    FinalizeProposal: (["v0"], lambda draw, m, s: FinalizeProposal(_recent(draw, m.state.next_proposal_id))),
    Mint: (["bank"], lambda draw, m, s: Mint(ID[draw(USER)], draw(AMOUNT))),
    Burn: (["bank"], lambda draw, m, s: Burn(ID[draw(USER)], draw(AMOUNT))),
    ConvertFiat: (
        ["prov", "bank"],
        lambda draw, m, s: ConvertFiat(ID[draw(USER)], draw(st.sampled_from(list(FiatDirection))), draw(AMOUNT)),
    ),
    SetInterestRule: (["bank"], _set_interest_rule),
    ClaimAllowance: (
        ["alice", "bob"],
        lambda draw, m, s: ClaimAllowance(_recent(draw, m.state.next_rule_id), draw(st.integers(0, 4))),
    ),
    RegisterEndpoints: (["v0", "v1"], _register_endpoints),
    DiscrepancyEvent: (["alice"], _discrepancy),
}
KINDS = list(BUILDERS)
# proposer -> the voteable kinds its role votes on
ELECTED = {
    "mgr": [SetPolicy],
    "sec": [SetFrozen, Confiscate, Reverse],
    "bank": [Mint, Burn, SetInterestRule],
    "v0": [AssignRole, RevokeRole],
}


def scan(state: LedgerState, role: Role) -> list[bytes]:
    return sorted(a.account_id for a in state.accounts.values() if role in a.roles)


def assert_sound(state: LedgerState) -> None:
    assert state.conservation_holds()
    amounts = [state.supply.minted, state.supply.burned]
    amounts += [a.balance for a in state.accounts.values()]
    amounts += [rule.created_total for rule in state.interest_rules.values()]
    amounts += [amount for entry in state.allowances.values() for led in entry.ledgers.values() for _, amount in led.accrued]
    assert all(0 <= amount <= U64_MAX for amount in amounts)
    for role in ROLES:
        assert state.holders(role) == scan(state, role)
    for rule in state.interest_rules.values():
        if rule.active and rule.mode is InterestMode.PULL:
            eligible = [
                a for a in state.accounts.values()
                if Role.USER in a.roles and not a.frozen and (rule.scope is None or a.account_id in rule.scope)
            ]
            assert state._pull[rule.rule_id].next_total == sum(rule.rate_num * a.balance // rule.rate_den for a in eligible)


def assert_roles_change_by_rule(state: LedgerState, before: dict, entries: list, held: dict) -> None:
    """Every role an account gained or lost while the block's ``entries``
    were logged on ``state`` (``before``: each role's holders until then)
    matches a successful ``assign_role`` or ``revoke_role`` whose sender
    held the role ``GRANTED_BY`` names when it applied (``held``: each
    transaction's sender roles then), or a passed proposal's action.  The
    validator role, which ``GRANTED_BY`` leaves out, changes only through a
    successful bootstrap inside ``bootstrap.window_blocks`` or a passed
    validator-electorate proposal."""
    explained = {"assign_role": set(), "revoke_role": set()}  # (role, account) pairs
    bootstrapped = []  # each validator set a bootstrap installed
    for entry in entries:
        if not entry.ok:
            continue
        if entry.kind == "bootstrap_validators":
            assert entry.height <= state.policy_int("bootstrap.window_blocks")
            bootstrapped.append(set(entry.participants[1:]))
        elif entry.kind in explained:
            role = Role[entry.data["role"].upper()]
            if "proposal_id" in entry.data:
                prop = state.proposals[entry.data["proposal_id"]]
                assert prop.status is ProposalStatus.PASSED and prop.action.KIND == entry.kind
                assert role is not Role.VALIDATOR or prop.electorate is Role.VALIDATOR
            else:
                assert GRANTED_BY.get(role) in held[entry.tx_id], (entry.kind, role)
            explained[entry.kind].add((role, entry.data["target"]))
    for role in ROLES:
        after = set(state.holders(role))
        for account in after - before[role]:
            by_bootstrap = role is Role.VALIDATOR and any(account in chosen for chosen in bootstrapped)
            assert (role, account) in explained["assign_role"] or by_bootstrap, ("gained", role)
        for account in before[role] - after:
            by_bootstrap = role is Role.VALIDATOR and any(account not in chosen for chosen in bootstrapped)
            assert (role, account) in explained["revoke_role"] or by_bootstrap, ("lost", role)


def check_block(state: LedgerState, block, eager: EagerInterest) -> LedgerState:
    """On a copy of ``state`` that applies ``block`` as ``append_block`` does,
    each claim's receipt, each boundary's public ``accrual`` entry and the
    supply it mints are the eager reference's, the per-block check's verdict
    is the full sum's, first with 1 added behind the primitives' back to an
    account the block wrote, then without it, and roles change only as
    ``assert_roles_change_by_rule`` allows.  Returns the copy."""
    trial = copy.deepcopy(state)
    trial.height = block.height
    before = {role: set(trial.holders(role)) for role in ROLES}
    logged_before, held = len(trial.tx_log), {}
    for tx in block.txs:
        acct = trial.accounts.get(tx.sender)
        runs = engine.envelope_fault(trial, tx) is None and tx.nonce == acct.nonce
        expected = eager.claim(trial, tx.sender, tx.payload) if runs and isinstance(tx.payload, ClaimAllowance) else None
        held[tx.tx_id] = frozenset() if acct is None else acct.roles
        receipt = engine.apply_transaction(trial, tx)
        if expected is not None:
            assert (receipt.error, receipt.data.get("amount")) == expected
    logged, minted = len(trial.tx_log), trial.supply.minted
    boundaries = eager.accrue(trial)
    engine.run_accruals(trial)
    accruals = [e for e in trial.tx_log[logged:] if e.kind == "accrual"]
    assert [(e.data["rule_id"], e.data["period"], e.ok, e.error, e.data.get("total")) for e in accruals] == boundaries
    assert trial.supply.minted == minted + sum(total for *_, total in boundaries if total is not None)
    engine.finalize_expired_proposals(trial)
    assert_roles_change_by_rule(trial, before, trial.tx_log[logged_before:], held)
    written = sorted(trial._held_before)
    if written:
        trial.accounts[written[0]].balance += 1
        assert not trial.conservation_holds()
        assert not trial.conserved_since_check()
        trial.accounts[written[0]].balance -= 1
    assert trial.conservation_holds()
    assert trial.conserved_since_check()
    return trial


class SmallWorld(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.state = make_world(GENESIS_ROLES, {"alice": 1_000, "bob": 10}, policy_overrides=POLICIES).state
        self.doc = genesis_doc(self.state)
        self.chain = Chain()
        self.eager = EagerInterest()

    def key_of(self, name: str):
        """The keypair that signs for ``name`` now: a rotated key if it was rotated."""
        acct = self.state.accounts.get(ID[name])
        return KEYS[name] if acct is None else BY_PUBLIC_KEY[acct.public_key]

    @rule(data=st.data())
    def send(self, data):
        draw = data.draw
        # role changes are drawn more often: every step checks the cached holders
        role_kinds = [AssignRole, RevokeRole, BootstrapValidators]
        kind = draw(st.one_of(st.sampled_from(role_kinds), st.sampled_from(KINDS)))
        usual_senders, build = BUILDERS[kind]
        sender = draw(st.one_of(st.sampled_from(usual_senders), NAME))
        self.check_and_commit(sender, build(draw, self, sender))

    @rule(data=st.data())
    def pay(self, data):
        """A small transfer between the genesis users, so that many blocks write money."""
        sender = data.draw(st.sampled_from(["alice", "bob"]))
        to = "bob" if sender == "alice" else "alice"
        self.check_and_commit(sender, Transfer(ID[to], data.draw(st.integers(1, 60))))

    @rule(data=st.data())
    def propose(self, data):
        """A proposal its proposer's electorate votes on, so that votes can pass it."""
        proposer = data.draw(st.sampled_from(list(ELECTED)))
        action = BUILDERS[data.draw(st.sampled_from(ELECTED[proposer]))][1](data.draw, self, proposer)
        if isinstance(action, (AssignRole, RevokeRole)):
            action = replace(action, role=Role.VALIDATOR)  # the one role changed by vote
        self.check_and_commit(proposer, CreateProposal(action, action.ELECTORATE))

    @rule(data=st.data())
    def interest(self, data):
        """A step that moves pull interest: a new pull rule, a rule switched off
        or on, a claim near the last period, a freeze or unfreeze, or the user
        role granted (creating an account after a boundary) or revoked."""
        draw, rules = data.draw, sorted(self.state.interest_rules)
        step = draw(st.sampled_from(["rule", "toggle", "claim", "freeze", "grant", "revoke"]))
        if step == "rule" or not rules and step in ("toggle", "claim"):
            scope = draw(st.one_of(st.none(), st.frozensets(USER.map(ID.get), min_size=1, max_size=3)))
            start = self.state.height + draw(st.integers(0, 2))
            payload = SetInterestRule(
                draw(st.integers(1, 10)), draw(st.sampled_from([1, 10, 100])), draw(st.integers(1, 3)),
                start, InterestMode.PULL, scope,
            )
            self.check_and_commit("bank", payload)
        elif step == "toggle":
            rule = self.state.interest_rules[draw(st.sampled_from(rules))]
            payload = SetInterestRule(0, 1, 1, 0, rule.mode, rule.scope, rule.rule_id, not rule.active)
            self.check_and_commit("bank", payload)
        elif step == "claim":
            rule = self.state.interest_rules[draw(st.sampled_from(rules))]
            up_to = max(0, rule.last_accrued_period - draw(st.integers(0, 2)))
            self.check_and_commit(draw(USER), ClaimAllowance(rule.rule_id, up_to))
        elif step == "freeze":
            self.check_and_commit("sec", SetFrozen(ID[draw(USER)], draw(st.booleans())))
        elif step == "grant":
            target = draw(USER)
            sig = KEYS[target].sign(possession_message(ID["prov"], KEYS[target].public_key))
            self.check_and_commit("prov", AssignRole(ID[target], Role.USER, KEYS[target].public_key, sig))
        else:
            self.check_and_commit("prov", RevokeRole(ID[draw(USER)], Role.USER))

    def open_proposals(self) -> list[int]:
        return [pid for pid, p in self.state.proposals.items() if p.status is ProposalStatus.OPEN]

    @precondition(open_proposals)
    @rule(data=st.data())
    def vote(self, data):
        """A vote on an open proposal, mostly by a member of its electorate."""
        draw = data.draw
        pid = draw(st.sampled_from(self.open_proposals()))
        members = [n for n in NAMES if ID[n] in self.state.holders(self.state.proposals[pid].electorate)]
        voter = draw(st.one_of(st.sampled_from(members), NAME) if members else NAME)
        self.check_and_commit(voter, CastVote(pid, draw(st.one_of(st.just(True), st.booleans()))))

    def check_and_commit(self, sender: str, payload) -> None:
        """Run the handler on a copy under each authority, then commit the payload."""
        for authority in Authority:
            trial = copy.deepcopy(self.state)
            before = (trial.digest(), trial.next_proposal_id, trial.next_rule_id)
            try:
                execute_payload(trial, ID[sender], payload, bytes(32), authority)
            except TxError:
                assert (trial.digest(), trial.next_proposal_id, trial.next_rule_id) == before, (payload, authority)
            assert_sound(trial)

        acct = self.state.accounts.get(ID[sender])
        if acct is not None:
            self.seal([sign_transaction(self.key_of(sender), ID[sender], acct.nonce, payload)])

    @rule(blocks=st.integers(1, 4))
    def empty_blocks(self, blocks):
        for _ in range(blocks):
            self.seal([])

    def seal(self, txs: list[Transaction]) -> None:
        state, chain = self.state, self.chain
        try:
            publisher = publisher_at(chain.height + 1, chain, state)
        except TxError:
            return  # no validator may publish: the chain stops here
        name = next(n for n in NAMES if ID[n] == publisher)
        block = build_block(self.key_of(name), publisher, chain.head, txs, chain.height + 1, state)
        trial = check_block(state, block, self.eager)
        append_block(chain, state, block)
        assert (state.supply.minted, state.supply.burned) == (trial.supply.minted, trial.supply.burned)
        assert all(state.holders(role) == trial.holders(role) for role in ROLES)
        for account_id in state.accounts:
            assert claimable_amount(state, account_id) == self.eager.unclaimed(account_id)
        for rule_id, rule in state.interest_rules.items():
            assert rule.created_total == self.eager.created.get(rule_id, 0)

    @invariant()
    def sound(self):
        assert_sound(self.state)

    def teardown(self):
        _, replayed = replay(*import_chain(export_chain(self.chain, self.doc)))
        assert replayed.digest() == self.state.digest()


def test_every_handled_kind_has_a_builder():
    assert set(BUILDERS) == set(HANDLERS)


SmallWorld.TestCase.settings = settings(max_examples=80, stateful_step_count=25, deadline=None)
TestSmallWorld = SmallWorld.TestCase


def test_a_passed_validator_proposal_and_nothing_else_changes_the_validator_set():
    """The per-block role check accepts a validator granted by a passed
    validator-electorate proposal, and refuses a role that changed with no
    receipt to explain it."""
    m = SmallWorld()
    pid = m.state.next_proposal_id
    action = AssignRole(ID["carol"], Role.VALIDATOR, KEYS["carol"].public_key)
    m.check_and_commit("v0", CreateProposal(action, Role.VALIDATOR))
    m.check_and_commit("v0", CastVote(pid, True))
    m.check_and_commit("v1", CastVote(pid, True))
    m.check_and_commit("v0", FinalizeProposal(pid))
    assert m.state.proposals[pid].status is ProposalStatus.PASSED
    assert ID["carol"] in m.state.validators()

    state = copy.deepcopy(m.state)
    before = {role: set(state.holders(role)) for role in ROLES}
    state.set_roles(state.accounts[ID["alice"]], {Role.USER, Role.VALIDATOR})
    with pytest.raises(AssertionError, match="gained"):
        assert_roles_change_by_rule(state, before, [], {})
