"""The state's role-holder lists always equal a fresh scan of every account,
and once filled they follow role writes and new accounts without one."""

from __future__ import annotations

import ast
import copy
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rolechain import governance
from rolechain.errors import TxError
from rolechain.keys import keypair_from_label
from rolechain.ledger import Account, Authority, LedgerState
from rolechain.payloads import ZERO_ID, AssignRole, BootstrapValidators, RevokeRole, Role

from conftest import make_world

ROLES = list(Role)
KEYS = [keypair_from_label("mock", f"acct{i}", 0) for i in range(8)]


def scan(state: LedgerState, role: Role) -> list[bytes]:
    return sorted(a.account_id for a in state.accounts.values() if role in a.roles)


def assert_fresh(state: LedgerState) -> None:
    for role in ROLES:
        assert state.holders(role) == scan(state, role)
    assert state.validators() == scan(state, Role.VALIDATOR)


role = st.sampled_from(ROLES)
key = st.integers(0, len(KEYS) - 1)
op = st.one_of(
    st.tuples(st.just("assign"), key, role),
    st.tuples(st.just("revoke"), key, role),
    st.tuples(st.just("bootstrap"), st.frozensets(key, min_size=1, max_size=4)),
    st.tuples(st.just("ensure"), key),
    st.tuples(st.just("add"), key, role),
    st.tuples(st.just("discard"), key, role),
    st.tuples(st.just("clear"), key),
    st.tuples(st.just("assign_set"), key, st.frozensets(role)),
    st.tuples(st.just("ior"), key, st.frozensets(role)),
    st.tuples(st.just("isub"), key, st.frozensets(role)),
    st.tuples(st.just("insert"), st.integers(0, 2)),
    st.tuples(st.just("clone"),),
)


def apply(world, spares: list[Account], state: LedgerState, step) -> LedgerState:
    kind, *args = step
    mgr = world.aid("mgr")
    if kind == "clone":
        return copy.deepcopy(state)
    if kind == "bootstrap":
        try:
            validators = BootstrapValidators(frozenset(KEYS[i].account_id for i in args[0]))
            governance.bootstrap_set_validators(state, mgr, validators, ZERO_ID, Authority.USER)
        except TxError:
            pass
        return state
    if kind == "insert":
        # an account built before the holder lists were last filled
        spare = spares[args[0]]
        if spare.account_id not in state.accounts:
            state.add_account(spare)
        return state
    kp = KEYS[args[0]]
    # role writes pick any existing account, genesis ones included
    ids = sorted(state.accounts)
    acct = state.accounts[ids[args[0] % len(ids)]]
    if kind == "assign":
        governance.assign_role(
            state, mgr, AssignRole(kp.account_id, args[1], kp.public_key), ZERO_ID, Authority.SYSTEM
        )
    elif kind == "revoke":
        try:
            governance.revoke_role(state, mgr, RevokeRole(kp.account_id, args[1]), ZERO_ID, Authority.SYSTEM)
        except TxError:
            pass
    elif kind == "ensure":
        if kp.account_id not in state.accounts:
            state.add_account(governance._new_account(kp.account_id, kp.public_key, None, None))
    elif kind == "add":
        with pytest.raises(AttributeError):
            acct.roles.add(args[1])
        state.set_roles(acct, acct.roles | {args[1]})
    elif kind == "discard":
        state.set_roles(acct, acct.roles - {args[1]})
    elif kind == "clear":
        state.set_roles(acct, frozenset())
    elif kind == "assign_set":
        state.set_roles(acct, set(args[1]))
    elif kind == "ior":
        state.set_roles(acct, acct.roles | args[1])
    elif kind == "isub":
        state.set_roles(acct, acct.roles - args[1])
    return state


@settings(max_examples=200, deadline=None)
@given(st.lists(op, max_size=30))
def test_holders_match_a_full_scan_after_every_step(steps):
    world = make_world()
    spares = [
        Account(kp.account_id, kp.public_key, {Role.VALIDATOR, Role.USER})
        for kp in (keypair_from_label("mock", f"spare{i}", 0) for i in range(3))
    ]
    state = world.state
    earlier: list[LedgerState] = []
    assert_fresh(state)
    for step in steps:
        new = apply(world, spares, state, step)
        if new is not state:
            earlier.append(state)
            state = new
        assert_fresh(state)
        # a clone and its original never see each other's writes
        for old in earlier:
            assert_fresh(old)


class NoScan(dict):
    """An accounts table on which any walk over every account fails."""

    def _walk(self, *args):
        raise AssertionError("scanned every account")

    __iter__ = keys = values = items = _walk


def test_filled_holders_follow_writes_without_a_scan():
    """After the first read, a role gained or lost, a new account and a clone
    each leave holders() answering from the kept lists alone."""
    world = make_world()
    state = world.state
    for role in ROLES:
        state.holders(role)
    alice, newcomer = world.aid("alice"), keypair_from_label("mock", "newcomer", 0)
    steps = [
        lambda s: s.set_roles(s.accounts[alice], s.accounts[alice].roles | {Role.VALIDATOR, Role.SYSTEM_SECURITY}),
        lambda s: s.set_roles(s.accounts[alice], s.accounts[alice].roles - {Role.USER}),
        lambda s: s.add_account(Account(newcomer.account_id, newcomer.public_key, {Role.USER, Role.VALIDATOR})),
        copy.deepcopy,
    ]
    for step in steps:
        state = step(state) or state
        plain = state.accounts
        expected = {role: scan(state, role) for role in ROLES}
        state.accounts = NoScan(plain)
        try:
            assert {role: state.holders(role) for role in ROLES} == expected
        finally:
            state.accounts = plain
    assert alice in expected[Role.VALIDATOR] and alice not in expected[Role.USER]
    assert newcomer.account_id in expected[Role.USER]


def test_returned_list_is_a_copy():
    world = make_world()
    holders = world.state.holders(Role.USER)
    holders.clear()
    assert world.state.holders(Role.USER) == scan(world.state, Role.USER) != []


def test_roles_change_only_by_assignment():
    """No in-place edit exists; a name bound to the roles never reaches the account."""
    world = make_world()
    acct = world.state.accounts[world.aid("alice")]
    for name in (
        "add", "discard", "remove", "pop", "clear", "update",
        "difference_update", "intersection_update", "symmetric_difference_update",
    ):
        with pytest.raises(AttributeError):
            getattr(acct.roles, name)
    roles = acct.roles
    roles |= {Role.VALIDATOR}
    roles -= {Role.USER}
    assert acct.roles == {Role.USER} and type(acct.roles) is frozenset
    assert_fresh(world.state)


SRC = Path(__file__).resolve().parents[1] / "src" / "rolechain"


def test_only_the_engine_and_two_handlers_read_an_authority():
    """A passed proposal's action skips its kind's sender gates in
    ``engine.execute_payload`` alone, so no handler has a bypass of its own:
    ``confiscate`` reads the authority only for its non-escrow destination,
    and ``assign_role`` only to ask a provider's grant for the possession
    proof."""
    readers = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "Authority":
                    readers.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    assert readers == {
        "engine.execute_payload",
        "engine._proposal_executor",
        "engine.apply_transaction",
        "ledger.confiscate",
        "governance.assign_role",
    }
