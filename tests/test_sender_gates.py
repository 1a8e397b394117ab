"""Who may send each payload kind: the gates ``engine.execute_payload`` runs.

Every payload kind, from a sender holding any set of roles, under either
authority, with every security, mint and interest switch on or off and one
or two platform managers, gets the code the handlers' own sender checks
gave (``reference.parent_sender_fault``); when those pass, it gets what its
handler alone gives, and leaves the same state.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings, strategies as st

from rolechain.engine import HANDLERS, execute_payload
from rolechain.errors import TxError
from rolechain.ledger import Authority
from rolechain.payloads import AssignRole, Permanence, RevokeRole, Role

from conftest import make_world
from reference import parent_sender_fault
from test_payloads import ALL_PAYLOADS

ROLES = list(Role)
SWITCHES = [
    *(f"security.{feature}.{switch}" for feature in ("freeze", "confiscate", "reverse") for switch in ("enabled", "requires_vote")),
    "mint.requires_vote",
    "interest.requires_vote",
]
# every payload case, and a grant and a revoke of each role, each case
# drawn on its own so that each kind meets every switch and authority
CASES = [*ALL_PAYLOADS, *((action, role) for action in ("assign", "revoke") for role in ROLES)]


def _outcome(state, sender: bytes, payload, authority: Authority, run) -> object:
    try:
        return run(state, sender, payload, bytes(32), authority)
    except TxError as exc:
        return exc.code


def _case_id(case) -> str:
    return f"{case[0]}-{case[1].name.lower()}" if isinstance(case, tuple) else type(case).__name__


@pytest.mark.parametrize("case", CASES, ids=_case_id)
@settings(max_examples=25, deadline=None)
@given(
    target=st.sampled_from(["bob", "carol"]),  # in the world, or not
    roles=st.frozensets(st.sampled_from(ROLES)),
    authority=st.sampled_from(list(Authority)),
    switches=st.fixed_dictionaries({key: st.integers(0, 1) for key in SWITCHES}),
    managers=st.integers(1, 2),
)
def test_gates_give_the_handlers_own_sender_checks(case, target, roles, authority, switches, managers):
    world = make_world(policy_overrides=[(key, value, Permanence.TEMPORARY, None) for key, value in switches.items()])
    state = world.state
    if isinstance(case, tuple):
        target_id = world.ids.get(target, bytes(range(32)))
        payload = AssignRole(target_id, case[1]) if case[0] == "assign" else RevokeRole(target_id, case[1])
    else:
        payload = case
    sender = world.aid("alice")
    state.set_roles(state.accounts[sender], roles)
    for name in ("mgr", "bob"):
        acct = state.accounts[world.aid(name)]
        short = managers - len(state.holders(Role.PLATFORM_MANAGER))
        if short > 0:
            state.set_roles(acct, acct.roles | {Role.PLATFORM_MANAGER})
        elif short < 0:
            state.set_roles(acct, acct.roles - {Role.PLATFORM_MANAGER})
    assert len(state.holders(Role.PLATFORM_MANAGER)) == managers

    expected = parent_sender_fault(state, sender, payload, authority)
    gated = copy.deepcopy(state)
    outcome = _outcome(gated, sender, payload, authority, execute_payload)
    if expected is not None:
        assert outcome == expected, (payload, authority)
        return
    direct = copy.deepcopy(state)
    assert outcome == _outcome(direct, sender, payload, authority, HANDLERS[type(payload)]), (payload, authority)
    assert gated.digest() == direct.digest()
