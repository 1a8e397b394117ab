"""Immutable per-account values are shared, not copied per account.

An account's roles are one interned ``frozenset`` per distinct role set,
however the account is built or decoded, and the ledger's records keep
their fields in slots.  A union member without fields (``ProviderOnly``,
``SupplyView``, ...) has one instance, whether built or decoded.
"""

from __future__ import annotations

import dataclasses
from itertools import combinations

import pytest

from rolechain import ledger
from rolechain.chain import decode_genesis, genesis_doc
from rolechain.codec import whole
from rolechain.ledger import Account, LedgerState, LogEntry
from rolechain.payloads import QUERY, RECOVERY, Role, decode_query, encode_query

from conftest import make_world
from reference import Writer

FIELDLESS = [cls for union in (RECOVERY, QUERY) for cls in union.by_tag.values() if not dataclasses.fields(cls)]


def test_accounts_with_equal_roles_share_one_frozenset_across_states():
    first, second = make_world().state, make_world().state
    loaded, _ = decode_genesis(genesis_doc(first, {}))
    for aid, acct in first.accounts.items():
        assert second.accounts[aid].roles is acct.roles
        assert loaded.accounts[aid].roles is acct.roles
    users = [acct.roles for acct in first.accounts.values() if acct.roles == {Role.USER}]
    assert len(users) >= 2 and all(roles is users[0] for roles in users)


def test_the_interned_role_sets_number_at_most_one_per_subset_of_roles():
    state, acct = LedgerState(), Account(bytes(32), bytes(32))
    state.add_account(acct)
    for size in range(len(Role) + 1):
        for roles in combinations(Role, size):
            state.set_roles(acct, set(roles))
            assert acct.roles == frozenset(roles)
            state.set_roles(acct, list(reversed(roles)))
            assert acct.roles is ledger._role_sets[frozenset(roles)]
    assert len(ledger._role_sets) <= 2 ** len(Role)


def test_a_role_write_stores_the_shared_set():
    world = make_world()
    acct = world.state.accounts[world.aid("alice")]
    validators = world.state.validators()
    world.state.set_roles(acct, acct.roles | {Role.VALIDATOR})
    assert acct.roles is Account(bytes(32), bytes(32), roles={Role.VALIDATOR, Role.USER}).roles
    assert world.state.validators() == sorted([*validators, world.aid("alice")])


@pytest.mark.parametrize("roles", [{Role.USER, Role.VALIDATOR}, [Role.VALIDATOR, Role.USER, Role.USER]], ids=["set", "list"])
def test_an_account_built_with_a_set_or_a_list_of_roles_holds_the_shared_frozenset(roles):
    acct = Account(bytes(32), bytes(32), roles=roles)
    assert type(acct.roles) is frozenset
    assert acct.roles is ledger._role_sets[frozenset({Role.USER, Role.VALIDATOR})]


def test_a_decoded_genesis_account_holds_the_shared_frozenset():
    state = make_world().state
    loaded, _ = decode_genesis(genesis_doc(state, {}))
    for acct in loaded.accounts.values():
        assert acct.roles is ledger._role_sets[acct.roles]


def test_accounts_and_log_entries_keep_their_fields_in_slots():
    acct = Account(bytes(32), bytes(32))
    entry = LogEntry(bytes(32), 1, "transfer", None, True, None, False, (), {})
    for record in (acct, entry):
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            record.undeclared = 1


@pytest.mark.parametrize("cls", FIELDLESS, ids=lambda cls: cls.__name__)
def test_a_member_without_fields_is_one_instance_however_it_is_made(cls):
    union = RECOVERY if cls in RECOVERY.by_tag.values() else QUERY
    only = cls()
    assert cls() is only and dataclasses.replace(only) is only
    w = Writer()
    union.encode(w, only)
    raw = w.getvalue()
    assert whole(union.read, raw) is only
    assert whole(union.read, raw) is only
    value, end = union.read(raw, 0)
    assert value is only and end == len(raw)
    if union is QUERY:
        assert decode_query(encode_query(only)) is only

