from __future__ import annotations

import ast
import random
from pathlib import Path

import pytest

from rolechain import errors as err
from rolechain.keys import keypair_from_label
from rolechain.ledger import get_balance, get_history
from rolechain.payloads import (
    Guardians,
    Mint,
    ProviderOnly,
    ProviderPlusSecurity,
    Reverse,
    Role,
    RotateKey,
    SetFrozen,
    Confiscate,
    Transfer,
    Transaction,
    rotation_message,
    sign_transaction,
)

from conftest import make_world


# --- transfers -------------------------------------------------------------------

def test_transfer_arithmetic(world):
    receipt = world.apply_ok("alice", Transfer(world.aid("bob"), 40))
    assert receipt.kind == "transfer"
    assert world.balance("alice") == 60
    assert world.balance("bob") == 40
    assert world.state.supply.circulating == 100


def test_transfer_to_account_without_user_role(world):
    receipt = world.apply("alice", Transfer(world.aid("mgr"), 10))
    assert not receipt.ok and receipt.error == err.RECIPIENT_NOT_AUTHORIZED
    assert world.balance("alice") == 100


def test_transfer_zero_amount_rejected(world):
    receipt = world.apply("alice", Transfer(world.aid("bob"), 0))
    assert receipt.error == err.ZERO_AMOUNT


def test_transfer_insufficient_funds(world):
    receipt = world.apply("alice", Transfer(world.aid("bob"), 101))
    assert receipt.error == err.INSUFFICIENT_FUNDS
    assert world.balance("alice") == 100 and world.balance("bob") == 0


def test_sender_without_any_role_rejected_at_envelope(world):
    # escrow has a role; strip it to get a role-less account
    world.state.set_roles(world.state.accounts[world.aid("escrow")], frozenset())
    receipt = world.apply("escrow", Transfer(world.aid("bob"), 1))
    assert receipt.error == err.NO_ROLE
    # envelope failures consume nothing
    assert world.state.accounts[world.aid("escrow")].nonce == 0
    assert len(world.state.tx_log) == 0


def test_nonce_replay_rejected(world):
    world.apply_ok("alice", Transfer(world.aid("bob"), 10))
    log, digest = list(world.state.tx_log), world.state.digest()
    replay = world.apply("alice", Transfer(world.aid("bob"), 10), nonce=0)
    assert (replay.kind, replay.ok, replay.error) == ("unknown", False, err.BAD_NONCE)
    assert world.balance("bob") == 10
    # the entry is returned, not logged, and the nonce stays
    assert world.state.tx_log == log
    assert world.state.accounts[world.aid("alice")].nonce == 1
    assert world.state.digest() == digest


def test_committed_tx_returns_its_logged_entry(world):
    entry = world.apply_ok("alice", Transfer(world.aid("bob"), 10))
    assert entry is world.state.tx_log[-1]
    failed = world.apply("alice", Transfer(world.aid("bob"), 500))
    assert failed is world.state.tx_log[-1] and failed.error == err.INSUFFICIENT_FUNDS


def test_failed_payload_still_consumes_nonce(world):
    world.apply("alice", Transfer(world.aid("bob"), 500))  # InsufficientFunds
    assert world.state.accounts[world.aid("alice")].nonce == 1
    ok = world.apply("alice", Transfer(world.aid("bob"), 5))
    assert ok.ok


def test_bad_signature_rejected(world):
    tx = world.tx("alice", Transfer(world.aid("bob"), 5))
    forged = Transaction(tx.sender, tx.nonce, tx.payload, b"\x00" * 32)
    from rolechain.engine import apply_transaction

    receipt = apply_transaction(world.state, forged)
    assert receipt.error == err.BAD_SIGNATURE
    assert world.balance("bob") == 0


# --- freeze / unfreeze --------------------------------------------------------------

def test_freeze_blocks_outgoing_only(world):
    world.apply_ok("sec", SetFrozen(world.aid("alice"), True))
    blocked = world.apply("alice", Transfer(world.aid("bob"), 5))
    assert blocked.error == err.SENDER_FROZEN
    # incoming still works
    world.state.accounts[world.aid("bob")].balance = 50
    world.state.supply.minted += 50
    world.apply_ok("bob", Transfer(world.aid("alice"), 20))
    assert world.balance("alice") == 120


def test_freeze_unfreeze_involution(world):
    world.apply_ok("sec", SetFrozen(world.aid("alice"), True))
    world.apply_ok("sec", SetFrozen(world.aid("alice"), False))
    world.apply_ok("alice", Transfer(world.aid("bob"), 5))
    assert world.balance("bob") == 5


def test_freeze_requires_security_role(world):
    receipt = world.apply("alice", SetFrozen(world.aid("bob"), True))
    assert receipt.error == err.NOT_SECURITY_ROLE
    assert not world.state.accounts[world.aid("bob")].frozen


def test_freeze_feature_can_be_disabled(world):
    from rolechain.payloads import Permanence, SetPolicy

    world.apply_ok("mgr", SetPolicy("security.freeze.enabled", 0, Permanence.TEMPORARY))
    receipt = world.apply("sec", SetFrozen(world.aid("alice"), True))
    assert receipt.error == err.FEATURE_DISABLED


def test_freeze_is_public_management_record(world):
    world.apply_ok("sec", SetFrozen(world.aid("alice"), True))
    kinds = [e.kind for e in world.state.management_log()]
    assert "set_frozen" in kinds


# --- confiscate -----------------------------------------------------------------------

def test_confiscate_to_escrow(world):
    world.state.accounts[world.aid("alice")].balance = 80
    world.state.supply.minted -= 20
    receipt = world.apply_ok("sec", Confiscate(world.aid("alice"), world.aid("escrow"), 50))
    assert world.balance("alice") == 30
    assert world.balance("escrow") == 50
    assert receipt.data["amount"] == 50


def test_confiscate_from_frozen_account(world):
    world.apply_ok("sec", SetFrozen(world.aid("alice"), True))
    world.apply_ok("sec", Confiscate(world.aid("alice"), world.aid("escrow"), 50))
    assert world.balance("alice") == 50


def test_confiscate_more_than_balance(world):
    receipt = world.apply("sec", Confiscate(world.aid("alice"), world.aid("escrow"), 101))
    assert receipt.error == err.INSUFFICIENT_FUNDS


def test_confiscate_to_arbitrary_account_needs_vote(world):
    receipt = world.apply("sec", Confiscate(world.aid("alice"), world.aid("bob"), 10))
    assert receipt.error == err.VOTE_REQUIRED


def test_confiscate_requires_security_role(world):
    receipt = world.apply("alice", Confiscate(world.aid("bob"), world.aid("escrow"), 1))
    assert receipt.error == err.NOT_SECURITY_ROLE


# --- reversal -------------------------------------------------------------------------

def test_reverse_restores_balances(world):
    transfer = world.apply_ok("alice", Transfer(world.aid("bob"), 40))
    world.apply_ok("sec", Reverse(transfer.tx_id))
    assert world.balance("alice") == 100
    assert world.balance("bob") == 0


def test_reverse_twice_rejected(world):
    transfer = world.apply_ok("alice", Transfer(world.aid("bob"), 40))
    world.apply_ok("sec", Reverse(transfer.tx_id))
    second = world.apply("sec", Reverse(transfer.tx_id))
    assert second.error == err.ALREADY_REVERSED


def test_reverse_after_recipient_spent(world):
    transfer = world.apply_ok("alice", Transfer(world.aid("bob"), 40))
    world.apply_ok("bob", Transfer(world.aid("alice"), 30))  # bob keeps 10 < 40
    receipt = world.apply("sec", Reverse(transfer.tx_id))
    assert receipt.error == err.INSUFFICIENT_RECIPIENT_FUNDS
    # no partial effect
    assert world.balance("alice") == 90
    assert world.balance("bob") == 10


def test_reverse_non_transfer_rejected(world):
    freeze = world.apply_ok("sec", SetFrozen(world.aid("bob"), True))
    receipt = world.apply("sec", Reverse(freeze.tx_id))
    assert receipt.error == err.NOT_A_TRANSFER


# --- key rotation ----------------------------------------------------------------------

def _approval(world, approver: str, target: bytes, new_key: bytes) -> tuple[bytes, bytes]:
    kp = world.kp(approver)
    return kp.account_id, kp.sign(rotation_message(target, new_key))


def test_rotate_provider_only(world):
    alice = world.state.accounts[world.aid("alice")]
    alice.provider = world.aid("prov")
    alice.recovery = ProviderOnly()
    new_kp = keypair_from_label("mock", "alice-new", 0)
    approval = _approval(world, "prov", alice.account_id, new_kp.public_key)
    world.apply_ok("prov", RotateKey(alice.account_id, new_kp.public_key, (approval,)))
    assert alice.public_key == new_kp.public_key

    # a transaction still signed with the old key now fails
    old_kp = world.keys["alice"]
    stale = sign_transaction(old_kp, alice.account_id, alice.nonce, Transfer(world.aid("bob"), 1))
    from rolechain.engine import apply_transaction

    assert apply_transaction(world.state, stale).error == err.BAD_SIGNATURE

    # and the new key works
    world.keys["alice"] = new_kp.__class__(new_kp.scheme, new_kp.public_key, new_kp.secret)
    fresh = sign_transaction(new_kp, alice.account_id, alice.nonce, Transfer(world.aid("bob"), 1))
    assert apply_transaction(world.state, fresh).ok


def test_rotate_guardians_threshold(world):
    alice = world.state.accounts[world.aid("alice")]
    guardians = frozenset({world.aid("bob"), world.aid("prov"), world.aid("sec")})
    alice.recovery = Guardians(guardians, 2)
    new_key = keypair_from_label("mock", "alice-2", 0).public_key

    only_one = world.apply(
        "prov", RotateKey(alice.account_id, new_key, (_approval(world, "bob", alice.account_id, new_key),))
    )
    assert only_one.error == err.INSUFFICIENT_APPROVALS

    two = world.apply_ok(
        "prov",
        RotateKey(
            alice.account_id,
            new_key,
            (
                _approval(world, "bob", alice.account_id, new_key),
                _approval(world, "prov", alice.account_id, new_key),
            ),
        ),
    )
    assert alice.public_key == new_key


def test_rotate_provider_plus_security(world):
    alice = world.state.accounts[world.aid("alice")]
    alice.provider = world.aid("prov")
    alice.recovery = ProviderPlusSecurity()
    new_key = keypair_from_label("mock", "alice-3", 0).public_key

    provider_only = world.apply(
        "prov",
        RotateKey(alice.account_id, new_key, (_approval(world, "prov", alice.account_id, new_key),)),
    )
    assert provider_only.error == err.INSUFFICIENT_APPROVALS

    world.apply_ok(
        "prov",
        RotateKey(
            alice.account_id,
            new_key,
            (
                _approval(world, "prov", alice.account_id, new_key),
                _approval(world, "sec", alice.account_id, new_key),
            ),
        ),
    )
    assert alice.public_key == new_key


def test_rotate_ineligible_approver(world):
    alice = world.state.accounts[world.aid("alice")]
    alice.recovery = Guardians(frozenset({world.aid("bob")}), 1)
    new_key = keypair_from_label("mock", "alice-4", 0).public_key
    receipt = world.apply(
        "prov",
        RotateKey(alice.account_id, new_key, (_approval(world, "mgr", alice.account_id, new_key),)),
    )
    assert receipt.error == err.APPROVER_NOT_ELIGIBLE


def test_rotation_log_excludes_key_material(world):
    alice = world.state.accounts[world.aid("alice")]
    alice.provider = world.aid("prov")
    new_key = keypair_from_label("mock", "alice-5", 0).public_key
    world.apply_ok(
        "prov",
        RotateKey(alice.account_id, new_key, (_approval(world, "prov", alice.account_id, new_key),)),
    )
    entry = world.state.tx_log[-1]
    assert entry.kind == "rotate_key" and entry.management
    assert new_key not in entry.data.values()


# --- views and the replay oracle ---------------------------------------------------------

def test_views_fresh_account(world):
    assert get_balance(world.state, world.aid("bob")) == 0
    assert get_history(world.state, world.aid("bob")) == []


def test_views_after_one_transfer(world):
    world.apply_ok("alice", Transfer(world.aid("bob"), 40))
    assert get_balance(world.state, world.aid("bob")) == 40
    history = get_history(world.state, world.aid("bob"))
    assert len(history) == 1 and history[0].kind == "transfer"


def test_views_unknown_account(world):
    from rolechain.errors import TxError

    with pytest.raises(TxError):
        get_balance(world.state, b"\x99" * 32)


def replay_balances(world) -> dict[bytes, int]:
    """Independent oracle: fold the tx log into balances from genesis."""
    balances = {world.aid(n): 0 for n in world.keys}
    balances[world.aid("alice")] = 100
    for e in world.state.tx_log:
        if not e.ok:
            continue
        if e.kind in ("transfer", "confiscate", "reverse"):
            balances[e.data["from"]] -= e.data["amount"]
            balances[e.data["to"]] += e.data["amount"]
        elif e.kind in ("mint",):
            balances[e.data["to"]] += e.data["amount"]
        elif e.kind in ("burn",):
            balances[e.data["from"]] -= e.data["amount"]
    return balances


def test_random_ops_match_replay_oracle(world):
    rng = random.Random(1234)
    names = ["alice", "bob"]
    world.state.policies["mint.requires_vote"].value = 0
    for _ in range(300):
        op = rng.random()
        if op < 0.5:
            a, b = rng.sample(names, 2)
            world.apply(a, Transfer(world.aid(b), rng.randint(1, 30)))
        elif op < 0.7:
            world.apply("bank", Mint(world.aid(rng.choice(names)), rng.randint(1, 20)))
        elif op < 0.85:
            world.apply("sec", Confiscate(world.aid(rng.choice(names)), world.aid("escrow"), rng.randint(1, 10)))
        else:
            transfers = [e for e in world.state.tx_log if e.kind == "transfer" and e.ok and e.reversed_by is None]
            if transfers:
                world.apply("sec", Reverse(rng.choice(transfers).tx_id))
    oracle = replay_balances(world)
    for name in ("alice", "bob", "escrow"):
        assert world.balance(name) == oracle[world.aid(name)]
    assert world.state.conservation_holds()


def test_state_snapshots_transfer_between_processes(world):
    import copy
    import pickle

    world.apply_ok("alice", Transfer(world.aid("bob"), 40))
    snapshot = copy.deepcopy(world.state)
    revived = pickle.loads(pickle.dumps(snapshot))
    assert revived.digest() == world.state.digest()
    # mutating the snapshot leaves the original untouched
    snapshot.accounts[world.aid("bob")].balance += 1
    assert world.balance("bob") == 40


from hypothesis import given, settings, strategies as st


_op = st.tuples(
    st.sampled_from(["transfer", "mint", "burn", "freeze", "unfreeze", "confiscate"]),
    st.sampled_from(["alice", "bob"]),
    st.integers(min_value=1, max_value=120),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_op, max_size=40))
def test_conservation_and_nonnegative_balances_property(ops):
    world = make_world(balances={"alice": 100, "bob": 50})
    world.state.policies["mint.requires_vote"].value = 0
    for kind, who, amount in ops:
        other = "bob" if who == "alice" else "alice"
        if kind == "transfer":
            world.apply(who, Transfer(world.aid(other), amount))
        elif kind == "mint":
            world.apply("bank", Mint(world.aid(who), amount))
        elif kind == "burn":
            from rolechain.payloads import Burn

            world.apply("bank", Burn(world.aid(who), amount))
        elif kind == "freeze":
            world.apply("sec", SetFrozen(world.aid(who), True))
        elif kind == "unfreeze":
            world.apply("sec", SetFrozen(world.aid(who), False))
        else:
            world.apply("sec", Confiscate(world.aid(who), world.aid("escrow"), amount))
        assert world.state.conservation_holds()
        assert all(a.balance >= 0 for a in world.state.accounts.values())


# --- one home for money ------------------------------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src" / "rolechain"
# the only writers of balances, unclaimed allowances, the pending pool and
# supply, and the u64 bound; _settle records pending periods, and
# add_account marks the periods accrued before an account as not its own
PRIMITIVES = {
    f"ledger.LedgerState.{name}"
    for name in ("move", "issue", "retire", "promise", "claim", "check_supply", "_settle", "add_account")
}
MONEY = {"balance", "minted", "burned", "last_claimed_period", "settled", "_pool"}
TABLES = {"accrued", "allowances", "ledgers", "_accruals", "_accrued_upto"}  # containers of unclaimed allowances
MUTATORS = {"append", "extend", "insert", "pop", "popitem", "remove", "clear", "update", "setdefault", "sort", "reverse"}
# what a pull period's share depends on, and the running sums of the shares
SHARE_INPUTS = {"frozen", "roles", "active", "next_total"}
SHARE_TABLES = {"accounts", "interest_rules", "_pull"}
SHARE_WRITERS = {
    f"ledger.LedgerState.{name}"
    for name in ("add_account", "set_roles", "set_frozen", "add_rule", "set_rule_active", "_track", "_before_write", "_after_write")
} | {"ledger.Account.__post_init__", "ledger.PullSum.__init__"}  # a new account's roles are interned


class _MoneyWrites(ast.NodeVisitor):
    """Each write of money in a module, a raise of SupplyOverflow and a
    ``SupplyCounters`` built from a value, as (kind, function, line); or,
    given other attribute and table names, each write of those."""

    def __init__(self, module: str, attrs: set[str] = MONEY, tables: set[str] = TABLES):
        self.scope, self.found = [module], []
        self.attrs, self.tables = attrs, tables

    def _note(self, kind: str, node: ast.AST) -> None:
        self.found.append((kind, ".".join(self.scope), node.lineno))

    def _scoped(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scoped

    def _target(self, target: ast.AST) -> None:
        for node in ast.walk(target):
            if isinstance(node, ast.Attribute) and node.attr in self.attrs | self.tables:
                self._note(f"write .{node.attr}", node)
            elif isinstance(node, ast.Subscript) and getattr(node.value, "attr", None) in self.tables:
                self._note(f"write .{node.value.attr}[...]", node)

    def visit_Assign(self, node):
        for target in node.targets:
            self._target(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        self._target(node.target)
        self.generic_visit(node)

    visit_AnnAssign = visit_AugAssign

    def visit_Delete(self, node):
        for target in node.targets:
            self._target(target)

    def visit_Call(self, node):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in MUTATORS and getattr(func.value, "attr", None) in self.tables:
            self._note(f"{func.attr} on .{func.value.attr}", node)
        if getattr(func, "id", None) in ("setattr", "delattr") and any(
            isinstance(a, ast.Constant) and a.value in self.attrs | self.tables for a in node.args
        ):
            self._note(func.id, node)
        if getattr(func, "id", None) == "SupplyCounters" and (node.args or node.keywords):
            self._note("SupplyCounters(...)", node)
        self.generic_visit(node)

    def visit_Raise(self, node):
        if node.exc is not None and any(getattr(n, "attr", None) == "SUPPLY_OVERFLOW" for n in ast.walk(node.exc)):
            self._note("raise SupplyOverflow", node)
        self.generic_visit(node)


def test_only_the_ledger_primitives_write_money():
    """No balance, supply counter or unclaimed allowance is written outside the
    ledger's money primitives, and one function holds the u64 bound.  Genesis
    sets minted supply only by building ``SupplyCounters`` once, from the sum
    of the balances that ``read_genesis`` checks a decoded genesis against."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        visitor = _MoneyWrites(path.stem)
        visitor.visit(ast.parse(path.read_text()))
        found += visitor.found
    raises = [where for kind, where, _ in found if kind == "raise SupplyOverflow"]
    built = sorted(where for kind, where, _ in found if kind == "SupplyCounters(...)")
    writes = [(kind, where, line) for kind, where, line in found if kind not in ("raise SupplyOverflow", "SupplyCounters(...)")]
    assert raises == ["ledger.LedgerState.check_supply"]
    assert built == ["engine.build_genesis", "ledger.read_genesis"]
    assert not [f"{where}:{line} {kind}" for kind, where, line in writes if where not in PRIMITIVES]
    # the scan sees the writes the primitives make
    assert {where for _, where, _ in writes} == PRIMITIVES - {"ledger.LedgerState.check_supply"}


def test_only_the_ledger_writes_what_a_pull_share_depends_on():
    """Freezes, roles, accounts, rules' activity and the rules' next totals
    are written only by the ledger methods that settle the account first
    and keep every next total, so a pull boundary can mint the running sum."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        visitor = _MoneyWrites(path.stem, SHARE_INPUTS, SHARE_TABLES)
        visitor.visit(ast.parse(path.read_text()))
        found += [(kind, where, line) for kind, where, line in visitor.found if kind.startswith(("write", *MUTATORS))]
    assert not [f"{where}:{line} {kind}" for kind, where, line in found if where not in SHARE_WRITERS]
    assert {where for _, where, _ in found} == SHARE_WRITERS
    # the holder lists a state keeps see every role write and every new
    # account: roles are assigned in set_roles alone (besides a new account's
    # own, interned as it is built), and the accounts table is written in add_account alone
    assert {where for kind, where, _ in found if kind == "write .roles"} == {
        "ledger.Account.__post_init__",
        "ledger.LedgerState.set_roles",
    }
    assert {where for kind, where, _ in found if kind.endswith((".accounts", ".accounts[...]"))} == {
        "ledger.LedgerState.add_account"
    }
