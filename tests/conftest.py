from __future__ import annotations

from dataclasses import dataclass

import pytest

from rolechain import engine
from rolechain.engine import apply_transaction, build_genesis
from rolechain.keys import KeyPair, keypair_from_label
from rolechain.ledger import Account, LedgerState, LogEntry
from rolechain.payloads import Payload, Role, Transaction, sign_transaction

DEFAULT_ROLES = {
    "mgr": {Role.PLATFORM_MANAGER},
    "sec": {Role.SYSTEM_SECURITY},
    "bank": {Role.CURRENCY_MANAGER},
    "prov": {Role.ACCOUNT_PROVIDER},
    "alice": {Role.USER},
    "bob": {Role.USER},
}


@dataclass
class World:
    """A genesis state plus the keypairs behind its accounts.

    ``ids`` stays fixed at genesis: account ids never change, even when a
    key rotation swaps the signing key in ``keys``.
    """

    state: LedgerState
    keys: dict[str, KeyPair]
    ids: dict[str, bytes]

    def kp(self, name: str) -> KeyPair:
        return self.keys[name]

    def aid(self, name: str) -> bytes:
        return self.ids[name]

    def tx(self, sender: str, payload: Payload, nonce: int | None = None) -> Transaction:
        """Signed transaction with the sender's current nonce by default."""
        sender_id = self.ids[sender]
        if nonce is None:
            nonce = self.state.accounts[sender_id].nonce
        return sign_transaction(self.keys[sender], sender_id, nonce, payload)

    def apply(self, sender: str, payload: Payload, nonce: int | None = None) -> LogEntry:
        return apply_transaction(self.state, self.tx(sender, payload, nonce))

    def apply_ok(self, sender: str, payload: Payload) -> LogEntry:
        receipt = self.apply(sender, payload)
        assert receipt.ok, f"{receipt.kind} failed: {receipt.error}"
        return receipt

    def balance(self, name: str) -> int:
        return self.state.accounts[self.aid(name)].balance


def make_world(
    roles: dict[str, set[Role]] | None = None,
    balances: dict[str, int] | None = None,
    scheme: str = "mock",
    policy_overrides: list | None = None,
    seed: int = 0,
) -> World:
    roles = DEFAULT_ROLES if roles is None else roles
    balances = balances or {}
    keys = {name: keypair_from_label(scheme, name, seed) for name in roles}
    keys["escrow"] = keypair_from_label(scheme, "escrow", seed)
    accounts = [
        Account(
            account_id=keys[name].account_id,
            public_key=keys[name].public_key,
            roles=set(role_set),
            balance=balances.get(name, 0),
        )
        for name, role_set in roles.items()
    ]
    escrow = Account(
        account_id=keys["escrow"].account_id,
        public_key=keys["escrow"].public_key,
    )
    state = build_genesis(scheme, accounts, policy_overrides, escrow)
    return World(state, keys, {name: kp.account_id for name, kp in keys.items()})


@pytest.fixture
def world() -> World:
    return make_world(balances={"alice": 100, "bob": 0})


def write_behind_the_primitives(monkeypatch, height: int, account_id: bytes) -> None:
    """Add 1 to the account's balance while block ``height`` applies, after
    its transactions, bypassing the ledger's money primitives."""
    run_accruals = engine.run_accruals

    def stray_write_then_run_accruals(state: LedgerState) -> None:
        if state.height == height:
            state.accounts[account_id].balance += 1
        run_accruals(state)

    monkeypatch.setattr(engine, "run_accruals", stray_write_then_run_accruals)
