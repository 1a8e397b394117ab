"""The envelope signature is verified once per transaction object and key.

``Transaction.signature_ok`` keeps the ``(scheme, public key)`` a
transaction last verified under.  These tests count the scheme's ``verify``
calls to show where the memo saves work (validate then apply, replay) and
where it must not (another key, another gateway's copy, a copy the
publisher's own gateway never admitted, a key rotated earlier in the same
block).
"""

from __future__ import annotations

from collections import defaultdict

import pytest

from rolechain import chain as chain_module
from rolechain import errors as err
from rolechain.chain import Chain, append_block, export_chain, genesis_doc, import_chain, replay, validate_block
from rolechain.keys import Ed25519Scheme, MockScheme, keypair_from_label
from rolechain.gateway import Admitted, SecurityGateway
from rolechain.payloads import RotateKey, Role, Transaction, Transfer, decode_transaction, rotation_message
from rolechain.sim import parse_scenario, run

from conftest import make_world
from test_chain import _chain_world, make_next_block


@pytest.fixture
def tx_verifies(monkeypatch) -> list[tuple[str, bytes]]:
    """``(scheme, message)`` of every transaction-envelope verify call."""
    calls: list[tuple[str, bytes]] = []
    for cls in (MockScheme, Ed25519Scheme):
        original = cls.verify

        def counting(self, public_key, message, signature, original=original):
            if message.startswith(b"tx:"):
                calls.append((self.name, message))
            return original(self, public_key, message, signature)

        monkeypatch.setattr(cls, "verify", counting)
    return calls


def test_success_is_kept_for_the_same_scheme_and_key_only(tx_verifies):
    world = make_world(balances={"alice": 10})
    tx = world.tx("alice", Transfer(world.aid("bob"), 1))
    alice_key, bob_key = world.kp("alice").public_key, world.kp("bob").public_key

    assert tx.signature_ok("mock", alice_key)
    assert tx.signature_ok("mock", alice_key)
    assert len(tx_verifies) == 1

    # another key or another scheme is verified afresh
    assert not tx.signature_ok("mock", bob_key)
    assert not tx.signature_ok("ed25519", alice_key)
    assert [scheme for scheme, _ in tx_verifies] == ["mock", "mock", "ed25519"]

    # a failure does not replace the kept success
    assert tx.signature_ok("mock", alice_key)
    assert len(tx_verifies) == 3

    # the memo is not part of the value
    assert tx == decode_transaction(tx.encode())
    assert hash(tx) == hash(decode_transaction(tx.encode()))


def test_a_tampered_copy_is_not_covered_by_the_memo(tx_verifies):
    world = make_world(balances={"alice": 10})
    tx = world.tx("alice", Transfer(world.aid("bob"), 1))
    key = world.kp("alice").public_key
    assert tx.signature_ok("mock", key)
    raw = bytearray(tx.encode())
    raw[-1] ^= 1  # last signature byte
    assert not decode_transaction(bytes(raw)).signature_ok("mock", key)
    assert len(tx_verifies) == 2


def test_append_and_replay_verify_each_transaction_once(tx_verifies):
    world = _chain_world()
    doc = genesis_doc(world.state)
    chain = Chain()
    bob = world.aid("bob")
    blocks = []
    for nonce in range(0, 6, 3):
        txs = [world.tx("alice", Transfer(bob, 1), nonce=n) for n in range(nonce, nonce + 3)]
        block = make_next_block(world, chain, txs)
        receipts = append_block(chain, world.state, block)
        assert all(r.ok for r in receipts)
        blocks.append(block)
    signed = sorted(tx.signing_bytes() for block in blocks for tx in block.txs)
    assert sorted(message for _, message in tx_verifies) == signed

    tx_verifies.clear()
    genesis, decoded = import_chain(export_chain(chain, doc))
    replayed, _ = replay(genesis, decoded)
    assert replayed.head_hash == chain.head_hash
    assert sorted(message for _, message in tx_verifies) == signed


def test_rotation_earlier_in_the_block_reverifies_the_sender(tx_verifies):
    world = _chain_world(extra_roles={"prov": {Role.ACCOUNT_PROVIDER}})
    alice = world.state.accounts[world.aid("alice")]
    alice.provider = world.aid("prov")
    new_key = keypair_from_label("mock", "alice-new", 0).public_key
    prov = world.kp("prov")
    approval = (prov.account_id, prov.sign(rotation_message(alice.account_id, new_key)))
    rotate = world.tx("prov", RotateKey(alice.account_id, new_key, (approval,)))
    stale = world.tx("alice", Transfer(world.aid("bob"), 5))  # signed with the old key

    chain = Chain()
    block = make_next_block(world, chain, [rotate, stale])
    # the block is checked against its parent state, where the old key is current
    assert validate_block(block, world.state, chain) == []
    receipts = append_block(chain, world.state, block)

    assert receipts[0].ok and alice.public_key == new_key
    assert (receipts[1].ok, receipts[1].error) == (False, err.BAD_SIGNATURE)
    assert alice.nonce == 0
    assert world.balance("alice") == 100
    # stale: validate twice (memo on the second), then apply under the new key
    assert sum(message == stale.signing_bytes() for _, message in tx_verifies) == 2


VALIDATORS = [f"v{i}" for i in range(1, 5)]


def _transfers_raw(amounts: list[int], **extra) -> dict:
    """alice pays bob each of ``amounts`` at tick 1, before four validators."""
    return {
        "ticks": 1,
        "actors": [
            {"name": "alice", "roles": ["user"], "balance": 10},
            {"name": "bob", "roles": ["user"]},
            *({"name": name, "roles": ["validator"]} for name in VALIDATORS),
        ],
        "steps": [{"tick": 1, "tx": {"from": "alice", "kind": "transfer", "to": "bob", "amount": a}} for a in amounts],
        **extra,
    }


@pytest.fixture
def admitted(monkeypatch) -> defaultdict[bytes, list[Transaction]]:
    """Validator id -> the copies its security gateway admitted, in order."""
    copies: defaultdict[bytes, list[Transaction]] = defaultdict(list)
    original = SecurityGateway.admit

    def recording(self, state, raw_tx, tick):
        outcome = original(self, state, raw_tx, tick)
        if isinstance(outcome, Admitted):
            copies[self.validator].append(outcome.tx)
        return outcome

    monkeypatch.setattr(SecurityGateway, "admit", recording)
    return copies


@pytest.fixture
def verifies_in_validate(monkeypatch, tx_verifies) -> list[tuple[int, int]]:
    """``(height, envelope verifies)`` of every ``validate_block`` call."""
    counts: list[tuple[int, int]] = []
    original = chain_module.validate_block

    def counting(block, *args):
        before = len(tx_verifies)
        violations = original(block, *args)
        counts.append((block.height, len(tx_verifies) - before))
        return violations

    monkeypatch.setattr(chain_module, "validate_block", counting)
    return counts


def test_each_gateway_verifies_its_own_copy(tx_verifies, admitted):
    report, sim = run(parse_scenario(_transfers_raw([3])))
    assert report.balances["bob"] == 3
    # four gateways decode and verify four copies; the block carries the
    # publisher's own gateway's copy, so validate and apply reuse its check
    block = sim.chain.blocks[1]
    assert block.txs[0] is admitted[block.publisher][0]
    assert len(tx_verifies) == len(VALIDATORS)
    assert len({message for _, message in tx_verifies}) == 1


def test_a_copy_the_publishers_gateway_never_admitted_is_verified_afresh(
    tx_verifies, admitted, verifies_in_validate
):
    # the validator in rotation slot 2 publishes height 2; offline at tick 1
    # it admits neither transfer, and one transaction per block holds the
    # second over to its block
    order = sorted(VALIDATORS, key=lambda name: keypair_from_label("mock", name, 0).account_id)
    late = order[2]

    def raw(offline: bool) -> dict:
        scenario = _transfers_raw(
            [1, 2], ticks=2, policies=[{"key": "consensus.max_txs_per_block", "value": 1}]
        )
        if offline:
            next(a for a in scenario["actors"] if a["name"] == late)["faults"] = ["offline"]
        scenario["steps"].append({"tick": 2, "fault": {"actor": late, "set": []}})
        return scenario

    report, sim = run(parse_scenario(raw(offline=True)))
    held = sim.chain.blocks[2].txs[0]
    assert sim.chain.blocks[2].publisher == sim.aid(late)
    assert admitted[sim.aid(late)] == []
    # three admissions, then once in validate_block; apply reuses that check
    assert verifies_in_validate == [(1, 0), (2, 1)]
    assert sum(message == held.signing_bytes() for _, message in tx_verifies) == len(VALIDATORS)

    # had its gateway admitted the copy, the chain and receipt would be the same
    verifies_in_validate.clear()
    online_report, online_sim = run(parse_scenario(raw(offline=False)))
    assert verifies_in_validate == [(1, 0), (2, 0)]
    assert online_sim.chain.blocks[2].txs[0] is admitted[sim.aid(late)][1]
    assert sim.receipts[held.tx_id] == online_sim.receipts[held.tx_id]
    assert sim.receipts[held.tx_id].ok
    assert (report.head_hash, report.state_digest) == (online_report.head_hash, online_report.state_digest)
