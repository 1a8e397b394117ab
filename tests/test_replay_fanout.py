"""Replay's signature pre-pass changes no verdict and leaves no process behind.

``chain.precheck_signatures`` checks a dump's transaction signatures on
several processes before the block loop and keeps each success in the
transaction's memo.  These tests replay ed25519 chains with the batch
threshold lowered, so a few dozen transactions fan out, and compare every
outcome against a replay with the fan-out forced off (one usable CPU).  The
usable case runs on the CPUs this process may use, capped at
``chain.MAX_CHECK_PROCESSES``; on one CPU it is the forced-off path.
"""

from __future__ import annotations

import os
import threading
import time

import pytest
from click.testing import CliRunner

from rolechain import chain as chain_module
from rolechain.chain import Chain, append_block, build_block, export_chain, genesis_doc, import_chain, replay
from rolechain.cli import main
from rolechain.errors import InvalidBlock
from rolechain.keys import Ed25519Scheme, keypair_from_label
from rolechain.payloads import (
    AssignRole,
    RotateKey,
    Role,
    Transfer,
    decode_transaction,
    possession_message,
    rotation_message,
)

from conftest import World, make_world
from test_chain import make_next_block

VALIDATORS = ["v0", "v1", "v2"]
BATCH = 4  # checks a process needs in these tests, in place of chain.MIN_CHECKS_PER_PROCESS


def _world(scheme: str = "ed25519") -> World:
    roles = {name: {Role.VALIDATOR} for name in VALIDATORS}
    roles.update({"prov": {Role.ACCOUNT_PROVIDER}, "alice": {Role.USER}, "bob": {Role.USER}})
    world = make_world(roles, balances={"alice": 1000, "bob": 1000}, scheme=scheme)
    world.state.accounts[world.aid("alice")].provider = world.aid("prov")
    return world


def _transfers(world: World, sender: str, to: str, count: int):
    nonce = world.state.accounts[world.aid(sender)].nonce
    return [world.tx(sender, Transfer(world.aid(to), 1), nonce=nonce + i) for i in range(count)]


def _advance(world: World, chain: Chain, txs) -> None:
    for receipt in append_block(chain, world.state, make_next_block(world, chain, txs)):
        assert receipt.ok, receipt


def _clean_chain(scheme: str = "ed25519") -> bytes:
    """A dump of 40 transfers over four blocks, every sender in the genesis."""
    world = _world(scheme)
    doc, chain = genesis_doc(world.state), Chain()
    for _ in range(4):
        _advance(world, chain, _transfers(world, "alice", "bob", 5) + _transfers(world, "bob", "alice", 5))
    return export_chain(chain, doc)


def _eventful_chain(bad_at: int | None = None) -> bytes:
    """A dump where the pre-pass's genesis keys do not always hold.

    alice's key rotates mid-block; her transfer after it in that block is
    signed with the old key (a failed receipt) and later ones with the new
    key.  carol is created mid-chain, funded, and then transacts.  With
    ``bad_at``, a last block carries one transaction whose signature byte
    was flipped, at that index, and its publisher signs the block anyway.
    """
    world = _world()
    doc, chain = genesis_doc(world.state), Chain()
    _advance(world, chain, _transfers(world, "alice", "bob", 6) + _transfers(world, "bob", "alice", 6))

    alice = world.state.accounts[world.aid("alice")]
    new = keypair_from_label("ed25519", "alice-new", 0)
    prov = world.kp("prov")
    approval = (prov.account_id, prov.sign(rotation_message(alice.account_id, new.public_key)))
    rotate = world.tx("prov", RotateKey(alice.account_id, new.public_key, (approval,)))
    stale = world.tx("alice", Transfer(world.aid("bob"), 1))
    block = make_next_block(world, chain, [rotate, stale, *_transfers(world, "bob", "alice", 6)])
    receipts = append_block(chain, world.state, block)
    assert receipts[0].ok and not receipts[1].ok and alice.public_key == new.public_key
    world.keys["alice"] = new

    carol = keypair_from_label("ed25519", "carol", 0)
    world.keys["carol"], world.ids["carol"] = carol, carol.account_id
    proof = carol.sign(possession_message(world.aid("prov"), carol.public_key))
    create = world.tx("prov", AssignRole(carol.account_id, Role.USER, carol.public_key, proof))
    _advance(world, chain, [create, *_transfers(world, "alice", "carol", 6)])
    _advance(world, chain, _transfers(world, "carol", "bob", 6) + _transfers(world, "alice", "bob", 6))

    if bad_at is not None:
        txs = _transfers(world, "bob", "alice", 6)
        frame = bytearray(txs[bad_at].encode())
        frame[-1] ^= 1  # the signature's last byte
        txs[bad_at] = decode_transaction(bytes(frame))
        publisher = chain_module.publisher_at(chain.height + 1, chain, world.state)
        signer = next(kp for kp in world.keys.values() if kp.account_id == publisher)
        chain.blocks.append(build_block(signer, publisher, chain.head, txs, chain.height + 1, world.state))
    return export_chain(chain, doc)


@pytest.fixture(params=["off", "two", "usable"])
def processes(request, monkeypatch) -> str:
    """Fan-out forced off (one usable CPU), on two processes, or on every usable CPU."""
    monkeypatch.setattr(chain_module, "MIN_CHECKS_PER_PROCESS", BATCH)
    if request.param == "off":
        monkeypatch.setattr(chain_module, "_usable_cpus", lambda: 1)
    elif request.param == "two":
        monkeypatch.setattr(chain_module, "_usable_cpus", lambda: 2)
    return request.param


@pytest.fixture
def forks(monkeypatch) -> list[int]:
    """The pid each ``os.fork`` returned to this process."""
    pids: list[int] = []
    original = os.fork

    def recording():
        pid = original()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return pids


def _outcome(data: bytes, monkeypatch) -> tuple:
    """What a replay of ``data`` shows: head hash, state digest and every
    block's receipts, or the height and violations it failed at."""
    heights: list[int] = []
    receipts: list = []
    original = chain_module.append_block

    def recording(chain, state, block, inactive):
        heights.append(block.height)
        receipts.append(original(chain, state, block, inactive))
        return receipts[-1]

    monkeypatch.setattr(chain_module, "append_block", recording)
    try:
        genesis, blocks = import_chain(data)
        replayed, state = replay(genesis, blocks)
    except InvalidBlock as exc:
        return ("invalid", heights[-1], exc.violations, receipts)
    finally:
        monkeypatch.setattr(chain_module, "append_block", original)
    return ("ok", replayed.head_hash, state.digest(), receipts)


def _prechecked(data: bytes) -> int:
    """How many transactions of a dump have a sender in its genesis."""
    (state, _), blocks = import_chain(data)
    return sum(tx.sender in state.accounts for block in blocks for tx in block.txs)


def _no_children_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _expected_children(mode: str, txs: int) -> int:
    cpus = {"off": 1, "two": 2}.get(mode) or chain_module._usable_cpus()
    return max(min(cpus, chain_module.MAX_CHECK_PROCESSES, txs // BATCH), 1) - 1


# --- same verdict ------------------------------------------------------------------

@pytest.mark.parametrize("bad_at", [None, 3])
def test_fan_out_gives_the_verdict_of_a_replay_without_it(processes, forks, monkeypatch, bad_at):
    data = _eventful_chain(bad_at)
    outcome = _outcome(data, monkeypatch)
    assert len(forks) == _expected_children(processes, _prechecked(data))
    _no_children_left()

    monkeypatch.setattr(chain_module, "_usable_cpus", lambda: 1)
    assert outcome == _outcome(data, monkeypatch)
    if bad_at is None:
        assert outcome[0] == "ok"
        # the rotation block: the transfer signed with alice's old key fails
        assert [r.ok for r in outcome[3][1][:2]] == [True, False]
    else:
        assert outcome[:3] == ("invalid", 5, [f"MalformedTx:{bad_at}"])


def test_each_signature_is_checked_once_by_this_process_or_a_child(processes, forks, monkeypatch):
    genesis, blocks = import_chain(_clean_chain())
    checked: list[bytes] = []  # signing bytes of each check this process made
    vouched: list[bytes] = []  # signing bytes of each success a child found
    verify, mark = Ed25519Scheme.verify, chain_module.mark_verified

    def counting_verify(self, public_key, message, signature):
        if message.startswith(b"tx:"):
            checked.append(message)
        return verify(self, public_key, message, signature)

    def counting_mark(tx, scheme, public_key):
        vouched.append(tx.signing_bytes())
        mark(tx, scheme, public_key)

    monkeypatch.setattr(Ed25519Scheme, "verify", counting_verify)
    monkeypatch.setattr(chain_module, "mark_verified", counting_mark)
    replay(genesis, blocks)

    signed = sorted(tx.signing_bytes() for block in blocks for tx in block.txs)
    assert sorted(checked + vouched) == signed
    children = _expected_children(processes, len(signed))
    assert len(forks) == children
    assert bool(vouched) == (children > 0)
    _no_children_left()


# --- process hygiene ---------------------------------------------------------------

@pytest.mark.parametrize("bad_at", [None, 3])
def test_no_child_outlives_a_replay(processes, forks, bad_at):
    data = _eventful_chain(bad_at)
    genesis, blocks = import_chain(data)
    if bad_at is None:
        replay(genesis, blocks)
    else:
        with pytest.raises(InvalidBlock):
            replay(genesis, blocks)
    assert len(forks) == _expected_children(processes, _prechecked(data))
    _no_children_left()


@pytest.mark.parametrize("fate", ["dies before writing", "writes short"])
def test_a_child_that_fails_leaves_its_range_to_the_blocks(forks, monkeypatch, fate):
    data = _eventful_chain()
    monkeypatch.setattr(chain_module, "_usable_cpus", lambda: 1)
    expected = _outcome(data, monkeypatch)

    monkeypatch.setattr(chain_module, "MIN_CHECKS_PER_PROCESS", BATCH)
    monkeypatch.setattr(chain_module, "_usable_cpus", lambda: 2)
    check_range = chain_module._check_range
    if fate == "dies before writing":
        monkeypatch.setattr(chain_module, "_check_range", lambda *args: os._exit(1))
    else:
        monkeypatch.setattr(chain_module, "_check_range", lambda *args: check_range(*args)[:-1])
    vouched: list = []
    monkeypatch.setattr(chain_module, "mark_verified", lambda *args: vouched.append(args))
    assert _outcome(data, monkeypatch) == expected
    assert len(forks) == 1 and vouched == []
    _no_children_left()


def test_a_failing_fork_means_no_fan_out(monkeypatch, tmp_path):
    data = _eventful_chain()
    monkeypatch.setattr(chain_module, "MIN_CHECKS_PER_PROCESS", BATCH)
    monkeypatch.setattr(chain_module, "_usable_cpus", lambda: 2)
    path = tmp_path / "chain.bin"
    path.write_bytes(data)
    runner = CliRunner()
    forked = runner.invoke(main, ["verify", str(path)])

    def failing_fork():
        raise OSError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", failing_fork)
    result = runner.invoke(main, ["verify", str(path)])
    assert result.exit_code == 0, result.output
    assert result.output == forked.output and result.output.startswith("ok: ")
    assert "verification failed" not in result.output
    _no_children_left()


def test_an_interrupted_pre_pass_stops_and_reaps_its_children(forks, monkeypatch):
    monkeypatch.setattr(chain_module, "MIN_CHECKS_PER_PROCESS", BATCH)
    monkeypatch.setattr(chain_module, "_usable_cpus", lambda: 2)
    # the child would check for a minute; this process is interrupted at its first check
    monkeypatch.setattr(chain_module, "_check_range", lambda *args: time.sleep(60))
    genesis, blocks = import_chain(_clean_chain())

    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(type(blocks[0].txs[0]), "signature_ok", interrupted)
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        replay(genesis, blocks)
    assert time.monotonic() - started < 30
    assert len(forks) == 1
    _no_children_left()


# --- when not to fork --------------------------------------------------------------

def test_a_mock_replay_never_forks(forks, monkeypatch):
    monkeypatch.setattr(chain_module, "MIN_CHECKS_PER_PROCESS", 1)
    monkeypatch.setattr(chain_module, "_usable_cpus", lambda: 2)
    genesis, blocks = import_chain(_clean_chain("mock"))
    replay(genesis, blocks)
    assert forks == []


def test_a_small_batch_is_checked_inline(forks, monkeypatch):
    monkeypatch.setattr(chain_module, "MIN_CHECKS_PER_PROCESS", 21)  # 40 checks: too few for two processes
    monkeypatch.setattr(chain_module, "_usable_cpus", lambda: 2)
    genesis, blocks = import_chain(_clean_chain())
    replay(genesis, blocks)
    assert forks == []


def test_a_process_with_another_thread_never_forks(forks, monkeypatch):
    monkeypatch.setattr(chain_module, "MIN_CHECKS_PER_PROCESS", BATCH)
    monkeypatch.setattr(chain_module, "_usable_cpus", lambda: 2)
    genesis, blocks = import_chain(_clean_chain())
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        replay(genesis, blocks)
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert forks == []
