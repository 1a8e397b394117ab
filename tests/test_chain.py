from __future__ import annotations

import pytest

from rolechain import errors as err
from rolechain.chain import (
    Block,
    Chain,
    append_block,
    build_block,
    decode_block,
    expected_publisher,
    export_chain,
    format_chain,
    genesis_doc,
    import_chain,
    publisher_at,
    replay,
    spacing_window,
    validate_block,
)
from rolechain.errors import InternalInvariantViolation, InvalidBlock, TxError
from rolechain.keys import KeyPair
from rolechain.payloads import (
    AssignRole,
    CastVote,
    CreateProposal,
    FinalizeProposal,
    InterestMode,
    Mint,
    RegisterEndpoints,
    Role,
    SetInterestRule,
    Transfer,
    ValidatorRecord,
)

from conftest import World, make_world, write_behind_the_primitives

V = [f"v{i}" for i in range(4)]


def _chain_world(validator_names=V, extra_roles=None) -> World:
    roles = {name: {Role.VALIDATOR} for name in validator_names}
    roles.update(
        {
            "mgr": {Role.PLATFORM_MANAGER},
            "bank": {Role.CURRENCY_MANAGER},
            "alice": {Role.USER},
            "bob": {Role.USER},
        }
    )
    roles.update(extra_roles or {})
    return make_world(roles, balances={"alice": 100})


def _sorted_validators(world: World, names=V) -> list[str]:
    return sorted(names, key=world.aid)


def _signer_for(world: World, account_id: bytes) -> KeyPair:
    for kp in world.keys.values():
        if kp.account_id == account_id:
            return kp
    raise KeyError("no signer")


def make_next_block(world: World, chain: Chain, txs=(), tick=None, inactive=frozenset()):
    publisher = publisher_at(chain.height + 1, chain, world.state, inactive)
    signer = _signer_for(world, publisher)
    tick = chain.height + 1 if tick is None else tick
    return build_block(signer, publisher, chain.head, list(txs), tick, world.state)


def advance(world: World, chain: Chain, txs=(), inactive=frozenset()):
    block = make_next_block(world, chain, txs, inactive=inactive)
    receipts = append_block(chain, world.state, block, inactive)
    return block, receipts


# --- rotation ---------------------------------------------------------------------

def test_pure_rotation_schedule():
    world = _chain_world()
    order = _sorted_validators(world)
    ids = [world.aid(n) for n in order]
    schedule = [expected_publisher(h, ids, [], 50) for h in range(1, 9)]
    # strict rotation: slot h mod n, so heights 1..8 wrap around twice
    expected = [ids[h % 4] for h in range(1, 9)]
    assert schedule == expected
    assert all(expected.count(v) == 2 for v in ids)


def test_offline_skip_and_spacing_golden_schedule():
    # hand-derived: spacing floor(0.5 * 4) = 2, v[2] offline from height 2
    world = _chain_world()
    order = [world.aid(n) for n in _sorted_validators(world)]
    inactive = frozenset({order[2]})
    recent: list[bytes] = []
    got = []
    for height in range(1, 6):
        publisher = expected_publisher(height, order, recent, 50, inactive)
        got.append(publisher)
        recent.insert(0, publisher)
    assert got == [order[1], order[3], order[0], order[1], order[3]]
    # spacing never violated
    for i, publisher in enumerate(got[1:], start=1):
        assert publisher not in got[max(0, i - 2) : i]


def test_single_validator_publishes_every_block():
    world = _chain_world(validator_names=["v0"])
    vid = world.aid("v0")
    assert spacing_window(1, 50) == 0
    for h in range(1, 6):
        assert expected_publisher(h, [vid], [vid], 50) == vid


def test_no_eligible_publisher():
    world = _chain_world(validator_names=["v0", "v1"])
    ids = sorted([world.aid("v0"), world.aid("v1")])
    with pytest.raises(TxError) as exc:
        expected_publisher(2, ids, [ids[1]], 50, inactive=frozenset({ids[0]}))
    assert exc.value.code == err.NO_ELIGIBLE_PUBLISHER


def test_empty_validator_set_rejected():
    with pytest.raises(TxError):
        expected_publisher(1, [], [], 50)


# --- block building and validation ---------------------------------------------------

def test_empty_heartbeat_block():
    world = _chain_world()
    chain = Chain()
    block, receipts = advance(world, chain)
    assert block.height == 1 and block.txs == () and receipts == []
    assert world.state.height == 1


def test_block_carries_txs_in_order():
    world = _chain_world()
    chain = Chain()
    txs = [
        world.tx("alice", Transfer(world.aid("bob"), 10), nonce=0),
        world.tx("alice", Transfer(world.aid("bob"), 20), nonce=1),
        world.tx("alice", Transfer(world.aid("bob"), 30), nonce=2),
    ]
    block, receipts = advance(world, chain, txs)
    assert [t.tx_id for t in block.txs] == [t.tx_id for t in txs]
    assert all(r.ok for r in receipts)
    assert world.balance("bob") == 60


def test_append_refuses_a_block_out_of_turn():
    world = _chain_world()
    chain = Chain()
    state = world.state
    expected = publisher_at(1, chain, state)
    wrong = next(v for v in state.validators() if v != expected)
    block = build_block(_signer_for(world, wrong), wrong, chain.head, [], 1, state)
    digest = state.digest()
    with pytest.raises(InvalidBlock) as exc:
        append_block(chain, state, block)
    assert exc.value.violations == [err.WRONG_PUBLISHER]
    assert chain.height == 0 and state.digest() == digest


def test_validate_catches_tampered_prev_hash():
    world = _chain_world()
    chain = Chain()
    block = make_next_block(world, chain)
    tampered = Block(block.height, b"\x13" * 32, block.publisher, block.tick, block.txs, block.signature)
    violations = validate_block(tampered, world.state, chain)
    assert "HashMismatch" in violations
    assert any(v == "BadBlockSignature" for v in violations)


def test_validate_catches_non_validator_publisher():
    world = _chain_world()
    chain = Chain()
    block = make_next_block(world, chain)
    outsider = world.kp("alice")
    forged = Block(1, chain.head.digest(), outsider.account_id, 1, ())
    forged = Block(1, forged.prev_hash, forged.publisher, 1, (), outsider.sign(forged.signing_bytes()))
    violations = validate_block(forged, world.state, chain)
    assert "NotAValidator" in violations


def test_validate_catches_height_gap():
    world = _chain_world()
    chain = Chain()
    block = make_next_block(world, chain)
    skipped = Block(5, block.prev_hash, block.publisher, block.tick, (), block.signature)
    assert "HeightGap" in validate_block(skipped, world.state, chain)


def _signed_block(world: World, chain: Chain, publisher: bytes, height: int) -> Block:
    unsigned = Block(height, chain.head.digest(), publisher, 1, ())
    return Block(height, unsigned.prev_hash, publisher, 1, (), _signer_for(world, publisher).sign(unsigned.signing_bytes()))


def test_rotation_verdicts_live_and_replayed():
    """Live, a block must come from the publisher of its own height; a replay,
    knowing no liveness, refuses only a publisher inside the spacing window."""
    world = _chain_world()
    chain = Chain()
    state = world.state
    ids = state.validators()
    first, _ = advance(world, chain)  # spacing floor(4 * 50%) = 2: ``first`` waits
    others = [v for v in ids if v != first.publisher]

    again = _signed_block(world, chain, first.publisher, 2)
    assert validate_block(again, state, chain) == [err.WRONG_PUBLISHER]
    assert validate_block(again, state, chain, None) == ["SpacingViolation"]
    assert validate_block(again, state, chain, frozenset(others)) == [err.NO_ELIGIBLE_PUBLISHER]
    for other in others:  # any validator outside the window may have been in turn
        assert validate_block(_signed_block(world, chain, other, 2), state, chain, None) == []
    # a block past a height gap is checked against its own height's publisher
    for height in (4, 5):
        due = publisher_at(height, chain, state)
        assert validate_block(_signed_block(world, chain, due, height), state, chain) == ["HeightGap"]


def test_append_rejects_invalid_block_untouched():
    world = _chain_world()
    chain = Chain()
    digest_before = world.state.digest()
    block = make_next_block(world, chain)
    bad = Block(block.height, block.prev_hash, block.publisher, block.tick, block.txs, b"junk")
    with pytest.raises(InvalidBlock):
        append_block(chain, world.state, bad)
    assert world.state.digest() == digest_before
    assert chain.height == 0


def test_failed_tx_included_with_receipt():
    world = _chain_world()
    chain = Chain()
    bad_transfer = world.tx("alice", Transfer(world.aid("bob"), 10_000))
    block, receipts = advance(world, chain, [bad_transfer])
    assert len(block.txs) == 1
    assert receipts[0].ok is False and receipts[0].error == err.INSUFFICIENT_FUNDS
    assert world.state.accounts[world.aid("alice")].nonce == 1  # consumed on-chain


def test_validator_set_change_effective_next_block():
    world = _chain_world()
    chain = Chain()
    order = _sorted_validators(world)
    # fifth validator joins via a passed proposal
    world.keys["v4"] = world.keys["mgr"].__class__("mock", world.kp("mgr").public_key, world.kp("mgr").secret)
    from rolechain.keys import keypair_from_label

    v4 = keypair_from_label("mock", "v4", 0)
    world.keys["v4"] = v4

    proposer = _sorted_validators(world)[0]
    create = world.tx(
        proposer, CreateProposal(AssignRole(v4.account_id, Role.VALIDATOR, v4.public_key), Role.VALIDATOR)
    )
    advance(world, chain, [create])
    pid = 1
    votes = [world.tx(name, CastVote(pid, True)) for name in V]
    advance(world, chain, votes)
    finalize = world.tx(V[0], FinalizeProposal(pid))
    block3, receipts = advance(world, chain, [finalize])
    assert receipts[0].ok
    assert v4.account_id in world.state.validators()
    # the block that carried the change was validated against the old set
    assert block3.publisher != v4.account_id
    # from the next height on, the new validator takes rotation slots
    seen = set()
    for _ in range(5):
        block, _ = advance(world, chain)
        seen.add(block.publisher)
    assert v4.account_id in seen


def test_append_block_returns_the_entries_it_logged():
    world = _chain_world()
    chain = Chain()
    create = world.tx("bank", CreateProposal(Mint(world.aid("alice"), 5), Role.CURRENCY_MANAGER))
    _, receipts = advance(world, chain, [create])
    assert len(receipts) == 1 and receipts[0] is world.state.tx_log[-1]
    expires_at = world.state.proposals[1].expires_at
    while chain.height < expires_at:
        advance(world, chain)
    # the block past the window carries a transfer and auto-finalizes the proposal
    _, receipts = advance(world, chain, [world.tx("alice", Transfer(world.aid("bob"), 1))])
    assert [(r.kind, r.ok) for r in receipts] == [("transfer", True), ("finalize_proposal", True)]
    logged = world.state.tx_log[-2:]
    assert all(r is e for r, e in zip(receipts, logged, strict=True))
    assert receipts[1].data["status"] == "expired"


def test_accruals_fire_once_per_boundary_in_append():
    world = _chain_world()
    chain = Chain()
    world.state.policies["interest.requires_vote"].value = 0
    rule_tx = world.tx("bank", SetInterestRule(1, 100, 2, 1, InterestMode.PUSH))
    _, receipts = advance(world, chain, [rule_tx])  # height 1: rule starts here
    assert receipts[0].ok
    advance(world, chain)  # height 2: no boundary yet
    assert world.balance("alice") == 100
    advance(world, chain)  # height 3: boundary (period 1)
    assert world.balance("alice") == 101
    advance(world, chain)  # height 4: no boundary
    assert world.balance("alice") == 101
    advance(world, chain)  # height 5: boundary (period 2)
    assert world.balance("alice") == 102


def test_registration_replaces_prior_record():
    world = _chain_world()
    chain = Chain()
    v_name = _sorted_validators(world)[1]
    vid = world.aid(v_name)
    view_key = world.kp("mgr").public_key  # any distinct key works
    record1 = ValidatorRecord(vid, ("sim://a/s0",), ("sim://a/v0", "sim://a/v1"), "sim://a/val", view_key, "ops@a")
    record2 = ValidatorRecord(vid, ("sim://b/s0",), ("sim://b/v0",), "sim://b/val", view_key, "ops@b")
    advance(world, chain, [world.tx(v_name, RegisterEndpoints(record1))])
    assert world.state.validator_registry[vid].visibility_gateways == ("sim://a/v0", "sim://a/v1")
    advance(world, chain, [world.tx(v_name, RegisterEndpoints(record2))])
    assert world.state.validator_registry[vid].contact == "ops@b"


def test_registration_rejects_malformed_record():
    world = _chain_world()
    vid = world.aid(_sorted_validators(world)[0])
    account_key = world.state.accounts[vid].public_key
    bad = ValidatorRecord(vid, ("s",), ("v",), "val", account_key, "ops")
    receipt = world.apply(_sorted_validators(world)[0], RegisterEndpoints(bad))
    assert receipt.error == err.MALFORMED_RECORD


def test_non_validator_cannot_register():
    world = _chain_world()
    record = ValidatorRecord(world.aid("alice"), ("s",), ("v",), "val", world.kp("mgr").public_key, "x")
    receipt = world.apply("alice", RegisterEndpoints(record))
    assert receipt.error == err.NOT_VALIDATOR


# --- replay, export/import, integrity ---------------------------------------------------

def _build_sample_chain(n_blocks: int = 4) -> tuple[World, Chain]:
    world = _chain_world()
    chain = Chain()
    txs = [
        [world.tx("alice", Transfer(world.aid("bob"), 10))],
        [],
        [world.tx("bob", Transfer(world.aid("alice"), 4))],
        [],
    ]
    for i in range(n_blocks):
        advance(world, chain, txs[i % len(txs)])
    return world, chain


def test_deterministic_replay_digest():
    digests = set()
    for _ in range(3):
        world, chain = _build_sample_chain()
        digests.add(world.state.digest())
    assert len(digests) == 1


def test_export_import_roundtrip():
    world, chain = _build_sample_chain()
    genesis_world = _chain_world()  # identical genesis (same seed)
    doc = genesis_doc(genesis_world.state)
    dump = export_chain(chain, doc)
    loaded, blocks = import_chain(dump)
    assert genesis_doc(*loaded) == doc
    assert [b.digest() for b in blocks] == [b.digest() for b in chain.blocks[1:]]
    replayed_chain, replayed_state = replay(loaded, blocks)
    assert replayed_state.digest() == world.state.digest()
    assert replayed_chain.head_hash == chain.head_hash


def test_every_single_byte_flip_breaks_verification():
    world, chain = _build_sample_chain(3)
    doc = genesis_doc(_chain_world().state)
    dump = export_chain(chain, doc)
    assert replay(*import_chain(dump))  # sanity: intact dump verifies
    for i in range(len(dump)):
        corrupted = bytearray(dump)
        corrupted[i] ^= 0x01
        with pytest.raises(Exception):
            replay(*import_chain(bytes(corrupted)))


def test_block_codec_roundtrip():
    world, chain = _build_sample_chain(2)
    for block in chain.blocks[1:]:
        assert decode_block(block.encode()) == block


def test_format_chain_mentions_blocks():
    world, chain = _build_sample_chain(2)
    text = format_chain(chain)
    assert "block height=1" in text and "block height=2" in text
    only_one = format_chain(chain, height=2)
    assert "block height=1" not in only_one


def test_block_size_cap_spills_to_next_block():
    world = _chain_world()
    world.state.policies["consensus.max_txs_per_block"].value = 2
    chain = Chain()
    txs = [world.tx("alice", Transfer(world.aid("bob"), 1), nonce=n) for n in range(3)]
    block1 = make_next_block(world, chain, txs)
    assert len(block1.txs) == 2
    append_block(chain, world.state, block1)
    leftover = [tx for tx in txs if tx.tx_id not in {t.tx_id for t in block1.txs}]
    block2 = make_next_block(world, chain, leftover)
    assert len(block2.txs) == 1
    append_block(chain, world.state, block2)
    assert world.balance("bob") == 3


def test_conservation_violation_is_fatal():
    world = _chain_world()
    chain = Chain()
    advance(world, chain)
    # simulate silent corruption: supply counter no longer matches balances
    world.state.supply.minted += 1
    with pytest.raises(InternalInvariantViolation):
        advance(world, chain)


def test_a_stray_write_to_an_account_the_block_wrote_is_fatal_at_that_block(monkeypatch):
    world = _chain_world()
    chain = Chain()
    advance(world, chain)  # the first check sums every account
    write_behind_the_primitives(monkeypatch, 2, world.aid("bob"))
    with pytest.raises(InternalInvariantViolation, match="at height 2: balances=101 unclaimed=0 supply=100"):
        advance(world, chain, [world.tx("alice", Transfer(world.aid("bob"), 5))])
    assert chain.height == 1


def test_a_stray_write_to_an_account_no_block_wrote_is_caught_at_the_end_of_replay(monkeypatch):
    world = _chain_world()
    doc = genesis_doc(world.state)
    chain = Chain()
    advance(world, chain)
    advance(world, chain, [world.tx("alice", Transfer(world.aid("bob"), 5))])
    advance(world, chain)
    dump = export_chain(chain, doc)
    replay(*import_chain(dump))
    # a write the blocks' own money writes do not show passes each block's
    # check; the full sum at the end of the replay still finds it
    write_behind_the_primitives(monkeypatch, 2, world.aid("mgr"))
    with pytest.raises(InternalInvariantViolation, match="end of replay"):
        replay(*import_chain(dump))
