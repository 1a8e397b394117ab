"""History and management-log reads equal a full scan of the transaction log.

``LedgerState.log`` keeps each account's entries and the successful
management entries as indexes, and ``gateway.LOG_ENTRIES`` keeps each
entry's public bytes on first read.  Over generated histories (self-
transfers, failed receipts, reversals, proposals that execute their action,
auto-finalized proposals, push and pull accruals), every read must equal
the full-scan definitions below and an encoder that keeps nothing: on the
live state as reversals mark earlier entries, on a deep copy after the
original moves on, and on the state replayed from an exported dump.
"""

from __future__ import annotations

import copy

from hypothesis import given, settings, strategies as st

from rolechain.chain import Chain, append_block, build_block, export_chain, genesis_doc, import_chain, publisher_at, replay
from rolechain.gateway import LOG_ENTRIES, compute_result
from rolechain.ledger import LOG_VALUE, LedgerState, LogEntry, get_history
from rolechain.payloads import (
    CastVote,
    ClaimAllowance,
    CreateProposal,
    FinalizeProposal,
    InterestMode,
    ManagementLog,
    Mint,
    OwnHistory,
    Permanence,
    Reverse,
    Role,
    SetFrozen,
    SetInterestRule,
    Transaction,
    Transfer,
)

from conftest import World, make_world
from reference import Writer

USERS = ["alice", "bob", "carol"]
ROLES = {
    "v0": {Role.VALIDATOR},
    "sec": {Role.SYSTEM_SECURITY},
    "bank1": {Role.CURRENCY_MANAGER},
    "bank2": {Role.CURRENCY_MANAGER},
    "mgr": {Role.PLATFORM_MANAGER},
    **{name: {Role.USER} for name in USERS},
}
POLICIES = [
    ("vote.window_blocks", 2, Permanence.TEMPORARY, None),
    ("interest.requires_vote", 0, Permanence.TEMPORARY, None),
]
PUSH_RULE, PULL_RULE = 1, 2


# --- the definitions the indexes replace -------------------------------------------

def scan_history(state: LedgerState, account: bytes) -> list[LogEntry]:
    return [e for e in state.tx_log if account in e.participants]


def scan_management_log(state: LedgerState, start: int = 0, end: int | None = None) -> list[LogEntry]:
    last = state.height if end is None else end
    return [e for e in state.tx_log if e.management and e.ok and start <= e.height <= last]


def encode_without_memo(entries: list[LogEntry]) -> bytes:
    w = Writer()
    w.count(len(entries))
    for e in entries:
        w.bytes_(e.tx_id)
        w.u64(e.height)
        w.text(e.kind)
        w.boolean(e.ok)
        w.text(e.error or "")
        w.count(len(e.data))
        for key in sorted(e.data):
            w.text(key)
            LOG_VALUE.encode(w, e.data[key])
    return w.getvalue()


def encode_entries(entries: list[LogEntry]) -> bytes:
    w = Writer()
    LOG_ENTRIES.encode(w, entries)
    return w.getvalue()


def assert_reads_match_scans(state: LedgerState) -> None:
    for account in state.accounts:
        history = get_history(state, account)
        assert history == scan_history(state, account)
        assert all(a is b for a, b in zip(history, scan_history(state, account)))
        expected = encode_without_memo(scan_history(state, account))
        assert encode_entries(history) == expected
        assert compute_result(state, OwnHistory(account)) == expected
    assert state.management_log() == scan_management_log(state)
    heights = range(state.height + 3)
    for start in heights:
        for end in heights:
            window = state.management_log(start, end)
            assert window == scan_management_log(state, start, end)
            expected = encode_without_memo(scan_management_log(state, start, end))
            assert encode_entries(window) == expected
            assert compute_result(state, ManagementLog(start, end)) == expected


# --- generated histories ---------------------------------------------------------------

user = st.sampled_from(USERS)
sender = st.sampled_from(USERS + ["mgr"])  # mgr lacks the user role: a failed receipt
bank = st.sampled_from(["bank1", "bank2"])
op = st.one_of(
    st.tuples(st.just("transfer"), sender, user, st.integers(1, 400)),
    st.tuples(st.just("self_transfer"), user, st.integers(1, 400)),
    st.tuples(st.just("reverse"), st.integers(0, 20)),
    st.tuples(st.just("freeze"), user, st.booleans()),
    st.tuples(st.just("propose_mint"), bank, user, st.sampled_from([5, 50, 2**64 - 1])),
    st.tuples(st.just("vote"), bank, st.integers(1, 5), st.booleans()),
    st.tuples(st.just("finalize"), bank, st.integers(1, 5)),
    st.tuples(st.just("claim"), user, st.integers(1, 4)),
    st.tuples(st.just("block"),),
    st.tuples(st.just("clone"),),
)


class History:
    """Builds signed blocks from ops and appends them to one chain."""

    def __init__(self):
        self.world: World = make_world(
            ROLES, balances={name: 1_000 for name in USERS}, policy_overrides=POLICIES
        )
        self.doc = genesis_doc(self.world.state)
        self.chain = Chain()
        self.nonces = {name: 0 for name in self.world.ids}
        self.pending: list[Transaction] = []
        self.transfers: list[bytes] = []

    def submit(self, name: str, payload) -> Transaction:
        tx = self.world.tx(name, payload, self.nonces[name])
        self.nonces[name] += 1
        self.pending.append(tx)
        return tx

    def seal(self) -> None:
        state = self.world.state
        publisher = publisher_at(self.chain.height + 1, self.chain, state)
        block = build_block(self.world.kp("v0"), publisher, self.chain.head, self.pending, self.chain.height + 1, state)
        receipts = append_block(self.chain, state, block)
        assert len(receipts) >= len(self.pending)
        self.pending = []

    def apply(self, step) -> None:
        kind, *args = step
        aid = self.world.aid
        if kind == "transfer":
            name, to, amount = args
            self.transfers.append(self.submit(name, Transfer(aid(to), amount)).tx_id)
        elif kind == "self_transfer":
            name, amount = args
            self.transfers.append(self.submit(name, Transfer(aid(name), amount)).tx_id)
        elif kind == "reverse":
            if self.transfers:
                self.submit("sec", Reverse(self.transfers[args[0] % len(self.transfers)]))
        elif kind == "freeze":
            self.submit("sec", SetFrozen(aid(args[0]), args[1]))
        elif kind == "propose_mint":
            name, to, amount = args
            self.submit(name, CreateProposal(Mint(aid(to), amount), Role.CURRENCY_MANAGER))
        elif kind == "vote":
            self.submit(args[0], CastVote(args[1], args[2]))
        elif kind == "finalize":
            self.submit(args[0], FinalizeProposal(args[1]))
        elif kind == "claim":
            self.submit(args[0], ClaimAllowance(PULL_RULE, args[1]))
        elif kind == "block":
            self.seal()


@settings(max_examples=40, deadline=None)
@given(ops=st.lists(op, min_size=1, max_size=40))
def test_indexed_reads_equal_full_scans(ops):
    h = History()
    # push interest for alice every 2 blocks, pull interest for bob and carol every 3
    h.submit("bank1", SetInterestRule(1, 10, 2, 1, InterestMode.PUSH, frozenset({h.world.aid("alice")})))
    h.submit(
        "bank1",
        SetInterestRule(1, 20, 3, 1, InterestMode.PULL, frozenset({h.world.aid("bob"), h.world.aid("carol")})),
    )
    h.seal()
    clones: list[tuple[LedgerState, bytes]] = []
    for step in ops:
        if step[0] == "clone":
            clones.append((copy.deepcopy(h.world.state), h.world.state.digest()))
            continue
        h.apply(step)
        if step[0] == "block":
            assert_reads_match_scans(h.world.state)
    # enough empty blocks for every boundary kind and for open proposals to expire
    for _ in range(4):
        h.seal()
    state = h.world.state
    assert_reads_match_scans(state)

    for clone, digest in clones:
        assert clone.digest() == digest  # later writes to the original did not reach it
        assert_reads_match_scans(clone)

    _, replayed = replay(*import_chain(export_chain(h.chain, h.doc)))
    assert replayed.digest() == state.digest()
    assert_reads_match_scans(replayed)


def test_generated_histories_hold_every_entry_shape():
    """One fixed history holds each shape the property test is meant to cover."""
    h = History()
    aid = h.world.aid
    h.submit("bank1", SetInterestRule(1, 10, 2, 1, InterestMode.PUSH, frozenset({aid("alice")})))
    h.submit("bank1", SetInterestRule(1, 20, 3, 1, InterestMode.PULL, frozenset({aid("bob"), aid("carol")})))
    h.seal()
    for step in [
        ("self_transfer", "alice", 10),
        ("transfer", "alice", "bob", 100),
        ("transfer", "mgr", "bob", 1),
        ("propose_mint", "bank1", "carol", 50),
        ("propose_mint", "bank2", "carol", 5),
        ("block",),
        ("reverse", 1),
        ("vote", "bank1", 1, True),
        ("vote", "bank2", 1, True),
        ("finalize", "bank1", 1),
        ("vote", "bank1", 2, True),
        ("vote", "bank2", 2, True),
        ("block",),
        ("claim", "bob", 1),
        ("block",),
        ("block",),
        ("block",),
    ]:
        h.apply(step)
    state = h.world.state
    log = state.tx_log
    kinds = {e.kind for e in log}
    assert {"interest_credit", "accrual", "reverse", "claim_allowance"} <= kinds
    assert "interest_accrued" not in kinds  # a pull period logs only its public total
    assert any(e.kind == "transfer" and e.participants[0] == e.participants[1] for e in log)
    assert any(not e.ok for e in log)
    assert any(e.reversed_by is not None for e in log)
    assert any(e.kind == "mint" and "proposal_id" in e.data for e in log)  # an executed action
    assert any(e.kind == "finalize_proposal" and e.sender is None for e in log)  # auto-finalized
    assert_reads_match_scans(state)
