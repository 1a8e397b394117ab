"""Blocks, round-robin publication with diversity spacing, and chain replay.

Publication order is a strict rotation over the validator set (ascending
account id), relaxed in two ways: a validator marked offline is skipped,
and no validator may publish again within ``floor(diversity * n)`` blocks
(the ``consensus.diversity`` policy, a percent, whose default is in
``ledger.POLICY_DEFAULTS``), capped at n - 1 so
that some validator is always eligible.  :func:`publisher_at`
names who publishes a height; the sim and :func:`validate_block` both ask it.

A block is validated entirely against its parent state, so validator-set
changes carried by a block take effect at the next height.  Replaying the
same block sequence onto the same genesis always reproduces bit-identical
state digests.  Before its block loop, a replay may check the transaction
signatures on several processes (:func:`precheck_signatures`); each block
still checks its own, and finds the successes that kept.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import partial

from . import engine
from .codec import BYTES, TEXT, U64, encoding, seq_of, sorted_map, tuple_of, whole
from .errors import CodecError, InternalInvariantViolation, InvalidBlock, TxError
from . import errors as err
from .fanout import Child, fork_child, may_fork, read_to_end, reap, write_all
from .fanout import usable_cpus as _usable_cpus
from .keys import KeyPair, get_scheme
from .ledger import LedgerState, LogEntry, read_genesis
from .payloads import Role, Transaction, ZERO_ID, decode_transaction, mark_verified

ZERO_HASH = bytes(32)
DUMP_MAGIC = b"RCHN"
DUMP_VERSION = 2


@dataclass(frozen=True)
class Block:
    height: int
    prev_hash: bytes
    publisher: bytes
    tick: int
    txs: tuple[Transaction, ...]
    signature: bytes = b""

    def signing_bytes(self) -> bytes:
        return block_signing_bytes(self.height, self.prev_hash, self.publisher, self.tick, self.txs)

    def encode(self) -> bytes:
        return self.signing_bytes() + encoding(BYTES.encode, self.signature)

    def digest(self) -> bytes:
        return hashlib.sha256(self.encode()).digest()


def block_signing_bytes(
    height: int, prev_hash: bytes, publisher: bytes, tick: int, txs: tuple[Transaction, ...]
) -> bytes:
    return b"blk:" + encoding(_BLOCK.encode, (height, prev_hash, publisher, tick, [tx.encode() for tx in txs]))


# a block between its prefix and signature: height, prev hash, publisher, tick, tx frames
_BLOCK = tuple_of(U64, BYTES, BYTES, U64, seq_of(BYTES))


def decode_block(data: bytes) -> Block:
    if data[:4] != b"blk:":
        raise CodecError("missing block prefix")
    (height, prev_hash, publisher, tick, frames), pos = _BLOCK.read(data, 4)
    signature = whole(BYTES.read, data, pos)
    return Block(height, prev_hash, publisher, tick, tuple(map(decode_transaction, frames)), signature)


def genesis_block() -> Block:
    return Block(0, ZERO_HASH, ZERO_ID, 0, ())


@dataclass
class Chain:
    blocks: list[Block] = field(default_factory=lambda: [genesis_block()])

    @property
    def head(self) -> Block:
        return self.blocks[-1]

    @property
    def head_hash(self) -> bytes:
        return self.head.digest()

    @property
    def height(self) -> int:
        return self.head.height

    def recent_publishers(self, limit: int) -> list[bytes]:
        """Publishers of the most recent blocks, newest first (genesis excluded)."""
        out: list[bytes] = []
        for block in reversed(self.blocks):
            if block.height == 0 or len(out) >= limit:
                break
            out.append(block.publisher)
        return out


def spacing_window(validator_count: int, diversity_percent: int) -> int:
    """How many recent publishers are blocked: ``floor(n * d / 100)``, at most
    n - 1, the strictest spacing n validators can meet."""
    return min(validator_count * diversity_percent // 100, validator_count - 1)


def expected_publisher(
    height: int,
    validators: list[bytes],
    recent: list[bytes],
    diversity_percent: int,
    inactive: frozenset[bytes] = frozenset(),
) -> bytes:
    """Who publishes ``height``: rotation slot, then cyclic skip.

    Skips validators that are offline or still inside the diversity spacing
    window (they appear among the publishers of the last ``floor(d*n)``
    blocks, at most n - 1).  ``recent`` is newest-first.
    """
    n = len(validators)
    if n == 0:
        raise TxError(err.NO_ELIGIBLE_PUBLISHER, "empty validator set")
    blocked = set(recent[: spacing_window(n, diversity_percent)])
    start = height % n
    for i in range(n):
        candidate = validators[(start + i) % n]
        if candidate in inactive or candidate in blocked:
            continue
        return candidate
    raise TxError(err.NO_ELIGIBLE_PUBLISHER)


def publisher_at(height: int, chain: Chain, state: LedgerState, inactive: frozenset[bytes] = frozenset()) -> bytes:
    """Who publishes ``height`` on ``chain``: :func:`expected_publisher` over the
    state's validators, the chain's recent publishers and ``consensus.diversity``.

    Raises ``TxError`` when no validator is eligible.
    """
    validators = state.validators()
    recent = chain.recent_publishers(len(validators))
    return expected_publisher(height, validators, recent, state.policy_int("consensus.diversity"), inactive)


def build_block(
    signer: KeyPair,
    publisher: bytes,
    parent: Block,
    pending: list[Transaction],
    tick: int,
    state: LedgerState,
) -> Block:
    """The next block, signed: at most ``consensus.max_txs_per_block`` of ``pending``.

    Whether ``publisher`` is in turn is checked when the block is appended.
    """
    txs = tuple(pending[: state.policy_int("consensus.max_txs_per_block")])
    height = parent.height + 1
    prev_hash = parent.digest()
    signature = signer.sign(block_signing_bytes(height, prev_hash, publisher, tick, txs))
    return Block(height, prev_hash, publisher, tick, txs, signature)


def validate_block(
    block: Block,
    state: LedgerState,
    chain: Chain,
    inactive: frozenset[bytes] | None = frozenset(),
) -> list[str]:
    """Total check of one candidate block against the parent state.

    Returns violations as data; an empty list means acceptable.  Passing
    ``inactive=None`` relaxes the rotation check to membership plus spacing
    only, which is what a replayer with no liveness knowledge can verify: a
    validator is then in turn if it would be with every other one offline.
    """
    violations: list[str] = []
    parent = chain.head
    if block.height != parent.height + 1:
        violations.append("HeightGap")
    if block.prev_hash != parent.digest():
        violations.append("HashMismatch")
    scheme = get_scheme(state.scheme)
    publisher_acct = state.accounts.get(block.publisher)
    if publisher_acct is None or Role.VALIDATOR not in publisher_acct.roles:
        violations.append("NotAValidator")
    else:
        replaying = inactive is None
        if replaying:
            inactive = frozenset(state.validators()) - {block.publisher}
        try:
            if publisher_at(block.height, chain, state, inactive) != block.publisher:
                violations.append(err.WRONG_PUBLISHER)
        except TxError:
            violations.append("SpacingViolation" if replaying else err.NO_ELIGIBLE_PUBLISHER)
        if not scheme.verify(publisher_acct.public_key, block.signing_bytes(), block.signature):
            violations.append("BadBlockSignature")
    # narrower than engine.envelope_fault: a sender that loses its roles
    # between admission and inclusion is an unlogged NoRole receipt, not an
    # invalid block
    for i, tx in enumerate(block.txs):
        sender = state.accounts.get(tx.sender)
        if sender is None or not tx.signature_ok(state.scheme, sender.public_key):
            violations.append(f"MalformedTx:{i}")
    return violations


def append_block(
    chain: Chain,
    state: LedgerState,
    block: Block,
    inactive: frozenset[bytes] | None = frozenset(),
) -> list[LogEntry]:
    """Validate, apply, and fire boundary work; fatal if conservation breaks,
    which is judged from the money the block wrote
    (:meth:`LedgerState.conserved_since_check`).

    Returns each transaction's entry, in block order, then the entries of
    the proposals the block auto-finalized.
    """
    violations = validate_block(block, state, chain, inactive)
    if violations:
        raise InvalidBlock(violations)
    state.height = block.height
    receipts = [engine.apply_transaction(state, tx) for tx in block.txs]
    engine.run_accruals(state)
    receipts.extend(engine.finalize_expired_proposals(state))
    if not state.conserved_since_check():
        raise InternalInvariantViolation(
            f"conservation broken at height {block.height}: "
            f"balances={state.total_balances()} unclaimed={state.total_unclaimed()} "
            f"supply={state.supply.circulating}"
        )
    chain.blocks.append(block)
    return receipts


# --- genesis and chain dumps ---------------------------------------------------------

# actor name -> account id, as ``rolechain query`` resolves names
_NAMES = sorted_map(TEXT, BYTES)
# a dump after its magic and version: the genesis, its SHA-256 and each block
_DUMP = tuple_of(BYTES, BYTES, seq_of(BYTES))


def genesis_doc(state: LedgerState, names: dict[str, bytes] | None = None) -> bytes:
    """The genesis a dump holds: a height-0 state's canonical encoding, whose
    SHA-256 is its digest, then ``names``."""
    return state.encode() + encoding(_NAMES.encode, names or {})


def decode_genesis(genesis: bytes) -> tuple[LedgerState, dict[str, bytes]]:
    """The height-0 state and the names of a genesis; any fault is a CodecError that names the genesis."""
    try:
        state, pos = read_genesis(genesis)
        return state, whole(_NAMES.read, genesis, pos)
    except CodecError as exc:
        raise CodecError(f"genesis: {exc}") from None


def export_chain(chain: Chain, genesis: bytes) -> bytes:
    """Binary dump: the genesis, its SHA-256, then the blocks.

    Blocks carry their own integrity (signatures and hash links); the
    genesis is signed by no one, so the dump pins its digest.
    """
    pin = hashlib.sha256(genesis).digest()
    blocks = [block.encode() for block in chain.blocks[1:]]
    return DUMP_MAGIC + bytes([DUMP_VERSION]) + encoding(_DUMP.encode, (genesis, pin, blocks))


def import_chain(data: bytes) -> tuple[tuple[LedgerState, dict[str, bytes]], list[Block]]:
    """The genesis of a dump, its pin checked, decoded by :func:`decode_genesis`; and its blocks."""
    if data[:4] != DUMP_MAGIC:
        raise CodecError("not a chain dump")
    if data[4:5] != bytes([DUMP_VERSION]):
        raise CodecError("unsupported dump version")
    genesis, pin, blocks = whole(_DUMP.read, data, 5)
    if pin != hashlib.sha256(genesis).digest():
        raise CodecError("genesis digest mismatch")
    blocks = [decode_block(block) for block in blocks]
    return decode_genesis(genesis), blocks


def replay(genesis: tuple[LedgerState, dict[str, bytes]], blocks: list[Block]) -> tuple[Chain, LedgerState]:
    """Rebuild state from a decoded dump onto its genesis state, re-validating
    every block and invariant (a genesis decodes only to a state that conserves
    supply); at the end conservation is checked over every account.

    :func:`precheck_signatures` first checks the transaction signatures, on
    several processes where that pays; a block still checks each one itself,
    and finds a success that check kept.
    """
    state, _ = genesis
    chain = Chain()
    precheck_signatures(state, blocks)
    for block in blocks:
        append_block(chain, state, block, inactive=None)
    if not state.conservation_holds():
        raise InternalInvariantViolation("conservation broken at end of replay")
    return chain, state


# a replay checks signatures on at most this many processes, itself included
MAX_CHECK_PROCESSES = 8
# the fewest signature checks worth a process.  Forking a child of a 31 MB
# replaying process, reading its pipe and reaping it took ~3 ms of wall time
# on a 2-vCPU x86_64 VM, where an ed25519 check took 150-250 µs; checking N
# transactions on two processes broke even with one process near N = 24-32
# and saved ~30% at N = 128, so 64 a process leaves room for a larger
# process's slower fork
MIN_CHECKS_PER_PROCESS = 64


def precheck_signatures(state: LedgerState, blocks: list[Block]) -> None:
    """Check every transaction signature in ``blocks`` whose sender has an
    account in ``state`` under that account's key, spread over processes,
    and keep each success as :meth:`Transaction.signature_ok` does.

    The transactions are cut into contiguous ranges.  Each range but the
    first goes to a child made with ``os.fork``, which inherits the decoded
    blocks and writes one flag byte per transaction to a pipe; this process
    checks the first range meanwhile, through ``signature_ok``.  A check is
    a pure function of the key, the signed bytes and the signature, so a
    kept success stands for the check a block would make under the same
    key.  A transaction that failed, whose sender's key has rotated since,
    whose sender did not exist in ``state``, or whose range's child died or
    wrote short, keeps no success and is verified when its block is, as it
    would be without this check; no verdict depends on it.

    Nothing is done unless the scheme's check is costly, each process gets
    at least :data:`MIN_CHECKS_PER_PROCESS` checks, ``os.fork`` exists and
    this process runs one thread (forking a process with several threads
    can leave a lock held in the child).  A fork or pipe that fails
    (``OSError``) leaves its range and every later one unflagged.  Every
    child is reaped before this returns or raises.
    """
    scheme = get_scheme(state.scheme)
    if not may_fork(scheme):
        return
    accounts = state.accounts
    txs = [tx for block in blocks for tx in block.txs if tx.sender in accounts]
    processes = min(_usable_cpus(), MAX_CHECK_PROCESSES, len(txs) // MIN_CHECKS_PER_PROCESS)
    if processes < 2:
        return
    bounds = [len(txs) * i // processes for i in range(processes + 1)]
    children: list[tuple[Child, int, int]] = []  # child, range start, range end
    try:
        for start, end in zip(bounds[1:], bounds[2:]):
            child = fork_child(partial(_write_flags, scheme, accounts, txs, start, end))
            if child is None:
                break
            children.append((child, start, end))
        for tx in txs[: bounds[1]]:
            tx.signature_ok(state.scheme, accounts[tx.sender].public_key)
        for child, start, end in children:
            flags = read_to_end(child.replies)
            if len(flags) != end - start:
                continue  # a child that died or wrote short: its range is checked inline
            for tx, ok in zip(txs[start:end], flags):
                if ok:
                    mark_verified(tx, state.scheme, accounts[tx.sender].public_key)
    finally:
        reap([child for child, _, _ in children])


def _write_flags(
    scheme, accounts: dict, txs: list[Transaction], start: int, end: int, replies: int, requests: None
) -> None:
    """A child's work: write :func:`_check_range`'s flags to its pipe."""
    write_all(replies, _check_range(scheme, accounts, txs, start, end))


def _check_range(scheme, accounts: dict, txs: list[Transaction], start: int, end: int) -> bytes:
    """One flag byte per transaction of ``txs[start:end]``: 1 where its
    signature verifies under its sender's key in ``accounts``."""
    return bytes(
        scheme.verify(accounts[tx.sender].public_key, tx.signing_bytes(), tx.signature) for tx in txs[start:end]
    )


def format_chain(chain: Chain, height: int | None = None) -> str:
    """Human-readable dump of one block or the whole chain."""
    lines: list[str] = []
    for block in chain.blocks:
        if height is not None and block.height != height:
            continue
        lines.append(
            f"block height={block.height} tick={block.tick} "
            f"publisher={block.publisher.hex()[:16]} txs={len(block.txs)} "
            f"hash={block.digest().hex()[:16]} prev={block.prev_hash.hex()[:16]}"
        )
        for tx in block.txs:
            kind = type(tx.payload).__name__
            lines.append(
                f"  tx {tx.tx_id.hex()[:16]} sender={tx.sender.hex()[:16]} "
                f"nonce={tx.nonce} {kind}"
            )
    return "\n".join(lines)
