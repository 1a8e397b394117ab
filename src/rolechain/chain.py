"""Blocks, round-robin publication with diversity spacing, and chain replay.

Publication order is a strict rotation over the validator set (ascending
account id), relaxed in two ways: a validator marked offline is skipped,
and no validator may publish again within ``floor(diversity * n)`` blocks
(``consensus.diversity`` policy, percent, default 50).  :func:`publisher_at`
names who publishes a height; the sim and :func:`validate_block` both ask it.

A block is validated entirely against its parent state, so validator-set
changes carried by a block take effect at the next height.  Replaying the
same block sequence onto the same genesis always reproduces bit-identical
state digests.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from . import engine
from .codec import U64_MAX, Reader, Writer
from .errors import (
    CodecError,
    InternalInvariantViolation,
    InvalidBlock,
    InvalidKey,
    TxError,
)
from . import errors as err
from .keys import KeyPair, get_scheme
from .ledger import Account, LedgerState, LogEntry, Policy
from .payloads import (
    Permanence,
    Role,
    Transaction,
    ValidatorRecord,
    ZERO_ID,
    decode_transaction,
)

ZERO_HASH = bytes(32)
DUMP_MAGIC = b"RCHN"
DUMP_VERSION = 1


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
        w = Writer()
        w.raw(self.signing_bytes())
        w.bytes_(self.signature)
        return w.getvalue()

    def digest(self) -> bytes:
        return hashlib.sha256(self.encode()).digest()


def block_signing_bytes(
    height: int, prev_hash: bytes, publisher: bytes, tick: int, txs: tuple[Transaction, ...]
) -> bytes:
    w = Writer()
    w.raw(b"blk:")
    w.u64(height)
    w.bytes_(prev_hash)
    w.bytes_(publisher)
    w.u64(tick)
    w.count(len(txs))
    for tx in txs:
        w.bytes_(tx.encode())
    return w.getvalue()


def decode_block(data: bytes) -> Block:
    r = Reader(data)
    if r.fixed(4) != b"blk:":
        raise CodecError("missing block prefix")
    height = r.u64()
    prev_hash = r.bytes_()
    publisher = r.bytes_()
    tick = r.u64()
    txs = tuple(decode_transaction(r.bytes_()) for _ in range(r.count()))
    signature = r.bytes_()
    r.require_end()
    return Block(height, prev_hash, publisher, tick, txs, signature)


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
    return validator_count * diversity_percent // 100


def expected_publisher(
    height: int,
    validators: list[bytes],
    recent: list[bytes],
    diversity_percent: int = 50,
    inactive: frozenset[bytes] = frozenset(),
) -> bytes:
    """Who publishes ``height``: rotation slot, then cyclic skip.

    Skips validators that are offline or still inside the diversity spacing
    window (they appear among the publishers of the last ``floor(d*n)``
    blocks).  ``recent`` is newest-first.
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
    """Validate, apply, and fire boundary work; fatal if conservation breaks.

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
    if not state.conservation_holds():
        raise InternalInvariantViolation(
            f"conservation broken at height {block.height}: "
            f"balances={state.total_balances()} unclaimed={state.total_unclaimed()} "
            f"supply={state.supply.circulating}"
        )
    chain.blocks.append(block)
    return receipts


# --- genesis documents and chain dumps --------------------------------------------

def genesis_doc(state: LedgerState, names: dict[str, bytes] | None = None) -> dict:
    """JSON-safe snapshot of a height-0 state, enough to replay from.

    Accounts, policies and validator records take the JSON forms their
    field declarations give them.
    """
    return {
        "scheme": state.scheme,
        "accounts": [Account.FIELDS.to_doc(a) for _, a in sorted(state.accounts.items())],
        "policies": [Policy.FIELDS.to_doc(p) for _, p in sorted(state.policies.items())],
        "registry": [ValidatorRecord.FIELDS.to_doc(r) for _, r in sorted(state.validator_registry.items())],
        "names": {name: aid.hex() for name, aid in sorted((names or {}).items())},
    }


def state_from_doc(doc: dict) -> LedgerState:
    """Height-0 state from a genesis doc.

    A dump declares its doc's digest itself, so the doc is outside input: a
    missing key, a wrong type, bad hex, an unknown name, a number outside
    the u64 range, an account, policy or validator listed twice, or a
    policy with an expiry height that is not timed, or timed without one,
    raises ``CodecError``.
    """
    try:
        state = LedgerState(scheme=doc["scheme"])
        get_scheme(state.scheme)
        names = doc["names"]  # read by ``rolechain query``
        policies, accounts, registry = doc["policies"], doc["accounts"], doc["registry"]
        if type(names) is not dict or not all(type(x) is list for x in (policies, accounts, registry)):
            raise CodecError("wrong type of names, policies, accounts or registry")
        for aid in names.values():
            bytes.fromhex(aid)
        for policy in map(Policy.FIELDS.from_doc, policies):
            if policy.key in state.policies:
                raise CodecError(f"policy {policy.key!r} listed twice")
            if (policy.expiry_height is None) == (policy.permanence is Permanence.TIMED_EXPIRATION):
                raise CodecError(f"policy {policy.key!r}: expiry_height is set exactly when it is timed_expiration")
            state.policies[policy.key] = policy
        for acct in map(Account.FIELDS.from_doc, accounts):
            if acct.account_id in state.accounts:
                raise CodecError(f"account {acct.account_id.hex()} listed twice")
            state.accounts[acct.account_id] = acct
            state.supply.minted += acct.balance
        if state.supply.minted > U64_MAX:
            raise CodecError("balances exceed the u64 supply")
        for rec in map(ValidatorRecord.FIELDS.from_doc, registry):
            if rec.account in state.validator_registry:
                raise CodecError(f"validator record {rec.account.hex()} listed twice")
            state.validator_registry[rec.account] = rec
        return state
    except CodecError as exc:
        raise CodecError(f"genesis doc: {exc}") from None
    except (KeyError, TypeError, ValueError, InvalidKey) as exc:
        # lookups and bytes.fromhex on a malformed doc fail with these
        raise CodecError(f"genesis doc: {exc!r}") from None


def export_chain(chain: Chain, doc: dict) -> bytes:
    """Length-prefixed binary dump: genesis document, its digest, blocks.

    Blocks carry their own integrity (signatures and hash links); the
    genesis document is not signed by anyone, so the dump pins its digest.
    """
    w = Writer()
    w.raw(DUMP_MAGIC)
    w.u8(DUMP_VERSION)
    encoded_doc = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    w.bytes_(encoded_doc)
    w.bytes_(hashlib.sha256(encoded_doc).digest())
    w.count(len(chain.blocks) - 1)
    for block in chain.blocks[1:]:
        w.bytes_(block.encode())
    return w.getvalue()


def import_chain(data: bytes) -> tuple[dict, list[Block]]:
    r = Reader(data)
    if r.fixed(4) != DUMP_MAGIC:
        raise CodecError("not a chain dump")
    if r.u8() != DUMP_VERSION:
        raise CodecError("unsupported dump version")
    encoded_doc = r.bytes_()
    if r.bytes_() != hashlib.sha256(encoded_doc).digest():
        raise CodecError("genesis document digest mismatch")
    try:
        doc = json.loads(encoded_doc.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, bad JSON and over-long integer literals
        raise CodecError(f"corrupt genesis document: {exc}") from None
    blocks = [decode_block(r.bytes_()) for _ in range(r.count())]
    r.require_end()
    return doc, blocks


def replay(doc: dict, blocks: list[Block]) -> tuple[Chain, LedgerState]:
    """Rebuild state from a dump, re-validating every block and invariant."""
    state = state_from_doc(doc)
    if not state.conservation_holds():
        raise InternalInvariantViolation("genesis state does not conserve supply")
    chain = Chain()
    for block in blocks:
        append_block(chain, state, block, inactive=None)
    return chain, state


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
