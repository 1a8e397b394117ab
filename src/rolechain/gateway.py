"""Security gateways (admission), visibility gateways (signed reads), and
the client-side response comparator.

Admission never touches the chain: a rejected transaction simply never
reaches a pending pool.  The gateways keep no chain rule of their own:
admission refuses by ``engine.envelope_fault``, as ``apply_transaction``
does, and the comparator returns only a pair ``engine.verify_evidence``
accepts.  Read queries authenticate with a single-use challenge signature,
get access-checked against the visibility rules, and come back signed
under the gateway validator's registered view key so a client can later
prove what it was told.

Fault injection is first-class: a gateway can be configured to corrupt its
answers or to censor submissions, which is exactly what the discrepancy
machinery has to catch.  :func:`censors` is the one censor rule, asked by
admission and by a publisher choosing its block's transactions.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Any, NamedTuple

from . import errors as err
from .codec import BOOL, BYTES, TEXT, U32, U64, U64_MAX, Field, encoding, none_as, seq_of, whole, wire, wire_record
from .engine import envelope_fault, verify_evidence, view_key_fault
from .errors import CodecError, QueryError, TxError
from .keys import KeyPair, get_scheme
from .ledger import LOG_DATA, LedgerState, get_balance, get_history
from .monetary import Supply, claimable_amount, supply_view
from .payloads import (
    Claimable,
    DiscrepancyEvent,
    GatewayDirectory,
    ManagementLog,
    OwnBalance,
    OwnHistory,
    Query,
    Role,
    SignedQueryResponse,
    SupplyView,
    Transaction,
    ValidationServerAddress,
    challenge_message,
    decode_query,
    decode_transaction,
    encode_query,
    sign_response,
    sign_transaction,
)

# fault profile flags
FAULT_CORRUPT_RESULTS = "corrupt_results"
FAULT_CENSOR_ALL = "censor_all"
FAULT_CENSOR_DISCREPANCY = "censor_discrepancy"
FAULT_OFFLINE = "offline"

KNOWN_FAULTS = {
    FAULT_CORRUPT_RESULTS,
    FAULT_CENSOR_ALL,
    FAULT_CENSOR_DISCREPANCY,
    FAULT_OFFLINE,
}


@dataclass
class TokenBucket:
    tokens: int
    last_tick: int

    def take(self, tick: int, capacity: int, refill: int) -> bool:
        """Refill by elapsed ticks (capped), then try to consume one token."""
        elapsed = max(0, tick - self.last_tick)
        self.tokens = min(capacity, self.tokens + refill * elapsed)
        self.last_tick = max(self.last_tick, tick)
        if self.tokens < 1:
            return False
        self.tokens -= 1
        return True


@dataclass
class Admitted:
    tx: Transaction


@dataclass
class Rejected:
    reason: str


@dataclass
class Censored:
    """Silently dropped by a faulty gateway; not a protocol rejection."""


def censors(faults: set[str], tx: Transaction, publisher: bytes | None = None) -> bool:
    """Whether a validator with ``faults`` drops ``tx``: every transaction
    under ``censor_all``, every discrepancy event under ``censor_discrepancy``.

    A censoring ``publisher`` still includes its own transactions under
    ``censor_all``, since it censors to silence others, not itself;
    admission names no publisher, so it drops every submission.
    """
    if FAULT_CENSOR_ALL in faults and tx.sender != publisher:
        return True
    return FAULT_CENSOR_DISCREPANCY in faults and isinstance(tx.payload, DiscrepancyEvent)


class SecurityGateway:
    """Per-validator admission front end with a token-bucket rate limiter."""

    def __init__(self, validator: bytes, faults: set[str] | None = None):
        self.validator = validator
        # shared by reference so a sim can toggle faults mid-run
        self.faults = faults if faults is not None else set()
        # admitted and not yet included: this validator publishes these
        # copies, whose signatures it verified, rather than propagated ones.
        # Keyed by the admitted frame, the bytes the copy keeps as its
        # encoding: the key costs no memory and no SHA-256, as a tx id would
        self.pool: dict[bytes, Transaction] = {}
        self._buckets: dict[bytes, TokenBucket] = {}

    def rate_check(self, state: LedgerState, sender: bytes, tick: int) -> bool:
        if whitelisted(state.policy_bytes("rate.whitelist"), sender):
            return True
        capacity = state.policy_int("rate.capacity")
        bucket = self._buckets.get(sender)
        if bucket is None:
            bucket = self._buckets[sender] = TokenBucket(capacity, tick)
        return bucket.take(tick, capacity, state.policy_int("rate.refill"))

    def admit(self, state: LedgerState, raw_tx: bytes, tick: int) -> Admitted | Rejected | Censored:
        """Parse, authenticate, and rate-check one submission."""
        try:
            tx = decode_transaction(raw_tx)
        except CodecError:
            return Rejected(err.MALFORMED)
        if censors(self.faults, tx):
            return Censored()
        fault = envelope_fault(state, tx)
        if fault is not None:
            return Rejected(fault)
        if not self.rate_check(state, tx.sender, tick):
            return Rejected(err.THROTTLED)
        self.pool[raw_tx] = tx
        return Admitted(tx)

    def drop_included(self, frames: Iterable[bytes]) -> None:
        """Forget the pooled copies whose frames a block included."""
        for frame in frames:
            self.pool.pop(frame, None)


def whitelisted(whitelist: bytes, sender: bytes) -> bool:
    """Whether ``sender`` is one of the 32-byte ids concatenated in ``whitelist``.

    A search of the bytes, not a set of its ids: a match must start on an
    id boundary, so an id made of one entry's tail and the next one's head
    does not count.
    """
    if len(sender) != 32:
        return False
    at = whitelist.find(sender)
    while at >= 0 and at % 32:
        at = whitelist.find(sender, at + 1)
    return at >= 0


@dataclass(frozen=True)
class QueryRequest:
    requester: bytes
    challenge: bytes
    challenge_signature: bytes
    echo: bytes  # the encoding of the query, as the requester signed it


def sign_request(requester: KeyPair, challenge: bytes, query: Query, account: bytes) -> QueryRequest:
    """Client helper: ``account`` proves possession of its current key over
    (challenge, query echo)."""
    echo = encode_query(query)
    return QueryRequest(account, challenge, requester.sign(challenge_message(challenge, echo)), echo)


# --- read kinds ---------------------------------------------------------------------


class Visibility(Enum):
    """Who may see a read's answer."""

    ANYONE = "anyone"
    OWNER = "the account's owner"
    VALIDATORS = "validator accounts"


@wire_record(frozen=False)
class PublicEntry:
    """What a read reveals of a ``LogEntry``: sender, participants and reversed_by stay private."""

    tx_id: bytes = wire(BYTES)
    height: int = wire(U64)
    kind: str = wire(TEXT)
    ok: bool = wire(BOOL)
    error: str | None = wire(none_as(TEXT, ""))
    data: dict = wire(LOG_DATA)
    public_bytes = None  # kept on first encoding, as a LogEntry keeps it


def _write_entries(b: bytearray, entries) -> None:
    """Count, then each entry's public bytes, kept from its first read.

    Keeping them is safe: the encoded fields never change once an entry is
    logged (a reversal sets only ``reversed_by``).
    """
    U32.encode(b, len(entries))
    for e in entries:
        if e.public_bytes is None:
            e.public_bytes = encoding(PublicEntry.FIELDS.encode, e)  # reads the fields by name
        b += e.public_bytes


@wire_record
class DirectoryEntry:
    """What the directory reveals of a ``ValidatorRecord``, which it encodes directly: all but the validation server."""

    account: bytes = wire(BYTES)
    security_gateways: tuple[str, ...] = wire(seq_of(TEXT))
    visibility_gateways: tuple[str, ...] = wire(seq_of(TEXT))
    view_key: bytes = wire(BYTES)
    contact: str = wire(TEXT)


def _validation_server(state: LedgerState, query: ValidationServerAddress) -> str:
    rec = state.validator_registry.get(query.validator)
    if rec is None:
        raise QueryError(err.UNKNOWN_ACCOUNT)
    return rec.validation_server


class Read(NamedTuple):
    """One read kind: who may see its answer, the answer's codec, and the honest answer."""

    visibility: Visibility
    answer: Field
    compute: Callable[[LedgerState, Query], Any]


LOG_ENTRIES = Field(_write_entries, None, seq_of(PublicEntry.FIELDS).read)
READS: dict[type[Query], Read] = {
    OwnBalance: Read(Visibility.OWNER, U64, lambda state, query: get_balance(state, query.account)),
    OwnHistory: Read(Visibility.OWNER, LOG_ENTRIES, lambda state, query: get_history(state, query.account)),
    Claimable: Read(Visibility.OWNER, U64, lambda state, query: claimable_amount(state, query.account)),
    ManagementLog: Read(
        Visibility.ANYONE, LOG_ENTRIES, lambda state, query: state.management_log(query.start_height, query.end_height)
    ),
    SupplyView: Read(Visibility.ANYONE, Supply.FIELDS, lambda state, query: supply_view(state)),
    GatewayDirectory: Read(
        Visibility.ANYONE,
        seq_of(DirectoryEntry.FIELDS),
        lambda state, query: [record for _, record in sorted(state.validator_registry.items())],
    ),
    ValidationServerAddress: Read(Visibility.VALIDATORS, TEXT, _validation_server),
}


def authorize_query(state: LedgerState, requester: bytes, query: Query) -> None:
    """Raise QueryError unless ``requester`` may see the answer to ``query``."""
    visibility = READS[type(query)].visibility
    if visibility is Visibility.OWNER and query.account != requester:
        raise QueryError(err.NOT_OWNER)
    if visibility is Visibility.VALIDATORS:
        acct = state.accounts.get(requester)
        if acct is None or Role.VALIDATOR not in acct.roles:
            raise QueryError(err.NOT_VALIDATOR)


def compute_result(state: LedgerState, query: Query) -> bytes:
    """Canonical encoding of the honest answer for a query."""
    read = READS[type(query)]
    return encoding(read.answer.encode, read.compute(state, query))


class VisibilityGateway:
    """Per-validator read front end answering from the latest snapshot."""

    def __init__(self, validator: bytes, view_signer: KeyPair, faults: set[str] | None = None):
        self.validator = validator
        self.view_signer = view_signer
        self.faults = faults if faults is not None else set()
        self._challenge_counter = 0
        self._open_challenges: set[bytes] = set()

    def issue_challenge(self) -> bytes:
        self._challenge_counter += 1
        challenge = hashlib.sha256(
            b"chal:" + self.validator + self._challenge_counter.to_bytes(8, "big")
        ).digest()
        self._open_challenges.add(challenge)
        return challenge

    def _corrupt(self, query: Query, result: bytes) -> bytes:
        # deterministic lie: inflate a number (wrapping inside u64), clobber the rest
        if READS[type(query)].answer is U64:
            return encoding(U64.encode, (whole(U64.read, result) + 100) & U64_MAX)
        return result + b"\x00"

    def answer(self, state: LedgerState, request: QueryRequest) -> SignedQueryResponse:
        """Authenticate the echo as received, decode, authorize, answer, and sign under the view key."""
        if request.challenge not in self._open_challenges:
            raise QueryError(err.BAD_CHALLENGE, "challenge not issued or already used")
        requester = state.accounts.get(request.requester)
        if requester is None or not get_scheme(state.scheme).verify(
            requester.public_key, challenge_message(request.challenge, request.echo), request.challenge_signature
        ):
            raise QueryError(err.BAD_CHALLENGE)
        try:
            query = decode_query(request.echo)
        except CodecError as exc:
            raise QueryError(err.MALFORMED, str(exc)) from None
        self._open_challenges.discard(request.challenge)
        authorize_query(state, request.requester, query)
        result = compute_result(state, query)
        if FAULT_CORRUPT_RESULTS in self.faults:
            result = self._corrupt(query, result)
        return sign_response(self.view_signer, self.validator, request.echo, result, state.height)


def compare_responses(state: LedgerState, responses: list[SignedQueryResponse]) -> DiscrepancyEvent | None:
    """Cross-check gateway answers; None means consistent.

    Responses not signed under their validator's registered view key are
    discarded; fewer than two validators left raise ``InsufficientResponses``.
    The evidence is the first pair in (validator, result) order that the
    chain's ``verify_evidence`` accepts, which also holds back answers fresher
    than ``gateway.delay_blocks`` below the current height.
    """
    valid = [r for r in responses if view_key_fault(state, r) is None]
    if len({r.validator for r in valid}) < 2:
        raise QueryError(err.INSUFFICIENT_RESPONSES)
    ordered = sorted(valid, key=lambda r: (r.validator, r.result))
    for first, second in combinations(ordered, 2):
        evidence = DiscrepancyEvent(first, second)
        if verify_evidence(state, evidence) is None:
            return evidence
    return None


def file_discrepancy(
    state: LedgerState, evidence: DiscrepancyEvent, submitter: KeyPair, nonce: int, sender: bytes
) -> Transaction:
    """Wrap verified evidence into an event transaction ``sender`` signs with ``submitter``."""
    reason = verify_evidence(state, evidence)
    if reason is not None:
        raise TxError(err.INVALID_EVIDENCE, reason)
    return sign_transaction(submitter, sender, nonce, evidence)
