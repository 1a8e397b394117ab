"""Wire types: transaction envelope, action payloads, queries, and responses.

Every type here has a canonical byte encoding built from :mod:`rolechain.codec`
primitives.  Signing always happens over canonical bytes, and transaction /
block ids are SHA-256 digests of the full canonical serialization.

Each payload, query, recovery policy and record is described once, on its
class: its tag, one codec per field and, for a payload, its kind name
(``KIND``), whether it belongs to the management log, which role votes on
it and its sender's gates (see :func:`payload_kind`).  The codecs derive
from these, and ``PAYLOAD.by_tag`` is the one table of payload classes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import NamedTuple

from . import errors as err
from .codec import (
    BOOL,
    BYTES,
    TEXT,
    U64,
    Field,
    Tagged,
    encoding,
    enum,
    framed,
    optional,
    seq_of,
    set_of,
    tagged_value,
    tuple_of,
    whole,
    wire,
    wire_record,
)
from .errors import CodecError
from .keys import KeyPair, get_scheme

ZERO_ID = bytes(32)


class Role(Enum):
    PLATFORM_MANAGER = 1
    ACCOUNT_PROVIDER = 2
    SYSTEM_SECURITY = 3
    USER = 4
    CURRENCY_MANAGER = 5
    VALIDATOR = 6

    # members are singletons, so identity hashing is exact, and it runs in C
    # where Enum.__hash__ is a Python call on every set test
    __hash__ = object.__hash__

    def __lt__(self, other: Role) -> bool:
        # a set of roles is written in value order
        return self._value_ < other._value_


class Permanence(Enum):
    PERMANENT = 1
    TEMPORARY = 2
    TIMED_EXPIRATION = 3


class InterestMode(Enum):
    PUSH = 1
    PULL = 2


class FiatDirection(Enum):
    IN = 1
    OUT = 2


# --- recovery policies -------------------------------------------------------

class RecoveryPolicy:
    """Who may approve a rotation of an account's key; one of ``RECOVERY``."""


RECOVERY = Tagged("recovery")


@RECOVERY.member(1)
class ProviderOnly(RecoveryPolicy):
    pass


@RECOVERY.member(2)
class Guardians(RecoveryPolicy):
    guardians: frozenset[bytes] = wire(set_of(BYTES))
    threshold: int = wire(U64)


@RECOVERY.member(3)
class ProviderPlusSecurity(RecoveryPolicy):
    pass


# --- validator endpoint record ----------------------------------------------

@wire_record
class ValidatorRecord:
    """On-chain registration of a validator's gateways and view key.

    ``validation_server`` is stored on-chain but served only to validator
    accounts; everything else is public.
    """

    account: bytes = wire(BYTES)
    security_gateways: tuple[str, ...] = wire(seq_of(TEXT))
    visibility_gateways: tuple[str, ...] = wire(seq_of(TEXT))
    validation_server: str = wire(TEXT)
    view_key: bytes = wire(BYTES)
    contact: str = wire(TEXT)


# --- queries ------------------------------------------------------------------

class Query:
    """A signed read; one of ``QUERY``."""


QUERY = Tagged("query")


@QUERY.member(1)
class OwnBalance(Query):
    account: bytes = wire(BYTES)


@QUERY.member(2)
class OwnHistory(Query):
    account: bytes = wire(BYTES)


@QUERY.member(3)
class ManagementLog(Query):
    start_height: int = wire(U64)
    end_height: int = wire(U64)


@QUERY.member(4)
class SupplyView(Query):
    pass


@QUERY.member(5)
class GatewayDirectory(Query):
    pass


@QUERY.member(6)
class ValidationServerAddress(Query):
    validator: bytes = wire(BYTES)


@QUERY.member(7)
class Claimable(Query):
    account: bytes = wire(BYTES)


def encode_query(query: Query) -> bytes:
    return encoding(QUERY.encode, query)


def decode_query(data: bytes) -> Query:
    return whole(QUERY.read, data)


@wire_record
class SignedQueryResponse:
    """A visibility-gateway answer, signed under the validator's view key."""

    validator: bytes = wire(BYTES)
    echo: bytes = wire(BYTES)
    result: bytes = wire(BYTES)
    as_of_height: int = wire(U64)
    signature: bytes = wire(BYTES)

    def signing_bytes(self) -> bytes:
        return response_signing_bytes(self.validator, self.echo, self.result, self.as_of_height)


def response_signing_bytes(validator: bytes, echo: bytes, result: bytes, as_of_height: int) -> bytes:
    return b"resp:" + encoding(_ANSWERED.encode, (validator, echo, result, as_of_height))


# what a response signs after its prefix: validator, echo, result, height
_ANSWERED = tuple_of(BYTES, BYTES, BYTES, U64)


def sign_response(
    signer: KeyPair, validator: bytes, echo: bytes, result: bytes, as_of_height: int
) -> SignedQueryResponse:
    """``validator``'s answer ``result`` to ``echo``, signed by ``signer``, its signing bytes written once."""
    signature = signer.sign(response_signing_bytes(validator, echo, result, as_of_height))
    return SignedQueryResponse(validator, echo, result, as_of_height, signature)


# --- action payloads ----------------------------------------------------------

# role -> the role that may grant or revoke it directly (none for validator)
GRANTED_BY = {
    Role.USER: Role.ACCOUNT_PROVIDER,
    Role.ACCOUNT_PROVIDER: Role.PLATFORM_MANAGER,
    Role.SYSTEM_SECURITY: Role.PLATFORM_MANAGER,
    Role.CURRENCY_MANAGER: Role.PLATFORM_MANAGER,
    Role.PLATFORM_MANAGER: Role.PLATFORM_MANAGER,
}


class Holds(NamedTuple):
    """The sender holds one of ``roles``."""

    roles: tuple[Role, ...]
    code: str

    def passes(self, state, roles: frozenset[Role], payload: Payload) -> bool:
        return not roles.isdisjoint(self.roles)


class Sole(NamedTuple):
    """No account but the sender holds ``role`` (a gate before it checks that the sender does)."""

    role: Role
    code: str = err.VOTE_REQUIRED

    def passes(self, state, roles: frozenset[Role], payload: Payload) -> bool:
        return len(state.holders(self.role)) <= 1


class Switch(NamedTuple):
    """The policy ``key`` reads nonzero exactly when ``on`` (by default: a ``requires_vote`` key reads 0)."""

    key: str
    on: bool = False
    code: str = err.VOTE_REQUIRED

    def passes(self, state, roles: frozenset[Role], payload: Payload) -> bool:
        return (state.policy_int(self.key) != 0) is self.on


class NotRole(NamedTuple):
    """The role the payload grants or revokes is not ``role``."""

    role: Role
    code: str

    def passes(self, state, roles: frozenset[Role], payload: Payload) -> bool:
        return payload.role is not self.role


class Grants(NamedTuple):
    """The sender holds the role ``GRANTED_BY`` names for the payload's role."""

    code: str = err.NOT_AUTHORIZED_FOR_ROLE

    def passes(self, state, roles: frozenset[Role], payload: Payload) -> bool:
        return GRANTED_BY.get(payload.role) in roles


def _security(feature: str) -> tuple:
    """A security action's gates: the role, the feature switched on, then no vote required."""
    return _SECURITY, Switch(f"security.{feature}.enabled", True, err.FEATURE_DISABLED), Switch(f"security.{feature}.requires_vote")


_SECURITY = Holds((Role.SYSTEM_SECURITY,), err.NOT_SECURITY_ROLE)
_PLATFORM = Holds((Role.PLATFORM_MANAGER,), err.NOT_PLATFORM_MANAGER)
_CURRENCY = Holds((Role.CURRENCY_MANAGER,), err.NOT_CURRENCY_MANAGER)


class Payload:
    """An action a transaction carries; declared with :func:`payload_kind`."""

    TAG: int
    KIND: str
    MANAGEMENT: bool
    ELECTORATE: Role | None
    GATES: tuple


PAYLOAD = Tagged("payload")


def payload_kind(tag: int, kind: str, *, management: bool = True, electorate: Role | None = None, gates: tuple = ()):
    """Class decorator describing one payload kind in full.

    The class becomes a frozen dataclass whose fields are declared with
    :func:`~rolechain.codec.wire`.  ``tag`` is its wire tag, ``kind`` its
    name in receipts and logs, ``management`` whether its successful
    transactions belong to the public management log, ``electorate`` the
    role that votes on it as a proposal (``None``: not voteable), and
    ``gates`` the checks its sender must pass, in order: the first whose
    ``passes(state, sender_roles, payload)`` is false gives its ``code``.
    Besides the class, a kind has a handler in ``engine.HANDLERS`` and a
    scenario step in ``sim.TX_STEPS``.
    """

    def register(cls: type) -> type:
        if any(other.KIND == kind for other in PAYLOAD.by_tag.values()):
            raise ValueError(f"payload kind {kind!r} is declared twice")
        cls = PAYLOAD.member(tag)(cls)
        cls.KIND, cls.MANAGEMENT, cls.ELECTORATE, cls.GATES = kind, management, electorate, gates
        return cls

    return register


# an integer or a byte string, after a tag byte (1 or 2)
POLICY_VALUE = tagged_value(int, bytes)


@payload_kind(0x01, "transfer", management=False, gates=(Holds((Role.USER,), err.NO_ROLE),))
class Transfer(Payload):
    to: bytes = wire(BYTES)
    amount: int = wire(U64)


@payload_kind(0x02, "set_frozen", electorate=Role.SYSTEM_SECURITY, gates=_security("freeze"))
class SetFrozen(Payload):
    target: bytes = wire(BYTES)
    frozen: bool = wire(BOOL)


@payload_kind(0x03, "confiscate", electorate=Role.SYSTEM_SECURITY, gates=_security("confiscate"))
class Confiscate(Payload):
    source: bytes = wire(BYTES)
    to: bytes = wire(BYTES)
    amount: int = wire(U64)


@payload_kind(0x04, "reverse", electorate=Role.SYSTEM_SECURITY, gates=_security("reverse"))
class Reverse(Payload):
    target_tx: bytes = wire(BYTES)


@payload_kind(0x05, "rotate_key")
class RotateKey(Payload):
    target: bytes = wire(BYTES)
    new_key: bytes = wire(BYTES)
    # (approver account id, signature over the rotation request)
    approvals: tuple[tuple[bytes, bytes], ...] = wire(seq_of(tuple_of(BYTES, BYTES)))


@payload_kind(0x06, "set_policy", electorate=Role.PLATFORM_MANAGER, gates=(_PLATFORM, Sole(Role.PLATFORM_MANAGER)))
class SetPolicy(Payload):
    key: str = wire(TEXT)
    value: int | bytes = wire(POLICY_VALUE)
    permanence: Permanence = wire(enum(Permanence))
    expiry_height: int | None = wire(U64, when=("permanence", Permanence.TIMED_EXPIRATION), default=None)


@payload_kind(0x07, "assign_role", electorate=Role.VALIDATOR, gates=(NotRole(Role.VALIDATOR, err.VALIDATOR_ROLE_LOCKED), Grants()))
class AssignRole(Payload):
    target: bytes = wire(BYTES)
    role: Role = wire(enum(Role))
    # required when the target account does not exist yet
    target_key: bytes | None = wire(optional(BYTES), default=None)
    # required when an account provider grants the user role
    possession_sig: bytes | None = wire(optional(BYTES), default=None)
    recovery: RecoveryPolicy | None = wire(optional(RECOVERY), default=None)


@payload_kind(0x08, "revoke_role", electorate=Role.VALIDATOR, gates=AssignRole.GATES)
class RevokeRole(Payload):
    target: bytes = wire(BYTES)
    role: Role = wire(enum(Role))


@payload_kind(0x09, "bootstrap_validators", gates=(_PLATFORM,))
class BootstrapValidators(Payload):
    validators: frozenset[bytes] = wire(set_of(BYTES))


@payload_kind(0x0A, "create_proposal")
class CreateProposal(Payload):
    # encode_payload and read_payload take this layout directly (see there)
    action: Payload = wire(framed(PAYLOAD))
    electorate: Role = wire(enum(Role))


@payload_kind(0x0B, "cast_vote")
class CastVote(Payload):
    proposal_id: int = wire(U64)
    approve: bool = wire(BOOL)


@payload_kind(0x0C, "finalize_proposal")
class FinalizeProposal(Payload):
    proposal_id: int = wire(U64)


@payload_kind(0x0D, "mint", electorate=Role.CURRENCY_MANAGER, gates=(Switch("mint.requires_vote"), _CURRENCY))
class Mint(Payload):
    to: bytes = wire(BYTES)
    amount: int = wire(U64)


@payload_kind(0x0E, "burn", electorate=Role.CURRENCY_MANAGER, gates=(Switch("mint.requires_vote"), _CURRENCY))
class Burn(Payload):
    source: bytes = wire(BYTES)
    amount: int = wire(U64)


@payload_kind(0x0F, "convert_fiat", gates=(Holds((Role.ACCOUNT_PROVIDER, Role.CURRENCY_MANAGER), err.NOT_AUTHORIZED_CONVERTER),))
class ConvertFiat(Payload):
    user: bytes = wire(BYTES)
    direction: FiatDirection = wire(enum(FiatDirection))
    amount: int = wire(U64)


@payload_kind(0x10, "set_interest_rule", electorate=Role.CURRENCY_MANAGER, gates=(Switch("interest.requires_vote"), _CURRENCY))
class SetInterestRule(Payload):
    rate_num: int = wire(U64)
    rate_den: int = wire(U64)
    period_blocks: int = wire(U64)
    start_height: int = wire(U64)
    mode: InterestMode = wire(enum(InterestMode))
    # None means every user-role account
    scope: frozenset[bytes] | None = wire(optional(set_of(BYTES)), default=None)
    # updating an existing rule's active flag instead of creating one
    rule_id: int | None = wire(optional(U64), default=None)
    active: bool = wire(BOOL, default=True)


@payload_kind(0x11, "claim_allowance", management=False, gates=(Holds((Role.USER,), err.NO_ROLE),))
class ClaimAllowance(Payload):
    rule_id: int = wire(U64)
    up_to_period: int = wire(U64)


@payload_kind(0x12, "register_endpoints", gates=(Holds((Role.VALIDATOR,), err.NOT_VALIDATOR),))
class RegisterEndpoints(Payload):
    record: ValidatorRecord = wire(ValidatorRecord.FIELDS)


@payload_kind(0x13, "discrepancy_event")
class DiscrepancyEvent(Payload):
    first: SignedQueryResponse = wire(SignedQueryResponse.FIELDS)
    second: SignedQueryResponse = wire(SignedQueryResponse.FIELDS)


def encode_payload(b: bytearray, payload: Payload) -> None:
    if type(payload) is CreateProposal:
        # proposals nest: recursing here directly costs one stack frame per
        # level, where the generic path through PAYLOAD costs several, so a
        # frame nested as deep as before still encodes
        b.append(CreateProposal.TAG)
        inner = bytearray()
        encode_payload(inner, payload.action)
        BYTES.encode(b, inner)
        _ELECTORATE.encode(b, payload.electorate)
    else:
        PAYLOAD.encode(b, payload)


def read_payload(data: bytes, pos: int) -> tuple[Payload, int]:
    """The payload at ``pos`` of ``data`` and the position after it."""
    if data[pos : pos + 1] != _PROPOSAL_TAG:
        return PAYLOAD.read(data, pos)
    # direct recursion, one stack frame per level, as in encode_payload
    body, pos = BYTES.read(data, pos + 1)
    action, end = read_payload(body, 0)
    if end != len(body):
        raise CodecError(f"{len(body) - end} trailing bytes in frame")
    electorate, pos = _ELECTORATE.read(data, pos)
    return CreateProposal(action, electorate), pos


_PROPOSAL_TAG = bytes([CreateProposal.TAG])
_ELECTORATE = enum(Role)


# --- transaction envelope -----------------------------------------------------

@dataclass(frozen=True, slots=True)
class Transaction:
    """Signed envelope around one payload.

    The object and its payload are immutable, so its encoding is kept: the
    frame it was decoded from, the bytes :func:`sign_transaction` wrote, or
    else the encoding computed on first use.  So are its id and the last
    ``(scheme, public key)`` its signature verified under.
    """

    sender: bytes
    nonce: int
    payload: Payload
    signature: bytes = b""
    _encoded: bytes | None = field(default=None, init=False, repr=False, compare=False)
    _tx_id: bytes | None = field(default=None, init=False, repr=False, compare=False)
    # two fields, not one tuple: both point at objects that exist anyway, so
    # keeping a result allocates nothing per transaction
    _verified_scheme: str | None = field(default=None, init=False, repr=False, compare=False)
    _verified_key: bytes | None = field(default=None, init=False, repr=False, compare=False)

    def signing_bytes(self) -> bytes:
        # the encoding is the signing bytes, then the length-prefixed signature
        return self.encode()[: -4 - len(self.signature)]

    def signature_ok(self, scheme: str, public_key: bytes) -> bool:
        """Whether the envelope signature verifies under ``public_key``.

        Validity depends only on the scheme, the key, the signed bytes and
        the signature, and the last two never change, so a success is kept
        and a repeat check under the same scheme and key returns at once.
        Any other scheme or key (say, the sender's key after a rotation) is
        verified afresh.
        """
        if self._verified_key == public_key and self._verified_scheme == scheme:
            return True
        if not get_scheme(scheme).verify(public_key, self.signing_bytes(), self.signature):
            return False
        _set_verified_scheme(self, scheme)
        _set_verified_key(self, public_key)
        return True

    def encode(self) -> bytes:
        if self._encoded is None:
            signing = tx_signing_bytes(self.sender, self.nonce, self.payload)
            _set_encoded(self, _with_signature(signing, self.signature))
        return self._encoded

    @property
    def tx_id(self) -> bytes:
        if self._tx_id is None:
            _set_tx_id(self, hashlib.sha256(self.encode()).digest())
        return self._tx_id


# the setter of each slot, in field order; they write past the frozen
# ``__setattr__``, and unpacking fails at import if a field is added
(
    _set_sender,
    _set_nonce,
    _set_payload,
    _set_signature,
    _set_encoded,
    _set_tx_id,
    _set_verified_scheme,
    _set_verified_key,
) = (Transaction.__dict__[f.name].__set__ for f in fields(Transaction))
_new_object = object.__new__


def _transaction(sender: bytes, nonce: int, payload: Payload, signature: bytes, encoded: bytes) -> Transaction:
    """The transaction ``Transaction(sender, nonce, payload, signature)``
    builds, with ``encoded`` kept as its encoding and its other memos empty.

    Every gateway builds one per copy it admits, so this sets the slots
    directly: about half what the frozen dataclass's ``__init__`` costs.
    """
    tx = _new_object(Transaction)
    _set_sender(tx, sender)
    _set_nonce(tx, nonce)
    _set_payload(tx, payload)
    _set_signature(tx, signature)
    _set_encoded(tx, encoded)
    _set_tx_id(tx, None)
    _set_verified_scheme(tx, None)
    _set_verified_key(tx, None)
    return tx


def mark_verified(tx: Transaction, scheme: str, public_key: bytes) -> None:
    """Keep a success that a check outside this process found for ``tx``'s
    signature under ``(scheme, public_key)``: the two slots
    :meth:`Transaction.signature_ok` writes after a success of its own
    (which sets them itself, saving a call on admission's hot path)."""
    _set_verified_scheme(tx, scheme)
    _set_verified_key(tx, public_key)


def tx_signing_bytes(sender: bytes, nonce: int, payload: Payload) -> bytes:
    return b"tx:" + encoding(_SIGNED.encode, (sender, nonce, payload))


_PAYLOAD = Field(encode_payload, None, read_payload)
# a transaction after its prefix: sender, nonce and payload, which are
# signed, then the signature
_SIGNED = tuple_of(BYTES, U64, _PAYLOAD)
_ENVELOPE = tuple_of(BYTES, U64, _PAYLOAD, BYTES)


def decode_transaction(data: bytes) -> Transaction:
    if data[:3] != b"tx:":
        raise CodecError("missing transaction prefix")
    try:
        sender, nonce, payload, signature = whole(_ENVELOPE.read, data, 3)
    except RecursionError:
        # proposals nest, so a hostile frame can nest deeper than the stack
        raise CodecError("payload nested too deeply") from None
    # every decoder is strict, so a frame that decodes is its own encoding
    return _transaction(sender, nonce, payload, signature, data)


def sign_transaction(signer: KeyPair, sender: bytes, nonce: int, payload: Payload) -> Transaction:
    """``payload`` from ``sender`` at ``nonce``, signed by ``signer``, its signing bytes written once."""
    signing = tx_signing_bytes(sender, nonce, payload)
    signature = signer.sign(signing)
    return _transaction(sender, nonce, payload, signature, _with_signature(signing, signature))


def _with_signature(signing: bytes, signature: bytes) -> bytes:
    """A transaction's encoding: its signing bytes, then its framed signature."""
    return signing + encoding(BYTES.encode, signature)


# --- auxiliary signed messages -------------------------------------------------

# each message after its prefix: two byte strings
_PAIR = tuple_of(BYTES, BYTES)


def rotation_message(target: bytes, new_key: bytes) -> bytes:
    """Message each rotation approver signs."""
    return b"rotate:" + encoding(_PAIR.encode, (target, new_key))


def possession_message(provider: bytes, key: bytes) -> bytes:
    """Message a prospective user signs to prove possession of their key."""
    return b"possess:" + encoding(_PAIR.encode, (provider, key))


def challenge_message(challenge: bytes, echo: bytes) -> bytes:
    """Message a requester signs to authenticate one gateway query."""
    return b"query:" + encoding(_PAIR.encode, (challenge, echo))
