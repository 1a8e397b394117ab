"""Wire types: transaction envelope, action payloads, queries, and responses.

Every type here has a canonical byte encoding built from :mod:`rolechain.codec`
primitives.  Signing always happens over canonical bytes, and transaction /
block ids are SHA-256 digests of the full canonical serialization.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum

from .codec import Reader, Writer
from .errors import CodecError
from .keys import get_scheme

ZERO_ID = bytes(32)


class Role(Enum):
    PLATFORM_MANAGER = 1
    ACCOUNT_PROVIDER = 2
    SYSTEM_SECURITY = 3
    USER = 4
    CURRENCY_MANAGER = 5
    VALIDATOR = 6


ROLE_NAMES = {
    Role.PLATFORM_MANAGER: "platform_manager",
    Role.ACCOUNT_PROVIDER: "account_provider",
    Role.SYSTEM_SECURITY: "system_security",
    Role.USER: "user",
    Role.CURRENCY_MANAGER: "currency_manager",
    Role.VALIDATOR: "validator",
}
ROLE_BY_NAME = {v: k for k, v in ROLE_NAMES.items()}


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

@dataclass(frozen=True)
class ProviderOnly:
    TAG = 1


@dataclass(frozen=True)
class Guardians:
    TAG = 2
    guardians: frozenset[bytes]
    threshold: int


@dataclass(frozen=True)
class ProviderPlusSecurity:
    TAG = 3


RecoveryPolicy = ProviderOnly | Guardians | ProviderPlusSecurity


def encode_recovery(w: Writer, policy: RecoveryPolicy) -> None:
    w.u8(policy.TAG)
    if isinstance(policy, Guardians):
        w.count(len(policy.guardians))
        for g in sorted(policy.guardians):
            w.bytes_(g)
        w.u64(policy.threshold)


def decode_recovery(r: Reader) -> RecoveryPolicy:
    tag = r.u8()
    if tag == ProviderOnly.TAG:
        return ProviderOnly()
    if tag == Guardians.TAG:
        n = r.count()
        guardians = frozenset(r.bytes_() for _ in range(n))
        return Guardians(guardians, r.u64())
    if tag == ProviderPlusSecurity.TAG:
        return ProviderPlusSecurity()
    raise CodecError(f"unknown recovery tag {tag}")


# --- validator endpoint record ----------------------------------------------

@dataclass(frozen=True)
class ValidatorRecord:
    """On-chain registration of a validator's gateways and view key.

    ``validation_server`` is stored on-chain but served only to validator
    accounts; everything else is public.
    """

    account: bytes
    security_gateways: tuple[str, ...]
    visibility_gateways: tuple[str, ...]
    validation_server: str
    view_key: bytes
    contact: str

    def encode(self, w: Writer) -> None:
        w.bytes_(self.account)
        w.count(len(self.security_gateways))
        for a in self.security_gateways:
            w.text(a)
        w.count(len(self.visibility_gateways))
        for a in self.visibility_gateways:
            w.text(a)
        w.text(self.validation_server)
        w.bytes_(self.view_key)
        w.text(self.contact)

    @classmethod
    def decode(cls, r: Reader) -> ValidatorRecord:
        account = r.bytes_()
        sec = tuple(r.text() for _ in range(r.count()))
        vis = tuple(r.text() for _ in range(r.count()))
        return cls(account, sec, vis, r.text(), r.bytes_(), r.text())


# --- queries ------------------------------------------------------------------

@dataclass(frozen=True)
class OwnBalance:
    TAG = 1
    account: bytes


@dataclass(frozen=True)
class OwnHistory:
    TAG = 2
    account: bytes


@dataclass(frozen=True)
class ManagementLog:
    TAG = 3
    start_height: int
    end_height: int


@dataclass(frozen=True)
class SupplyView:
    TAG = 4


@dataclass(frozen=True)
class GatewayDirectory:
    TAG = 5


@dataclass(frozen=True)
class ValidationServerAddress:
    TAG = 6
    validator: bytes


@dataclass(frozen=True)
class Claimable:
    TAG = 7
    account: bytes


Query = (
    OwnBalance
    | OwnHistory
    | ManagementLog
    | SupplyView
    | GatewayDirectory
    | ValidationServerAddress
    | Claimable
)


def encode_query(query: Query) -> bytes:
    w = Writer()
    w.u8(query.TAG)
    if isinstance(query, (OwnBalance, OwnHistory, Claimable)):
        w.bytes_(query.account)
    elif isinstance(query, ManagementLog):
        w.u64(query.start_height)
        w.u64(query.end_height)
    elif isinstance(query, ValidationServerAddress):
        w.bytes_(query.validator)
    return w.getvalue()


def decode_query(data: bytes) -> Query:
    r = Reader(data)
    tag = r.u8()
    query: Query
    if tag == OwnBalance.TAG:
        query = OwnBalance(r.bytes_())
    elif tag == OwnHistory.TAG:
        query = OwnHistory(r.bytes_())
    elif tag == ManagementLog.TAG:
        query = ManagementLog(r.u64(), r.u64())
    elif tag == SupplyView.TAG:
        query = SupplyView()
    elif tag == GatewayDirectory.TAG:
        query = GatewayDirectory()
    elif tag == ValidationServerAddress.TAG:
        query = ValidationServerAddress(r.bytes_())
    elif tag == Claimable.TAG:
        query = Claimable(r.bytes_())
    else:
        raise CodecError(f"unknown query tag {tag}")
    r.require_end()
    return query


@dataclass(frozen=True)
class SignedQueryResponse:
    """A visibility-gateway answer, signed under the validator's view key."""

    validator: bytes
    echo: bytes
    result: bytes
    as_of_height: int
    signature: bytes

    def signing_bytes(self) -> bytes:
        w = Writer()
        w.raw(b"resp:")
        w.bytes_(self.validator)
        w.bytes_(self.echo)
        w.bytes_(self.result)
        w.u64(self.as_of_height)
        return w.getvalue()

    def encode(self, w: Writer) -> None:
        w.bytes_(self.validator)
        w.bytes_(self.echo)
        w.bytes_(self.result)
        w.u64(self.as_of_height)
        w.bytes_(self.signature)

    @classmethod
    def decode(cls, r: Reader) -> SignedQueryResponse:
        return cls(r.bytes_(), r.bytes_(), r.bytes_(), r.u64(), r.bytes_())


# --- action payloads ----------------------------------------------------------

@dataclass(frozen=True)
class Transfer:
    TAG = 0x01
    to: bytes
    amount: int


@dataclass(frozen=True)
class SetFrozen:
    TAG = 0x02
    target: bytes
    frozen: bool


@dataclass(frozen=True)
class Confiscate:
    TAG = 0x03
    source: bytes
    to: bytes
    amount: int


@dataclass(frozen=True)
class Reverse:
    TAG = 0x04
    target_tx: bytes


@dataclass(frozen=True)
class RotateKey:
    TAG = 0x05
    target: bytes
    new_key: bytes
    # (approver account id, signature over the rotation request)
    approvals: tuple[tuple[bytes, bytes], ...]


@dataclass(frozen=True)
class SetPolicy:
    TAG = 0x06
    key: str
    value: int | bytes
    permanence: Permanence
    expiry_height: int | None = None


@dataclass(frozen=True)
class AssignRole:
    TAG = 0x07
    target: bytes
    role: Role
    # required when the target account does not exist yet
    target_key: bytes | None = None
    # required when an account provider grants the user role
    possession_sig: bytes | None = None
    recovery: RecoveryPolicy | None = None


@dataclass(frozen=True)
class RevokeRole:
    TAG = 0x08
    target: bytes
    role: Role


@dataclass(frozen=True)
class BootstrapValidators:
    TAG = 0x09
    validators: frozenset[bytes]


@dataclass(frozen=True)
class CreateProposal:
    TAG = 0x0A
    action: "Payload"
    electorate: Role


@dataclass(frozen=True)
class CastVote:
    TAG = 0x0B
    proposal_id: int
    approve: bool


@dataclass(frozen=True)
class FinalizeProposal:
    TAG = 0x0C
    proposal_id: int


@dataclass(frozen=True)
class Mint:
    TAG = 0x0D
    to: bytes
    amount: int


@dataclass(frozen=True)
class Burn:
    TAG = 0x0E
    source: bytes
    amount: int


@dataclass(frozen=True)
class ConvertFiat:
    TAG = 0x0F
    user: bytes
    direction: FiatDirection
    amount: int


@dataclass(frozen=True)
class SetInterestRule:
    TAG = 0x10
    rate_num: int
    rate_den: int
    period_blocks: int
    start_height: int
    mode: InterestMode
    # None means every user-role account
    scope: frozenset[bytes] | None = None
    # updating an existing rule's active flag instead of creating one
    rule_id: int | None = None
    active: bool = True


@dataclass(frozen=True)
class ClaimAllowance:
    TAG = 0x11
    rule_id: int
    up_to_period: int


@dataclass(frozen=True)
class RegisterEndpoints:
    TAG = 0x12
    record: ValidatorRecord


@dataclass(frozen=True)
class DiscrepancyEvent:
    TAG = 0x13
    first: SignedQueryResponse
    second: SignedQueryResponse


Payload = (
    Transfer
    | SetFrozen
    | Confiscate
    | Reverse
    | RotateKey
    | SetPolicy
    | AssignRole
    | RevokeRole
    | BootstrapValidators
    | CreateProposal
    | CastVote
    | FinalizeProposal
    | Mint
    | Burn
    | ConvertFiat
    | SetInterestRule
    | ClaimAllowance
    | RegisterEndpoints
    | DiscrepancyEvent
)

PAYLOAD_KINDS = {
    Transfer: "transfer",
    SetFrozen: "set_frozen",
    Confiscate: "confiscate",
    Reverse: "reverse",
    RotateKey: "rotate_key",
    SetPolicy: "set_policy",
    AssignRole: "assign_role",
    RevokeRole: "revoke_role",
    BootstrapValidators: "bootstrap_validators",
    CreateProposal: "create_proposal",
    CastVote: "cast_vote",
    FinalizeProposal: "finalize_proposal",
    Mint: "mint",
    Burn: "burn",
    ConvertFiat: "convert_fiat",
    SetInterestRule: "set_interest_rule",
    ClaimAllowance: "claim_allowance",
    RegisterEndpoints: "register_endpoints",
    DiscrepancyEvent: "discrepancy_event",
}


def encode_payload(w: Writer, payload: Payload) -> None:
    w.u8(payload.TAG)
    if isinstance(payload, Transfer):
        w.bytes_(payload.to)
        w.u64(payload.amount)
    elif isinstance(payload, SetFrozen):
        w.bytes_(payload.target)
        w.boolean(payload.frozen)
    elif isinstance(payload, Confiscate):
        w.bytes_(payload.source)
        w.bytes_(payload.to)
        w.u64(payload.amount)
    elif isinstance(payload, Reverse):
        w.bytes_(payload.target_tx)
    elif isinstance(payload, RotateKey):
        w.bytes_(payload.target)
        w.bytes_(payload.new_key)
        w.count(len(payload.approvals))
        for approver, sig in payload.approvals:
            w.bytes_(approver)
            w.bytes_(sig)
    elif isinstance(payload, SetPolicy):
        w.text(payload.key)
        if isinstance(payload.value, int):
            w.u8(1)
            w.u64(payload.value)
        else:
            w.u8(2)
            w.bytes_(payload.value)
        w.u8(payload.permanence.value)
        if payload.permanence is Permanence.TIMED_EXPIRATION:
            if payload.expiry_height is None:
                raise CodecError("timed policy requires expiry_height")
            w.u64(payload.expiry_height)
    elif isinstance(payload, AssignRole):
        w.bytes_(payload.target)
        w.u8(payload.role.value)
        w.optional_bytes(payload.target_key)
        w.optional_bytes(payload.possession_sig)
        if payload.recovery is None:
            w.boolean(False)
        else:
            w.boolean(True)
            encode_recovery(w, payload.recovery)
    elif isinstance(payload, RevokeRole):
        w.bytes_(payload.target)
        w.u8(payload.role.value)
    elif isinstance(payload, BootstrapValidators):
        w.count(len(payload.validators))
        for v in sorted(payload.validators):
            w.bytes_(v)
    elif isinstance(payload, CreateProposal):
        inner = Writer()
        encode_payload(inner, payload.action)
        w.bytes_(inner.getvalue())
        w.u8(payload.electorate.value)
    elif isinstance(payload, CastVote):
        w.u64(payload.proposal_id)
        w.boolean(payload.approve)
    elif isinstance(payload, FinalizeProposal):
        w.u64(payload.proposal_id)
    elif isinstance(payload, Mint):
        w.bytes_(payload.to)
        w.u64(payload.amount)
    elif isinstance(payload, Burn):
        w.bytes_(payload.source)
        w.u64(payload.amount)
    elif isinstance(payload, ConvertFiat):
        w.bytes_(payload.user)
        w.u8(payload.direction.value)
        w.u64(payload.amount)
    elif isinstance(payload, SetInterestRule):
        w.u64(payload.rate_num)
        w.u64(payload.rate_den)
        w.u64(payload.period_blocks)
        w.u64(payload.start_height)
        w.u8(payload.mode.value)
        if payload.scope is None:
            w.boolean(False)
        else:
            w.boolean(True)
            w.count(len(payload.scope))
            for a in sorted(payload.scope):
                w.bytes_(a)
        if payload.rule_id is None:
            w.boolean(False)
        else:
            w.boolean(True)
            w.u64(payload.rule_id)
        w.boolean(payload.active)
    elif isinstance(payload, ClaimAllowance):
        w.u64(payload.rule_id)
        w.u64(payload.up_to_period)
    elif isinstance(payload, RegisterEndpoints):
        payload.record.encode(w)
    elif isinstance(payload, DiscrepancyEvent):
        payload.first.encode(w)
        payload.second.encode(w)
    else:
        raise CodecError(f"unknown payload type {type(payload).__name__}")


def decode_payload(r: Reader) -> Payload:
    tag = r.u8()
    if tag == Transfer.TAG:
        return Transfer(r.bytes_(), r.u64())
    if tag == SetFrozen.TAG:
        return SetFrozen(r.bytes_(), r.boolean())
    if tag == Confiscate.TAG:
        return Confiscate(r.bytes_(), r.bytes_(), r.u64())
    if tag == Reverse.TAG:
        return Reverse(r.bytes_())
    if tag == RotateKey.TAG:
        target, new_key = r.bytes_(), r.bytes_()
        approvals = tuple((r.bytes_(), r.bytes_()) for _ in range(r.count()))
        return RotateKey(target, new_key, approvals)
    if tag == SetPolicy.TAG:
        key = r.text()
        value: int | bytes
        value_tag = r.u8()
        if value_tag == 1:
            value = r.u64()
        elif value_tag == 2:
            value = r.bytes_()
        else:
            raise CodecError(f"unknown policy value tag {value_tag}")
        permanence = r.enum(Permanence)
        expiry = r.u64() if permanence is Permanence.TIMED_EXPIRATION else None
        return SetPolicy(key, value, permanence, expiry)
    if tag == AssignRole.TAG:
        target = r.bytes_()
        role = r.enum(Role)
        target_key = r.optional_bytes()
        possession = r.optional_bytes()
        recovery = decode_recovery(r) if r.boolean() else None
        return AssignRole(target, role, target_key, possession, recovery)
    if tag == RevokeRole.TAG:
        return RevokeRole(r.bytes_(), r.enum(Role))
    if tag == BootstrapValidators.TAG:
        return BootstrapValidators(frozenset(r.bytes_() for _ in range(r.count())))
    if tag == CreateProposal.TAG:
        inner = Reader(r.bytes_())
        action = decode_payload(inner)
        inner.require_end()
        return CreateProposal(action, r.enum(Role))
    if tag == CastVote.TAG:
        return CastVote(r.u64(), r.boolean())
    if tag == FinalizeProposal.TAG:
        return FinalizeProposal(r.u64())
    if tag == Mint.TAG:
        return Mint(r.bytes_(), r.u64())
    if tag == Burn.TAG:
        return Burn(r.bytes_(), r.u64())
    if tag == ConvertFiat.TAG:
        return ConvertFiat(r.bytes_(), r.enum(FiatDirection), r.u64())
    if tag == SetInterestRule.TAG:
        num, den, period, start = r.u64(), r.u64(), r.u64(), r.u64()
        mode = r.enum(InterestMode)
        scope = frozenset(r.bytes_() for _ in range(r.count())) if r.boolean() else None
        rule_id = r.u64() if r.boolean() else None
        return SetInterestRule(num, den, period, start, mode, scope, rule_id, r.boolean())
    if tag == ClaimAllowance.TAG:
        return ClaimAllowance(r.u64(), r.u64())
    if tag == RegisterEndpoints.TAG:
        return RegisterEndpoints(ValidatorRecord.decode(r))
    if tag == DiscrepancyEvent.TAG:
        return DiscrepancyEvent(SignedQueryResponse.decode(r), SignedQueryResponse.decode(r))
    raise CodecError(f"unknown payload tag {tag}")


# --- transaction envelope -----------------------------------------------------

@dataclass(frozen=True, slots=True)
class Transaction:
    """Signed envelope around one payload.

    The object and its payload are immutable, so its encoding and id are
    computed on first use and then kept, and so is the last ``(scheme,
    public key)`` its signature verified under.
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
        object.__setattr__(self, "_verified_scheme", scheme)
        object.__setattr__(self, "_verified_key", public_key)
        return True

    def encode(self) -> bytes:
        if self._encoded is None:
            w = Writer()
            w.raw(tx_signing_bytes(self.sender, self.nonce, self.payload))
            w.bytes_(self.signature)
            object.__setattr__(self, "_encoded", w.getvalue())
        return self._encoded

    @property
    def tx_id(self) -> bytes:
        if self._tx_id is None:
            object.__setattr__(self, "_tx_id", hashlib.sha256(self.encode()).digest())
        return self._tx_id


def tx_signing_bytes(sender: bytes, nonce: int, payload: Payload) -> bytes:
    w = Writer()
    w.raw(b"tx:")
    w.bytes_(sender)
    w.u64(nonce)
    encode_payload(w, payload)
    return w.getvalue()


def decode_transaction(data: bytes) -> Transaction:
    r = Reader(data)
    prefix = r.fixed(3)
    if prefix != b"tx:":
        raise CodecError("missing transaction prefix")
    sender = r.bytes_()
    nonce = r.u64()
    try:
        payload = decode_payload(r)
        signature = r.bytes_()
        r.require_end()
        tx = Transaction(sender, nonce, payload, signature)
        # the signature check needs the encoding, which recurses a few
        # frames deeper than decoding did, so compute it under this guard
        tx.encode()
    except RecursionError:
        # proposals nest, so a hostile frame can nest deeper than the stack
        raise CodecError("payload nested too deeply") from None
    return tx


# --- auxiliary signed messages -------------------------------------------------

def rotation_message(target: bytes, new_key: bytes) -> bytes:
    """Message each rotation approver signs."""
    w = Writer()
    w.raw(b"rotate:")
    w.bytes_(target)
    w.bytes_(new_key)
    return w.getvalue()


def possession_message(provider: bytes, key: bytes) -> bytes:
    """Message a prospective user signs to prove possession of their key."""
    w = Writer()
    w.raw(b"possess:")
    w.bytes_(provider)
    w.bytes_(key)
    return w.getvalue()


def challenge_message(challenge: bytes, echo: bytes) -> bytes:
    """Message a requester signs to authenticate one gateway query."""
    w = Writer()
    w.raw(b"query:")
    w.bytes_(challenge)
    w.bytes_(echo)
    return w.getvalue()
