"""Error taxonomy shared by the ledger, chain, gateway, and sim layers.

Transaction-level failures are reported as string codes inside receipts so
that a failed transaction can be recorded on-chain without aborting block
processing.  Structural problems (bad blocks, broken invariants, unusable
scenario files) are exceptions.
"""

from __future__ import annotations


class RolechainError(Exception):
    """Base class for every error raised by this package."""


class CodecError(RolechainError):
    """Byte stream does not parse as the canonical encoding."""


class InvalidKey(RolechainError):
    """Public key is malformed for the configured signature scheme."""


class TxError(RolechainError):
    """A transaction payload failed one of its preconditions."""

    def __init__(self, code: str, message: str = ""):
        super().__init__(message or code)
        self.code = code


class QueryError(RolechainError):
    """A gateway query was rejected (authorization or freshness)."""

    def __init__(self, code: str, message: str = ""):
        super().__init__(message or code)
        self.code = code


class InvalidBlock(RolechainError):
    """Block failed validation; carries the individual violations."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


class ScenarioError(RolechainError):
    """Scenario file failed to load or violated the schema."""


class InternalInvariantViolation(RolechainError):
    """A ledger invariant broke.  Always fatal."""


# Envelope-level codes
BAD_SIGNATURE = "BadSignature"
BAD_NONCE = "BadNonce"
UNKNOWN_SENDER = "UnknownSender"
NO_ROLE = "NoRole"
UNKNOWN_PAYLOAD = "UnknownPayload"

# Transfer / security action codes
RECIPIENT_NOT_AUTHORIZED = "RecipientNotAuthorized"
SENDER_FROZEN = "SenderFrozen"
INSUFFICIENT_FUNDS = "InsufficientFunds"
ZERO_AMOUNT = "ZeroAmount"
NOT_SECURITY_ROLE = "NotSecurityRole"
FEATURE_DISABLED = "FeatureDisabled"
VOTE_REQUIRED = "VoteRequired"
NOT_A_TRANSFER = "NotATransfer"
ALREADY_REVERSED = "AlreadyReversed"
INSUFFICIENT_RECIPIENT_FUNDS = "InsufficientRecipientFunds"

# Key rotation codes
INSUFFICIENT_APPROVALS = "InsufficientApprovals"
UNKNOWN_ACCOUNT = "UnknownAccount"
APPROVER_NOT_ELIGIBLE = "ApproverNotEligible"
INVALID_KEY = "InvalidKey"

# Governance codes
NOT_PLATFORM_MANAGER = "NotPlatformManager"
POLICY_IMMUTABLE = "PolicyImmutable"
NOT_AUTHORIZED_FOR_ROLE = "NotAuthorizedForRole"
VALIDATOR_ROLE_LOCKED = "ValidatorRoleLocked"
MISSING_POSSESSION_PROOF = "MissingPossessionProof"
INVALID_RECOVERY_POLICY = "InvalidRecoveryPolicy"
ROLE_ABSENT = "RoleAbsent"
BOOTSTRAP_OVER = "BootstrapOver"
EMPTY_VALIDATOR_SET = "EmptyValidatorSet"
NOT_ELIGIBLE_PROPOSER = "NotEligibleProposer"
ACTION_NOT_VOTEABLE = "ActionNotVoteable"
PROPOSAL_CLOSED = "ProposalClosed"
NOT_IN_ELECTORATE = "NotInElectorate"
ALREADY_VOTED = "AlreadyVoted"
UNKNOWN_PROPOSAL = "UnknownProposal"
ALREADY_FINAL = "AlreadyFinal"
PROPOSAL_NOT_DECIDABLE = "ProposalNotDecidable"

# Monetary codes
NOT_CURRENCY_MANAGER = "NotCurrencyManager"
NOT_AUTHORIZED_CONVERTER = "NotAuthorizedConverter"
USER_FROZEN = "UserFrozen"
OVERLAPPING_RULE = "OverlappingRule"
START_IN_PAST = "StartInPast"
INVALID_RULE = "InvalidRule"
ALREADY_ACCRUED = "AlreadyAccrued"
RULE_INACTIVE = "RuleInactive"
NOTHING_TO_CLAIM = "NothingToClaim"
FROZEN = "Frozen"
PERIOD_NOT_YET_ACCRUED = "PeriodNotYetAccrued"
SUPPLY_OVERFLOW = "SupplyOverflow"

# Chain / registry codes
WRONG_PUBLISHER = "WrongPublisher"
NO_ELIGIBLE_PUBLISHER = "NoEligiblePublisher"
NOT_VALIDATOR = "NotValidator"
MALFORMED_RECORD = "MalformedRecord"

# Gateway codes
MALFORMED = "Malformed"
THROTTLED = "Throttled"
BAD_CHALLENGE = "BadChallenge"
NOT_OWNER = "NotOwner"
INSUFFICIENT_RESPONSES = "InsufficientResponses"
INVALID_EVIDENCE = "InvalidEvidence"
