"""Account/balance state machine and its on-ledger containers.

All mutation is funneled through a single logical writer (the block apply
path in :mod:`rolechain.engine`).  Reads, including gateway answers, act on
the live state between blocks.  Handlers validate every precondition before
touching state, so a raised :class:`TxError` always leaves the state
untouched.  Every handler takes ``(state, sender, payload, tx_id,
authority)``, the signature ``engine.HANDLERS`` declares.

The state keeps its own role-holder lists (see :meth:`LedgerState.holders`),
so an account's roles change only through ``LedgerState.set_roles``, and
accounts enter ``LedgerState.accounts`` through ``add_account`` alone and
are never replaced or removed.  An account's roles are a ``frozenset``,
one shared by every account holding the same roles.

The transaction log is append-only and written by :meth:`LedgerState.log`
alone, which also keeps the indexes that answer history and
management-log reads.

Balances are non-negative integers in minor currency units; there is no
fractional arithmetic anywhere in the ledger.  Five methods of
:class:`LedgerState` are the only writers of balances, unclaimed
allowances and supply: ``move``, ``issue``, ``retire``, ``promise`` and
``claim``; besides them only ``_settle`` writes allowances, which a write
of an account's balance, freeze or roles runs first when the account has
periods pending.  The u64 bound on minted supply is ``check_supply`` alone.

A pull interest period costs O(rules) at its boundary.  The state keeps
each active pull rule's next period total (a :class:`PullSum`, the sum
of every eligible account's share), which every write of a balance, a
freeze, roles or a new account keeps current; ``promise`` mints that total
into a pending pool.  An account's periods since it last settled all saw
one balance, freeze and role set, since a write of any of them settles
first: the first write that touches an account a rule with periods pending
covers records those periods in its allowances and takes their amounts out
of the pool.  Any other account settles nothing until a role write grants
or revokes the user role.

Conservation (the balances plus the unclaimed allowances plus the pending
pool equal the circulating supply) is checked after every block from that
block's own writes: each writer journals the balance and settled
allowances of every account it is about to write, and
:meth:`LedgerState.conserved_since_check` compares the journaled holdings'
change with the change in circulating supply less the pool.  The first
check of a state, and the end of a run and of a replay, recompute every
account's pending periods and every rule's next total instead
(:meth:`LedgerState.conservation_holds`).
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left, bisect_right, insort
from heapq import heappop, heappush
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter

from . import errors as err
from .codec import (
    BOOL,
    BYTES,
    TEXT,
    U32,
    U64,
    U64_MAX,
    encoding,
    enum,
    none_as,
    optional,
    seq_of,
    set_of,
    sorted_map,
    tagged_value,
    text_enum,
    tuple_of,
    values_by_key,
    wire,
    wire_record,
)
from .errors import CodecError, InvalidKey, TxError
from .keys import derive_account_id, get_scheme
from .payloads import (
    POLICY_VALUE,
    RECOVERY,
    ZERO_ID,
    Confiscate,
    Guardians,
    InterestMode,
    Permanence,
    ProviderOnly,
    ProviderPlusSecurity,
    RecoveryPolicy,
    RegisterEndpoints,
    Reverse,
    Role,
    RotateKey,
    SetFrozen,
    Transfer,
    ValidatorRecord,
    rotation_message,
)


class Authority(Enum):
    # normal sender-authorized execution
    USER = 1
    # execution of an action approved by a passed proposal
    SYSTEM = 2


@wire_record(frozen=False)
class Account:
    account_id: bytes = wire(BYTES)
    public_key: bytes = wire(BYTES)
    roles: frozenset[Role] = wire(set_of(enum(Role)), default_factory=frozenset)
    balance: int = wire(U64, default=0)
    frozen: bool = wire(BOOL, default=False)
    nonce: int = wire(U64, default=0)
    provider: bytes | None = wire(optional(BYTES), default=None)
    recovery: RecoveryPolicy = wire(RECOVERY, default_factory=ProviderOnly)


# one frozenset per distinct role set (at most 2 ** len(Role)), shared by
# every account of every state that holds exactly those roles
_role_sets: dict[frozenset[Role], frozenset[Role]] = {}


def _set_roles(acct: Account, roles) -> None:
    roles = frozenset(roles)
    acct._roles = _role_sets.setdefault(roles, roles)


# an assignment of roles stores the shared frozenset; once the account is in
# a state, only ``LedgerState.set_roles`` assigns them, keeping its holder lists
Account.roles = property(attrgetter("_roles"), _set_roles)


@wire_record(frozen=False)
class Policy:
    key: str = wire(TEXT)
    value: int | bytes = wire(POLICY_VALUE)
    permanence: Permanence = wire(enum(Permanence))
    expiry_height: int | None = wire(none_as(U64, 0))
    set_by: bytes = wire(BYTES, default=ZERO_ID)
    set_at: int = wire(U64, default=0)


def new_policy(
    key: str,
    value: int | bytes,
    permanence: Permanence,
    expiry_height: int | None = None,
    set_by: bytes = ZERO_ID,
    set_at: int = 0,
) -> Policy:
    """A policy as genesis or ``set_policy`` installs it: only a timed one keeps its expiry height."""
    timed = permanence is Permanence.TIMED_EXPIRATION
    return Policy(key, value, permanence, expiry_height if timed else None, set_by, set_at)


# every policy genesis installs, key -> (value, permanence); a read of a
# policy that is unset or of the other type answers the value here
POLICY_DEFAULTS: dict[str, tuple[int | bytes, Permanence]] = {
    "bootstrap.window_blocks": (10, Permanence.PERMANENT),
    "vote.window_blocks": (10, Permanence.TEMPORARY),
    "vote.threshold_percent": (51, Permanence.TEMPORARY),
    "security.freeze.enabled": (1, Permanence.TEMPORARY),
    "security.freeze.requires_vote": (0, Permanence.TEMPORARY),
    "security.confiscate.enabled": (1, Permanence.TEMPORARY),
    "security.confiscate.requires_vote": (0, Permanence.TEMPORARY),
    "security.reverse.enabled": (1, Permanence.TEMPORARY),
    "security.reverse.requires_vote": (0, Permanence.TEMPORARY),
    "mint.requires_vote": (1, Permanence.TEMPORARY),
    "interest.requires_vote": (1, Permanence.TEMPORARY),
    "consensus.diversity": (50, Permanence.TEMPORARY),
    "consensus.max_txs_per_block": (1000, Permanence.TEMPORARY),
    "rate.capacity": (10, Permanence.TEMPORARY),
    "rate.refill": (1, Permanence.TEMPORARY),
    "rate.whitelist": (b"", Permanence.TEMPORARY),
    "gateway.delay_blocks": (3, Permanence.TEMPORARY),
}


def is_mutable(policy: Policy, height: int) -> bool:
    """Whether the stored policy may be overwritten at ``height``.

    Timed policies act as permanent strictly before their expiry height and
    as temporary from the expiry height on (boundary inclusive-mutable).
    """
    if policy.permanence is Permanence.PERMANENT:
        return False
    if policy.permanence is Permanence.TEMPORARY:
        return True
    return height >= (policy.expiry_height or 0)


class ProposalStatus(Enum):
    OPEN = "open"
    PASSED = "passed"
    FAILED = "failed"
    EXPIRED = "expired"


@wire_record(frozen=False)
class Proposal:
    proposal_id: int = wire(U64)
    action: object  # a Payload executed with system authority on passage
    electorate: Role = wire(enum(Role))
    proposer: bytes = wire(BYTES)
    created_at: int = wire(U64)
    expires_at: int = wire(U64)
    status: ProposalStatus = wire(text_enum(ProposalStatus), default=ProposalStatus.OPEN)
    execution_error: str | None = wire(none_as(TEXT, ""), default=None)
    yes: set[bytes] = wire(set_of(BYTES), default_factory=set)
    no: set[bytes] = wire(set_of(BYTES), default_factory=set)


# an enum member read from its class costs a lookup through the enum's
# metaclass, too slow for the user-role tests on every transfer and share
_USER = Role.USER


@wire_record(frozen=False)
class InterestRule:
    rule_id: int = wire(U64)
    rate_num: int = wire(U64)
    rate_den: int = wire(U64)
    period_blocks: int = wire(U64)
    start_height: int = wire(U64)
    mode: InterestMode = wire(enum(InterestMode))
    scope: frozenset[bytes] | None = wire(optional(set_of(BYTES)))  # None = every user-role account
    active: bool = wire(BOOL, default=True)
    last_accrued_period: int = wire(U64, default=0)
    created_total: int = wire(U64, default=0)

    def member(self, acct: Account) -> bool:
        """Whether the rule's periods are the account's: it holds the user role and is in scope."""
        return _USER in acct.roles and (self.scope is None or acct.account_id in self.scope)

    def share(self, acct: Account) -> int:
        """The account's amount of one period: floor of the rate times its balance, 0 while frozen."""
        # member() inlined: every write of an account asks each pull rule
        if acct.frozen or _USER not in acct.roles or (self.scope is not None and acct.account_id not in self.scope):
            return 0
        return self.rate_num * acct.balance // self.rate_den


class PullSum:
    """An active pull rule and its next period's total: the sum of its share
    of every account, which the state's writers keep current."""

    __slots__ = ("rule", "next_total")

    def __init__(self, rule: InterestRule, next_total: int):
        self.rule, self.next_total = rule, next_total


@wire_record(frozen=False)
class AllowanceLedger:
    """Per-account, per-rule record of settled, unclaimed periods."""

    last_claimed_period: int = wire(U64, default=0)
    # (period, amount) after the last claimed, ascending; a period of 0 is not kept
    accrued: list[tuple[int, int]] = wire(seq_of(tuple_of(U64, U64)), default_factory=list)


@wire_record(frozen=False)
class Allowances:
    """An account's pull allowances: how many of the state's pull accruals it
    has settled, and per rule its settled, unclaimed periods."""

    settled: int = wire(U64, default=0)
    ledgers: dict[int, AllowanceLedger] = wire(sorted_map(U64, AllowanceLedger.FIELDS), default_factory=dict)

    def unclaimed(self) -> int:
        # a plain loop: a ledger holds a few periods, and the conservation
        # check sums the ledgers of every account that a block writes, where
        # a generator would cost more than the sum
        total = 0
        for ledger in self.ledgers.values():
            for _, amount in ledger.accrued:
                total += amount
        return total


@dataclass
class SupplyCounters:
    minted: int = 0
    burned: int = 0

    @property
    def circulating(self) -> int:
        return self.minted - self.burned


# a log entry's data: a value of one of these types under each key
LOG_VALUE = tagged_value(int, bytes, bool, str)
LOG_DATA = sorted_map(TEXT, LOG_VALUE)


@wire_record(frozen=False)
class LogEntry:
    """One applied (or on-chain failed) transaction, summarized.

    ``management`` entries form the public log; other entries are visible
    only to their participants.  Once logged, only ``reversed_by`` ever
    changes; ``public_bytes`` is the read encoding of the fields a gateway
    reveals (``gateway.PublicEntry``), kept on the first read.
    """

    tx_id: bytes = wire(BYTES)
    height: int = wire(U64)
    kind: str = wire(TEXT)
    sender: bytes | None = wire(optional(BYTES))
    ok: bool = wire(BOOL)
    error: str | None = wire(none_as(TEXT, ""))
    management: bool = wire(BOOL)
    participants: tuple[bytes, ...] = wire(seq_of(BYTES))
    data: dict = wire(LOG_DATA)
    reversed_by: bytes | None = wire(optional(BYTES), default=None)
    public_bytes: bytes | None = field(default=None, init=False, repr=False, compare=False)


_height = attrgetter("height")


@dataclass
class Applied:
    """Handler result: who was involved and what to record."""

    participants: tuple[bytes, ...]
    data: dict


@dataclass
class LedgerState:
    scheme: str = "mock"
    accounts: dict[bytes, Account] = field(default_factory=dict)
    policies: dict[str, Policy] = field(default_factory=dict)
    proposals: dict[int, Proposal] = field(default_factory=dict)
    next_proposal_id: int = 1
    interest_rules: dict[int, InterestRule] = field(default_factory=dict)
    next_rule_id: int = 1
    allowances: dict[bytes, Allowances] = field(default_factory=dict)
    supply: SupplyCounters = field(default_factory=SupplyCounters)
    tx_log: list[LogEntry] = field(default_factory=list)
    tx_index: dict[bytes, int] = field(default_factory=dict)
    height: int = 0
    validator_registry: dict[bytes, ValidatorRecord] = field(default_factory=dict)
    # role -> its holders' ids, ascending, once holders() has read the role
    _holders: dict[Role, list[bytes]] = field(default_factory=dict, init=False, repr=False, compare=False)
    # log indexes kept by log(), both in log order: each participant's
    # entries, and the successful management entries (heights never decrease)
    _history: dict[bytes, list[LogEntry]] = field(default_factory=dict, init=False, repr=False, compare=False)
    _management: list[LogEntry] = field(default_factory=list, init=False, repr=False, compare=False)
    # conservation journal kept by the writers: each written account's
    # balance plus settled allowances before its first write since the last
    # check, and circulating supply less the pool at that check (None before the first)
    _held_before: dict[bytes, int] = field(default_factory=dict, init=False, repr=False, compare=False)
    _checked_held: int | None = field(default=None, init=False, repr=False, compare=False)
    # pull interest, derived from the log and the rules: every successful pull
    # accrual as (rule, period) in log order, the pool those accruals minted
    # and no account has settled yet, and the next total of each active pull
    # rule by rule id
    _accruals: list[tuple[InterestRule, int]] = field(default_factory=list, init=False, repr=False, compare=False)
    # rule id -> how many of those accruals there were up to the rule's latest
    _accrued_upto: dict[int, int] = field(default_factory=dict, init=False, repr=False, compare=False)
    _pool: int = field(default=0, init=False, repr=False, compare=False)
    _pull: dict[int, PullSum] = field(default_factory=dict, init=False, repr=False, compare=False)
    # (expires_at, proposal id) of every proposal not yet past its window, a heap
    _expiring: list[tuple[int, int]] = field(default_factory=list, init=False, repr=False, compare=False)

    # -- access helpers --------------------------------------------------

    def account(self, account_id: bytes) -> Account:
        acct = self.accounts.get(account_id)
        if acct is None:
            raise TxError(err.UNKNOWN_ACCOUNT)
        return acct

    def holders(self, role: Role) -> list[bytes]:
        """Ids of the accounts holding ``role``, ascending, as a new list.

        The first read of a role scans every account; after that
        ``add_account`` and ``set_roles`` keep the state's list current.
        """
        held = self._holders.get(role)
        if held is None:
            held = self._holders[role] = sorted(a.account_id for a in self.accounts.values() if role in a.roles)
        return list(held)

    def validators(self) -> list[bytes]:
        """Validator account ids in canonical (ascending) rotation order."""
        return self.holders(Role.VALIDATOR)

    def policy_int(self, key: str, default: int | None = None) -> int:
        """The policy's int value; if it is unset or bytes, ``default``, else
        its ``POLICY_DEFAULTS`` value (0 for a key the table lacks)."""
        policy = self.policies.get(key)
        if policy is not None and isinstance(policy.value, int):
            return policy.value
        return POLICY_DEFAULTS.get(key, (0,))[0] if default is None else default

    def policy_bytes(self, key: str, default: bytes | None = None) -> bytes:
        """As :meth:`policy_int`, for a bytes value (``b""`` for a key the table lacks)."""
        policy = self.policies.get(key)
        if policy is not None and isinstance(policy.value, bytes):
            return policy.value
        return POLICY_DEFAULTS.get(key, (b"",))[0] if default is None else default

    def log(self, entry: LogEntry) -> None:
        """Append one entry to the log and to its indexes."""
        self.tx_index[entry.tx_id] = len(self.tx_log)
        self.tx_log.append(entry)
        for account in entry.participants:
            entries = self._history.get(account)
            if entries is None:
                self._history[account] = [entry]
            elif entries[-1] is not entry:  # an account listed twice
                entries.append(entry)
        if entry.management and entry.ok:
            self._management.append(entry)

    def management_log(self, start: int = 0, end: int | None = None) -> list[LogEntry]:
        """Successful management entries within [start, end] heights."""
        last = self.height if end is None else end
        entries = self._management
        return entries[bisect_left(entries, start, key=_height) : bisect_right(entries, last, key=_height)]

    def add_account(self, acct: Account) -> None:
        """Add a new account: the pull periods accrued so far are not its."""
        self.accounts[acct.account_id] = acct
        self._keep_holders(acct.account_id, frozenset(), acct.roles)
        if self._accruals:
            self.allowances[acct.account_id] = Allowances(len(self._accruals))
        self._after_write(acct)

    def set_roles(self, acct: Account, roles) -> None:
        self._before_write(acct)
        if self._accruals and (_USER in roles) != (_USER in acct.roles):
            # the periods so far were the account's, or not, by its old roles
            self._settle(acct, self.allowances.get(acct.account_id))
        self._keep_holders(acct.account_id, acct.roles, roles)
        acct.roles = roles
        self._after_write(acct)

    def _keep_holders(self, account_id: bytes, old, new) -> None:
        """Put the id into each kept holder list of a role gained, take it out of each of a role lost."""
        for role, held in self._holders.items():
            if role in new and role not in old:
                insort(held, account_id)
            elif role in old and role not in new:
                del held[bisect_left(held, account_id)]

    def set_frozen(self, acct: Account, frozen: bool) -> None:
        self._before_write(acct)
        acct.frozen = frozen
        self._after_write(acct)

    def add_rule(self, rule: InterestRule) -> None:
        self.interest_rules[rule.rule_id] = rule
        self._track(rule)

    def set_rule_active(self, rule: InterestRule, active: bool) -> None:
        rule.active = active
        self._track(rule)

    def _track(self, rule: InterestRule) -> None:
        """Keep the next total of an active pull rule, from a full sum when it
        starts or restarts; stop keeping that of any other rule."""
        if rule.active and rule.mode is InterestMode.PULL:
            if rule.rule_id not in self._pull:
                self._pull[rule.rule_id] = PullSum(rule, self.rule_total(rule))
        else:
            self._pull.pop(rule.rule_id, None)

    def rule_total(self, rule: InterestRule) -> int:
        """The rule's share of every account summed afresh: what its next period creates."""
        return sum(map(rule.share, self._in_scope(rule)))

    def _in_scope(self, rule: InterestRule) -> list[Account]:
        """The accounts a rule's scope names, or every account: all that can share in it."""
        if rule.scope is None:
            return list(self.accounts.values())
        return [acct for acct in map(self.accounts.get, rule.scope) if acct is not None]

    def add_proposal(self, prop: Proposal) -> None:
        self.proposals[prop.proposal_id] = prop
        heappush(self._expiring, (prop.expires_at, prop.proposal_id))

    def closed_windows(self) -> list[int]:
        """Take from the expiry index the ids of the proposals whose voting
        window closed before this height, whatever their status."""
        expiring, closed = self._expiring, []
        while expiring and expiring[0][0] < self.height:
            closed.append(heappop(expiring)[1])
        return closed

    # -- money: the only writers of balances, allowances and supply -------
    # each keeps sum(balances) + unclaimed + pool == minted - burned, checks
    # first, and writes an account only between _before_write and _after_write

    def check_supply(self, amount: int) -> None:
        """Raise SupplyOverflow if minting ``amount`` would take minted supply past the u64 range."""
        # every balance and allowance is at most minted - burned, so bounding
        # minted to the range that the state digest encodes bounds them too
        if self.supply.minted + amount > U64_MAX:
            raise TxError(err.SUPPLY_OVERFLOW)

    def move(self, source: Account, to: Account, amount: int) -> None:
        """Move ``amount`` from one account to another."""
        if source.balance < amount:
            raise TxError(err.INSUFFICIENT_FUNDS)
        self._before_write(source)
        self._before_write(to)
        source.balance -= amount
        to.balance += amount
        self._after_write(source)
        self._after_write(to)

    def issue(self, to: Account, amount: int) -> None:
        """Credit ``amount`` to the account, minted."""
        self.check_supply(amount)
        self._before_write(to)
        to.balance += amount
        self.supply.minted += amount
        self._after_write(to)

    def retire(self, source: Account, amount: int) -> None:
        """Debit ``amount`` from the account, burned."""
        if source.balance < amount:
            raise TxError(err.INSUFFICIENT_FUNDS)
        self._before_write(source)
        source.balance -= amount
        self.supply.burned += amount
        self._after_write(source)

    def promise(self, rule: InterestRule, period: int) -> int:
        """Mint one period of a pull rule, its next total, into the pending
        pool, from which each account settles its share; the amount."""
        amount = self._pull[rule.rule_id].next_total
        self.check_supply(amount)
        self._accruals.append((rule, period))
        self._accrued_upto[rule.rule_id] = len(self._accruals)
        self._pool += amount
        self.supply.minted += amount
        return amount

    def claim(self, to: Account, rule_id: int, up_to_period: int) -> int:
        """Credit the account with its periods of a rule that it holds a
        ledger of, after the last claimed up to ``up_to_period``; the amount.
        Claimed periods leave the ledger."""
        self._before_write(to)
        ledger = self.allowances[to.account_id].ledgers[rule_id]
        amount = sum(a for p, a in ledger.accrued if p <= up_to_period)
        ledger.accrued = [(p, a) for p, a in ledger.accrued if p > up_to_period]
        ledger.last_claimed_period = up_to_period
        to.balance += amount
        self._after_write(to)
        return amount

    def pending(self, acct: Account) -> list[tuple[InterestRule, int, int]]:
        """The account's pull periods since it last settled, as (rule, period,
        amount), without writing: every one saw its current balance, freeze
        and roles, and the rules' rates and scopes never change."""
        entry = self.allowances.get(acct.account_id)
        settled = 0 if entry is None else entry.settled
        if settled == len(self._accruals):
            return []
        return [(rule, period, rule.share(acct)) for rule, period in self._accruals[settled:] if rule.member(acct)]

    def _before_write(self, acct: Account) -> None:
        """Journal the account, settle its pending periods and take its
        shares out of the next totals, before a write of its balance, freeze or roles."""
        account_id = acct.account_id
        if account_id not in self._held_before:
            self._held_before[account_id] = self._held(account_id)
        if self._accruals:
            # only a rule's periods settle: an account outside every rule
            # with periods pending keeps its count until a role write
            entry = self.allowances.get(account_id)
            settled = 0 if entry is None else entry.settled
            if settled < len(self._accruals):
                for rule_id, upto in self._accrued_upto.items():
                    if upto > settled and self.interest_rules[rule_id].member(acct):
                        self._settle(acct, entry)
                        break
        for kept in self._pull.values():
            kept.next_total -= kept.rule.share(acct)

    def _settle(self, acct: Account, entry: Allowances | None) -> None:
        """Record the account's pending periods in its ledgers, from the pool."""
        if entry is None:
            entry = self.allowances[acct.account_id] = Allowances()
        for rule, period, amount in self.pending(acct):
            ledger = entry.ledgers.get(rule.rule_id)
            if ledger is None:
                ledger = entry.ledgers[rule.rule_id] = AllowanceLedger()
            if amount:
                ledger.accrued.append((period, amount))
                self._pool -= amount
        entry.settled = len(self._accruals)

    def _after_write(self, acct: Account) -> None:
        """Put the account's shares back into the next totals after a write."""
        for kept in self._pull.values():
            kept.next_total += kept.rule.share(acct)

    # -- conservation ------------------------------------------------------

    def total_balances(self) -> int:
        return sum(a.balance for a in self.accounts.values())

    def unclaimed(self, account_id: bytes) -> int:
        """The account's unclaimed allowances over every rule, its pending
        periods included: what a ``claimable`` read answers."""
        entry = self.allowances.get(account_id)
        acct = self.accounts.get(account_id)
        total = 0 if entry is None else entry.unclaimed()
        if acct is not None:
            total += sum(amount for _, _, amount in self.pending(acct))
        return total

    def total_unclaimed(self) -> int:
        return sum(map(self.unclaimed, self.accounts))

    def conservation_holds(self) -> bool:
        """The full sum: every balance and unclaimed allowance, each account's
        pending periods recomputed, equals circulating supply; the pool is
        the pending periods' sum; and each next total is its rule's full sum."""
        # each accrual's share of every account in scope that has not settled past it
        pending = 0
        for index, (rule, _) in enumerate(self._accruals):
            for acct in self._in_scope(rule):
                entry = self.allowances.get(acct.account_id)
                if entry is None or entry.settled <= index:
                    pending += rule.share(acct)
        settled = sum(entry.unclaimed() for entry in self.allowances.values())
        pull = [r for r in self.interest_rules.values() if r.active and r.mode is InterestMode.PULL]
        return (
            self.total_balances() + settled + pending == self.supply.circulating
            and pending == self._pool
            and {rule_id: kept.next_total for rule_id, kept in self._pull.items()}
            == {rule.rule_id: self.rule_total(rule) for rule in pull}
        )

    def _held(self, account_id: bytes) -> int:
        """The account's balance plus its settled, unclaimed allowances."""
        acct = self.accounts.get(account_id)
        entry = self.allowances.get(account_id)
        return (0 if acct is None else acct.balance) + (0 if entry is None else entry.unclaimed())

    def conserved_since_check(self) -> bool:
        """Whether conservation holds, judged from the accounts written since the last check.

        The journaled holdings must have changed by as much as circulating
        supply less the pending pool did.  A state's first check runs the
        full sum instead.  A passing check empties the journal and moves the
        baseline to now; a failing one keeps both, so every later check
        fails too.
        """
        held = self.supply.circulating - self._pool
        if self._checked_held is None:
            ok = self.conservation_holds()
        else:
            journal = self._held_before
            ok = sum(map(self._held, journal)) - sum(journal.values()) == held - self._checked_held
        if ok:
            self._held_before.clear()
            self._checked_held = held
        return ok

    # -- digest ----------------------------------------------------------------

    def encode(self) -> bytes:
        """The canonical encoding of the entire state, each record written by the encoder its fields declare."""
        head = (self.scheme, self.height, self.supply.minted, self.supply.burned)
        tables = (self.accounts, self.policies, self.proposals, self.interest_rules, self.allowances, self.validator_registry)
        return encoding(_STATE.encode, (*head, *tables, self.tx_log))

    def digest(self) -> bytes:
        """SHA-256 over :meth:`encode`."""
        return hashlib.sha256(self.encode()).digest()


# each table's records in key order; each record holds its own key
_ACCOUNTS = values_by_key(Account.FIELDS, "account_id")
_POLICIES = values_by_key(Policy.FIELDS, "key")
_REGISTRY = values_by_key(ValidatorRecord.FIELDS, "account")
_PROPOSALS = values_by_key(Proposal.FIELDS, "proposal_id")
_INTEREST_RULES = values_by_key(InterestRule.FIELDS, "rule_id")
# account id -> its allowances (rule id -> ledger inside), keys written
_ALLOWANCES = sorted_map(BYTES, Allowances.FIELDS)
_TABLES = (_ACCOUNTS, _POLICIES, _PROPOSALS, _INTEREST_RULES, _ALLOWANCES, _REGISTRY)
_STATE = tuple_of(TEXT, U64, U64, U64, *_TABLES, seq_of(LogEntry.FIELDS))
# a height-0 state, whose proposals, interest rules, allowances and log are empty (a zero count)
_GENESIS = tuple_of(TEXT, U64, U64, U64, _ACCOUNTS, _POLICIES, U32, U32, U32, _REGISTRY, U32)


def read_genesis(data: bytes, pos: int = 0) -> tuple[LedgerState, int]:
    """The height-0 state encoded (see :meth:`LedgerState.encode`) at ``pos``
    of ``data``, and the position after it.

    A state no genesis holds is a CodecError too: an unknown scheme; a
    height, burned supply, proposal, interest rule, allowance or log entry;
    minted supply not the balances' sum; a nonce or a policy's setter off
    its default; or an expiry height exactly when a policy is not timed.
    """
    (scheme, height, minted, burned, accounts, policies, *empty, registry, log), pos = _GENESIS.read(data, pos)
    state = LedgerState(scheme, accounts, policies, supply=SupplyCounters(minted), validator_registry=registry)
    try:
        get_scheme(scheme)
    except InvalidKey as exc:
        raise CodecError(str(exc)) from None
    if height or burned or any(empty) or log:
        raise CodecError("a genesis state has no height, burned supply, proposals, interest rules, allowances or log")
    if minted != state.total_balances():
        raise CodecError(f"minted supply {minted} is not the sum of the balances")
    if any(acct.nonce for acct in accounts.values()):
        raise CodecError("a genesis account's nonce is not 0")
    for policy in policies.values():
        if policy.set_by != ZERO_ID or policy.set_at:
            raise CodecError(f"genesis policy {policy.key!r} was set by a transaction")
        if (policy.expiry_height is None) == (policy.permanence is Permanence.TIMED_EXPIRATION):
            raise CodecError(f"policy {policy.key!r}: expiry_height is set exactly when it is timed_expiration")
    return state, pos


# --- security feature gate -----------------------------------------------------

def security_gate(state: LedgerState, actor: bytes, feature: str, authority: Authority) -> None:
    """Shared precondition for freeze / confiscate / reverse actions."""
    if authority is not Authority.SYSTEM:
        acct = state.accounts.get(actor)
        if acct is None or Role.SYSTEM_SECURITY not in acct.roles:
            raise TxError(err.NOT_SECURITY_ROLE)
    if state.policy_int(f"security.{feature}.enabled") == 0:
        raise TxError(err.FEATURE_DISABLED)
    if authority is not Authority.SYSTEM and state.policy_int(f"security.{feature}.requires_vote"):
        raise TxError(err.VOTE_REQUIRED)


# --- core operations -------------------------------------------------------------

def transfer(
    state: LedgerState, source: bytes, payload: Transfer, tx_id: bytes, authority: Authority
) -> Applied:
    to, amount = payload.to, payload.amount
    sender = state.accounts.get(source)
    if sender is None or _USER not in sender.roles:
        raise TxError(err.NO_ROLE, "sender lacks the user role")
    recipient = state.accounts.get(to)
    if recipient is None or _USER not in recipient.roles:
        raise TxError(err.RECIPIENT_NOT_AUTHORIZED)
    if sender.frozen:
        raise TxError(err.SENDER_FROZEN)
    if amount < 1:
        raise TxError(err.ZERO_AMOUNT)
    state.move(sender, recipient, amount)
    return Applied((source, to), {"from": source, "to": to, "amount": amount})


def set_frozen(
    state: LedgerState, actor: bytes, payload: SetFrozen, tx_id: bytes, authority: Authority
) -> Applied:
    security_gate(state, actor, "freeze", authority)
    target, frozen = payload.target, payload.frozen
    state.set_frozen(state.account(target), frozen)
    return Applied((actor, target), {"target": target, "frozen": frozen})


def confiscate(
    state: LedgerState, actor: bytes, payload: Confiscate, tx_id: bytes, authority: Authority
) -> Applied:
    security_gate(state, actor, "confiscate", authority)
    source, to, amount = payload.source, payload.to, payload.amount
    escrow = state.policy_bytes("security.escrow")
    if to != escrow:
        # moving seized funds anywhere but the escrow needs a passed vote,
        # and the recipient must be an authorized user
        if authority is not Authority.SYSTEM:
            raise TxError(err.VOTE_REQUIRED, "non-escrow destination requires a vote")
        recipient = state.accounts.get(to)
        if recipient is None or _USER not in recipient.roles:
            raise TxError(err.RECIPIENT_NOT_AUTHORIZED)
    holder = state.account(source)
    if holder.balance < amount:
        raise TxError(err.INSUFFICIENT_FUNDS)
    state.move(holder, state.account(to), amount)
    return Applied(
        (actor, source, to),
        {"from": source, "to": to, "amount": amount},
    )


def reverse_transaction(
    state: LedgerState, actor: bytes, payload: Reverse, tx_id: bytes, authority: Authority
) -> Applied:
    security_gate(state, actor, "reverse", authority)
    target_tx = payload.target_tx
    idx = state.tx_index.get(target_tx)
    if idx is None:
        raise TxError(err.NOT_A_TRANSFER, "no such transaction")
    entry = state.tx_log[idx]
    if entry.kind != "transfer" or not entry.ok:
        raise TxError(err.NOT_A_TRANSFER)
    if entry.reversed_by is not None:
        raise TxError(err.ALREADY_REVERSED)
    original_from: bytes = entry.data["from"]
    original_to: bytes = entry.data["to"]
    amount: int = entry.data["amount"]
    recipient = state.account(original_to)
    if recipient.balance < amount:
        raise TxError(err.INSUFFICIENT_RECIPIENT_FUNDS)
    state.move(recipient, state.account(original_from), amount)
    entry.reversed_by = tx_id
    return Applied(
        (actor, original_from, original_to),
        {
            "reversed_tx": target_tx,
            "from": original_to,
            "to": original_from,
            "amount": amount,
        },
    )


def rotate_key(
    state: LedgerState, sender: bytes, payload: RotateKey, tx_id: bytes, authority: Authority
) -> Applied:
    """Swap the target account's public key after recovery approval.

    Approval signatures are checked under each approver's *current* key;
    which approvers suffice depends on the account's recovery policy.
    """
    target, new_key = payload.target, payload.new_key
    acct = state.account(target)
    scheme = get_scheme(state.scheme)
    try:
        derive_account_id(new_key)
    except InvalidKey:
        raise TxError(err.INVALID_KEY, "malformed replacement key") from None
    message = rotation_message(target, new_key)

    # who may approve: groups of approvers, each needing a count of valid approvals
    recovery, provider = acct.recovery, acct.provider
    if isinstance(recovery, Guardians):
        quorums = [(recovery.guardians, recovery.threshold)]
    elif isinstance(recovery, ProviderPlusSecurity):
        quorums = [({provider}, 1), (set(state.holders(Role.SYSTEM_SECURITY)), 1)]
    else:
        quorums = [({provider}, 1)]
    eligible = set().union(*(group for group, _ in quorums))

    valid: set[bytes] = set()
    for approver_id, sig in payload.approvals:
        if approver_id not in eligible:
            raise TxError(err.APPROVER_NOT_ELIGIBLE)
        approver = state.accounts.get(approver_id)
        if approver is None:
            raise TxError(err.APPROVER_NOT_ELIGIBLE)
        if scheme.verify(approver.public_key, message, sig):
            valid.add(approver_id)

    if any(len(valid & group) < needed for group, needed in quorums):
        raise TxError(err.INSUFFICIENT_APPROVALS)

    acct.public_key = new_key
    # key material stays out of the public record
    return Applied((target,), {"target": target})


def register_endpoints(
    state: LedgerState, actor: bytes, payload: RegisterEndpoints, tx_id: bytes, authority: Authority
) -> Applied:
    """Publish or replace a validator's gateway endpoints and view key."""
    record = payload.record
    acct = state.accounts.get(actor)
    if acct is None or Role.VALIDATOR not in acct.roles:
        raise TxError(err.NOT_VALIDATOR)
    if record.account != actor:
        raise TxError(err.MALFORMED_RECORD, "record must describe the sender")
    if not record.contact:
        raise TxError(err.MALFORMED_RECORD, "contact must be non-empty")
    if len(record.view_key) != len(acct.public_key) or record.view_key == acct.public_key:
        raise TxError(err.MALFORMED_RECORD, "view key must differ from the account key")
    if not (record.security_gateways and record.visibility_gateways):
        raise TxError(err.MALFORMED_RECORD, "gateway address lists must be non-empty")
    state.validator_registry[actor] = record
    return Applied(
        (actor,),
        {
            "security_gateways": ",".join(record.security_gateways),
            "visibility_gateways": ",".join(record.visibility_gateways),
            "contact": record.contact,
        },
    )


# --- views ------------------------------------------------------------------------

def get_balance(state: LedgerState, account: bytes) -> int:
    return state.account(account).balance


def get_history(state: LedgerState, account: bytes) -> list[LogEntry]:
    """Every entry the account took part in, in log order."""
    state.account(account)
    return list(state._history.get(account, ()))
