"""The tests' references: field-by-field primitives of the canonical
encoding, and periodic money creation done eagerly.

``rolechain.codec`` writes and reads every frame with compiled codecs.
These primitives write and read one value at a time, each by its rule in
the ``codec`` module docstring, so the reference encoders and decoders of
``test_compiled_encoders`` and ``test_compiled_decoders`` can be built from
them and compared with the compiled ones.  A :class:`Writer` is a
bytearray, so a compiled encoder may also write into one.

:class:`EagerInterest` records every pull period of every account at its
boundary, as the ledger did before it settled periods on each account's
next write, so the lazy ledger's claims, ``claimable`` answers, supply and
public accrual totals can be compared with it block by block.

:func:`parent_sender_fault` makes the sender checks each handler made
first, inline, before payload kinds declared their sender gates, so the
gates ``engine.execute_payload`` runs can be compared with them.
"""

from __future__ import annotations

import struct
from enum import Enum
from typing import TypeVar

from rolechain import errors as err
from rolechain.codec import U32_MAX, U64_MAX, _not_bytes, _not_utf8
from rolechain.errors import CodecError, TxError
from rolechain.ledger import Authority
from rolechain.payloads import (
    AssignRole,
    BootstrapValidators,
    Burn,
    ClaimAllowance,
    Confiscate,
    ConvertFiat,
    InterestMode,
    Mint,
    RegisterEndpoints,
    Reverse,
    RevokeRole,
    Role,
    SetFrozen,
    SetInterestRule,
    SetPolicy,
    Transfer,
)

E = TypeVar("E", bound=Enum)


class Writer(bytearray):
    """Accumulates canonical bytes."""

    def u8(self, value: int) -> None:
        if not (isinstance(value, int) and 0 <= value <= 0xFF):
            raise CodecError(f"u8 out of range: {value!r}")
        self.append(value)

    def u64(self, value: int) -> None:
        if not (isinstance(value, int) and 0 <= value <= U64_MAX):
            raise CodecError(f"u64 out of range: {value!r}")
        self += struct.pack(">Q", value)

    def boolean(self, value: bool) -> None:
        self.append(1 if value else 0)

    def raw(self, data: bytes) -> None:
        """Append bytes without a length prefix (caller controls framing)."""
        self += data

    def bytes_(self, data: bytes) -> None:
        if not isinstance(data, (bytes, bytearray)):
            _not_bytes(data)
        if len(data) > U32_MAX:
            raise CodecError("byte string too long")
        self += struct.pack(">I", len(data))
        self += data

    def text(self, value: str) -> None:
        try:
            data = value.encode("utf-8")
        except (UnicodeEncodeError, AttributeError):
            _not_utf8(value)
        self.bytes_(data)

    def count(self, n: int) -> None:
        if not (isinstance(n, int) and 0 <= n <= U32_MAX):
            raise CodecError(f"u32 out of range: {n!r}")
        self += struct.pack(">I", n)

    def getvalue(self) -> bytes:
        return bytes(self)


class Reader:
    """Strict cursor over a canonical byte frame."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def _take(self, n: int) -> bytes:
        if n < 0 or self._pos + n > len(self._data):
            raise CodecError("unexpected end of frame")
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def u8(self) -> int:
        return self._take(1)[0]

    def u64(self) -> int:
        return struct.unpack(">Q", self._take(8))[0]

    def enum(self, kind: type[E]) -> E:
        """One byte holding the value of a member of ``kind``."""
        value = self.u8()
        try:
            return kind(value)
        except ValueError:
            raise CodecError(f"unknown {kind.__name__} value {value}") from None

    def boolean(self) -> bool:
        b = self.u8()
        if b not in (0, 1):
            raise CodecError(f"invalid boolean byte: {b}")
        return b == 1

    def bytes_(self) -> bytes:
        n = struct.unpack(">I", self._take(4))[0]
        return self._take(n)

    def text(self) -> str:
        raw = self.bytes_()
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CodecError("invalid UTF-8 in text field") from exc

    def count(self) -> int:
        return struct.unpack(">I", self._take(4))[0]

    def require_end(self) -> None:
        if self._pos != len(self._data):
            raise CodecError(f"{len(self._data) - self._pos} trailing bytes in frame")


# --- periodic money creation, eagerly --------------------------------------------------


class EagerInterest:
    """Every account's pull periods, recorded at each boundary from the live state.

    ``ledgers`` maps account id -> rule id -> [last claimed period,
    [(period, amount), ...]], every period kept, worthless ones included.
    Call :meth:`accrue` on the state as a block reaches its boundaries (after
    its transactions, before ``engine.run_accruals``), and :meth:`claim`
    before a claim whose envelope is valid runs.
    """

    def __init__(self):
        self.ledgers: dict[bytes, dict[int, list]] = {}
        self.created: dict[int, int] = {}  # rule id -> total created
        self.last_period: dict[int, int] = {}  # rule id -> last period accrued

    def accrue(self, state) -> list[tuple[int, int, bool, str | None, int | None]]:
        """Accrue every boundary at the state's height, in rule order, without
        writing the state; each boundary's (rule id, period, ok, error code,
        total), which its public ``accrual`` entry must hold."""
        minted = state.supply.minted
        credits: dict[bytes, int] = {}  # push credits of earlier rules at this height
        boundaries = []
        for rule_id in sorted(state.interest_rules):
            rule = state.interest_rules[rule_id]
            offset = state.height - rule.start_height
            if not rule.active or offset <= 0 or offset % rule.period_blocks:
                continue
            period = offset // rule.period_blocks
            members = [
                acct
                for acct in map(state.accounts.get, sorted(rule.scope) if rule.scope is not None else state.accounts)
                if acct is not None and Role.USER in acct.roles
            ]
            amounts = []
            for acct in members:
                balance = acct.balance + credits.get(acct.account_id, 0)
                amounts.append((acct.account_id, 0 if acct.frozen else rule.rate_num * balance // rule.rate_den))
            total = sum(amount for _, amount in amounts)
            if minted + total > U64_MAX:
                boundaries.append((rule_id, period, False, err.SUPPLY_OVERFLOW, None))
                continue
            minted += total
            for account_id, amount in amounts:
                if rule.mode is InterestMode.PUSH:
                    credits[account_id] = credits.get(account_id, 0) + amount
                else:
                    ledger = self.ledgers.setdefault(account_id, {}).setdefault(rule_id, [0, []])
                    ledger[1].append((period, amount))
            self.created[rule_id] = self.created.get(rule_id, 0) + total
            self.last_period[rule_id] = period
            boundaries.append((rule_id, period, True, None, total))
        return boundaries

    def claim(self, state, account_id: bytes, payload: ClaimAllowance) -> tuple[str | None, int | None]:
        """The (error code, amount) of the claim on the state as it stands,
        checked in the handler's order; a successful one is recorded."""
        acct = state.accounts.get(account_id)
        rule = state.interest_rules.get(payload.rule_id)
        if acct is None:
            return err.UNKNOWN_ACCOUNT, None
        if Role.USER not in acct.roles:
            return err.NO_ROLE, None
        if acct.frozen:
            return err.FROZEN, None
        if rule is None:
            return err.RULE_INACTIVE, None
        if rule.scope is not None and account_id not in rule.scope:
            return err.NOTHING_TO_CLAIM, None
        if payload.up_to_period > self.last_period.get(payload.rule_id, 0):
            return err.PERIOD_NOT_YET_ACCRUED, None
        ledger = self.ledgers.get(account_id, {}).get(payload.rule_id)
        if ledger is None or payload.up_to_period <= ledger[0]:
            return err.NOTHING_TO_CLAIM, None
        amount = sum(a for p, a in ledger[1] if ledger[0] < p <= payload.up_to_period)
        ledger[0] = payload.up_to_period
        return None, amount

    def unclaimed(self, account_id: bytes) -> int:
        return sum(
            amount
            for last, periods in self.ledgers.get(account_id, {}).values()
            for period, amount in periods
            if period > last
        )


# --- sender checks, as the handlers made them inline ------------------------------------
#
# The three gates and six inline checks below are the handlers' own first
# checks, as they stood before each payload kind declared its sender gates.

_GRANTED_BY = {
    Role.USER: Role.ACCOUNT_PROVIDER,
    Role.ACCOUNT_PROVIDER: Role.PLATFORM_MANAGER,
    Role.SYSTEM_SECURITY: Role.PLATFORM_MANAGER,
    Role.CURRENCY_MANAGER: Role.PLATFORM_MANAGER,
    Role.PLATFORM_MANAGER: Role.PLATFORM_MANAGER,
}
_SECURITY_FEATURE = {SetFrozen: "freeze", Confiscate: "confiscate", Reverse: "reverse"}


def _security_gate(state, actor: bytes, feature: str, authority: Authority) -> None:
    if authority is not Authority.SYSTEM:
        acct = state.accounts.get(actor)
        if acct is None or Role.SYSTEM_SECURITY not in acct.roles:
            raise TxError(err.NOT_SECURITY_ROLE)
    if state.policy_int(f"security.{feature}.enabled") == 0:
        raise TxError(err.FEATURE_DISABLED)
    if authority is not Authority.SYSTEM and state.policy_int(f"security.{feature}.requires_vote"):
        raise TxError(err.VOTE_REQUIRED)


def _currency_gate(state, actor: bytes, policy_key: str, authority: Authority) -> None:
    if authority is Authority.SYSTEM:
        return
    if state.policy_int(policy_key):
        raise TxError(err.VOTE_REQUIRED)
    acct = state.accounts.get(actor)
    if acct is None or Role.CURRENCY_MANAGER not in acct.roles:
        raise TxError(err.NOT_CURRENCY_MANAGER)


def _check_role_authority(state, actor: bytes, role: Role) -> None:
    if role is Role.VALIDATOR:
        raise TxError(err.VALIDATOR_ROLE_LOCKED)
    acct = state.accounts.get(actor)
    if acct is None or _GRANTED_BY[role] not in acct.roles:
        raise TxError(err.NOT_AUTHORIZED_FOR_ROLE)


def _sender_checks(state, sender: bytes, payload, authority: Authority) -> None:
    kind = type(payload)
    if kind in _SECURITY_FEATURE:
        _security_gate(state, sender, _SECURITY_FEATURE[kind], authority)
    elif kind in (Mint, Burn):
        _currency_gate(state, sender, "mint.requires_vote", authority)
    elif kind is SetInterestRule:
        _currency_gate(state, sender, "interest.requires_vote", authority)
    elif kind in (AssignRole, RevokeRole):
        if authority is not Authority.SYSTEM:
            _check_role_authority(state, sender, payload.role)
    elif kind is Transfer:
        acct = state.accounts.get(sender)
        if acct is None or Role.USER not in acct.roles:
            raise TxError(err.NO_ROLE, "sender lacks the user role")
    elif kind is SetPolicy:
        if authority is not Authority.SYSTEM:
            acct = state.accounts.get(sender)
            if acct is None or Role.PLATFORM_MANAGER not in acct.roles:
                raise TxError(err.NOT_PLATFORM_MANAGER)
            # with more than one platform manager, policy changes go to a vote
            if len(state.holders(Role.PLATFORM_MANAGER)) > 1:
                raise TxError(err.VOTE_REQUIRED, "multiple platform managers")
    elif kind is BootstrapValidators:
        acct = state.accounts.get(sender)
        if acct is None or Role.PLATFORM_MANAGER not in acct.roles:
            raise TxError(err.NOT_PLATFORM_MANAGER)
    elif kind is ConvertFiat:
        inst = state.accounts.get(sender)
        if inst is None or not ({Role.ACCOUNT_PROVIDER, Role.CURRENCY_MANAGER} & inst.roles):
            raise TxError(err.NOT_AUTHORIZED_CONVERTER)
    elif kind is ClaimAllowance:
        acct = state.account(sender)
        if Role.USER not in acct.roles:
            raise TxError(err.NO_ROLE)
    elif kind is RegisterEndpoints:
        acct = state.accounts.get(sender)
        if acct is None or Role.VALIDATOR not in acct.roles:
            raise TxError(err.NOT_VALIDATOR)


def parent_sender_fault(state, sender: bytes, payload, authority: Authority) -> str | None:
    """The code the handlers' own sender checks gave ``payload`` from
    ``sender`` under ``authority``, or None when they pass.  Every check
    came before its handler's first write, and reads nothing it writes."""
    try:
        _sender_checks(state, sender, payload, authority)
    except TxError as exc:
        return exc.code
    return None
