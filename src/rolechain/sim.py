"""Deterministic scenario runner: gateways -> pools -> blocks -> state.

A scenario file (YAML) declares genesis accounts/roles/policies, keyed
actors with optional fault profiles, and a list of tick-stamped steps:
transactions, gateway queries, response comparisons, fault toggles, and
assertions.  The loop produces one block per tick (heartbeats when idle),
fires accruals and proposal expiry inside block processing, and evaluates
assertions after the tick's block.

Everything is derived from (scenario, seed): actor keys, challenges, and
signatures are deterministic, so identical runs yield byte-identical
reports and state digests.

Any actor may run a security and a visibility gateway, but only validators
with registered endpoints receive broadcasts.  So an actor's gateways, view
key and fault set are built the first time something needs them: a
broadcast or read through its gateway, a genesis validator record, a
``register_endpoints`` step or a fault step.  A view key derives from its
label, so one built later is the same key.

The report is an omniscient oracle for tests: it lists every balance
directly from the ledger, bypassing in-protocol visibility on purpose.
It is never served through a gateway.
"""

from __future__ import annotations

import json
from collections import defaultdict, deque
from collections.abc import Callable, Sequence
from dataclasses import asdict, dataclass
from pathlib import Path

import yaml

from . import codec
from .codec import U64_MAX, whole
from .chain import (
    Chain,
    append_block,
    build_block,
    export_chain,
    genesis_doc,
    publisher_at,
)
from .engine import build_genesis
from .governance import validate_recovery
from .errors import (
    InternalInvariantViolation,
    ScenarioError,
    TxError,
    QueryError,
)
from .gateway import (
    Admitted,
    AdmissionHelper,
    KNOWN_FAULTS,
    FAULT_OFFLINE,
    READS,
    SecurityGateway,
    VisibilityGateway,
    censors,
    compare_responses,
    file_discrepancy,
    sign_request,
)
from .keys import KeyPair, keypair_from_label
from .monetary import claimable_amount
from .ledger import Account, LogEntry, ProposalStatus
from .schema import (
    ACTOR,
    ACTORS,
    BOOL,
    ENTRIES,
    INTEGER,
    LABEL,
    TEXT,
    TEXTS,
    U64,
    Declared,
    Fields,
    FieldType,
    Kind,
    check,
    check_kind,
    choice,
    fields,
    kinds,
    list_of,
    optional,
)
from .payloads import (
    AssignRole,
    BootstrapValidators,
    Burn,
    CastVote,
    Claimable,
    ClaimAllowance,
    Confiscate,
    ConvertFiat,
    CreateProposal,
    FiatDirection,
    FinalizeProposal,
    GatewayDirectory,
    Guardians,
    InterestMode,
    ManagementLog,
    Mint,
    OwnBalance,
    OwnHistory,
    Payload,
    Permanence,
    ProviderOnly,
    ProviderPlusSecurity,
    RecoveryPolicy,
    RegisterEndpoints,
    Reverse,
    RevokeRole,
    Role,
    RotateKey,
    SetFrozen,
    SetInterestRule,
    SetPolicy,
    SignedQueryResponse,
    SupplyView,
    Transaction,
    Transfer,
    ValidationServerAddress,
    ValidatorRecord,
    possession_message,
    rotation_message,
    sign_transaction,
)

# --- scenario entries ----------------------------------------------------------------
#
# Every entry of a scenario file (the top level, an actor, a policy and each
# kind of step) declares its fields once, in the tables below, each with a
# type; ``schema.check`` walks an entry against its declaration and hands the
# runner every value converted (a Role for "user", a bool for true), so the
# builders and evaluators use what they get as it is.

ROLE = choice("role", {r.name.lower(): r for r in Role})
FAULTS = list_of(choice("fault", {name: name for name in KNOWN_FAULTS}))
PERMANENCE = choice("permanence", {p.name.lower(): p for p in Permanence})
MODE = choice("mode", {m.name.lower(): m for m in InterestMode})
DIRECTION = choice("direction", {d.name.lower(): d for d in FiatDirection})
OUTCOMES = {name: name for name in ("consistent", "evidence", "insufficient")}
OUTCOME = choice("compare outcome", OUTCOMES)
# what an assert reports for a proposal or a compare label that does not exist
MISSING = {"missing": "missing"}
# a proposal's action: a tx without from and store
ACTION = FieldType("tx", lambda v, d: check_kind(v, ACTIONS, "tx", d))


def _policy_value(value, declared: Declared) -> int | bytes | tuple[str, ...]:
    if type(value) is bool:
        return int(value)
    if type(value) is dict and len(value) == 1:
        if type(value.get("hex")) is str:
            try:
                return bytes.fromhex(value["hex"])
            except ValueError:
                raise ScenarioError(f"bad hex {value['hex']!r}") from None
        if "accounts" in value:
            return tuple(ACTORS.check(value["accounts"], declared))
    if type(value) is int and 0 <= value <= U64_MAX:
        return value
    raise ScenarioError(f"expected an integer in 0..2**64-1, {{hex: ...}} or {{accounts: [...]}}, not {value!r}")


# an integer (true and false are 1 and 0), {hex: ...} bytes, or {accounts:
# [...]}, whose account ids the runner joins
POLICY_VALUE = FieldType("policy value", _policy_value)
_RECOVERY_NAME = choice("recovery", {"provider_only": ProviderOnly(), "provider_plus_security": ProviderPlusSecurity()})
# a recovery policy by name, or {guardians: [...], threshold: n}, whose
# guardian names the runner turns into account ids
RECOVERY = FieldType(
    "recovery spec",
    lambda v, d: check(v, GUARDIANS, "guardians", d) if type(v) is dict else _RECOVERY_NAME.check(v, d),
)

# a run publishes up to one block per tick, so a scenario file may ask for
# no more ticks than this: a hostile one then still ends
MAX_TICKS = 100_000


def _ticks(value, declared: Declared) -> int:
    ticks = U64.check(value, declared)
    if ticks > MAX_TICKS:
        raise ScenarioError(f"at most {MAX_TICKS} ticks, not {ticks}")
    return ticks


SCENARIO = fields(
    {
        "ticks": FieldType("ticks", _ticks),
        "actors": ENTRIES,
        "name": optional(TEXT),
        "seed": optional(U64),
        "scheme": optional(choice("scheme", {"mock": "mock", "ed25519": "ed25519"})),
        "policies": optional(ENTRIES),
        "steps": optional(ENTRIES),
    }
)
ACTOR_ENTRY = fields(
    {
        "name": TEXT,
        "roles": optional(list_of(ROLE)),
        "balance": optional(U64),
        "provider": optional(ACTOR),
        "recovery": optional(RECOVERY),
        "faults": optional(FAULTS),
    }
)
GUARDIANS = fields({"guardians": ACTORS, "threshold": optional(U64)})
# a genesis policy, and a set_policy step
POLICY = {
    "key": TEXT,
    "value": POLICY_VALUE,
    "permanence": optional(PERMANENCE),
    "expiry_height": optional(U64, when=("permanence", "timed_expiration")),
}
POLICY_ENTRY = fields(POLICY)
COMPARE_STEP = fields({"label": TEXT, "file_as": optional(ACTOR), "expect": optional(OUTCOME)})
FAULT_STEP = fields({"actor": ACTOR, "set": FAULTS})


@dataclass
class ActorSpec:
    name: str
    roles: Sequence[Role] = ()
    balance: int = 0
    provider: str | None = None
    recovery: RecoveryPolicy | dict = ProviderOnly()
    faults: Sequence[str] = ()


@dataclass
class Step:
    tick: int
    kind: str  # tx | query | compare | fault | assert
    body: dict  # checked against its declaration, values converted


@dataclass
class Scenario:
    name: str
    seed: int
    scheme: str
    ticks: int
    policies: list[dict]
    actors: list[ActorSpec]
    steps: list[Step]


def load_scenario(path: str | Path) -> Scenario:
    """Parse and strictly validate one scenario file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ScenarioError(f"no such scenario file: {path}") from None
    except OSError as exc:  # a directory, say
        raise ScenarioError(f"cannot read scenario file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path.name}: not UTF-8 text at byte {exc.start}") from None
    try:
        raw = yaml.safe_load(text)
    except RecursionError:
        raise ScenarioError(f"{path.name}: parse error: nested too deeply") from None
    except yaml.YAMLError as exc:
        raise ScenarioError(f"{path.name}: parse error: {exc}") from exc
    return parse_scenario(raw, default_name=path.stem)


def parse_scenario(raw: dict, default_name: str = "scenario") -> Scenario:
    """Check ``raw`` against the declarations above; every value comes out converted."""
    top = check(raw, SCENARIO, "scenario", None)
    # every actor field may name any actor, so collect the names first
    declared = Declared({"escrow"})
    for entry in top["actors"]:
        name = entry.get("name") if type(entry) is dict else None
        if type(name) is str:
            if name in declared.actors:
                raise ScenarioError(f"duplicate or reserved actor name {name!r}")
            declared.actors.add(name)
    actors = [ActorSpec(**check(entry, ACTOR_ENTRY, "actor", declared)) for entry in top["actors"]]
    # an actor without roles gets no genesis account, so nothing could hold its balance
    for actor in actors:
        if actor.balance and not actor.roles:
            raise ScenarioError(f"actor {actor.name}: a balance needs at least one role")
    policies = [check(entry, POLICY_ENTRY, "policy", declared) for entry in top.get("policies", ())]
    # the genesis writes a policy with no expiry height as one of 0
    if any(p.get("permanence") is Permanence.TIMED_EXPIRATION and not p["expiry_height"] for p in policies):
        raise ScenarioError("policy: a timed genesis policy's expiry_height must be at least 1")

    ticks = top["ticks"]
    steps: list[Step] = []
    for entry in top.get("steps", ()):
        if type(entry) is not dict or "tick" not in entry:
            raise ScenarioError("step: missing field 'tick'")
        if len(entry) != 2:
            raise ScenarioError("step: exactly one of tx/query/compare/fault/assert required")
        tick = entry["tick"]
        if type(tick) is not int or not 1 <= tick <= ticks:
            raise ScenarioError(f"step: tick {tick!r} outside 1..{ticks}")
        (kind,) = entry.keys() - {"tick"}
        if kind not in STEP_BODIES:
            raise ScenarioError(f"step: unknown field {kind!r}")
        declaration = STEP_BODIES[kind]
        try:
            if type(declaration) is Fields:
                body = check(entry[kind], declaration, kind, declared)
            else:
                body = check_kind(entry[kind], declaration, kind, declared)
        except RecursionError:  # proposals nest
            raise ScenarioError(f"{kind}: action nested too deeply") from None
        if "store" in body and kind == "tx":
            declared.tx_labels.add(body["store"])
        steps.append(Step(tick, kind, body))

    return Scenario(
        top.get("name", default_name), top.get("seed", 0), top.get("scheme", "mock"), ticks, policies, actors, steps
    )


# --- transaction steps -----------------------------------------------------------------
#
# Each builder turns a checked step body into the payload ``sender`` submits.


def _reverse(sim: Simulation, body: dict, sender: str) -> Reverse:
    label = body["target"]
    if label not in sim.stored_tx_ids:
        raise ScenarioError(f"reverse: no stored tx labelled {label!r}")
    return Reverse(sim.stored_tx_ids[label])


def _rotate_key(sim: Simulation, body: dict, sender: str) -> RotateKey:
    target = sim.aid(body["target"])
    new_kp = sim._keypair(body["new_key_label"])
    message = rotation_message(target, new_kp.public_key)
    approvals = tuple((sim.aid(n), sim.keys[n].sign(message)) for n in body["approvers"])
    # the sim plays the owner too: it hands the account its new signing key
    # once the rotation commits (the account id itself never changes)
    sim.new_keys[body["target"]] = new_kp
    return RotateKey(target, new_kp.public_key, approvals)


def _assign_role(sim: Simulation, body: dict, sender: str) -> AssignRole:
    role = body["role"]
    target_kp = sim.keys[body["target"]]
    possession = None
    if role is Role.USER:
        possession = target_kp.sign(possession_message(sim.aid(sender), target_kp.public_key))
    recovery = sim._recovery(body["recovery"]) if "recovery" in body else None
    return AssignRole(sim.aid(body["target"]), role, target_kp.public_key, possession, recovery)


def _set_interest_rule(sim: Simulation, body: dict, sender: str) -> SetInterestRule:
    scope = body.get("scope")
    return SetInterestRule(
        body["rate_num"],
        body["rate_den"],
        body["period_blocks"],
        body["start_height"],
        body["mode"],
        None if scope is None else frozenset(map(sim.aid, scope)),
        body.get("rule"),
        body.get("active", True),
    )


def _register_endpoints(sim: Simulation, body: dict, sender: str) -> RegisterEndpoints:
    """``sender``'s endpoints under its view key; each field ``body`` leaves out
    defaults to one derived from the name, as genesis validators register."""
    return RegisterEndpoints(
        ValidatorRecord(
            sim.aid(sender),
            tuple(body.get("security_gateways", (f"sim://{sender}/sec0",))),
            tuple(body.get("visibility_gateways", (f"sim://{sender}/vis0",))),
            body.get("validation_server", f"sim://{sender}/validation"),
            sim._view_key(sender).public_key,
            body.get("contact", f"ops@{sender}"),
        )
    )


# tx kind -> (builder(sim, body, sender), fields).  Every payload kind but
# discrepancy_event, which only the comparator files, has an entry.
_TX: dict[str, tuple[Callable[[Simulation, dict, str], Payload], dict[str, FieldType]]] = {
    "transfer": (lambda sim, b, sender: Transfer(sim.aid(b["to"]), b["amount"]), {"to": ACTOR, "amount": U64}),
    "set_frozen": (
        lambda sim, b, sender: SetFrozen(sim.aid(b["target"]), b["frozen"]),
        {"target": ACTOR, "frozen": BOOL},
    ),
    "confiscate": (
        lambda sim, b, sender: Confiscate(sim.aid(b["source"]), sim.aid(b.get("to", "escrow")), b["amount"]),
        {"source": ACTOR, "amount": U64, "to": optional(ACTOR)},
    ),
    "reverse": (_reverse, {"target": LABEL}),
    "rotate_key": (_rotate_key, {"target": ACTOR, "new_key_label": TEXT, "approvers": ACTORS}),
    "set_policy": (lambda sim, b, sender: SetPolicy(*sim._policy(b)), POLICY),
    "assign_role": (_assign_role, {"target": ACTOR, "role": ROLE, "recovery": optional(RECOVERY)}),
    "revoke_role": (
        lambda sim, b, sender: RevokeRole(sim.aid(b["target"]), b["role"]),
        {"target": ACTOR, "role": ROLE},
    ),
    "bootstrap_validators": (
        lambda sim, b, sender: BootstrapValidators(frozenset(map(sim.aid, b["validators"]))),
        {"validators": ACTORS},
    ),
    "create_proposal": (
        lambda sim, b, sender: CreateProposal(sim._build_payload(b["action"], sender), b["electorate"]),
        {"action": ACTION, "electorate": ROLE},
    ),
    "cast_vote": (
        lambda sim, b, sender: CastVote(b["proposal"], b["approve"]),
        {"proposal": U64, "approve": BOOL},
    ),
    "finalize_proposal": (lambda sim, b, sender: FinalizeProposal(b["proposal"]), {"proposal": U64}),
    "mint": (lambda sim, b, sender: Mint(sim.aid(b["to"]), b["amount"]), {"to": ACTOR, "amount": U64}),
    "burn": (lambda sim, b, sender: Burn(sim.aid(b["source"]), b["amount"]), {"source": ACTOR, "amount": U64}),
    "convert_fiat": (
        lambda sim, b, sender: ConvertFiat(sim.aid(b["user"]), b["direction"], b["amount"]),
        {"user": ACTOR, "direction": DIRECTION, "amount": U64},
    ),
    "set_interest_rule": (
        _set_interest_rule,
        {
            "rate_num": U64,
            "rate_den": U64,
            "period_blocks": U64,
            "start_height": U64,
            "mode": MODE,
            "scope": optional(ACTORS),
            "rule": optional(U64),
            "active": optional(BOOL),
        },
    ),
    "claim_allowance": (
        lambda sim, b, sender: ClaimAllowance(b["rule"], b["up_to_period"]),
        {"rule": U64, "up_to_period": U64},
    ),
    "register_endpoints": (
        _register_endpoints,
        {
            "security_gateways": optional(TEXTS),
            "visibility_gateways": optional(TEXTS),
            "validation_server": optional(TEXT),
            "contact": optional(TEXT),
        },
    ),
}
# a step also names its sender and may store the transaction under a label
TX_STEPS = kinds({"from": ACTOR, "store": optional(TEXT)}, _TX)
ACTIONS = kinds({}, _TX)


# --- query steps ---------------------------------------------------------------------
#
# query kind -> (query class, builder(sim, body, requester), fields); a kind
# whose answer is one integer may also check it with ``expect_int``

_ACCOUNT = {"account": optional(ACTOR)}
_QUERIES = {
    "own_balance": (OwnBalance, lambda sim, b, who: OwnBalance(sim.aid(b.get("account", who))), _ACCOUNT),
    "own_history": (OwnHistory, lambda sim, b, who: OwnHistory(sim.aid(b.get("account", who))), _ACCOUNT),
    "claimable": (Claimable, lambda sim, b, who: Claimable(sim.aid(b.get("account", who))), _ACCOUNT),
    "management_log": (
        ManagementLog,
        lambda sim, b, who: ManagementLog(b.get("start", 0), b.get("end", 10**9)),
        {"start": optional(U64), "end": optional(U64)},
    ),
    "supply": (SupplyView, lambda sim, b, who: SupplyView(), {}),
    "directory": (GatewayDirectory, lambda sim, b, who: GatewayDirectory(), {}),
    "validation_server": (
        ValidationServerAddress,
        lambda sim, b, who: ValidationServerAddress(sim.aid(b["validator"])),
        {"validator": ACTOR},
    ),
}
QUERY_STEPS = kinds(
    {"as": ACTOR, "gateways": optional(ACTORS), "store": optional(TEXT), "expect_error": optional(TEXT)},
    {
        kind: (build, {**own, "expect_int": optional(U64)} if READS[cls].answer is codec.U64 else own)
        for kind, (cls, build, own) in _QUERIES.items()
    },
)


# --- the runner ------------------------------------------------------------------------


@dataclass
class AssertionResult:
    tick: int
    kind: str
    ok: bool
    detail: str


@dataclass
class Report:
    scenario: str
    seed: int
    ticks: int
    blocks_produced: int
    skipped_ticks: list[int]
    assertions: list[AssertionResult]
    supply: dict
    balances: dict[str, int]
    management_log: list[dict]
    compare_results: dict[str, str]
    state_digest: str
    head_hash: str

    @property
    def all_passed(self) -> bool:
        return all(a.ok for a in self.assertions)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)


def _jsonable(value):
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


class Simulation:
    """One deterministic run of a scenario."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.keys: dict[str, KeyPair] = {}  # current signing keys; rotations swap these
        self.new_keys: dict[str, KeyPair] = {}  # keys of rotations not yet committed
        self.ids: dict[str, bytes] = {}  # stable account ids, fixed at genesis
        self.names_by_id: dict[bytes, str] = {}
        self.nonces: dict[str, int] = {}
        # an actor's gateway machinery, built on first need; its gateways
        # share its fault set, so a fault step reaches them
        self.faults: defaultdict[str, set[str]] = defaultdict(set)
        self.view_keys: dict[str, KeyPair] = {}
        self.sec_gateways: dict[str, SecurityGateway] = {}
        self.vis_gateways: dict[str, VisibilityGateway] = {}
        # admitted transactions propagate between validators over the
        # validation-server mesh; this is the post-propagation pool, the
        # copy a publisher takes when its own gateway did not admit one
        self.mempool: dict[bytes, Transaction] = {}
        self.admitted_ids: set[bytes] = set()
        self.stored_tx_ids: dict[str, bytes] = {}
        self.stored_responses: dict[str, list[SignedQueryResponse]] = {}
        self.compare_results: dict[str, str] = {}
        self.assertions: list[AssertionResult] = []
        self.skipped_ticks: list[int] = []
        # tx id -> the entry apply_transaction returned for it
        self.receipts: dict[bytes, LogEntry] = {}
        self._operators_of: tuple[list[bytes], int] | None = None
        self._operators: list[str] = []
        self._helper: AdmissionHelper | None = None  # kept by run()
        # broadcasts whose helper-checked gateways have yet to admit them, oldest
        # first: (frame, tick, those gateways, the key the helper checks under)
        self._unsettled: deque[tuple[bytes, int, list[str], bytes]] = deque()
        self._holding: set[str] = set()  # the gateways named in _unsettled
        self._build_genesis()

    # -- construction -------------------------------------------------------

    def _keypair(self, label: str) -> KeyPair:
        return keypair_from_label(self.scenario.scheme, label, self.scenario.seed)

    def aid(self, name: str) -> bytes:
        return self.ids[name]

    def _recovery(self, spec: RecoveryPolicy | dict) -> RecoveryPolicy:
        """The policy a checked recovery spec names, guardians as account ids."""
        if isinstance(spec, RecoveryPolicy):
            return spec
        guardians = frozenset(map(self.aid, spec["guardians"]))
        return Guardians(guardians, spec.get("threshold", len(guardians)))

    def _policy(self, entry: dict) -> tuple[str, int | bytes, Permanence, int | None]:
        """Key, value, permanence and expiry of a checked policy entry."""
        value = entry["value"]
        if type(value) is tuple:  # {accounts: [...]}
            value = b"".join(map(self.aid, value))
        return entry["key"], value, entry.get("permanence", Permanence.TEMPORARY), entry.get("expiry_height")

    def _build_genesis(self) -> None:
        scn = self.scenario
        for actor in scn.actors:
            self.keys[actor.name] = self._keypair(actor.name)
            if actor.faults:
                self.faults[actor.name] = set(actor.faults)
            self.nonces[actor.name] = 0
        self.keys["escrow"] = self._keypair("escrow")
        self.nonces["escrow"] = 0
        self.ids = {name: kp.account_id for name, kp in self.keys.items()}
        self.names_by_id = {aid: name for name, aid in self.ids.items()}

        accounts = []
        for actor in scn.actors:
            if not actor.roles:
                continue  # keys only; the account may be created later on-chain
            recovery = self._recovery(actor.recovery)
            try:
                validate_recovery(recovery, self.aid(actor.name))
            except TxError as exc:
                raise ScenarioError(f"actor {actor.name}: {exc}") from exc
            accounts.append(
                Account(
                    account_id=self.aid(actor.name),
                    public_key=self.keys[actor.name].public_key,
                    roles=set(actor.roles),
                    balance=actor.balance,
                    recovery=recovery,
                    provider=self.aid(actor.provider) if actor.provider else None,
                )
            )
        overrides = [self._policy(p) for p in scn.policies]
        escrow = Account(
            account_id=self.keys["escrow"].account_id,
            public_key=self.keys["escrow"].public_key,
        )
        try:
            self.state = build_genesis(scn.scheme, accounts, overrides, escrow)
        except TxError as exc:
            raise ScenarioError(f"actors: balances sum past 2**64-1 ({exc})") from exc
        self.chain = Chain()

        # only genesis validators start with on-chain endpoint registrations,
        # each the default record of a register_endpoints step
        for actor in scn.actors:
            if Role.VALIDATOR in actor.roles:
                self.state.validator_registry[self.aid(actor.name)] = _register_endpoints(self, {}, actor.name).record

        self.genesis = genesis_doc(self.state, dict(self.ids))

    # -- gateway machinery, built on first need (see the module docstring) ----------

    def _view_key(self, name: str) -> KeyPair:
        view = self.view_keys.get(name)
        if view is None:
            view = self.view_keys[name] = self._keypair(f"{name}.view")
        return view

    def _security_gateway(self, name: str) -> SecurityGateway:
        gateway = self.sec_gateways.get(name)
        if gateway is None:
            gateway = self.sec_gateways[name] = SecurityGateway(self.aid(name), self.faults[name])
        return gateway

    def _visibility_gateway(self, name: str) -> VisibilityGateway:
        gateway = self.vis_gateways.get(name)
        if gateway is None:
            gateway = self.vis_gateways[name] = VisibilityGateway(
                self.aid(name), self._view_key(name), self.faults[name]
            )
        return gateway

    # -- validators -------------------------------------------------------------

    def _offline(self) -> frozenset[bytes]:
        """The accounts whose actor is marked offline."""
        return frozenset(self.aid(name) for name, faults in self.faults.items() if FAULT_OFFLINE in faults)

    def _gateway_operators(self) -> list[str]:
        """Names of current validators with registered endpoints.

        Kept until the validators change or a validator registers for the
        first time: records are replaced, never removed, so the registry's
        size names its membership.
        """
        of = (self.state.validators(), len(self.state.validator_registry))
        if of != self._operators_of:
            current = set(of[0])
            self._operators = sorted(self.names_by_id[vid] for vid in self.state.validator_registry if vid in current)
            self._operators_of = of
        return self._operators

    # -- step execution -------------------------------------------------------

    def _build_payload(self, body: dict, sender: str) -> Payload:
        return TX_STEPS[body["kind"]].act(self, body, sender)

    def _submit_tx(self, sender: str, payload: Payload, tick: int, store: str | None = None) -> None:
        tx = sign_transaction(self.keys[sender], self.aid(sender), self.nonces[sender], payload)
        if self._broadcast(tx, tick):
            self.nonces[sender] += 1
            if store:
                self.stored_tx_ids[store] = tx.tx_id
        # a transaction rejected by every gateway never consumes the nonce

    def _broadcast(self, tx: Transaction, tick: int) -> bool:
        """Submit to every reachable security gateway; propagate on admission.

        While the run keeps an admission helper, the gateways
        :meth:`_helper_checks` names admit later, each with the helper's
        verdict on its own copy: at the next :meth:`_settle`, or at once
        when no other gateway admitted the transaction.  Meanwhile this
        process goes on without waiting for the helper.  A gateway that
        still holds an unsettled admission is settled before it admits
        here, so each gateway admits in broadcast order whichever gateways
        a transaction defers.
        """
        raw = tx.encode()
        remote, key = self._helper_checks(tx, raw) if self._helper is not None else ([], None)
        accepted_anywhere = False
        for name in self._gateway_operators():
            if FAULT_OFFLINE in self.faults[name] or name in remote:
                continue
            if name in self._holding:
                self._settle()
            if isinstance(self._security_gateway(name).admit(self.state, raw, tick), Admitted):
                accepted_anywhere = True
        if remote:
            self._unsettled.append((raw, tick, remote, key))
            self._holding.update(remote)
            if not accepted_anywhere:
                accepted_anywhere = self._settle()
        if accepted_anywhere:
            self.admitted_ids.add(tx.tx_id)
            self.mempool[tx.tx_id] = tx
        return accepted_anywhere

    def _helper_checks(self, tx: Transaction, raw: bytes) -> tuple[list[str], bytes | None]:
        """The gateways whose copies of ``tx`` the admission helper has been
        asked to check, and the key it checks under: of the k online
        gateways that will check the signature, the last k // 2, under the
        sender's current key.  Neither when the helper has failed or no
        gateway will check."""
        acct = self.state.accounts.get(tx.sender)
        # envelope_fault checks no signature of a sender without an account or roles
        if not self._helper.working or acct is None or not acct.roles:
            return [], None
        checking = [
            name
            for name in self._gateway_operators()
            if FAULT_OFFLINE not in self.faults[name] and not censors(self.faults[name], tx)
        ]
        remote = checking[len(checking) - len(checking) // 2 :]
        if remote and not self._helper.room(len(remote)):
            self._settle()
        if not remote or not self._helper.ask(raw, acct.public_key, len(remote)):
            return [], None
        return remote, acct.public_key

    def _settle(self) -> bool:
        """Admit each unsettled broadcast at its helper-checked gateways, oldest
        first, so each gateway admits in broadcast order; whether one of them
        admitted the newest.

        Until then only those gateways' pools and token buckets lag, and
        nothing reads them: the run settles before a fault step changes what
        a gateway admits, before such a gateway admits in this process,
        before a block is built from a pool and at the end of each tick.
        """
        admitted = False
        while self._unsettled:
            raw, tick, remote, key = self._unsettled.popleft()
            admitted = False
            for name, ok in zip(remote, self._helper.answer(len(remote))):
                if isinstance(self._security_gateway(name).admit(self.state, raw, tick, key if ok else None), Admitted):
                    admitted = True
        self._holding.clear()
        return admitted

    def _run_query(self, body: dict, tick: int) -> None:
        requester = body["as"]
        query = QUERY_STEPS[body["kind"]].act(self, body, requester)
        gateway_names = body.get("gateways") or self._gateway_operators()
        label = body.get("store")
        expect_error = body.get("expect_error")
        expect_int = body.get("expect_int")
        for name in gateway_names:
            if FAULT_OFFLINE in self.faults[name]:
                continue
            gw = self._visibility_gateway(name)
            request = sign_request(
                self.keys[requester], gw.issue_challenge(), query, self.aid(requester)
            )
            try:
                response = gw.answer(self.state, request)
            except QueryError as exc:
                if expect_error is not None:
                    self.assertions.append(
                        AssertionResult(
                            tick,
                            "query_error",
                            exc.code == expect_error,
                            f"{name}: expected {expect_error}, got {exc.code}",
                        )
                    )
                continue
            if expect_error is not None:
                self.assertions.append(
                    AssertionResult(tick, "query_error", False, f"{name}: answered despite expecting {expect_error}")
                )
            if expect_int is not None:
                got = whole(READS[type(query)].answer.read, response.result)
                self.assertions.append(
                    AssertionResult(
                        tick, "query_int", got == expect_int, f"{name}: expected {expect_int}, got {got}"
                    )
                )
            if label:
                self.stored_responses.setdefault(label, []).append(response)

    def _run_compare(self, body: dict, tick: int) -> None:
        label = body["label"]
        responses = self.stored_responses.get(label, [])
        outcome = "consistent"
        evidence = None
        try:
            evidence = compare_responses(self.state, responses)
        except QueryError:
            outcome = "insufficient"
        if evidence is not None:
            outcome = "evidence"
            submitter = body.get("file_as")
            if submitter:
                tx = file_discrepancy(
                    self.state,
                    evidence,
                    self.keys[submitter],
                    self.nonces[submitter],
                    self.aid(submitter),
                )
                if self._broadcast(tx, tick):
                    self.nonces[submitter] += 1
        self.compare_results[label] = outcome
        expect = body.get("expect")
        if expect is not None:
            self.assertions.append(
                AssertionResult(tick, "compare_result", outcome == expect, f"{label}: {outcome}")
            )

    def _run_assert(self, body: dict, tick: int) -> None:
        ok, detail = ASSERT_STEPS[body["kind"]].act(self, body)
        self.assertions.append(AssertionResult(tick, body["kind"], ok, detail))

    # -- assertions: each evaluates one assert kind to (ok, detail) ---------------

    def _assert_balance(self, b: dict) -> tuple[bool, str]:
        got = getattr(self.state.accounts.get(self.aid(b["account"])), "balance", None)
        return got == b["equals"], f"{b['account']} balance {got} (want {b['equals']})"

    def _assert_frozen(self, b: dict) -> tuple[bool, str]:
        got = getattr(self.state.accounts.get(self.aid(b["account"])), "frozen", None)
        return got == b["equals"], f"{b['account']} frozen {got}"

    def _assert_supply(self, b: dict) -> tuple[bool, str]:
        named = [name for name in ("minted", "burned", "circulating") if name in b]
        got = {name: getattr(self.state.supply, name) for name in named}
        return all(got[name] == b[name] for name in named), " ".join(f"{name}={got[name]}" for name in named)

    def _assert_policy(self, b: dict) -> tuple[bool, str]:
        got = self.state.policy_int(b["key"], -1)
        return got == b["equals"], f"{b['key']}={got}"

    def _assert_validators(self, b: dict) -> tuple[bool, str]:
        got = self.state.validators()
        names = [self.names_by_id.get(v, v.hex()[:8]) for v in got]
        return got == sorted(map(self.aid, b["equals"])), f"validators {names}"

    def _assert_proposal(self, b: dict) -> tuple[bool, str]:
        prop = self.state.proposals.get(b["id"])
        got = prop.status.value if prop else "missing"
        return got == b["status"], f"proposal {b['id']} {got}"

    def _assert_log_contains(self, b: dict) -> tuple[bool, str]:
        matches = [e for e in self.state.management_log() if e.kind == b["entry_kind"]]
        if "within_last_blocks" in b:
            cutoff = self.state.height - b["within_last_blocks"]
            matches = [e for e in matches if e.height > cutoff]
        return bool(matches) == b.get("present", True), f"{b['entry_kind']} x{len(matches)}"

    def _assert_claimable(self, b: dict) -> tuple[bool, str]:
        aid = self.aid(b["account"])
        got = claimable_amount(self.state, aid) if aid in self.state.accounts else None
        return got == b["equals"], f"claimable {got}"

    def _assert_height(self, b: dict) -> tuple[bool, str]:
        return self.state.height == b["equals"], f"height {self.state.height}"

    def _assert_publisher(self, b: dict) -> tuple[bool, str]:
        height = b["height"]
        got = self.names_by_id.get(self.chain.blocks[height].publisher) if height <= self.chain.height else None
        return got == b["equals"], f"height {b['height']} publisher {got}"

    def _assert_compare_result(self, b: dict) -> tuple[bool, str]:
        got = self.compare_results.get(b["label"], "missing")
        return got == b["equals"], f"{b['label']}: {got}"

    # -- the loop ----------------------------------------------------------------

    def _publish_block(self, tick: int) -> None:
        offline = self._offline()
        try:
            publisher = publisher_at(self.chain.height + 1, self.chain, self.state, offline)
        except TxError:  # no validators, or none eligible
            self.skipped_ticks.append(tick)
            return
        name = self.names_by_id[publisher]
        faults = self.faults[name]
        # the publisher's own gateway's copy carries the signature check this
        # node made at admission, so validate and apply reuse it; one that
        # gateway never admitted is the propagated copy, verified afresh
        gateway = self.sec_gateways.get(name)
        own = gateway.pool if gateway is not None else {}
        pending = [own.get(tx.encode(), tx) for tx in self.mempool.values() if not censors(faults, tx, publisher)]
        block = build_block(self.keys[name], publisher, self.chain.head, pending, tick, self.state)
        receipts = append_block(self.chain, self.state, block, offline)
        for receipt in receipts:
            self.receipts[receipt.tx_id] = receipt
        for actor, kp in list(self.new_keys.items()):
            if getattr(self.state.accounts.get(self.ids[actor]), "public_key", None) == kp.public_key:
                self.keys[actor] = self.new_keys.pop(actor)
        included = {tx.tx_id for tx in block.txs}
        if not included <= self.admitted_ids:
            raise InternalInvariantViolation("block carries a transaction no gateway admitted")
        for tx_id in included:
            self.mempool.pop(tx_id, None)
        frames = [tx.encode() for tx in block.txs]
        for gw in self.sec_gateways.values():
            if gw.pool:
                gw.drop_included(frames)

    def run(self) -> Report:
        """Play every tick, then report.  The admission helper, if one can be
        made, lives for this call only: it is stopped and reaped on every
        way out."""
        self._helper = AdmissionHelper.start(self.scenario.scheme)
        try:
            return self._run()
        finally:
            if self._helper is not None:
                self._helper.stop()
                self._helper = None
                self._unsettled.clear()
                self._holding.clear()

    def _run(self) -> Report:
        by_tick: dict[int, list[Step]] = {}
        for step in self.scenario.steps:
            by_tick.setdefault(step.tick, []).append(step)
        for tick in range(1, self.scenario.ticks + 1):
            steps = by_tick.get(tick, [])
            for step in steps:
                if step.kind == "fault":
                    self._settle()
                    target = step.body["actor"]
                    self.faults[target].clear()
                    self.faults[target].update(step.body["set"])
                elif step.kind == "tx":
                    payload = self._build_payload(step.body, step.body["from"])
                    self._submit_tx(step.body["from"], payload, tick, step.body.get("store"))
            self._settle()
            self._publish_block(tick)
            for step in steps:
                if step.kind == "query":
                    self._run_query(step.body, tick)
                elif step.kind == "compare":
                    self._run_compare(step.body, tick)
                elif step.kind == "assert":
                    self._run_assert(step.body, tick)
            self._settle()
        if not self.state.conservation_holds():
            raise InternalInvariantViolation("conservation broken at end of run")
        return self._report()

    def _report(self) -> Report:
        balances = {
            self.names_by_id.get(aid, aid.hex()): acct.balance
            for aid, acct in self.state.accounts.items()
        }
        mgmt = [
            {
                "height": e.height,
                "kind": e.kind,
                "sender": self.names_by_id.get(e.sender, e.sender.hex()[:16]) if e.sender else None,
                "data": _jsonable(e.data),
            }
            for e in self.state.management_log()
        ]
        return Report(
            scenario=self.scenario.name,
            seed=self.scenario.seed,
            ticks=self.scenario.ticks,
            blocks_produced=self.chain.height,
            skipped_ticks=self.skipped_ticks,
            assertions=self.assertions,
            supply={
                "minted": self.state.supply.minted,
                "burned": self.state.supply.burned,
                "circulating": self.state.supply.circulating,
            },
            balances=dict(sorted(balances.items())),
            management_log=mgmt,
            compare_results=dict(sorted(self.compare_results.items())),
            state_digest=self.state.digest().hex(),
            head_hash=self.chain.head_hash.hex(),
        )

    def export(self) -> bytes:
        return export_chain(self.chain, self.genesis)


# --- assert steps ----------------------------------------------------------------------
#
# assert kind -> (Simulation method that evaluates it to (ok, detail), fields)

ASSERT_STEPS = kinds(
    {},
    {
        "balance": (Simulation._assert_balance, {"account": ACTOR, "equals": U64}),
        "frozen": (Simulation._assert_frozen, {"account": ACTOR, "equals": BOOL}),
        "supply": (
            Simulation._assert_supply,
            {"minted": optional(U64), "burned": optional(U64), "circulating": optional(U64)},
        ),
        # policy_int answers -1 for an absent key, so any integer may be expected
        "policy": (Simulation._assert_policy, {"key": TEXT, "equals": INTEGER}),
        "validators": (Simulation._assert_validators, {"equals": ACTORS}),
        "proposal": (
            Simulation._assert_proposal,
            {"id": U64, "status": choice("proposal status", {s.value: s.value for s in ProposalStatus} | MISSING)},
        ),
        "log_contains": (
            Simulation._assert_log_contains,
            {"entry_kind": TEXT, "present": optional(BOOL), "within_last_blocks": optional(U64)},
        ),
        "claimable": (Simulation._assert_claimable, {"account": ACTOR, "equals": U64}),
        "height": (Simulation._assert_height, {"equals": U64}),
        "publisher": (Simulation._assert_publisher, {"height": U64, "equals": ACTOR}),
        "compare_result": (
            Simulation._assert_compare_result,
            {"label": TEXT, "equals": choice("compare result", OUTCOMES | MISSING)},
        ),
    },
)

# step kind -> the fields of its body, or its kinds, told apart by the body's ``kind``
STEP_BODIES: dict[str, Fields | dict[str, Kind]] = {
    "tx": TX_STEPS,
    "query": QUERY_STEPS,
    "compare": COMPARE_STEP,
    "fault": FAULT_STEP,
    "assert": ASSERT_STEPS,
}


def run(scenario: Scenario) -> tuple[Report, Simulation]:
    sim = Simulation(scenario)
    report = sim.run()
    return report, sim
