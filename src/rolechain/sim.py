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

The report is an omniscient oracle for tests: it lists every balance
directly from the ledger, bypassing in-protocol visibility on purpose.
It is never served through a gateway.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .codec import Reader
from .chain import (
    Chain,
    append_block,
    build_block,
    expected_publisher,
    export_chain,
    genesis_doc,
)
from .engine import Receipt, build_genesis
from .governance import validate_recovery
from .errors import (
    InternalInvariantViolation,
    ScenarioError,
    TxError,
    QueryError,
)
from .gateway import (
    Admitted,
    KNOWN_FAULTS,
    FAULT_CENSOR_ALL,
    FAULT_CENSOR_DISCREPANCY,
    FAULT_OFFLINE,
    SecurityGateway,
    VisibilityGateway,
    compare_responses,
    file_discrepancy,
    sign_request,
)
from .keys import KeyPair, keypair_from_label
from .monetary import claimable_amount
from .ledger import Account
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
    DiscrepancyEvent,
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
    Query,
    RecoveryPolicy,
    RegisterEndpoints,
    Reverse,
    RevokeRole,
    Role,
    ROLE_BY_NAME,
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
)

PERMANENCE_BY_NAME = {
    "permanent": Permanence.PERMANENT,
    "temporary": Permanence.TEMPORARY,
    "timed_expiration": Permanence.TIMED_EXPIRATION,
}

QUERY_KINDS = {
    "own_balance",
    "own_history",
    "claimable",
    "management_log",
    "supply",
    "directory",
    "validation_server",
}

ASSERT_FIELDS: dict[str, tuple[set[str], set[str]]] = {
    "balance": ({"account", "equals"}, set()),
    "frozen": ({"account", "equals"}, set()),
    "supply": (set(), {"minted", "burned", "circulating"}),
    "policy": ({"key", "equals"}, set()),
    "validators": ({"equals"}, set()),
    "proposal": ({"id", "status"}, set()),
    "log_contains": ({"entry_kind"}, {"present", "within_last_blocks"}),
    "claimable": ({"account", "equals"}, set()),
    "height": ({"equals"}, set()),
    "publisher": ({"height", "equals"}, set()),
    "compare_result": ({"label", "equals"}, set()),
}


def _is_key(value, table) -> bool:
    """Whether ``value`` names an entry of ``table``; a YAML list or mapping never does."""
    return isinstance(value, str) and value in table


def _items(value, context: str) -> list:
    """A list field's value, checked to be a list (or a tuple)."""
    if not isinstance(value, (list, tuple)):
        raise ScenarioError(f"{context}: expected a list, not {value!r}")
    return value


def _expect_keys(mapping: dict, context: str, required: set[str], optional: set[str] = frozenset()):
    if not isinstance(mapping, dict):
        raise ScenarioError(f"{context}: expected a mapping")
    unknown = set(mapping) - required - set(optional)
    if unknown:
        raise ScenarioError(f"{context}: unknown field {sorted(unknown)[0]!r}")
    missing = required - set(mapping)
    if missing:
        raise ScenarioError(f"{context}: missing field {sorted(missing)[0]!r}")


@dataclass
class ActorSpec:
    name: str
    roles: set[Role] = field(default_factory=set)
    balance: int = 0
    provider: str | None = None
    recovery: dict | None = None
    faults: set[str] = field(default_factory=set)


@dataclass
class Step:
    tick: int
    kind: str  # tx | query | compare | fault | assert
    body: dict


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
    if not path.exists():
        raise ScenarioError(f"no such scenario file: {path}")
    try:
        raw = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ScenarioError(f"{path.name}: parse error: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError(f"{path.name}: scenario must be a mapping")
    return parse_scenario(raw, default_name=path.stem)


def parse_scenario(raw: dict, default_name: str = "scenario") -> Scenario:
    _expect_keys(
        raw,
        "scenario",
        required={"actors", "ticks"},
        optional={"name", "seed", "scheme", "policies", "steps"},
    )
    name = raw.get("name", default_name)
    seed = raw.get("seed", 0)
    scheme = raw.get("scheme", "mock")
    if scheme not in ("mock", "ed25519"):
        raise ScenarioError(f"unknown scheme {scheme!r}")
    ticks = raw["ticks"]
    if not isinstance(ticks, int) or ticks < 0:
        raise ScenarioError("ticks must be a non-negative integer")

    actors: list[ActorSpec] = []
    seen: set[str] = set()
    for entry in _items(raw.get("actors") or (), "actors"):
        _expect_keys(
            entry,
            "actor",
            required={"name"},
            optional={"roles", "balance", "provider", "recovery", "faults"},
        )
        actor = ActorSpec(name=entry["name"])
        if not isinstance(actor.name, str):
            raise ScenarioError(f"actor name must be text, not {actor.name!r}")
        if actor.name in seen or actor.name == "escrow":
            raise ScenarioError(f"duplicate or reserved actor name {actor.name!r}")
        seen.add(actor.name)
        for role_name in _items(entry.get("roles") or (), "actor roles"):
            role = ROLE_BY_NAME.get(role_name) if isinstance(role_name, str) else None
            if role is None:
                raise ScenarioError(f"actor {actor.name}: unknown role {role_name!r}")
            actor.roles.add(role)
        actor.balance = entry.get("balance", 0)
        actor.provider = entry.get("provider")
        actor.recovery = entry.get("recovery")
        for fault in _items(entry.get("faults") or (), "actor faults"):
            if not _is_key(fault, KNOWN_FAULTS):
                raise ScenarioError(f"actor {actor.name}: unknown fault {fault!r}")
            actor.faults.add(fault)
        actors.append(actor)

    names = {a.name for a in actors}
    for actor in actors:
        if actor.provider is not None and not _is_key(actor.provider, names):
            raise ScenarioError(f"actor {actor.name}: undeclared provider {actor.provider!r}")

    policies = []
    for entry in _items(raw.get("policies") or (), "policies"):
        _expect_keys(
            entry, "policy", required={"key", "value"}, optional={"permanence", "expiry_height"}
        )
        permanence = entry.get("permanence", "temporary")
        if not _is_key(permanence, PERMANENCE_BY_NAME):
            raise ScenarioError(f"policy {entry['key']}: unknown permanence {permanence!r}")
        policies.append(entry)

    steps: list[Step] = []
    for entry in _items(raw.get("steps") or (), "steps"):
        if not isinstance(entry, dict) or "tick" not in entry:
            raise ScenarioError("step: missing field 'tick'")
        body_keys = set(entry) - {"tick"}
        if len(body_keys) != 1:
            raise ScenarioError("step: exactly one of tx/query/compare/fault/assert required")
        kind = body_keys.pop()
        if kind not in ("tx", "query", "compare", "fault", "assert"):
            raise ScenarioError(f"step: unknown field {kind!r}")
        tick = entry["tick"]
        if not isinstance(tick, int) or not 1 <= tick <= ticks:
            raise ScenarioError(f"step: tick {tick} outside 1..{ticks}")
        body = entry[kind]
        _validate_step_body(kind, body, names)
        steps.append(Step(tick, kind, body))

    return Scenario(name, seed, scheme, ticks, policies, actors, steps)


def _require_actor(names: set[str], name, context: str) -> None:
    if not (isinstance(name, str) and name in names) and name != "escrow":
        raise ScenarioError(f"{context}: undeclared actor {name!r}")


def _validate_step_body(kind: str, body: dict, names: set[str]) -> None:
    if kind == "tx":
        _validate_tx_body(body, names, top_level=True)
    elif kind == "query":
        _expect_keys(
            body,
            "query step",
            required={"as", "kind"},
            optional={"account", "validator", "start", "end", "gateways", "store", "expect_int", "expect_error"},
        )
        _require_actor(names, body["as"], "query step")
        if not _is_key(body["kind"], QUERY_KINDS):
            raise ScenarioError(f"query step: unknown kind {body['kind']!r}")
        for gw in _items(body.get("gateways") or (), "query step gateways"):
            _require_actor(names, gw, "query step")
        if "account" in body:
            _require_actor(names, body["account"], "query step")
        if "validator" in body:
            _require_actor(names, body["validator"], "query step")
    elif kind == "compare":
        _expect_keys(body, "compare step", required={"label"}, optional={"file_as", "expect"})
        if "file_as" in body:
            _require_actor(names, body["file_as"], "compare step")
        if body.get("expect") not in (None, "consistent", "evidence"):
            raise ScenarioError("compare step: expect must be consistent or evidence")
    elif kind == "fault":
        _expect_keys(body, "fault step", required={"actor", "set"})
        _require_actor(names, body["actor"], "fault step")
        for fault in _items(body["set"], "fault step set"):
            if not _is_key(fault, KNOWN_FAULTS):
                raise ScenarioError(f"fault step: unknown fault {fault!r}")
    elif kind == "assert":
        if not isinstance(body, dict) or "kind" not in body:
            raise ScenarioError("assert step: missing field 'kind'")
        if not _is_key(body["kind"], ASSERT_FIELDS):
            raise ScenarioError(f"assert step: unknown kind {body['kind']!r}")
        required, optional = ASSERT_FIELDS[body["kind"]]
        _expect_keys(body, f"assert {body['kind']}", required | {"kind"}, optional)
        if "account" in body:
            _require_actor(names, body["account"], "assert step")
        if body["kind"] == "validators":
            for name in _items(body["equals"], "assert validators"):
                _require_actor(names, name, "assert step")
        if body["kind"] == "publisher":
            _require_actor(names, body["equals"], "assert step")


def _validate_tx_body(body: dict, names: set[str], top_level: bool) -> None:
    if not isinstance(body, dict) or "kind" not in body:
        raise ScenarioError("tx step: missing field 'kind'")
    kind = body["kind"]
    if not _is_key(kind, TX_STEPS):
        raise ScenarioError(f"tx step: unknown kind {kind!r}")
    if top_level and "from" not in body:
        raise ScenarioError("tx step: missing field 'from'")
    if top_level:
        _require_actor(names, body["from"], "tx step")
    required, optional, _ = TX_STEPS[kind]
    required = required | {"kind"} | ({"from"} if top_level else set())
    optional = optional | ({"store"} if top_level else set())
    _expect_keys(body, f"tx {kind}", required, optional)
    for key in ("to", "target", "source", "user"):
        if key in body and isinstance(body[key], str):
            _require_actor(names, body[key], f"tx {kind}")
    for key in ("validators", "approvers"):
        if key in body:
            for name in _items(body[key], f"tx {kind} {key}"):
                _require_actor(names, name, f"tx {kind}")
    for key in ("role", "electorate"):
        if key in body and not _is_key(body[key], ROLE_BY_NAME):
            raise ScenarioError(f"tx {kind}: unknown {key} {body[key]!r}")
    if "action" in body:
        _validate_tx_body(body["action"], names, top_level=False)


# --- transaction steps -----------------------------------------------------------------
#
# Each builder turns a validated step body into the payload ``sender`` submits.


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
    # the sim plays the owner too: hand the account its new signing key (the
    # account id itself never changes)
    sim.keys[body["target"]] = new_kp
    return RotateKey(target, new_kp.public_key, approvals)


def _assign_role(sim: Simulation, body: dict, sender: str) -> AssignRole:
    role = ROLE_BY_NAME[body["role"]]
    target_kp = sim.keys[body["target"]]
    possession = None
    if role is Role.USER:
        possession = target_kp.sign(possession_message(sim.aid(sender), target_kp.public_key))
    recovery = sim._recovery_from_spec(body["recovery"]) if "recovery" in body else None
    return AssignRole(sim.aid(body["target"]), role, target_kp.public_key, possession, recovery)


def _set_interest_rule(sim: Simulation, body: dict, sender: str) -> SetInterestRule:
    scope = body.get("scope")
    return SetInterestRule(
        body["rate_num"],
        body["rate_den"],
        body["period_blocks"],
        body["start_height"],
        InterestMode.PUSH if body["mode"] == "push" else InterestMode.PULL,
        None if scope is None else frozenset(sim.aid(n) for n in scope),
        body.get("rule"),
        body.get("active", True),
    )


def _register_endpoints(sim: Simulation, body: dict, sender: str) -> RegisterEndpoints:
    return RegisterEndpoints(
        ValidatorRecord(
            sim.aid(sender),
            tuple(body.get("security_gateways", (f"sim://{sender}/sec0",))),
            tuple(body.get("visibility_gateways", (f"sim://{sender}/vis0",))),
            body.get("validation_server", f"sim://{sender}/validation"),
            sim.view_keys[sender].public_key,
            body.get("contact", f"ops@{sender}"),
        )
    )


# tx step kind -> (required fields, optional fields, builder(sim, body, sender));
# a top-level step also takes ``from`` and ``store``.  Every payload kind but
# discrepancy_event, which only the comparator files, has an entry.
TX_STEPS: dict[str, tuple[set[str], set[str], Callable[[Simulation, dict, str], Payload]]] = {
    "transfer": (
        {"to", "amount"}, {"store"}, lambda sim, b, sender: Transfer(sim.aid(b["to"]), b["amount"])
    ),
    "set_frozen": (
        {"target", "frozen"}, set(),
        lambda sim, b, sender: SetFrozen(sim.aid(b["target"]), bool(b["frozen"])),
    ),
    "confiscate": (
        {"source", "amount"}, {"to"},
        lambda sim, b, sender: Confiscate(sim.aid(b["source"]), sim.aid(b.get("to", "escrow")), b["amount"]),
    ),
    "reverse": ({"target"}, set(), _reverse),
    "rotate_key": ({"target", "new_key_label", "approvers"}, set(), _rotate_key),
    "set_policy": (
        {"key", "value"}, {"permanence", "expiry_height"},
        lambda sim, b, sender: SetPolicy(
            b["key"],
            sim._policy_value(b["value"]),
            PERMANENCE_BY_NAME[b.get("permanence", "temporary")],
            b.get("expiry_height"),
        ),
    ),
    "assign_role": ({"target", "role"}, {"recovery"}, _assign_role),
    "revoke_role": (
        {"target", "role"}, set(),
        lambda sim, b, sender: RevokeRole(sim.aid(b["target"]), ROLE_BY_NAME[b["role"]]),
    ),
    "bootstrap_validators": (
        {"validators"}, set(),
        lambda sim, b, sender: BootstrapValidators(frozenset(sim.aid(n) for n in b["validators"])),
    ),
    "create_proposal": (
        {"action", "electorate"}, set(),
        lambda sim, b, sender: CreateProposal(
            sim._build_payload(b["action"], sender), ROLE_BY_NAME[b["electorate"]]
        ),
    ),
    "cast_vote": (
        {"proposal", "approve"}, set(), lambda sim, b, sender: CastVote(b["proposal"], bool(b["approve"]))
    ),
    "finalize_proposal": ({"proposal"}, set(), lambda sim, b, sender: FinalizeProposal(b["proposal"])),
    "mint": ({"to", "amount"}, set(), lambda sim, b, sender: Mint(sim.aid(b["to"]), b["amount"])),
    "burn": ({"source", "amount"}, set(), lambda sim, b, sender: Burn(sim.aid(b["source"]), b["amount"])),
    "convert_fiat": (
        {"user", "direction", "amount"}, set(),
        lambda sim, b, sender: ConvertFiat(
            sim.aid(b["user"]),
            FiatDirection.IN if b["direction"] == "in" else FiatDirection.OUT,
            b["amount"],
        ),
    ),
    "set_interest_rule": (
        {"rate_num", "rate_den", "period_blocks", "start_height", "mode"},
        {"scope", "rule", "active"},
        _set_interest_rule,
    ),
    "claim_allowance": (
        {"rule", "up_to_period"}, set(), lambda sim, b, sender: ClaimAllowance(b["rule"], b["up_to_period"])
    ),
    "register_endpoints": (
        set(), {"security_gateways", "visibility_gateways", "validation_server", "contact"}, _register_endpoints
    ),
}


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
        payload = {
            "scenario": self.scenario,
            "seed": self.seed,
            "ticks": self.ticks,
            "blocks_produced": self.blocks_produced,
            "skipped_ticks": self.skipped_ticks,
            "assertions": [
                {"tick": a.tick, "kind": a.kind, "ok": a.ok, "detail": a.detail}
                for a in self.assertions
            ],
            "supply": self.supply,
            "balances": self.balances,
            "management_log": self.management_log,
            "compare_results": self.compare_results,
            "state_digest": self.state_digest,
            "head_hash": self.head_hash,
        }
        return json.dumps(payload, sort_keys=True, indent=2)


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
        self.ids: dict[str, bytes] = {}  # stable account ids, fixed at genesis
        self.view_keys: dict[str, KeyPair] = {}
        self.names_by_id: dict[bytes, str] = {}
        self.faults: dict[str, set[str]] = {}
        self.nonces: dict[str, int] = {}
        self.sec_gateways: dict[str, SecurityGateway] = {}
        # names of the security gateways whose pool may hold entries
        self._pooled: set[str] = set()
        self.vis_gateways: dict[str, VisibilityGateway] = {}
        # admitted transactions propagate between validators over the
        # validation-server mesh; this is the post-propagation pool
        self.mempool: dict[bytes, Transaction] = {}
        self.admitted_ids: set[bytes] = set()
        self.stored_tx_ids: dict[str, bytes] = {}
        self.stored_responses: dict[str, list[SignedQueryResponse]] = {}
        self.compare_results: dict[str, str] = {}
        self.assertions: list[AssertionResult] = []
        self.skipped_ticks: list[int] = []
        self.receipts: dict[bytes, Receipt] = {}
        self.blocks_produced = 0
        self._build_genesis()

    # -- construction -------------------------------------------------------

    def _keypair(self, label: str) -> KeyPair:
        return keypair_from_label(self.scenario.scheme, label, self.scenario.seed)

    def aid(self, name: str) -> bytes:
        return self.ids[name]

    def _recovery_from_spec(self, spec: dict | None) -> RecoveryPolicy:
        if spec is None or spec == "provider_only":
            return ProviderOnly()
        if spec == "provider_plus_security":
            return ProviderPlusSecurity()
        if isinstance(spec, dict) and "guardians" in spec:
            guardians = frozenset(self.aid(n) for n in spec["guardians"])
            return Guardians(guardians, spec.get("threshold", len(guardians)))
        raise ScenarioError(f"unknown recovery spec {spec!r}")

    def _policy_value(self, raw) -> int | bytes:
        if isinstance(raw, bool):
            return int(raw)
        if isinstance(raw, int):
            return raw
        if isinstance(raw, dict) and "hex" in raw:
            return bytes.fromhex(raw["hex"])
        if isinstance(raw, dict) and "accounts" in raw:
            return b"".join(self.aid(n) for n in raw["accounts"])
        raise ScenarioError(f"unsupported policy value {raw!r}")

    def _build_genesis(self) -> None:
        scn = self.scenario
        for actor in scn.actors:
            self.keys[actor.name] = self._keypair(actor.name)
            self.faults[actor.name] = set(actor.faults)
            self.nonces[actor.name] = 0
        self.keys["escrow"] = self._keypair("escrow")
        self.faults["escrow"] = set()
        self.nonces["escrow"] = 0
        self.ids = {name: kp.account_id for name, kp in self.keys.items()}
        self.names_by_id = {aid: name for name, aid in self.ids.items()}

        accounts = []
        for actor in scn.actors:
            if not actor.roles:
                continue  # keys only; the account may be created later on-chain
            recovery = self._recovery_from_spec(actor.recovery)
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
        overrides = [
            (
                p["key"],
                self._policy_value(p["value"]),
                PERMANENCE_BY_NAME[p.get("permanence", "temporary")],
                p.get("expiry_height"),
            )
            for p in scn.policies
        ]
        escrow = Account(
            account_id=self.keys["escrow"].account_id,
            public_key=self.keys["escrow"].public_key,
        )
        self.state = build_genesis(scn.scheme, accounts, overrides, escrow)
        self.chain = Chain()

        # every actor gets gateway machinery (it may become a validator later);
        # only genesis validators start with on-chain endpoint registrations
        for actor in scn.actors:
            view = self._keypair(f"{actor.name}.view")
            self.view_keys[actor.name] = view
            aid = self.aid(actor.name)
            self.sec_gateways[actor.name] = SecurityGateway(aid, self.faults[actor.name])
            self.vis_gateways[actor.name] = VisibilityGateway(aid, view, self.faults[actor.name])
            if Role.VALIDATOR in actor.roles:
                self.state.validator_registry[aid] = ValidatorRecord(
                    account=aid,
                    security_gateways=(f"sim://{actor.name}/sec0",),
                    visibility_gateways=(f"sim://{actor.name}/vis0",),
                    validation_server=f"sim://{actor.name}/validation",
                    view_key=view.public_key,
                    contact=f"ops@{actor.name}",
                )

        self.genesis_doc = genesis_doc(self.state, dict(self.ids))

    # -- validators -------------------------------------------------------------

    def _offline(self, validators: list[bytes]) -> frozenset[bytes]:
        """The validators whose actor is marked offline."""
        return frozenset(
            vid for vid in validators if FAULT_OFFLINE in self.faults[self.names_by_id[vid]]
        )

    def _gateway_operators(self) -> list[str]:
        """Names of current validators with registered endpoints."""
        current = set(self.state.validators())
        return sorted(
            self.names_by_id[vid]
            for vid in self.state.validator_registry
            if vid in current
        )

    # -- step execution -------------------------------------------------------

    def _build_payload(self, body: dict, sender: str) -> Payload:
        return TX_STEPS[body["kind"]][2](self, body, sender)

    def _submit_tx(self, sender: str, payload: Payload, tick: int, store: str | None = None) -> None:
        sender_id = self.aid(sender)
        nonce = self.nonces[sender]
        unsigned = Transaction(sender_id, nonce, payload)
        tx = Transaction(sender_id, nonce, payload, self.keys[sender].sign(unsigned.signing_bytes()))
        if self._broadcast(tx, tick):
            self.nonces[sender] += 1
            if store:
                self.stored_tx_ids[store] = tx.tx_id
        # a transaction rejected by every gateway never consumes the nonce

    def _broadcast(self, tx: Transaction, tick: int) -> bool:
        """Submit to every reachable security gateway; propagate on admission."""
        raw = tx.encode()
        accepted_anywhere = False
        for name in self._gateway_operators():
            if FAULT_OFFLINE in self.faults[name]:
                continue
            outcome = self.sec_gateways[name].admit(self.state, raw, tick)
            if isinstance(outcome, Admitted):
                accepted_anywhere = True
                self._pooled.add(name)
        if accepted_anywhere:
            self.admitted_ids.add(tx.tx_id)
            self.mempool[tx.tx_id] = tx
        return accepted_anywhere

    def _run_query(self, body: dict, tick: int) -> None:
        requester = body["as"]
        query = self._build_query(body, requester)
        gateway_names = body.get("gateways") or self._gateway_operators()
        label = body.get("store")
        expect_error = body.get("expect_error")
        expect_int = body.get("expect_int")
        for name in gateway_names:
            if FAULT_OFFLINE in self.faults[name]:
                continue
            gw = self.vis_gateways[name]
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
                got = Reader(response.result).u64()
                self.assertions.append(
                    AssertionResult(
                        tick, "query_int", got == expect_int, f"{name}: expected {expect_int}, got {got}"
                    )
                )
            if label:
                self.stored_responses.setdefault(label, []).append(response)

    def _build_query(self, body: dict, requester: str) -> Query:
        kind = body["kind"]
        account = self.aid(body.get("account", requester))
        if kind == "own_balance":
            return OwnBalance(account)
        if kind == "own_history":
            return OwnHistory(account)
        if kind == "claimable":
            return Claimable(account)
        if kind == "management_log":
            return ManagementLog(body.get("start", 0), body.get("end", 10**9))
        if kind == "supply":
            return SupplyView()
        if kind == "directory":
            return GatewayDirectory()
        if kind == "validation_server":
            return ValidationServerAddress(self.aid(body["validator"]))
        raise ScenarioError(f"unknown query kind {kind!r}")

    def _run_compare(self, body: dict, tick: int) -> None:
        label = body["label"]
        responses = self.stored_responses.get(label, [])
        outcome = "consistent"
        evidence = None
        try:
            evidence = compare_responses(self.state, responses, head=self.state.height)
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
        kind = body["kind"]
        ok, detail = True, ""
        state = self.state
        if kind == "balance":
            got = state.accounts[self.aid(body["account"])].balance
            ok = got == body["equals"]
            detail = f"{body['account']} balance {got} (want {body['equals']})"
        elif kind == "frozen":
            got = state.accounts[self.aid(body["account"])].frozen
            ok = got == bool(body["equals"])
            detail = f"{body['account']} frozen {got}"
        elif kind == "supply":
            for field_name in ("minted", "burned", "circulating"):
                if field_name in body:
                    got = getattr(state.supply, field_name)
                    if got != body[field_name]:
                        ok = False
                    detail += f"{field_name}={got} "
        elif kind == "policy":
            got = state.policy_int(body["key"], -1)
            ok = got == body["equals"]
            detail = f"{body['key']}={got}"
        elif kind == "validators":
            want = sorted(self.aid(n) for n in body["equals"])
            got = state.validators()
            ok = got == want
            detail = f"validators {[self.names_by_id.get(v, v.hex()[:8]) for v in got]}"
        elif kind == "proposal":
            prop = state.proposals.get(body["id"])
            got = prop.status.value if prop else "missing"
            ok = got == body["status"]
            detail = f"proposal {body['id']} {got}"
        elif kind == "log_contains":
            want_kind = body["entry_kind"]
            matches = [e for e in state.management_log() if e.kind == want_kind]
            if "within_last_blocks" in body:
                cutoff = state.height - body["within_last_blocks"]
                matches = [e for e in matches if e.height > cutoff]
            ok = bool(matches) == body.get("present", True)
            detail = f"{want_kind} x{len(matches)}"
        elif kind == "claimable":
            got = claimable_amount(state, self.aid(body["account"]))
            ok = got == body["equals"]
            detail = f"claimable {got}"
        elif kind == "height":
            ok = state.height == body["equals"]
            detail = f"height {state.height}"
        elif kind == "publisher":
            block = next((b for b in self.chain.blocks if b.height == body["height"]), None)
            got = self.names_by_id.get(block.publisher) if block else None
            ok = got == body["equals"]
            detail = f"height {body['height']} publisher {got}"
        elif kind == "compare_result":
            got = self.compare_results.get(body["label"], "missing")
            ok = got == body["equals"]
            detail = f"{body['label']}: {got}"
        self.assertions.append(AssertionResult(tick, kind, ok, detail.strip()))

    # -- the loop ----------------------------------------------------------------

    def _publisher_excludes(self, publisher_name: str, tx: Transaction) -> bool:
        faults = self.faults[publisher_name]
        if FAULT_CENSOR_ALL in faults and tx.sender != self.aid(publisher_name):
            return True
        return FAULT_CENSOR_DISCREPANCY in faults and isinstance(tx.payload, DiscrepancyEvent)

    def _publish_block(self, tick: int) -> None:
        validators = self.state.validators()
        if not validators:
            self.skipped_ticks.append(tick)
            return
        offline = self._offline(validators)
        recent = self.chain.recent_publishers(len(validators))
        try:
            publisher = expected_publisher(
                self.chain.height + 1,
                validators,
                recent,
                self.state.policy_int("consensus.diversity", 50),
                offline,
            )
        except TxError:
            self.skipped_ticks.append(tick)
            return
        name = self.names_by_id[publisher]
        pending = [
            tx for tx in self.mempool.values() if not self._publisher_excludes(name, tx)
        ]
        block = build_block(
            self.keys[name], publisher, self.chain.head, pending, tick, self.state, recent, offline
        )
        receipts = append_block(self.chain, self.state, block, offline)
        self.blocks_produced += 1
        for receipt in receipts:
            self.receipts[receipt.tx_id] = receipt
        included = {tx.tx_id for tx in block.txs}
        if not included <= self.admitted_ids:
            raise InternalInvariantViolation("block carries a transaction no gateway admitted")
        for tx_id in included:
            self.mempool.pop(tx_id, None)
        for name in list(self._pooled):
            gw = self.sec_gateways[name]
            gw.drop_included(included)
            if not gw.pool:
                self._pooled.discard(name)

    def run(self) -> Report:
        by_tick: dict[int, list[Step]] = {}
        for step in self.scenario.steps:
            by_tick.setdefault(step.tick, []).append(step)
        for tick in range(1, self.scenario.ticks + 1):
            steps = by_tick.get(tick, [])
            for step in steps:
                if step.kind == "fault":
                    target = step.body["actor"]
                    self.faults[target].clear()
                    self.faults[target].update(step.body["set"])
                elif step.kind == "tx":
                    payload = self._build_payload(step.body, step.body["from"])
                    self._submit_tx(step.body["from"], payload, tick, step.body.get("store"))
            self._publish_block(tick)
            for step in steps:
                if step.kind == "query":
                    self._run_query(step.body, tick)
                elif step.kind == "compare":
                    self._run_compare(step.body, tick)
                elif step.kind == "assert":
                    self._run_assert(step.body, tick)
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
            blocks_produced=self.blocks_produced,
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
        return export_chain(self.chain, self.genesis_doc)


def run(scenario: Scenario) -> tuple[Report, Simulation]:
    sim = Simulation(scenario)
    report = sim.run()
    return report, sim
