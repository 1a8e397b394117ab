"""Seeded scenario generator for the rolechain benchmark.

``generate(workload, seed)`` returns a scenario dict that
``rolechain.sim.parse_scenario`` accepts, plus an ``Expected`` record of
what a correct run must produce.  The generator keeps its own model of
balances, allowances, supply and token buckets, so it predicts every
admission outcome, every failed receipt and the supply at each checkpoint
without running the program.  The program sees only the scenario dict.

Traffic shape, per tick:

- ``transfers_per_tick`` transfers of 1..1000 units from distinct random
  users to random users.  Every user holds 10**9 units and sends at most
  once per tick, so no regular transfer fails and no token bucket drains;
- ``reads_per_tick`` signed reads by random users, cycling through
  ``read_kinds``; every online visibility gateway answers each one;
- every 5 ticks, one ``own_balance`` read is stored and
  compared three ticks later, once its answers are past the delay window;
- every ``proposal_every`` ticks, a platform-manager proposal that two of
  three managers approve and that auto-finalizes when its window closes;
- a pull-mode interest rule from tick 1 over ``interest_scope`` users (all
  users when None), accruing every 10 blocks, with ``claims_per_tick``
  claims of accrued periods;
- every ``burst_every`` ticks, one sender submits 15 transfers
  in one tick, so the bucket admits its capacity and refuses the rest;
- every ``overdraft_every`` ticks, one transfer above any balance, which
  is committed with a failed receipt.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

USER_BALANCE = 10**9
OVERDRAFT_AMOUNT = 10**15  # above the whole supply, so it always fails
RATE_NUM, RATE_DEN = 1, 1000
BUCKET_CAPACITY = 10  # the genesis ``rate.capacity`` policy
DELAY_BLOCKS = 3  # the genesis ``gateway.delay_blocks`` policy
MANAGERS = ("mgr0", "mgr1", "mgr2")
COMPARE_EVERY = 5  # ticks between stored reads that are compared
INTEREST_PERIOD = 10  # blocks per accrual period
BURST_SIZE = 15  # transfers in one burst; the bucket admits its capacity
ASSERT_EVERY = 10  # ticks between height/supply/validators asserts


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    accounts: int
    validators: int
    scheme: str
    ticks: int
    transfers_per_tick: int
    reads_per_tick: int
    read_kinds: tuple[str, ...] = ("own_balance", "own_history")
    corrupt_validator: bool = False
    offline_stretch: tuple[int, int] | None = None
    proposal_every: int = 20
    interest_scope: int | None = 8
    claims_per_tick: int = 0
    burst_every: int = 0
    overdraft_every: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="transfer_10k_mock",
            why="10k accounts, mock scheme, transfers only: costs that scale with "
            "account count dominate (validator rescans, per-actor drop_included, "
            "conservation sum); signatures cost almost nothing",
            accounts=10_000,
            validators=4,
            scheme="mock",
            ticks=15,
            transfers_per_tick=100,
            reads_per_tick=2,
        ),
        Workload(
            name="transfer_1k_ed25519",
            why="1k accounts, ed25519, same traffic shape: signature verification "
            "dominates and account scans are 10x smaller",
            accounts=1_000,
            validators=4,
            scheme="ed25519",
            ticks=15,
            transfers_per_tick=100,
            reads_per_tick=2,
        ),
        Workload(
            name="mixed_1k_faults",
            why="1k accounts, 5 validators: reads of every kind, comparator evidence "
            "against a lying validator, an offline validator, votes, accruals, "
            "throttling and failed transfers",
            accounts=1_000,
            validators=5,
            scheme="mock",
            ticks=40,
            transfers_per_tick=50,
            reads_per_tick=10,
            read_kinds=("own_balance", "own_history", "claimable", "management_log", "supply"),
            corrupt_validator=True,
            offline_stretch=(10, 25),
            proposal_every=4,
            interest_scope=None,
            claims_per_tick=5,
            burst_every=10,
            overdraft_every=3,
        ),
    )
}


@dataclass
class Expected:
    """What a correct run of the generated scenario produces."""

    tx_attempts: int = 0  # transactions the sim signs and broadcasts
    committed: int = 0  # of those, admitted and included in a block
    refused: int = 0  # refused by every security gateway
    failed_receipts: int = 0  # committed with a failed receipt
    reads: int = 0  # gateway answers to signed reads
    read_errors: int = 0
    blocks: int = 0
    assertions: int = 0


class _Model:
    """Balances, allowances and supply as the ledger must evolve them."""

    def __init__(self, users: list[str]):
        self.balance = {u: USER_BALANCE for u in users}
        self.accrued: dict[str, list[int]] = {u: [] for u in users}  # amount per period
        self.claimed: dict[str, int] = {u: 0 for u in users}  # last claimed period
        self.minted = USER_BALANCE * len(users)

    def transfer(self, sender: str, to: str, amount: int) -> bool:
        if self.balance[sender] < amount:
            return False
        self.balance[sender] -= amount
        self.balance[to] += amount
        return True

    def accrue(self, scope: list[str]) -> None:
        for user in scope:
            amount = RATE_NUM * self.balance[user] // RATE_DEN
            self.accrued[user].append(amount)
            self.minted += amount

    def claim(self, user: str, up_to: int) -> None:
        self.balance[user] += sum(self.accrued[user][self.claimed[user] : up_to])
        self.claimed[user] = up_to

    def unclaimed(self, user: str) -> int:
        return sum(self.accrued[user][self.claimed[user] :])


class _Buckets:
    """Token buckets of every security gateway, one per (gateway, sender)."""

    def __init__(self):
        self.tokens: dict[tuple[str, str], tuple[int, int]] = {}

    def take(self, gateway: str, sender: str, tick: int) -> bool:
        tokens, last = self.tokens.get((gateway, sender), (BUCKET_CAPACITY, tick))
        tokens = min(BUCKET_CAPACITY, tokens + max(0, tick - last))
        ok = tokens >= 1
        self.tokens[(gateway, sender)] = (tokens - 1 if ok else tokens, max(last, tick))
        return ok


def generate(workload: Workload, seed: int) -> tuple[dict, Expected]:
    """The scenario dict for ``(workload, seed)`` and its expected outcome."""
    rng = random.Random(f"{workload.name}:{seed}")
    w = workload
    users = [f"u{i}" for i in range(w.accounts)]
    extras = ["auditor"] + (["burst"] if w.burst_every else [])
    validators = [f"v{i}" for i in range(w.validators)]
    corrupt = validators[-1] if w.corrupt_validator else None
    offline = validators[-2] if w.offline_stretch else None

    actors = [{"name": m, "roles": ["platform_manager"]} for m in MANAGERS]
    actors.append({"name": "bank", "roles": ["currency_manager"]})
    for v in validators:
        actor = {"name": v, "roles": ["validator"]}
        if v == corrupt:
            actor["faults"] = ["corrupt_results"]
        actors.append(actor)
    for u in users + extras:
        actors.append({"name": u, "roles": ["user"], "balance": USER_BALANCE})

    model = _Model(users + extras)
    buckets = _Buckets()
    scope = sorted(users + extras) if w.interest_scope is None else users[: w.interest_scope]
    expected = Expected()
    steps: list[dict] = []
    down: set[str] = set()
    proposals = 0
    read_counter = 0
    pending_evidence = 0  # filed after a block, committed in the next one
    compares: dict[int, str] = {}  # due tick -> stored read label

    def online() -> list[str]:
        return [v for v in validators if v not in down]

    def submit(tick: int, body: dict) -> bool:
        steps.append({"tick": tick, "tx": body})
        expected.tx_attempts += 1
        admitted = False
        for v in online():  # the sim offers it to every online gateway
            admitted = buckets.take(v, body["from"], tick) or admitted
        if admitted:
            expected.committed += 1
        else:
            expected.refused += 1
        return admitted

    def read(tick: int, body: dict) -> None:
        steps.append({"tick": tick, "query": body})
        expected.reads += len(online())

    last_accrued = 0
    for tick in range(1, w.ticks + 1):
        expected.committed += pending_evidence
        pending_evidence = 0
        if w.offline_stretch and tick in w.offline_stretch:
            going_down = tick == w.offline_stretch[0]
            steps.append({"tick": tick, "fault": {"actor": offline, "set": ["offline"] if going_down else []}})
            (down.add if going_down else down.discard)(offline)

        # -- submissions, in the order the sim broadcasts them
        if tick == 1:
            rule = {
                "from": "bank",
                "kind": "set_interest_rule",
                "rate_num": RATE_NUM,
                "rate_den": RATE_DEN,
                "period_blocks": INTEREST_PERIOD,
                "start_height": 1,
                "mode": "pull",
            }
            if w.interest_scope is not None:
                rule["scope"] = scope
            submit(tick, rule)
        if w.proposal_every and tick % w.proposal_every == 2 % w.proposal_every:
            proposals += 1
            submit(
                tick,
                {
                    "from": MANAGERS[0],
                    "kind": "create_proposal",
                    "electorate": "platform_manager",
                    "action": {"kind": "set_policy", "key": "bench.round", "value": proposals},
                },
            )
        if w.proposal_every and proposals and tick % w.proposal_every == 3 % w.proposal_every:
            for voter in MANAGERS[1:]:
                submit(tick, {"from": voter, "kind": "cast_vote", "proposal": proposals, "approve": True})

        claimable_period = last_accrued  # boundaries strictly before this block
        claimers = [u for u in scope if u in model.claimed and model.claimed[u] < claimable_period]
        n_claims = min(w.claims_per_tick, len(claimers))
        n_overdraft = 1 if w.overdraft_every and tick % w.overdraft_every == 0 else 0
        senders = rng.sample(users, w.transfers_per_tick + n_overdraft + n_claims)
        claim_senders = set()
        if n_claims:
            # claimers must be distinct from the tick's transfer senders
            free = [u for u in claimers if u not in senders[: w.transfers_per_tick + n_overdraft]]
            claim_senders = set(rng.sample(free, min(n_claims, len(free))))
        for sender in senders[: w.transfers_per_tick]:
            to = rng.choice(users)
            while to == sender:
                to = rng.choice(users)
            amount = rng.randint(1, 1000)
            if submit(tick, {"from": sender, "kind": "transfer", "to": to, "amount": amount}):
                model.transfer(sender, to, amount)
        for sender in senders[w.transfers_per_tick : w.transfers_per_tick + n_overdraft]:
            to = rng.choice(users)
            if submit(tick, {"from": sender, "kind": "transfer", "to": to, "amount": OVERDRAFT_AMOUNT}):
                if not model.transfer(sender, to, OVERDRAFT_AMOUNT):
                    expected.failed_receipts += 1
        for sender in sorted(claim_senders):
            if submit(tick, {"from": sender, "kind": "claim_allowance", "rule": 1, "up_to_period": claimable_period}):
                model.claim(sender, claimable_period)
        if w.burst_every and tick % w.burst_every == 5 % w.burst_every:
            for _ in range(BURST_SIZE):
                to = rng.choice(users)
                if submit(tick, {"from": "burst", "kind": "transfer", "to": to, "amount": 1}):
                    model.transfer("burst", to, 1)

        # -- the tick's block: accruals fire after its transactions
        expected.blocks += 1
        if tick > 1 and (tick - 1) % INTEREST_PERIOD == 0:
            model.accrue(scope)
            last_accrued += 1

        # -- reads, compares and asserts run after the block
        for _ in range(w.reads_per_tick):
            kind = w.read_kinds[read_counter % len(w.read_kinds)]
            read_counter += 1
            read(tick, {"as": rng.choice(users), "kind": kind})
        if tick % COMPARE_EVERY == 0 and tick + DELAY_BLOCKS < w.ticks:
            read(tick, {"as": rng.choice(users), "kind": "own_balance", "store": f"q{tick}"})
            compares[tick + DELAY_BLOCKS] = f"q{tick}"
        if tick in compares:
            label = compares.pop(tick)
            compare = {"label": label, "expect": "evidence" if corrupt else "consistent"}
            expected.assertions += 1
            if corrupt:
                compare["file_as"] = "auditor"
                expected.tx_attempts += 1
                admitted = False
                for v in online():
                    admitted = buckets.take(v, "auditor", tick) or admitted
                if not admitted:
                    raise ValueError("evidence filing would be throttled")
                pending_evidence += 1
            steps.append({"tick": tick, "compare": compare})
            if corrupt:
                steps.append({"tick": tick, "assert": {"kind": "compare_result", "label": label, "equals": "evidence"}})
                expected.assertions += 1
        if tick % ASSERT_EVERY == 0 or tick == w.ticks:
            checks = [
                {"kind": "height", "equals": tick},
                {"kind": "supply", "minted": model.minted, "burned": 0, "circulating": model.minted},
                {"kind": "validators", "equals": validators},
            ]
            if tick == w.ticks:
                for user in rng.sample(scope, min(3, len(scope))):
                    checks.append({"kind": "balance", "account": user, "equals": model.balance[user]})
                    checks.append({"kind": "claimable", "account": user, "equals": model.unclaimed(user)})
            for check in checks:
                steps.append({"tick": tick, "assert": check})
            expected.assertions += len(checks)

    if pending_evidence:
        raise ValueError("evidence filed on the last tick would never be committed")
    scenario = {
        "name": f"{w.name}-seed{seed}",
        "seed": seed,
        "scheme": w.scheme,
        "ticks": w.ticks,
        "policies": [{"key": "interest.requires_vote", "value": 0}],
        "actors": actors,
        "steps": steps,
    }
    return scenario, expected
