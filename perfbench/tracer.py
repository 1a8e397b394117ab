"""Wrappers the benchmark installs around rolechain's public functions.

Nothing here changes ``src/``: each name is replaced where its caller looks
it up (``rolechain.sim.append_block`` for the sim's call, the scheme
classes for ``verify``/``sign``) and restored afterwards.

``Probes`` is the small set the untraced runs need for their end-to-end
numbers: a clock read after each block commit, a clock read around each
signed read, and a capture of the state ``rolechain verify`` replays.
``Tracer`` records a span around every wrapped call for the traced run.
"""

from __future__ import annotations

import contextlib
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from rolechain import chain, cli, engine, gateway, governance, keys, ledger, monetary, payloads, sim


class _Patches:
    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, make_wrapper) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Probes(_Patches):
    """Clock reads for tick and query latency, and the replayed state."""

    def __init__(self):
        super().__init__()
        self.commits: list[float] = []  # perf_counter after each block commit
        self.queries: list[float] = []  # seconds from challenge to signed answer
        self.query_errors = 0
        self.replayed = None
        self._challenge_at = 0.0

    def reset(self) -> None:
        self.commits, self.queries, self.query_errors, self.replayed = [], [], 0, None

    def install(self) -> None:
        def commit(original):
            def append_block(*args, **kwargs):
                receipts = original(*args, **kwargs)
                self.commits.append(perf_counter())
                return receipts

            return append_block

        def challenge(original):
            def issue_challenge(*args, **kwargs):
                self._challenge_at = perf_counter()
                return original(*args, **kwargs)

            return issue_challenge

        def answer(original):
            def answer_(*args, **kwargs):
                try:
                    return original(*args, **kwargs)
                except Exception:
                    self.query_errors += 1
                    raise
                finally:
                    self.queries.append(perf_counter() - self._challenge_at)

            return answer_

        def capture(original):
            def replay(*args, **kwargs):
                self.replayed = original(*args, **kwargs)
                return self.replayed

            return replay

        self.patch(sim, "append_block", commit)
        self.patch(gateway.VisibilityGateway, "issue_challenge", challenge)
        self.patch(gateway.VisibilityGateway, "answer", answer)
        self.patch(cli, "replay", capture)


# (owner, attribute, span name, classifier of a successful result)
TRACED = [
    (sim.Simulation, "run", "sim.run", None),
    (sim, "build_block", "chain.build_block", None),
    (sim, "append_block", "chain.append_block", None),
    (sim, "genesis_doc", "chain.genesis_doc", None),
    (sim, "export_chain", "chain.export_chain", None),
    (sim, "compare_responses", "gateway.compare_responses", None),
    (sim, "file_discrepancy", "gateway.file_discrepancy", None),
    (sim, "sign_request", "gateway.sign_request", None),
    (chain, "validate_block", "chain.validate_block", None),
    (chain, "append_block", "chain.append_block", None),
    (chain, "decode_transaction", "payloads.decode_transaction", None),
    (cli, "import_chain", "chain.import_chain", None),
    (cli, "replay", "chain.replay", None),
    (engine, "apply_transaction", "engine.apply_transaction", lambda receipt: receipt.ok),
    (engine, "run_accruals", "engine.run_accruals", None),
    (engine, "finalize_expired_proposals", "engine.finalize_expired_proposals", None),
    (monetary, "accrue_period", "monetary.accrue_period", None),
    (governance, "finalize_proposal", "governance.finalize_proposal", None),
    (ledger.LedgerState, "validators", "ledger.validators", None),
    (ledger.LedgerState, "conservation_holds", "ledger.conservation_holds", None),
    (ledger.LedgerState, "management_log", "ledger.management_log", None),
    (ledger.LedgerState, "digest", "ledger.digest", None),
    (gateway, "get_history", "ledger.get_history", None),
    (gateway, "compute_result", "gateway.compute_result", None),
    (gateway, "decode_transaction", "payloads.decode_transaction", None),
    (gateway.SecurityGateway, "admit", "gateway.admit", lambda outcome: isinstance(outcome, gateway.Admitted)),
    (gateway.SecurityGateway, "drop_included", "gateway.drop_included", None),
    (gateway.VisibilityGateway, "answer", "gateway.answer", None),
    (keys.MockScheme, "verify", "keys.verify", None),
    (keys.MockScheme, "sign", "keys.sign", None),
    (keys.Ed25519Scheme, "verify", "keys.verify", None),
    (keys.Ed25519Scheme, "sign", "keys.sign", None),
    (payloads, "tx_signing_bytes", "payloads.tx_signing_bytes", None),
]

# span fields
NAME, START, END, PARENT, RUN_ID, OK = range(6)


class Tracer(_Patches):
    """Spans (name, start, end, parent index, run id, ok) kept in memory."""

    def __init__(self):
        super().__init__()
        self.spans: list[list] = []
        self.run_id = 0
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[END] = perf_counter()
        self._stack.pop()

    def _wrapper(self, name: str, classify):
        def make(original):
            def traced(*args, **kwargs):
                span = self._open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self._close(span)
                if classify is not None:
                    span[OK] = classify(result)
                return result

            return traced

        return make

    def install(self) -> None:
        for owner, attr, name, classify in TRACED:
            self.patch(owner, attr, self._wrapper(name, classify))

    @contextlib.contextmanager
    def phase(self, name: str):
        """A root span for one of the benchmark's own phases."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def discard(self, run_id: int) -> None:
        """Drop the spans of one repetition once its metrics are taken."""
        first = next((i for i, s in enumerate(self.spans) if s[RUN_ID] == run_id), len(self.spans))
        del self.spans[first:]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for s in self.spans:
                record = {"name": s[NAME], "start": s[START], "end": s[END], "parent": s[PARENT], "run": s[RUN_ID]}
                out.write(json.dumps(record) + "\n")

    def aggregate(self, run_id: int) -> dict:
        """Per (phase, name): calls, busy seconds, self seconds, ok results.

        A span's phase is the name of its root span; its self time is its
        duration minus that of its direct children.  Also counts
        ``keys.verify`` calls per (phase, caller span name).
        """
        spans = self.spans
        first = next(i for i, s in enumerate(spans) if s[RUN_ID] == run_id)
        children = defaultdict(float)
        phase: dict[int, str] = {}
        for i in range(first, len(spans)):
            s = spans[i]
            if s[RUN_ID] != run_id:
                break
            if s[PARENT] >= 0:
                children[s[PARENT]] += s[END] - s[START]
                phase[i] = phase[s[PARENT]]
            else:
                phase[i] = s[NAME]
        stats: dict = defaultdict(lambda: [0, 0.0, 0.0, 0])
        verify_callers: dict = defaultdict(int)
        for i, ph in phase.items():
            s = spans[i]
            entry = stats[(ph, s[NAME])]
            duration = s[END] - s[START]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - children[i]
            entry[3] += bool(s[OK])
            if s[NAME] == "keys.verify" and s[PARENT] >= 0:
                verify_callers[(ph, spans[s[PARENT]][NAME])] += 1
        return {"stats": stats, "verify_callers": verify_callers}


# the write path: signature checks made while admitting, validating or
# applying a transaction, as opposed to those made for signed reads
WRITE_PATH_CALLERS = ("gateway.admit", "chain.validate_block", "engine.apply_transaction")
MODULES = ("chain", "engine", "gateway", "governance", "keys", "ledger", "monetary", "payloads")

RUN, SETUP, EXPORT, VERIFY = "sim.run", "bench.setup", "bench.export", "cli.verify"


def layer_metrics(agg: dict, committed: int, blocks: int, max_txs_per_block: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced repetition, as name -> (value, unit).

    Unprefixed names are measured inside ``Simulation.run``; ``verify.``
    names inside ``rolechain verify``.
    """
    stats, callers = agg["stats"], agg["verify_callers"]

    def calls(name, phase=RUN):
        return stats[(phase, name)][0]

    def busy(name, phase=RUN):
        return stats[(phase, name)][1]

    def ratio(name):
        n = calls(name)
        return stats[(RUN, name)][3] / n if n else 0.0

    def write_path_verifies(phase):
        return sum(callers[(phase, c)] for c in WRITE_PATH_CALLERS)

    m: dict[str, tuple[float, str]] = {}
    for name in ("ledger.validators", "gateway.drop_included", "gateway.admit", "keys.verify", "keys.sign",
                 "payloads.tx_signing_bytes", "payloads.decode_transaction", "engine.apply_transaction",
                 "monetary.accrue_period", "governance.finalize_proposal", "gateway.answer"):
        m[f"{name}.calls"] = (calls(name), "count")
    for name in ("ledger.validators", "ledger.conservation_holds", "gateway.drop_included", "gateway.admit",
                 "keys.verify", "keys.sign", "payloads.tx_signing_bytes", "payloads.decode_transaction",
                 "chain.build_block", "chain.validate_block", "engine.apply_transaction", "engine.run_accruals",
                 "engine.finalize_expired_proposals", "monetary.accrue_period", "governance.finalize_proposal",
                 "gateway.answer", "gateway.compute_result", "gateway.compare_responses",
                 "ledger.management_log", "ledger.get_history"):
        m[f"{name}.s"] = (busy(name), "s")
    m["gateway.admit.accept_ratio"] = (ratio("gateway.admit"), "ratio")
    m["engine.receipt_ok_ratio"] = (ratio("engine.apply_transaction"), "ratio")
    m["keys.verify_per_tx"] = (write_path_verifies(RUN) / committed, "1/tx")
    m["payloads.tx_signing_bytes_per_tx"] = (calls("payloads.tx_signing_bytes") / committed, "1/tx")
    m["chain.append_block.self_s"] = (stats[(RUN, "chain.append_block")][2], "s")
    m["chain.block_fill"] = (committed / blocks / max_txs_per_block, "ratio")
    m["chain.genesis_doc.s"] = (busy("chain.genesis_doc", SETUP), "s")
    m["chain.export_chain.s"] = (busy("chain.export_chain", EXPORT), "s")
    m["chain.import_chain.s"] = (busy("chain.import_chain", VERIFY), "s")
    m["chain.replay.s"] = (busy("chain.replay", VERIFY), "s")
    m["ledger.digest.s"] = (busy("ledger.digest", VERIFY), "s")
    m["verify.keys.verify_per_tx"] = (write_path_verifies(VERIFY) / committed, "1/tx")
    m["verify.keys.verify.s"] = (busy("keys.verify", VERIFY), "s")
    m["verify.chain.validate_block.s"] = (busy("chain.validate_block", VERIFY), "s")
    m["verify.engine.apply_transaction.s"] = (busy("engine.apply_transaction", VERIFY), "s")
    m["sim.self_s"] = (stats[(RUN, "sim.run")][2], "s")
    for module in MODULES:
        self_s = sum(v[2] for (ph, name), v in stats.items() if ph == RUN and name.startswith(module + "."))
        m[f"{module}.self_s"] = (self_s, "s")
    return m
