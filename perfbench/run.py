"""rolechain benchmark: seeded scenarios through the sim, then ``rolechain verify``.

One workload, with the arguments the command in BENCHMARK.json takes:

    python3 perfbench/run.py --workload transfer_10k_mock --seed 1 --seconds 40 --trace 0

Every workload, untraced and traced, with a results file:

    python3 perfbench/run.py --seed 1 --out results.json

Two results files side by side, one row per workload:

    python3 perfbench/run.py --compare old.json new.json

A run repeats one generated scenario (set-up, ``Simulation.run``, export,
``rolechain verify``) until ``--seconds`` have passed, checks every
repetition against the generator's predictions, and prints each metric
with its unit.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  A run that fails a check prints no metrics and exits 1.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
sys.path.insert(0, str(ROOT / "src"))

try:
    from rolechain import cli
    from rolechain.sim import Simulation, parse_scenario
except ImportError as exc:  # run outside a rolechain checkout
    print(f"perfbench: cannot import rolechain from {ROOT / 'src'}: {exc}", file=sys.stderr)
    sys.exit(2)

from scenario_gen import WORKLOADS, Expected, Workload, generate  # noqa: E402
from tracer import Probes, Tracer, layer_metrics  # noqa: E402

DEFAULT_SECONDS = 40
MIN_SETUPS = 5  # set-up samples behind the setup_s median
REFERENCE_SAMPLES = 40  # reference_work() timings after each repetition
# fastest reference_work() on the reference machine (2 vCPU x86_64 VM,
# Python 3.11); timings are scaled to a machine that runs it this fast
REFERENCE_S = 0.00085


class _Node:
    __slots__ = ("key", "value", "children")

    def __init__(self, key: bytes, value: int):
        self.key, self.value, self.children = key, value, []


def reference_work() -> int:
    """A fixed slice of object, dict and list work that no rolechain change touches."""
    nodes: dict[bytes, _Node] = {}
    for i in range(1_500):
        node = nodes[i.to_bytes(4, "big")] = _Node(i.to_bytes(4, "big"), i)
        parent = nodes.get((i // 2).to_bytes(4, "big"))
        if parent is not None and parent is not node:
            parent.children.append(node)
    return len(sorted(nodes))


def time_reference(samples: list[float]) -> None:
    for _ in range(REFERENCE_SAMPLES):
        start = perf_counter()
        reference_work()
        samples.append(perf_counter() - start)


@dataclass
class Rep:
    """One repetition of a workload's scenario."""

    setup_s: float
    run_s: float
    verify_s: float
    committed: int
    ticks_ms: list[float]  # between consecutive block commits
    tail_ms: float  # from the last commit to the end of the run
    queries_ms: list[float]
    attempted: int  # transactions broadcast plus gateway answers to reads
    failed_ops: int  # refused everywhere, failed receipt, or read error
    mismatches: int  # outcomes that differ from the generator's prediction
    problems: list[str] = field(default_factory=list)
    layers: dict | None = None

    def rescale(self, scale: float) -> None:
        """Convert every timing to reference-machine seconds."""
        self.setup_s *= scale
        self.run_s *= scale
        self.verify_s *= scale
        self.ticks_ms = [t * scale for t in self.ticks_ms]
        self.tail_ms *= scale
        self.queries_ms = [q * scale for q in self.queries_ms]
        if self.layers:
            self.layers = {k: (v * scale if u == "s" else v, u) for k, (v, u) in self.layers.items()}


def _verify(dump_path: Path) -> tuple[int, str]:
    """``rolechain verify DUMP`` in-process; its exit code and output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            cli.main.main(args=["verify", str(dump_path)], prog_name="rolechain", standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def run_rep(raw: dict, expected: Expected, probes: Probes, tracer: Tracer | None, dump_path: Path) -> Rep:
    gc.collect()
    probes.reset()

    def phase(name: str):
        return tracer.phase(name) if tracer else contextlib.nullcontext()

    if tracer is not None:
        tracer.install()
    try:
        started = perf_counter()
        with phase("bench.setup"):
            sim = Simulation(parse_scenario(raw))
        run_start = perf_counter()
        report = sim.run()
        run_end = perf_counter()
        with phase("bench.export"):
            dump = sim.export()
        dump_path.write_bytes(dump)
        verify_start = perf_counter()
        with phase("cli.verify"):
            code, verify_out = _verify(dump_path)
        verify_end = perf_counter()
    finally:
        if tracer is not None:
            tracer.restore()
    dump_path.unlink()

    commits = [run_start] + probes.commits
    committed_txs = [tx for block in sim.chain.blocks for tx in block.txs]
    filed = sum(
        1
        for step in raw["steps"]
        if "compare" in step
        and "file_as" in step["compare"]
        and report.compare_results.get(step["compare"]["label"]) == "evidence"
    )
    attempts = sum(1 for step in raw["steps"] if "tx" in step) + filed
    refused = attempts - len(sim.admitted_ids)
    failed_receipts = sum(1 for tx in committed_txs if not sim.receipts[tx.tx_id].ok)
    reads = len(probes.queries)

    problems = [f"assertion failed at tick {a.tick}: {a.kind} {a.detail}" for a in report.assertions if not a.ok]
    if len(report.assertions) != expected.assertions:
        problems.append(f"{len(report.assertions)} assertions evaluated, {expected.assertions} expected")
    if code != 0:
        problems.append(f"rolechain verify exited {code}: {verify_out.strip()}")
    elif probes.replayed is None or probes.replayed[1].digest().hex() != report.state_digest:
        problems.append("replayed state digest differs from the report's state_digest")
    mismatches = len(problems)
    for what, got, want in (
        ("blocks", report.blocks_produced, expected.blocks),
        ("committed transactions", len(committed_txs), expected.committed),
        ("refused transactions", refused, expected.refused),
        ("failed receipts", failed_receipts, expected.failed_receipts),
        ("read answers", reads, expected.reads),
        ("read errors", probes.query_errors, expected.read_errors),
    ):
        if got != want:
            problems.append(f"{what}: {got}, generator predicts {want}")
            mismatches += abs(got - want)

    layers = None
    if tracer is not None and committed_txs:
        max_txs = sim.state.policy_int("consensus.max_txs_per_block", 1000)
        layers = layer_metrics(tracer.aggregate(tracer.run_id), len(committed_txs), report.blocks_produced, max_txs)
        layers["codec.wire_bytes_per_tx"] = (sum(len(tx.encode()) for tx in committed_txs) / len(committed_txs), "B/tx")
        layers["codec.dump_bytes_per_tx"] = (len(dump) / len(committed_txs), "B/tx")
    return Rep(
        setup_s=run_start - started,
        run_s=run_end - run_start,
        verify_s=verify_end - verify_start,
        committed=len(committed_txs),
        ticks_ms=[(b - a) * 1e3 for a, b in zip(commits, commits[1:])],
        tail_ms=(run_end - commits[-1]) * 1e3,
        queries_ms=[q * 1e3 for q in probes.queries],
        attempted=attempts + reads,
        failed_ops=refused + failed_receipts + probes.query_errors,
        mismatches=mismatches,
        problems=problems,
        layers=layers,
    )


def p90(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def fastest(reps: list[Rep]) -> tuple[float, list[float], list[float]]:
    """Run seconds, tick and query times, each taken from its fastest repetition.

    Every repetition runs the same scenario, so the k-th tick (or read) does
    the same work in each.  As with ``timeit``, slower repeats of the same work
    measure interference from other processes, not the program; the fastest
    one is kept.
    """
    ticks = [min(r.ticks_ms[k] for r in reps) for k in range(len(reps[0].ticks_ms))]
    queries = [min(r.queries_ms[k] for r in reps) for k in range(len(reps[0].queries_ms))]
    run_s = (sum(ticks) + min(r.tail_ms for r in reps)) / 1e3
    return run_s, ticks, queries


def end_to_end(plain: list[Rep], setups: list[float]) -> tuple[dict, list[str]]:
    """End-to-end metrics of untraced repetitions, with how each was sampled."""
    run_s, ticks, queries = fastest(plain)
    committed = plain[0].committed
    attempted = sum(r.attempted for r in plain)
    failed = sum(r.failed_ops for r in plain)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "commit_tx_per_s": (committed / run_s, "tx/s"),
        "tick_ms_p50": (statistics.median(ticks), "ms"),
        "tick_ms_p90": (p90(ticks), "ms"),
        "query_ms_p50": (statistics.median(queries), "ms"),
        "query_ms_p90": (p90(queries), "ms"),
        "verify_tx_per_s": (committed / min(r.verify_s for r in plain), "tx/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ops_share": ((attempted - failed) / attempted, "ratio"),
    }
    all_ticks = [t for r in plain for t in r.ticks_ms]
    notes = [
        f"setup_s: median of {len(setups)} set-ups",
        f"commit, tick, query and verify times: fastest of {len(plain)} repetitions, "
        f"over {len(ticks)} ticks and {len(queries)} signed reads",
        f"every repetition: commit_tx_per_s median {statistics.median(r.committed / r.run_s for r in plain):.6g}, "
        f"tick_ms p50 {statistics.median(all_ticks):.6g} p90 {p90(all_ticks):.6g} over {len(all_ticks)} ticks",
        f"failed_ops_share: {failed / attempted:.6f} ({failed} of {attempted} operations refused, "
        "failed on-chain or errored)",
    ]
    return metrics, notes


def per_layer(traced: list[Rep], plain: list[Rep]) -> tuple[dict, list[str], list[str]]:
    """Per-layer metrics: medians of times, and counts that must repeat exactly."""
    metrics, problems = {}, []
    for name, (value, unit) in traced[0].layers.items():
        values = [r.layers[name][0] for r in traced]
        if unit == "s":
            value = statistics.median(values)
        elif any(v != value for v in values):
            problems.append(f"{name} differs between traced repetitions: {values}")
        metrics[name] = (value, unit)
    metrics["trace.overhead_ratio"] = (fastest(plain)[0] / fastest(traced)[0], "ratio")
    notes = [
        f"per-layer times: median of {len(traced)} traced repetitions; "
        f"trace.overhead_ratio: traced / untraced commit_tx_per_s, fastest of {len(traced)} and {len(plain)}"
    ]
    return metrics, notes, problems


def measure(workload: Workload, seed: int, seconds: float, trace: bool, out_dir: Path = OUT_DIR) -> dict:
    """Repeat the workload's scenario for ``seconds``; the result line as a dict."""
    raw, expected = generate(workload, seed)
    out_dir.mkdir(exist_ok=True)
    dump_path = out_dir / f"dump-{workload.name}-{seed}.bin"
    probes, tracer = Probes(), Tracer() if trace else None
    plain: list[Rep] = []
    traced: list[Rep] = []
    crash: list[str] = []
    references: list[float] = []
    started = perf_counter()
    time_reference(references)
    probes.install()
    try:
        while True:
            traced_turn = trace and len(traced) < len(plain)
            if traced_turn:
                tracer.run_id = len(traced)
            try:
                rep = run_rep(raw, expected, probes, tracer if traced_turn else None, dump_path)
            except Exception:  # a crash of the program is a failed run, reported like any other
                crash = [traceback.format_exc()]
                break
            if traced_turn and tracer.run_id > 0:
                tracer.discard(tracer.run_id)  # only the first traced repetition is written out
            (traced if traced_turn else plain).append(rep)
            time_reference(references)
            elapsed = perf_counter() - started
            # stop before a repetition that would end after the deadline
            if rep.problems or (elapsed * (1 + 1 / len(plain + traced)) > seconds and (traced or not trace)):
                break
        setups = [r.setup_s for r in plain]
        while not trace and not crash and not plain[-1].problems and len(setups) < MIN_SETUPS:
            gc.collect()
            start = perf_counter()
            Simulation(parse_scenario(raw))
            setups.append(perf_counter() - start)
    finally:
        probes.restore()

    reps = plain + traced
    problems = crash + [p for r in reps for p in r.problems]
    # The machine's speed drifts by tens of percent over minutes.  The fastest
    # reference_work() of the run moves with the fastest repetitions of the
    # program, so dividing by it leaves the program's own speed.
    scale = REFERENCE_S / min(references)
    unscaled = fastest(plain)[0] if plain and not problems else 0.0
    for r in reps:
        r.rescale(scale)
    setups = [s * scale for s in setups]
    metrics: dict = {}
    notes: list[str] = []
    if not problems:
        if trace:
            metrics, notes, problems = per_layer(traced, plain)
        else:
            metrics, notes = end_to_end(plain, setups)
            notes.insert(0, f"timings in reference-machine seconds: measured times x {scale:.4f}; unscaled "
                            f"commit_tx_per_s {plain[0].committed / unscaled:.6g}")
    result = {
        "correct": not problems,
        "attempted": max(1, sum(r.attempted for r in reps)),
        "failed": sum(r.mismatches for r in reps) + len(crash),
        "metrics": {} if problems else {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if tracer is not None:
        tracer.write(out_dir / f"trace-{workload.name}-seed{seed}.jsonl")

    print(f"workload {workload.name} seed {seed} trace {int(trace)}: {len(plain)} untraced and "
          f"{len(traced)} traced repetitions in {perf_counter() - started:.1f} s")
    for problem in problems[:20]:
        print(f"  FAILED CHECK: {problem}")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")
    for note in notes:
        print(f"  ({note})")
    return result


def run_suite(seed: int, seconds: float, out: Path | None) -> int:
    """Every workload, untraced then traced, each in its own process."""
    results: dict = {"seed": seed, "seconds": seconds, "workloads": {}}
    status = 0
    for workload in WORKLOADS:
        merged = {"correct": True, "metrics": {}}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]) if lines else proc.stderr, flush=True)
            try:
                outcome = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                outcome = {"correct": False, "metrics": {}}
            merged["correct"] = merged["correct"] and outcome["correct"] and proc.returncode == 0
            merged["metrics"].update(outcome["metrics"])
        results["workloads"][workload] = merged
        status = status or (0 if merged["correct"] else 1)
    if out is not None:
        out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
        print(f"results written to {out}")
    return status


def compare(old_path: Path, new_path: Path) -> int:
    """One row per workload: each metric's change from OLD to NEW."""
    old, new = (json.loads(Path(p).read_text())["workloads"] for p in (old_path, new_path))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in sorted(set(old) | set(new)):
        a = old.get(workload, {}).get("metrics", {})
        b = new.get(workload, {}).get("metrics", {})
        cells = []
        for name in [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]:
            if name not in a or name not in b or not a[name]["value"]:
                continue
            change = b[name]["value"] / a[name]["value"] - 1
            worse = -change if better[name] == "higher" else change
            flag = "!" if name in bound and worse > bound[name] else ""
            cells.append(f"{name} {a[name]['value']:.4g}->{b[name]['value']:.4g} {a[name]['unit']} ({change:+.1%}){flag}")
        print(f"{workload}: " + "; ".join(cells))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="one workload; all when omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="results file of a run over every workload")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        return run_suite(args.seed, args.seconds, args.out)
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
