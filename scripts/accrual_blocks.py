"""Time each block of a ``mixed_1k_faults``-shaped run at a chosen account count.

The benchmark generator's ``mixed_1k_faults`` workload, with ``accounts``
replaced, runs through the sim one tick at a time; each call of
``Simulation._publish_block`` (build, append and clean-up) is timed.  The
workload's pull rule covers every user and accrues every 10 blocks, so
the accrual blocks are heights 11, 21 and 31, and height 1 creates the rule.

    PYTHONPATH=src python3 scripts/accrual_blocks.py --accounts 1000
    PYTHONPATH=src python3 scripts/accrual_blocks.py --accounts 100000

Prints the median block, the rule's block and each accrual block, in ms.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from scenario_gen import INTEREST_PERIOD, WORKLOADS, generate  # noqa: E402

from rolechain.sim import Simulation, parse_scenario  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--accounts", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    workload = replace(WORKLOADS["mixed_1k_faults"], accounts=args.accounts)
    raw, _ = generate(workload, args.seed)
    sim = Simulation(parse_scenario(raw))
    times: dict[int, float] = {}
    publish = sim._publish_block

    def timed(tick: int) -> None:
        start = perf_counter()
        publish(tick)
        times[sim.chain.height] = perf_counter() - start

    sim._publish_block = timed
    report = sim.run()
    if not report.all_passed:
        raise SystemExit("a scenario assertion failed")
    accruals = [h for h in times if h > 1 and (h - 1) % INTEREST_PERIOD == 0]
    ms = {h: round(t * 1e3, 2) for h, t in times.items()}
    print(f"accounts={args.accounts} blocks={len(times)} median_ms={statistics.median(times.values()) * 1e3:.2f}")
    print(f"rule block (height 1) ms={ms[1]}")
    print("accrual blocks ms=" + ", ".join(f"h{h}: {ms[h]}" for h in accruals))


if __name__ == "__main__":
    main()
