"""Command-line interface: run scenarios, inspect/query/verify chain dumps.

Exit codes for ``run``: 0 all assertions passed, 1 assertion failure,
2 scenario load/schema error, 3 internal invariant violation or any other
error raised while the scenario runs.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click

from .chain import format_chain, import_chain, replay
from .codec import whole
from .errors import InternalInvariantViolation, RolechainError, ScenarioError
from .gateway import READS, authorize_query, compute_result
from .payloads import (
    Claimable,
    GatewayDirectory,
    ManagementLog,
    OwnBalance,
    OwnHistory,
    SupplyView,
    ValidationServerAddress,
)
from .sim import Simulation, load_scenario


@click.group()
def main() -> None:
    """Managed-ledger simulation toolkit."""


@main.command(name="run")
@click.argument("scenario_path", type=click.Path(path_type=Path))
@click.option("--seed", type=int, default=None, help="Override the scenario seed.")
@click.option("--report", "report_path", type=click.Path(path_type=Path), default=None)
@click.option("--dump", "dump_path", type=click.Path(path_type=Path), default=None,
              help="Write the produced chain as a binary dump.")
def run_cmd(scenario_path: Path, seed: int | None, report_path: Path | None, dump_path: Path | None):
    """Run one scenario and evaluate its embedded assertions."""
    try:
        scenario = load_scenario(scenario_path)
        if seed is not None:
            scenario.seed = seed
        sim = Simulation(scenario)
        report = sim.run()
    except ScenarioError as exc:
        click.echo(f"scenario error: {exc}", err=True)
        sys.exit(2)
    except InternalInvariantViolation as exc:
        click.echo(f"internal invariant violation: {exc}", err=True)
        sys.exit(3)
    except RolechainError as exc:
        click.echo(f"run failed: {type(exc).__name__}: {exc}", err=True)
        sys.exit(3)

    for result in report.assertions:
        status = "PASS" if result.ok else "FAIL"
        click.echo(f"[{status}] tick {result.tick} {result.kind}: {result.detail}")
    click.echo(
        f"blocks={report.blocks_produced} supply={report.supply['circulating']} "
        f"digest={report.state_digest[:16]}"
    )
    if report_path is not None:
        report_path.write_text(report.to_json() + "\n")
        click.echo(f"report written to {report_path}")
    if dump_path is not None:
        dump_path.write_bytes(sim.export())
        click.echo(f"chain dump written to {dump_path}")
    sys.exit(0 if report.all_passed else 1)


def _load_dump(path: Path):
    try:
        genesis, blocks = import_chain(path.read_bytes())
        chain, state = replay(genesis, blocks)
    except (OSError, RolechainError) as exc:  # OSError: a missing or unreadable dump
        click.echo(f"verification failed: {exc}", err=True)
        sys.exit(1)
    return genesis[1], chain, state  # the names, then the replayed chain and state


@main.command()
@click.argument("dump_path", type=click.Path(path_type=Path))
@click.option("--height", type=int, default=None, help="Show a single block.")
def inspect(dump_path: Path, height: int | None):
    """Print a human-readable view of a chain dump."""
    _, chain, state = _load_dump(dump_path)
    if height is not None and not 0 <= height <= chain.height:
        click.echo(f"no block at height {height}", err=True)
        sys.exit(1)
    click.echo(format_chain(chain, height))
    if height is None:
        click.echo(f"head={chain.head_hash.hex()[:16]} state_digest={state.digest().hex()[:16]}")


@main.command()
@click.argument("dump_path", type=click.Path(path_type=Path))
def verify(dump_path: Path):
    """Re-check every hash link, signature, and ledger invariant."""
    _, chain, state = _load_dump(dump_path)
    click.echo(
        f"ok: {len(chain.blocks) - 1} blocks, head={chain.head_hash.hex()[:16]}, "
        f"state_digest={state.digest().hex()[:16]}"
    )


def _entries(entries, id_names: dict[bytes, str]) -> str:
    lines = []
    for e in entries:
        data = [f"{k}={id_names.get(v, v.hex()[:16]) if type(v) is bytes else v}" for k, v in e.data.items()]
        status = "ok" if e.ok else f"failed:{e.error}"
        lines.append(f"h{e.height} {e.kind} [{status}] {' '.join(data)}")
    return "\n".join(lines) or "(empty)"


def _supply(supply, id_names: dict[bytes, str]) -> str:
    lines = [f"minted={supply.minted} burned={supply.burned} circulating={supply.minted - supply.burned}"]
    lines += [f"  rule {rule}: created {created}" for rule, created in supply.rules.items()]
    return "\n".join(lines)


def _directory(entries, id_names: dict[bytes, str]) -> str:
    lines = [
        f"{id_names.get(e.account, e.account.hex()[:16])}: security={list(e.security_gateways)} "
        f"visibility={list(e.visibility_gateways)} contact={e.contact}"
        for e in entries
    ]
    return "\n".join(lines) or "(empty)"


def _text(value, id_names: dict[bytes, str]) -> str:
    return str(value)


# CLI name -> (its query, built from the requester, a function that resolves
# the validator argument, and the state; the printer of its decoded answer)
QUERIES = {
    "balance": (lambda who, validator, state: OwnBalance(who), _text),
    "history": (lambda who, validator, state: OwnHistory(who), _entries),
    "claimable": (lambda who, validator, state: Claimable(who), _text),
    "management-log": (lambda who, validator, state: ManagementLog(0, state.height), _entries),
    "supply": (lambda who, validator, state: SupplyView(), _supply),
    "directory": (lambda who, validator, state: GatewayDirectory(), _directory),
    "validation-server": (lambda who, validator, state: ValidationServerAddress(validator()), _text),
}


@main.command()
@click.argument("dump_path", type=click.Path(path_type=Path))
@click.option("--as", "as_actor", required=True, help="Actor name (from the dump) or hex account id.")
@click.argument("query_kind", type=click.Choice(list(QUERIES)))
@click.argument("argument", required=False)
def query(dump_path: Path, as_actor: str, query_kind: str, argument: str | None):
    """Answer a read query under in-protocol visibility rules."""
    if argument is not None and query_kind != "validation-server":
        click.echo(f"{query_kind} takes no argument", err=True)
        sys.exit(1)
    names, chain, state = _load_dump(dump_path)

    def resolve(label: str) -> bytes:
        if label in names:
            return names[label]
        try:
            return bytes.fromhex(label)
        except ValueError:
            click.echo(f"unknown actor {label!r}", err=True)
            sys.exit(1)

    def validator() -> bytes:
        if argument is None:
            click.echo(f"{query_kind} needs a validator name", err=True)
            sys.exit(1)
        return resolve(argument)

    build, render = QUERIES[query_kind]
    requester = resolve(as_actor)
    q = build(requester, validator, state)
    try:
        authorize_query(state, requester, q)
        result = compute_result(state, q)
    except RolechainError as exc:
        code = getattr(exc, "code", str(exc))
        click.echo(f"denied: {code}", err=True)
        sys.exit(1)

    id_names = {aid: name for name, aid in names.items()}
    click.echo(render(whole(READS[type(q)].answer.read, result), id_names))


if __name__ == "__main__":
    main()
