"""Command-line interface: run scenarios, inspect/query/verify chain dumps.

Exit codes for ``run``: 0 all assertions passed, 1 assertion failure,
2 scenario load/schema error, 3 internal invariant violation.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click

from . import errors as err
from .chain import format_chain, import_chain, replay
from .codec import Reader
from .errors import (
    CodecError,
    InternalInvariantViolation,
    InvalidBlock,
    QueryError,
    RolechainError,
    ScenarioError,
)
from .gateway import authorize_query, compute_result
from .ledger import LOG_VALUE
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
        doc, blocks = import_chain(path.read_bytes())
        chain, state = replay(doc, blocks)
    except (CodecError, InvalidBlock, InternalInvariantViolation, RolechainError) as exc:
        click.echo(f"verification failed: {exc}", err=True)
        sys.exit(1)
    return doc, chain, state


@main.command()
@click.argument("dump_path", type=click.Path(path_type=Path))
@click.option("--height", type=int, default=None, help="Show a single block.")
def inspect(dump_path: Path, height: int | None):
    """Print a human-readable view of a chain dump."""
    doc, chain, state = _load_dump(dump_path)
    click.echo(format_chain(chain, height))
    if height is None:
        click.echo(f"head={chain.head_hash.hex()[:16]} state_digest={state.digest().hex()[:16]}")


@main.command()
@click.argument("dump_path", type=click.Path(path_type=Path))
def verify(dump_path: Path):
    """Re-check every hash link, signature, and ledger invariant."""
    doc, chain, state = _load_dump(dump_path)
    click.echo(
        f"ok: {len(chain.blocks) - 1} blocks, head={chain.head_hash.hex()[:16]}, "
        f"state_digest={state.digest().hex()[:16]}"
    )


QUERY_CHOICES = [
    "balance",
    "history",
    "claimable",
    "management-log",
    "supply",
    "directory",
    "validation-server",
]


@main.command()
@click.argument("dump_path", type=click.Path(path_type=Path))
@click.option("--as", "as_actor", required=True, help="Actor name (from the dump) or hex account id.")
@click.argument("query_kind", type=click.Choice(QUERY_CHOICES))
@click.argument("argument", required=False)
def query(dump_path: Path, as_actor: str, query_kind: str, argument: str | None):
    """Answer a read query under in-protocol visibility rules."""
    doc, chain, state = _load_dump(dump_path)
    names = {name: bytes.fromhex(aid) for name, aid in doc.get("names", {}).items()}

    def resolve(label: str) -> bytes:
        if label in names:
            return names[label]
        try:
            return bytes.fromhex(label)
        except ValueError:
            click.echo(f"unknown actor {label!r}", err=True)
            sys.exit(1)

    requester = resolve(as_actor)
    if query_kind == "balance":
        q = OwnBalance(requester)
    elif query_kind == "history":
        q = OwnHistory(requester)
    elif query_kind == "claimable":
        q = Claimable(requester)
    elif query_kind == "management-log":
        q = ManagementLog(0, state.height)
    elif query_kind == "supply":
        q = SupplyView()
    elif query_kind == "directory":
        q = GatewayDirectory()
    else:
        if argument is None:
            click.echo("validation-server needs a validator name", err=True)
            sys.exit(1)
        q = ValidationServerAddress(resolve(argument))

    try:
        authorize_query(state, requester, q)
        result = compute_result(state, q)
    except (QueryError, RolechainError) as exc:
        code = getattr(exc, "code", str(exc))
        click.echo(f"denied: {code}", err=True)
        sys.exit(1)

    id_names = {aid: name for name, aid in names.items()}
    click.echo(_render_result(query_kind, result, state, id_names))


def _render_result(kind: str, result: bytes, state, id_names: dict[bytes, str]) -> str:
    r = Reader(result)
    if kind in ("balance", "claimable"):
        return str(r.u64())
    if kind == "supply":
        minted, burned = r.u64(), r.u64()
        lines = [f"minted={minted} burned={burned} circulating={minted - burned}"]
        for _ in range(r.count()):
            lines.append(f"  rule {r.u64()}: created {r.u64()}")
        return "\n".join(lines)
    if kind in ("history", "management-log"):
        lines = []
        for _ in range(r.count()):
            tx_id = r.bytes_()
            height = r.u64()
            entry_kind = r.text()
            ok = r.boolean()
            error = r.text()
            fields = []
            for _ in range(r.count()):
                key, value = r.text(), LOG_VALUE.decode(r)
                if type(value) is bytes:
                    value = id_names.get(value, value.hex()[:16])
                fields.append(f"{key}={value}")
            status = "ok" if ok else f"failed:{error}"
            lines.append(f"h{height} {entry_kind} [{status}] {' '.join(fields)}")
        return "\n".join(lines) if lines else "(empty)"
    if kind == "directory":
        lines = []
        for _ in range(r.count()):
            account = r.bytes_()
            sec = [r.text() for _ in range(r.count())]
            vis = [r.text() for _ in range(r.count())]
            view_key = r.bytes_()
            contact = r.text()
            name = id_names.get(account, account.hex()[:16])
            lines.append(f"{name}: security={sec} visibility={vis} contact={contact}")
        return "\n".join(lines) if lines else "(empty)"
    return r.text()


if __name__ == "__main__":
    main()
