"""Typed fields of scenario entries, and the one checker that walks them.

An entry of a scenario file (a mapping) is declared once, as :class:`Fields`:
each field's :class:`FieldType` and whether it may be left out.  :func:`check`
walks an entry against its declaration and returns its values converted by
their types, so the runner uses them as they are.  Every fault is a
ScenarioError that names the kind of entry and the field.  The declarations
themselves live with the runner, in :mod:`rolechain.sim`, as wire types live
with their classes (see :func:`rolechain.codec.wire`).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any, NamedTuple

from .codec import U64_MAX, is_utf8
from .errors import ScenarioError


@dataclass
class Declared:
    """What a field may name: the actors, and the labels earlier tx steps store."""

    actors: set[str]
    tx_labels: set[str] = field(default_factory=set)


class FieldType(NamedTuple):
    """``check(value, declared)`` returns ``value`` as the runner uses it, or
    raises ScenarioError saying what it expected."""

    name: str
    check: Callable[[Any, Declared], Any]
    required: bool = True
    # (field, value): required while that field of the entry is written as value
    when: tuple[str, Any] | None = None


def optional(declared_type: FieldType, when: tuple[str, Any] | None = None) -> FieldType:
    """``declared_type`` in a field that may be left out; null counts as left out.

    With ``when=(name, value)`` it is required while the field ``name`` is
    written as ``value``.
    """
    return declared_type._replace(required=False, when=when)


def _fail(message: str):
    raise ScenarioError(message)


# text the canonical encoding can write: a lone surrogate has no UTF-8 form
TEXT = FieldType(
    "text", lambda v, d: v if type(v) is str and (v.isascii() or is_utf8(v)) else _fail(f"expected UTF-8 text, not {v!r}")
)
U64 = FieldType(
    "u64", lambda v, d: v if type(v) is int and 0 <= v <= U64_MAX else _fail(f"expected an integer in 0..2**64-1, not {v!r}")
)
INTEGER = FieldType("integer", lambda v, d: v if type(v) is int else _fail(f"expected an integer, not {v!r}"))
BOOL = FieldType("bool", lambda v, d: v if type(v) is bool else _fail(f"expected true or false, not {v!r}"))
ACTOR = FieldType("actor", lambda v, d: v if type(v) is str and v in d.actors else _fail(f"undeclared actor {v!r}"))
# the label under which an earlier tx step stored its transaction
LABEL = FieldType(
    "stored label", lambda v, d: v if type(v) is str and v in d.tx_labels else _fail(f"no earlier tx step stores {v!r}")
)
# a list whose entries the caller checks one by one
ENTRIES = FieldType("list", lambda v, d: v if type(v) in (list, tuple) else _fail(f"expected a list, not {v!r}"))
# the value of a ``kind`` field, which ``check_kind`` has already looked up
KIND = FieldType("kind", lambda v, d: v)


def list_of(item: FieldType) -> FieldType:
    return FieldType(f"list of {item.name}", lambda v, d: [item.check(x, d) for x in ENTRIES.check(v, d)])


def choice(name: str, by_name: dict[str, Any]) -> FieldType:
    """One of the names in ``by_name``, converted to what it maps to."""
    return FieldType(name, lambda v, d: by_name[v] if type(v) is str and v in by_name else _fail(f"unknown {name} {v!r}"))


ACTORS = list_of(ACTOR)
TEXTS = list_of(TEXT)


class Fields(NamedTuple):
    """The fields one kind of entry takes, and which of them it must have."""

    types: dict[str, FieldType]
    required: frozenset[str]
    required_when: tuple[tuple[str, str, Any], ...]


def fields(types: dict[str, FieldType]) -> Fields:
    required = frozenset(name for name, t in types.items() if t.required)
    return Fields(types, required, tuple((name, *t.when) for name, t in types.items() if t.when))


def check(entry, declaration: Fields, context: str, declared: Declared | None) -> dict:
    """``entry`` checked against ``declaration``, each value converted by its type.

    A ScenarioError names ``context`` (the kind of entry) and the field.
    """
    if type(entry) is not dict:
        raise ScenarioError(f"{context}: expected a mapping, not {entry!r}")
    types = declaration.types
    out = {}
    for key, value in entry.items():
        if key not in types:
            raise ScenarioError(f"{context}: unknown field {key!r}")
        declared_type = types[key]
        if value is None and not declared_type.required:
            continue
        try:
            out[key] = declared_type.check(value, declared)
        except ScenarioError as exc:
            raise ScenarioError(f"{context}: {key}: {exc}") from None
    if not declaration.required <= out.keys():
        missing = sorted(declaration.required - out.keys())[0]
        raise ScenarioError(f"{context}: missing field {missing!r}")
    for name, other, value in declaration.required_when:
        if name not in out and entry.get(other) == value:
            raise ScenarioError(f"{context}: missing field {name!r}, required when {other} is {value}")
    return out


class Kind(NamedTuple):
    """One kind of tx, query or assert step: its fields and what carries it out."""

    fields: Fields
    act: Callable


def kinds(common: dict[str, FieldType], table: dict[str, tuple[Callable, dict[str, FieldType]]]) -> dict[str, Kind]:
    """``{kind: (act, own fields)}`` as Kinds that also take ``kind`` and ``common``."""
    return {kind: Kind(fields({"kind": KIND, **common, **own}), act) for kind, (act, own) in table.items()}


def check_kind(entry, table: dict[str, Kind], context: str, declared: Declared) -> dict:
    """``entry`` checked against the fields of the kind its ``kind`` names."""
    if type(entry) is not dict or "kind" not in entry:
        raise ScenarioError(f"{context}: missing field 'kind'")
    kind = entry["kind"]
    if type(kind) is not str or kind not in table:
        raise ScenarioError(f"{context}: unknown kind {kind!r}")
    return check(entry, table[kind].fields, f"{context} {kind}", declared)
