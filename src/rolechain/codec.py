"""Canonical binary encoding used for signing, hashing, and wire frames.

The format is bit-exact and deliberately small:

  - integers: unsigned 64-bit big-endian
  - byte strings: 4-byte big-endian length prefix, then the raw bytes
  - text: UTF-8 bytes, length-prefixed like a byte string (so text holding
    a lone surrogate, which has no UTF-8 form, is a :class:`CodecError`)
  - booleans: one byte, 0 or 1
  - union variants: one leading tag byte
  - enumerations: one byte, the member's value
  - sequences: 4-byte big-endian element count, then the elements
  - sets: a sequence whose elements are strictly ascending, so no repeats

Decoding is strict: every length is bounds-checked and a frame must be
consumed exactly, so any stray or missing byte is a :class:`CodecError`.

A wire type or ledger state record is described once, on its dataclass:
:func:`wire` gives each field a :class:`Field` codec, :func:`wire_record`
derives the codec of the whole record from them (fields in declaration
order), and :class:`Tagged` tells the members of a union apart by a leading
tag byte.

Encoders and decoders are compiled.  Each field codec gives its encoder as
source, ``Field.source(s, value)``: lines that append the value to ``b``,
the caller's bytearray, with a ``_Pack`` for each fixed-width value.  It
gives its decoder the same way, ``Field.read_source(s, target)``: lines
that read a value from the bytes ``d`` at position ``p`` into ``target``
and move ``p`` past it, with an ``_Unpack`` for each fixed-width value (see
:class:`_Source`).  A record's encoder and decoder are its fields' sources,
one after the other, each compiled into one function, so it handles every
field in place with no call per field.  Each run of adjacent fixed-width
values (u64, bool, enum, a length or a count) is one precompiled
``struct.Struct(...).pack`` or ``unpack_from``, whose range and bounds
errors become CodecError, and a length-prefixed value is sliced in place.
Every codec's own ``encode(b, value)``, which appends to the bytearray
``b``, and ``read(data, pos)``, a record's as a combinator's, is its source
compiled on its first call, so every rule is written once and importing
compiles nothing.  :func:`encoding` gives the bytes of one value and
:func:`whole` reads a frame that must hold exactly one value; every frame,
signed messages included, is a declared codec's after at most a constant
prefix.  A codec without source is called from a record's encoder or
decoder instead.

A set of members of a small enum, an account's roles, is coded by
:class:`EnumSet` through two tables in place of the element loop: each set
to its encoding, and each encoding to its set.  They keep only sets that
passed every check, at most one entry per subset, and any other value or
frame goes through :func:`set_of`'s loop, so the bytes and the errors are
the loop's.
"""

from __future__ import annotations

import dataclasses
import struct
import warnings
from collections.abc import Callable
from enum import Enum
from typing import Any, NamedTuple

from .errors import CodecError

U64_MAX = 2**64 - 1
U32_MAX = 2**32 - 1


# --- field codecs ------------------------------------------------------------------


class Field(NamedTuple):
    """How one value is written and read back.

    ``encode(b, value)``, which appends to the bytearray ``b``, is the
    encoder ``source`` writes (see :func:`encoding`), and ``read(data, pos)``,
    the value at ``pos`` and the position after it, the decoder
    ``read_source`` writes (see :class:`_Source`).  The decoding members
    are ``None`` for a value only written, as into the state digest.
    """

    encode: Callable[[bytearray, Any], None]
    source: Callable[[_Source, str], list] | None = None
    read: Callable[[bytes, int], tuple[Any, int]] | None = None
    read_source: Callable[[_Source, str], list] | None = None


class _Pack(NamedTuple):
    """A fixed-width value in an encoder's source: its struct code and the expression packed."""

    code: str
    value: str


class _Unpack(NamedTuple):
    """A fixed-width value in a decoder's source: its struct code, its local, and lines that check it once read."""

    code: str
    target: str
    after: tuple[str, ...] = ()


# what a pack raises for a value out of its range (bytearray.append raises
# ValueError or TypeError), or for one of the wrong type
_PACK_ERRORS = (struct.error, TypeError, ValueError, AttributeError)
# the name and top of each integer struct code
_RANGES = {"B": ("u8", 0xFF), "I": ("u32", U32_MAX), "Q": ("u64", U64_MAX)}


def _pack_error(codes: str, *values) -> None:
    """Raise the CodecError for the first of ``values`` its struct code cannot take."""
    for code, value in zip(codes, values):
        if code in _RANGES and not (isinstance(value, int) and 0 <= value <= _RANGES[code][1]):
            raise CodecError(f"{_RANGES[code][0]} out of range: {value!r}") from None
    raise CodecError(f"cannot pack {values!r} as {codes}") from None


def _wrong_type(exc: Exception) -> None:
    raise CodecError(f"value of the wrong type: {exc}") from None


def _not_bytes(value) -> None:
    raise CodecError(f"expected bytes, not {value!r}") from None


def _not_utf8(text) -> None:
    if not isinstance(text, str):
        raise CodecError(f"expected text, not {text!r}") from None
    raise CodecError(f"text is not UTF-8: {text!r}") from None


def _short() -> None:
    raise CodecError("unexpected end of frame") from None


def is_utf8(text: str) -> bool:
    """Whether ``text`` encodes as UTF-8; one holding a lone surrogate does not."""
    try:
        text.encode()
    except UnicodeEncodeError:
        return False
    return True


class _Source:
    """The source of one compiled function: an encoder ``encode(b, v)``, which
    appends to the bytearray ``b``, or a decoder ``read(d, p)``,
    which reads the bytes ``d`` of length ``L`` from position ``p``.

    A codec's ``source(s, value)`` returns items: lines of source, and a
    :class:`_Pack` for each fixed-width value (u64, bool, enum, a length or
    count).  ``value`` is an expression without side effects, cheap enough
    to evaluate twice.  Adjacent packs are written as one precompiled
    ``struct.Struct(...).pack``, whose range checks raise CodecError.
    ``read_source(s, target)`` returns lines and an :class:`_Unpack` per
    fixed-width value in the same way, leaving the value in ``target`` and
    ``p`` past it; adjacent unpacks are one precompiled ``unpack_from``.
    ``s`` names fresh locals and the constants the source refers to.
    """

    def __init__(self) -> None:
        self.env: dict[str, Any] = {
            "CodecError": CodecError,
            "_PACK_ERRORS": _PACK_ERRORS,
            "_pack_error": _pack_error,
            "_wrong_type": _wrong_type,
            "_not_bytes": _not_bytes,
            "_not_utf8": _not_utf8,
            "_short": _short,
            "struct_error": struct.error,
        }
        self._names = 0

    def local(self) -> str:
        self._names += 1
        return f"x{self._names}"

    def const(self, value) -> str:
        self._names += 1
        self.env[f"k{self._names}"] = value
        return f"k{self._names}"

    def bind(self, value: str, items: list) -> str:
        """A name for the expression ``value``, assigned in ``items`` unless it is one."""
        if value.isidentifier():
            return value
        name = self.local()
        items.append(f"{name} = {value}")
        return name

    def block(self, head: str, items: list) -> list[str]:
        """``head``, then ``items`` indented under it."""
        return [head, *(f"    {line}" for line in self.lines(items) or ["pass"])]

    def branches(self, cases: list[tuple[str, list]], otherwise: str) -> list[str]:
        """The items of the first case whose condition holds, or else the line ``otherwise``."""
        out: list[str] = []
        for i, (condition, items) in enumerate(cases):
            out += self.block(f"{'elif' if i else 'if'} {condition}:", items)
        return out + (self.block("else:", [otherwise]) if cases else [otherwise])

    def by_type(self, value: str, cases: list[tuple[type, list]], otherwise: str) -> list[str]:
        """The items of the case whose class ``value`` has, or else the line ``otherwise``."""
        kind = self.local()
        cases = [(f"{kind} is {self.const(cls)}", items) for cls, items in cases]
        return [f"{kind} = type({value})", *self.branches(cases, otherwise)]

    def lines(self, items: list) -> list[str]:
        """``items`` as lines of source, each run of adjacent packs or unpacks as one."""
        out: list[str] = []
        run: list = []
        for item in [*items, None]:
            if run and type(item) is not type(run[0]):
                out += self._pack(run) if type(run[0]) is _Pack else self._unpack(run)
                run = []
            if type(item) in (_Pack, _Unpack):
                run.append(item)
            elif item is not None:
                out.append(item)
        return out

    def _pack(self, run: list[_Pack]) -> list[str]:
        codes = "".join(p.code for p in run)
        values = ", ".join(p.value for p in run)
        if codes == "?":
            return [f"b.append(1 if {values} else 0)"]
        if codes == "B":
            line = f"b.append({values})"
        else:
            line = f"b += {self.const(struct.Struct('>' + codes).pack)}({values})"
        if all(p.value.isdigit() for p in run):  # tag bytes
            return [line]
        # the values are evaluated again to name the one at fault, which for
        # a value of the wrong type fails again
        return [
            "try:",
            f"    {line}",
            "except _PACK_ERRORS:",
            "    try:",
            f"        _pack_error({codes!r}, {values})",
            "    except _PACK_ERRORS as exc:",
            "        _wrong_type(exc)",
        ]

    def _unpack(self, run: list[_Unpack]) -> list[str]:
        unpack = struct.Struct(">" + "".join(u.code for u in run))
        targets = "".join(f"{u.target}, " for u in run)
        return [
            "try:",
            f"    {targets}= {self.const(unpack.unpack_from)}(d, p)",
            "except struct_error:",
            "    _short()",
            f"p += {unpack.size}",
            *(line for u in run for line in u.after),
        ]


def _function(s: _Source, signature: str, body: list[str]) -> Callable:
    """The function ``signature`` with ``body``, defined among ``s``'s constants; its text is kept as ``.source``."""
    text = "\n".join([signature, *(f"    {line}" for line in body)])
    with warnings.catch_warnings():
        # a warning (a bad escape, say) is a fault of the generator
        warnings.simplefilter("error")
        exec(text, s.env)
    function = s.env[signature[4 : signature.index("(")]]
    function.source = text
    return function


def _compile(source: Callable[[_Source, str], list]) -> Callable[[bytearray, Any], None]:
    """``encode(b, v)``, the function ``source`` writes."""
    s = _Source()
    return _function(s, "def encode(b, v):", s.lines(source(s, "v")))


def _compile_read(read_source: Callable[[_Source, str], list]) -> Callable[[bytes, int], tuple[Any, int]]:
    """``read(d, p)``, the function ``read_source`` writes: the value at ``p`` and the position after it."""
    s = _Source()
    return _function(s, "def read(d, p):", ["L = len(d)", *s.lines(read_source(s, "v")), "return v, p"])


def _lazy(compile: Callable[[], Callable]) -> Callable:
    """The function ``compile()`` returns, compiled on its first call.

    Most combinators and many records are only handled in place in another
    record's encoder or decoder, so compiling each one up front would hold
    code that never runs.
    """
    compiled = None

    def call(a, b):
        nonlocal compiled
        if compiled is None:
            compiled = compile()
        return compiled(a, b)

    return call


def _items(s: _Source, codec: Field, value: str) -> list:
    """``codec`` writing ``value``: its source, or a call of its encoder if it has none."""
    if codec.source is None:
        return [f"{s.const(codec.encode)}(b, {value})"]
    return codec.source(s, value)


def _reads(s: _Source, codec: Field, target: str) -> list:
    """``codec`` reading into ``target``: its read source, or a call of its ``read`` if it has none."""
    if codec.read_source is None:
        return [f"{target}, p = {s.const(codec.read)}(d, p)"]
    return codec.read_source(s, target)


def _field(source: Callable[[_Source, str], list], read_source: Callable[[_Source, str], list] | None = None, *over: Field) -> Field:
    """The codec whose encoder ``source`` writes and whose decoder ``read_source``
    writes, each compiled on its first call; it decodes only if every codec
    in ``over``, those it reads with, does."""
    encode = _lazy(lambda: _compile(source))
    if read_source is None or any(codec.read is None for codec in over):
        return Field(encode, source)
    return Field(encode, source, _lazy(lambda: _compile_read(read_source)), read_source)


def encoding(encode: Callable[[bytearray, Any], None], value) -> bytes:
    """The bytes ``encode`` writes for ``value``."""
    b = bytearray()
    encode(b, value)
    return bytes(b)


def whole(read: Callable[[bytes, int], tuple[Any, int]], data: bytes, pos: int = 0):
    """The value ``read`` reads from ``data`` at ``pos``, which must end the frame."""
    value, end = read(data, pos)
    if end != len(data):
        raise CodecError(f"{len(data) - end} trailing bytes in frame")
    return value


def _bool_byte(byte: str) -> str:
    """The line rejecting ``byte`` unless it is a boolean's, 0 or 1."""
    return f"if {byte} > 1: raise CodecError(f'invalid boolean byte: {{{byte}}}')"


def _count(n: str) -> list:
    """A count read into ``n``; as every value takes a byte or more, one past the bytes left is short."""
    return [_Unpack("I", n), f"if {n} > L - p: _short()"]


def _bytes(s: _Source, value: str) -> list:
    return [_Pack("I", f"len({value})"), "try:", f"    b += {value}", "except TypeError:", f"    _not_bytes({value})"]


def _read_bytes(s: _Source, target: str) -> list:
    n = s.local()
    return [_Unpack("I", n), f"{target} = d[p : p + {n}]", f"p += {n}", "if p > L: _short()"]


def _text(s: _Source, value: str) -> list:
    data = s.local()
    encoded = ["try:", f"    {data} = {value}.encode()", "except (UnicodeEncodeError, AttributeError):", f"    _not_utf8({value})"]
    return [*encoded, _Pack("I", f"len({data})"), f"b += {data}"]


def _read_text(s: _Source, target: str) -> list:
    data = s.local()
    decoded = ["try:", f"    {target} = {data}.decode()", "except UnicodeDecodeError:", "    raise CodecError('invalid UTF-8 in text field') from None"]
    return [*_read_bytes(s, data), *decoded]


def _read_bool(s: _Source, target: str) -> list:
    byte = s.local()
    return [_Unpack("B", byte, (_bool_byte(byte), f"{target} = {byte} == 1"))]


U64 = _field(lambda s, v: [_Pack("Q", v)], lambda s, v: [_Unpack("Q", v)])
U32 = _field(lambda s, v: [_Pack("I", v)], lambda s, v: [_Unpack("I", v)])
BOOL = _field(lambda s, v: [_Pack("?", v)], _read_bool)
BYTES = _field(_bytes, _read_bytes)
TEXT = _field(_text, _read_text)


def enum(kind: type[Enum]) -> Field:
    """One byte holding the value of a member of ``kind``."""
    members = {member.value: member for member in kind}

    def read_source(s: _Source, v: str) -> list:
        byte = s.local()
        unknown = f"raise CodecError(f'unknown {kind.__name__} value {{{byte}}}')"
        return [_Unpack("B", byte, (f"{v} = {s.const(members)}.get({byte})", f"if {v} is None: {unknown}"))]

    return _field(lambda s, v: [_Pack("B", f"{v}._value_")], read_source)


def text_enum(kind: type[Enum]) -> Field:
    """The text value of a member of ``kind``; only written."""
    return _field(lambda s, v: _text(s, f"{v}._value_"))


def optional(inner: Field) -> Field:
    """A presence boolean, then the value if present; ``None`` when absent."""

    def source(s: _Source, v: str) -> list:
        items: list = []
        value = s.bind(v, items)
        return [*items, f"if {value} is None:", "    b.append(0)", *s.block("else:", [_Pack("B", "1"), *_items(s, inner, value)])]

    def read_source(s: _Source, v: str) -> list:
        present = s.local()
        return [_Unpack("B", present, (_bool_byte(present),)), *s.branches([(present, _reads(s, inner, v))], f"{v} = None")]

    return _field(source, read_source, inner)


def none_as(inner: Field, blank) -> Field:
    """``inner`` with ``None`` written as ``blank``, and ``blank`` read back as ``None``."""
    return _field(
        lambda s, v: _items(s, inner, f"({s.const(blank)} if {v} is None else {v})"),
        lambda s, v: [*_reads(s, inner, v), f"if {v} == {s.const(blank)}: {v} = None"],
        inner,
    )


def _each(inner: Field, ordered: str, check: str, made: str) -> tuple[Callable, Callable]:
    """The source and read source of a count, then the elements: written in
    the order ``ordered.format(values)``, read each meeting
    ``check.format(elements, element)`` if given, made into ``made.format(elements)``."""

    def source(s: _Source, v: str) -> list:
        items: list = []
        values = s.bind(v, items)
        value = s.local()
        return [*items, _Pack("I", f"len({values})"), *s.block(f"for {value} in {ordered.format(values)}:", _items(s, inner, value))]

    def read_source(s: _Source, v: str) -> list:
        n, elements, element = s.local(), s.local(), s.local()
        each = [*_reads(s, inner, element), *([check.format(elements, element)] if check else []), f"{elements}.append({element})"]
        return [*_count(n), f"{elements} = []", *s.block(f"for _ in range({n}):", each), f"{v} = {made.format(elements)}"]

    return source, read_source


def seq_of(inner: Field) -> Field:
    """A count, then the elements in order; decodes to a tuple."""
    return _field(*_each(inner, "{}", "", "tuple({})"), inner)


def set_of(inner: Field) -> Field:
    """A count, then the elements in ascending order; decodes to a frozenset.

    Decoding rejects elements out of order or repeated, so a set has exactly
    one encoding.
    """
    ascending = "if {0} and not {0}[-1] < {1}: raise CodecError('set elements not in strictly ascending order')"
    return _field(*_each(inner, "sorted({})", ascending, "frozenset({})"), inner)


class EnumSet:
    """A set of members of ``kind``, written and read as ``set_of(enum(kind))``
    is, through two tables: each set to its encoding, for writing, and each
    encoding's elements to the set, for reading.

    A table keeps only a valid set, so each holds at most ``2 ** len(kind)``
    entries, one per subset.  Any other value, and any frame the table
    lacks, goes through ``set_of(enum(kind))`` with every check it makes.
    Usable as a :class:`Field`, as :class:`Tagged` is.
    """

    def __init__(self, kind: type[Enum]):
        self.kind = kind
        self.generic = set_of(enum(kind))
        self.encodings: dict[frozenset, bytes] = {}
        self.sets: dict[bytes, frozenset] = {}
        self.encode = _lazy(lambda: _compile(self.source))
        self.read = _lazy(lambda: _compile_read(self.read_source))

    def source(self, s: _Source, v: str) -> list:
        items: list = []
        value = s.bind(v, items)
        data = s.local()
        # an unhashable value (a set or a list) is not in the table
        lookup = ["try:", f"    {data} = {s.const(self.encodings)}.get({value})", "except TypeError:", f"    {data} = None"]
        return [*items, *lookup, f"if {data} is None: {data} = {s.const(self._encode_new)}({value})", f"b += {data}"]

    def read_source(self, s: _Source, v: str) -> list:
        n = s.local()
        # a slice of a bytearray, or of a writable memoryview, is unhashable
        lookup = ["try:", f"    {v} = {s.const(self.sets)}.get(d[p : p + {n}])", "except (TypeError, ValueError):", f"    {v} = None"]
        found = s.branches([(f"{v} is None", [f"{v}, p = {s.const(self._read_new)}(d, p - 4)"])], f"p += {n}")
        return [*_count(n), *lookup, *found]

    def _encode_new(self, value) -> bytes:
        """The generic encoding of a value the table lacks, kept if it is a set of members."""
        data = encoding(self.generic.encode, value)
        if type(value) is frozenset and all(type(member) is self.kind for member in value):
            self.encodings[value] = data
        return data

    def _read_new(self, data, pos: int) -> tuple[frozenset, int]:
        """The generic read of the set whose count is at ``pos``, kept once it has passed every check."""
        value, end = self.generic.read(data, pos)
        self.sets[bytes(data[pos + 4 : end])] = value
        return value, end


def _by_key(key: Field | str, value: Field) -> tuple[Callable, Callable]:
    """The source and read source of a count, then each entry in strictly
    ascending key order: its key, then its value, or the value alone if
    ``key`` names the value's attribute that is its key."""

    def source(s: _Source, v: str) -> list:
        items: list = []
        mapping = s.bind(v, items)
        k = s.local()
        entry = [*(_items(s, key, k) if type(key) is not str else []), *_items(s, value, f"{mapping}[{k}]")]
        return [*items, _Pack("I", f"len({mapping})"), *s.block(f"for {k} in sorted({mapping}):", entry)]

    def read_source(s: _Source, v: str) -> list:
        n, k, last, entry = s.local(), s.local(), s.local(), s.local()
        if type(key) is str:
            items = [*_reads(s, value, entry), f"{k} = {entry}.{key}"]
        else:
            items = [*_reads(s, key, k), *_reads(s, value, entry)]
        ascending = f"if {v} and not {last} < {k}: raise CodecError('map keys not in strictly ascending order')"
        each = [*items, ascending, f"{v}[{k}] = {entry}", f"{last} = {k}"]
        return [*_count(n), f"{v} = {{}}", *s.block(f"for _ in range({n}):", each)]

    return source, read_source


def sorted_map(key: Field, value: Field) -> Field:
    """A count, then each entry in ascending key order: its key, then its value.

    Decoding rejects keys out of order or repeated, so a mapping has exactly
    one encoding.
    """
    return _field(*_by_key(key, value), key, value)


def values_by_key(value: Field, key: str) -> Field:
    """A count, then the values of a mapping in ascending key order, for a
    table of records that each hold their own key, the attribute ``key``;
    decoding rejects keys out of order or repeated, as :func:`sorted_map` does.
    """
    return _field(*_by_key(key, value), value)


def tuple_of(*inners: Field) -> Field:
    """The values back to back; decodes to a tuple."""

    def source(s: _Source, v: str) -> list:
        items: list = []
        value = s.bind(v, items)
        return [*items, *(item for i, inner in enumerate(inners) for item in _items(s, inner, f"{value}[{i}]"))]

    def read_source(s: _Source, v: str) -> list:
        values = [s.local() for _ in inners]
        items = [item for inner, value in zip(inners, values) for item in _reads(s, inner, value)]
        return [*items, f"{v} = ({', '.join(values)},)"]

    return _field(source, read_source, *inners)


def framed(inner: Field) -> Field:
    """The value's encoding as a byte string, which must hold exactly one value."""

    def encode(b: bytearray, value) -> None:
        BYTES.encode(b, encoding(inner.encode, value))

    def read_source(s: _Source, v: str) -> list:
        body, end = s.local(), s.local()
        trailing = f"raise CodecError(f'{{len({body}) - {end}}} trailing bytes in frame')"
        return [*_read_bytes(s, body), f"{v}, {end} = {s.const(inner.read)}({body}, 0)", f"if {end} != len({body}): {trailing}"]

    return Field(encode, None, _lazy(lambda: _compile_read(read_source)), read_source)


# the tag byte and codec of each type a tagged value may have
_VALUE_TAGS = {int: (1, U64), bytes: (2, BYTES), bool: (3, BOOL), str: (4, TEXT)}


def tagged_value(*types: type) -> Field:
    """A value of one of ``types`` after its tag byte: 1 int, 2 bytes, 3 bool, 4 str."""
    by_type = {t: _VALUE_TAGS[t] for t in types}

    def source(s: _Source, v: str) -> list:
        items: list = []
        value = s.bind(v, items)
        cases = [(t, [_Pack("B", str(tag)), *_items(s, codec, value)]) for t, (tag, codec) in by_type.items()]
        return items + s.by_type(value, cases, f"raise CodecError('unsupported value type ' + type({value}).__name__)")

    def read_source(s: _Source, v: str) -> list:
        tag = s.local()
        cases = [(f"{tag} == {t}", _reads(s, codec, v)) for t, codec in by_type.values()]
        return [_Unpack("B", tag), *s.branches(cases, f"raise CodecError(f'unknown value tag {{{tag}}}')")]

    return _field(source, read_source)


# --- records and unions ----------------------------------------------------------


def wire(codec: Field, *, when: tuple[str, Any] | None = None, **kwargs) -> Any:
    """A dataclass field written and read by ``codec``.

    ``when=(name, value)`` puts the field on the wire only while the earlier
    field ``name`` equals ``value``; otherwise it is not written and decodes
    as ``None``.  Other keyword arguments go to :func:`dataclasses.field`.
    """
    return dataclasses.field(metadata={"codec": codec, "when": when}, **kwargs)


def wire_record(cls: type | None = None, *, frozen: bool = True, slots: bool = False):
    """Make ``cls`` a dataclass with ``FIELDS``, the codec of its fields.

    The record is its fields' encodings in declaration order.  A wire type
    is frozen and declares every field with :func:`wire`.  A ledger state
    record is declared with ``frozen=False``; a field of it declared
    without :func:`wire` is outside its encoding, and the record then only
    encodes.  With ``slots`` its instances keep their fields in slots, with
    no ``__dict__``.
    """

    def make(cls: type) -> type:
        cls = dataclasses.dataclass(frozen=frozen, slots=slots)(cls)
        cls.FIELDS = _generate(cls, whole=frozen)
        return cls

    return make if cls is None else make(cls)


def _generate(cls: type, tag: int | None = None, whole: bool = True) -> Field:
    """The codec of the dataclass ``cls``, from the codecs of its fields.

    Its encoder and decoder are generated as source, as ``dataclasses``
    generates ``__init__``, so a described record codes as fast as a
    hand-written one: each holds every field's own source (see
    :class:`_Source`).  With ``tag`` the encoder writes it first, and the
    decoder reads the fields after it, which the union has read.  Unless
    ``whole`` is false, every field must have a codec that decodes; a record
    with a field outside its codec, or one only written, has no decoder.
    """
    every = dataclasses.fields(cls)
    fields = [f for f in every if "codec" in f.metadata]
    decodes = len(fields) == len(every) and all(f.metadata["codec"].read is not None for f in fields)
    if whole and not decodes:
        raise TypeError(f"every field of {cls.__name__} needs a codec that decodes")
    names = [f.name for f in fields]
    for i, f in enumerate(fields):
        when = f.metadata["when"]
        if when is not None and when[0] not in names[:i]:
            raise TypeError(f"{cls.__name__}.{f.name} depends on no earlier field")

    def encoder(s: _Source, v: str) -> list:
        items: list = []
        obj = s.bind(v, items)
        if tag is not None:
            items.append(_Pack("B", str(tag)))
        for f in fields:
            codec, when = f.metadata["codec"], f.metadata["when"]
            written = _items(s, codec, f"{obj}.{f.name}")
            if when is not None:
                missing = s.const(f"{cls.__name__}.{f.name} is required when {when[0]} is {when[1]}")
                written = s.block(
                    f"if {obj}.{when[0]} == {s.const(when[1])}:",
                    [*s.block(f"if {obj}.{f.name} is None:", [f"raise CodecError({missing})"]), *written],
                )
            items += written
        return items

    def reader(s: _Source, v: str) -> list:
        values = [s.local() for _ in fields]
        items: list = []
        for f, value in zip(fields, values):
            codec, when = f.metadata["codec"], f.metadata["when"]
            read = _reads(s, codec, value)
            if when is not None:
                read = s.branches([(f"{values[names.index(when[0])]} == {s.const(when[1])}", read)], f"{value} = None")
            items += read
        # a union member without fields has one instance
        made = s.const(cls()) if not fields and tag is not None else f"{s.const(cls)}({', '.join(values)})"
        return [*items, f"{v} = {made}"]

    return _field(encoder, reader if decodes else None)


class Tagged:
    """A union of wire records told apart by a leading tag byte.

    Usable as a :class:`Field`: ``encode`` writes the member's tag, then its
    fields; ``read`` reads the tag and the fields of the member it names.
    """

    def __init__(self, name: str):
        self.name = name
        self.by_tag: dict[int, type] = {}
        # each member's codec: its tag and fields written, its fields read after its tag
        self._codecs: dict[type, Field] = {}
        self.read = _lazy(lambda: _compile_read(self.read_source))

    def member(self, tag: int) -> Callable[[type], type]:
        """Class decorator: make the class a frozen dataclass with ``TAG``.

        Its fields are declared with :func:`wire`, as for :func:`wire_record`.
        A member without fields has one value, so it has one instance: every
        construction and decode returns it.
        """

        def register(cls: type) -> type:
            if tag in self.by_tag:
                raise ValueError(f"{self.name} tag {tag} is already {self.by_tag[tag].__name__}")
            cls = dataclasses.dataclass(frozen=True)(cls)
            if not dataclasses.fields(cls):
                only = object.__new__(cls)
                cls.__new__ = staticmethod(lambda _cls: only)
            cls.TAG = tag
            self.by_tag[tag] = cls
            self._codecs[cls] = _generate(cls, tag)
            return cls

        return register

    def encode(self, b: bytearray, value) -> None:
        codec = self._codecs.get(type(value))
        if codec is None:
            raise CodecError(f"unknown {self.name} type {type(value).__name__}")
        codec.encode(b, value)

    def source(self, s: _Source, v: str) -> list:
        """The tag and fields of the member the value is, chosen in place among
        the members declared so far; any other value goes through ``encode``."""
        items: list = []
        value = s.bind(v, items)
        cases = [(cls, codec.source(s, value)) for cls, codec in self._codecs.items()]
        return items + s.by_type(value, cases, f"{s.const(self.encode)}(b, {value})")

    def read_source(self, s: _Source, v: str) -> list:
        """The tag, then the fields of the member it names, chosen in place among
        the members declared so far; any other tag goes through ``read_member``."""
        tag = s.local()
        cases = [(f"{tag} == {cls.TAG}", codec.read_source(s, v)) for cls, codec in self._codecs.items()]
        return [_Unpack("B", tag), *s.branches(cases, f"{v}, p = {s.const(self.read_member)}({tag}, d, p)")]

    def read_member(self, tag: int, data: bytes, pos: int) -> tuple[Any, int]:
        """The member ``tag`` at ``pos``, whose tag byte was already read, and the position after it."""
        cls = self.by_tag.get(tag)
        if cls is None:
            raise CodecError(f"unknown {self.name} tag {tag}")
        return self._codecs[cls].read(data, pos)
