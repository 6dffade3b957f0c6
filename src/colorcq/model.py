"""Core data model: schemas, databases, conjunctive queries, and their parsers.

A database is a finite set of facts over a relational schema in which every
symbol has arity one or two.  Constants are interned to dense integer ids at
load time; all internal machinery works on ids and only the outermost layers
translate back to names.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, TextIO

import numpy as np


class ColorcqError(Exception):
    """Base class for errors raised by this package."""


class SchemaError(ColorcqError):
    """Arity mismatch or use of an unknown relation symbol."""


class ParseError(ColorcqError):
    """Malformed fact list or query text."""


NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*")
VAR_RE = re.compile(r"[a-z][A-Za-z0-9_]*")

_FACT_RE = re.compile(
    r"^\s*([A-Za-z_][A-Za-z0-9_.]*)\s*\(\s*([^\s(),#]+)\s*(?:,\s*([^\s(),#]+)\s*)?\)\s*$"
)


class Schema:
    """Relation symbols with arities restricted to 1 or 2."""

    def __init__(self, symbols: Iterable[tuple[str, int]] = ()):
        self._arity: dict[str, int] = {}
        self.memo: dict[str, object] = {}  # values derived from the symbols; add() clears it
        for name, arity in symbols:
            self.add(name, arity)

    def add(self, name: str, arity: int) -> None:
        if arity not in (1, 2):
            raise SchemaError(f"symbol {name!r}: arity {arity} not supported (must be 1 or 2)")
        # textual name rules are enforced by the parsers; derived schemas may
        # use symbols that no input file could spell (e.g. per-label relations)
        if not name or not isinstance(name, str):
            raise SchemaError(f"invalid relation name {name!r}")
        old = self._arity.get(name)
        if old is None:
            self._arity[name] = arity
            self.memo.clear()
        elif old != arity:
            raise SchemaError(f"symbol {name!r} used with arities {old} and {arity}")

    def arity(self, name: str) -> int:
        try:
            return self._arity[name]
        except KeyError:
            raise SchemaError(f"unknown relation symbol {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._arity

    @property
    def symbols(self) -> tuple[str, ...]:
        return tuple(self._arity)

    @property
    def unary_symbols(self) -> tuple[str, ...]:
        return tuple(s for s, a in self._arity.items() if a == 1)

    @property
    def binary_symbols(self) -> tuple[str, ...]:
        return tuple(s for s, a in self._arity.items() if a == 2)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Schema) and self._arity == other._arity

    def __repr__(self) -> str:
        return f"Schema({list(self._arity.items())!r})"


class Database:
    """A set-semantics instance: interned constants plus one relation per symbol.

    A relation is an (m, arity) int64 array of constant ids, sorted by rows
    and without repeated rows.  `add_fact` queues single facts, which are
    merged into the array on the next read; `tuples` builds a Python set view
    of a relation on first use.
    """

    def __init__(self, schema: Schema, constants: Iterable[str] = ()):
        self.schema = schema
        self.constants: list[str] = list(dict.fromkeys(constants))
        self._ids: dict[str, int] | None = None  # name -> id, built on first use
        self._arrays: dict[str, np.ndarray] = {}
        self._pending: dict[str, list[tuple[int, ...]]] = {}
        self._sets: dict[str, set[tuple[int, ...]]] = {}

    def _id_map(self) -> dict[str, int]:
        if self._ids is None:
            self._ids = dict(zip(self.constants, range(len(self.constants))))
        return self._ids

    def intern(self, name: str) -> int:
        ids = self._id_map()
        cid = ids.get(name)
        if cid is None:
            cid = len(self.constants)
            ids[name] = cid
            self.constants.append(name)
        return cid

    def const_name(self, cid: int) -> str:
        return self.constants[cid]

    def add_fact(self, rel: str, args: tuple[int, ...]) -> None:
        if len(args) != self.schema.arity(rel):
            raise SchemaError(
                f"symbol {rel!r} has arity {self.schema.arity(rel)}, got {len(args)} arguments"
            )
        self._pending.setdefault(rel, []).append(tuple(args))
        self._sets.pop(rel, None)

    def set_relation(self, rel: str, rows: np.ndarray) -> None:
        """Replace `rel` by the distinct rows of `rows`, which must hold ids of
        interned constants."""
        arity = self.schema.arity(rel)
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 2 or rows.shape[1] != arity:
            raise SchemaError(f"symbol {rel!r} has arity {arity}, got rows of shape {rows.shape}")
        if len(rows) and (rows.min() < 0 or rows.max() >= len(self.constants)):
            raise ColorcqError(f"relation {rel!r} refers to a constant id that is not interned")
        # one key per row, ordered like the rows; ids are < len(constants),
        # so the key fits in an int64 for any list of constants that fits in memory
        key = rows[:, 0] if arity == 1 else rows[:, 0] * len(self.constants) + rows[:, 1]
        if len(key) > 1 and not (key[1:] > key[:-1]).all():
            rows = rows[np.unique(key, return_index=True)[1]]
        self._arrays[rel] = rows
        self._pending.pop(rel, None)
        self._sets.pop(rel, None)

    def array(self, rel: str) -> np.ndarray:
        """The rows of `rel` as a sorted (m, arity) int64 array."""
        arity = self.schema.arity(rel)
        queued = self._pending.get(rel)
        if queued:
            rows = np.array(queued, dtype=np.int64).reshape(-1, arity)
            old = self._arrays.get(rel)
            self.set_relation(rel, rows if old is None else np.concatenate([old, rows]))
        out = self._arrays.get(rel)
        return np.zeros((0, arity), dtype=np.int64) if out is None else out

    def tuples(self, rel: str) -> set[tuple[int, ...]]:
        """Tuple set of `rel`; empty for symbols absent from this instance.

        The set is cached and shared between callers: do not modify it.
        """
        out = self._sets.get(rel)
        if out is None:
            out = set(map(tuple, self.array(rel).tolist())) if rel in self.schema else set()
            self._sets[rel] = out
        return out

    def size(self) -> int:
        return sum(len(self.array(s)) for s in self.schema.symbols)

    def adom_ids(self) -> np.ndarray:
        """Sorted ids that appear in at least one tuple."""
        ids = np.sort(np.concatenate(
            [self.array(s).ravel() for s in self.schema.symbols] + [np.zeros(0, np.int64)]))
        return ids[np.append(True, ids[1:] != ids[:-1])] if len(ids) else ids

    def adom(self) -> set[int]:
        """Ids that appear in at least one tuple."""
        return set(self.adom_ids().tolist())

    def __repr__(self) -> str:
        return f"<Database |D|={self.size()} adom={len(self.constants)}>"


def load_database(src: str | TextIO) -> Database:
    """Parse a fact list (one `Name(a)` or `Name(a,b)` per line) into a Database.

    `#` starts a comment; blank lines are ignored.  The schema is inferred
    from use and arity conflicts are reported with their line number.
    Constants get ids in order of first appearance.
    """
    if isinstance(src, str):
        lines = src.splitlines()
    else:
        lines = src.read().splitlines()

    schema = Schema()
    names: list[str] = []  # every argument, in file order
    args_of: dict[str, list[str]] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _FACT_RE.match(line)
        if m is None:
            raise ParseError(f"line {lineno}: cannot parse fact {raw.strip()!r}")
        rel, a, b = m.group(1), m.group(2), m.group(3)
        args = (a,) if b is None else (a, b)
        try:
            schema.add(rel, len(args))
        except SchemaError as e:
            raise SchemaError(f"line {lineno}: {e}") from None
        names += args
        args_of.setdefault(rel, []).extend(args)

    db = Database(schema, constants=names)
    for rel, args in args_of.items():
        ids = np.fromiter(map(db._id_map().__getitem__, args), dtype=np.int64, count=len(args))
        db.set_relation(rel, ids.reshape(-1, schema.arity(rel)))
    return db


@dataclass(frozen=True)
class Atom:
    rel: str
    args: tuple[str, ...]

    def __str__(self) -> str:
        return f"{self.rel}({','.join(self.args)})"


@dataclass(frozen=True)
class ConjunctiveQuery:
    """`Ans(head) <- atoms` with set semantics; every argument is a variable."""

    head: tuple[str, ...]
    atoms: tuple[Atom, ...]

    def __post_init__(self) -> None:
        if not self.atoms:
            raise ParseError("query needs at least one atom")
        if len(set(self.head)) != len(self.head):
            raise ParseError(f"repeated variable in head {self.head}")
        body = self.variables()
        missing = [v for v in self.head if v not in body]
        if missing:
            raise ParseError(f"head variable(s) {missing} do not occur in the body")

    def variables(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for a in self.atoms:
            for v in a.args:
                seen.setdefault(v)
        return tuple(seen)

    @property
    def is_boolean(self) -> bool:
        return not self.head

    def __str__(self) -> str:
        return f"Ans({','.join(self.head)}) <- {', '.join(map(str, self.atoms))}."


def _parse_args(blob: str, what: str) -> tuple[str, ...]:
    blob = blob.strip()
    if not blob:
        return ()
    parts = [p.strip() for p in blob.split(",")]
    for p in parts:
        if not VAR_RE.fullmatch(p):
            raise ParseError(
                f"{what}: {p!r} is not a variable (lowercase identifier); constants are unsupported"
            )
    return tuple(parts)


_QUERY_RE = re.compile(r"^\s*Ans\s*\(([^()]*)\)\s*<-\s*(.*?)\s*\.?\s*$", re.DOTALL)
_ATOM_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_.]*)\s*\(([^()]*)\)")


def parse_query(text: str, schema: Schema | None = None) -> ConjunctiveQuery:
    """Parse `Ans(v1,...,vk) <- A1, ..., Ad.` into a ConjunctiveQuery.

    Identical atoms are deduplicated.  When a schema is given, relation
    symbols and arities are checked against it.
    """
    m = _QUERY_RE.match(text)
    if m is None:
        raise ParseError(f"cannot parse query {text!r} (expected `Ans(...) <- atom, ..., atom.`)")
    head = _parse_args(m.group(1), "head")

    body = m.group(2)
    atoms: list[Atom] = []
    seen: set[Atom] = set()
    pos = 0
    for am in _ATOM_RE.finditer(body):
        between = body[pos:am.start()].strip()
        if between not in ("", ","):
            raise ParseError(f"unexpected text {between!r} in query body")
        pos = am.end()
        rel = am.group(1)
        args = _parse_args(am.group(2), f"atom {rel}")
        if len(args) not in (1, 2):
            raise ParseError(f"atom {rel} has {len(args)} arguments (only unary/binary allowed)")
        if schema is not None:
            if rel not in schema:
                raise SchemaError(f"unknown relation symbol {rel!r}")
            if schema.arity(rel) != len(args):
                raise SchemaError(
                    f"atom {rel} has {len(args)} arguments but {rel!r} has arity {schema.arity(rel)}"
                )
        atom = Atom(rel, args)
        if atom not in seen:
            seen.add(atom)
            atoms.append(atom)
    tail = body[pos:].strip()
    if tail not in ("", ","):
        raise ParseError(f"unexpected trailing text {tail!r} in query body")
    if not atoms:
        raise ParseError("query needs at least one atom")
    return ConjunctiveQuery(head=head, atoms=tuple(atoms))
