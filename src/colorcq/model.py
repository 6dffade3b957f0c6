"""Core data model: schemas, databases, conjunctive queries, and their parsers.

A database is a finite set of facts over a relational schema in which every
symbol has arity one or two.  Constants are interned to dense integer ids at
load time; all internal machinery works on ids and only the outermost layers
translate back to names.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Iterable, NamedTuple, NoReturn, TextIO

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
    and without repeated rows, which `set_relation` puts in.
    """

    def __init__(self, schema: Schema, constants: Iterable[str] = ()):
        self.schema = schema
        self.constants: list[str] = list(dict.fromkeys(constants))
        self._arrays: dict[str, np.ndarray] = {}

    def set_relation(self, rel: str, rows: np.ndarray) -> None:
        """Replace `rel` by the distinct rows of `rows`, which must hold integer
        ids of interned constants."""
        arity = self.schema.arity(rel)
        rows = np.asarray(rows)
        if rows.dtype.kind not in "iu":  # a cast would truncate floats and read bools as ids
            raise ColorcqError(f"relation {rel!r} takes integer ids, not dtype {rows.dtype}")
        rows = rows.astype(np.int64, copy=False)
        if rows.ndim != 2 or rows.shape[1] != arity:
            raise SchemaError(f"symbol {rel!r} has arity {arity}, got rows of shape {rows.shape}")
        if len(rows) and (rows.min() < 0 or rows.max() >= len(self.constants)):
            raise ColorcqError(f"relation {rel!r} refers to a constant id that is not interned")
        # one key per row, ordered like the rows; ids are < len(constants),
        # so the key fits in an int64 for any list of constants that fits in memory
        key = rows[:, 0] if arity == 1 else rows[:, 0] * len(self.constants) + rows[:, 1]
        if len(key) > 1 and not (key[1:] > key[:-1]).all():
            order = np.argsort(key)  # rows with equal keys are equal: no need for a stable sort
            key = key[order]
            rows = rows[order[np.append(True, key[1:] != key[:-1])]]
        self._arrays[rel] = rows

    def array(self, rel: str) -> np.ndarray:
        """The rows of `rel` as a sorted (m, arity) int64 array."""
        arity = self.schema.arity(rel)
        out = self._arrays.get(rel)
        return np.zeros((0, arity), dtype=np.int64) if out is None else out

    def size(self) -> int:
        return sum(len(self.array(s)) for s in self.schema.symbols)

    def adom_ids(self) -> np.ndarray:
        """Sorted ids that appear in at least one tuple."""
        seen = np.zeros(len(self.constants), dtype=bool)
        for s in self.schema.symbols:
            seen[self.array(s).ravel()] = True
        return np.flatnonzero(seen)

    def __repr__(self) -> str:
        return f"<Database |D|={self.size()} adom={len(self.constants)}>"


def load_database(src: str | TextIO) -> Database:
    """Parse a fact list (one `Name(a)` or `Name(a,b)` per line) into a Database.

    `#` starts a comment that runs to the end of the line; blank lines are
    ignored.  Whitespace may stand around the name, the parentheses and the
    comma, but not inside a name (`NAME_RE`) or a constant (any run of
    characters other than whitespace, `(`, `)`, `,` and `#`).  The schema is
    inferred from use.  A malformed line raises ParseError and an arity
    conflict SchemaError, each with the number of the first bad line.
    Constants get ids in order of first appearance.

    Text made only of printable ASCII, tabs and `\\n` line breaks is
    tokenized, checked and interned with numpy (`_parse_array`).  Any other
    text, and any text that check rejects, is read line by line by the
    reference parser (`_parse_lines`), which also raises the errors.  Both
    build the same Database.
    """
    text = src if isinstance(src, str) else src.read()
    db = _parse_array(text)
    return _parse_lines(text) if db is None else db


# byte classes of the array parser, as a bytes.translate table
_TOKEN, _SPACE, _OPEN, _CLOSE, _COMMA, _NEWLINE, _OTHER = range(7)
_CLASS_OF = bytes(
    _SPACE if c in b" \t" else _OPEN if c == ord("(") else _CLOSE if c == ord(")")
    else _COMMA if c == ord(",") else _NEWLINE if c == ord("\n")
    else _TOKEN if 0x21 <= c <= 0x7E and c != ord("#") else _OTHER
    for c in range(256)
)
# a comment ends at the line break or at the first byte outside printable
# ASCII and tab; such a byte stays behind and sends the text to _parse_lines
_COMMENT_RE = re.compile(rb"#[\t\x20-\x7e]*")


def _parse_array(text: str) -> Database | None:
    """The Database `_parse_lines(text)` builds, computed with numpy on the
    bytes of `text`; None when `text` holds anything but printable ASCII, tabs
    and `\\n` line breaks, or is not a valid fact list."""
    if not text.isascii():
        return None
    # the padding lets _intern read 8 bytes from any token start
    data = _COMMENT_RE.sub(b"", text.encode("ascii")) + b"\n" * 8
    scan = _scan(data)
    if scan is None:
        return None
    starts, lens, binary = scan
    if not len(binary):
        return Database(Schema())

    # in a valid text, a token is a relation name iff it opens its line
    arity = 1 + binary
    name_tok = np.cumsum(arity + 1) - (arity + 1)
    is_arg = np.ones(len(starts), dtype=bool)
    is_arg[name_tok] = False
    buf = np.frombuffer(data, dtype=np.uint8)
    rel, rel_first = _intern(buf, starts[name_tok], lens[name_tok])
    rel_names = _names(buf, starts[name_tok[rel_first]], lens[name_tok[rel_first]])
    if not all(NAME_RE.fullmatch(r) for r in rel_names):
        return None
    n_lines = np.bincount(rel)
    n_binary = np.bincount(rel, weights=binary)
    if ((n_binary > 0) & (n_binary < n_lines)).any():  # a symbol used with both arities
        return None
    rel_arity = np.where(n_binary > 0, 2, 1).tolist()
    starts, lens = starts[is_arg], lens[is_arg]
    cid, first = _intern(buf, starts, lens)

    schema = Schema()
    for name, a in zip(rel_names, rel_arity):
        schema.add(name, a)
    db = Database(schema)
    db.constants = _names(buf, starts[first], lens[first])
    first_arg = name_tok - np.arange(len(name_tok))  # index of each line's first argument in cid
    by_rel = np.argsort(rel, kind="stable")
    for name, a, lines in zip(rel_names, rel_arity, np.split(by_rel, np.cumsum(n_lines)[:-1])):
        col = first_arg[lines]
        db.set_relation(name, cid[col, None] if a == 1 else np.stack([cid[col], cid[col + 1]], 1))
    return db


def _scan(data: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Start and length of every token of `data`, and per non-empty line
    whether it is binary; None unless every line is valid.

    A token is a maximal run of `_TOKEN` bytes.  A line is valid when it is
    empty or reads `T(T)` or `T(T,T)` once spaces and tabs are dropped.
    Space inside a token splits it, and a byte of class `_OTHER` is an item
    of its own, so either makes the line invalid, as `_FACT_RE` rejects it.
    """
    cls = np.frombuffer(data.translate(_CLASS_OF), dtype=np.uint8)
    tok = cls == _TOKEN
    first = tok.copy()
    first[1:] &= ~tok[:-1]
    last = tok.copy()
    last[:-1] &= ~tok[1:]
    starts = np.flatnonzero(first)
    lens = np.flatnonzero(last) + 1 - starts

    # the stream of tokens, delimiters and _OTHER bytes, one byte each, cut at _NEWLINE
    first |= cls >= _OPEN
    kind = cls[first]
    ends = np.flatnonzero(kind == _NEWLINE)
    at = np.append(0, ends[:-1] + 1)
    width = ends - at
    at, width = at[width > 0], width[width > 0]
    binary = width == 6
    if not (binary | (width == 4)).all():
        return None
    two = at[binary]
    if ((kind[at] == _TOKEN) & (kind[at + 1] == _OPEN) & (kind[at + 2] == _TOKEN)
            & (kind[at + width - 1] == _CLOSE)).all() and (
            kind[two + 3] == _COMMA).all() and (kind[two + 4] == _TOKEN).all():
        return starts, lens, binary
    return None


def _keys(buf: np.ndarray, starts: np.ndarray, lens: np.ndarray):
    """Per group of the byte strings buf[starts[i]:starts[i] + lens[i]] with
    one word count, (length + 7) // 8, the indices i of the group and one key
    per string.  `buf` must hold 7 bytes past the end of every string.

    Each string is read as whole little-endian uint64 words with the bytes
    past its end masked off; no string ends in a NUL byte, so the words tell
    lengths apart.  The key is the one word, or past 8 bytes the (m, w) rows
    of words, sorted with `np.lexsort` and compared whole (`_heads`).  Equal
    keys are equal strings.
    """
    n_words = (lens + 7) >> 3
    by_words = np.argsort(n_words)
    for occ in np.split(by_words, np.flatnonzero(np.diff(n_words[by_words])) + 1):
        w = int(n_words[occ[0]])
        rows = np.lib.stride_tricks.sliding_window_view(buf, 8 * w)[starts[occ]]
        words = rows.view("<u8")
        past = (-lens[occ] & 7).astype(np.uint64) * np.uint64(8)  # bits past the end
        words[:, -1] &= np.uint64(2**64 - 1) >> past
        yield occ, (words[:, 0] if w == 1 else words)


def _heads(key: np.ndarray) -> np.ndarray:
    """For sorted keys of `_keys`, True where a key differs from the one
    before it (rows are compared whole)."""
    new = np.ones(len(key), dtype=bool)
    ne = key[1:] != key[:-1]
    new[1:] = ne if key.ndim == 1 else ne.any(axis=1)
    return new


def _intern(buf: np.ndarray, starts: np.ndarray, lens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ids in order of first appearance for the strings of `_keys`, and the
    index i of each id's first appearance."""
    group = np.empty(len(starts), dtype=np.int64)
    firsts: list[np.ndarray] = []
    n_groups = 0
    for occ, key in _keys(buf, starts, lens):
        perm = key.argsort() if key.ndim == 1 else np.lexsort(key.T)
        new = _heads(key[perm])
        occ = occ[perm]
        group[occ] = np.cumsum(new) + (n_groups - 1)
        firsts.append(np.minimum.reduceat(occ, np.flatnonzero(new)))
        n_groups += len(firsts[-1])
    firsts_by_group = np.concatenate(firsts)
    is_first = np.zeros(len(starts), dtype=bool)
    is_first[firsts_by_group] = True
    return (np.cumsum(is_first) - 1)[firsts_by_group][group], np.flatnonzero(is_first)


def _names(buf: np.ndarray, starts: np.ndarray, lens: np.ndarray) -> list[str]:
    """The strings buf[starts[i]:starts[i] + lens[i]], which are ASCII
    without `\\n`, and each followed by at least one byte of `buf`."""
    size = lens + 1
    at = np.cumsum(size) - size  # where each string starts in the output
    # out[p] = buf[at_p], where at_p grows by one inside a string and its
    # separator and jumps to the next string's start after
    at_p = np.ones(int(size.sum()), dtype=np.int64)
    at_p[0] = starts[0]
    at_p[at[1:]] = starts[1:] - starts[:-1] - lens[:-1]
    out = buf[np.cumsum(at_p, out=at_p)]
    del at_p  # freed before the strings are made, to keep the peak memory low
    out[at + lens] = ord("\n")
    return out.tobytes().decode("ascii").split("\n")[:-1]


def _parse_lines(text: str) -> Database:
    """Reference parser, one regex match per line; raises ParseError or
    SchemaError with the number of the first bad line."""
    lines = text.splitlines()
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
    id_of = dict(zip(db.constants, range(len(db.constants))))
    for rel, args in args_of.items():
        ids = np.fromiter(map(id_of.__getitem__, args), dtype=np.int64, count=len(args))
        db.set_relation(rel, ids.reshape(-1, schema.arity(rel)))
    return db


class Atom(NamedTuple):
    rel: str
    args: tuple[str, ...]

    def __str__(self) -> str:
        return f"{self.rel}({','.join(self.args)})"


_ARGS = attrgetter("args")


@dataclass(frozen=True)
class ConjunctiveQuery:
    """`Ans(head) <- atoms` with set semantics; every argument is a variable."""

    head: tuple[str, ...]
    atoms: tuple[Atom, ...]

    def __post_init__(self) -> None:
        if not self.atoms:
            raise ParseError("query needs at least one atom")
        body = dict.fromkeys(chain.from_iterable(map(_ARGS, self.atoms)))
        object.__setattr__(self, "_variables", tuple(body))  # computed once, read by the planner
        head = set(self.head)
        if len(head) != len(self.head):
            raise ParseError(f"repeated variable in head {self.head}")
        if not body.keys() >= head:
            missing = [v for v in self.head if v not in body]
            raise ParseError(f"head variable(s) {missing} do not occur in the body")

    def variables(self) -> tuple[str, ...]:
        """The variables in order of first appearance in the atoms."""
        return self._variables

    @property
    def is_boolean(self) -> bool:
        return not self.head

    def __str__(self) -> str:
        return f"Ans({','.join(self.head)}) <- {', '.join(map(str, self.atoms))}."


_NAME, _VAR = NAME_RE.pattern, VAR_RE.pattern
_ATOM_RE = re.compile(rf"({_NAME})\s*\(\s*({_VAR})\s*(?:,\s*({_VAR})\s*)?\)")
# the grammar of a query, with the atoms of _ATOM_RE uncaptured.  Each `\s*`
# stands before a character that cannot be whitespace, so a match that fails
# backtracks in linear time.
_QUERY_RE = re.compile(
    rf"\s*Ans\s*\(\s*((?:{_VAR}\s*(?:,\s*{_VAR}\s*)*)?)\)\s*<-(?:\s*,)?((?:\s*{_NAME}"
    rf"\s*\(\s*{_VAR}\s*(?:,\s*{_VAR}\s*)?\)(?:\s*,)?)+)\s*(?:\.\s*)?"
)


def parse_query(text: str, schema: Schema | None = None) -> ConjunctiveQuery:
    """Parse `Ans(v1,...,vk) <- A1, ..., Ad.` into a ConjunctiveQuery.

    One match checks the text against the grammar, and the atoms are read
    off the body as (relation, variables) tuples.  Identical atoms are
    deduplicated.  When a schema is given, relation symbols and arities are
    checked against it.
    """
    m = _QUERY_RE.fullmatch(text)
    if m is None:
        _raise_first_error(text, schema)
    arity = None if schema is None else schema._arity
    atoms = []
    for rel, x, y in dict.fromkeys(_ATOM_RE.findall(text, *m.span(2))):
        args = (x, y) if y else (x,)
        if arity is not None and arity.get(rel) != len(args):
            _raise_first_error(text, schema)
        atoms.append(tuple.__new__(Atom, (rel, args)))
    return ConjunctiveQuery(head=tuple(m[1].replace(",", " ").split()), atoms=tuple(atoms))


_HEAD_RE = re.compile(r"\s*Ans\s*\(([^()]*)\)\s*<-\s*")
# an atom-like piece.  Its name starts at the first letter or `_` of a run
# of name characters, as a search for `NAME\s*\(` would start it; starting
# the match at the run's start keeps the search linear.
_PIECE_RE = re.compile(rf"(?<![A-Za-z0-9_.])[0-9.]*({_NAME})\s*\(([^()]*)\)")


def _raise_first_error(text: str, schema: Schema | None) -> NoReturn:
    """Raise the error of the first bad piece, from the left, of a query
    text that the grammar or the schema rejects.  The pieces are the head,
    the atom-like pieces of the body (the text after `<-` up to an optional
    final period) and the text between them."""
    m = _HEAD_RE.match(text)
    if m is None:
        raise ParseError(f"cannot parse query {text!r} (expected `Ans(...) <- atom, ..., atom.`)")
    _variables_of(m[1], "head")
    body = text[m.end():].rstrip()
    body = body[:-1].rstrip() if body.endswith(".") else body
    pos = 0
    for am in _PIECE_RE.finditer(body):
        between = body[pos:am.start(1)].strip()
        if between not in ("", ","):
            raise ParseError(f"unexpected text {between!r} in query body")
        pos, rel = am.end(), am[1]
        n = len(_variables_of(am[2], f"atom {rel}"))
        if n not in (1, 2):
            raise ParseError(f"atom {rel} has {n} arguments (only unary/binary allowed)")
        if schema is not None and rel not in schema:
            raise SchemaError(f"unknown relation symbol {rel!r}")
        if schema is not None and schema.arity(rel) != n:
            raise SchemaError(
                f"atom {rel} has {n} arguments but {rel!r} has arity {schema.arity(rel)}")
    tail = body[pos:].strip()
    if tail not in ("", ","):
        raise ParseError(f"unexpected trailing text {tail!r} in query body")
    # the grammar accepts every text of good pieces with at least one atom
    raise ParseError("query needs at least one atom")


def _variables_of(blob: str, what: str) -> list[str]:
    parts = [p.strip() for p in blob.split(",")] if blob.strip() else []
    for p in parts:
        if not VAR_RE.fullmatch(p):
            raise ParseError(
                f"{what}: {p!r} is not a variable (lowercase identifier); constants are unsupported"
            )
    return parts
