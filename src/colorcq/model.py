"""Core data model: schemas, databases, conjunctive queries, and their parsers.

A database is a finite set of facts over a relational schema in which every
symbol has arity one or two.  Constants are interned to dense integer ids at
load time; all internal machinery works on ids and only the outermost layers
translate back to names.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
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

class Schema:
    """Relation symbols with arities restricted to 1 or 2."""

    def __init__(self, symbols: Iterable[tuple[str, int]] = ()):
        self._arity: dict[str, int] = {}
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
    and without repeated rows, which `set_relation` puts in.  `constants` lists
    the `num_constants` names; a Database made from their `block` of `\\n`-ended
    lines (UTF-8, a lone surrogate as `surrogatepass` writes it), or from another
    whose constants it shares, makes it on first read.
    """

    def __init__(self, schema: Schema, constants: Iterable[str] | bytes | memoryview | Database = ()):
        self.schema, self.block, self._of = schema, None, None
        if isinstance(constants, Database):
            self.block, self.num_constants, self._of = constants.block, constants.num_constants, constants
        elif isinstance(constants, (bytes, memoryview)):
            self.block, self.num_constants = constants, int((np.frombuffer(constants, "u1") == 10).sum())
        else:
            self.constants = list(dict.fromkeys(constants))
            self.num_constants = len(self.constants)

    constants = cached_property(lambda self: self._of.constants if self._of else _lines(self.block))
    _arrays = cached_property(lambda self: {})  # the rows by symbol; `index._LazyRows` makes them late

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
        if len(rows) and (rows.min() < 0 or rows.max() >= self.num_constants):
            raise ColorcqError(f"relation {rel!r} refers to a constant id that is not interned")
        # one key per row, ordered like the rows; ids are < num_constants,
        # so the key fits in an int64 for any list of constants that fits in memory
        key = rows[:, 0] if arity == 1 else rows[:, 0] * self.num_constants + rows[:, 1]
        if len(key) > 1 and not (key[1:] > key[:-1]).all():
            key = np.sort(key)  # a sort of the keys alone, which give back their rows
            key = key[np.append(True, key[1:] != key[:-1])]
            rows = key[:, None] if arity == 1 else np.stack(np.divmod(key, self.num_constants), axis=1)
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
        seen = np.zeros(self.num_constants, dtype=bool)
        for s in self.schema.symbols:
            seen[self.array(s).ravel()] = True
        return np.flatnonzero(seen)

    def __repr__(self) -> str:
        return f"<Database |D|={self.size()} adom={self.num_constants}>"


def load_database(src: str | TextIO) -> Database:
    """Parse a fact list (one `Name(a)` or `Name(a,b)` per line) into a Database.

    `#` starts a comment that runs to the end of the line; blank lines are
    ignored.  Whitespace may stand around the name, the parentheses and the
    comma, but not inside a name (`NAME_RE`) or a constant (any run of
    characters other than whitespace, `(`, `)`, `,` and `#`).  The schema is
    inferred from use.  A malformed line raises ParseError and an arity
    conflict SchemaError, each with the number of the first bad line.
    Constants get ids in order of first appearance.

    Lines and whitespace are those of `str.splitlines` and `str.strip`.  The
    text is read as its UTF-8 bytes (lone surrogates kept, as `surrogatepass`
    writes them), in which every whitespace character but space, tab and `\\n`
    is first replaced by a stand-in of the same length: spaces then `\\n` for a
    line break (` \\n` for `\\r\\n`), spaces for any other.  numpy then finds the
    tokens and checks the lines (`_scan`), strings are interned by one uint64
    key each, and the constants are kept as their `block`.  Before the error of
    a malformed line, the text before it is parsed again, which raises the
    error of any earlier line.
    """
    text = src if isinstance(src, str) else src.read()
    data = text.encode("utf-8", "surrogatepass")
    if any(c in data for c in b"\r\v\f\x1c\x1d\x1e\x1f"):  # seven scans, far faster than a regex
        data = data.replace(b"\r\n", b" \n").translate(_ASCII_STAND_IN)
    if not text.isascii():
        for lead, wide in _WIDE_RE.items():
            if lead in data:
                data = wide.sub(lambda m: _WIDE_STAND_IN[m[0]], data)
    # the padding lets _keys read the 8 bytes before any token end; the breaks
    # after the text end its last line and let _scan read 4 items past any line start
    data = b"".join((b"\n" * 8, _COMMENT_RE.sub(b"", data), b"\n" * 4))
    scan = _scan(data)  # positions in the text after the padding
    if isinstance(scan, int):
        raw = text.splitlines()
        load_database("\n".join(raw[:scan - 1]))  # raises the error of an earlier line
        raise _bad_line(raw, scan)
    ends, lens, binary = scan
    if not len(binary):
        return Database(Schema())

    # in a valid text, a token is a relation name iff it opens its line
    arity = 1 + binary
    name_tok = np.cumsum(arity + 1) - (arity + 1)
    buf = np.frombuffer(data, dtype=np.uint8, offset=8)
    lines, by = _group(_keys(data, ends[name_tok], lens[name_tok]))  # each relation's lines
    rel = np.argsort(lines[by[:-1]])  # the relations in order of first appearance
    first = lines[by[rel]]  # their first lines
    rel_names = _lines(_names(buf, ends[name_tok[first]], lens[name_tok[first]]))
    named = np.array([NAME_RE.fullmatch(r) is not None for r in rel_names])
    n_lines, n_binary = np.diff(by)[rel], np.add.reduceat(binary[lines], by[:-1], dtype=np.int64)[rel]
    if not named.all() or ((n_binary > 0) & (n_binary < n_lines)).any():
        # the first line that names a relation badly or uses it with its other arity
        other = lines[binary[lines] != binary[lines[by[:-1]]].repeat(np.diff(by))]
        bad = first[~named].min(initial=len(binary))
        k = other.min(initial=bad)
        t = name_tok[[k]]
        line = data.count(b"\n", 8, 8 + int(ends[t[0]])) + 1
        if k == bad:
            raise _bad_line(text.splitlines(), line)
        name, a = _lines(_names(buf, ends[t], lens[t]))[0], 1 + int(binary[k])
        raise SchemaError(f"line {line}: symbol {name!r} used with arities {3 - a} and {a}")
    rel_arity = np.where(n_binary > 0, 2, 1).tolist()
    ends, lens = np.delete(ends, name_tok), np.delete(lens, name_tok)  # the arguments' tokens
    perm, at = _group(_keys(data, ends, lens))  # the arguments by constant
    head = np.zeros(len(perm), dtype=bool)
    head[perm[at[:-1]]] = True  # each constant's first argument: their order gives the constant ids
    cid = np.empty(len(perm), dtype=np.int64)
    cid[perm] = (np.cumsum(head) - 1)[perm[at[:-1]]].repeat(np.diff(at))
    del perm, at  # freed before the block is made, to keep the peak memory low
    db = Database(Schema(zip(rel_names, rel_arity)), _names(buf, ends[head], lens[head]))
    first_arg = name_tok - np.arange(len(name_tok))  # index of each line's first argument in cid
    for name, a, g in zip(rel_names, rel_arity, rel.tolist()):
        col = first_arg[lines[by[g]:by[g + 1]]]
        db.set_relation(name, cid[col, None] if a == 1 else np.stack([cid[col], cid[col + 1]], 1))
    return db


def _bad_line(lines: list[str], lineno: int) -> ParseError:
    return ParseError(f"line {lineno}: cannot parse fact {lines[lineno - 1].strip()!r}")


# the stand-ins of the whitespace but space, tab and `\n`, each as long as its UTF-8 bytes:
# all the ASCII ones but \x1f, and U+0085, U+2028 and U+2029, are line breaks
_ASCII_STAND_IN = bytes.maketrans(b"\r\v\f\x1c\x1d\x1e\x1f", b"\n\n\n\n\n\n ")
_WIDE_STAND_IN = {c.encode(): b" " * (len(c.encode()) - 1) + (b"\n" if c in "\x85\u2028\u2029" else b" ")
                  for c in map(chr, [0x85, 0xA0, 0x1680, *range(0x2000, 0x200B), 0x2028, 0x2029, 0x202F,
                                     0x205F, 0x3000])}
# one regex per first byte of those, a literal byte that makes its search fast
_WIDE_RE = {lead: re.compile(b"%s(?:%s)" % (lead, b"|".join(k[1:] for k in _WIDE_STAND_IN if k[:1] == lead)))
            for lead in {k[:1] for k in _WIDE_STAND_IN}}
# byte classes after the stand-ins, as a bytes.translate table: all other bytes are token bytes
_TOKEN, _SPACE, _OPEN, _CLOSE, _COMMA, _NEWLINE = range(6)
_CLASS_OF = bytes(dict(zip(b" \t(),\n", (_SPACE, _SPACE, _OPEN, _CLOSE, _COMMA, _NEWLINE))).get(c, _TOKEN)
                  for c in range(256))
_COMMENT_RE = re.compile(rb"#[^\n]*")  # after the stand-ins, only `\n` ends a line


def _scan(data: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray] | int:
    """End and length of every token of the text after the 8 bytes of padding
    that start `data`, and per non-empty line whether it is binary; or the
    number of the first line that is not valid.

    A token is a maximal run of `_TOKEN` bytes.  A line is valid when it is
    empty or reads `T(T)` or `T(T,T)` once spaces and tabs are dropped, so
    space inside a token splits it and makes the line invalid.
    """
    cls = np.frombuffer(data.translate(_CLASS_OF), dtype=np.uint8, offset=7)  # from the last padding break
    tok = cls == _TOKEN
    cut = np.flatnonzero(tok[1:] != tok[:-1])  # each token's start and end in turn, as a break ends the text
    ends, lens = cut[1::2], cut[1::2] - cut[::2]

    # the stream of tokens and delimiters, one byte each, cut at _NEWLINE
    item = cls[1:] >= _OPEN
    item[cut[::2]] = True
    kind = np.compress(item, cls[1:])  # faster than cls[1:][item] where `item` is irregular
    breaks = np.flatnonzero(kind == _NEWLINE)
    at = np.append(0, breaks[:-1] + 1)
    width = breaks - at
    at, width = at[width > 0], width[width > 0]
    binary = width == 6
    ok = (binary | (width == 4)) & (kind[at] == _TOKEN) & (kind[at + 1] == _OPEN) & (kind[at + 2] == _TOKEN)
    ok &= (kind[at + width - 1] == _CLOSE) & ((kind[at + 3] == _COMMA) == binary)
    ok &= ~binary | (kind[at + 4] == _TOKEN)
    return (ends, lens, binary) if ok.all() else int(np.searchsorted(breaks, at[np.argmin(ok)])) + 1


def _keys(buf: bytes, ends: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """One uint64 key per byte string text[ends[i] - lens[i]:ends[i]], where
    `buf` is 8 bytes of padding followed by the text; keys are equal exactly
    when the strings are equal, whatever their bytes.

    A string of at most 7 bytes keys as its own bytes, read little-endian
    from the 8 bytes before its end and shifted down, with its length in the
    top byte, so `a` and `a\\0` differ.  A longer one keys as 2^63 | its
    number among the longer strings, given by one dict of their bytes.
    """
    window = np.ndarray(len(buf) - 7, "<u8", buf, strides=(1,))  # item i: the 8 bytes before byte i of text
    keys, n = window[ends], np.minimum(lens, 7).view(np.uint64)  # longer strings are keyed below
    shift = n << 3
    keys >>= np.subtract(56, shift, out=shift)  # in two steps, as a shift by 64 is undefined
    keys >>= 8
    keys |= np.left_shift(n, 56, out=n)
    far, ids = np.flatnonzero(lens > 7), {}
    at = zip(lens[far].tolist(), (ends[far] + 8).tolist())  # each longer string's length and end in buf
    keys[far] = np.fromiter((ids.setdefault(buf[e - k:e], len(ids)) for k, e in at), np.uint64, len(far))
    keys[far] |= np.uint64(1 << 63)
    return keys


_MIX = np.uint64(0x9E3779B97F4A7C15)  # odd, so multiplying by it permutes the uint64s


def _group(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The indices i of the (non-empty) keys of `_keys`, grouped by key in no set order and
    ascending per key, and where each group begins, then len(key): by their runs' first keys where
    equal keys sit in few runs, as relation names often do; else by one sort of the keys times `_MIX`
    with i in their low bits (a stable argsort where two keys share the bits kept)."""
    cut = key[1:] != key[:-1]
    if np.count_nonzero(cut) < len(key) // 4:
        run = np.flatnonzero(np.append(True, cut))
        perm, at = _group(key[run])
        size = np.diff(run, append=len(key))[perm]
        return _ranges(run[perm], size), np.append(0, np.cumsum(size))[at]
    low = np.uint64(len(key).bit_length())  # the bits of an index
    perm = np.sort(key * _MIX >> low << low | np.arange(len(key), dtype=np.uint64))
    new = np.append(True, perm[1:] >> low != perm[:-1] >> low)  # where the sorted mixed keys change
    perm = (perm & ((np.uint64(1) << low) - np.uint64(1))).astype(np.int64)
    if (new[1:] != np.diff(key[perm]).astype(bool)).any():  # two distinct keys share their kept bits
        perm = key.argsort(kind="stable")
        new = np.append(True, np.diff(key[perm]) != 0)
    return perm, np.append(np.flatnonzero(new), len(key))


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenation of the integer ranges [starts[i], starts[i] + lens[i])."""
    out = (starts - np.add.accumulate(lens) + lens).repeat(lens)
    return out + np.arange(len(out))


def _names(buf: np.ndarray, ends: np.ndarray, lens: np.ndarray) -> bytes:
    """The strings buf[ends[i] - lens[i]:ends[i]], which hold no `\\n` and are
    each followed by at least one byte of `buf`, as one `\\n`-ended line each."""
    size = lens + 1
    at = np.cumsum(size) - size  # where each string starts in the output
    # out[p] = buf[at_p], where at_p grows by one inside a string and its
    # separator and jumps to the next string's start after
    at_p = np.ones(int(size.sum()), dtype=np.int64)
    at_p[0] = ends[0] - lens[0]
    at_p[at[1:]] = ends[1:] - lens[1:] - ends[:-1]
    out = buf[np.cumsum(at_p, out=at_p)]
    del at_p  # freed before the block is copied out, to keep the peak memory low
    out[at + lens] = ord("\n")
    return out.tobytes()


def _lines(block: bytes) -> list[str]:
    return str(block, "utf-8", "surrogatepass").split("\n")[:-1]


class Atom(NamedTuple):
    rel: str
    args: tuple[str, ...]

    def __str__(self) -> str:
        return f"{self.rel}({','.join(self.args)})"


FWD, BWD = "+", "-"  # the directions of the (symbol, direction) pairs of edge labels
_NO_ATOMS: frozenset[tuple[str, int]] = frozenset()
_ONE: dict[str, tuple] = {}  # relation R -> its one-pair labels ((R,+),) and ((R,-),), shared


@dataclass(init=False, unsafe_hash=True)  # equal and hashed by head and atoms
class ConjunctiveQuery:
    """`Ans(head) <- atoms` with set semantics; every argument is a variable.

    Its one pass over the atoms builds what planning reads: `adj`, the Gaifman
    graph by variable in order of first appearance, where R(x,y) puts (R,+) on
    edge (x, y) and (R,-) on (y, x) (an edge's pairs form a sorted tuple), and
    `unary`, per variable x the atoms on x alone: (U, 1) for U(x) and (R, 2) for
    the loop R(x,x); `free` is the set of head variables.  A query is not
    changed once built."""

    __slots__ = ("head", "atoms", "adj", "unary", "free")
    head: tuple[str, ...]
    atoms: tuple[Atom, ...]

    def __init__(self, head: tuple[str, ...], atoms: tuple[Atom, ...]):
        if not atoms:
            raise ParseError("query needs at least one atom")
        self.head, self.atoms = head, atoms
        self.adj, self.unary = adj, unary = {}, {}
        for rel, args in atoms:
            n = len(args)
            if n == 2 and args[0] != args[1]:
                x, y = args
                ax, ay = adj.setdefault(x, {}), adj.setdefault(y, {})
                pairs = ax.get(y)
                if pairs is None:
                    ax[y], ay[x] = _ONE.get(rel) or _ONE.setdefault(rel, (((rel, FWD),), ((rel, BWD),)))
                elif (rel, FWD) not in pairs:
                    ax[y] = tuple(sorted((*pairs, (rel, FWD))))
                    ay[x] = tuple(sorted((*ay[x], (rel, BWD))))
                continue
            for v in args:
                adj.setdefault(v, {})
            if n in (1, 2):
                unary[args[0]] = unary.get(args[0], _NO_ATOMS) | {(rel, n)}
        self.free = free = frozenset(head)
        if len(free) != len(head):
            raise ParseError(f"repeated variable in head {head}")
        if not adj.keys() >= free:
            missing = [v for v in head if v not in adj]
            raise ParseError(f"head variable(s) {missing} do not occur in the body")

    def variables(self) -> tuple[str, ...]:
        """The variables in order of first appearance in the atoms."""
        return tuple(self.adj)

    @property
    def is_boolean(self) -> bool:
        return not self.head

    def __str__(self) -> str:
        return f"Ans({','.join(self.head)}) <- {', '.join(map(str, self.atoms))}."


_NAME, _VAR = NAME_RE.pattern + "+", VAR_RE.pattern + "+"
# the grammar of a query, one match per atom (the first with the head); an atom's
# last group is set when the text ends after it.  No `*+` stands before a character
# it matches, so making it possessive (no backtracking into it) changes no match.
_ATOM = rf"\s*+({_NAME})\s*+\(\s*+({_VAR})\s*+(?:,\s*+({_VAR})\s*+)?\)(?:\s*+,)?(\s*+(?:\.\s*+)?\Z)?"
_FIRST_ATOM_RE = re.compile(
    rf"\s*+Ans\s*+\(\s*+((?:{_VAR}\s*+(?:,\s*+{_VAR}\s*+)*)?)\)\s*+<-(?:\s*+,)?{_ATOM}")
_ATOM_RE = re.compile(_ATOM)


def parse_query(text: str, schema: Schema | None = None) -> ConjunctiveQuery:
    """Parse `Ans(v1,...,vk) <- A1, ..., Ad.` into a ConjunctiveQuery, one
    match per atom.  Identical atoms are deduplicated.  When a schema is
    given, relation symbols and arities are checked against it."""
    m = a = _FIRST_ATOM_RE.match(text)
    arity = None if schema is None else schema._arity
    atoms: dict[Atom, None] = {}
    while a is not None:
        rel, x, y, end = a.groups()[-4:]
        args = (x, y) if y else (x,)
        if arity is not None and arity.get(rel) != len(args):
            break
        atoms[tuple.__new__(Atom, (rel, args))] = None
        if end is not None:
            return ConjunctiveQuery(tuple(m[1].replace(",", " ").split()), tuple(atoms))
        a = _ATOM_RE.match(text, a.end())
    _raise_first_error(text, schema)


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
