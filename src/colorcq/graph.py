"""Loop-free labeled-graph view of a binary-schema database.

Self-loops R(v,v) are first re-encoded as fresh unary facts S_R(v), which
leaves a database whose binary tuples all relate distinct constants.  That
database is then read as an undirected graph on the active domain: vertices
carry the set of unary symbols that hold on them, and each ordered pair of
adjacent vertices carries the set of (symbol, direction) pairs that relate
them.  The reverse pair always carries the dual label (directions flipped).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .model import BWD, FWD, Database, Schema

_DUAL_DIR = {FWD: BWD, BWD: FWD}


class EdgeLabel:
    """Non-empty set of (symbol, direction) pairs, stored canonically sorted.

    Labels are interned: `EdgeLabel(pairs)` returns the one label of its set
    of pairs, in every process, so a label is its own id.  It compares and
    hashes by identity, and a copy or an unpickled label is the same object."""

    __slots__ = ("pairs", "_dual")

    def __new__(cls, pairs: Iterable[tuple[str, str]]) -> EdgeLabel:
        return label_of(tuple(sorted(set(pairs))))

    def __reduce__(self) -> tuple:
        return EdgeLabel, (self.pairs,)

    def dual(self) -> EdgeLabel:
        """The label with every direction flipped; found once, then kept."""
        if self._dual is None:
            self._dual = EdgeLabel((s, _DUAL_DIR[d]) for s, d in self.pairs)
        return self._dual

    def __repr__(self) -> str:
        return f"EdgeLabel(pairs={self.pairs!r})"

    def __str__(self) -> str:
        return "{" + ",".join(f"({s},{d})" for s, d in self.pairs) + "}"


class _Labels(dict):
    def __missing__(self, pairs: tuple[tuple[str, str], ...]) -> EdgeLabel:
        if not pairs:
            raise ValueError("edge labels must be non-empty")
        for _, d in pairs:
            if d not in (FWD, BWD):
                raise ValueError(f"bad direction {d!r}")
        lab = object.__new__(EdgeLabel)
        lab.pairs, lab._dual = pairs, None
        return self.setdefault(pairs, lab)  # concurrent first calls keep the first label made


# the label of canonical (sorted, distinct) pairs, made on first lookup and
# then kept; warm, one dict get
label_of = _Labels().__getitem__


def e_symbol(lab: EdgeLabel) -> str:
    """Relation name used for the edge label λ in colour-level schemas."""
    return "E" + str(lab)


@dataclass(frozen=True)
class Sigma1:
    """Loop-free schema derived from a base schema.

    Every binary symbol R gets a fresh unary symbol (nominally `S_R`) that
    records which constants had a self-loop in R.  Fresh names are chosen to
    collide with nothing in the base schema.
    """

    base: Schema
    schema: Schema
    loop_symbol: dict[str, str]


def sigma1_for(schema: Schema) -> Sigma1:
    """The Σ1 of `schema`, made from its symbols as they are now."""
    out = Schema((s, schema.arity(s)) for s in schema.symbols)
    loop_symbol: dict[str, str] = {}
    for r in schema.binary_symbols:
        cand = f"S_{r}"
        while cand in out:
            cand = "_" + cand
        out.add(cand, 1)
        loop_symbol[r] = cand
    return Sigma1(base=schema, schema=out, loop_symbol=loop_symbol)


def encode_self_loops(db: Database) -> tuple[Database, Sigma1]:
    """Rewrite `(v,v) in R` into loop facts, sharing `db`'s constants."""
    s1 = sigma1_for(db.schema)
    d1 = Database(s1.schema, db)
    for sym in db.schema.symbols:
        rows = db.array(sym)
        if db.schema.arity(sym) == 1:
            d1.set_relation(sym, rows)
        else:
            loop = rows[:, 0] == rows[:, 1]
            # without a loop, share the rows: arrays are replaced, never changed in place
            d1.set_relation(sym, rows[~loop] if loop.any() else rows)
            d1.set_relation(s1.loop_symbol[sym], rows[loop, :1])
    return d1, s1


_WORD = 63  # bits per int64 word of a bit set; bit 63 is the sign
_BITS = 63  # the bits of a packed sort key, all of an int64 but its sign


def _sort_rows(*cols: np.ndarray) -> list[np.ndarray]:
    """The rows (cols[0][i], cols[1][i], ...) of non-negative ints, sorted, as columns: each packed by
    shifts into one int64, sorted and unpacked, or by `np.lexsort` if wider than `_BITS` bits.  Equal
    rows are alike, so no sort need be stable: a last column of distinct values carries arrays along."""
    widths = [int(c.max(initial=0)).bit_length() for c in cols]
    if sum(widths) > _BITS:
        by = np.lexsort(cols[::-1])
        return [c[by] for c in cols]
    key = cols[0].astype(np.int64)
    for c, w in zip(cols[1:], widths[1:]):
        key <<= w
        key |= c
    key.sort()
    out = []
    for w in widths[:0:-1]:
        out.append(key & ((1 << w) - 1))
        key >>= w
    return [key, *out[::-1]]


def _pack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One int64 per pair (a[i], b[i]) of non-negative ints, ordered like the pairs."""
    if not len(a):
        return np.zeros(0, np.int64)
    width = int(b.max()) + 1
    if (int(a.max()) + 1) * width >= 1 << 63:
        a, b = (np.unique(x, return_inverse=True)[1] for x in (a, b))
        width = int(b.max()) + 1
    return a * width + b


def _bounds(a: np.ndarray, *more: np.ndarray) -> np.ndarray:
    """Where each run of equal rows (a[i], *more[i]) begins, then len(a)."""
    cut = np.empty(len(a) + 1, bool)
    cut[0] = cut[-1] = True
    np.not_equal(a[1:], a[:-1], out=cut[1:-1])
    for b in more:  # compared in place: cheaper than gathering a packed key
        cut[1:-1] |= b[1:] != b[:-1]
    return cut.nonzero()[0]


def _rank_bitsets(owner: np.ndarray, bit: np.ndarray, n: int) -> tuple[np.ndarray, list[int]]:
    """Rank the sets {bit[i] : owner[i] == o} of the owners o in range(n), held
    as int64 words of 63 bits (`_rank_words`); the pairs (owner[i], bit[i]) must be distinct."""
    word = bit // _WORD  # `bit - word * _WORD` costs less than `bit % _WORD`
    words = np.zeros((int(word.max(initial=0)) + 1, n), np.int64)
    np.add.at(words.ravel(), word * n + owner, np.int64(1) << (bit - word * _WORD))  # distinct: sum = union
    return _rank_words(words)


def _rank_words(words: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Each column's dense set id, numbered in increasing order of the sets read as
    integers, and each id's set as a Python int, where the set of column o has
    the bits of words[j, o] at 63·j and up.  Sets within 16 bits are ranked through
    a table of all such sets, others word by word, most significant first."""
    n, top = words.shape[1], int(words.max(initial=0))
    if not top:  # all sets are empty
        return np.zeros(n, np.int64), [0] if n else []
    if len(words) == 1 and top < 1 << 16:
        seen = np.bincount(words[0]) > 0
        return (np.cumsum(seen) - 1)[words[0]], np.flatnonzero(seen).tolist()
    rank = np.zeros(n, np.int64)
    for w in words[::-1]:
        if w.any():  # a word no set uses splits no rank
            key = _pack(rank, w)
            perm = np.argsort(key, kind="stable")  # a quicksort argsort is erratic on few distinct keys
            rank[perm] = np.cumsum(np.append(0, np.diff(key[perm]) != 0))
    reps = np.empty(int(rank.max()) + 1, np.int64)
    reps[rank] = np.arange(n)  # any member of a rank holds its set
    return rank, [sum(x << (_WORD * j) for j, x in enumerate(col)) for col in words[:, reps].T.tolist()]


class Vertices:
    """The vertices of a labeled graph and their labels, without the edges:
    `verts[i]` is the constant id of vertex i, `unary[j]` the vertices, ascending,
    of the j-th unary symbol of Σ1; `vl_id[v]` names the set of unary symbols
    of v, and `label_masks[vl_id[v]]` is that set as a bitmask (bit j: symbol j)."""

    def __init__(self, s1: Sigma1, verts: np.ndarray, unary: list[np.ndarray]):
        self.unary_symbols: tuple[str, ...] = s1.schema.unary_symbols
        self._uidx = {u: i for i, u in enumerate(self.unary_symbols)}
        self.verts, self.n, self.unary = verts, len(verts), unary
        bit = [np.full(len(rows), j, np.int64) for j, rows in enumerate(unary)]
        none = [np.zeros(0, np.int64)]
        self.vl_id, self.label_masks = _rank_bitsets(
            np.concatenate(none + unary), np.concatenate(none + bit), self.n)


class LabeledGraph(Vertices):
    """CSR adjacency over the active domain, with interned edge labels.

    `indptr`/`nbr`/`elab` store the out-edges of each vertex sorted by
    target; `labels[elab[e]]` is the edge label of directed edge e.
    """

    def __init__(self, d1: Database, s1: Sigma1):
        verts = d1.adom_ids()
        vertex = np.zeros(d1.num_constants, np.int64)  # vertex index by constant id
        vertex[verts] = np.arange(len(verts))
        super().__init__(s1, verts, [vertex[d1.array(u)[:, 0]] for u in s1.schema.unary_symbols])
        self._build_edges(d1, vertex)

    def _build_edges(self, d1: Database, vertex: np.ndarray) -> None:
        """One `_sort_rows` of the directed edges of `d1` by (source, target, tag); each pair's label
        is the set of its tags, as one word up to 63 tags (`_rank_words`), else in words of 63 bits."""
        binary = d1.schema.binary_symbols
        # the fact R(a, b) of the r-th binary R is the edge (a, b) with tag 2r and (b, a) with tag 2r + 1
        rows = [x for sym in binary for r in [vertex[d1.array(sym)]] for x in (r, r[:, ::-1])]
        edges = np.concatenate([np.zeros((0, 2), np.int64), *rows])
        tag = np.repeat(np.arange(len(rows)), [len(x) for x in rows])

        # one directed entry per (src, dst) pair; the label collects every tag
        src, dst, tag = _sort_rows(edges[:, 0], edges[:, 1], tag)  # the rows are distinct
        at = _bounds(src, dst)  # one run per (src, dst) pair
        starts = at[:-1]
        pairs = [(r, d) for r in binary for d in (FWD, BWD)]  # the pair of each tag, as a bit of a mask
        if len(pairs) <= _WORD:  # a pair's tags as the bits of one word
            elab, masks = _rank_words(np.bitwise_or.reduceat(np.left_shift(1, tag), starts)[None])
        else:
            elab, masks = _rank_bitsets(np.arange(len(starts)).repeat(np.diff(at)), tag, len(starts))
        self.labels: tuple[EdgeLabel, ...] = tuple(
            EdgeLabel(p for b, p in enumerate(pairs[:m.bit_length()]) if m >> b & 1) for m in masks)
        self.nbr = dst[starts]
        self.elab = elab
        self.indptr = np.append(0, np.cumsum(np.bincount(src[starts], minlength=self.n)))

    @property
    def num_directed_edges(self) -> int:
        return len(self.nbr)


def build_labeled_graph(d1: Database, s1: Sigma1) -> LabeledGraph:
    """Precondition: `d1` is loop-free (see `encode_self_loops`)."""
    return LabeledGraph(d1, s1)
