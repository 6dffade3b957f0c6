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


def _rank_sets(at: np.ndarray, member: np.ndarray) -> np.ndarray:
    """Dense ids of the sets member[at[i]:at[i + 1]], runs of distinct ascending ints >= 0, in the order of
    the sets read as integers: below 16 through a table of masks, else by multiset discrimination, largest
    members first, each step sorting the tied runs by place (where their group starts) and next digits."""
    n, top = len(at) - 1, int(member.max(initial=0))
    if top < 16:
        key = np.diff(np.append(0, np.cumsum(np.left_shift(1, member)))[at])  # distinct members: sum = union
    else:  # a member m is the digit m + 1, and a run ends in a 0
        width, digits = top + 2, (63 - n.bit_length()) // (top + 2).bit_length()  # n * width**digits < 2**63
        key, act, left, end = np.zeros(n, np.int64), np.arange(n), np.diff(at) + 1, at[1:] - 1
        while len(act):  # key: each run's place; of the runs in act: their digits left, their next member
            pk = key[act] * width**digits
            for i in range(min(digits, int(left.max()) - 1)):
                pk += np.where(left > i + 1, member[end - i] + 1, 0) * width ** (digits - 1 - i)
            act, pk, left, end = (x[by] for by in [np.argsort(pk)] for x in (act, pk, left, end))
            first = np.searchsorted(pk, pk)
            key[act] += first - np.searchsorted(pk, pk - pk % width**digits)  # its new group's place
            keep = (left > digits) & (np.searchsorted(pk, pk, "right") > first + 1)
            act, left, end = act[keep], left[keep] - digits, end[keep] - digits
    return (np.cumsum(np.bincount(key, minlength=1) > 0) - 1)[key]


def _as_ints(at: np.ndarray, member: np.ndarray, ids: np.ndarray) -> list[int]:
    """Each id's set as a Python int (bit b for member b): its int64 words, which its runs write alike."""
    w = int(member.max(initial=0)) // 64 + 1  # the words of a set
    word = np.repeat(ids * w, np.diff(at)) + (member >> 6)
    cut = _bounds(word)[:-1]
    buf = np.zeros((int(ids.max(initial=-1)) + 1) * w, "<i8")
    buf[word[cut]] = np.bitwise_or.reduceat(np.left_shift(1, member & 63), cut)  # bit 63 is the sign
    return [int.from_bytes(x, "little") for x in buf.reshape(-1, w)]


class Vertices:
    """The vertices of a labeled graph and their labels, without the edges:
    `verts[i]` is the constant id of vertex i, `unary[j]` the vertices, ascending,
    of the j-th unary symbol of Σ1; `vl_id[v]` names the set of unary symbols
    of v, and `label_masks[vl_id[v]]` is that set as a bitmask (bit j: symbol j)."""

    def __init__(self, s1: Sigma1, verts: np.ndarray, unary: list[np.ndarray]):
        self.unary_symbols: tuple[str, ...] = s1.schema.unary_symbols
        self._uidx = {u: i for i, u in enumerate(self.unary_symbols)}
        self.verts, self.n, self.unary = verts, len(verts), unary
        owner, sym = _sort_rows(np.concatenate([np.zeros(0, np.int64), *unary]),
                                np.repeat(np.arange(len(unary)), [len(r) for r in unary]))
        at = _bounds(owner)  # one run per vertex with a unary symbol; those without have the least set
        ids, empty = _rank_sets(at, sym), int(len(at) - 1 < self.n)
        self.vl_id = np.zeros(self.n, np.int64)
        self.vl_id[owner[at[:-1]]] = ids + empty
        self.label_masks = [0] * empty + _as_ints(at, sym, ids)


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
        """One `_sort_rows` of the directed edges of `d1` by (source, target, tag); each pair's
        label is the set of its run of tags, ranked by `_rank_sets`."""
        binary = d1.schema.binary_symbols
        # the fact R(a, b) of the r-th binary R is the edge (a, b) with tag 2r and (b, a) with tag 2r + 1
        rows = [x for sym in binary for r in [vertex[d1.array(sym)]] for x in (r, r[:, ::-1])]
        edges = np.concatenate([np.zeros((0, 2), np.int64), *rows])
        tag = np.repeat(np.arange(len(rows)), [len(x) for x in rows])

        # one directed entry per (src, dst) pair; the label collects every tag
        src, dst, tag = _sort_rows(edges[:, 0], edges[:, 1], tag)  # the rows are distinct
        at = _bounds(src, dst)  # one run per (src, dst) pair
        self.elab = _rank_sets(at, tag)
        lo = np.zeros(int(self.elab.max(initial=-1)) + 1, np.int64)
        lo[self.elab] = at[:-1]  # where the tags of a pair of each label begin
        pairs = [(r, d) for r in binary for d in (FWD, BWD)]  # the pair of each tag
        self.labels: tuple[EdgeLabel, ...] = tuple(EdgeLabel(pairs[t] for t in tag[a:b].tolist()) for a, b in zip(
            lo.tolist(), at[np.searchsorted(at, lo, "right")].tolist()))
        self.nbr = dst[at[:-1]]
        self.indptr = np.append(0, np.cumsum(np.bincount(src[at[:-1]], minlength=self.n)))

    @property
    def num_directed_edges(self) -> int:
        return len(self.nbr)


def build_labeled_graph(d1: Database, s1: Sigma1) -> LabeledGraph:
    """Precondition: `d1` is loop-free (see `encode_self_loops`)."""
    return LabeledGraph(d1, s1)
