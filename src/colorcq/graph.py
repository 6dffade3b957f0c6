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
from functools import cached_property
from typing import Iterable

import numpy as np

from .model import Database, Schema

FWD = "+"
BWD = "-"
_DUAL_DIR = {FWD: BWD, BWD: FWD}


@dataclass(frozen=True)
class EdgeLabel:
    """Non-empty set of (symbol, direction) pairs, stored canonically sorted."""

    pairs: tuple[tuple[str, str], ...]

    def __init__(self, pairs: Iterable[tuple[str, str]]):
        canon = tuple(sorted(set(pairs)))
        if not canon:
            raise ValueError("edge labels must be non-empty")
        for _, d in canon:
            if d not in (FWD, BWD):
                raise ValueError(f"bad direction {d!r}")
        object.__setattr__(self, "pairs", canon)

    def dual(self) -> EdgeLabel:
        return EdgeLabel((s, _DUAL_DIR[d]) for s, d in self.pairs)

    def issubset(self, other: EdgeLabel) -> bool:
        return set(self.pairs) <= set(other.pairs)

    def __str__(self) -> str:
        return "{" + ",".join(f"({s},{d})" for s, d in self.pairs) + "}"


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
    """The Σ1 of `schema`, memoized on it until a symbol is added."""
    s1 = schema.memo.get("sigma1")
    if s1 is None:
        out = Schema((s, schema.arity(s)) for s in schema.symbols)
        loop_symbol: dict[str, str] = {}
        for r in schema.binary_symbols:
            cand = f"S_{r}"
            while cand in out:
                cand = "_" + cand
            out.add(cand, 1)
            loop_symbol[r] = cand
        s1 = schema.memo["sigma1"] = Sigma1(base=schema, schema=out, loop_symbol=loop_symbol)
    return s1


def encode_self_loops(db: Database) -> tuple[Database, Sigma1]:
    """Rewrite `(v,v) in R` into loop facts, preserving the intern table."""
    s1 = sigma1_for(db.schema)
    d1 = Database(s1.schema)
    d1.constants = list(db.constants)  # already distinct: no need to deduplicate again
    for sym in db.schema.symbols:
        rows = db.array(sym)
        if db.schema.arity(sym) == 1:
            d1.set_relation(sym, rows)
        else:
            loop = rows[:, 0] == rows[:, 1]
            d1.set_relation(sym, rows[~loop])
            d1.set_relation(s1.loop_symbol[sym], rows[loop, :1])
    return d1, s1


_WORD = 63  # bits per int64 word of a bit set; bit 63 is the sign


def _pack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One int64 per pair (a[i], b[i]) of non-negative ints, ordered like the pairs."""
    if not len(a):
        return np.zeros(0, np.int64)
    width = int(b.max()) + 1
    if (int(a.max()) + 1) * width >= 1 << 63:
        a, b = (np.unique(x, return_inverse=True)[1] for x in (a, b))
        width = int(b.max()) + 1
    return a * width + b


def _starts(a: np.ndarray) -> np.ndarray:
    """Indices where a run of equal values begins in `a`."""
    head = np.ones(len(a), bool)
    head[1:] = a[1:] != a[:-1]
    return np.flatnonzero(head)


def _rank_bitsets(owner: np.ndarray, bit: np.ndarray, n: int) -> tuple[np.ndarray, list[int]]:
    """Rank the sets {bit[i] : owner[i] == o} of the owners o in range(n).

    Returns each owner's dense set id, numbered in increasing order of the
    sets read as integers, and each id's set as a Python int.  The pairs
    (owner[i], bit[i]) must be distinct.  Sets of any width are held as
    int64 words of 63 bits and ranked word by word, most significant first.
    """
    if n == 0:
        return np.zeros(0, np.int64), []
    words = np.zeros(((int(bit.max()) if len(bit) else 0) // _WORD + 1, n), np.int64)
    np.add.at(words, (bit // _WORD, owner), np.int64(1) << (bit % _WORD))  # distinct: sum = union
    rank = np.zeros(n, np.int64)
    for w in words[::-1]:
        rank = np.unique(_pack(rank, w), return_inverse=True)[1].reshape(-1)
    reps = np.unique(rank, return_index=True)[1]
    sets = [
        sum(x << (_WORD * j) for j, x in enumerate(col))
        for col in words[:, reps].T.tolist()
    ]
    return rank, sets


class LabeledGraph:
    """CSR adjacency over the active domain, with interned edge labels.

    `verts[i]` is the constant id of vertex i; `indptr`/`nbr`/`elab` store the
    out-edges of each vertex sorted by target; `labels[elab[e]]` is the edge
    label of directed edge e and `dual_id` maps a label id to its dual's id.
    """

    def __init__(self, d1: Database, s1: Sigma1):
        self.d1 = d1
        self.s1 = s1
        self.unary_symbols: tuple[str, ...] = s1.schema.unary_symbols
        self._uidx = {u: i for i, u in enumerate(self.unary_symbols)}

        self.verts = d1.adom_ids()
        self.n = len(self.verts)
        vertex = np.zeros(len(d1.constants), np.int64)  # vertex index by constant id
        vertex[self.verts] = np.arange(self.n)

        # vertex labels: `vl_id[v]` names the set of unary symbols holding on
        # v, and `label_masks[vl_id[v]]` is that set as a bitmask (bit i for
        # unary symbol i)
        owner = [np.zeros(0, np.int64)]
        bit = [np.zeros(0, np.int64)]
        for u, i in self._uidx.items():
            owner.append(vertex[d1.array(u)[:, 0]])
            bit.append(np.full(len(owner[-1]), i, np.int64))
        self.vl_id, self.label_masks = _rank_bitsets(
            np.concatenate(owner), np.concatenate(bit), self.n)

        self._build_edges(vertex)

    def vertex_of(self, cid: int) -> int:
        v = int(np.searchsorted(self.verts, cid))
        if v >= self.n or self.verts[v] != cid:
            raise KeyError(f"constant id {cid} is not in the active domain")
        return v

    def const_of(self, v: int) -> int:
        return int(self.verts[v])

    @cached_property
    def vl_mask(self) -> np.ndarray:
        """Per-vertex bitmask of the unary symbols (Python ints, any width)."""
        return np.array(self.label_masks, dtype=object)[self.vl_id]

    def vl(self, v: int) -> frozenset[str]:
        m = self.vl_mask[v]
        return frozenset(u for u, i in self._uidx.items() if m >> i & 1)

    def _build_edges(self, vertex: np.ndarray) -> None:
        binary = self.d1.schema.binary_symbols
        srcs: list[np.ndarray] = [np.zeros(0, np.int64)]
        dsts: list[np.ndarray] = [np.zeros(0, np.int64)]
        tags: list[np.ndarray] = [np.zeros(0, np.int64)]
        for r, sym in enumerate(binary):
            rows = self.d1.array(sym)
            a, b = vertex[rows[:, 0]], vertex[rows[:, 1]]
            srcs += [a, b]
            dsts += [b, a]
            tags += [np.full(len(a), 2 * r, np.int64), np.full(len(a), 2 * r + 1, np.int64)]

        # one directed entry per (src, dst) pair; the label collects every tag
        src = np.concatenate(srcs)
        dst = np.concatenate(dsts)
        tag = np.concatenate(tags)
        order = np.argsort(_pack(_pack(src, dst), tag))
        src, dst, tag = src[order], dst[order], tag[order]
        first = np.ones(len(src), dtype=bool)
        first[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
        starts = np.flatnonzero(first)
        elab, masks = _rank_bitsets(np.cumsum(first) - 1, tag, len(starts))

        self.labels: tuple[EdgeLabel, ...] = tuple(
            EdgeLabel(self._mask_pairs(m, binary)) for m in masks)
        self._label_ids: dict[EdgeLabel, int] = {lab: i for i, lab in enumerate(self.labels)}
        self.dual_id = np.array(
            [self._label_ids[lab.dual()] for lab in self.labels], dtype=np.int64
        )
        self.nbr = dst[starts]
        self.elab = elab
        self.indptr = np.append(0, np.cumsum(np.bincount(src[starts], minlength=self.n)))

    @staticmethod
    def _mask_pairs(mask: int, binary: tuple[str, ...]) -> list[tuple[str, str]]:
        out = []
        r = 0
        while mask:
            if mask & 1:
                out.append((binary[r // 2], FWD if r % 2 == 0 else BWD))
            mask >>= 1
            r += 1
        return out

    # -- small query helpers (tests and naive code paths) --

    def label_id(self, lab: EdgeLabel) -> int | None:
        return self._label_ids.get(lab)

    def out_edges(self, v: int) -> list[tuple[int, EdgeLabel]]:
        lo, hi = self.indptr[v], self.indptr[v + 1]
        return [(int(self.nbr[e]), self.labels[self.elab[e]]) for e in range(lo, hi)]

    def edge_label(self, v: int, w: int) -> EdgeLabel | None:
        lo, hi = self.indptr[v], self.indptr[v + 1]
        e = lo + np.searchsorted(self.nbr[lo:hi], w)
        if e < hi and self.nbr[e] == w:
            return self.labels[self.elab[e]]
        return None

    @property
    def num_directed_edges(self) -> int:
        return len(self.nbr)

    def initial_colors(self) -> tuple[np.ndarray, int]:
        """Dense ids of the vertex-label partition (refinement starting point)."""
        return self.vl_id.copy(), len(self.label_masks)


def build_labeled_graph(d1: Database, s1: Sigma1) -> LabeledGraph:
    """Precondition: `d1` is loop-free (see `encode_self_loops`)."""
    return LabeledGraph(d1, s1)
