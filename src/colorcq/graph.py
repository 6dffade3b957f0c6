"""Loop-free labeled-graph view of a binary-schema database.

Self-loops R(v,v) are first re-encoded as fresh unary facts S_R(v), which
leaves a database whose binary tuples all relate distinct constants.  That
database is then read as an undirected graph on the active domain: vertices
carry the set of unary symbols that hold on them, and each ordered pair of
adjacent vertices carries the set of (symbol, direction) pairs that relate
them.  The reverse pair always carries the dual label (directions flipped).
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
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

    @property
    def id(self) -> int:
        """The label's process-wide id (`label_id`)."""
        return label_id(self.pairs)

    def dual(self) -> EdgeLabel:
        return EdgeLabel((s, _DUAL_DIR[d]) for s, d in self.pairs)

    def __str__(self) -> str:
        return "{" + ",".join(f"({s},{d})" for s, d in self.pairs) + "}"


# the process-wide intern table: canonical pairs -> id -> label, one entry
# per distinct label ever named
_LABEL_IDS: dict[tuple[tuple[str, str], ...], int] = {}
_LABELS: list[EdgeLabel] = []
_INTERN = threading.Lock()
label_of = _LABELS.__getitem__  # the label of an id


def label_id(pairs: tuple[tuple[str, str], ...]) -> int:
    """The int id of the label of `pairs` (sorted, distinct), the same on every
    schema, Σ1 and index: plans and index memos key on it, not on labels."""
    lid = _LABEL_IDS.get(pairs)
    if lid is None:
        with _INTERN:
            lid = _LABEL_IDS.get(pairs)
            if lid is None:  # list the label before its id is published
                _LABELS.append(EdgeLabel(pairs))
                lid = _LABEL_IDS[pairs] = len(_LABELS) - 1
    return lid


class _Duals(dict):
    def __missing__(self, lid: int) -> int:  # made on first lookup, then kept
        return self.setdefault(lid, label_id(label_of(lid).dual().pairs))


dual_of = _Duals().__getitem__  # label id -> its dual's id; warm, one dict get


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
            # without a loop, share the rows: arrays are replaced, never changed in place
            d1.set_relation(sym, rows[~loop] if loop.any() else rows)
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


def _bounds(a: np.ndarray, *more: np.ndarray) -> np.ndarray:
    """Where each run of equal rows (a[i], *more[i]) begins, then len(a)."""
    cut = np.empty(len(a) + 1, bool)
    cut[0] = cut[-1] = True
    np.not_equal(a[1:], a[:-1], out=cut[1:-1])
    for b in more:  # compared in place: cheaper than gathering a packed key
        cut[1:-1] |= b[1:] != b[:-1]
    return cut.nonzero()[0]


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenation of the integer ranges [starts[i], starts[i] + lens[i])."""
    out = (starts - np.add.accumulate(lens) + lens).repeat(lens)
    return out + np.arange(len(out))


def _rank_bitsets(owner: np.ndarray, bit: np.ndarray, n: int) -> tuple[np.ndarray, list[int]]:
    """Rank the sets {bit[i] : owner[i] == o} of the owners o in range(n).

    Returns each owner's dense set id, numbered in increasing order of the
    sets read as integers, and each id's set as a Python int.  The pairs
    (owner[i], bit[i]) must be distinct.  Sets of any width are held as
    int64 words of 63 bits and ranked word by word, most significant first.
    """
    if n == 0:
        return np.zeros(0, np.int64), []
    word = bit // _WORD  # `bit - word * _WORD` costs less than `bit % _WORD`
    words = np.zeros((int(word.max(initial=0)) + 1) * n, np.int64)
    np.add.at(words, word * n + owner, np.int64(1) << (bit - word * _WORD))  # distinct: sum = union
    words = words.reshape(-1, n)
    rank = np.zeros(n, np.int64)
    for w in words[::-1]:
        if w.any():  # a word no set uses splits no rank
            rank = np.unique(_pack(rank, w), return_inverse=True)[1].reshape(-1)
    reps = np.empty(int(rank.max()) + 1, np.int64)
    reps[rank] = np.arange(n)  # any member of a rank holds its set
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
        at = _bounds(src, dst)  # one run per (src, dst) pair
        starts = at[:-1]
        elab, masks = _rank_bitsets(np.arange(len(starts)).repeat(np.diff(at)), tag, len(starts))

        self.labels: tuple[EdgeLabel, ...] = tuple(
            EdgeLabel(self._mask_pairs(m, binary)) for m in masks)
        label_ids = {lab: i for i, lab in enumerate(self.labels)}
        self.dual_id = np.array([label_ids[lab.dual()] for lab in self.labels], dtype=np.int64)
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

    @property
    def num_directed_edges(self) -> int:
        return len(self.nbr)


def build_labeled_graph(d1: Database, s1: Sigma1) -> LabeledGraph:
    """Precondition: `d1` is loop-free (see `encode_self_loops`)."""
    return LabeledGraph(d1, s1)
