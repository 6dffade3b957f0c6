"""Colour refinement: coarsest stable colouring of a labeled graph.

A colouring is stable when any two equally coloured vertices have, for every
edge label and every colour class, the same number of out-neighbours of that
class under that label.  The coarsest such colouring refining the vertex
labels is unique up to renaming; we pin the renaming by numbering classes in
order of their smallest vertex.

`refine` splits classes in rounds, in numpy, and each round re-examines only
what split in the round before (Hopcroft; Paige–Tarjan 1987).  Round 0 splits
every class by the full signatures of its vertices.  After that, the splitters
of a round are the parts that received a fresh id in the previous round; their
in-neighbours are grouped by (class, multiset of (edge label, splitter colour)
counts), and the untouched rest of each touched class is one more part.  The
largest part keeps the old id and is never re-examined: counts into it are the
counts into the old class minus the counts into its fresh siblings, and those
are already uniform.  A vertex therefore lands in a re-examined part O(log V)
times, and the refinement costs O((V+E) log V) plus sorting, plus one O(V)
scan in each (rare) round where an untouched residue is not the largest part.
Refinement stops when a round hands out no fresh id.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graph import EdgeLabel, LabeledGraph, _pack, _starts


def default_backend() -> str:
    """Name of the refinement kernel, as recorded in benchmark reports."""
    return "numpy"


@dataclass
class Coloring:
    """Canonical colouring: `color_of[v]`, and the vertices sorted by colour
    (`order`, ascending within a class), with class c at
    order[bounds[c]:bounds[c + 1]] and v at order[bounds[c] + rank[v]]."""

    color_of: np.ndarray
    order: np.ndarray
    bounds: list[int]
    rank: list[int]

    @property
    def num_colors(self) -> int:
        return len(self.bounds) - 1

    def color(self, v: int) -> int:
        return int(self.color_of[v])

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(np.array(self.bounds, dtype=np.int64))

    @cached_property
    def members(self) -> tuple[np.ndarray, ...]:
        """One member array per class (built on first use)."""
        return tuple(self.order[lo:hi] for lo, hi in zip(self.bounds, self.bounds[1:]))


def canonicalize(raw: np.ndarray) -> np.ndarray:
    """Renumber colour ids so classes appear in order of least vertex."""
    return _as_coloring(raw).color_of


def _as_coloring(raw: np.ndarray) -> Coloring:
    """The canonical colouring whose classes are those of the ids `raw`."""
    by_raw = np.argsort(raw, kind="stable")  # members stay ascending per class
    head = _starts(raw[by_raw])
    seq = np.argsort(by_raw[head])  # the classes in order of least vertex
    sizes = np.diff(np.append(head, len(raw)))[seq]
    order = by_raw[_ranges(head[seq], sizes)]
    bounds = np.append(0, np.cumsum(sizes))
    colors = np.empty(len(raw), np.int64)
    colors[order] = np.repeat(np.arange(len(sizes)), sizes)
    rank = np.empty(len(raw), np.int64)
    rank[order] = np.arange(len(raw)) - np.repeat(bounds[:-1], sizes)
    return Coloring(color_of=colors, order=order, bounds=bounds.tolist(), rank=rank.tolist())


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenation of the integer ranges [starts[i], starts[i] + lens[i])."""
    ends = np.cumsum(lens)
    return np.repeat(starts - ends + lens, lens) + np.arange(lens.sum())


def refine(g: LabeledGraph) -> Coloring:
    """Coarsest stable colouring refining g's vertex labels."""
    color, ncol = g.initial_colors()
    deg = np.diff(g.indptr)
    size = np.zeros(g.n, np.int64)  # by class id; there are never more than n ids
    size[:ncol] = np.bincount(color, minlength=ncol)
    moved = np.arange(g.n)  # members of this round's splitters
    while len(moved):
        # every edge has a reverse edge with the dual label, so the out-edges
        # of the splitter members lead to each in-neighbour u, together with
        # the label of u -> member and the member's colour
        e = _ranges(g.indptr[moved], deg[moved])
        if not len(e):
            break
        u = g.nbr[e]
        lc = g.dual_id[g.elab[e]] * ncol + np.repeat(color[moved], deg[moved])
        key = _pack(u, lc)
        order = np.argsort(key)
        run = _starts(key[order])
        cnt = np.diff(np.append(run, len(order)))
        u, item = u[order[run]], _pack(lc[order[run]], cnt)  # (label, colour, count)

        # name each touched vertex's sorted run of items by prefix doubling:
        # after the pass with step h, item[j] names the items j .. j+2h-1 of
        # its run (fewer at the run's end, marked by the 0 of a missing half)
        head = _starts(u)
        hit = u[head]
        length = np.diff(np.append(head, len(u)))
        end = np.repeat(head + length, length)
        step = 1
        while step < length.max():
            nxt = np.arange(step, len(u) + step)
            half = np.where(nxt < end, item[np.minimum(nxt, len(u) - 1)] + 1, 0)
            item = np.unique(_pack(item, half), return_inverse=True)[1]
            step *= 2
        _, part, psize = np.unique(
            _pack(color[hit], item[head]), return_inverse=True, return_counts=True)
        pcls = np.empty(len(psize), np.int64)
        pcls[part] = color[hit]

        # per touched class, the largest part keeps the id, the residue (the
        # members left untouched) winning ties; every other part gets a fresh one
        by_cls = np.lexsort((-psize, pcls))
        lead = _starts(pcls[by_cls])
        cls, big = pcls[by_cls[lead]], psize[by_cls[lead]]
        res = size[cls] - np.add.reduceat(psize[by_cls], lead)
        keep = np.zeros(len(psize), bool)
        keep[by_cls[lead]] = res < big
        fresh = np.flatnonzero(~keep)
        lost = (res > 0) & (res < big)
        n_fresh, n_lost = len(fresh), int(lost.sum())

        # a round with nothing fresh leaves `moved` empty, which ends the loop
        new_id = np.full(len(psize), -1, np.int64)
        new_id[fresh] = ncol + np.arange(n_fresh)
        ids = new_id[part]
        moved = hit[ids >= 0]
        if n_lost:
            # a residue that lost its id is found by a scan of all vertices;
            # this is rare, as the untouched residue is usually the largest part
            res_id = np.full(ncol, -1, np.int64)
            res_id[cls[lost]] = ncol + n_fresh + np.arange(n_lost)
            to = res_id[color]
            to[hit] = -1
            res_v = np.flatnonzero(to >= 0)
            color[res_v] = to[res_v]
            moved = np.concatenate([moved, res_v])
        color[hit[ids >= 0]] = ids[ids >= 0]
        new_size = np.concatenate([psize[fresh], res[lost]])
        size[ncol:ncol + len(new_size)] = new_size
        np.subtract.at(size, np.concatenate([pcls[fresh], cls[lost]]), new_size)
        ncol += len(new_size)
    return _as_coloring(color)


def _signature(g: LabeledGraph, colors: np.ndarray, v: int) -> dict[tuple[int, int], int]:
    sig: dict[tuple[int, int], int] = {}
    for e in range(g.indptr[v], g.indptr[v + 1]):
        key = (int(g.elab[e]), int(colors[g.nbr[e]]))
        sig[key] = sig.get(key, 0) + 1
    return sig


def is_stable(
    g: LabeledGraph, colors: np.ndarray
) -> tuple[bool, tuple[int, int, EdgeLabel | None, int | None] | None]:
    """Check stability; on failure return a witness (v, w, label, colour).

    A `None` label in the witness means v and w disagree on vertex labels
    rather than on neighbour counts.
    """
    rep: dict[int, int] = {}
    rep_sig: dict[int, dict[tuple[int, int], int]] = {}
    for v in range(g.n):
        c = int(colors[v])
        if c not in rep:
            rep[c] = v
            rep_sig[c] = _signature(g, colors, v)
            continue
        w = rep[c]
        if g.vl_mask[v] != g.vl_mask[w]:
            return False, (w, v, None, None)
        sig_v = _signature(g, colors, v)
        sig_w = rep_sig[c]
        for key in sig_v.keys() | sig_w.keys():
            if sig_v.get(key, 0) != sig_w.get(key, 0):
                lab_id, target = key
                return False, (w, v, g.labels[lab_id], target)
    return True, None


def naive_refine(g: LabeledGraph) -> Coloring:
    """Fixpoint iteration with explicit signatures; reference implementation."""
    init, ncol = g.initial_colors()
    colors = [int(c) for c in init]
    while True:
        sigs = []
        for v in range(g.n):
            items = sorted(
                (int(g.elab[e]), colors[g.nbr[e]])
                for e in range(g.indptr[v], g.indptr[v + 1])
            )
            sigs.append((colors[v], tuple(items)))
        ranks: dict[tuple, int] = {}
        for s in sorted(set(sigs)):
            ranks[s] = len(ranks)
        if len(ranks) == ncol:
            return _as_coloring(np.array(colors, dtype=np.int64))
        colors = [ranks[s] for s in sigs]
        ncol = len(ranks)
