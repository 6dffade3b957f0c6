"""Colour refinement: coarsest stable colouring of a labeled graph.

A colouring is stable when any two equally coloured vertices have, for every
edge label and every colour class, the same number of out-neighbours of that
class under that label.  The coarsest such colouring refining the vertex
labels is unique up to renaming; we pin the renaming by numbering classes in
order of their smallest vertex.

`refine` splits classes in rounds (Hopcroft; Paige–Tarjan 1987).  Round 0
splits every class by full signatures; each later round walks the edges into
the parts that got a fresh id in the round before.  Each such edge becomes one
int64 (in-neighbour u, dual label, splitter colour); one sort of these keys
yields u's (label, colour, count) items, named per u by prefix doubling when u
has several.  One argsort of (class, items) then ranks the parts, class by
class; the untouched rest of a touched class is one more part.  The largest
part keeps the old id and is never re-examined (counts into it follow from
its siblings'), so a vertex is re-examined O(log V) times and the refinement
costs O((V+E) log V) plus sorting, plus an O(V) scan in each rare round where
the untouched rest is not the largest part and loses its id.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import EdgeLabel, LabeledGraph, _bounds, _pack, _ranges
from .model import ColorcqError


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

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(np.array(self.bounds, dtype=np.int64))


def _as_coloring(raw: np.ndarray) -> Coloring:
    """The canonical colouring whose classes are those of the ids `raw`."""
    by_raw = np.argsort(raw, kind="stable")  # members stay ascending per class
    at = _bounds(raw[by_raw])
    seq = np.argsort(by_raw[at[:-1]])  # the classes in order of least vertex
    sizes = (at[1:] - at[:-1])[seq]
    order = by_raw[_ranges(at[:-1][seq], sizes)]
    bounds = np.append(0, np.cumsum(sizes))
    colors = np.empty(len(raw), np.int64)
    colors[order] = np.repeat(np.arange(len(sizes)), sizes)
    rank = np.empty(len(raw), np.int64)
    rank[order] = np.arange(len(raw)) - np.repeat(bounds[:-1], sizes)
    return Coloring(color_of=colors, order=order, bounds=bounds.tolist(), rank=rank.tolist())


def _key_width(n: int, n_labels: int) -> int:
    """Width n·labels of packed (dual label, colour) pairs, under a vertex or a count ≤ n."""
    if (n + 1) * n * n_labels >= 1 << 63:
        raise ColorcqError(f"cannot refine a graph of {n} vertices and {n_labels} edge labels")
    return n * n_labels


def refine(g: LabeledGraph) -> Coloring:
    """Coarsest stable colouring refining g's vertex labels."""
    color, ncol = g.vl_id.copy(), len(g.label_masks)  # the vertex labels; rounds write the copy
    width, n = _key_width(g.n, len(g.labels)), g.n
    deg = g.indptr[1:] - g.indptr[:-1]
    size = np.bincount(color, minlength=n)  # by class id; there are never more than n ids
    moved = np.arange(n)  # members of this round's splitters
    while len(moved):
        # every edge has a reverse edge with the dual label, so the out-edges of
        # the splitter members lead to each in-neighbour u, with the label of
        # u -> member and the member's colour, packed into one sortable key
        e = _ranges(g.indptr[moved], deg[moved])
        if not len(e):
            break
        key = g.nbr[e] * width + g.dual_id[g.elab[e]] * n + color[moved].repeat(deg[moved])
        key.sort()
        at = _bounds(key)
        u, item = np.divmod(key[at[:-1]], width)
        del e, key  # the per-edge temporaries go before the part step
        cnt = at[1:] - at[:-1]
        item = item * (cnt.max() + 1) + cnt  # (label, colour, count)

        # name each touched vertex's sorted run of items by prefix doubling:
        # after the pass with step h, item[j] names the items j .. j+2h-1 of
        # its run (fewer at the run's end, marked by the 0 of a missing half)
        at = _bounds(u)
        if len(at) <= len(u):  # skipped when every run is one item long
            length = at[1:] - at[:-1]
            end = at[1:].repeat(length)
            step = 1
            while step < length.max():
                nxt = np.arange(step, len(u) + step)
                half = np.where(nxt < end, item[np.minimum(nxt, len(u) - 1)] + 1, 0)
                item = np.unique(_pack(item, half), return_inverse=True)[1]
                step *= 2
            u, item = u[at[:-1]], item[at[:-1]]

        # parts are the touched vertices grouped by (class, items); one sort
        # ranks them, and they come out in class order
        pkey = _pack(color[u], item)
        by = pkey.argsort()
        hit, at = u[by], _bounds(pkey[by])
        psize, pcls = at[1:] - at[:-1], color[hit[at[:-1]]]
        lead = _bounds(pcls)[:-1]

        # per touched class, the largest part keeps the id, the residue (the
        # members left untouched) winning ties; every other part gets a fresh one
        top = np.lexsort((-psize, pcls))[lead]
        cls, big = pcls[lead], psize[top]
        res = size[cls] - np.add.reduceat(psize, lead)
        fresh = np.ones(len(psize), bool)
        fresh[top] = res >= big
        lost = (res > 0) & (res < big)

        # a round with nothing fresh leaves `moved` empty, which ends the loop
        moved = hit[fresh.repeat(psize)]
        new_size = psize[fresh]
        color[moved] = np.arange(ncol, ncol + len(new_size)).repeat(new_size)
        if lost.any():
            # a residue that lost its id is found by a scan of all vertices;
            # this is rare, as the untouched residue is usually the largest part
            res_id = np.full(n, -1, np.int64)
            res_id[cls[lost]] = np.arange(lost.sum()) + (ncol + len(new_size))
            to = res_id[color]
            to[hit] = -1
            res_v = (to >= 0).nonzero()[0]
            color[res_v] = to[res_v]
            moved = np.concatenate([moved, res_v])
            new_size = np.concatenate([new_size, res[lost]])
        size[cls] = np.maximum(res, big)
        size[ncol:ncol + len(new_size)] = new_size
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
        if g.vl_id[v] != g.vl_id[w]:
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
    colors, ncol = g.vl_id.tolist(), len(g.label_masks)
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
