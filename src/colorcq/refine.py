"""Colour refinement: coarsest stable colouring of a labeled graph.

A colouring is stable when any two equally coloured vertices have, for every
edge label and every colour class, the same number of out-neighbours of that
class under that label.  The coarsest such colouring refining the vertex
labels is unique up to renaming; we pin the renaming by numbering classes in
order of their smallest vertex.

`refine` splits classes in rounds (Hopcroft; Paige–Tarjan 1987).  Round 0
splits every class by full signatures; each later round walks the edges into
the parts that got a fresh id in the round before, and groups their
in-neighbours u by class and by u's (label, colour, count) items; the
untouched rest of a touched class is one more part.  The largest part keeps
the old id and is never re-examined (counts into it follow from its
siblings'), so a vertex is re-examined O(log V) times and the refinement
costs O((V+E) log V) plus sorting, plus an O(V) scan in each rare round where
the untouched rest is not the largest part and loses its id.

A round that walks fewer than `_SMALL` edges from fewer than `_SMALL` vertices
runs in plain Python over dicts (`_round_small`), as a numpy round costs ~50
calls whatever its size and each of a long chain's ~V/2 rounds walks 4 edges.
Other rounds run in numpy: each edge w -> u into the splitters becomes one int64
(u, label, splitter colour), one sort of the keys yields u's items, u's run of
items is named by the wrapping sum of its mixed items, and two argsorts rank the
parts by (class, name), class by class.  Each run is checked item by item against
its part's first, and a round where two distinct runs share a name runs again in
Python, which names runs exactly by sorted tuples: the result is canonical
whatever the hash and the round bodies.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .graph import LabeledGraph, _bounds
from .model import _MIX, ColorcqError, _ranges


def default_backend() -> str:
    """Name of the refinement kernel, as recorded in benchmark reports."""
    return "numpy"


@dataclass
class Coloring:
    """Canonical colouring: `color_of[v]`, and the vertices sorted by colour
    (`order`, ascending within a class), with class c at
    order[bounds[c]:bounds[c + 1]] and v at order[bounds[c] + rank[v]]; both read-only."""

    color_of: np.ndarray
    order: np.ndarray
    bounds: list[int]
    rank: memoryview

    @property
    def num_colors(self) -> int:
        return len(self.bounds) - 1

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(np.array(self.bounds, dtype=np.int64))


def _as_coloring(raw: np.ndarray) -> Coloring:
    """The canonical colouring whose classes are those of the ids `raw`, by a stable argsort of
    the ids, so members stay ascending: a radix sort where they fit in 16 bits, else a merge sort,
    which is fast on the long runs of a few classes (where a packed `_sort_rows` is not)."""
    by_raw = np.argsort(raw.astype(np.uint16) if raw.max(initial=0) < 1 << 16 else raw, kind="stable")
    at = _bounds(raw[by_raw])
    seq = np.argsort(by_raw[at[:-1]])  # the classes in order of least vertex
    sizes = (at[1:] - at[:-1])[seq]
    return _coloring(by_raw[_ranges(at[:-1][seq], sizes)], sizes)


def _coloring(order: np.ndarray, sizes: np.ndarray) -> Coloring:
    """The Coloring whose classes, of sizes `sizes`, lie in turn in `order`."""
    bounds = np.append(0, np.cumsum(sizes))
    colors = np.empty(len(order), np.int64)
    colors[order] = np.repeat(np.arange(len(sizes)), sizes)
    rank = np.empty(len(order), np.int64)
    rank[order] = np.arange(len(order)) - np.repeat(bounds[:-1], sizes)
    order.flags.writeable = rank.flags.writeable = False
    return Coloring(color_of=colors, order=order, bounds=bounds.tolist(), rank=memoryview(rank))


_SMALL = 50  # edges a round walks at which numpy starts to beat Python (measured on chains)


def _key_width(n: int, n_labels: int) -> int:
    """Width n·labels of packed (label, colour) pairs, under a vertex or a count ≤ n."""
    if (n + 1) * n * n_labels >= 1 << 63:
        raise ColorcqError(f"cannot refine a graph of {n} vertices and {n_labels} edge labels")
    return n * n_labels


def refine(g: LabeledGraph) -> Coloring:
    """Coarsest stable colouring refining g's vertex labels."""
    color, ncol = g.vl_id.copy(), len(g.label_masks)  # the vertex labels; rounds write the copy
    width, n = _key_width(g.n, len(g.labels)), g.n
    deg = g.indptr[1:] - g.indptr[:-1]
    size = np.bincount(color, minlength=n)  # by class id; there are never more than n ids
    views = [memoryview(a) for a in (g.indptr, g.nbr, g.elab, color, size)]  # no copies
    moved, walk = np.arange(n), len(g.nbr)  # members of this round's splitters, and their out-edges
    while walk:
        if walk < _SMALL and len(moved) < _SMALL:
            moved, walk, ncol = _round_small(views, moved, ncol, len(g.labels))
            continue
        moved = np.asarray(moved)
        # every edge has a reverse edge, so the out-edges of the splitter members lead to each
        # in-neighbour u; the label of member -> u stands for its dual, that of u -> member
        e = _ranges(g.indptr[moved], deg[moved])
        key = g.nbr[e] * width + g.elab[e] * n + color[moved].repeat(deg[moved])
        key.sort()
        at = _bounds(key)
        u, item = np.divmod(key[at[:-1]], width)
        del e, key  # the per-edge temporaries go before the part step
        cnt = at[1:] - at[:-1]
        item = item * (cnt.max() + 1) + cnt  # (label, colour, count)

        # name each touched vertex's run of distinct items by the wrapping sum of its items' bijective
        # splitmix-style mix; group by (class, name), or, where two distinct runs share a name, run
        # the round again in Python (nothing is written yet), which names runs exactly
        at = _bounds(u)
        u, z = u[at[:-1]], item.view(np.uint64) * _MIX
        z ^= z >> np.uint64(29)
        z *= _MIX
        by, part = _parts(color[u], np.add.reduceat(z, at[:-1]))
        if not _same_runs(item, at, by, part):
            moved, walk, ncol = _round_small(views, moved.tolist(), ncol, len(g.labels))
            continue
        hit, at = u[by], part
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
        walk = int(deg[moved].sum())
    return _as_coloring(color)


def _parts(cls: np.ndarray, name: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The runs by (class, name), by two argsorts (faster than `np.lexsort`), and where each pair begins."""
    by = name.argsort()
    by = by[cls[by].argsort(kind="stable")]
    return by, _bounds(cls[by], name[by])


def _same_runs(item: np.ndarray, at: np.ndarray, by: np.ndarray, part: np.ndarray) -> bool:
    """Whether each run item[at[i]:at[i + 1]] equals, item by item, the first run of its group."""
    size, lead = at[1:] - at[:-1], by[part[:-1]].repeat(part[1:] - part[:-1])
    off = np.empty(len(by), np.int64)
    off[by] = at[lead] - at[by]  # from each run to its group's first run
    return bool((size[by] == size[lead]).all()
                and (item[off.repeat(size) + np.arange(len(item))] == item).all())


def _round_small(views: list[memoryview], moved: list[int] | np.ndarray, ncol: int,
                 nlab: int) -> tuple[list[int], int, int]:
    """`refine`'s round in plain Python, for a round that walks few edges or whose mixed
    names collide; it names each run exactly by its sorted tuple of items.
    Returns the next `moved`, the edges it walks and the next fresh id."""
    indptr, nbr, elab, color, size = views
    items = defaultdict(list)  # touched u -> one (colour, label) item per edge into the splitters
    for w in moved:
        c = color[w] * nlab
        for e in range(indptr[w], indptr[w + 1]):
            items[nbr[e]].append(c + elab[e])  # w -> u's label stands for its dual, u -> w's
    parts = defaultdict(dict)  # class -> sorted items -> members
    for u, got in items.items():
        got.sort()
        parts[color[u]].setdefault(tuple(got), []).append(u)
    moved = []
    for cls, group in parts.items():
        res = size[cls] - sum(map(len, group.values()))
        big = max(group.values(), key=len)
        keep = big if len(big) > res else None  # the residue wins ties
        for part in group.values():
            if part is not keep:
                for v in part:
                    color[v] = ncol
                size[ncol], ncol = len(part), ncol + 1
                moved += part
        size[cls] = max(res, len(big))
        if 0 < res < len(big):  # the residue loses its id: the same scan as the numpy body's
            kept, scan = set(big), np.asarray(color)  # an array over the same buffer
            rest = [v for v in (scan == cls).nonzero()[0].tolist() if v not in kept]
            scan[rest] = ncol
            size[ncol], ncol = res, ncol + 1
            moved += rest
    return moved, sum(indptr[v + 1] - indptr[v] for v in moved), ncol
