"""Boolean answering, constant-delay enumeration, and counting.

All three tasks run on the same skeleton, over numpy arrays indexed by colour
id (or by constant id, in `cde_fc_acq`).  Per component, one bottom-up pass
over the rooted tree (`_reduce`) does the semi-join sweep (Yannakakis): it
keeps, for each variable, the values whose subtree can be completed.  A
Boolean component then only needs a non-empty root.  Enumeration is one
odometer (`_odometer`) over the whole plan: each component adds consecutive
levels that walk its free prefix in preorder through each parent's pairs into
the child's candidates, so every step leads to an answer, and then expand each
colour tuple into vertex tuples through the index's class-major successor
tables.  The cross product of the components is the odometer order itself,
the last component fastest; it runs as nested `for` loops compiled once per
plan shape (`_loops`) from level numbers and template text only, and counts
each step at every level.  Counting runs the same pass, but over the free
prefix it multiplies per-colour counts through the pairs' counts instead of
keeping flags; quantified subtrees stay semi-joins.  A leaf with no unary
atom sends d̂^λ(c) = Σ_c′ #̂→^λ(c,c′) (`PairRows.deg`) if counted, else
d̂^λ(c) > 0: stability gives every vertex of class c that many λ-neighbours.
A semi-join edge with more than two pairs per colour reads only its pairs
into removed child colours, off the dual label's memoized rows;
`cde_fc_acq` builds its pairs per query, has no transpose, and gathers.

The color-level runs use the loop-augmented semantics: a vertex whose class
carries self-loops for every relation in λ counts as its own λ-neighbour, and
the corresponding (c,c) pairs extend E_λ.  Without this, answers that map two
adjacent tree variables onto one looping vertex would be lost.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Iterator, Sequence

import numpy as np

from .frontend import PlanComponent, QueryPlan, plan_query
from .graph import BWD, EdgeLabel
from .index import ColorIndex, PairRows, pair_rows
from .model import ColorcqError, ConjunctiveQuery, Database, _ranges


@dataclass
class TreeRun:
    """A reduced component, by rank: per variable, a bool array of the values
    whose subtree can be completed; per tree edge, named by its child's rank,
    its pairs and, if free, the numbers of the pairs into child values that
    can complete, grouped by the parent's value as (ptr, pair numbers); the
    root values, empty (so falsy) if it has no answer.  Edges that drop pairs,
    and the roots, hold `memoryview`s of numpy arrays: a session builds no
    Python object per value, and each item reads as a Python int."""

    comp: PlanComponent
    cand: list[np.ndarray]
    pairs: list[PairRows | None]
    fadj: list[tuple[Sequence[int], Sequence[int]] | None]
    roots: Sequence[int]


def _reduce(comp: PlanComponent, cand0: list[np.ndarray], pairs: list[PairRows | None],
            counted: int = 0, dtype=bool, rows=None
            ) -> tuple[list[np.ndarray], list[np.ndarray | None]]:
    """One bottom-up pass over the component tree, by rank, the pairs of each
    edge under its child's rank.  A variable of rank ≥ `counted` gets its
    semi-join (Yannakakis): the bool array of the values whose subtree can be
    completed.  Each of the first `counted` variables (a free prefix) gets
    instead, per value c, the number of completions of its subtree projected
    on its counted variables: cand0(c) times, per counted child y,
    Σ_{c′} f(y)(c′)·n(c,c′) over the pairs' counts, times, per quantified
    child, its semi-join flag.  With every variable counted this is f↓(c,x),
    the homomorphism count of x's subtree with x pinned to any vertex of
    class c (well-defined by stability).  A leaf child with no unary atom
    sends `p.deg` (d̂^λ, exact by stability) or `p.has`, with no pass over pairs.

    Given `rows` (the index's row memo), a semi-join edge with more than two
    pairs per value takes the support route instead of gathering: g(c) =
    [cnt(c) > #pairs from c into removed child values] (Dynamic Yannakakis),
    read off runs of the dual label's rows, the edge's pairs transposed.  It is
    O(values + removed pairs), not O(pairs); with fewer pairs per value its
    O(values) steps cost more than the gather saves.  Returns (f, kept):
    `kept[w]` is semi-join edge w's mask f(w)[p.b], or `None` (leaf rule; on
    the support route, also where every pair completes or w is not free)."""
    f, kept = [None] * len(cand0), [None] * len(cand0)
    for v in range(len(cand0) - 1, -1, -1):
        fv = cand0[v] if v >= counted else cand0[v].astype(dtype)
        for w in comp.children[v]:
            p = pairs[w]
            if not comp.children[w] and not comp.unary[w]:  # every pair completes
                g = p.deg if w < counted else p.has
            elif w < counted:
                g = np.zeros(len(fv), dtype)
                np.add.at(g, p.a, f[w][p.b] * p.n)  # object times int64 gives exact Python ints
            elif rows is not None and len(p.b) > 2 * len(fv):
                d, dead = rows[comp.label[w].dual()], (~f[w]).nonzero()[0]
                lo = d.a.searchsorted(dead)  # the runs of the dual's pairs (removed c′, c):
                ix = _ranges(lo, d.a.searchsorted(dead, "right") - lo)
                g = p.cnt > np.bincount(d.b[ix], minlength=len(fv)) if len(ix) else p.has
                kept[w] = f[w][p.b] if len(ix) and w < len(comp.free_prefix) else None
            else:
                kept[w] = ok = f[w][p.b]
                g = np.zeros(len(fv), bool)
                g[p.a[ok]] = True
            fv = fv * g  # arrays are replaced, never changed in place
        f[v] = fv
    return f, kept


def prepare_tree(comp: PlanComponent, cand0: list[np.ndarray],
                 pairs: list[PairRows | None], rows=None) -> TreeRun:
    """The semi-join sweep, then the kept pairs of each free tree edge, read
    off the sweep's masks: with no mask, or a full one, it keeps all its pairs."""
    cand, kept = _reduce(comp, cand0, pairs, rows=rows)
    roots = memoryview(cand[0].nonzero()[0])  # cheaper than np.flatnonzero

    fadj: list[tuple[Sequence[int], Sequence[int]] | None] = [None] * len(cand)
    if roots:
        for w in range(1, len(comp.free_prefix)):
            p, ok = pairs[w], kept[w]
            if ok is None or ok.all():
                fadj[w] = (p.ptr, range(len(p.b)))
            else:  # drop the pairs into child values that cannot complete
                js = ok.nonzero()[0]
                ptr = np.bincount(p.a[js], minlength=len(cand[comp.parent[w]])).cumsum()
                fadj[w] = (memoryview(np.concatenate(([0], ptr))), memoryview(js))
    return TreeRun(comp=comp, cand=cand, pairs=pairs, fadj=fadj, roots=roots)


class _Steps:
    """The odometer's accounting, written at each answer: cursor advances so
    far, answers so far, and the most advances between two answers."""

    __slots__ = ("n", "emissions", "max_gap")

    def __init__(self) -> None:
        self.n = self.emissions = self.max_gap = 0


_RUN = 16  # levels per generated function: CPython nests at most 20 blocks in one


def _no_tuple():
    raise ColorcqError("index is inconsistent: a colour-level answer expanded to no tuple")


@lru_cache(maxsize=128)  # compiled odometers kept per process, one per plan shape and run
def _loops(shape: tuple[tuple[int, int], ...], outs: tuple[int, ...], depth: int, start: int = 0):
    """Level `start` on of one plan shape's odometer: a generator function
    with a `for` loop per level, up to `_RUN`, then `yield from` the next
    run's.  `shape` holds per level its (parent level, pair level), -1 for
    none (a root; a group of the parent's value), `outs` per answer position
    its level, through `depth` maps each.  The text holds level numbers and
    template text only; every datum comes in as an argument."""
    end, args = min(start + _RUN, len(shape)), "levels, maps, rank, steps, n, seen, emitted, gap"
    code = [f"def odometer({args}{''.join(f', v{l}' for l in range(start))}):",
            "    [" + ", ".join(f"(s{l},)" if u < 0 else f"(p{l}, s{l}, m{l})" if j < 0 else
                           f"(nb{l}, lo{l}, st{l}, ow{l}, lp{l})"
                           for l, (u, j) in enumerate(shape[start:end], start))
            + f"] = levels[{start}:{end}]",
            "    [" + ", ".join(f"o{i}" for i in range(len(outs) * depth)) + "] = maps"]
    pad = "    "
    for l, (u, j) in enumerate(shape[start:end], start):
        if u < 0:
            seq = f"s{l}"
        elif j < 0:  # a group of the parent's value: its colour, or the pair's second colour
            code.append(f"{pad}a = m{l}[v{u}]")
            seq = f"s{l}[p{l}[a]:p{l}[a + 1]]"
        else:  # the parent vertex's successors, then itself if its class loops
            code += [f"{pad}at = lo{l}[v{j}] + rank[v{u}] * st{l}[v{j}]",
                     f"{pad}hi = at + ow{l}[v{j}]",
                     f"{pad}g = [*nb{l}[at:hi], v{u}] if v{j} in lp{l} else nb{l}[at:hi] or no_tuple()"]
            seq = "g"
        code += [f"{pad}for v{l} in {seq}:", f"{pad}    n += 1"]
        pad += "    "
    if end < len(shape):
        code.append(f"{pad}n, seen, emitted, gap = yield from inner("
                    f"{args}{''.join(f', v{l}' for l in range(end))})")
    else:
        out = [reduce(lambda v, d: f"o{p * depth + d}[{v}]", range(depth), f"v{l}")
               for p, l in enumerate(outs)]
        code += [f"{pad}emitted += 1",
                 f"{pad}if n - seen > gap:",
                 f"{pad}    gap = steps.max_gap = n - seen",
                 f"{pad}seen = steps.n = n",
                 f"{pad}steps.emissions = emitted",
                 f"{pad}yield ({''.join(v + ', ' for v in out)})"]
    space = {"no_tuple": _no_tuple, "inner": end < len(shape) and _loops(shape, outs, depth, end)}
    exec(compile("\n".join([*code, "    return n, seen, emitted, gap"]), "<odometer>", "exec"), space)
    return space["odometer"]


def _odometer(runs: Sequence[TreeRun], slots: Sequence[tuple[int, int]], steps: _Steps,
              idx: ColorIndex | None = None, names: list[str] | None = None) -> Iterator[tuple]:
    """The answers of the reduced components' cross product, each once, in
    head order (`slots`), from one odometer over one flat list of levels.

    A component with k free variables adds k colour levels, which walk its
    free prefix over the reduced tree: the root values, then per free tree
    edge the numbers of the kept pairs whose first value is the parent's (a
    group of the edge's ptr), each a range or `memoryview` read one item at a
    time, as are the pairs' second values.  Quantified subtrees were folded
    into the candidates, so every step leads to an answer.  Without an index
    the values are the answer.  With one they are colours, and k vertex
    levels follow: the members of the root colour (a group of the class
    bounds), then per free tree edge the parent vertex's successor group for
    the pair (from the `SuccTable`), plus the parent itself, last, when its
    class loops over λ_e; both read views, so each value is a Python int.
    Every group is non-empty, so the delay per tuple is O(levels).  The last
    level, and so the last component, advances fastest.  An answer maps each
    output level through the pairs' second values (no index), or through
    constant ids unless vertex i is constant i, then through `names`.

    The loops come from `_loops` by the plan's shape: one compile per shape
    and process, under a millisecond per 16 levels.  Each advance at any
    level adds one to `steps.n`, and each answer writes `steps`.
    """
    if not all(run.roots for run in runs):
        return iter(())
    shape: list[tuple[int, int]] = []  # per level: (parent level, pair level), -1 for none
    levels: list[tuple] = []  # per level: what its loop reads
    value: list = []  # per colour level: its position -> colour (or constant)
    heads = []  # per component: its first output level
    rank = idx.coloring.rank if idx is not None else None
    for run in runs:
        comp, b = run.comp, len(levels)
        k = len(comp.free_prefix)
        heads.append(b + k if idx is not None else b)
        if not k:
            continue
        edges = range(1, k)  # by child rank
        ups = [b + comp.parent[w] for w in edges]
        value += [range(len(run.cand[0]))] + [memoryview(run.pairs[w].b) for w in edges]
        shape += [(-1, -1)] + [(u, -1) for u in ups]
        levels += [(run.roots,)] + [(*run.fadj[w], value[u]) for w, u in zip(edges, ups)]
        if idx is not None:
            value += [None] * k
            shape += [(b, -1)] + [(u + k, b + w) for w, u in zip(edges, ups)]
            levels += [(idx.coloring.bounds, idx.members, value[b])]
            levels += [idx.tables[comp.label[w]] for w in edges]
    outs = tuple(heads[ci] + i for ci, i in slots)
    if idx is None:
        maps, depth = [value[i] for i in outs], 1
    else:
        chain = [m for m in (idx.const_of, names) if m is not None]
        maps, depth = chain * len(outs), len(chain)
    return _loops(tuple(shape), outs, depth)(levels, maps, rank, steps, 0, 0, 0, 0)


def _color_tables(idx: ColorIndex, comp: PlanComponent) -> tuple[list, list]:
    """Q_col's inputs over the augmented D_col, by rank: per variable its
    candidate colours, per tree edge its pairs with their counts (none at the
    root).  Read straight off the index's memos: a warm lookup runs no Python."""
    return ([*map(idx.unary_colors.__getitem__, comp.unary)],
            [None, *map(idx.rows.__getitem__, comp.label[1:])])


class EnumerationSession:
    """Pull-based enumerator over constants, with step instrumentation.

    Preprocessing happens in the constructor (one color-level reduction per
    component); iteration then yields each answer exactly once, as a tuple of
    constant ids in the user's head order (names=True yields names).  The
    components are consecutive levels of one odometer (`_odometer`);
    `steps.n` counts its cursor advances, `emissions` the answers so far and
    `max_gap` the most advances between two answers.
    """

    def __init__(self, idx: ColorIndex, plan: QueryPlan, names: bool = False):
        self.steps = _Steps()
        # the stream holds no reference to self: a session then holds no
        # reference cycle and is freed as soon as it is dropped
        runs = [prepare_tree(c, *_color_tables(idx, c), idx.rows) for c in plan.components]
        self._gen = _odometer(runs, plan.head_slots, self.steps, idx,
                              idx.db.constants if names else None)

    emissions = property(lambda self: self.steps.emissions)
    max_gap = property(lambda self: self.steps.max_gap)

    # -- iterator protocol --

    def __iter__(self):
        return self._gen  # a for loop then runs the generator with no frame of ours

    def __next__(self):
        return next(self._gen)


def count_answers(idx: ColorIndex, plan: QueryPlan) -> int:
    """|⟦Q⟧(D)| as an exact integer: per component with k free variables,
    Σ_c n_c·f(c, root) from one `_reduce` that counts over the free prefix (a
    Boolean component gives 0 or 1), multiplied across components.  No count
    exceeds n^k, so int64 holds them when that is below 2^63; beyond, the
    arrays hold Python ints and stay exact."""
    total = 1
    for comp in plan.components:
        k = len(comp.free_prefix)
        dtype = np.int64 if idx.g.n ** k < 2**63 else object
        f = _reduce(comp, *_color_tables(idx, comp), k, dtype, rows=idx.rows)[0][0]
        total *= int(idx.n_c.dot(f)) if k else int(np.count_nonzero(f) > 0)  # cheaper than .any()
        if not total:
            return 0
    return total


def eval_boolean(idx: ColorIndex, plan: QueryPlan) -> bool:
    """Answer a Boolean plan: its count, 0 or 1, is not 0 (every component's
    semi-join sweep leaves a non-empty root)."""
    if plan.query.head:
        raise ColorcqError("eval_boolean needs a Boolean query (empty head)")
    return count_answers(idx, plan) > 0


# -- generic tree evaluation on a plain database ----------------------------


def cde_fc_acq(db: Database, q: ConjunctiveQuery | QueryPlan) -> Iterator[tuple[int, ...]]:
    """Evaluate an accepted query directly on a database (no color index):
    the same semi-join sweep per component, over constant ids, then the same
    odometer over the free prefixes, yielding constant-id tuples in head order.

    Preprocessing sorts the rows it intersects, so it takes O(|D| log |D|)
    time; O(k) delay; standard CQ semantics including answers that map
    adjacent variables onto a looping constant.
    """
    plan = q if isinstance(q, QueryPlan) else plan_query(q, db.schema)
    size = db.num_constants

    def facts(sym: str, arity: int) -> np.ndarray:
        """`sym`'s rows in db; none where db lacks `sym` or gives it another arity."""
        return db.array(sym) if db.schema._arity.get(sym) == arity else np.zeros((0, arity), np.int64)

    def has(ids: np.ndarray) -> np.ndarray:
        out = np.zeros(size, bool)
        out[ids] = True
        return out

    def holds(atom: tuple[str, int]) -> np.ndarray:
        """The constants a λ_x atom holds on: U's rows for (U, 1), R's diagonal for (R, 2)."""
        rows = facts(*atom)
        return has(rows[rows[:, 0] == rows[:, -1], 0])

    def const_pairs(lab: EdgeLabel) -> PairRows:
        """(a, b) with el(a, b) ⊇ λ, (a, a) included exactly where a loops over all of λ."""
        keys = None
        for r, d in lab.pairs:
            rows = facts(r, 2)
            k = np.sort(rows[:, 1] * size + rows[:, 0]) if d == BWD else rows[:, 0] * size + rows[:, 1]
            keys = k if keys is None else np.intersect1d(keys, k, assume_unique=True)
        return pair_rows(keys // size, keys % size, None, size)

    adom = has(db.adom_ids())
    runs = []
    for comp in plan.components:
        cand0 = [np.logical_and.reduce([adom, *map(holds, atoms)]) for atoms in comp.unary]
        runs.append(prepare_tree(comp, cand0, [None, *map(const_pairs, comp.label[1:])]))
    yield from _odometer(runs, plan.head_slots, _Steps())
