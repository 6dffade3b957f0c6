"""Boolean answering, constant-delay enumeration, and counting.

All three tasks run on the same skeleton: per component, a full-reducer pass
(one bottom-up and one top-down semi-join sweep over the rooted tree) shrinks
per-variable candidate sets until globally consistent, quantified subtrees
collapse to existence, and answers are read off the free prefix only.

The color-level runs use the loop-augmented semantics: a vertex whose class
carries self-loops for every relation in λ counts as its own λ-neighbour, and
the corresponding (c,c) pairs extend E_λ.  Without this, answers that map two
adjacent tree variables onto one looping vertex would be lost.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .frontend import PlanComponent, QueryPlan, plan_query
from .graph import BWD, EdgeLabel, encode_self_loops
from .index import ColorIndex
from .model import ColorcqError, ConjunctiveQuery, Database


@dataclass
class TreeRun:
    """A fully reduced component: consistent candidates plus the filtered
    adjacency of the free subtree (quantified subtrees are existence only)."""

    comp: PlanComponent
    cand: dict[str, set[int]]
    fadj: dict[tuple[str, str], dict[int, list[int]]]
    satisfiable: bool
    roots: list[int]


def prepare_tree(
    comp: PlanComponent,
    cand0: dict[str, set[int]],
    pairs: dict[tuple[str, str], set[tuple[int, int]]],
) -> TreeRun:
    """Full reduction over the component tree (two semi-join sweeps)."""
    order = comp.order
    cand = {v: set(cand0[v]) for v in order}
    for v in reversed(order):
        for w in comp.children[v]:
            cand[v] &= {a for a, b in pairs[(v, w)] if b in cand[w]}
    for v in order:
        for w in comp.children[v]:
            cand[w] &= {b for a, b in pairs[(v, w)] if a in cand[v]}
    satisfiable = all(cand[v] for v in order)

    fadj: dict[tuple[str, str], dict[int, list[int]]] = {}
    if satisfiable:
        for w in comp.free_prefix[1:]:
            v = comp.parent[w]
            adj: dict[int, list[int]] = {}
            for a, b in pairs[(v, w)]:
                if a in cand[v] and b in cand[w]:
                    adj.setdefault(a, []).append(b)
            for lst in adj.values():
                lst.sort()
            fadj[(v, w)] = adj
    roots = sorted(cand[comp.root]) if satisfiable and comp.query.head else []
    return TreeRun(comp=comp, cand=cand, fadj=fadj, satisfiable=satisfiable, roots=roots)


class _Steps:
    """Cursor-advance counter shared by the nested enumerators."""

    __slots__ = ("n",)

    def __init__(self) -> None:
        self.n = 0


def _tree_tuples(run: TreeRun, steps: _Steps) -> Iterator[tuple[int, ...]]:
    """All assignments of the free prefix consistent with the reduced tree.

    Each tuple appears exactly once: quantified subtrees were already folded
    into the candidate sets, so only free-free edges are walked here.
    """
    comp = run.comp
    k = len(comp.free_prefix)
    if k == 0:
        if run.satisfiable:
            yield ()
        return
    if not run.satisfiable:
        return
    parent_pos = [comp.rank[comp.parent[x]] for x in comp.free_prefix[1:]]
    adjs = [run.fadj[(comp.parent[x], x)] for x in comp.free_prefix[1:]]

    vals = [0] * k
    seqs: list[list[int]] = [run.roots] + [[]] * (k - 1)
    pos = [0] * k
    level = 0
    while level >= 0:
        if pos[level] >= len(seqs[level]):
            level -= 1
            continue
        steps.n += 1
        vals[level] = seqs[level][pos[level]]
        pos[level] += 1
        if level == k - 1:
            yield tuple(vals)
            continue
        level += 1
        seqs[level] = adjs[level - 1][vals[parent_pos[level - 1]]]
        pos[level] = 0


def _expand(
    idx: ColorIndex,
    comp: PlanComponent,
    cbar: tuple[int, ...],
    loop_arrays: list[np.ndarray],
    steps: _Steps,
) -> Iterator[tuple[int, ...]]:
    """All vertex tuples of one color tuple: v₁ runs over class c₁ and each
    v_{i+1} over N̂→^{λ_e}(v_parent, c_{i+1}), plus v_parent itself when its
    class loops over λ_e.  Every consulted set is non-empty, so the delay per
    tuple is O(k).
    """
    comp_free = comp.free_prefix
    k = len(comp_free)
    colors = idx.coloring.color_of
    parent_pos = [comp.rank[comp.parent[x]] for x in comp_free[1:]]
    labels = [comp.lambda_e[(comp.parent[x], x)] for x in comp_free[1:]]

    vals = [0] * k
    seqs: list[Sequence[int]] = [idx.coloring.members[cbar[0]]] + [_EMPTY] * (k - 1)
    extra = [-1] * k  # the looping parent vertex, enumerated after the array
    pos = [0] * k
    level = 0
    while level >= 0:
        if pos[level] < len(seqs[level]):
            steps.n += 1
            vals[level] = int(seqs[level][pos[level]])
            pos[level] += 1
        elif pos[level] == len(seqs[level]) and extra[level] >= 0:
            steps.n += 1
            vals[level] = extra[level]
            pos[level] += 1
        else:
            level -= 1
            continue
        if level == k - 1:
            yield tuple(vals)
            continue
        level += 1
        vp, c = vals[parent_pos[level - 1]], cbar[level]
        seqs[level] = idx.succ(labels[level - 1], vp, c)
        extra[level] = vp if (loop_arrays[level - 1][c] and colors[vp] == c) else -1
        pos[level] = 0
        if not len(seqs[level]) and extra[level] < 0:
            raise ColorcqError("index is inconsistent: a colour-level answer expanded to no tuple")


_EMPTY = np.zeros(0, dtype=np.int64)


def _color_run(idx: ColorIndex, comp: PlanComponent) -> TreeRun:
    """Reduce the component at the color level (Q_col over the augmented D_col)."""
    all_colors = frozenset(range(idx.num_colors))
    cand0: dict[str, set[int]] = {}
    for v in comp.order:
        lam = comp.lambda_x[v]
        cur = set(all_colors)
        for u in lam:
            cur &= {t[0] for t in idx.color_db.tuples(u)}
        cand0[v] = cur
    pairs: dict[tuple[str, str], set[tuple[int, int]]] = {}
    for edge, lab in comp.lambda_e.items():
        ps = set(idx.count_table(lab))
        ps.update((c, c) for c in np.flatnonzero(idx.loop_cover_array(lab)))
        pairs[edge] = ps
    return prepare_tree(comp, cand0, pairs)


class EnumerationSession:
    """Pull-based enumerator over constants, with step instrumentation.

    Preprocessing happens in the constructor (one color-level reduction per
    component); iteration then yields each answer exactly once, as a tuple of
    constant ids in the user's head order (names=True translates to names).
    Components are combined by a nested-loop cross product whose rightmost
    cursor advances fastest; restarted components reuse their reduction.
    `steps`, `emissions` and `max_gap` expose the cursor-advance accounting.
    """

    def __init__(self, idx: ColorIndex, plan: QueryPlan, names: bool = False):
        self.idx = idx
        self.plan = plan
        self.names = names
        self.steps = _Steps()
        self.emissions = 0
        self.max_gap = 0
        self._last = 0
        self._runs = [_color_run(idx, comp) for comp in plan.components]
        self._loop_arrays = [
            [idx.loop_cover_array(comp.lambda_e[(comp.parent[x], x)])
             for x in comp.free_prefix[1:]]
            for comp in plan.components
        ]
        self._gen = self._generate()

    # -- iterator protocol --

    def __iter__(self):
        return self

    def __next__(self):
        out = next(self._gen)
        self.emissions += 1
        gap = self.steps.n - self._last
        self._last = self.steps.n
        if gap > self.max_gap:
            self.max_gap = gap
        return out

    def _component_stream(self, i: int) -> Iterator[tuple[int, ...]]:
        run = self._runs[i]
        comp = self.plan.components[i]
        if not comp.query.head:
            yield from _tree_tuples(run, self.steps)
            return
        g = self.idx.g
        for cbar in _tree_tuples(run, self.steps):
            for t in _expand(self.idx, comp, cbar, self._loop_arrays[i], self.steps):
                yield tuple(g.const_of(v) for v in t)

    def _generate(self) -> Iterator[tuple]:
        if not all(run.satisfiable for run in self._runs):
            return
        m = len(self.plan.components)
        iters = [self._component_stream(i) for i in range(m)]
        current = []
        for it in iters:
            first = next(it, None)
            if first is None:
                return
            current.append(first)
        slots = self.plan.head_slots
        consts = self.idx.db.constants
        while True:
            t = tuple(current[ci][pos] for ci, pos in slots)
            yield tuple(consts[c] for c in t) if self.names else t
            i = m - 1
            while i >= 0:
                self.steps.n += 1
                nxt = next(iters[i], None)
                if nxt is not None:
                    current[i] = nxt
                    for j in range(i + 1, m):
                        iters[j] = self._component_stream(j)
                        current[j] = next(iters[j])
                    break
                i -= 1
            else:
                return


def enumerate_answers(idx: ColorIndex, plan: QueryPlan) -> EnumerationSession:
    """Enumerate ⟦Q⟧(D) from the index with O(k) delay; yields id tuples."""
    return EnumerationSession(idx, plan)


def eval_boolean(idx: ColorIndex, plan: QueryPlan) -> bool:
    """Answer a Boolean plan: every component reduces to a non-empty run."""
    if plan.query.head:
        raise ColorcqError("eval_boolean needs a Boolean query (empty head)")
    return all(_color_run(idx, comp).satisfiable for comp in plan.components)


def _g_edge(idx: ColorIndex, lab: EdgeLabel, child_vals: list[int]) -> list[int]:
    """g(c) = Σ_{c′} child(c′) · #̂→^λ(c,c′), over the augmented counts."""
    g = [0] * idx.num_colors
    for (c, c2), n in idx.count_table(lab).items():
        g[c] += child_vals[c2] * n
    for c in np.flatnonzero(idx.loop_cover_array(lab)):
        g[c] += child_vals[c]
    return g


def _f_down_tables(idx: ColorIndex, comp: PlanComponent) -> dict[str, list[int]]:
    """f↓(c,x): homomorphism count of x's subtree with x pinned to any fixed
    vertex of class c (well-defined by stability)."""
    f_down: dict[str, list[int]] = {}
    for x in reversed(comp.order):
        need = idx.unary_mask(comp.lambda_x[x])
        vals = [int((m & need) == need) for m in idx.color_masks]
        for y in comp.children[x]:
            gy = _g_edge(idx, comp.lambda_e[(x, y)], f_down[y])
            vals = [a * b for a, b in zip(vals, gy)]
        f_down[x] = vals
    return f_down


def _count_component(idx: ColorIndex, comp: PlanComponent) -> int:
    """Σ_c n_c · f↓(c, root), with quantified variables projected away by a
    second pass over the free subtree when free(Q) ≠ vars(Q): quantified
    multiplicities are replaced by 0/1 existence before re-multiplying along
    the free subtree.
    """
    ncol = idx.num_colors
    f_down = _f_down_tables(idx, comp)

    if len(comp.free_prefix) == len(comp.order):
        root_vals = f_down[comp.root]
    else:
        free = set(comp.free_prefix)
        f_prime: dict[str, list[int]] = {}
        for x in reversed(comp.free_prefix):
            vals = [int(v >= 1) for v in f_down[x]]
            for y in comp.children[x]:
                if y in free:
                    gy = _g_edge(idx, comp.lambda_e[(x, y)], f_prime[y])
                    vals = [a * b for a, b in zip(vals, gy)]
            f_prime[x] = vals
        root_vals = f_prime[comp.root]
    n_c = idx.n_c
    return sum(int(n_c[c]) * root_vals[c] for c in range(ncol))


def count_answers(idx: ColorIndex, plan: QueryPlan) -> int:
    """|⟦Q⟧(D)| as an exact (arbitrary-precision) integer."""
    total = 1
    for comp in plan.components:
        if comp.is_boolean:
            if not _color_run(idx, comp).satisfiable:
                return 0
        else:
            total *= _count_component(idx, comp)
            if total == 0:
                return 0
    return total


# -- generic tree evaluation on a plain database ----------------------------


def cde_fc_acq(db: Database, q: ConjunctiveQuery | QueryPlan) -> Iterator[tuple[int, ...]]:
    """Evaluate an accepted query directly on a database (no color index):
    full reduction per component, then enumeration of the free prefixes and a
    cross product, yielding constant-id tuples in the user's head order.

    Linear-time preprocessing, O(k) delay; standard CQ semantics including
    answers that map adjacent variables onto a looping constant.
    """
    plan = q if isinstance(q, QueryPlan) else plan_query(q, db.schema)
    d1, s1 = encode_self_loops(db)
    adom = db.adom()

    runs = []
    for comp in plan.components:
        cand0: dict[str, set[int]] = {}
        for v in comp.order:
            lam = comp.lambda_x[v]
            cur = set(adom)
            for u in lam:
                cur &= {t[0] for t in d1.tuples(u)}
            cand0[v] = cur
        pairs: dict[tuple[str, str], set[tuple[int, int]]] = {}
        for edge, lab in comp.lambda_e.items():
            base: set[tuple[int, int]] | None = None
            loops: set[int] | None = None
            for r, d in lab.pairs:
                tups = d1.tuples(r)
                cur = {(b, a) for a, b in tups} if d == BWD else set(tups)
                base = cur if base is None else base & cur
                lp = {t[0] for t in d1.tuples(s1.loop_symbol[r])}
                loops = lp if loops is None else loops & lp
            ps = set(base or ())
            ps.update((a, a) for a in loops or ())
            pairs[edge] = ps
        runs.append(prepare_tree(comp, cand0, pairs))

    if not all(run.satisfiable for run in runs):
        return
    steps = _Steps()
    m = len(runs)
    iters = [_tree_tuples(runs[i], steps) for i in range(m)]
    current = []
    for it in iters:
        first = next(it, None)
        if first is None:
            return
        current.append(first)
    slots = plan.head_slots
    while True:
        yield tuple(current[ci][pos] for ci, pos in slots)
        i = m - 1
        while i >= 0:
            nxt = next(iters[i], None)
            if nxt is not None:
                current[i] = nxt
                for j in range(i + 1, m):
                    iters[j] = _tree_tuples(runs[j], steps)
                    current[j] = next(iters[j])
                break
            i -= 1
        else:
            return
