"""Boolean answering, constant-delay enumeration, and counting.

All three tasks run on the same skeleton, over numpy arrays indexed by colour
id (or by constant id, in `cde_fc_acq`).  Per component, one bottom-up
semi-join sweep over the rooted tree (Yannakakis) keeps, for each variable,
the values whose subtree can be completed.  A Boolean component then only
needs a non-empty root.  Enumeration is one odometer (`_odometer`): it walks
the free prefix in preorder through each parent's pairs into the child's
candidates, so every step leads to an answer, and then expands each colour
tuple into vertex tuples through the index's class-major successor tables.
Counting multiplies per-colour subtree counts over the same pair arrays.

The color-level runs use the loop-augmented semantics: a vertex whose class
carries self-loops for every relation in λ counts as its own λ-neighbour, and
the corresponding (c,c) pairs extend E_λ.  Without this, answers that map two
adjacent tree variables onto one looping vertex would be lost.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .frontend import PlanComponent, QueryPlan, plan_query
from .graph import BWD, encode_self_loops
from .index import ColorIndex, PairRows, pair_rows
from .model import ColorcqError, ConjunctiveQuery, Database


@dataclass
class TreeRun:
    """A reduced component: per variable, a bool array of the values whose
    subtree can be completed; per tree edge, its pairs; per free tree edge,
    the numbers of the pairs into child values that can complete, grouped by
    the parent's value as (ptr, pair numbers); the root values."""

    comp: PlanComponent
    cand: dict[str, np.ndarray]
    pairs: dict[tuple[str, str], PairRows]
    fadj: dict[tuple[str, str], tuple[list[int], Sequence[int]]]
    satisfiable: bool
    roots: list[int]


def prepare_tree(
    comp: PlanComponent,
    cand0: dict[str, np.ndarray],
    pairs: dict[tuple[str, str], PairRows],
) -> TreeRun:
    """Bottom-up semi-join sweep over the component tree."""
    cand = dict(cand0)  # arrays are replaced, never changed in place
    for v in reversed(comp.order):
        for w in comp.children[v]:
            p = pairs[(v, w)]
            keep = np.zeros(len(cand[v]), bool)
            keep[p.a[cand[w][p.b]]] = True
            cand[v] = cand[v] & keep
    satisfiable = bool(cand[comp.root].any())

    fadj: dict[tuple[str, str], tuple[list[int], Sequence[int]]] = {}
    if satisfiable:
        for w in comp.free_prefix[1:]:
            p = pairs[(comp.parent[w], w)]
            ok = cand[w][p.b]
            if ok.all():
                fadj[(comp.parent[w], w)] = (p.ptr, range(len(ok)))
            else:  # drop the pairs into child values that cannot complete
                js = np.flatnonzero(ok)
                ptr = np.searchsorted(p.a[js], np.arange(len(cand[w]) + 1)).tolist()
                fadj[(comp.parent[w], w)] = (ptr, js.tolist())
    roots = np.flatnonzero(cand[comp.root]).tolist() if satisfiable and comp.query.head else []
    return TreeRun(comp=comp, cand=cand, pairs=pairs, fadj=fadj, satisfiable=satisfiable,
                   roots=roots)


class _Steps:
    """Cursor-advance counter shared by the nested enumerators."""

    __slots__ = ("n",)

    def __init__(self) -> None:
        self.n = 0


def _odometer(run: TreeRun, steps: _Steps, idx: ColorIndex | None = None) -> Iterator[tuple]:
    """The answers of one reduced component, each once, in its head order.

    Levels 0..k-1 walk the free prefix over the reduced tree: level 0 the
    root values, level i ≥ 1 the numbers of the kept pairs of the tree edge
    into free[i] whose first value is the parent's.  Quantified subtrees were
    folded into the candidates, so every step leads to an answer.  Without an
    index the values are the answer.  With one they are colours, and levels
    k..2k-1 walk vertices: the members of the root colour, then per free tree
    edge the parent vertex's successor group for the pair (`SuccTable`), plus
    the parent itself, last, when its class loops over λ_e.  Every group is
    non-empty, so the delay per tuple is O(k).  Answers are constant ids.
    """
    comp = run.comp
    k = len(comp.free_prefix)
    if not run.satisfiable:
        return
    if k == 0:
        yield ()
        return
    edges = [(comp.parent[x], x) for x in comp.free_prefix[1:]]
    up = [0] + [comp.rank[v] for v, _ in edges]  # the level of the parent
    ptrs = [None] + [run.fadj[e][0] for e in edges]
    value = [range(len(run.cand[comp.root]))] + [run.pairs[e].nbr for e in edges]
    seqs: list = [run.roots] + [run.fadj[e][1] for e in edges]
    last = k - 1
    if idx is not None:
        last += k
        seqs += [None] * k
        order, bounds, rank = idx.coloring.order, idx.coloring.bounds, idx.coloring.rank
        tables = [None] + [idx.table(comp.lambda_e[e]) for e in edges]
        const_of = idx.g.verts.item

    vals = [0] * (last + 1)
    pos = [0] * (last + 1)
    end = [len(run.roots)] + [0] * last
    level = 0
    while level >= 0:
        p = pos[level]
        if p >= end[level]:
            level -= 1
            continue
        steps.n += 1
        vals[level] = seqs[level][p]
        pos[level] = p + 1
        if level == last:
            if idx is None:
                yield tuple([v[j] for v, j in zip(value, vals)])
            else:
                yield tuple(map(const_of, vals[k:]))
            continue
        level += 1
        if level < k:
            u = up[level]
            ptr, a = ptrs[level], value[u][vals[u]]
            pos[level], end[level] = ptr[a], ptr[a + 1]
        elif level == k:
            c = vals[0]
            seqs[k], pos[k], end[k] = order, bounds[c], bounds[c + 1]
        else:
            i = level - k
            t, j, vp = tables[i], vals[i], vals[k + up[i]]
            at = t.lo[j] + rank[vp] * t.stride[j]
            hi = at + t.own[j]
            if j in t.loops:  # the looping parent is its own neighbour, enumerated last
                seqs[level], pos[level], end[level] = [*t.nbr[at:hi], vp], 0, hi - at + 1
            elif at == hi:
                raise ColorcqError(
                    "index is inconsistent: a colour-level answer expanded to no tuple")
            else:
                seqs[level], pos[level], end[level] = t.nbr, at, hi


def _color_run(idx: ColorIndex, comp: PlanComponent) -> TreeRun:
    """Reduce the component at the color level (Q_col over the augmented D_col)."""
    cand0 = {v: idx.unary_colors(comp.lambda_x[v]) for v in comp.order}
    pairs = {edge: idx.rows(lab) for edge, lab in comp.lambda_e.items()}
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
        # the stream closes over locals, not self: a session then holds no
        # reference cycle and is freed as soon as it is dropped
        runs, steps = [_color_run(idx, comp) for comp in plan.components], self.steps
        gen = _cross(lambda i: _odometer(runs[i], steps, idx), len(runs), plan.head_slots, steps)
        consts = idx.db.constants
        self._gen = (tuple(consts[c] for c in t) for t in gen) if names else gen

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


def _cross(stream: Callable[[int], Iterator[tuple]], m: int,
           slots: tuple[tuple[int, int], ...], steps: _Steps) -> Iterator[tuple]:
    """Cross product of m component streams, rightmost cursor fastest;
    `stream(i)` (re)starts component i.  Yields tuples in head-slot order."""
    iters = [stream(i) for i in range(m)]
    current = []
    for it in iters:
        first = next(it, None)
        if first is None:
            return
        current.append(first)
    while True:
        yield tuple(current[ci][pos] for ci, pos in slots)
        i = m - 1
        while i >= 0:
            steps.n += 1
            nxt = next(iters[i], None)
            if nxt is not None:
                current[i] = nxt
                for j in range(i + 1, m):
                    iters[j] = stream(j)
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


def _g_edge(rows: PairRows, child: np.ndarray) -> np.ndarray:
    """g(c) = Σ_{c′} child(c′) · #̂→^λ(c,c′), over the augmented counts."""
    g = np.zeros(len(child), child.dtype)
    np.add.at(g, rows.a, child[rows.b] * rows.n)  # object times int64 gives exact Python ints
    return g


def _fold_up(idx: ColorIndex, comp: PlanComponent, xs, base) -> dict[str, np.ndarray]:
    """Bottom-up over the variables xs (closed under parents): f(x) is
    base(x) times, per child y of x in xs, Σ_{c′} f(y)(c′) · #̂(c,c′)."""
    f: dict[str, np.ndarray] = {}
    for x in reversed(xs):
        f[x] = base(x)
        for y in comp.children[x]:
            if y in f:
                f[x] = f[x] * _g_edge(idx.rows(comp.lambda_e[(x, y)]), f[y])
    return f


def _f_down_tables(idx: ColorIndex, comp: PlanComponent) -> dict[str, np.ndarray]:
    """f↓(c,x): homomorphism count of x's subtree with x pinned to any fixed
    vertex of class c (well-defined by stability).  No count exceeds
    n^|vars|, so int64 holds them when that is below 2^63; beyond, the arrays
    hold Python ints and stay exact."""
    dtype = np.int64 if idx.g.n ** len(comp.order) < 2**63 else object
    return _fold_up(idx, comp, comp.order,
                    lambda x: idx.unary_colors(comp.lambda_x[x]).astype(dtype))


def _count_component(idx: ColorIndex, comp: PlanComponent) -> int:
    """Σ_c n_c · f↓(c, root), with quantified variables projected away by a
    second pass over the free subtree when free(Q) ≠ vars(Q): quantified
    multiplicities are replaced by 0/1 existence before re-multiplying along
    the free subtree.
    """
    f = f_down = _f_down_tables(idx, comp)
    if len(comp.free_prefix) < len(comp.order):
        f = _fold_up(idx, comp, comp.free_prefix,
                     lambda x: (f_down[x] >= 1).astype(f_down[x].dtype))
    return int(idx.n_c @ f[comp.root])


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
    the same semi-join sweep per component, over constant ids, then the free
    prefixes and a cross product, yielding constant-id tuples in head order.

    Linear-time preprocessing, O(k) delay; standard CQ semantics including
    answers that map adjacent variables onto a looping constant.
    """
    plan = q if isinstance(q, QueryPlan) else plan_query(q, db.schema)
    d1, s1 = encode_self_loops(db)
    size = len(db.constants)

    def has(ids: np.ndarray) -> np.ndarray:
        out = np.zeros(size, bool)
        out[ids] = True
        return out

    def const_pairs(lab) -> PairRows:
        """(a, b) with el(a, b) ⊇ λ, plus (a, a) where a loops over all of λ."""
        keys = loops = None
        for r, d in lab.pairs:
            rows = d1.array(r)
            k = rows[:, 1] * size + rows[:, 0] if d == BWD else rows[:, 0] * size + rows[:, 1]
            keys = k if keys is None else np.intersect1d(keys, k)
            lp = d1.array(s1.loop_symbol[r])[:, 0]
            loops = lp if loops is None else np.intersect1d(loops, lp)
        keys = np.union1d(keys, loops * (size + 1))
        return pair_rows(keys // size, keys % size, None, size)

    adom = has(db.adom_ids())
    runs = []
    for comp in plan.components:
        cand0 = {}
        for v in comp.order:
            cand0[v] = adom
            for u in comp.lambda_x[v]:
                cand0[v] = cand0[v] & has(d1.array(u)[:, 0])
        pairs = {edge: const_pairs(lab) for edge, lab in comp.lambda_e.items()}
        runs.append(prepare_tree(comp, cand0, pairs))
    steps = _Steps()
    yield from _cross(lambda i: _odometer(runs[i], steps), len(runs), plan.head_slots, steps)
