"""Query analysis and planning.

A conjunctive query over a binary schema is answerable here iff its Gaifman
graph is a forest and, within every connected component, the free variables
induce a connected (or empty) subgraph.  Accepted queries are decomposed into
connected components, rewritten loop-free, and each component gets a rooted
tree with a total variable order, per-variable unary labels λ_x, per-tree-edge
labels λ_e, and the colour-level query Q_col that drives the index.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property
from itertools import takewhile

from .graph import BWD, FWD, EdgeLabel, Sigma1, e_symbol, sigma1_for
from .model import Atom, ColorcqError, ConjunctiveQuery, Schema, SchemaError


class QueryRejected(ColorcqError):
    """The query is outside the supported class; .diagnostic says why."""

    def __init__(self, diagnostic: str):
        super().__init__(diagnostic)
        self.diagnostic = diagnostic


@dataclass(frozen=True)
class FcCheck:
    accepted: bool
    diagnostic: str | None = None
    cycle: tuple[str, ...] | None = None        # witness: closed walk of vars
    free_pair: tuple[str, str] | None = None    # witness: disconnected free vars

    def __bool__(self) -> bool:
        return self.accepted


Adjacency = dict[str, set[str]]


def _scan(q: ConjunctiveQuery, s1: Sigma1 | None = None):
    """One pass over q's atoms.  Returns the Gaifman adjacency (keyed in order
    of first appearance), the binary symbols per ordered variable pair, the
    unary symbols per variable and the atoms without repeats.  Given `s1`,
    the arities are checked against `s1.base` and each R(x,x) becomes its
    loop atom S_R(x)."""
    adj: Adjacency = {v: set() for v in q.variables()}
    rels: dict[tuple[str, str], list[str]] = {}
    unary: dict[str, set[str]] = {}
    atoms: dict[Atom, None] = {}
    for a in q.atoms:
        x, y = a.args[0], a.args[-1]
        if s1 is not None:
            ar = s1.base.arity(a.rel)  # raises SchemaError on unknown symbols
            if ar != len(a.args):
                raise SchemaError(
                    f"atom {a} uses {a.rel} with arity {len(a.args)}, schema says {ar}"
                )
            if x == y and ar == 2:
                a = Atom(s1.loop_symbol[a.rel], (x,))
        if len(a.args) == 1:
            unary.setdefault(x, set()).add(a.rel)
        else:
            rels.setdefault(a.args, []).append(a.rel)
            if x != y:
                adj[x].add(y)
                adj[y].add(x)
        atoms[a] = None
    return adj, rels, unary, tuple(atoms)


def gaifman_adjacency(q: ConjunctiveQuery) -> Adjacency:
    """Simple undirected graph on vars(q); an edge per co-occurring distinct pair."""
    return _scan(q)[0]


def _find_cycle(adj: dict[str, set[str]]) -> tuple[str, ...] | None:
    """A closed walk witnessing a cycle, or None if the graph is a forest."""
    parent: dict[str, str | None] = {}
    for start in adj:
        if start in parent:
            continue
        parent[start] = None
        stack = [(start, iter(sorted(adj[start])))]
        while stack:
            v, it = stack[-1]
            for w in it:
                if w == parent[v]:
                    continue
                if w in parent:  # back edge: w is an ancestor of v on the stack
                    path = [v]
                    while path[-1] != w:
                        path.append(parent[path[-1]])
                    return tuple(reversed(path)) + (w,)
                parent[w] = v
                stack.append((w, iter(sorted(adj[w]))))
                break
            else:
                stack.pop()
    return None


def check_free_connex_acyclic(q: ConjunctiveQuery, adj: Adjacency | None = None) -> FcCheck:
    """Accept iff the Gaifman graph `adj` (built from q if not given) is a
    forest and, per component, the free variables induce a connected or empty
    subgraph.  `plan_query` calls it only to explain a rejection."""
    adj = adj or gaifman_adjacency(q)
    cycle = _find_cycle(adj)
    if cycle is not None:
        return FcCheck(
            accepted=False,
            diagnostic="Gaifman graph has a cycle: " + "-".join(cycle),
            cycle=cycle,
        )
    free = set(q.head)
    # each component is rooted at its least free variable, and its BFS order
    # starts with the free variables that the root reaches through free ones
    comps, comp_of = _forest(tuple(sorted(free)), adj)
    for i in dict.fromkeys(map(comp_of.get, adj)):  # by first variable
        order = comps[i][0]
        reached = set(takewhile(free.__contains__, order))
        for v in sorted(free.intersection(order)):
            if v not in reached:
                return FcCheck(
                    accepted=False,
                    diagnostic=(
                        f"free variables {order[0]} and {v} are connected only "
                        "through quantified variables"
                    ),
                    free_pair=(order[0], v),
                )
    return FcCheck(accepted=True)


def _forest(head: tuple[str, ...], adj: Adjacency):
    """Per component of `adj`, in plan order, its <-order and BFS tree; and
    per variable, its component.  Free components come first, in order of and
    rooted at their first head variable, then Boolean ones, rooted at their
    least variable.  The two-queue BFS exhausts free variables before
    quantified ones, breaking ties lexicographically; it fixes the order of
    enumeration."""
    free = set(head)
    comps: list[tuple[list[str], dict[str, str | None]]] = []
    comp_of: dict[str, int] = {}
    for root in (*head, *sorted(adj)):
        if root in comp_of:
            continue
        order: list[str] = []
        parent: dict[str, str | None] = {root: None}
        qf, qq = ([root], []) if root in free else ([], [root])
        while qf or qq:
            x = heapq.heappop(qf or qq)
            order.append(x)
            for y in sorted(adj[x]):
                if y not in parent:
                    parent[y] = x
                    heapq.heappush(qf if y in free else qq, y)
        for v in order:
            comp_of[v] = len(comps)
        comps.append((order, parent))
    return comps, comp_of


def _split(q: ConjunctiveQuery, atoms: tuple[Atom, ...], comp_of: dict[str, int],
           n: int) -> list[ConjunctiveQuery]:
    """The sub-query of `Ans(q.head) <- atoms` for each of n components."""
    if n == 1 and atoms is q.atoms:
        return [q]
    return [ConjunctiveQuery(head=tuple(v for v in q.head if comp_of[v] == i),
                             atoms=tuple(a for a in atoms if comp_of[a.args[0]] == i))
            for i in range(n)]


def decompose_components(
    q: ConjunctiveQuery, adj: Adjacency | None = None
) -> tuple[list[ConjunctiveQuery], list[int]]:
    """Split q into connected sub-queries, in `_forest` order; the answer is
    their cross product.  Also returns, per head position, the index of the
    owning component."""
    comps, comp_of = _forest(q.head, adj or gaifman_adjacency(q))
    return _split(q, q.atoms, comp_of, len(comps)), [comp_of[v] for v in q.head]


def remove_self_loops(q: ConjunctiveQuery, s1: Sigma1) -> ConjunctiveQuery:
    """Replace each R(x,x) with the corresponding loop atom S_R(x)."""
    return ConjunctiveQuery(head=q.head, atoms=_scan(q, s1)[3])


# not frozen: a frozen dataclass sets each field through object.__setattr__,
# which cost ~2.5 µs of a ~20 µs plan_query; plans are not changed once built
@dataclass
class PlanComponent:
    """One connected component, rooted and ordered, with its colour query.

    `order` lists the variables in <-order; the free variables are exactly
    its prefix (length = len(query.head)), which is also the node set of the
    induced free subtree T′.  `lambda_e` is keyed by tree edge (parent, child).
    """

    query: ConjunctiveQuery
    q1: ConjunctiveQuery
    root: str
    order: tuple[str, ...]
    rank: dict[str, int] = field(repr=False)
    parent: dict[str, str | None] = field(repr=False)
    children: dict[str, tuple[str, ...]] = field(repr=False)
    lambda_x: dict[str, frozenset[str]] = field(repr=False)
    lambda_e: dict[tuple[str, str], EdgeLabel] = field(repr=False)

    @cached_property
    def q_col(self) -> ConjunctiveQuery:
        """Q_col: the atoms λ_x, one E_λe atom per tree edge; built on first use."""
        free = set(self.q1.head)
        atoms = [Atom(u, (v,)) for v in self.order for u in sorted(self.lambda_x[v])]
        for v in self.order[1:]:
            edge = (self.parent[v], v)
            atoms.append(Atom(e_symbol(self.lambda_e[edge]), edge))
        return ConjunctiveQuery(head=tuple(v for v in self.order if v in free),
                                atoms=tuple(atoms))

    @property
    def free_prefix(self) -> tuple[str, ...]:
        return self.order[: len(self.query.head)]

    @property
    def is_boolean(self) -> bool:
        return not self.query.head


@dataclass
class QueryPlan:
    query: ConjunctiveQuery
    schema: Schema
    s1: Sigma1
    components: tuple[PlanComponent, ...]
    # user head position -> (component index, position in that component's
    # internal head order); undoes the internal reordering on output
    head_slots: tuple[tuple[int, int], ...]


def _component(query: ConjunctiveQuery, q1: ConjunctiveQuery, order: list[str],
               parent: dict[str, str | None], unary: dict[str, set[str]],
               rels: dict[tuple[str, str], list[str]]) -> PlanComponent:
    """The plan of one component from its BFS tree and the tables of `_scan`;
    an atom R(u,w) gives tree edge (u,w) the pair (R,+) and (w,u) (R,-)."""
    children: dict[str, tuple[str, ...]] = {v: () for v in order}
    lambda_e: dict[tuple[str, str], EdgeLabel] = {}
    for v in order[1:]:
        p = parent[v]
        children[p] += (v,)
        lambda_e[(p, v)] = EdgeLabel([(r, FWD) for r in rels.get((p, v), ())]
                                     + [(r, BWD) for r in rels.get((v, p), ())])
    return PlanComponent(
        query=query, q1=q1, root=order[0], order=tuple(order),
        rank={v: i for i, v in enumerate(order)}, parent=parent, children=children,
        lambda_x={v: frozenset(unary.get(v, ())) for v in order}, lambda_e=lambda_e,
    )


def build_plan(
    q1: ConjunctiveQuery, query: ConjunctiveQuery, adj: Adjacency | None = None
) -> PlanComponent:
    """Root and order one connected, loop-free component and derive Q_col.

    The root is the first head variable (the <-least variable for Boolean
    components); the order is the two-queue BFS of `_forest` over `adj`, which
    if given must be q1's Gaifman graph.
    """
    own, rels, unary, _ = _scan(q1)
    comps, _ = _forest(q1.head, adj or own)
    order, parent = comps[0]
    # the tree must span q1, and every binary atom must lie on a tree edge
    if len(comps) > 1 or any(parent[u] != w and parent[w] != u for u, w in rels):
        raise ColorcqError(f"the Gaifman graph of {q1} is not a tree")
    return _component(query, q1, order, parent, unary, rels)


def plan_query(q: ConjunctiveQuery, schema: Schema) -> QueryPlan:
    """Validate, decompose, rewrite and plan q; raises QueryRejected/SchemaError.

    One pass over the atoms, one BFS per component.  q is acyclic iff its
    Gaifman graph has |V| - #components edges, and then free-connex iff in
    each component with #free > 0 free variables, #free - 1 edges join two of
    them.  Only a rejected query is walked again, for the diagnostic's witness.
    """
    s1 = sigma1_for(schema)
    adj, rels, unary, atoms1 = _scan(q, s1)
    comps, comp_of = _forest(q.head, adj)
    free = set(q.head)
    if (sum(map(len, adj.values())) != 2 * (len(adj) - len(comps))
            or sum(len(adj[v] & free) for v in q.head)
            != 2 * (len(q.head) - len({comp_of[v] for v in q.head}))):
        raise QueryRejected(check_free_connex_acyclic(q, adj).diagnostic)

    queries = _split(q, q.atoms, comp_of, len(comps))
    q1s = queries if atoms1 == q.atoms else _split(q, atoms1, comp_of, len(comps))
    components = tuple(
        _component(cq, cq1, order, parent, unary, rels)
        for cq, cq1, (order, parent) in zip(queries, q1s, comps)
    )
    slots = tuple((comp_of[v], comps[comp_of[v]][0].index(v)) for v in q.head)
    return QueryPlan(query=q, schema=schema, s1=s1, components=components, head_slots=slots)


def explain_plan(plan: QueryPlan) -> str:
    """Human-readable plan dump (CLI --explain)."""
    lines = [f"query: {plan.query}", f"components: {len(plan.components)}"]
    for i, c in enumerate(plan.components):
        kind = "boolean" if c.is_boolean else f"free={','.join(c.free_prefix)}"
        lines.append(f"[{i}] {c.query}  ({kind})")
        if c.q1 != c.query:
            lines.append(f"    loop-free: {c.q1}")
        lines.append(f"    root: {c.root}   order: {' < '.join(c.order)}")
        for v in c.order[1:]:
            lines.append(f"    tree: {c.parent[v]} -> {v}   "
                         f"lambda_e = {c.lambda_e[(c.parent[v], v)]}")
        for v in c.order:
            if c.lambda_x[v]:
                lines.append(f"    lambda_x({v}) = {{{','.join(sorted(c.lambda_x[v]))}}}")
        lines.append(f"    color query: {c.q_col}")
    if plan.head_slots:
        lines.append("output slots: " + ", ".join(
            f"{v}<-C{ci}[{pos}]" for v, (ci, pos) in zip(plan.query.head, plan.head_slots)
        ))
    return "\n".join(lines)
