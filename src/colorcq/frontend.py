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


def gaifman_adjacency(q: ConjunctiveQuery) -> Adjacency:
    """Simple undirected graph on vars(q); an edge per co-occurring distinct pair."""
    adj: dict[str, set[str]] = {v: set() for v in q.variables()}
    for a in q.atoms:
        if len(a.args) == 2 and a.args[0] != a.args[1]:
            x, y = a.args
            adj[x].add(y)
            adj[y].add(x)
    return adj


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


def _components(adj: dict[str, set[str]]) -> list[set[str]]:
    seen: set[str] = set()
    comps: list[set[str]] = []
    for start in adj:
        if start in seen:
            continue
        comp = {start}
        queue = [start]
        while queue:
            v = queue.pop()
            for w in adj[v]:
                if w not in comp:
                    comp.add(w)
                    queue.append(w)
        seen |= comp
        comps.append(comp)
    return comps


def check_free_connex_acyclic(q: ConjunctiveQuery, adj: Adjacency | None = None) -> FcCheck:
    """Accept iff the Gaifman graph `adj` (built from q if not given) is a
    forest and, per component, the free variables induce a connected or empty
    subgraph."""
    adj = adj or gaifman_adjacency(q)
    cycle = _find_cycle(adj)
    if cycle is not None:
        return FcCheck(
            accepted=False,
            diagnostic="Gaifman graph has a cycle: " + "-".join(cycle),
            cycle=cycle,
        )
    free = set(q.head)
    for comp in _components(adj):
        fr = sorted(free & comp)
        if len(fr) < 2:
            continue
        reached = {fr[0]}
        queue = [fr[0]]
        while queue:
            v = queue.pop()
            for w in adj[v]:
                if w in free and w not in reached:
                    reached.add(w)
                    queue.append(w)
        for v in fr:
            if v not in reached:
                return FcCheck(
                    accepted=False,
                    diagnostic=(
                        f"free variables {fr[0]} and {v} are connected only "
                        "through quantified variables"
                    ),
                    free_pair=(fr[0], v),
                )
    return FcCheck(accepted=True)


def decompose_components(
    q: ConjunctiveQuery, adj: Adjacency | None = None
) -> tuple[list[ConjunctiveQuery], list[int]]:
    """Split q into connected sub-queries; the answer is their cross product.

    Components with free variables come first, in order of their first head
    position; Boolean components follow, ordered by their least variable.
    Also returns, per head position, the index of the owning component.
    """
    comps = _components(adj or gaifman_adjacency(q))

    def sort_key(comp: set[str]) -> tuple:
        positions = [i for i, v in enumerate(q.head) if v in comp]
        return (0, positions[0]) if positions else (1, min(comp))

    comps.sort(key=sort_key)
    queries = []
    for comp in comps:
        head = tuple(v for v in q.head if v in comp)
        atoms = tuple(a for a in q.atoms if a.args[0] in comp)
        queries.append(ConjunctiveQuery(head=head, atoms=atoms))
    owner = {v: i for i, c in enumerate(comps) for v in c}
    return queries, [owner[v] for v in q.head]


def remove_self_loops(q: ConjunctiveQuery, s1: Sigma1) -> ConjunctiveQuery:
    """Replace each R(x,x) with the corresponding loop atom S_R(x)."""
    out: list[Atom] = []
    seen: set[Atom] = set()
    for a in q.atoms:
        if len(a.args) == 2 and a.args[0] == a.args[1]:
            a = Atom(s1.loop_symbol[a.rel], (a.args[0],))
        if a not in seen:
            seen.add(a)
            out.append(a)
    return ConjunctiveQuery(head=q.head, atoms=tuple(out))


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class QueryPlan:
    query: ConjunctiveQuery
    schema: Schema
    s1: Sigma1
    components: tuple[PlanComponent, ...]
    # user head position -> (component index, position in that component's
    # internal head order); undoes the internal reordering on output
    head_slots: tuple[tuple[int, int], ...]


def build_plan(
    q1: ConjunctiveQuery, query: ConjunctiveQuery, adj: Adjacency | None = None
) -> PlanComponent:
    """Root and order one connected, loop-free component and derive Q_col.

    The root is the first head variable (the <-least variable for Boolean
    components); the order is a two-queue BFS over `adj` (by default q1's
    Gaifman graph; the whole query's has the same edges here) that exhausts
    free variables before quantified ones, breaking ties lexicographically.
    """
    adj = adj or gaifman_adjacency(q1)
    free = set(q1.head)
    root = query.head[0] if query.head else min(q1.variables())

    order: list[str] = []
    parent: dict[str, str | None] = {root: None}
    qf: list[str] = []
    qq: list[str] = []
    heapq.heappush(qf if root in free else qq, root)
    while qf or qq:
        x = heapq.heappop(qf if qf else qq)
        order.append(x)
        for y in sorted(adj[x]):
            if y not in parent:
                parent[y] = x
                heapq.heappush(qf if y in free else qq, y)
    rank = {v: i for i, v in enumerate(order)}

    kids: dict[str, list[str]] = {v: [] for v in order}
    for v in order[1:]:
        kids[parent[v]].append(v)
    children = {v: tuple(c) for v, c in kids.items()}

    lambda_x: dict[str, set[str]] = {v: set() for v in order}
    pairs: dict[tuple[str, str], set[tuple[str, str]]] = {}
    for a in q1.atoms:
        if len(a.args) == 1:
            lambda_x[a.args[0]].add(a.rel)
        else:
            u, w = a.args
            if rank[u] < rank[w]:
                pairs.setdefault((u, w), set()).add((a.rel, FWD))
            else:
                pairs.setdefault((w, u), set()).add((a.rel, BWD))
    lambda_e = {edge: EdgeLabel(ps) for edge, ps in pairs.items()}
    # in a forest every Gaifman edge is a tree edge, and conversely
    if set(lambda_e) != {(parent[v], v) for v in order[1:]}:
        raise ColorcqError(f"the Gaifman graph of {q1} is not a tree")

    return PlanComponent(
        query=query,
        q1=q1,
        root=root,
        order=tuple(order),
        rank=rank,
        parent=parent,
        children=children,
        lambda_x={v: frozenset(s) for v, s in lambda_x.items()},
        lambda_e=lambda_e,
    )


def plan_query(q: ConjunctiveQuery, schema: Schema) -> QueryPlan:
    """Validate, decompose, rewrite and plan q; raises QueryRejected/SchemaError."""
    for a in q.atoms:
        ar = schema.arity(a.rel)  # raises SchemaError on unknown symbols
        if ar != len(a.args):
            raise SchemaError(
                f"atom {a} uses {a.rel} with arity {len(a.args)}, schema says {ar}"
            )
    adj = gaifman_adjacency(q)
    chk = check_free_connex_acyclic(q, adj)
    if not chk:
        raise QueryRejected(chk.diagnostic)

    s1 = sigma1_for(schema)
    comp_queries, owner = decompose_components(q, adj)
    components = tuple(
        build_plan(remove_self_loops(cq, s1), cq, adj) for cq in comp_queries
    )
    slots = []
    for p, v in enumerate(q.head):
        comp = components[owner[p]]
        slots.append((owner[p], comp.free_prefix.index(v)))
    return QueryPlan(
        query=q,
        schema=schema,
        s1=s1,
        components=components,
        head_slots=tuple(slots),
    )


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
