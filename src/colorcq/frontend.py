"""Query analysis and planning.

A conjunctive query over a binary schema is answerable here iff its Gaifman
graph is a forest and, within every connected component, the free variables
induce a connected (or empty) subgraph.  A `ConjunctiveQuery`, parsed or built
by hand, builds that graph and the unary and loop atoms per variable in its
constructor's one pass over the atoms.  `plan_query` checks arities against its
own schema and walks the graph once: an accepted query is split into components,
each with a rooted tree, a variable order, labels λ_x and λ_e, and the colour-level
query Q_col that drives the index.  Only the index reads a loop R(x,x) as a symbol.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappop, heappush

from .graph import EdgeLabel, e_symbol, label_of, sigma1_for
from .model import _NO_ATOMS, Atom, ColorcqError, ConjunctiveQuery, Schema, SchemaError


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


def _dfs(adj: dict[str, dict], start: str, within, parent: dict[str, str | None]):
    """Depth-first search from `start` through the variables in `within`, in
    sorted order, recording each visited variable's tree parent in `parent`;
    returns the closed walk of the first cycle met, or None."""
    parent[start] = None
    stack = [(start, iter(sorted(adj[start])))]
    while stack:
        v, it = stack[-1]
        for w in it:
            if w == parent[v] or w not in within:
                continue
            if w in parent:  # back edge: w is an ancestor of v, so on the stack
                path = [u for u, _ in stack]
                return (*path[path.index(w):], w)
            parent[w] = v
            stack.append((w, iter(sorted(adj[w]))))
            break
        else:
            stack.pop()
    return None


def check_free_connex_acyclic(q: ConjunctiveQuery) -> FcCheck:
    """Accept iff the Gaifman graph of q is a forest and, per component, the
    free variables induce a connected or empty subgraph.  The witness is the
    first cycle met, else the first component, by first variable, whose least
    free variable does not reach all its free variables through free ones.
    `plan_query` calls it only to explain a rejection."""
    comps: list[dict[str, str | None]] = []
    seen: set[str] = set()
    for v in q.adj:
        if v not in seen:
            comps.append({})
            cycle = _dfs(q.adj, v, q.adj, comps[-1])
            if cycle is not None:
                return FcCheck(False, "Gaifman graph has a cycle: " + "-".join(cycle), cycle=cycle)
            seen.update(comps[-1])
    for comp in comps:
        fv, reached = sorted(q.free.intersection(comp)), {}
        if fv:
            _dfs(q.adj, fv[0], q.free, reached)
        bad = [w for w in fv if w not in reached]
        if bad:
            return FcCheck(False, f"free variables {fv[0]} and {bad[0]} are connected only "
                           "through quantified variables", free_pair=(fv[0], bad[0]))
    return FcCheck(True)


# not frozen (object.__setattr__ per field cost ~2.5 µs); plans are not changed once built
@dataclass
class PlanComponent:
    """One connected component, rooted and ordered, with its colour query.

    `order` lists the variables in <-order; the free variables are exactly
    its prefix `free_prefix`, the node set of the induced free subtree T′.
    Evaluation reads the tree by rank, the place in `order`: per rank, the
    parent's rank, the children's ranks, the unary label λ_x (atoms, as in
    `ConjunctiveQuery.unary`) and the label λ_e (`EdgeLabel`) on the edge from
    the parent (None at the root).  `lambda_e` by tree edge (parent, child),
    the sub-queries `query` and `q1`, cut from `source`, the planned query, and
    `s1`, the Σ1 of `schema` that names loops for display, are built on first read.
    """

    root: str
    order: tuple[str, ...]
    free_prefix: tuple[str, ...]
    parent: tuple[int, ...] = field(repr=False)
    children: tuple[list[int], ...] = field(repr=False)
    unary: tuple[frozenset[tuple[str, int]], ...] = field(repr=False)
    label: tuple[EdgeLabel | None, ...] = field(repr=False)
    source: ConjunctiveQuery = field(repr=False)
    schema: Schema = field(repr=False)
    s1 = cached_property(lambda self: sigma1_for(self.schema))

    def _names(self, atoms: frozenset[tuple[str, int]]) -> list[str]:
        """The Σ1 names of λ_x atoms, sorted: U for (U, 1), S_R for (R, 2)."""
        return sorted(u if n == 1 else self.s1.loop_symbol[u] for u, n in atoms)

    @cached_property
    def lambda_e(self) -> dict[tuple[str, str], EdgeLabel]:
        """λ_e keyed by tree edge (parent, child)."""
        o = self.order
        return {(o[self.parent[r]], o[r]): self.label[r] for r in range(1, len(o))}

    @cached_property
    def query(self) -> ConjunctiveQuery:
        """The head variables and the atoms of `source` in this component."""
        own = set(self.order)
        return ConjunctiveQuery(head=tuple(v for v in self.source.head if v in own),
                                atoms=tuple(a for a in self.source.atoms if a.args[0] in own))

    @cached_property
    def q1(self) -> ConjunctiveQuery:
        """`query` with each R(x,x) as its loop atom S_R(x), without repeats."""
        atoms = (Atom(self.s1.loop_symbol[r], args[:1]) if len(args) == 2 and args[0] == args[1]
                 else Atom(r, args) for r, args in self.query.atoms)
        return ConjunctiveQuery(head=self.query.head, atoms=tuple(dict.fromkeys(atoms)))

    @cached_property
    def q_col(self) -> ConjunctiveQuery:
        """Q_col: the atoms λ_x, one E_λe atom per tree edge; built on first use."""
        atoms = [Atom(u, (v,)) for v, us in zip(self.order, self.unary) for u in self._names(us)]
        atoms += [Atom(e_symbol(lab), edge) for edge, lab in self.lambda_e.items()]
        return ConjunctiveQuery(head=self.free_prefix, atoms=tuple(atoms))

    @property
    def is_boolean(self) -> bool:
        return not self.free_prefix


@dataclass
class QueryPlan:
    query: ConjunctiveQuery
    components: tuple[PlanComponent, ...]
    # user head position -> (component index, position in that component's
    # internal head order); undoes the internal reordering on output
    head_slots: tuple[tuple[int, int], ...]


def plan_query(q: ConjunctiveQuery, schema: Schema) -> QueryPlan:
    """Check, decompose and plan q; raises QueryRejected/SchemaError.
    One BFS per component visits free variables first, ties broken by name.
    Free components come first, in head order and rooted at their first head
    variable, then Boolean ones, rooted at their least variable.  q is acyclic
    iff no BFS reaches a variable twice, and then free-connex iff each BFS
    visits its free variables first; only a rejected query is walked again."""
    for a in q.atoms:
        if schema._arity.get(a[0]) != len(a[1]):
            ar = schema.arity(a[0])  # raises SchemaError on unknown symbols
            raise SchemaError(f"atom {a} uses {a[0]} with arity {len(a[1])}, schema says {ar}")
    adj, unary, free = q.adj, q.unary, q.free
    components: list[PlanComponent] = []
    slot: dict[str, tuple[int, int]] = {}  # variable -> (component, rank)
    roots, free_first, acyclic = q.head or sorted(adj), True, True
    while roots:
        for root in roots:
            if root in slot:
                continue
            ci = len(components)
            order, parent, kids, lambda_x, label = [], [], [], [], [None]
            up = {root: -1}  # visited variable -> its parent's rank
            qf, qq = ([root], []) if root in free else ([], [root])
            while qf or qq:
                x = heappop(qf or qq)
                r = len(order)
                slot[x] = (ci, r)
                order.append(x)
                lambda_x.append(unary.get(x, _NO_ATOMS))
                kids.append([])
                parent.append(p := up[x])
                if p >= 0:
                    kids[p].append(r)
                    label.append(label_of(adj[order[p]][x]))
                for y in adj[x]:
                    if y not in up:
                        up[y] = r
                        heappush(qf if y in free else qq, y)
                    elif y != order[p]:  # y reached twice (never at the root): a cycle
                        acyclic = False
            prefix = tuple(order[:len(free.intersection(order))])
            free_first = free_first and free.issuperset(prefix)
            components.append(PlanComponent(  # positional: keywords cost ~0.4 µs a call
                root, tuple(order), prefix, tuple(parent), tuple(kids),
                tuple(lambda_x), tuple(label), q, schema))
        roots = sorted(adj) if roots is q.head and len(slot) < len(adj) else ()
    if not (free_first and acyclic):
        raise QueryRejected(check_free_connex_acyclic(q).diagnostic)
    return QueryPlan(q, tuple(components), tuple(map(slot.__getitem__, q.head)))


def explain_plan(plan: QueryPlan) -> str:
    """Human-readable plan dump (CLI --explain)."""
    lines = [f"query: {plan.query}", f"components: {len(plan.components)}"]
    for i, c in enumerate(plan.components):
        kind = "boolean" if c.is_boolean else f"free={','.join(c.free_prefix)}"
        lines.append(f"[{i}] {c.query}  ({kind})")
        if c.q1 != c.query:
            lines.append(f"    loop-free: {c.q1}")
        lines.append(f"    root: {c.root}   order: {' < '.join(c.order)}")
        for (p, v), lab in c.lambda_e.items():
            lines.append(f"    tree: {p} -> {v}   lambda_e = {lab}")
        for v, us in zip(c.order, c.unary):
            if us:
                lines.append(f"    lambda_x({v}) = {{{','.join(c._names(us))}}}")
        lines.append(f"    color query: {c.q_col}")
    if plan.head_slots:
        lines.append("output slots: " + ", ".join(
            f"{v}<-C{ci}[{pos}]" for v, (ci, pos) in zip(plan.query.head, plan.head_slots)
        ))
    return "\n".join(lines)
