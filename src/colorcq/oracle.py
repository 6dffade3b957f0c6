"""Brute-force reference evaluator: every homomorphism, no index, no cleverness.

Used to pin down expected values in the tests and for differential testing of
the index-based pipeline on small instances.  Works on any conjunctive query
over unary/binary relations — acyclicity is not required here.
"""
from __future__ import annotations

from dataclasses import dataclass

from .model import ConjunctiveQuery, Database


@dataclass(frozen=True)
class ResultSet:
    arity: int
    tuples: frozenset[tuple[int, ...]]

    def __post_init__(self) -> None:
        if any(len(t) != self.arity for t in self.tuples):
            raise ValueError(f"a tuple of a ResultSet of arity {self.arity} has another length")

    def __len__(self) -> int:
        return len(self.tuples)

    def __contains__(self, t: tuple[int, ...]) -> bool:
        return t in self.tuples

    def __iter__(self):
        return iter(self.tuples)


def naive_eval(db: Database, q: ConjunctiveQuery) -> ResultSet:
    """All head images of homomorphisms q -> db, by backtracking search.

    Variables are assigned in decreasing atom-coverage order (ties by name);
    every atom is checked as soon as its variables are bound.
    """
    variables = q.variables()
    coverage = {v: 0 for v in variables}
    for a in q.atoms:
        for v in a.args:
            coverage[v] += 1
    order = sorted(variables, key=lambda v: (-coverage[v], v))
    pos = {v: i for i, v in enumerate(order)}
    # atoms become checkable once their last variable (in `order`) is bound
    due: dict[int, list] = {i: [] for i in range(len(order))}
    for a in q.atoms:
        due[max(pos[v] for v in a.args)].append(a)

    adom = db.adom_ids().tolist()
    # the rows of each relation the query names; one absent from the schema has none
    facts = {a.rel: set(map(tuple, db.array(a.rel).tolist())) if a.rel in db.schema else set()
             for a in q.atoms}
    assignment: dict[str, int] = {}
    results: set[tuple[int, ...]] = set()

    def extend(i: int) -> None:
        if i == len(order):
            results.add(tuple(assignment[v] for v in q.head))
            return
        for c in adom:
            assignment[order[i]] = c
            if all(tuple(assignment[v] for v in a.args) in facts[a.rel] for a in due[i]):
                extend(i + 1)

    extend(0)
    return ResultSet(arity=len(q.head), tuples=frozenset(results))


def naive_count(db: Database, q: ConjunctiveQuery) -> int:
    return len(naive_eval(db, q))
