"""The brute-force reference evaluator."""
from __future__ import annotations

import random

import pytest

from colorcq.model import Atom, ConjunctiveQuery, Database, Schema, parse_query
from colorcq.oracle import ResultSet, naive_count, naive_eval

from .conftest import cycle_db, make_db, movie_db, names, random_db, random_fc_query, tuples


def test_movie_pinned_results():
    db = movie_db()
    got = naive_eval(db, parse_query("Ans(x,y) <- P(x,y)."))
    assert names(db, got) == {("PS", "LM"), ("PS", "MM")}
    assert naive_count(db, parse_query("Ans(x,y) <- P(x,y).")) == 2
    assert naive_count(db, parse_query("Ans() <- P(x,y), M(y,z).")) == 1
    assert naive_count(db, parse_query("Ans() <- S(x,y), M(y,z).")) == 0


def test_cycle_pinned_results():
    db = cycle_db(4)
    got = naive_eval(db, parse_query("Ans(x,y,z) <- R(x,y), R(y,z)."))
    assert names(db, got) == {
        ("1", "2", "3"), ("2", "3", "4"), ("3", "4", "1"), ("4", "1", "2"),
    }


def test_loops_and_repeated_variables():
    db = make_db(Schema([("R", 2)]), [("R", "a", "a"), ("R", "a", "b")])
    assert names(db, naive_eval(db, parse_query("Ans(x,y) <- R(x,y), R(y,x)."))) == {
        ("a", "a")
    }
    assert names(db, naive_eval(db, parse_query("Ans(x) <- R(x,x)."))) == {("a",)}


def test_empty_database():
    db = Database(Schema([("R", 2)]))
    q = parse_query("Ans(x,y) <- R(x,y).")
    assert naive_eval(db, q).tuples == frozenset()
    assert naive_count(db, parse_query("Ans() <- R(x,y).")) == 0


def test_relation_without_facts_gives_no_answers():
    """A relation absent from the schema has no facts, like a schema relation
    with no rows: a query that names one has no answers, though its other
    atoms match."""
    db = make_db(Schema([("R", 2), ("S", 2)]), [("R", "a", "b")])
    r = Atom("R", ("x", "y"))
    assert naive_count(db, ConjunctiveQuery(head=("x",), atoms=(r,))) == 1
    for rel in ("T", "S"):  # T is not in the schema; S has no rows
        q = ConjunctiveQuery(head=("x",), atoms=(r, Atom(rel, ("y", "x"))))
        assert naive_eval(db, q).tuples == frozenset()


def test_cyclic_queries_are_supported():
    db = cycle_db(3)
    assert naive_count(db, parse_query("Ans() <- R(x,y), R(y,z), R(z,x).")) == 1
    assert naive_count(cycle_db(4), parse_query("Ans() <- R(x,y), R(y,z), R(z,x).")) == 0


def test_generic_under_constant_renaming():
    rng = random.Random(83)
    for _ in range(20):
        db = random_db(rng)
        q = random_fc_query(rng)
        if q is None:
            continue
        perm = list(db.constants)
        rng.shuffle(perm)
        rename = {db.constants.index(old): perm[i] for i, old in enumerate(db.constants)}
        db2 = make_db(db.schema, [(sym, *(rename[c] for c in t))
                                  for sym in db.schema.symbols for t in tuples(db, sym)])
        want = {tuple(rename[c] for c in t) for t in naive_eval(db, q)}
        got = {tuple(db2.constants[c] for c in t) for t in naive_eval(db2, q)}
        assert got == want


def test_monotone_under_fact_addition():
    rng = random.Random(89)
    for _ in range(20):
        db = random_db(rng, max_adom=5, max_facts=6)
        q = random_fc_query(rng)
        if q is None:
            continue
        before = set(naive_eval(db, q).tuples)
        facts = [(sym, *(db.constants[c] for c in t))
                 for sym in db.schema.symbols for t in tuples(db, sym)]
        for _ in range(3):
            x = rng.choice("abcde")
            y = rng.choice("abcde")
            facts.append((rng.choice(("R", "S")), x, y))
        db = make_db(db.schema, facts, constants=db.constants)
        assert before <= set(naive_eval(db, q).tuples)


def test_result_set_checks_arity():
    with pytest.raises(ValueError):
        ResultSet(arity=2, tuples=frozenset({(1,)}))
    rs = ResultSet(arity=1, tuples=frozenset({(0,), (3,)}))
    assert len(rs) == 2
    assert (3,) in rs
    assert set(rs) == {(0,), (3,)}
