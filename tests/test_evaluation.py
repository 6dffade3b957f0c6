"""Boolean answering, enumeration, counting, and the generic tree evaluator,
all checked against the brute-force reference."""
from __future__ import annotations

import gc
import hashlib
import random
import sys
from collections import Counter
from itertools import islice, product

import numpy as np
import pytest

from colorcq import evaluation, graph
from colorcq.cli import main
from colorcq.evaluation import (
    EnumerationSession,
    _color_tables,
    _reduce,
    cde_fc_acq,
    count_answers,
    eval_boolean,
    prepare_tree,
)
from colorcq.frontend import plan_query
from colorcq.graph import FWD, EdgeLabel
from colorcq.index import build_index, load_index, save_index
from colorcq.model import (
    Atom,
    ColorcqError,
    ConjunctiveQuery,
    Database,
    Schema,
    load_database,
    parse_query,
)
from colorcq.oracle import naive_count, naive_eval

from .conftest import (
    color_of_name,
    cycle_db,
    make_db,
    members,
    names,
    random_db,
    random_fc_query,
    vertex,
)


def _plan(db, text):
    return plan_query(parse_query(text, db.schema), db.schema)


def _answers(idx, plan) -> set[tuple[int, ...]]:
    return set(EnumerationSession(idx, plan))


def test_movie_boolean(dex_index):
    idx = dex_index
    assert eval_boolean(idx, _plan(idx.db, "Ans() <- P(x,y), M(y,z)."))
    # S leads to screen times, which nothing maps into M's domain
    assert not eval_boolean(idx, _plan(idx.db, "Ans() <- S(x,y), M(y,z)."))


def test_cycle_boolean():
    five = build_index(cycle_db(5))
    assert not eval_boolean(five, _plan(five.db, "Ans() <- R(x,y), R(y,x)."))
    two = build_index(cycle_db(2))
    assert eval_boolean(two, _plan(two.db, "Ans() <- R(x,y), R(y,x)."))


def test_eval_boolean_rejects_free_variables(dex_index):
    with pytest.raises(ColorcqError):
        eval_boolean(dex_index, _plan(dex_index.db, "Ans(x) <- P(x,y)."))


def test_movie_enumeration_pinned(dex_index):
    idx, db = dex_index, dex_index.db
    got = _answers(idx, _plan(db, "Ans(x,y) <- P(x,y)."))
    assert names(db, got) == {("PS", "LM"), ("PS", "MM")}

    got = _answers(idx, _plan(db, "Ans(x) <- A(x,y)."))
    assert names(db, got) == {("LM",), ("MM",)}

    sess = EnumerationSession(idx, _plan(db, "Ans(x,y,z) <- P(x,y), S(y,z)."), names=True)
    assert set(sess) == {("PS", "LM", "18m"), ("PS", "MM", "34m")}


def test_cycle_two_hop_pinned():
    idx = build_index(cycle_db(4))
    got = _answers(idx, _plan(idx.db, "Ans(x,y,z) <- R(x,y), R(y,z)."))
    assert names(idx.db, got) == {
        ("1", "2", "3"), ("2", "3", "4"), ("3", "4", "1"), ("4", "1", "2"),
    }


def test_counts_pinned(dex_index):
    idx, db = dex_index, dex_index.db
    assert count_answers(idx, _plan(db, "Ans(x,y) <- P(x,y).")) == 2
    assert count_answers(idx, _plan(db, "Ans(y) <- P(x,y).")) == 2
    assert count_answers(idx, _plan(db, "Ans(x) <- P(x,y).")) == 1
    assert count_answers(idx, _plan(db, "Ans(x) <- P(x,y), S(y,z).")) == 1
    assert count_answers(idx, _plan(db, "Ans() <- P(x,y), M(y,z).")) == 1
    assert count_answers(idx, _plan(db, "Ans() <- S(x,y), M(y,z).")) == 0

    n = 37
    idx = build_index(cycle_db(n))
    assert count_answers(idx, _plan(idx.db, "Ans(x,y) <- R(x,y).")) == n
    assert count_answers(idx, _plan(idx.db, "Ans(x,y,z) <- R(x,y), R(y,z).")) == n
    assert count_answers(idx, _plan(idx.db, "Ans(x) <- R(x,y), R(y,z).")) == n


def _f_down(idx, comp):
    """f↓ per variable: `_reduce` with every variable counted, the path a
    full query's count takes."""
    return dict(zip(comp.order, _reduce(comp, *_color_tables(idx, comp), len(comp.order),
                                        np.int64)[0]))


def test_f_down_tables_worked_example(dex_index):
    idx, db = dex_index, dex_index.db
    plan = _plan(db, "Ans(y,z) <- P(x,y), M(y,z).")
    comp = plan.components[0]
    assert comp.order == ("y", "z", "x")
    b, r, g, y = (color_of_name(idx, name) for name in ("PS", "LM", "Dr.S", "18m"))
    f_down = _f_down(idx, comp)
    for leaf in ("x", "z"):
        assert f_down[leaf].tolist() == [1, 1, 1, 1]
    want = [0, 0, 0, 0]
    want[r] = 1  # only the movie class has both a P-predecessor and an M-successor
    assert f_down["y"].tolist() == want
    assert count_answers(idx, plan) == 2


def test_loop_facts_are_answers():
    db = make_db(Schema([("R", 2)]), [("R", "a", "a")])
    idx = build_index(db)
    assert names(db, _answers(idx, _plan(db, "Ans(x,y) <- R(x,y)."))) == {("a", "a")}
    assert count_answers(idx, _plan(db, "Ans(x,y) <- R(x,y).")) == 1
    assert eval_boolean(idx, _plan(db, "Ans() <- R(x,y)."))

    q5 = "Ans(x1,x2) <- R(x1,x2), R(x3,x1), R(x2,x2)."
    assert names(db, _answers(idx, _plan(db, q5))) == {("a", "a")}
    assert count_answers(idx, _plan(db, q5)) == 1

    db2 = make_db(Schema([("R", 2)]), [("R", "a", "a"), ("R", "a", "b")])
    idx2 = build_index(db2)
    assert names(db2, _answers(idx2, _plan(db2, "Ans(x,y) <- R(x,y), R(y,x)."))) == {
        ("a", "a")
    }
    assert names(db2, _answers(idx2, _plan(db2, q5))) == {("a", "a")}
    got = _answers(idx2, _plan(db2, "Ans(x,y) <- R(x,y)."))
    assert names(db2, got) == {("a", "a"), ("a", "b")}
    assert count_answers(idx2, _plan(db2, "Ans(x,y) <- R(x,y).")) == 2


def test_empty_database_evaluation():
    db = Database(Schema([("R", 2)]))
    idx = build_index(db)
    assert _answers(idx, _plan(db, "Ans(x,y) <- R(x,y).")) == set()
    assert count_answers(idx, _plan(db, "Ans(x,y) <- R(x,y).")) == 0
    assert not eval_boolean(idx, _plan(db, "Ans() <- R(x,y)."))


def test_cross_product_components():
    db = make_db(Schema([("R", 2), ("S", 2), ("U", 1)]),
                 [("R", "a", "b"), ("R", "b", "c"), ("S", "d", "e"), ("S", "e", "f")])
    idx = build_index(db)
    plan = _plan(db, "Ans(x,w) <- R(x,y), S(w,v).")
    sess = EnumerationSession(idx, plan)
    got = list(sess)
    assert len(got) == len(set(got)) == 4
    assert names(db, got) == {("a", "d"), ("a", "e"), ("b", "d"), ("b", "e")}
    assert sess.emissions == 4
    assert count_answers(idx, plan) == 4

    # an unsatisfiable Boolean component kills the whole product
    plan0 = _plan(db, "Ans(x,w) <- R(x,y), S(w,v), U(u).")
    assert _answers(idx, plan0) == set()
    assert count_answers(idx, plan0) == 0

    db.set_relation("U", [[db.constants.index("d")]])
    idx = build_index(db)
    assert len(_answers(idx, _plan(db, "Ans(x,w) <- R(x,y), S(w,v), U(u)."))) == 4


def test_count_beyond_int64(tmp_path, capsys):
    """Counts stay exact past 2^63: a star with 1,000 leaves has 1000^7 =
    10^21 answers for seven leaf variables, in the API and on the CLI.  With
    a quantified leaf z, five free leaves (n^6 < 2^63 for the n = 1,001
    constants) and seven (n^7 ≥ 2^63) count exactly, as Python ints."""
    facts = tmp_path / "star.facts"
    facts.write_text("".join(f"R(h,l{i})\n" for i in range(1000)))
    text = "Ans(h,a,b,c,d,e,f,g) <- " + ", ".join(f"R(h,{v})" for v in "abcdefg") + "."
    with open(facts) as f:
        db = load_database(f)
    idx = build_index(db)
    assert count_answers(idx, _plan(db, text)) == 10**21
    assert main(["query", text, "--db", str(facts), "--task", "count"]) == 0
    assert capsys.readouterr().out.strip() == str(10**21)

    for leaves, want in (("abcde", 10**15), ("abcdefg", 10**21)):
        text = (f"Ans(h,{','.join(leaves)}) <- "
                + ", ".join(f"R(h,{v})" for v in leaves + "z") + ".")
        got = count_answers(idx, _plan(db, text))
        assert got == want and type(got) is int, text


def test_session_instrumentation():
    idx = build_index(cycle_db(50))
    sess = EnumerationSession(idx, _plan(idx.db, "Ans(x,y) <- R(x,y)."))
    out = list(sess)
    assert len(out) == 50
    assert sess.emissions == 50
    assert sess.steps.n >= 50
    assert 1 <= sess.max_gap <= 10


def test_expansion_into_an_empty_set_raises():
    """A colour tuple whose successor set is empty means the index is
    inconsistent; enumeration must say so even under `python -O`."""
    idx = build_index(cycle_db(5))
    table = idx.tables[EdgeLabel([("R", FWD)])]
    table.own[:] = [0] * len(table.own)  # every successor group is now empty
    with pytest.raises(ColorcqError, match="inconsistent"):
        list(EnumerationSession(idx, _plan(idx.db, "Ans(x,y) <- R(x,y).")))


def test_enumeration_yields_user_head_order():
    idx = build_index(cycle_db(6))
    fwd = _answers(idx, _plan(idx.db, "Ans(x,y) <- R(x,y)."))
    rev = _answers(idx, _plan(idx.db, "Ans(y,x) <- R(x,y)."))
    assert rev == {(b, a) for a, b in fwd}


def _subtree_query(comp, x) -> ConjunctiveQuery | None:
    """The atoms of the subtree of x, with every subtree variable kept free
    so result rows are exactly homomorphisms."""
    rank = comp.order.index
    svars = [x]
    stack = [x]
    while stack:
        v = stack.pop()
        for w in comp.children[rank(v)]:
            svars.append(comp.order[w])
            stack.append(comp.order[w])
    atoms: list[Atom] = []
    for v in svars:
        for u, n in sorted(comp.unary[rank(v)]):
            atoms.append(Atom(u, (v,) * n))  # U(v), or the loop R(v,v)
        if v != x:
            p = comp.order[comp.parent[rank(v)]]
            for r, d in comp.lambda_e[(p, v)].pairs:
                atoms.append(Atom(r, (p, v) if d == FWD else (v, p)))
    if not atoms:
        return None
    return ConjunctiveQuery(head=tuple(svars), atoms=tuple(atoms))


def test_subtree_counts_match_brute_force():
    """f↓(c,x) equals, for every vertex of class c, the number of
    homomorphisms of x's subtree that pin x to that vertex."""
    rng = random.Random(71)
    checked = 0
    for _ in range(10):
        db = random_db(rng, max_adom=6)
        idx = build_index(db)
        if not idx.num_colors:
            continue
        for _ in range(6):
            q = random_fc_query(rng)
            if q is None:
                continue
            plan = plan_query(q, db.schema)
            for comp in plan.components:
                f_down = _f_down(idx, comp)
                for x in comp.order:
                    sq = _subtree_query(comp, x)
                    if sq is None:
                        assert all(v == 1 for v in f_down[x])
                        continue
                    per_const = Counter(t[0] for t in naive_eval(db, sq))
                    for c in range(idx.num_colors):
                        for vi in members(idx.coloring)[c]:
                            cid = int(idx.g.verts[vi])
                            assert f_down[x][c] == per_const.get(cid, 0)
                            checked += 1
    assert checked > 500


def test_color_vectors_match_color_query_semantics():
    """On loop-free databases the emitted answers, mapped to their colours,
    are exactly the answers of the colour query over the colour database."""
    rng = random.Random(73)
    checked = 0
    for _ in range(40):
        db = random_db(rng, max_adom=6, loops=False)
        idx = build_index(db)
        q = random_fc_query(rng)
        if q is None or q.is_boolean:
            continue
        plan = plan_query(q, db.schema)
        col = idx.coloring.color_of
        got = {
            tuple(int(col[vertex(idx.g, c)]) for c in t)
            for t in EnumerationSession(idx, plan)
        }
        per_comp = [
            [()] if comp.is_boolean else sorted(naive_eval(idx.color_db, comp.q_col))
            for comp in plan.components
        ]
        want = {
            tuple(prod[ci][pos] for ci, pos in plan.head_slots)
            for prod in product(*per_comp)
        }
        # Boolean components gate the product instead of contributing slots
        for comp, tuples in zip(plan.components, per_comp):
            if comp.is_boolean and not naive_eval(idx.color_db, comp.q_col):
                want = set()
        assert got == want
        checked += 1
    assert checked > 15


def test_cde_matches_naive():
    rng = random.Random(79)
    checked = 0
    for _ in range(200):
        db = random_db(rng)
        q = random_fc_query(rng)
        if q is None:
            continue
        out = list(cde_fc_acq(db, q))
        assert len(out) == len(set(out))
        assert set(out) == naive_eval(db, q)
        checked += 1
    assert checked > 120


def test_fuzz_all_paths_agree():
    """Enumeration, counting, Boolean answering, and the generic evaluator all
    agree with the brute-force reference on random instances."""
    rng = random.Random(90210)
    checked = 0
    while checked < 350:
        db = random_db(rng)
        q = random_fc_query(rng)
        if q is None:
            continue
        idx = build_index(db)
        plan = plan_query(q, db.schema)
        ref = naive_eval(db, q)

        got = list(EnumerationSession(idx, plan))
        assert len(got) == len(set(got)), (q, sorted(got))
        assert set(got) == ref, q
        assert count_answers(idx, plan) == len(ref), q
        assert set(cde_fc_acq(db, plan)) == ref, q

        bq = ConjunctiveQuery(head=(), atoms=q.atoms)
        bplan = plan_query(bq, db.schema)
        assert eval_boolean(idx, bplan) == (naive_count(db, bq) > 0), bq
        checked += 1


# the benchmark's enumerated query mixes (bench/workloads.py), keyed by the
# workload whose facts they run on, plus one cross product on R
ENUM_MIX = {
    "cycle": ("Ans() <- R(x,y), R(y,z).", "Ans() <- R(x,x).", "Ans(x,y) <- R(x,y).",
              "Ans(x) <- R(x,y), R(y,z).", "Ans(x,y,z) <- R(x,y), R(y,z).",
              "Ans(y,z,w) <- R(x,y), R(z,y), R(z,w).", "Ans(x,w) <- R(x,y), R(w,v)."),
    "path": ("Ans() <- R(x,y), R(y,z), R(z,w).", "Ans() <- R(x,x).", "Ans(x,y) <- R(x,y).",
             "Ans(x,y,z) <- R(x,y), R(y,z).", "Ans(x) <- R(x,y), R(y,z), R(z,w).",
             "Ans(x,y,z,w) <- R(x,y), R(y,z), R(z,w).", "Ans(x,w) <- R(x,y), R(w,v)."),
    "random": ("Ans() <- R(x,y), R(y,z), R(z,w).", "Ans() <- R(x,y), R(y,x), R(x,x).",
               "Ans(x,y) <- R(x,y).", "Ans(x) <- R(x,y), R(y,z).",
               "Ans(x,y,z) <- R(x,y), R(y,z).", "Ans(x,y) <- R(x,y), R(y,x).",
               "Ans(x,y,z,w) <- R(x,y), R(y,z), R(w,z).", "Ans(x,w) <- R(x,y), R(w,v)."),
    "multirel": ("Ans() <- P(x,y), Q(y,z).", "Ans() <- U(x), T(x,x).", "Ans(x,y) <- P(x,y).",
                 "Ans(x,y) <- P(x,y), Q(x,y).", "Ans(x,y,z) <- S(x,y), T(y,z), U(z).",
                 "Ans(x) <- U(x), P(x,y), P(y,y).", "Ans(x,y,z,w) <- P(x,y), S(z,w)."),
}


def test_enumeration_order_matches_pinned_digest():
    """The answers of every enumeration route, in order, are pinned: the
    sha256 over sessions with ids, sessions with names and `cde_fc_acq`, for
    400 seeded random instances and the benchmark mixes on small-scale
    benchmark facts (first 3,000 answers each).  Steps and gaps are not
    part of it."""
    from bench.workloads import make_facts

    digest = hashlib.sha256()

    def feed(idx, db, plan, cap=None):
        for route in (EnumerationSession(idx, plan), EnumerationSession(idx, plan, names=True),
                      cde_fc_acq(db, plan)):
            for t in islice(route, cap):
                digest.update(repr(t).encode())
            digest.update(b"|")

    rng = random.Random(808)
    instances = 0
    while instances < 400:
        db = random_db(rng)
        q = random_fc_query(rng)
        if q is not None:
            feed(build_index(db), db, plan_query(q, db.schema))
            instances += 1
    for name, scale in (("cycle", 0.001), ("path", 0.01), ("random", 0.01),
                        ("multirel", 0.01)):
        db = load_database(make_facts(name, 802, scale))
        idx = build_index(db)
        for text in ENUM_MIX[name]:
            feed(idx, db, _plan(db, text), 3000)
    assert digest.hexdigest() == "ed4e94263344a1bd8b3bdc1bda7114b16cbf32ce4aa5b369e54c922f9ea47903"


def test_counts_match_pinned_digest():
    """The counts are pinned: the sha256 over `count_answers` of every
    non-Boolean plan and `eval_boolean` of every Boolean plan, for 400 seeded
    random instances and every benchmark-mix query on small-scale benchmark
    facts."""
    from bench.workloads import WORKLOADS, make_facts

    digest = hashlib.sha256()

    def feed(idx, plan):
        got = count_answers(idx, plan) if plan.query.head else eval_boolean(idx, plan)
        digest.update(f"{got!r}|".encode())

    rng = random.Random(809)
    instances = 0
    while instances < 400:
        db = random_db(rng)
        q = random_fc_query(rng)
        if q is not None:
            feed(build_index(db), plan_query(q, db.schema))
            instances += 1
    for name, scale in (("cycle", 0.001), ("path", 0.01), ("random", 0.01),
                        ("multirel", 0.01)):
        db = load_database(make_facts(name, 803, scale))
        idx = build_index(db)
        for query in WORKLOADS[name].queries:
            feed(idx, _plan(db, query.text))
    assert digest.hexdigest() == "05a670ac3bc6c7547af017fdf5543d4d314ab6143a01b40c8adda0ea83d24f0f"


def _drain_one_by_one(sess) -> list[tuple]:
    """Take the answers with one next() each, checking the accounting after
    every call against the readings of `steps.n` taken so far."""
    out, last, gaps = [], 0, [0]
    while True:
        try:
            out.append(next(sess))
        except StopIteration:
            return out
        assert sess.emissions == len(out)
        assert sess.steps.n >= last
        gaps.append(sess.steps.n - last)
        last = sess.steps.n
        assert sess.max_gap == max(gaps)


def test_session_accounting_per_answer():
    facts = [("R", "a", "b"), ("R", "b", "c"), ("R", "c", "a"), ("R", "a", "c"),
             ("S", "d", "e"), ("S", "e", "f"), ("U", "d")]
    db = make_db(Schema([("R", 2), ("S", 2), ("U", 1)]), facts)
    idx = build_index(db)
    for text, n in (("Ans(x,y,z) <- R(x,y), R(y,z).", 5),
                    ("Ans(x,w,v) <- R(x,y), S(w,v).", 3 * 2),
                    ("Ans(x,w) <- R(x,y), S(w,v), U(u).", 3 * 2)):
        got = _drain_one_by_one(EnumerationSession(idx, _plan(db, text)))
        assert len(got) == len(set(got)) == n, text
        assert set(got) == naive_eval(db, parse_query(text, db.schema)), text

    # an unsatisfiable Boolean component yields nothing, a Boolean plan () once
    assert _drain_one_by_one(EnumerationSession(idx, _plan(db, "Ans(x) <- R(x,y), S(u,u).")))\
        == []
    assert _drain_one_by_one(EnumerationSession(idx, _plan(db, "Ans() <- R(x,y), S(u,v).")))\
        == [()]
    assert _drain_one_by_one(EnumerationSession(idx, _plan(db, "Ans() <- S(u,u).")))\
        == []


def _half_unary_db(seed: int, n: int = 400, m: int = 2000) -> Database:
    """m random R facts over n constants, and U on half of the constants."""
    rng = random.Random(seed)
    lines = [f"R(c{rng.randrange(n)},c{rng.randrange(n)})" for _ in range(m)]
    lines += [f"U(c{i})" for i in rng.sample(range(n), n // 2)]
    return load_database("\n".join(lines) + "\n")


def test_evaluation_hashes_no_edge_label(monkeypatch):
    """Labels hash and compare by identity, so a memo lookup by label is one
    C-level dict get.  With a plan made beforehand and the index's tables
    memoized, counting, Boolean answering and a session with its first tuple
    make no label: the intern table's `__missing__` is not called."""
    assert EdgeLabel.__hash__ is object.__hash__ and EdgeLabel.__eq__ is object.__eq__
    db = _half_unary_db(1701)
    idx = build_index(db)
    plans = [_plan(db, text) for text in (
        "Ans(x,y,z) <- R(x,y), R(y,z), U(z).", "Ans(x) <- R(x,y), R(y,x), R(y,y).",
        "Ans(x,w) <- R(x,y), R(w,v), U(v).")]
    boolean = _plan(db, "Ans() <- R(x,y), R(y,z), U(z).")

    def run():  # the first run memoizes every label's tables
        return ([(count_answers(idx, p), next(EnumerationSession(idx, p), None)) for p in plans],
                eval_boolean(idx, boolean))

    want = run()
    made = []
    missing = graph._Labels.__missing__

    def counted_missing(self, pairs):
        made.append(pairs)
        return missing(self, pairs)

    monkeypatch.setattr(graph._Labels, "__missing__", counted_missing)
    assert run() == want and made == []
    EdgeLabel([("NamedOnlyHere", FWD)])
    assert made == [(("NamedOnlyHere", FWD),)]  # the count sees a new label


def test_plans_on_an_equal_schema_give_the_same_answers():
    """Edge labels are interned, one object per set of pairs: a plan made on an
    equal but distinct `Schema` (so another Σ1) counts and enumerates on the
    index as the plan made on the index's own schema does."""
    db = _half_unary_db(1704, n=60, m=150)
    idx = build_index(db)
    other = Schema((sym, db.schema.arity(sym)) for sym in db.schema.symbols)
    for text in ("Ans(x,y) <- R(x,y), R(y,y).", "Ans(x,y) <- R(x,y), R(y,z), U(z).",
                 "Ans(x,y) <- R(x,y), R(y,x).", "Ans() <- R(x,y), R(z,y), U(z)."):
        mine, theirs = _plan(db, text), plan_query(parse_query(text, other), other)
        assert theirs.components[0].s1 is not mine.components[0].s1
        assert count_answers(idx, theirs) == count_answers(idx, mine)
        assert list(EnumerationSession(idx, theirs)) == list(EnumerationSession(idx, mine))


def _agree_with_naive(db, indexes, schema, texts) -> int:
    """Check that the plans of `texts` on `schema` get the answers `naive_eval`
    gives on `db`: Boolean answers, counts and enumeration on each index, and
    `cde_fc_acq`; return how many of the queries have an answer."""
    nonzero = 0
    for text in texts:
        q = parse_query(text, schema)
        plan = plan_query(q, schema)
        want = naive_eval(db, q)
        nonzero += bool(want)
        for idx in indexes:
            assert count_answers(idx, plan) == len(want), text
            if q.is_boolean:
                assert eval_boolean(idx, plan) == bool(want), text
            assert set(EnumerationSession(idx, plan)) == want, text
        assert set(cde_fc_acq(db, plan)) == want, text
    return nonzero


def _built_and_loaded(db, path) -> tuple:
    built = build_index(db)
    save_index(built, str(path))
    return built, load_index(str(path))


def test_symbols_the_index_lacks_are_held_by_no_class(tmp_path):
    """A plan made on a schema with symbols the index lacks, or that gives one
    of its names another arity, gets the answers `naive_eval` gives (a
    relation absent from the data has no facts), on a built and a loaded
    index and from `cde_fc_acq`; an unknown name is never read as the index's
    symbol of the same name and another arity."""
    extra = Schema([("R", 2), ("U", 1), ("T", 2), ("W", 1)])
    clash = Schema([("R", 2), ("U", 2)])
    cases = [(extra, (
        "Ans(x) <- W(x), R(x,y).", "Ans(x) <- R(x,y), T(x,y).", "Ans(x) <- R(x,y), T(y,y).",
        "Ans() <- T(x,y).", "Ans(x,y) <- T(x,y).", "Ans() <- W(x).", "Ans(x) <- U(x), R(x,y).",
    )), (clash, (
        "Ans(x) <- R(x,y), U(x,y).", "Ans(x) <- R(x,y), U(y,y).", "Ans(x,y) <- U(x,y).",
        "Ans() <- U(x,x).",
    )), (Schema([("R", 2), ("U", 1)]), ("Ans(x) <- U(x), R(x,y).",))]
    nonzero = 0
    for i, facts in enumerate(("R(a,b)\nR(b,c)\nR(c,c)\nR(c,a)\nU(a)\nU(c)\n", "R(a,b)\nR(b,c)\n")):
        db = load_database(facts)  # the second has no U at all
        indexes = _built_and_loaded(db, tmp_path / f"{i}.idx")
        for schema, texts in cases:
            nonzero += _agree_with_naive(db, indexes, schema, texts)
    assert nonzero == 2


def test_loop_atoms_are_named_by_the_index_alone(tmp_path):
    """A plan holds a loop R(x,x) as the atom (R, 2) and a unary U(x) as
    (U, 1); only the index names a loop symbol, in its own Σ1.  So a plan made
    on another schema never reads a loop as a unary fact of the same name, or
    the reverse, nor a symbol added to the data's schema after the build as
    one of the index's."""
    rt, rs, t_unary = (Schema([("R", 2), ("T", 2)]), Schema([("R", 2), ("S_R", 1)]),
                       Schema([("R", 2), ("T", 1)]))
    cases = [  # the plan's Σ1 names T's loop S_T, which the data uses as a unary symbol
        ("R(a,b)\nR(b,a)\nS_T(a)\n", rt, ("Ans(x) <- R(x,y), T(x,x).", "Ans() <- R(x,y), T(x,x).")),
        ("R(a,b)\nR(b,a)\nS_T(a)\nT(b,b)\n", rt,
         ("Ans(x) <- R(x,y), T(x,x).", "Ans(x,y) <- R(x,y), T(y,y).", "Ans() <- T(x,x), R(x,y).")),
        # the plan's S_R is a unary symbol, which the index names its loop symbol of R
        ("R(a,a)\nR(a,b)\n", rs, ("Ans(x) <- S_R(x).", "Ans(x,y) <- S_R(x), R(x,y).", "Ans() <- S_R(x).")),
        # the plan's unary T is binary in the index
        ("R(a,b)\nT(a,a)\nT(b,c)\n", t_unary, ("Ans(x) <- T(x), R(x,y).", "Ans() <- T(x).")),
    ]
    nonzero = 0
    for i, (facts, schema, texts) in enumerate(cases):
        db = load_database(facts)
        nonzero += _agree_with_naive(db, _built_and_loaded(db, tmp_path / f"{i}.idx"), schema, texts)
    assert nonzero == 3  # the second case's queries

    db = load_database("R(a,a)\nR(a,b)\nU(a)\n")
    built = build_index(db)
    db.schema.add("T", 2)  # the built index's base schema
    db.schema.add("W", 1)
    texts = ("Ans(x) <- T(x,x).", "Ans(x) <- W(x), R(x,y).", "Ans(x) <- U(x), R(x,x).")
    assert _agree_with_naive(db, (built,), db.schema, texts) == 1


def test_next_and_for_read_one_stream():
    """`next(sess)` and `for t in sess` advance the same stream, which equals
    `list(EnumerationSession(...))`."""
    idx = build_index(cycle_db(7))
    plan = _plan(idx.db, "Ans(x,y,z) <- R(x,y), R(y,z).")
    want = list(EnumerationSession(idx, plan))
    sess = EnumerationSession(idx, plan)
    got = [next(sess), next(sess)]
    for t in sess:
        got.append(t)
        if len(got) == 4:
            break
    got.append(next(sess))
    got += list(sess)
    assert got == want and len(want) == 7 and sess.emissions == 7
    assert next(sess, None) is None


def test_kept_pairs_match_their_definitions(monkeypatch):
    """Every `TreeRun` that enumeration (with an index, and `cde_fc_acq`
    without one) prepares holds, per free tree edge, the numbers of the
    pairs into child candidates and their pointers by parent value, and the
    root candidates.  The instances drop pairs: a selective unary at a leaf
    on half the constants, and small random ones."""
    runs = []

    def record(*args):
        runs.append(prepare_tree(*args))
        return runs[-1]

    monkeypatch.setattr(evaluation, "prepare_tree", record)
    for seed in (1401, 1402):
        db = _half_unary_db(seed)
        idx = build_index(db)
        for text in ("Ans(x,y) <- R(x,y), U(y).", "Ans(x,y,z) <- R(x,y), R(y,z), U(z).",
                     "Ans(x,y) <- R(x,y), R(y,z), U(z).", "Ans(y,x) <- R(x,y), U(x), U(y)."):
            plan = _plan(db, text)
            EnumerationSession(idx, plan)
            next(cde_fc_acq(db, plan), None)
    rng = random.Random(1403)
    for _ in range(300):
        db = random_db(rng)
        q = random_fc_query(rng)
        if q is not None:
            plan = plan_query(q, db.schema)
            EnumerationSession(build_index(db), plan)
            next(cde_fc_acq(db, plan), None)

    seen = Counter()
    for run in runs:
        comp, cand = run.comp, run.cand
        assert bool(run.roots) == bool(cand[0].any())
        assert list(run.roots) == np.flatnonzero(cand[0]).tolist()
        if not run.roots:
            continue
        for w in range(1, len(comp.free_prefix)):
            v = comp.parent[w]
            p = run.pairs[w]
            ok = cand[w][p.b]
            js = np.flatnonzero(ok)
            ptr, kept = run.fadj[w]
            assert list(kept) == js.tolist()
            want = np.searchsorted(p.a[js], np.arange(len(cand[v]) + 1))
            assert list(ptr) == want.tolist()
            lost = np.diff(p.ptr) - np.diff(want)  # pairs each parent value lost
            seen["edges that drop pairs"] += bool(lost.any())
            seen["parents that lose every pair"] += int(((lost > 0) & (np.diff(want) == 0)).sum())
            seen["last values that lose a pair"] += bool(lost[-1])
    assert min(seen.values()) >= 3 and len(seen) == 3, seen


def test_session_holds_no_object_per_value():
    """A fresh session's Python allocations do not grow with the data: on
    paths of 2,000 and 20,000 vertices every edge of the 3-hop query drops
    the pairs into the last vertices, yet the session holds only a few
    dozen blocks once the labels' tables are memoized."""

    def held(n: int) -> int:
        db = load_database("".join(f"R({i},{i + 1})\n" for i in range(n - 1)))
        idx = build_index(db)
        plan = _plan(db, "Ans(x,y,z,w) <- R(x,y), R(y,z), R(z,w).")
        EnumerationSession(idx, plan)  # memoizes the labels' pairs and tables
        gc.collect()
        before = sys.getallocatedblocks()
        sess = EnumerationSession(idx, plan)
        gc.collect()
        blocks = sys.getallocatedblocks() - before
        del sess
        return blocks

    small, large = held(2_000), held(20_000)
    assert small < 150 and large < 150 and abs(large - small) <= 10, (small, large)


def _reduce_explicit(comp, cand0, pairs, counted=0, dtype=bool):
    """`_reduce` without the leaf fold: every child, leaves included, is
    gathered over its pairs, then scattered (semi-join) or summed with
    `np.add.at` (counted)."""
    f = [None] * len(cand0)
    for v in reversed(range(len(cand0))):
        fv = cand0[v] if v >= counted else cand0[v].astype(dtype)
        for w in comp.children[v]:
            p = pairs[w]
            if w < counted:
                g = np.zeros(len(fv), dtype)
                np.add.at(g, p.a, f[w][p.b] * p.n)
            else:
                g = np.zeros(len(fv), bool)
                g[p.a[f[w][p.b]]] = True
            fv = fv * g
        f[v] = fv
    return f


def test_folded_leaves_match_the_explicit_sweep(monkeypatch):
    """A leaf with no unary atom reads its message off `PairRows.deg` (counted)
    or `.has` (semi-join).  On seeded random instances (data self-loops, so
    loop diagonals; unary-constrained leaves; `R(y,y)` leaves; cross
    products) the folded sweep equals the explicit gather and scatter or
    `np.add.at`, for every free-prefix length, in int64 and in Python ints,
    on the index's pairs and on `cde_fc_acq`'s constant pairs."""
    inputs = []  # (route, comp, cand0, pairs)

    def record(comp, cand0, pairs):
        inputs.append(("constants", comp, cand0, pairs))
        return prepare_tree(comp, cand0, pairs)

    monkeypatch.setattr(evaluation, "prepare_tree", record)
    rng = random.Random(1501)
    fixed = ("Ans(x,y) <- R(x,y), R(y,y).", "Ans(x,w) <- R(x,y), S(w,v).",
             "Ans(x) <- R(x,y), U(y), S(x,z).", "Ans(y) <- R(x,y), R(y,z), S(z,z).")
    for i in range(200):
        db = random_db(rng)
        idx = build_index(db)
        if i < len(fixed):
            plans = [_plan(db, fixed[i])]
        else:
            q = random_fc_query(rng)
            plans = [] if q is None else [plan_query(q, db.schema)]
        for plan in plans:
            inputs += [("index", comp, *_color_tables(idx, comp)) for comp in plan.components]
            next(cde_fc_acq(db, plan), None)

    seen = Counter()
    for route, comp, cand0, pairs in inputs:
        for counted in range(len(comp.order) + 1):
            if counted and route == "constants":  # count each pair once, as `deg` does
                pairs = [p._replace(n=np.ones(len(p.a), np.int64)) if p and p.n is None else p
                         for p in pairs]
            for dtype in ((bool,) if not counted else (np.int64, object)):
                got = _reduce(comp, cand0, pairs, counted, dtype)[0]
                want = _reduce_explicit(comp, cand0, pairs, counted, dtype)
                assert len(got) == len(want)
                for v in range(len(comp.order)):
                    assert np.array_equal(got[v], want[v]), (comp.query, counted, dtype, v)
                    assert got[v].dtype == want[v].dtype, (comp.query, counted, dtype, v)
        for kids in comp.children:
            for w in kids:
                if not comp.children[w]:
                    leaf = "unary leaf" if comp.unary[w] else "folded leaf"
                    seen[(route, leaf)] += 1
        seen[(route, "components")] += 1
    assert len(seen) == 6 and min(seen.values()) >= 20, seen


def _dense_db(rng: random.Random, n: int, unary: float) -> Database:
    """R: a directed n-cycle plus 4n random facts; S: 3n random facts; U on
    a share `unary` of the n constants.  Refinement leaves about n colours,
    so R's and S's labels have about 5 and 3 pairs per colour."""
    lines = [f"R(c{i},c{(i + 1) % n})" for i in range(n)]
    lines += [f"R(c{rng.randrange(n)},c{rng.randrange(n)})" for _ in range(4 * n)]
    lines += [f"S(c{rng.randrange(n)},c{rng.randrange(n)})" for _ in range(3 * n)]
    lines += [f"U(c{i})" for i in rng.sample(range(n), round(unary * n))]
    return load_database("\n".join(lines) + "\n")


def test_support_counting_matches_the_explicit_sweep():
    """Given the row memo, a semi-join edge with more than two pairs per
    colour counts the pairs into removed child colours on the dual's rows
    instead of gathering over all its pairs.  On seeded dense instances, with
    child colours removed (by U, by S) and with none removed (R's cycle), the
    sweep equals the explicit gather and scatter for every free-prefix length
    and dtype.  Each semi-join edge's mask is f(w)[p.b]; on the support
    route it is None when every pair completes or the edge is not free."""
    rng = random.Random(2001)
    fixed = ("Ans() <- R(x,y), R(y,z), R(z,w).", "Ans(x) <- R(x,y), R(y,z), U(z).",
             "Ans(x,y,z) <- R(x,y), R(y,z), U(z).", "Ans(x,y) <- R(x,y), S(y,z), R(z,w).",
             "Ans(x,y,z,w) <- R(x,y), R(y,z), R(w,z).", "Ans(y,z) <- R(x,y), R(y,z), R(z,z).",
             "Ans(x,y) <- R(x,y), R(y,x), S(y,z), U(z).", "Ans(x) <- R(x,y), S(x,y), R(y,z).")
    seen = Counter()
    for i in range(12):
        db = _dense_db(rng, 40, (1.0, 0.9, 0.5)[i % 3])
        idx = build_index(db)
        qs = [parse_query(t, db.schema) for t in fixed] + [random_fc_query(rng) for _ in range(8)]
        for q in filter(None, qs):
            for comp in plan_query(q, db.schema).components:
                cand0, pairs = _color_tables(idx, comp)
                for counted in range(len(comp.order) + 1):
                    for dtype in ((bool,) if not counted else (np.int64, object)):
                        got, kept = _reduce(comp, cand0, pairs, counted, dtype, rows=idx.rows)
                        want = _reduce_explicit(comp, cand0, pairs, counted, dtype)
                        for v in range(len(comp.order)):
                            assert np.array_equal(got[v], want[v]), (q, counted, dtype, v)
                            assert got[v].dtype == want[v].dtype, (q, counted, dtype, v)
                        for w in range(max(counted, 1), len(comp.order)):
                            p, ok = pairs[w], want[w][pairs[w].b]
                            if not comp.children[w] and not comp.unary[w]:
                                assert kept[w] is None
                            elif len(p.b) <= 2 * idx.num_colors:
                                assert np.array_equal(kept[w], ok)
                                seen["gather"] += 1
                            elif w >= len(comp.free_prefix) or ok.all():
                                assert kept[w] is None, (q, counted, w)
                                seen["values removed" if not want[w].all() else "none removed"] += 1
                            else:
                                assert np.array_equal(kept[w], ok), (q, counted, w)
                                seen["free, drops pairs"] += 1
    assert len(seen) == 4 and min(seen.values()) >= 20, seen


def test_pair_rows_degrees(tmp_path, monkeypatch):
    """`deg` of every memoized `rows[λ]` is the weighted bincount of its
    first values, `has` is deg > 0, and `cnt` is the number of pairs per
    first value, on a built index and a loaded one (loops included); `cnt`
    also on `cde_fc_acq`'s constant pairs."""
    consts = []

    def record(comp, cand0, pairs):
        consts.extend((p, len(cand0[0])) for p in pairs if p)
        return prepare_tree(comp, cand0, pairs)

    monkeypatch.setattr(evaluation, "prepare_tree", record)
    rng = random.Random(1502)
    for i in range(30):
        db = random_db(rng, max_adom=12, max_facts=30)
        idx = build_index(db)
        for lab in idx.closure_symbols:
            idx.rows[lab]
        save_index(idx, str(tmp_path / f"{i}.idx"))
        for index in (idx, load_index(str(tmp_path / f"{i}.idx"))):
            for lab in index.closure_symbols:
                p = index.rows[lab]
                assert np.array_equal(p.deg, np.bincount(p.a, p.n, index.num_colors))
                assert np.array_equal(p.has, p.deg > 0)
                assert np.array_equal(p.cnt, np.bincount(p.a, minlength=index.num_colors))
                assert len(p.deg) == len(p.has) == len(p.cnt) == index.num_colors
        for text in ("Ans(x,y) <- R(x,y).", "Ans(x,y) <- R(x,y), S(y,z), R(y,y)."):
            next(cde_fc_acq(db, _plan(db, text)), None)
    assert len(consts) == 90
    for p, size in consts:
        assert np.array_equal(p.cnt, np.bincount(p.a, minlength=size)) and len(p.cnt) == size


class _Reads:
    """An array stand-in that records every read of its items, as (kind,
    items read, items held); a binary search reads too few to record."""

    def __init__(self, arr: np.ndarray, log: list):
        self.arr, self.log = arr, log

    def __len__(self):
        return len(self.arr)

    def __array__(self, dtype=None, copy=None):
        self.log.append(("array", len(self.arr), len(self.arr)))
        return self.arr

    def __getitem__(self, key):
        out = self.arr[key]
        self.log.append(("item", np.size(out), len(self.arr)))
        return out

    def searchsorted(self, *args, **kwargs):
        return self.arr.searchsorted(*args, **kwargs)


def test_leaf_edges_are_not_swept(monkeypatch):
    """Counting `Ans(x,y) <- R(x,y).` and answering `Ans() <- R(x,y),
    R(y,z).` make no `np.add.at` call and read no pair of a leaf edge: the
    leaf's message is the label's degree vector."""
    db = _half_unary_db(1503)
    idx = build_index(db)
    count = _plan(db, "Ans(x,y) <- R(x,y).")
    boolean = _plan(db, "Ans() <- R(x,y), R(y,z).")
    want = count_answers(idx, count), eval_boolean(idx, boolean)
    assert want == (len(db.array("R")), True)

    adds, reads, leaf_edges = [], [], []
    color_tables = evaluation._color_tables

    def tables(idx, comp):
        cand0, pairs = color_tables(idx, comp)
        for w, p in enumerate(pairs):
            if p and not comp.children[w] and not comp.unary[w]:
                leaf_edges.append(w)
                pairs[w] = p._replace(a=_Reads(p.a, reads), b=_Reads(p.b, reads))
        return cand0, pairs

    class _Add:
        def at(self, *args):
            adds.append(args)
            np.add.at(*args)

    class _Numpy:
        add = _Add()

        def __getattr__(self, name):
            return getattr(np, name)

    monkeypatch.setattr(evaluation, "_color_tables", tables)
    monkeypatch.setattr(evaluation, "np", _Numpy())
    assert (count_answers(idx, count), eval_boolean(idx, boolean)) == want
    assert len(leaf_edges) == 2 and adds == [] and reads == []


def test_dense_semi_joins_read_only_the_removed_pairs(monkeypatch):
    """On dense data (about 5 pairs per colour) where a tenth of the
    constants lack U, answering `Ans() <- R(x,y), R(y,z), U(z).`, counting
    and enumerating its `Ans(x)` version read no label's pairs whole: no
    gather over any label's pairs, only the dual's pairs into removed
    colours, and no mask for the session, whose tree has no free edge."""
    db = _dense_db(random.Random(2002), 300, 0.9)
    idx = build_index(db)
    boolean = _plan(db, "Ans() <- R(x,y), R(y,z), U(z).")
    free = _plan(db, "Ans(x) <- R(x,y), R(y,z), U(z).")
    want = (eval_boolean(idx, boolean), count_answers(idx, free), set(cde_fc_acq(db, free)))
    assert want[0] and want[1] == len(want[2]) > 0

    reads = []
    spied = {lab: p._replace(a=_Reads(p.a, reads), b=_Reads(p.b, reads))
             for lab, p in idx.rows.items()}
    assert all(len(p.b) > 2 * idx.num_colors for lab, p in spied.items()
               if lab in (EdgeLabel([("R", "+")]), EdgeLabel([("R", "-")])))
    monkeypatch.setattr(idx, "rows", spied)
    assert (eval_boolean(idx, boolean), count_answers(idx, free),
            set(EnumerationSession(idx, free))) == want
    assert reads and {kind for kind, _, _ in reads} == {"item"}, reads
    assert all(0 < got < held / 5 for _, got, held in reads), reads
