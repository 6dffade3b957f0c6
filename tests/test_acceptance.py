"""Acceptance gate: one test per build criterion.

Run with `pytest -v tests/test_acceptance.py` for one pass/fail line per
criterion; add `-s` to see the measured values (runtimes, delay constant,
scaling ratios and exponents).
"""
from __future__ import annotations

import random
import time
from itertools import combinations, islice

import numpy as np

from colorcq.evaluation import (
    EnumerationSession,
    count_answers,
    eval_boolean,
)
from colorcq.frontend import plan_query
from colorcq.graph import EdgeLabel
from colorcq.index import build_index, index_stats
from colorcq.model import Atom, ConjunctiveQuery, Schema, parse_query
from colorcq.oracle import naive_eval
from colorcq.refine import naive_refine, refine

from .conftest import (
    color_of_name,
    cycle_db,
    graph_of,
    hat_count,
    make_db,
    members,
    movie_db,
    partition,
    random_db,
    random_fc_query,
    tuples,
    vl_mask,
)
from .test_refine import _refines, _set_partitions, _stable_partition


def test_criterion_1_running_example_coloring():
    db = movie_db()
    t0 = time.perf_counter()
    idx = build_index(db)
    elapsed = time.perf_counter() - t0
    classes = {
        frozenset(db.constants[int(idx.g.verts[v])] for v in cls)
        for cls in members(idx.coloring)
    }
    assert classes == {
        frozenset({"PS"}),
        frozenset({"LM", "MM"}),
        frozenset({"Dr.S"}),
        frozenset({"18m", "34m"}),
    }
    print(f"\n[criterion 1] 4 classes as expected; build took {elapsed * 1e3:.2f} ms")
    assert elapsed < 1.0


def test_criterion_2_running_example_color_database():
    idx = build_index(movie_db())
    b, r, g, y = (color_of_name(idx, n) for n in ("PS", "LM", "Dr.S", "18m"))
    want = {
        EdgeLabel([("P", "+"), ("A", "-")]): {(b, r)},
        EdgeLabel([("P", "+")]): {(b, r)},
        EdgeLabel([("A", "-")]): {(b, r)},
        EdgeLabel([("P", "-"), ("A", "+")]): {(r, b)},
        EdgeLabel([("P", "-")]): {(r, b)},
        EdgeLabel([("A", "+")]): {(r, b)},
        EdgeLabel([("M", "+")]): {(r, g)},
        EdgeLabel([("M", "-")]): {(g, r)},
        EdgeLabel([("S", "+")]): {(r, y)},
        EdgeLabel([("S", "-")]): {(y, r)},
    }
    # the downward closure of the actual labels is exactly these ten labels ...
    closure = set()
    for lab in idx.actual_labels:
        for k in range(1, len(lab.pairs) + 1):
            for sub in combinations(lab.pairs, k):
                closure.add(EdgeLabel(sub))
    assert closure == set(want)
    assert set(idx.closure_symbols) == closure
    # ... each realized by exactly the displayed tuple (so the stated label
    # equalities hold), every unary colour relation is empty, and labels
    # outside the closure have empty semantics
    for lab, rows in want.items():
        assert tuples(idx.color_db, idx.closure_symbols[lab]) == rows
    for u in idx.color_db.schema.unary_symbols:
        assert tuples(idx.color_db, u) == set()
    for lab in (EdgeLabel([("P", "+"), ("S", "+")]), EdgeLabel([("P", "+"), ("P", "-")])):
        assert all(
            hat_count(idx, lab, c, c2) == 0 for c in range(4) for c2 in range(4)
        )
    assert idx.color_db.size() == 10
    print("\n[criterion 2] colour database matches the worked example exactly")


def test_criterion_3_cycle_compression():
    build_secs = {}
    for n in (3, 10, 10**3, 10**5):
        db = cycle_db(n)
        t0 = time.perf_counter()
        idx = build_index(db)
        build_secs[n] = time.perf_counter() - t0
        st = index_stats(idx)
        assert st["db_size"] == n
        assert st["num_colors"] == 1
        assert st["color_db_size"] == 2
    print("\n[criterion 3] build seconds by n: "
          + ", ".join(f"{n}: {s:.3f}" for n, s in build_secs.items()))
    assert build_secs[10**5] < 10.0


def test_criterion_4_worked_rewrite_pipeline():
    q = parse_query("Ans(x1,x2) <- R(x1,x2), R(x3,x1), R(x2,x2).")
    plan = plan_query(q, Schema([("R", 2)]))
    assert len(plan.components) == 1
    c = plan.components[0]
    assert c.q1.head == ("x1", "x2")
    assert c.q1.atoms == (
        Atom("R", ("x1", "x2")),
        Atom("R", ("x3", "x1")),
        Atom("S_R", ("x2",)),
    )
    assert c.order == ("x1", "x2", "x3")
    assert c.lambda_e == {
        ("x1", "x2"): EdgeLabel([("R", "+")]),
        ("x1", "x3"): EdgeLabel([("R", "-")]),
    }
    assert c.q_col.head == ("x1", "x2")
    assert c.q_col.atoms == (
        Atom("S_R", ("x2",)),
        Atom("E{(R,+)}", ("x1", "x2")),
        Atom("E{(R,-)}", ("x1", "x3")),
    )
    print("\n[criterion 4] Q1 and Q_col match the worked rewrites atom-for-atom")


def test_criterion_5_oracle_equivalence():
    rng = random.Random(20240817)
    t0 = time.perf_counter()
    mismatches: list[tuple[str, str]] = []
    checked = 0
    while checked < 1000:
        db = random_db(rng)
        q = random_fc_query(rng)
        if q is None:
            continue
        idx = build_index(db)
        plan = plan_query(q, db.schema)
        ref = naive_eval(db, q)

        got = list(EnumerationSession(idx, plan))
        if len(got) != len(set(got)) or set(got) != ref:
            mismatches.append(("enum", str(q)))
        if count_answers(idx, plan) != len(ref):
            mismatches.append(("count", str(q)))
        bq = q if q.is_boolean else ConjunctiveQuery(head=(), atoms=q.atoms)
        bplan = plan if q.is_boolean else plan_query(bq, db.schema)
        if eval_boolean(idx, bplan) != (len(naive_eval(db, bq)) > 0):
            mismatches.append(("bool", str(bq)))
        checked += 1
    elapsed = time.perf_counter() - t0
    print(f"\n[criterion 5] {checked} randomized instances, "
          f"{len(mismatches)} mismatches, {elapsed:.1f} s")
    assert mismatches == []
    assert checked >= 1000
    assert elapsed < 60.0


def test_criterion_6_coarsest_stable_partition():
    rng = random.Random(20240818)
    agreements = 0
    for _ in range(80):
        g = graph_of(random_db(rng, max_adom=8, max_facts=14))
        a, b = refine(g), naive_refine(g)
        assert partition(a) == partition(b)
        assert list(a.color_of) == list(b.color_of)  # same canonical numbering
        agreements += 1

    searched = 0
    rng = random.Random(20240819)
    graphs = [graph_of(random_db(rng, max_adom=6)) for _ in range(10)]
    graphs += [graph_of(random_db(rng, max_adom=8, max_facts=16)) for _ in range(3)]
    # shapes whose coarsest stable partition is far from discrete: a cycle
    # (single class) and an out-star (center vs. interchangeable leaves)
    star_db = make_db(Schema([("R", 2)]), [("R", "c", f"l{i}") for i in range(4)])
    graphs += [graph_of(cycle_db(6)), graph_of(star_db)]
    for g in graphs:
        if g.n == 0:
            continue
        star = [set(int(v) for v in m) for m in members(refine(g))]
        assert _stable_partition(g, star)
        for cand in _set_partitions(list(range(g.n))):
            if _stable_partition(g, cand):
                assert _refines(cand, star)
                searched += 1
    print(f"\n[criterion 6] {agreements} refine/naive agreements; "
          f"{searched} stable partitions checked against coarsest-ness")
    assert searched > 0


def test_criterion_7_constant_delay():
    kappas: list[float] = []

    rng = random.Random(20240820)
    checked = 0
    while checked < 200:
        db = random_db(rng)
        q = random_fc_query(rng)
        if q is None or q.is_boolean:
            continue
        sess = EnumerationSession(build_index(db), plan_query(q, db.schema))
        out = list(sess)
        if not out:
            continue
        kappas.append(sess.max_gap / len(q.head))
        checked += 1

    max_gap_by_n: dict[int, int] = {}
    mean_gap_by_n: dict[int, float] = {}
    for n in (10**3, 10**4, 10**5):
        idx = build_index(cycle_db(n))

        plan = plan_query(parse_query("Ans(x,y) <- R(x,y).", idx.db.schema),
                          idx.db.schema)
        sess = EnumerationSession(idx, plan)
        assert sum(1 for _ in sess) == n
        kappas.append(sess.max_gap / 2)
        max_gap_by_n[n] = sess.max_gap
        mean_gap_by_n[n] = sess.steps.n / sess.emissions

        plan3 = plan_query(
            parse_query("Ans(x,y,z) <- R(x,y), R(y,z).", idx.db.schema),
            idx.db.schema)
        sess3 = EnumerationSession(idx, plan3)
        assert sum(1 for _ in sess3) == n
        kappas.append(sess3.max_gap / 3)

        if n == 10**3:  # two-component cross product, 10^6 answers; sample 2*10^4
            planx = plan_query(
                parse_query("Ans(x,w) <- R(x,y), R(w,v).", idx.db.schema),
                idx.db.schema)
            sessx = EnumerationSession(idx, planx)
            assert sum(1 for _ in islice(sessx, 20000)) == 20000
            kappas.append(sessx.max_gap / 2)

    kappa = max(kappas)
    ns = sorted(max_gap_by_n)
    xs = np.array(ns, dtype=float)
    ys = np.array([mean_gap_by_n[n] for n in ns])
    slope = float(np.polyfit(xs, ys, 1)[0])
    drift = abs(slope) * (xs.max() - xs.min())
    print(f"\n[criterion 7] kappa = {kappa:.2f} over {len(kappas)} sessions; "
          f"max gap by n: {max_gap_by_n}; mean gap by n: "
          + ", ".join(f"{n}: {mean_gap_by_n[n]:.3f}" for n in ns)
          + f"; regression drift over the range: {drift:.4f} steps")
    assert kappa <= 16.0
    assert max(max_gap_by_n.values()) - min(max_gap_by_n.values()) <= 1
    assert drift <= 0.5


def _best_of(repeats: int, batch: int, fn) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(batch):
            fn()
        best = min(best, (time.perf_counter() - t0) / batch)
    return best


def test_criterion_8_cost_scaling():
    ns = (10**3, 10**4, 10**5)
    q_text = "Ans(x,y,z) <- R(x,y), R(y,z)."
    prep: dict[int, float] = {}
    cnt: dict[int, float] = {}
    build: dict[int, float] = {}
    for n in ns:
        db = cycle_db(n)
        best = float("inf")
        for _ in range(3 if n < 10**5 else 2):
            t0 = time.perf_counter()
            idx = build_index(db)
            best = min(best, time.perf_counter() - t0)
        build[n] = best
        plan = plan_query(parse_query(q_text, db.schema), db.schema)
        prep[n] = _best_of(7, 30, lambda: EnumerationSession(idx, plan))
        cnt[n] = _best_of(7, 30, lambda: count_answers(idx, plan))

    prep_ratio = max(prep.values()) / min(prep.values())
    cnt_ratio = max(cnt.values()) / min(cnt.values())
    exponent = float(np.polyfit(np.log(ns), np.log([build[n] for n in ns]), 1)[0])
    print("\n[criterion 8] per-query prep us: "
          + ", ".join(f"{n}: {prep[n] * 1e6:.1f}" for n in ns)
          + f" (ratio {prep_ratio:.2f}); count us: "
          + ", ".join(f"{n}: {cnt[n] * 1e6:.1f}" for n in ns)
          + f" (ratio {cnt_ratio:.2f}); build s: "
          + ", ".join(f"{n}: {build[n]:.4f}" for n in ns)
          + f" (log-log exponent {exponent:.2f})")
    assert prep_ratio < 3.0
    assert cnt_ratio < 3.0
    assert exponent <= 1.35


def _subdivision_partition(g) -> frozenset[frozenset[int]]:
    """Reference route: place one middle vertex per directed edge, coloured by
    the edge label (originals by vertex label, in a distinct colour space), and
    run plain successor-multiset refinement on the subdivision digraph; read
    off the partition of the original vertices."""
    n, m = g.n, g.num_directed_edges
    out: list[list[int]] = [[] for _ in range(n + m)]
    for v in range(n):
        for e in range(int(g.indptr[v]), int(g.indptr[v + 1])):
            out[v].append(n + e)
            out[n + e].append(int(g.nbr[e]))
    masks = vl_mask(g)
    init = [("v", int(masks[v])) for v in range(n)]
    init += [("e", int(g.elab[e])) for e in range(m)]
    ranks = {c: i for i, c in enumerate(sorted(set(init)))}
    colors = [ranks[c] for c in init]
    ncol = len(ranks)
    while True:
        sigs = [
            (colors[x], tuple(sorted(colors[y] for y in out[x])))
            for x in range(n + m)
        ]
        ranks2 = {s: i for i, s in enumerate(sorted(set(sigs)))}
        if len(ranks2) == ncol:
            break
        colors = [ranks2[s] for s in sigs]
        ncol = len(ranks2)
    classes: dict[int, set[int]] = {}
    for v in range(n):
        classes.setdefault(colors[v], set()).add(v)
    return frozenset(frozenset(s) for s in classes.values())


def test_criterion_9_subdivision_route_agrees():
    rng = random.Random(20240821)
    compared = 0
    mismatches = 0
    for _ in range(110):
        db = random_db(rng, max_adom=50, max_facts=130)
        g = graph_of(db)
        if g.n == 0:
            continue
        if _subdivision_partition(g) != partition(refine(g)):
            mismatches += 1
        compared += 1
    print(f"\n[criterion 9] {compared} graphs compared, {mismatches} mismatches")
    assert compared >= 100
    assert mismatches == 0
