"""The library surface the benchmark harness (bench/stages.py, bench/run.py)
calls, run on a tiny database so that a change to it fails here first."""
from __future__ import annotations

import io

from colorcq import (
    ColorIndex,
    EnumerationSession,
    build_index,
    build_labeled_graph,
    cde_fc_acq,
    count_answers,
    default_backend,
    encode_self_loops,
    eval_boolean,
    index_stats,
    load_database,
    load_index,
    parse_query,
    plan_query,
    refine,
    save_index,
)

# two relations on one pair, self-loops, unary facts and a second component
FACTS = """P(a,b)
Q(a,b)
P(b,c)
P(c,a)
S(c,c)
S(d,d)
Q(d,c)
U(a)
U(d)
P(x,y)
Q(y,y)
"""

QUERIES = [
    "Ans() <- P(x,y), Q(y,z).",
    "Ans(x) <- P(x,y), U(x).",
    "Ans(x,y) <- P(x,y), Q(x,y).",
    "Ans(x,y,z) <- P(x,y), P(y,z).",
    "Ans(x,w) <- P(x,y), S(w,w).",
]


def test_bench_call_sequence(tmp_path):
    db = load_database(io.StringIO(FACTS))
    times: dict[str, float] = {}
    d1, s1 = encode_self_loops(db)
    g = build_labeled_graph(d1, s1)
    coloring = refine(g)
    idx = ColorIndex(db, d1, s1, g, coloring, times)
    path = str(tmp_path / "index.ccqx")
    save_index(idx, path)
    loaded = load_index(path)

    st = index_stats(idx)
    assert {"db_size", "color_db_size", "k_sigma"} <= set(st)
    assert st["db_size"] == 11
    assert g.n == 6 and g.num_directed_edges == 10 and len(g.labels) == 6
    assert idx.num_colors == loaded.num_colors == build_index(db).num_colors
    assert default_backend() == "numpy"

    for index in (idx, loaded):
        schema = index.db.schema
        consts = index.db.constants
        for text in QUERIES:
            q = parse_query(text, schema)
            plan = plan_query(q, schema)
            want = sorted(tuple(consts[c] for c in t) for t in cde_fc_acq(db, plan))
            if q.is_boolean:
                assert eval_boolean(index, plan) == bool(want)
                continue
            assert count_answers(index, plan) == len(want)
            first = next(EnumerationSession(index, plan), None)
            assert (first is None) == (not want)
            sess = EnumerationSession(index, plan)
            got = sorted(tuple(consts[c] for c in t) for t in sess)
            assert got == want
            assert sess.emissions == len(want) and sess.steps.n >= len(want)
            assert sess.max_gap >= 1
            for comp in plan.components:
                for lab in comp.lambda_e.values():
                    assert len(index.succ(lab, 0, 0)) >= 0
