"""The colour index: tables, colour database, stats, persistence."""
from __future__ import annotations

import gc
import hashlib
import json
import random
import struct
import threading
import tracemalloc
import zlib
from collections import Counter

import numpy as np
import pytest

from colorcq.cli import main
from colorcq.evaluation import EnumerationSession, cde_fc_acq, count_answers, eval_boolean
from colorcq.frontend import plan_query
from colorcq import graph as GRAPH
from colorcq.graph import EdgeLabel, build_labeled_graph, encode_self_loops
from colorcq.index import (
    FORMAT_VERSION,
    MAGIC,
    ColorIndex,
    build_index,
    index_stats,
    _check_constants,
    _merge_rows,
    _narrow,
    load_index,
    save_index,
)
from colorcq.model import ColorcqError, Database, Schema, load_database, parse_query
from colorcq.refine import _as_coloring

from .conftest import (
    adom,
    color_of_name,
    cycle_db,
    hat_count,
    long_constants_text,
    make_db,
    movie_db,
    names,
    out_edges,
    random_db,
    reseal,
    tuples,
    utf8_text,
    vertex,
)
from .reference import parse_lines
from .test_evaluation import _agree_with_naive, _built_and_loaded


def test_movie_colors_and_stats(dex_index):
    idx = dex_index
    db = idx.db
    st = index_stats(idx)
    assert st["db_size"] == 8
    assert st["d1_size"] == 8
    assert st["adom_size"] == 6
    assert st["num_colors"] == 4
    assert st["num_edge_labels"] == 6
    assert st["color_db_size"] == 10
    assert st["k_sigma"] == pytest.approx(1.25)
    assert set(st["build_seconds"]) == {"graph", "refine", "tables"}

    b = color_of_name(idx, "PS")
    r = color_of_name(idx, "LM")
    assert color_of_name(idx, "MM") == r
    g_ = color_of_name(idx, "Dr.S")
    y = color_of_name(idx, "18m")
    assert color_of_name(idx, "34m") == y
    assert len({b, r, g_, y}) == 4
    assert [int(idx.n_c[c]) for c in (b, r, g_, y)] == [1, 2, 1, 2]


def test_movie_color_db_matches_displayed_relations(dex_index):
    """The colour database of the running example: six displayed singleton
    relations, the two stated label equalities, and nothing else."""
    idx = dex_index
    b, r, g_, y = (color_of_name(idx, name) for name in ("PS", "LM", "Dr.S", "18m"))

    cdb = idx.color_db
    want = {
        EdgeLabel([("P", "+"), ("A", "-")]): {(b, r)},
        EdgeLabel([("S", "+")]): {(r, y)},
        EdgeLabel([("M", "+")]): {(r, g_)},
        EdgeLabel([("P", "-"), ("A", "+")]): {(r, b)},
        EdgeLabel([("S", "-")]): {(y, r)},
        EdgeLabel([("M", "-")]): {(g_, r)},
        # the stated equalities: single-symbol sublabels carry the same tuple
        EdgeLabel([("P", "+")]): {(b, r)},
        EdgeLabel([("A", "-")]): {(b, r)},
        EdgeLabel([("P", "-")]): {(r, b)},
        EdgeLabel([("A", "+")]): {(r, b)},
    }
    assert set(idx.closure_symbols) == set(want)
    for lab, rows in want.items():
        assert tuples(cdb, idx.closure_symbols[lab]) == rows
    # every unary relation of the colour schema is empty (no loops, no unary facts)
    for u in cdb.schema.unary_symbols:
        assert tuples(cdb, u) == set()
    assert cdb.size() == 10
    assert set(adom(cdb)) <= set(range(4))


def test_movie_hat_lookups(dex_index):
    idx = dex_index
    db = idx.db
    b, r, y = (color_of_name(idx, name) for name in ("PS", "LM", "18m"))
    ps = vertex(idx.g, db.constants.index("PS"))

    got = idx.succ(EdgeLabel([("P", "+")]), ps, r)
    assert names(db, [(int(idx.g.verts[w]),) for w in got]) == {("LM",), ("MM",)}
    assert idx.succ(EdgeLabel([("P", "+"), ("A", "-")]), ps, y) == []
    # a label larger than every actual label has empty semantics
    assert idx.succ(EdgeLabel([("P", "+"), ("M", "+")]), ps, r) == []
    assert hat_count(idx, EdgeLabel([("P", "+")]), b, r) == 2
    assert hat_count(idx, EdgeLabel([("P", "+"), ("M", "+")]), b, r) == 0


def test_hat_lookup_errors(dex_index):
    idx = dex_index
    lab = EdgeLabel([("P", "+")])
    with pytest.raises(ColorcqError):
        hat_count(idx, lab, 0, 99)
    with pytest.raises(ColorcqError):
        idx.succ(lab, vertex(idx.g, idx.db.constants.index("PS")), -1)
    for v in (-1, idx.g.n):  # a vertex index out of range never aliases another vertex
        with pytest.raises(ColorcqError, match="unknown vertex"):
            idx.succ(lab, v, 0)


def test_cycle_index_prop2():
    idx = build_index(cycle_db(10))
    st = index_stats(idx)
    assert st["num_colors"] == 1
    assert st["color_db_size"] == 2
    fwd, bwd = EdgeLabel([("R", "+")]), EdgeLabel([("R", "-")])
    assert tuples(idx.color_db, idx.closure_symbols[fwd]) == {(0, 0)}
    assert tuples(idx.color_db, idx.closure_symbols[bwd]) == {(0, 0)}
    assert hat_count(idx, fwd, 0, 0) == 1
    assert hat_count(idx, bwd, 0, 0) == 1
    assert hat_count(idx, EdgeLabel([("R", "+"), ("R", "-")]), 0, 0) == 0
    assert EdgeLabel([("R", "+"), ("R", "-")]) not in idx.closure_symbols


def test_single_unary_fact_color_db():
    idx = build_index(make_db(Schema([("R", 2), ("U", 1)]), [("U", "a")]))
    cdb = idx.color_db
    assert tuples(cdb, "U") == {(0,)}
    assert cdb.size() == 1
    assert idx.closure_symbols == {}


def test_empty_database_index():
    idx = build_index(Database(Schema([("R", 2)])))
    st = index_stats(idx)
    assert st["db_size"] == 0
    assert st["adom_size"] == 0
    assert st["num_colors"] == 0
    assert st["color_db_size"] == 0
    assert st["k_sigma"] == 0.0


def test_succ_tables_against_brute_force(tmp_path):
    """N̂→^λ(v,c) and #̂→^λ(c,c′) recomputed edge-by-edge from the graph, for
    every closure label and a couple of labels outside the closure, on a built
    index and on its loaded copy (which makes each superset list on first use)."""
    rng = random.Random(29)
    for i in range(12):
        db = random_db(rng, max_adom=6)
        built, loaded = _built_and_loaded(db, tmp_path / f"{i}.ccqx")
        g = built.g
        col = built.coloring
        labs = list(built.closure_symbols) + [
            EdgeLabel([("R", "+"), ("S", "+")]),
            EdgeLabel([("R", "-"), ("S", "+"), ("S", "-")]),
        ]
        for lab in labs:
            for v in range(g.n):
                by_c: dict[int, list[int]] = {}
                for w, elab in out_edges(g, v):
                    if set(lab.pairs) <= set(elab.pairs):
                        by_c.setdefault(int(col.color_of[w]), []).append(w)
                for c in range(col.num_colors):
                    expect = sorted(by_c.get(c, []))
                    for idx in (built, loaded):
                        got = [int(x) for x in idx.succ(lab, v, c)]
                        assert got == expect
                        assert hat_count(idx, lab, int(col.color_of[v]), c) == len(expect)


def test_monotone_in_the_label():
    rng = random.Random(31)
    for _ in range(8):
        db = random_db(rng, max_adom=6)
        idx = build_index(db)
        labs = list(idx.closure_symbols)
        for mu in labs:
            for lam in labs:
                if not set(lam.pairs) <= set(mu.pairs):
                    continue
                for v in range(idx.g.n):
                    for c in range(idx.num_colors):
                        small = set(int(x) for x in idx.succ(mu, v, c))
                        big = set(int(x) for x in idx.succ(lam, v, c))
                        assert small <= big


def test_color_db_membership_iff_positive_count():
    rng = random.Random(37)
    for _ in range(10):
        db = random_db(rng, max_adom=7)
        idx = build_index(db)
        for lab, sym in idx.closure_symbols.items():
            rows = tuples(idx.color_db, sym)
            for c in range(idx.num_colors):
                for c2 in range(idx.num_colors):
                    assert ((c, c2) in rows) == (hat_count(idx, lab, c, c2) > 0)


def test_loop_cover_array():
    idx = build_index(make_db(Schema([("R", 2), ("S", 2)]), [("R", "a", "a"), ("R", "a", "b")]))
    ca, cb = color_of_name(idx, "a"), color_of_name(idx, "b")
    loops = idx.unary_colors[frozenset({("R", 2)})]  # the classes that loop over R
    assert bool(loops[ca]) and not bool(loops[cb])
    arr = idx.loop_cover_array(EdgeLabel([("R", "+")]))
    assert bool(arr[ca]) and not bool(arr[cb])
    both = idx.loop_cover_array(EdgeLabel([("R", "+"), ("R", "-")]))
    assert bool(both[ca])
    assert not bool(idx.loop_cover_array(EdgeLabel([("S", "+")]))[ca])


def test_closure_cap_guards_adversarial_schemas(tmp_path):
    """Past the closure cap, the colour database, and `index_stats`, which
    counts it, refuse on a built and on a loaded index; a build, a save, a
    load and queries make no closure, so they succeed and answer right."""
    n_rel = 21  # one edge carrying 21 symbols: 2^21 closure labels
    db = make_db(Schema([(f"R{i:02d}", 2) for i in range(n_rel)]),
                 [(f"R{i:02d}", "a", "b") for i in range(n_rel)])
    indexes = _built_and_loaded(db, tmp_path / "wide.ccqx")
    texts = ("Ans() <- R00(x,y), R20(x,y).", "Ans() <- R00(x,y), R20(y,x).",
             "Ans(x,y) <- R03(x,y), R17(x,y).", "Ans(y) <- R05(x,y).", "Ans(x) <- R01(y,x).")
    assert _agree_with_naive(db, indexes, db.schema, texts) == 4
    for idx in indexes:
        for read in (index_stats, lambda idx: idx.color_db):
            with pytest.raises(ColorcqError, match="closure"):
                read(idx)


def _wide_cycle_db(n: int, k: int = 24) -> Database:
    """k relations R00..R(k-1) on one directed n-cycle, the odd-numbered ones
    reversed: every edge carries all k symbols, so its label and the dual
    each have 2^k - 1 non-empty subsets."""
    edges = [(str(j), str((j + 1) % n)) for j in range(n)]
    facts = [(f"R{i:02d}", *(e if i % 2 == 0 else e[::-1])) for i in range(k) for e in edges]
    return make_db(Schema([(f"R{i:02d}", 2) for i in range(k)]), facts)


# Boolean, count and enumeration queries on `_wide_cycle_db`: one names a
# label that no edge carries, the others mix directions
WIDE_QUERIES = (
    "Ans() <- R00(x,y), R01(y,x).",
    "Ans() <- R00(x,y), R01(x,y).",
    "Ans(x,y) <- R02(x,y), R05(y,x), R07(y,z).",
    "Ans(x,y,z) <- R00(x,y), R03(z,y), R10(y,w).",
    "Ans(y) <- R04(x,y), R06(x,y), R09(y,x), R23(z,y).",
)


def test_wide_labels_make_no_closure(tmp_path):
    """24 relations on every edge of a 1,000-edge cycle: 2^25 - 2 closure
    labels, past the cap.  A build, a load and queries read only the labels
    they name: no index makes `closure_symbols` or `color_db`, and `rows`
    holds the actual labels and the labels the queries name.  The answers
    agree with `cde_fc_acq`, and on a 60-edge copy with `naive_eval`, on a
    built and on a loaded index."""
    db = _wide_cycle_db(1000)
    indexes = _built_and_loaded(db, tmp_path / "wide.ccqx")
    named = set()
    for text in WIDE_QUERIES:
        q = parse_query(text, db.schema)
        plan = plan_query(q, db.schema)
        named |= {x for comp in plan.components for lab in comp.label[1:] for x in (lab, lab.dual())}
        want = set(cde_fc_acq(db, plan))
        for idx in indexes:
            assert count_answers(idx, plan) == len(want), text
            if q.is_boolean:
                assert eval_boolean(idx, plan) == bool(want), text
            assert set(EnumerationSession(idx, plan)) == want, text
    for idx in indexes:
        assert "closure_symbols" not in vars(idx) and "color_db" not in vars(idx)
        assert set(idx.actual_labels) <= idx.rows.keys() <= set(idx.actual_labels) | named
    small = _wide_cycle_db(60)
    indexes = _built_and_loaded(small, tmp_path / "small.ccqx")
    assert _agree_with_naive(small, indexes, small.schema, WIDE_QUERIES) == 4


def _spread_db(rels: int, facts: int, consts: int, seed: int) -> Database:
    """`facts` distinct seeded facts over `consts` constants, spread over the binary relations R0..R(rels-1)."""
    rng = np.random.default_rng(seed)
    names = [f"R{i}" for i in range(rels)]
    db = Database(Schema((r, 2) for r in names), constants=[f"c{i}" for i in range(consts)])
    code = rng.choice(rels * consts * consts, facts, replace=False)
    rel, rows = code // consts**2, np.stack([code // consts % consts, code % consts], axis=1)
    for i, r in enumerate(names):
        db.set_relation(r, rows[rel == i])
    return db


def _graph_peak(db: Database) -> int:
    """The tracemalloc peak of `build_labeled_graph` on `db`, loops encoded beforehand."""
    d1, s1 = encode_self_loops(db)
    gc.collect()
    tracemalloc.start()
    try:
        build_labeled_graph(d1, s1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_wide_schemas_cost_the_graph_no_memory_per_tag(tmp_path):
    """At 20,000 seeded facts over 2,000 constants, the tracemalloc peak of the graph of 1,000
    binary relations (2,000 tags) stays within 1.5 times that of 10: the edge labels are ranked
    with nothing the size of the tags times the vertex pairs.  A small wide database, 120 binary
    and 80 unary relations with 400 facts over 12 constants, gets the Boolean answers, counts
    and answers `naive_eval` gives, on a built and on a loaded index."""
    narrow, wide = (_graph_peak(_spread_db(k, 20_000, 2_000, seed=5)) for k in (10, 1000))
    assert wide < 1.5 * narrow, (wide, narrow)

    rng = random.Random(5)
    syms = [(f"R{i}", 2) for i in range(120)] + [(f"U{i}", 1) for i in range(80)]
    facts = [(r, *(f"c{rng.randrange(12)}" for _ in range(k))) for r, k in (rng.choice(syms) for _ in range(400))]
    facts.sort(key=len, reverse=True)  # the binary facts first
    db = make_db(Schema(syms), facts)
    indexes = _built_and_loaded(db, tmp_path / "wide.ccqx")
    g = indexes[0].g  # tags past 63 (R32 and up), and vertex labels past bit 63
    assert any(int(s[1:]) >= 32 for lab in g.labels for s, _ in lab.pairs) and max(g.label_masks) >> 64
    (r, a, b), u = facts[0], next(f[0] for f in facts if f[1:] == (facts[0][1],))  # R..(a, b) and U..(a)
    r2 = next(f[0] for f in facts if len(f) == 3 and f[1] == b)  # R..(b, c)
    texts = (f"Ans(x,y) <- {r}(x,y).", f"Ans() <- {r}(x,y), {r2}(y,z).", f"Ans(x,y,z) <- {r}(x,y), {r2}(y,z).",
             f"Ans(x) <- {u}(x), {r}(x,y).", f"Ans(x,y) <- {r2}(x,y), {r}(y,x).", "Ans(x) <- R31(x,x).",
             "Ans(x,y,z) <- R1(x,y), R2(y,z), R3(z,w), U60(z).", "Ans() <- U79(x), U0(x).")
    assert _agree_with_naive(db, indexes, db.schema, texts) >= 4


def test_unstable_coloring_is_rejected():
    """One class for all six movie vertices is not stable: the two P-edges
    cannot be spread evenly over six members.  This is an explicit error,
    not an assert that `python -O` would strip."""
    db = movie_db()
    d1, s1 = encode_self_loops(db)
    g = build_labeled_graph(d1, s1)
    coloring = _as_coloring(np.zeros(g.n, dtype=np.int64))
    with pytest.raises(ColorcqError, match="unstable colouring"):
        ColorIndex(db, d1, s1, g, coloring, {})


def path_db(n: int) -> Database:
    """R(0,1), ..., R(n-2,n-1): a directed path."""
    return make_db(Schema([("R", 2)]), [("R", str(i), str(i + 1)) for i in range(n - 1)])


def tree_db(depth: int) -> Database:
    """A complete binary tree with R-edges from parents to children."""
    return make_db(Schema([("R", 2)]), [("R", str(i), str(child)) for i in range(2 ** depth - 1)
                                        for child in (2 * i + 1, 2 * i + 2)])


def multirel_db(copies: int = 2) -> Database:
    """Copies of one template with self-loops, unary facts, an edge carrying
    two symbols ({P+, Q+}) and a plain P-edge, so the hat table of (P,+)
    merges two actual labels."""
    template = [("P", "a", "b"), ("Q", "a", "b"), ("P", "b", "c"), ("S", "c", "c"),
                ("P", "c", "a"), ("Q", "d", "c"), ("S", "d", "d"), ("P", "d", "a"),
                ("U", "a", None), ("U", "d", None)]
    facts = [(rel, *(f"{a}{k}" for a in ((x,) if y is None else (x, y))))
             for k in range(copies) for rel, x, y in template]
    return make_db(Schema([("P", 2), ("Q", 2), ("S", 2), ("U", 1)]), facts)


# sha256 of `save_index`'s file per database: a change to how the index is
# built or written that alters one byte fails here.  Multirel covers the loop
# arrays and an edge label of two symbols.
SAVED_SHA256 = {
    "movie": "1632235af271b7ec4a0d1cfa35934dba304156fc113d9f984c4553c302d30ea6",
    "cycle 7": "adf4e4bfcf658bc96f12dfde3b7aeceb03b2ff089a17ca0fa58c402d2bea4502",
    "random 1901": "4bed4165749447de6c12b49794cde3b7295666454c1d7e70b411b27b6419e168",
    "random 1904": "a72a58cae43ba01460faa01c0ccee7b4abdb640e49db6c7d765f1ba77fe0bc01",
    "multirel": "ad16ed03aae2b92b04710a82b267d33f411b9e76866f63ae5acb50913100bb08",
}


def test_saved_bytes_are_pinned(tmp_path):
    dbs = {"movie": movie_db(), "cycle 7": cycle_db(7), "multirel": multirel_db()}
    for seed in (1901, 1904):
        dbs[f"random {seed}"] = random_db(random.Random(seed), max_adom=40, max_facts=120)
    assert dbs.keys() == SAVED_SHA256.keys()
    for name, db in dbs.items():
        path = tmp_path / "x.ccqx"
        save_index(build_index(db), str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == SAVED_SHA256[name], name


def wide_db(rng: random.Random, rels: int = 33, n: int = 12, facts: int = 150) -> Database:
    """Random facts over `rels` binary relations (2·rels tags) and one unary, on n constants,
    with loops, so that many vertex pairs carry several relations in both directions."""
    schema = Schema([(f"R{i:02d}", 2) for i in range(rels)] + [("U", 1)])
    db = Database(schema, constants=[f"c{i}" for i in range(n)])
    for i in range(rels):
        pairs = rng.sample([(u, v) for u in range(n) for v in range(n)], k=rng.randint(0, facts // rels + 3))
        db.set_relation(f"R{i:02d}", np.array(pairs, dtype=np.int64).reshape(-1, 2))
    db.set_relation("U", np.array(rng.sample(range(n), k=rng.randint(0, n)), dtype=np.int64)[:, None])
    return db


def test_saved_bytes_agree_on_the_lexsort_fallback(tmp_path, monkeypatch):
    """With the bit budget of packed sort keys lowered to 0 (`graph._BITS`), every
    `_sort_rows` takes `np.lexsort`: the pinned databases still save their pinned bytes,
    and seeded random ones, some over more than 63 tags, save the same bytes on both paths."""
    dbs = {"movie": movie_db(), "cycle 7": cycle_db(7), "multirel": multirel_db(),
           **{f"random {seed}": random_db(random.Random(seed), max_adom=40, max_facts=120)
              for seed in (1901, 1904)}}
    rng = random.Random(38)
    dbs.update((f"seeded {i}", random_db(rng, max_adom=30, max_facts=80)) for i in range(20))
    dbs.update((f"wide {i}", wide_db(rng, rels=rng.choice((9, 32, 33)))) for i in range(6))
    lexsort, calls = np.lexsort, []
    monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(len(keys)) or lexsort(keys))
    path = tmp_path / "x.ccqx"
    for name, db in dbs.items():
        digests = []
        for bits in (63, 0):
            monkeypatch.setattr(GRAPH, "_BITS", bits)
            calls.clear()
            idx = build_index(db)
            # the edges' sort (3 keys) and the class-major sort (4), where there are edges;
            # refinement's own `np.lexsort` takes 2 keys
            sites = sorted(k for k in calls if k > 2)
            assert sites == ([3, 4] if bits == 0 and idx.g.num_directed_edges else []), name
            save_index(idx, str(path))
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
            save_index(load_index(str(path)), str(path))  # a load writes the bytes it read
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digests[-1], name
        assert digests[0] == digests[1] == SAVED_SHA256.get(name, digests[0]), name


def test_persistence_round_trip(tmp_path, monkeypatch):
    rng = random.Random(41)
    dbs = [movie_db(), cycle_db(9), random_db(rng, max_adom=6), path_db(8), tree_db(3),
           multirel_db()]
    built = [build_index(db) for db in dbs]
    hat = EdgeLabel([("P", "+")])
    assert len(built[-1]._supers(hat)) == 2  # the multirel hat lookup merges

    def no_refine(g):
        raise AssertionError("load_index must not refine")

    def no_graph(d1, s1):
        raise AssertionError("load_index must not build the labeled graph")

    monkeypatch.setattr("colorcq.index.refine", no_refine)
    monkeypatch.setattr("colorcq.index.build_labeled_graph", no_graph)
    for i, idx in enumerate(built):
        path = str(tmp_path / f"idx{i}.ccqx")
        save_index(idx, path)
        idx2 = load_index(path)

        assert idx2.db.constants == idx.db.constants
        for sym in idx.db.schema.symbols:
            assert tuples(idx2.db, sym) == tuples(idx.db, sym)
        assert list(idx2.coloring.color_of) == list(idx.coloring.color_of)
        assert idx2.closure_symbols == idx.closure_symbols
        for sym in idx.color_db.schema.symbols:
            assert tuples(idx2.color_db, sym) == tuples(idx.color_db, sym)
        # hat lookups agree, including ones that need lazy materialization
        for lab in idx.closure_symbols:
            for c in range(idx.num_colors):
                for c2 in range(idx.num_colors):
                    assert hat_count(idx2, lab, c, c2) == hat_count(idx, lab, c, c2)
            for v in range(idx.g.n):
                for c in range(idx.num_colors):
                    assert list(idx2.succ(lab, v, c)) == list(idx.succ(lab, v, c))
        assert index_stats(idx2)["db_size"] == index_stats(idx)["db_size"]
        assert set(idx2.build_seconds) == {"load", "tables"}


def _families() -> dict[str, Database]:
    """A database per family; one built through the API with a constant in
    no fact (so the file stores the vertex -> constant map); the empty one."""
    ghost = make_db(Schema([("R", 2), ("U", 1)]), [("R", "a", "b"), ("R", "b", "b"), ("U", "c")],
                    constants=["ghost"])
    return {"movie": movie_db(), "cycle": cycle_db(9), "random": random_db(random.Random(41)),
            "path": path_db(8), "tree": tree_db(3), "multirel": multirel_db(), "ghost": ghost,
            "empty": Database(Schema([("R", 2)]))}


@pytest.mark.parametrize("family", sorted(_families()))
def test_loaded_index_equals_the_built_one(family, tmp_path):
    """A loaded index has the colouring, count rows, successor tables,
    `rows`, colour database, base database and stats of the index it was
    saved from, and saving it again writes the same bytes."""
    db = _families()[family]
    idx = build_index(db)
    first, again = tmp_path / "first.ccqx", tmp_path / "again.ccqx"
    save_index(idx, str(first))
    idx2 = load_index(str(first))
    col, col2 = idx.coloring, idx2.coloring
    assert np.array_equal(col2.color_of, col.color_of) and np.array_equal(col2.order, col.order)
    assert (col2.bounds, col2.rank) == (col.bounds, col.rank)
    assert np.array_equal(idx2.g.verts, idx.g.verts) and idx2.g.n == idx.g.n
    assert idx2.actual_labels == idx.actual_labels
    for rows, rows2 in zip(idx._count_rows, idx2._count_rows, strict=True):
        assert all(np.array_equal(x, y) for x, y in zip(rows, rows2, strict=True))
    assert idx2.closure_symbols == idx.closure_symbols
    for lab in idx.closure_symbols:  # the hat tables of the closure labels, lazy ones included
        assert idx2.tables[lab] == idx.tables[lab]
    assert idx2.tables.keys() == idx.tables.keys() and idx2.rows.keys() == idx.rows.keys()
    for lab, p in idx.rows.items():
        p2 = idx2.rows[lab]
        assert bytes(p2.ptr) == bytes(p.ptr)
        assert all(np.array_equal(x, y) for x, y in zip(p2[:3] + p2[4:], p[:3] + p[4:], strict=True))
    for cdb, cdb2 in ((idx.color_db, idx2.color_db), (idx.db, idx2.db), (idx.d1, idx2.d1)):
        assert cdb2.schema == cdb.schema and cdb2.constants == cdb.constants
        assert all(np.array_equal(cdb2.array(sym), cdb.array(sym)) for sym in cdb.schema.symbols)
    st, st2 = index_stats(idx), index_stats(idx2)
    assert {**st2, "build_seconds": None} == {**st, "build_seconds": None}
    save_index(idx2, str(again))
    assert again.read_bytes() == first.read_bytes()


def test_loaded_base_rows_are_made_on_first_use(tmp_path):
    """A loaded index's base database has its schema and constants at once;
    its relation rows, and those of `d1`, are made when first read."""
    db = multirel_db()
    save_index(build_index(db), str(tmp_path / "m.ccqx"))
    idx = load_index(str(tmp_path / "m.ccqx"))
    assert idx.db.schema == db.schema and idx.db.constants == db.constants
    assert "_arrays" not in vars(idx.db) and "_arrays" not in vars(idx.d1)
    assert idx.db.size() == db.size() and "_arrays" in vars(idx.db)
    assert idx.d1.size() == db.size()


def test_dual_rows_are_the_transpose(tmp_path):
    """For every closure label λ of a built index and of its loaded copy,
    `rows[λ.dual()]` holds the transposed pairs of `rows[λ]`, loop diagonal
    included, and the λ-edges between two classes balance: n_c[a]·n(a, b)
    equals n_c[b]·n_dual(b, a)."""
    rng = random.Random(1702)
    dbs = [movie_db(), cycle_db(9), path_db(8), tree_db(3), multirel_db()]
    dbs += [random_db(rng, max_adom=10, max_facts=30) for _ in range(25)]
    seen = {"pairs": 0, "loop diagonal pairs": 0, "uneven class sizes": 0}
    for i, db in enumerate(dbs):
        idx = build_index(db)
        save_index(idx, str(tmp_path / f"{i}.ccqx"))
        for index in (idx, load_index(str(tmp_path / f"{i}.ccqx"))):
            n_c = index.n_c.tolist()
            for lab in index.closure_symbols:
                assert lab.dual() in index.closure_symbols
                p, d = index.rows[lab], index.rows[lab.dual()]
                fwd = dict(zip(zip(p.a.tolist(), p.b.tolist()), p.n.tolist()))
                bwd = dict(zip(zip(d.b.tolist(), d.a.tolist()), d.n.tolist()))
                assert fwd.keys() == bwd.keys(), lab
                cover = index.loop_cover_array(lab)
                for (a, b), n in fwd.items():
                    assert n_c[a] * n == n_c[b] * bwd[(a, b)], (lab, a, b)
                    seen["pairs"] += 1
                    seen["loop diagonal pairs"] += a == b and bool(cover[a])
                    seen["uneven class sizes"] += n_c[a] != n_c[b]
    assert min(seen.values()) >= 20, seen


def test_pair_rows_hold_arrays_only(tmp_path):
    """A built index and its loaded copy memoize `rows[λ]` for their actual
    labels only; once every closure label's rows are read, none holds a
    Python list, and every `ptr` is a memoryview."""
    dbs = (movie_db(), random_db(random.Random(2203), max_adom=12, max_facts=30))
    for i, db in enumerate(dbs):
        idx = build_index(db)
        save_index(idx, str(tmp_path / f"{i}.ccqx"))
        for index in (idx, load_index(str(tmp_path / f"{i}.ccqx"))):
            assert set(index.rows) == set(index.actual_labels)
            assert len(index.closure_symbols) >= 4
            for lab in index.closure_symbols:
                index.rows[lab]
            assert index.rows.keys() == index.closure_symbols.keys()
            for p in index.rows.values():
                assert isinstance(p.ptr, memoryview), p
                assert not any(isinstance(x, list) for x in p), p


@pytest.mark.parametrize("family", sorted(_families()))
def test_answers_are_tuples_of_python_ints(family, tmp_path):
    """On a built index and on its loaded copy, every answer is a tuple of
    Python ints, in one order, and they are the answers of `cde_fc_acq`;
    with names=True each is its ids' names.  In "ghost" a constant is in no
    fact, so vertex i is not constant i.  (The order itself is pinned by
    `test_enumeration_order_matches_pinned_digest`.)"""
    db = _families()[family]
    idx = build_index(db)
    save_index(idx, str(tmp_path / "i.ccqx"))
    loaded = load_index(str(tmp_path / "i.ccqx"))
    assert (idx.const_of is None) == (loaded.const_of is None) == (family != "ghost")
    for r in db.schema.binary_symbols:
        for text in (f"Ans(x,y) <- {r}(x,y).", f"Ans(x) <- {r}(x,y), {r}(y,z).",
                     f"Ans(z,x,y) <- {r}(x,y), {r}(y,z).", f"Ans(x,w) <- {r}(x,y), {r}(w,v)."):
            plan = plan_query(parse_query(text, db.schema), db.schema)
            ids = list(EnumerationSession(idx, plan))
            assert list(EnumerationSession(loaded, plan)) == ids, text
            assert all(type(t) is tuple and len(t) == len(plan.query.head)
                       and {type(c) for c in t} == {int} for t in ids), text
            assert sorted(ids) == sorted(cde_fc_acq(db, plan)), text
            named = [tuple(db.constants[c] for c in t) for t in ids]
            for index in (idx, loaded):
                assert list(EnumerationSession(index, plan, names=True)) == named, text


def _long_lists(root, n: int, skip) -> list[int]:
    """The lengths of the Python lists of at least n items reachable from
    `root` through containers and instance dicts, but not through `skip`,
    types or callables."""
    seen, todo, out = {id(x) for x in skip}, [root], []
    while todo:
        x = todo.pop()
        if id(x) in seen or isinstance(x, type) or callable(x):
            continue
        seen.add(id(x))
        if isinstance(x, list) and len(x) >= n:
            out.append(len(x))
        todo += gc.get_referents(x)
    return out


def test_vertex_data_is_read_only_views(tmp_path):
    """Enumeration reads the class members, the ranks and the successor
    tables through read-only views whose items are Python ints; `succ` still
    returns a list.  Neither a built index nor its loaded copy holds a
    Python list as long as the vertices (a built index's databases, whose
    constants are lists, aside).  A loaded index makes its one list of
    constants when a names=True session first reads them."""
    db = cycle_db(60)  # one class: a list per class or class pair is short
    idx = build_index(db)
    save_index(idx, str(tmp_path / "c.ccqx"))
    loaded = load_index(str(tmp_path / "c.ccqx"))
    for index in (idx, loaded):
        for lab in index.closure_symbols:  # the lazy tables too
            got = index.succ(lab, 0, 0)
            assert type(got) is list and got == sorted(got)
        views = [index.coloring.rank, index.members, *(t.nbr for t in index.tables.values())]
        assert len(views) == 2 + len(index.closure_symbols)
        for view in views:
            assert isinstance(view, memoryview) and view.readonly and type(view[0]) is int
            with pytest.raises(TypeError):
                view[0] = 0
        with pytest.raises(ValueError):
            index.coloring.order[0] = 0
    assert _long_lists(idx, idx.g.n, (idx.db, idx.d1)) == []
    n = loaded.g.n
    assert index_stats(loaded)["d1_size"] == n and _long_lists(loaded, n, ()) == []
    plan = plan_query(parse_query("Ans(x) <- R(x,y).", db.schema), db.schema)
    assert len(list(EnumerationSession(loaded, plan, names=True))) == n
    assert loaded.d1.constants is loaded.db.constants and _long_lists(loaded, n, ()) == [n]


def test_build_save_and_resave_decode_no_constants(tmp_path):
    """A parsed database keeps its constants as the block `save_index` writes:
    a build and save leaves them undecoded, and so do a load and re-save,
    which writes the same bytes.  The loop-encoded database shares them."""
    for text in (utf8_text(), "".join(f"R(v{i},v{i % 500 + 1})\n" for i in range(1, 501))):
        db = load_database(text)
        idx = build_index(db)
        save_index(idx, str(tmp_path / "a.ccqx"))
        loaded = load_index(str(tmp_path / "a.ccqx"))
        save_index(loaded, str(tmp_path / "b.ccqx"))
        assert (tmp_path / "b.ccqx").read_bytes() == (tmp_path / "a.ccqx").read_bytes()
        for index in (idx, loaded):
            assert not {"constants"} & (vars(index.db).keys() | vars(index.d1).keys())
            assert index.d1.constants is index.db.constants == parse_lines(text).constants


def _read_file(data: bytes) -> tuple[dict, bytes, dict[str, np.ndarray], dict[str, int]]:
    """The metadata, the constants block, the named arrays and their byte
    offsets of a saved index."""
    (meta_len,) = struct.unpack("<I", data[12:16])
    meta = json.loads(data[16:16 + meta_len])
    pos = 16 + meta_len + meta["constant_bytes"]
    block, arrays, offsets = data[pos - meta["constant_bytes"]:pos], {}, {}
    for entry in meta["arrays"]:
        size = int(np.prod(entry["shape"])) * np.dtype(entry["dtype"]).itemsize
        arrays[entry["name"]] = np.frombuffer(data[pos:pos + size], entry["dtype"]).reshape(entry["shape"])
        offsets[entry["name"]] = pos
        pos += size
    return meta, block, arrays, offsets


def _write_file(path, meta: dict, block: bytes, arrays: dict) -> None:
    """A format-4 file of `meta` (its array list made here), the constants
    `block` and the `arrays`, written as int32, with a valid checksum."""
    arrays = {name: np.asarray(a, dtype="<i4") for name, a in arrays.items()}
    meta = {**meta, "arrays": [{"name": name, "shape": list(a.shape), "dtype": "<i4"}
                               for name, a in arrays.items()]}
    blob = json.dumps(meta).encode("utf-8")
    body = b"".join(a.tobytes() for a in arrays.values())
    path.write_bytes(reseal(MAGIC + struct.pack("<III", FORMAT_VERSION, 0, len(blob)) + blob + block + body))


def test_tampered_coloring_is_refused_on_load(tmp_path):
    """A saved index of the path 0 → 1 → 2 → 3 with the colouring tampered to
    put 1 and 2 in one class.  The file stays consistent (every member of the
    class has one target per label), so only the stability check, which every
    load runs, refuses it: 1's successor has colour {1, 2} and 2's has {3}."""
    path = tmp_path / "path.ccqx"
    save_index(build_index(path_db(4)), str(path))
    meta, block, arrays, _ = _read_file(path.read_bytes())
    assert arrays["order"].tolist() == [0, 1, 2, 3] and arrays["sizes"].tolist() == [1] * 4
    arrays = {name: a.astype(np.int64) for name, a in arrays.items()}
    lab, cls, deg = arrays["degrees"].T
    arrays["sizes"] = [1, 2, 1]
    arrays["degrees"] = np.unique(np.stack([lab, np.array([0, 1, 1, 2])[cls], deg], axis=1), axis=0)
    _write_file(path, meta, block, arrays)
    with pytest.raises(ColorcqError, match="unstable colouring"):
        load_index(str(path))


def test_load_rejects_foreign_files(tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ColorcqError, match="magic"):
        load_index(str(bad))

    vers = tmp_path / "vers.bin"
    for version in (1, FORMAT_VERSION + 7):
        vers.write_bytes(MAGIC + struct.pack("<IQ", version, 2) + b"{}")
        with pytest.raises(ColorcqError, match=f"version {version}"):
            load_index(str(vers))


def test_file_without_arrays_is_refused(tmp_path):
    """A file whose metadata lists no arrays is refused by the check that
    names the arrays it must hold."""
    meta = {"constants": 1, "constant_bytes": 2, "relations": [{"name": "R", "arity": 2}], "labels": []}
    _write_file(tmp_path / "bare.ccqx", meta, b"a\n", {})
    with pytest.raises(ColorcqError, match="corrupt index metadata \\(the arrays must be"):
        load_index(str(tmp_path / "bare.ccqx"))


def test_version_1_and_2_files_are_refused(tmp_path, capsys):
    """Files in the layouts of format versions 1 and 2 (magic, version, the
    length of a JSON metadata with the constants as a list, the metadata,
    the arrays) are refused by name, with exit 1 from the command line."""
    meta = json.dumps({"constants": ["a", "b"], "relations": [{"name": "R", "arity": 2}],
                       "arrays": [{"name": "rel:R", "shape": [1, 2]},
                                  {"name": "coloring", "shape": [2]}]}).encode("utf-8")
    arrays = np.array([0, 1, 0, 1], dtype="<i8").tobytes()
    path = tmp_path / "old.ccqx"
    for version in (1, 2):
        path.write_bytes(MAGIC + struct.pack("<IQ", version, len(meta)) + meta + arrays)
        with pytest.raises(ColorcqError, match=f"unsupported index format version {version}"):
            load_index(str(path))
        assert main(["stats", "--index", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"unsupported index format version {version} " in err and "Traceback" not in err


def test_version_3_files_are_refused(tmp_path, capsys):
    """A file in the layout of format version 3 (checksum, constants block,
    the relations as int64 rows and a colouring, from which a load built the
    graph again) is refused by name, with exit 1 from the command line."""
    meta = json.dumps({"constants": 2, "constant_bytes": 4, "relations": [{"name": "R", "arity": 2}],
                       "arrays": [{"name": "rel:R", "shape": [1, 2]},
                                  {"name": "coloring", "shape": [2]}]}).encode("utf-8")
    body = struct.pack("<I", len(meta)) + meta + b"a\nb\n" + np.array([0, 1, 0, 1], "<i8").tobytes()
    path = tmp_path / "v3.ccqx"
    path.write_bytes(MAGIC + struct.pack("<II", 3, zlib.crc32(body)) + body)
    with pytest.raises(ColorcqError, match="unsupported index format version 3 .*rebuild the index"):
        load_index(str(path))
    assert main(["stats", "--index", str(path)]) == 1
    err = capsys.readouterr().err
    assert "unsupported index format version 3 " in err and "Traceback" not in err


def _graph_file(path, classes, labels, edges, relations=(("R", 2),), **arrays) -> None:
    """A format-4 file over the vertices 0..n-1, vertex i being constant ci,
    with the colouring `classes` (lists of vertices, in order) and the
    directed `edges` (source, target, label number) under `labels` (lists of
    [symbol, direction]), laid out class-major as `save_index` lays them.
    An array given in `arrays` replaces the one laid out."""
    order = [v for c in classes for v in c]
    place = {v: i for i, v in enumerate(order)}
    rows, targets = [], []
    for lab in range(len(labels)):
        for c, members in enumerate(classes):
            runs = [sorted((t for s, t, x in edges if s == v and x == lab), key=place.get) for v in members]
            if runs[0]:
                rows.append([lab, c, len(runs[0])])
                targets += [t for run in runs for t in run]
    block = "".join(f"c{i}\n" for i in range(len(order))).encode("utf-8")
    meta = {"constants": len(order), "constant_bytes": len(block), "labels": labels,
            "relations": [{"name": r, "arity": a} for r, a in relations]}
    laid = {f"unary:S_{r}": [] for r, a in relations if a == 2}
    laid.update(order=order, sizes=[len(c) for c in classes], degrees=np.reshape(rows, (-1, 3)),
                targets=targets)
    _write_file(path, meta, block, {**laid, **arrays})


_R = [[["R", "+"]], [["R", "-"]]]
_RS = [[["R", "+"]], [["R", "-"]], [["S", "+"]], [["S", "-"]]]
_TWO = {"classes": [[0], [1]], "labels": _R, "edges": [(0, 1, 0), (1, 0, 1)]}  # R(c0, c1)
_DEFECTS = {
    "missing reverse edge": (
        {"classes": [[0], [1], [2]], "labels": _R, "edges": [(0, 1, 0), (1, 2, 0), (1, 0, 1)]},
        "reverse not stored under the dual label"),
    "reverse under a non-dual label": (
        {"classes": [[0], [1], [2], [3]], "labels": _RS, "relations": (("R", 2), ("S", 2)),
         "edges": [(0, 1, 0), (1, 0, 3), (2, 3, 2), (3, 2, 1)]},
        "reverse not stored under the dual label"),
    "label without its dual": (
        {"classes": [[0], [1]], "labels": [[["R", "+"]]], "edges": [(0, 1, 0), (1, 0, 0)]},
        "reverse not stored under the dual label"),
    "pair under two labels": (
        {"classes": [[0], [1]], "labels": _RS, "relations": (("R", 2), ("S", 2)),
         "edges": [(0, 1, 0), (1, 0, 1), (0, 1, 2), (1, 0, 3)]},
        "stored under two labels"),
    "loop edge": (
        {"classes": [[0], [1], [2]], "labels": _R, "edges": [(0, 0, 0), (0, 0, 1), (1, 2, 0), (2, 1, 1)]},
        "a loop edge"),
    "targets not ascending": (
        {"classes": [[0], [1], [2]], "labels": _R, "edges": [(0, 1, 0), (0, 2, 0), (1, 0, 1), (2, 0, 1)],
         "targets": [2, 1, 0, 0]},
        "not ascending by source, target"),
    "degree rows out of order": ({**_TWO, "degrees": [[1, 1, 1], [0, 0, 1]]}, "degree rows not one per label"),
    "order not a permutation": ({**_TWO, "order": [0, 0]}, "order is not a canonical permutation"),
    "order not canonical": ({**_TWO, "classes": [[1], [0]]}, "order is not a canonical permutation"),
    "uneven degrees": (
        {"classes": [[0], [1], [2]], "labels": _R, "edges": [(0, 1, 0), (0, 2, 0), (1, 0, 1), (2, 0, 1)],
         "degrees": [[0, 0, 2], [1, 1, 1], [1, 2, 2]]},
        "degrees do not add up"),
    "uneven target colours": (
        {"classes": [[0, 1], [2], [3]], "labels": _R, "edges": [(0, 2, 0), (1, 3, 0), (2, 0, 1), (3, 1, 1)]},
        "unstable colouring"),
    "label of an unknown symbol": ({**_TWO, "labels": [[["T", "+"]], [["R", "-"]]]}, "bad edge label"),
    "label of an unknown direction": ({**_TWO, "labels": [[["R", "*"]], [["R", "-"]]]}, "bad edge label"),
    "label listed twice": ({**_TWO, "labels": [*_R, [["R", "+"]]]}, "an edge label listed twice"),
    "label listed twice in two orders": (
        {**_TWO, "labels": [[["R", "+"], ["R", "-"]], [["R", "-"], ["R", "+"]]]}, "an edge label listed twice"),
}


def test_graph_file_helper_writes_loadable_files(tmp_path):
    """`_graph_file` writes files that load when nothing is broken: here R(c0,
    c1), and the graph of the uneven-degrees case with its own degrees."""
    spec = {k: v for k, v in _DEFECTS["uneven degrees"][0].items() if k != "degrees"}
    for spec, rows in ((_TWO, [[0, 1]]), (spec, [[0, 1], [0, 2]])):
        _graph_file(tmp_path / "x.ccqx", **spec)
        assert load_index(str(tmp_path / "x.ccqx")).db.array("R").tolist() == rows


@pytest.mark.parametrize("case", sorted(_DEFECTS))
def test_foreign_file_defects_are_refused(case, tmp_path, capsys):
    """A file that passes the checksum but whose arrays or labels break one
    rule of the format is refused with an error naming the defect, and
    `colorcq stats` exits 1 with no traceback."""
    spec, what = _DEFECTS[case]
    path = tmp_path / "bad.ccqx"
    _graph_file(path, **spec)
    with pytest.raises(ColorcqError, match=what):
        load_index(str(path))
    assert main(["stats", "--index", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and what in err and "Traceback" not in err


def _slots(arrays: dict) -> list[tuple[int, int]]:
    """(label number, source vertex) of each stored target of a saved index, in turn."""
    order, bounds = arrays["order"].tolist(), np.cumsum([0, *arrays["sizes"].tolist()]).tolist()
    return [(lab, v) for lab, c, d in arrays["degrees"].tolist()
            for v in order[bounds[c]:bounds[c + 1]] for _ in range(d)]


def _edges_verdict(meta: dict, arrays: dict) -> str | None:
    """A plain-Python model, over sets, of a load's first three edge checks, in
    their order: the text of the first one that fails, or None when all pass.
    An edit of the targets that changes the set of edges always leaves some
    edge without its reverse, so the later checks never decide such a file."""
    place = {v: i for i, v in enumerate(arrays["order"].tolist())}
    edges = [(lab, s, t) for (lab, s), t in zip(_slots(arrays), arrays["targets"].tolist())]
    labels, flip = [tuple(map(tuple, pairs)) for pairs in meta["labels"]], {"+": "-", "-": "+"}
    dual = [labels.index(d) if d in labels else None
            for d in (tuple(sorted((r, flip[x]) for r, x in lab)) for lab in labels)]
    if any(s == t for _, s, t in edges):
        return "corrupt edges (a loop edge)"
    keys = [(lab, place[s], place[t]) for lab, s, t in edges]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        return "corrupt edges (a label's edges not ascending by source, target)"
    stored = set(edges)
    if any((dual[lab], t, s) not in stored for lab, s, t in edges):
        return "corrupt edges (an edge's reverse not stored under the dual label)"
    return None


def _edit_targets(rng: random.Random, slots: list[tuple[int, int]], targets: list[int], n: int) -> np.ndarray:
    """`targets` with one random edit: two targets of one label's run swapped,
    a target set to its source, a pair moved to another label's run (swapped
    with a target of the same source there, if any), or a reverse edge dropped."""
    t, i = list(targets), rng.randrange(len(targets))
    (lab, s), kind = slots[i], rng.choice(("swap", "loop", "move", "drop"))
    if kind == "loop":
        t[i] = s
        return np.array(t)
    if kind == "drop":  # the reverse (t[i], s) of edge i gets another target
        pick = [k for k, (_, v) in enumerate(slots) if v == t[i] and t[k] == s]
        j = rng.choice(pick)
        t[j] = rng.choice([v for v in range(n) if v != s] or [s])
        return np.array(t)
    if kind == "swap":
        pick = [k for k, (x, _) in enumerate(slots) if x == lab]
    else:
        pick = ([k for k, (x, v) in enumerate(slots) if x != lab and v == s]
                or [k for k, (x, _) in enumerate(slots) if x != lab] or [i])
    j = rng.choice(pick)
    t[i], t[j] = t[j], t[i]
    return np.array(t)


def test_edge_checks_agree_with_a_set_model(tmp_path):
    """Saved indexes of the `_families()` databases and of three larger ones get
    random single edits of their stored targets (`_edit_targets`), with the
    checksum redone.  A load refuses each edited file with exactly the text
    of `_edges_verdict`, a set-based model of the edge checks, or loads it
    when the model finds nothing wrong; every verdict is met."""
    rng = random.Random(2707)
    dbs = [*_families().values(), multirel_db(copies=100), random_db(random.Random(7), 60, 900), tree_db(8)]
    path, verdicts, stored = tmp_path / "edited.ccqx", [], 0
    for db in dbs:
        save_index(build_index(db), str(path))
        meta, block, arrays, _ = _read_file(path.read_bytes())
        if not len(arrays["targets"]):
            continue
        meta = {k: v for k, v in meta.items() if k != "arrays"}
        slots, targets = _slots(arrays), arrays["targets"].tolist()
        stored += len(targets)
        for _ in range(120):
            edited = {**arrays, "targets": _edit_targets(rng, slots, targets, len(arrays["order"]))}
            want = _edges_verdict(meta, edited)
            verdicts.append(want)
            _write_file(path, meta, block, edited)
            if want is None:
                assert load_index(str(path)).g.n == len(arrays["order"])
            else:
                with pytest.raises(ColorcqError) as err:
                    load_index(str(path))
                assert str(err.value) == f"{path}: {want}"
    assert stored > 2000 and set(verdicts) == {
        None, "corrupt edges (a loop edge)", "corrupt edges (a label's edges not ascending by source, target)",
        "corrupt edges (an edge's reverse not stored under the dual label)"}


def test_load_peak_memory_is_near_what_the_index_keeps(tmp_path):
    """A load makes few temporaries: on the index of a 50,000-vertex cycle,
    the peak of the memory it allocates stays under 1.75 times the memory
    the loaded index keeps."""
    path = tmp_path / "cycle.ccqx"
    save_index(build_index(cycle_db(50_000)), str(path))
    gc.collect()
    tracemalloc.start()
    try:
        idx = load_index(str(path))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert idx.g.n == 50_000 and peak < 1.75 * kept, (peak, kept)


def test_checksum_mismatch_is_refused(tmp_path):
    """A byte flipped anywhere after the checksum fails the checksum; with the
    checksum written for the flipped bytes, a later check refuses the file."""
    idx = build_index(movie_db())
    path = tmp_path / "movie.ccqx"
    save_index(idx, str(path))
    good = path.read_bytes()
    assert struct.unpack("<I", good[8:12])[0] == zlib.crc32(good[12:])
    at = _read_file(good)[3]["order"]
    bad = good[:at] + bytes([good[at] ^ 0x40]) + good[at + 1:]
    path.write_bytes(bad)
    with pytest.raises(ColorcqError, match="checksum mismatch"):
        load_index(str(path))
    path.write_bytes(reseal(bad))
    with pytest.raises(ColorcqError, match="order is not a canonical permutation"):
        load_index(str(path))


def _odd_constants() -> list[str]:
    """Constants with NUL bytes (in front, inside, and as the only difference
    from another constant), non-ASCII text, and every length of 1 to 2,000
    bytes."""
    odd = ["a", "a\x00", "a\x00\x00", "\x00", "\x00a", "a\x00b", "café", "日本語", "🙂",
           "x" * 7 + "é", " ", "\t", "#(,)"]
    return odd + [chr(ord("A") + n % 26) * n for n in range(1, 2001)]


def test_constants_of_any_text_and_length_round_trip(tmp_path):
    consts = _odd_constants()
    db = Database(Schema([("R", 2), ("U", 1)]), constants=consts)
    n = len(db.constants)
    assert n == len(consts)  # all distinct
    rows = [(i, (i * 7 + 3) % n) for i in range(n)] + [(i, i) for i in range(0, n, 5)]
    db.set_relation("R", np.array(rows))
    db.set_relation("U", np.arange(0, n, 3)[:, None])
    idx = build_index(db)
    path = tmp_path / "odd.ccqx"
    save_index(idx, str(path))
    idx2 = load_index(str(path))
    assert idx2.db.constants == consts
    assert list(idx2.coloring.color_of) == list(idx.coloring.color_of)
    for text in ("Ans(x,y) <- R(x,y).", "Ans(x) <- R(x,y), R(y,z), U(z).",
                 "Ans(x,y,z) <- R(x,y), R(y,z).", "Ans() <- R(x,x), U(x)."):
        plan = plan_query(parse_query(text, db.schema), db.schema)
        assert count_answers(idx2, plan) == count_answers(idx, plan)
        assert (list(EnumerationSession(idx2, plan, names=True))
                == list(EnumerationSession(idx, plan, names=True)))


def test_long_constants_round_trip_and_repeats_are_refused(tmp_path):
    """Constants of several words that differ only in their first or only in
    their last word load back; a repeated one is refused however far apart."""
    consts, text = long_constants_text()
    idx = build_index(load_database(text))
    path = tmp_path / "long.ccqx"
    save_index(idx, str(path))
    idx2 = load_index(str(path))
    assert idx2.db.constants == idx.db.constants and sorted(idx2.db.constants) == sorted(consts)
    assert list(idx2.coloring.color_of) == list(idx.coloring.color_of)
    p, q = b"p" * 16 + b"\n", b"q" * 8 + b"p" * 8 + b"\n"  # 16-byte constants
    block = _check_constants(memoryview(p + q), 2, "f")
    assert Database(Schema(), block).constants == ["p" * 16, "q" * 8 + "p" * 8]
    for block in (p + p, p + q + p, q + b"r\n" + q):
        with pytest.raises(ColorcqError, match="repeated constant"):
            _check_constants(memoryview(block), block.count(b"\n"), "f")


def test_constants_that_differ_in_length_or_last_byte_load(tmp_path):
    """The load-time check keys a constant of at most 7 bytes by its bytes and
    its length, so `a`, `a\\0` and `a\\0\\0` are distinct; 7- and 8-byte
    constants that share a prefix fall on either side of that cut."""
    consts = ["a", "a\0", "a\0\0", "", "pppppp", "ppppppp", "pppppppp", "ppppppq", "pppppppq",
              "é", "é\0", "ée"]
    db = Database(Schema([("R", 2)]), constants=consts)
    db.set_relation("R", np.array([[i, (i + 1) % len(consts)] for i in range(len(consts))]))
    path = tmp_path / "len.ccqx"
    save_index(build_index(db), str(path))
    assert load_index(str(path)).db.constants == consts
    block = "".join(c + "\n" for c in consts).encode("utf-8")
    assert Database(Schema(), _check_constants(memoryview(block), len(consts), "f")).constants == consts


def test_constants_check_agrees_with_a_set():
    """On random blocks of lines cut from one stem at lengths around the
    7-byte cut, over a small alphabet (NUL and a two-byte letter in it), the
    check refuses exactly the blocks whose lines are not distinct."""
    rng = random.Random(2606)
    verdicts = set()
    for _ in range(600):
        stem = "".join(rng.choice("ab\0é") for _ in range(9))
        pool = [stem[:k] + rng.choice(("", "a", "\0", "é")) for k in rng.choices((0, 1, 5, 6, 7, 8), k=5)]
        lines = rng.choices(pool, k=rng.randrange(1, 8))
        block = memoryview("".join(c + "\n" for c in lines).encode("utf-8"))
        distinct = len(set(lines)) == len(lines)
        repeated = [c for c in set(lines) if lines.count(c) > 1]
        verdicts.add((distinct, max(len(c.encode("utf-8")) for c in repeated or lines) > 7))
        if distinct:
            assert Database(Schema(), _check_constants(block, len(lines), "f")).constants == lines
        else:
            with pytest.raises(ColorcqError, match="repeated constant"):
                _check_constants(block, len(lines), "f")
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}


def test_constants_block_at_the_end_of_the_file(tmp_path):
    """With no facts every array is empty, so the constants block is the last
    thing in the file, and the check's 8-byte reads have no bytes after it to
    fall on: the index saves, loads, and saves again to the same bytes."""
    db = Database(Schema([("R", 2)]), constants=["ghost", "x"])
    idx = build_index(db)
    path = tmp_path / "empty.ccqx"
    save_index(idx, str(path))
    assert path.read_bytes().endswith(b"ghost\nx\n")
    idx2 = load_index(str(path))
    assert idx2.db.constants == ["ghost", "x"] and index_stats(idx2) == {
        **index_stats(idx), "build_seconds": idx2.build_seconds}
    save_index(idx2, str(tmp_path / "again.ccqx"))
    assert (tmp_path / "again.ccqx").read_bytes() == path.read_bytes()


def test_facts_file_constants_with_nul_round_trip(tmp_path, capsys):
    """A facts file may hold constants that differ only by trailing NULs."""
    facts = tmp_path / "nul.facts"
    facts.write_text("R(a\x00,a)\nR(a,a\x00\x00)\nR(café,a\x00)\n", encoding="utf-8")
    db = load_database(facts.read_text(encoding="utf-8"))
    assert db.constants == ["a\x00", "a", "a\x00\x00", "café"]
    path = tmp_path / "nul.ccqx"
    assert main(["build", "--db", str(facts), "--out", str(path)]) == 0
    capsys.readouterr()
    assert load_index(str(path)).db.constants == db.constants
    assert main(["query", "Ans(x,y) <- R(x,y).", "--index", str(path), "--task", "count"]) == 0
    assert capsys.readouterr().out.strip() == "3"


@pytest.mark.parametrize("bad", ["a\nb", "\n", "\ud800", "x\udfff"])
def test_save_refuses_constants_the_block_cannot_hold(bad, tmp_path, capsys, monkeypatch):
    """Made from a list of names, or parsed from a text that holds a lone
    surrogate (kept in the parsed block as `surrogatepass` writes it)."""
    db = Database(Schema([("R", 2)]), constants=["a", bad])
    db.set_relation("R", np.array([[0, 1]]))
    parsed = [] if "\n" in bad else [load_database(f"R(a,{bad})\n")]
    assert all(p.constants == db.constants and p.block is not None for p in parsed)
    path = tmp_path / "bad.ccqx"
    for d in [db, *parsed]:
        with pytest.raises(ColorcqError, match="cannot save"):
            save_index(build_index(d), str(path))
        assert not path.exists()
        # the command line exits 1; only the Python API can make such a constant
        monkeypatch.setattr("colorcq.cli._load_db", lambda _, d=d: d)
        assert main(["build", "--db", "unused", "--out", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot save") and "Traceback" not in err


def test_arrays_are_stored_in_the_narrowest_dtype():
    """Each array is written as uint8, uint16 or int32, the narrowest that
    holds its values; a value of 2^31 or more (an index of that many
    vertices) cannot be saved."""
    for top, dtype in ((0, "|u1"), (255, "|u1"), (256, "<u2"), (65535, "<u2"), (65536, "<i4"),
                       (2**31 - 1, "<i4")):
        arr = _narrow(np.array([0, top], dtype=np.int64))
        assert arr.dtype.str == dtype and arr.tolist() == [0, top]
    with pytest.raises(ColorcqError, match="2\\^31 or more vertices"):
        _narrow(np.array([2**31]))


def test_lazy_memoization_is_thread_safe():
    """Successor tables materialize on first use; concurrent first requests
    must install identical values."""
    db = movie_db()
    idx = build_index(db)
    lab = EdgeLabel([("P", "+")])
    barrier = threading.Barrier(8)
    results: list[dict] = []

    def worker():
        barrier.wait()
        got = {
            (v, c): [int(x) for x in idx.succ(lab, v, c)]
            for v in range(idx.g.n)
            for c in range(idx.num_colors)
        }
        results.append(got)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    fresh = build_index(db)
    want = {
        (v, c): [int(x) for x in fresh.succ(lab, v, c)]
        for v in range(fresh.g.n)
        for c in range(fresh.num_colors)
    }
    assert all(r == want for r in results)


def test_hat_tables_memoized(dex_index):
    lab = EdgeLabel([("A", "-")])
    idx = dex_index
    v = vertex(idx.g, idx.db.constants.index("PS"))
    c = color_of_name(idx, "LM")
    first = idx.succ(lab, v, c)
    assert list(idx.succ(lab, v, c)) == list(first)
    assert idx.tables[lab] is idx.tables[lab]


def _part(rows: list[tuple[int, int, int]]) -> tuple[np.ndarray, ...]:
    """The count rows (c, c′, n) of `rows` as three arrays."""
    return tuple(np.array(rows, np.int64).reshape(-1, 3).T)


def test_merge_rows_sums_like_a_counter():
    """`_merge_rows` sums count-row parts, each sorted by (c, c′), over equal
    (c, c′) exactly and returns them sorted: empty parts, a pair in several
    parts, a diagonal-only part and three or more parts, fixed and seeded."""
    diag = _part([(0, 0, 1), (2, 2, 1)])
    fixed = [_part([(0, 1, 3), (2, 0, 2)]), _part([]), _part([(0, 1, 4), (1, 1, 1), (2, 2, 5)]), diag]
    rng = np.random.default_rng(35)
    cases = [(fixed, 3), ([_part([])], 3), ([], 3), ([diag], 3)]
    for _ in range(300):
        ncol, parts = int(rng.integers(1, 9)), []
        for _ in range(int(rng.integers(0, 6))):
            kind = int(rng.integers(3))  # empty, diagonal-only or any pairs
            keys = (np.zeros(0, np.int64) if kind == 0 else
                    np.flatnonzero(rng.random(ncol) < 0.5) * (ncol + 1) if kind == 1 else
                    np.flatnonzero(rng.random(ncol * ncol) < 0.4))
            parts.append((keys // ncol, keys % ncol, rng.integers(1, 2**40, len(keys))))
        cases.append((parts, ncol))
    for parts, ncol in cases:
        want: Counter = Counter()
        for c, c2, n in parts:
            want.update(dict(zip(zip(c.tolist(), c2.tolist()), n.tolist())))
        got = list(zip(*(x.tolist() for x in _merge_rows(parts, ncol))))
        assert got == [(c, c2, n) for (c, c2), n in sorted(want.items())]
