"""Loop encoding and the labeled-graph view."""
from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest

from colorcq import graph as GRAPH
from colorcq.graph import EdgeLabel, _as_ints, _rank_sets, _sort_rows, e_symbol, encode_self_loops, sigma1_for
from colorcq.model import Schema

from .conftest import (
    cycle_db,
    edge_label,
    graph_of,
    make_db,
    movie_db,
    out_edges,
    random_db,
    tuples,
    vertex,
    vertex_symbols,
    vl_mask,
)
from .reference import rank_sets


def test_edge_label_canonical_and_dual():
    lab = EdgeLabel([("P", "+"), ("A", "-"), ("P", "+")])
    assert lab.pairs == (("A", "-"), ("P", "+"))
    assert lab.dual().pairs == (("A", "+"), ("P", "-"))
    assert lab.dual().dual() == lab
    assert str(EdgeLabel([("P", "+")])) == "{(P,+)}"
    assert e_symbol(EdgeLabel([("P", "+")])) == "E{(P,+)}"


def test_dual_is_an_involution_on_interned_labels():
    """`dual` returns the one label of the flipped pairs, and is an involution
    up to identity, on one-pair, mixed and self-dual labels, named in either order."""
    labels = [EdgeLabel([("R", "+")]), EdgeLabel([("P", "+"), ("A", "-")]),
              EdgeLabel([("R", "+"), ("R", "-")]), EdgeLabel([("Q", "-"), ("S", "-"), ("S", "+")])]
    for lab in labels:
        assert EdgeLabel(reversed(lab.pairs)) is lab
        for x in (lab, lab.dual()):
            assert x.dual() is EdgeLabel((s, "-" if d == "+" else "+") for s, d in x.pairs)
            assert x.dual().dual() is x
    assert labels[2].dual() is labels[2]  # self-dual


def test_edge_label_rejects_empty_and_bad_direction():
    with pytest.raises(ValueError):
        EdgeLabel([])
    with pytest.raises(ValueError):
        EdgeLabel([("R", "?")])


def test_sigma1_fresh_loop_symbols():
    s1 = sigma1_for(Schema([("R", 2), ("U", 1)]))
    assert s1.loop_symbol == {"R": "S_R"}
    assert s1.schema.arity("S_R") == 1
    # a base schema already using S_R forces a fresh name
    s2 = sigma1_for(Schema([("R", 2), ("S_R", 1)]))
    assert s2.loop_symbol["R"] not in ("S_R",)
    assert s2.loop_symbol["R"] in s2.schema
    # a Σ1 taken after `Schema.add` of a binary symbol names that symbol's loop
    schema = Schema([("R", 2)])
    assert sigma1_for(schema).loop_symbol == {"R": "S_R"}
    schema.add("T", 2)
    assert sigma1_for(schema).loop_symbol == {"R": "S_R", "T": "S_T"}
    assert sigma1_for(schema).schema.arity("S_T") == 1


def test_encode_self_loops_movie_unchanged():
    db = movie_db()
    d1, s1 = encode_self_loops(db)
    for sym in ("P", "A", "M", "S"):
        assert tuples(d1, sym) == tuples(db, sym)
        assert tuples(d1, s1.loop_symbol[sym]) == set()
    assert d1.size() == db.size()


def test_encode_self_loops_strips_loops():
    db = make_db(Schema([("R", 2)]), [("R", "a", "a"), ("R", "a", "b")])
    a, b = map(db.constants.index, "ab")
    d1, s1 = encode_self_loops(db)
    assert tuples(d1, "R") == {(a, b)}
    assert tuples(d1, s1.loop_symbol["R"]) == {(a,)}


def test_encode_self_loops_cycle_is_identity():
    db = cycle_db(7)
    d1, s1 = encode_self_loops(db)
    assert tuples(d1, "R") == tuples(db, "R")
    assert tuples(d1, s1.loop_symbol["R"]) == set()


def test_movie_graph_structure():
    db = movie_db()
    g = graph_of(db)
    assert g.n == 6
    # 6 undirected adjacencies, both directions materialized
    assert g.num_directed_edges == 12
    assert all(m == 0 for m in vl_mask(g))  # no unary facts, no loops

    ps, lm, drs = (vertex(g, db.constants.index(name)) for name in ("PS", "LM", "Dr.S"))
    lab = edge_label(g, ps, lm)
    assert lab == EdgeLabel([("P", "+"), ("A", "-")])
    assert edge_label(g, lm, ps) == lab.dual()
    assert edge_label(g, ps, drs) is None
    assert edge_label(g, lm, drs) == EdgeLabel([("M", "+")])


def test_graph_symmetry_and_duality_random():
    rng = random.Random(11)
    for _ in range(40):
        g = graph_of(random_db(rng, max_adom=7))
        for v in range(g.n):
            for w, lab in out_edges(g, v):
                assert w != v  # loop-free
                back = edge_label(g, w, v)
                assert back == lab.dual()
        # the labels are closed under duals
        assert {lab.dual() for lab in g.labels} == set(g.labels)


def test_vertex_labels_reflect_unary_and_loops():
    db = make_db(Schema([("R", 2), ("U", 1)]), [("R", "a", "a"), ("R", "a", "b"), ("U", "b")])
    g = graph_of(db)
    va, vb = (vertex(g, db.constants.index(name)) for name in "ab")
    assert vertex_symbols(g, va) == {"S_R"}
    assert vertex_symbols(g, vb) == {"U"}
    init, n_init = g.vl_id, len(g.label_masks)
    assert n_init == 2 and init[va] != init[vb]


def test_edgeless_graph_from_unary_facts():
    db = make_db(Schema([("U", 1)]), [("U", "a"), ("U", "b")])
    g = graph_of(db)
    assert g.n == 2 and g.num_directed_edges == 0
    assert g.labels == ()
    init, n_init = g.vl_id, len(g.label_masks)
    assert n_init == 1  # both vertices carry exactly {U}


def test_parallel_relations_fold_into_one_label():
    db = make_db(Schema([("R", 2), ("S", 2)]), [("R", "a", "b"), ("S", "b", "a")])
    g = graph_of(db)
    assert g.num_directed_edges == 2
    assert edge_label(g, 0, 1) == EdgeLabel([("R", "+"), ("S", "-")])


def test_wide_schema_grouping_matches_bitmask_route():
    """With 32 binary symbols there are 64 (symbol, direction) tags, so a
    label can hold tag 63 and past it; the labels must match the ones of the
    narrow schema of the symbols that have facts."""
    wide_syms = [(f"R{i:02d}", 2) for i in range(32)]
    facts = [("R00", "a", "b"), ("R31", "b", "a"), ("R07", "b", "c")]
    g = graph_of(make_db(Schema(wide_syms), facts))
    assert edge_label(g, 0, 1) == EdgeLabel([("R00", "+"), ("R31", "-")])
    assert edge_label(g, 1, 2) == EdgeLabel([("R07", "+")])
    assert edge_label(g, 2, 1) == EdgeLabel([("R07", "-")])

    g2 = graph_of(make_db(Schema([("R00", 2), ("R31", 2), ("R07", 2)]), facts))
    assert {(v, w, lab) for v in range(g2.n) for w, lab in out_edges(g2, v)} == {
        (v, w, lab) for v in range(g.n) for w, lab in out_edges(g, v)
    }


def test_label_ranks_agree_through_the_table_and_word_by_word():
    """Unused binary relations put before the used ones shift every tag by the same amount,
    which keeps the order of the labels read as integers: with 8, 18 and 68 tags (ranked
    through the table of masks, then by discrimination, past tag 63 too), the labels and
    the edges are the same."""
    rng = random.Random(38)
    for _ in range(30):
        facts = [(rng.choice("PQRS"), f"c{rng.randrange(9)}", f"c{rng.randrange(9)}")
                 for _ in range(rng.randint(0, 40))]
        graphs = [graph_of(make_db(Schema([(f"X{i}", 2) for i in range(k)] + [(r, 2) for r in "PQRS"]),
                                   facts)) for k in (0, 5, 30)]  # 8, 18 and 68 tags
        for g in graphs[1:]:
            assert g.labels == graphs[0].labels
            for name in ("elab", "nbr", "indptr"):
                assert np.array_equal(getattr(g, name), getattr(graphs[0], name)), name


def test_rank_sets_matches_the_int_oracle():
    """`_rank_sets` names runs of distinct ascending ints like `reference.rank_sets`, which reads
    each set as a Python int, and `_as_ints` gives those ints: on seeded random runs with empty
    runs, members of 63 and more and of 2^16 and more, runs that are prefixes of others, and one
    run of 6,000 members.  Runs of members below 16 are ranked through the table of masks, and
    again with every member moved up by 16, which reads each set times 2^16, by discrimination."""
    rng = random.Random(38)
    cases = [[], [[]], [[], []], [[1, 2], [1, 2, 3], [2, 3], [1, 2], [3], []], [[63], [62], [0, 63], [63, 64]],
             [[70000], [1, 70000], [1], [1 << 16], [65535, 1 << 16]]]
    for top in (1, 2, 5, 16, 17, 64, 200, 1 << 17):
        for _ in range(25):
            runs = [sorted(rng.sample(range(top), rng.randint(0, min(top, 6)))) for _ in range(rng.randint(0, 40))]
            runs += [r[:rng.randint(0, len(r))] for r in runs[:5]] + runs[:3]  # prefixes and repeats
            runs += [r[rng.randint(0, len(r)):] for r in runs[:5]]  # the largest members of a run
            cases.append(rng.sample(runs, len(runs)))
    long = sorted(rng.sample(range(9000), 6000))
    cases.append([long, long[1:], long, long[:-1], long[:3000], long[-3000:], long[-4:], [long[-1]], []])
    for runs in cases:
        at = np.cumsum([0] + [len(r) for r in runs])
        member = np.array([b for r in runs for b in r], np.int64)
        want_ids, want_ints = rank_sets(runs)
        for shift in (0, 16):
            ids = _rank_sets(at, member + shift)
            assert ids.tolist() == want_ids
            assert _as_ints(at, member + shift, ids) == [x << shift for x in want_ints]


def test_sort_rows_sorts_like_lexsort(monkeypatch):
    """`_sort_rows` gives the columns `np.lexsort` sorts, with repeated rows: on seeded random
    columns, no rows, one row and all-zero columns; rows of exactly 63 bits are packed, and
    rows of 64 bits, or wider than a lowered `_BITS`, take `np.lexsort`."""
    lexsort, calls = np.lexsort, []
    monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or lexsort(keys))

    def check(cols, packed):
        calls.clear()
        got, by = _sort_rows(*cols), lexsort(cols[::-1])
        assert len(got) == len(cols) and bool(calls) != packed
        for g, c in zip(got, cols):
            assert g.dtype == np.int64 and np.array_equal(g, c[by])

    rng = np.random.default_rng(38)
    for _ in range(300):
        n, bits = int(rng.integers(0, 50)), rng.integers(0, 24, int(rng.integers(1, 5)))
        cols = [rng.integers(0, 1 << int(b), n) for b in bits]  # bits 0: all zero
        check(cols, sum(int(c.max(initial=0)).bit_length() for c in cols) <= 63)
    empty, zeros = np.zeros(0, np.int64), np.zeros(7, np.int64)
    check([empty], True)
    check([empty, empty, empty], True)
    check([np.array([5]), np.array([0]), np.array([1 << 40])], True)
    check([zeros, zeros], True)
    top = [np.append(rng.integers(0, 1 << b, 200), (1 << b) - 1) for b in (20, 11, 32)]
    check(top, True)  # 20 + 11 + 32 = 63 bits: the largest key is 2^63 - 1
    check([top[2], top[0], top[2]], False)  # 32 + 20 + 32 bits
    check([top[2], np.append(top[2][1:], 0)], False)  # 32 + 32 = 64 bits
    monkeypatch.setattr(GRAPH, "_BITS", 0)
    check([np.array([3, 1, 2]), np.array([0, 0, 0])], False)
    check([zeros, zeros], True)  # rows of 0 bits fit in any budget


def test_label_count_bounded_by_d1():
    rng = random.Random(3)
    for _ in range(20):
        db = random_db(rng)
        d1, _ = encode_self_loops(db)
        g = graph_of(db)
        assert len(g.labels) <= max(1, d1.size())
        assert len(set(vl_mask(g))) <= max(1, d1.size())


def test_initial_colors_rank_wide_vertex_labels():
    """Vertex labels over more than 63 unary symbols are ranked like any
    other: in the order of the label read as an integer (bit i for unary
    symbol i)."""
    bits = {"a": [0, 69], "b": [69], "c": [0], "d": [3, 64], "e": [0, 69]}
    facts = [(f"U{i:02d}", name) for name, on in bits.items() for i in on] + [("R", "a", "b")]
    db = make_db(Schema([(f"U{i:02d}", 1) for i in range(70)] + [("R", 2)]), facts)
    g = graph_of(db)
    masks = [sum(1 << i for i in bits[db.constants[int(g.verts[v])]]) for v in range(g.n)]
    assert list(vl_mask(g)) == masks
    init, n_init = g.vl_id, len(g.label_masks)
    ranks = sorted(set(masks))
    assert n_init == len(ranks) == 4
    assert list(init) == [ranks.index(m) for m in masks]
    assert vertex_symbols(g, vertex(g, db.constants.index("d"))) == {"U03", "U64"}


def _wide_graphs():
    """300 seeded databases of 0-80 binary and 0-80 unary relations over a few constants, so that
    labels of more than 63 tags and of more than 63 unary symbols occur, then one vertex pair that
    carries 2,000 tags (1,000 relations, each both ways)."""
    rng = random.Random(42)
    for _ in range(300):
        nb, nu, nc = rng.randint(0, 80), rng.randint(0, 80), rng.randint(1, 12)
        syms = [(f"R{i}", 2) for i in range(nb)] + [(f"U{i}", 1) for i in range(nu)]
        facts = [(r, *(f"c{rng.randrange(nc)}" for _ in range(k)))
                 for r, k in (rng.choice(syms) for _ in range(rng.randint(0, 300) if syms else 0))]
        yield graph_of(make_db(Schema(syms), facts))
    syms = [(f"R{i}", 2) for i in range(1000)] + [("U", 1)]
    facts = [f for i in range(1000) for f in ((f"R{i}", "a", "b"), (f"R{i}", "b", "a"))]
    yield graph_of(make_db(Schema(syms), facts + [("R7", "b", "c"), ("R999", "c", "c"), ("U", "a")]))


def test_wide_labels_match_pinned_digest():
    """Vertex and edge labels are pinned: the sha256 over `vl_id`, `label_masks`, `elab`, `nbr`,
    `indptr` and the labels' pairs of every graph of `_wide_graphs`."""
    digest, widest = hashlib.sha256(), 0
    for g in _wide_graphs():
        for a in (g.vl_id, g.elab, g.nbr, g.indptr):
            digest.update(a.astype("<i8").tobytes() + b"|")
        digest.update(repr((g.label_masks, [lab.pairs for lab in g.labels])).encode())
        widest = max(widest, *(len(lab.pairs) for lab in g.labels), 0)
    assert widest == 2000
    assert digest.hexdigest() == "f9b71605f373de73df519d0084485d0e034554939e689c62e6d6ac3ea4e4561e"
