"""Colour refinement: kernel, stability, coarsest-ness, reference agreement."""
from __future__ import annotations

import hashlib
import importlib
import random
import time

import numpy as np
import pytest

from colorcq.graph import _pack
from colorcq.model import ColorcqError, Database, Schema
from colorcq.refine import _as_coloring, _key_width, refine

from .conftest import (
    cycle_db,
    graph_of,
    make_db,
    members,
    movie_db,
    random_db,
    vertex,
    vl_mask,
)
from .reference import is_stable, naive_refine

REFINE = importlib.import_module("colorcq.refine")  # the module: the package exports the function


def each_body(monkeypatch):
    """Sets `refine` to run numpy rounds only, then Python rounds only, then
    each round's body by the default `_SMALL`, then numpy rounds only with a
    mixer of 0, under which all runs share one name, so every round with two
    distinct runs in one class fails its check and names its runs exactly;
    yields the `_SMALL` and the mixer in force."""
    for small, mix in ((0, REFINE._MIX), (10**9, REFINE._MIX), (REFINE._SMALL, REFINE._MIX),
                       (0, np.uint64(0))):
        monkeypatch.setattr(REFINE, "_SMALL", small)
        monkeypatch.setattr(REFINE, "_MIX", mix)
        yield small, int(mix)


def movie_partition_names(db, coloring):
    g = graph_of(db)
    out = []
    for cls in members(coloring):
        out.append(frozenset(db.constants[int(g.verts[v])] for v in cls))
    return set(out)


def test_movie_four_classes():
    db = movie_db()
    col = refine(graph_of(db))
    assert col.num_colors == 4
    assert movie_partition_names(db, col) == {
        frozenset({"PS"}),
        frozenset({"LM", "MM"}),
        frozenset({"Dr.S"}),
        frozenset({"18m", "34m"}),
    }


def test_movie_canonical_numbering():
    """Classes are numbered by least vertex: PS interns first, so col(PS)=0."""
    db = movie_db()
    g = graph_of(db)
    col = refine(g)
    color = {name: col.color_of[vertex(g, db.constants.index(name))] for name in db.constants}
    assert color["PS"] == 0
    assert color["LM"] == 1
    assert color["MM"] == 1
    assert color["Dr.S"] == 2
    assert color["18m"] == 3
    assert list(col.sizes) == [1, 2, 1, 2]


def test_cycle_single_class():
    for n in (3, 8, 50):
        col = refine(graph_of(cycle_db(n)))
        assert col.num_colors == 1
        assert col.sizes[0] == n


def test_edgeless_uniform_graph_single_class():
    db = make_db(Schema([("U", 1)]), [("U", name) for name in "abc"])
    col = refine(graph_of(db))
    assert col.num_colors == 1


def test_empty_graph():
    col = refine(graph_of(Database(Schema([("R", 2)]))))
    assert col.num_colors == 0
    assert list(col.color_of) == []


def _undirected_db(n: int, edges) -> Database:
    facts = [("R", f"u{x}", f"u{y}") for a, b in edges for x, y in ((a, b), (b, a))]
    return make_db(Schema([("R", 2)]), facts, constants=[f"u{i}" for i in range(n)])


def test_black_vertices_share_color_across_nonisomorphic_components():
    """Two components, each with two degree-3 vertices: one is a hexagon with a
    chord pattern, the other has a triangle at each end.  The degree-3 vertices
    are not exchangeable by any isomorphism, yet refinement must merge them."""
    left = [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 5)]
    right = [(6, 7), (6, 8), (7, 8), (8, 9), (9, 10), (9, 11), (10, 11)]
    db = _undirected_db(12, left + right)
    g = graph_of(db)
    col = refine(g)
    blacks = {vertex(g, db.constants.index(f"u{i}")) for i in (2, 3, 8, 9)}
    whites = set(range(12)) - blacks
    assert col.num_colors == 2
    assert len({int(col.color_of[v]) for v in blacks}) == 1
    assert len({int(col.color_of[v]) for v in whites}) == 1


def test_is_stable_on_refined_and_witness_on_coarse():
    db = movie_db()
    g = graph_of(db)
    col = refine(g)
    ok, witness = is_stable(g, col.color_of)
    assert ok and witness is None

    # one colour for all of movie; on R(a,b), R(b,c) with U(a), a merged with
    # c (a vertex-label witness) and b alone
    u_db = make_db(Schema([("R", 2), ("U", 1)]), [("R", "a", "b"), ("R", "b", "c"), ("U", "a")])
    u_g = graph_of(u_db)
    merged = np.arange(u_g.n, dtype=np.int64)
    merged[vertex(u_g, 2)] = merged[vertex(u_g, 0)]
    kinds = set()
    for g, all_one in ((g, np.zeros(g.n, dtype=np.int64)), (u_g, merged)):
        ok, witness = is_stable(g, all_one)
        assert not ok
        v, w, lab, target = witness
        # the witness must be a genuine violation: same colour, different signature
        assert all_one[v] == all_one[w]
        kinds.add(lab is None)
        if lab is None:
            assert vl_mask(g)[v] != vl_mask(g)[w]
        else:
            lid = g.labels.index(lab)
            cnt_v = sum(1 for e in range(g.indptr[v], g.indptr[v + 1])
                        if g.elab[e] == lid and all_one[g.nbr[e]] == target)
            cnt_w = sum(1 for e in range(g.indptr[w], g.indptr[w + 1])
                        if g.elab[e] == lid and all_one[g.nbr[e]] == target)
            assert cnt_v != cnt_w
    assert kinds == {True, False}  # both kinds of witness were checked


def test_is_stable_discrete_coloring():
    g = graph_of(movie_db())
    ok, _ = is_stable(g, np.arange(g.n, dtype=np.int64))
    assert ok


def test_canonicalize():
    raw = np.array([5, 2, 5, 9, 2], dtype=np.int64)
    assert list(_as_coloring(raw).color_of) == [0, 1, 0, 2, 1]
    assert list(_as_coloring(np.array([], dtype=np.int64)).color_of) == []


def test_pack_keeps_pair_order_without_overflow():
    a = np.array([3, 1 << 40, 3, 0], dtype=np.int64)
    b = np.array([1 << 40, 5, 0, 1 << 40], dtype=np.int64)
    key = _pack(a, b)
    assert list(np.argsort(key)) == [3, 2, 0, 1]
    assert list(_pack(np.array([2, 0]), np.array([1, 1]))) == [5, 1]


def test_pack_keeps_pair_order_on_overflow():
    """(max a + 1)·(max b + 1) ≥ 2^63: the keys still sort like the pairs, and
    equal pairs get equal keys."""
    a = np.array([1 << 62, 0, 1 << 62, 7, 0, 7], dtype=np.int64)
    b = np.array([3, 1 << 40, 2, 1 << 40, 1 << 40, 0], dtype=np.int64)
    assert (int(a.max()) + 1) * (int(b.max()) + 1) >= 1 << 63
    key = _pack(a, b).tolist()
    pairs = list(zip(a.tolist(), b.tolist()))
    for i in range(len(a)):
        for j in range(len(a)):
            assert (key[i] < key[j]) == (pairs[i] < pairs[j])
            assert (key[i] == key[j]) == (pairs[i] == pairs[j])


def test_key_width_guard():
    """A round packs (vertex, label, colour) and (label, colour, count) into
    one int64, so refine refuses graphs with (n + 1)·n·labels ≥ 2^63."""
    assert _key_width(4000, 2) == 8000
    assert _key_width(0, 0) == 0
    n = 3_037_000_499  # the largest n with (n + 1)·n < 2^63
    assert _key_width(n, 1) == n
    for big_n, labels in ((n + 1, 1), (n // 2 + 1, 4), (1 << 21, 1 << 21)):
        with pytest.raises(ColorcqError, match="cannot refine"):
            _key_width(big_n, labels)


def test_refine_matches_naive_random(monkeypatch):
    for small in each_body(monkeypatch):
        rng = random.Random(101)
        for _ in range(40):
            g = graph_of(random_db(rng, max_adom=8))
            col = refine(g)
            assert list(col.color_of) == list(naive_refine(g).color_of), small
            ok, witness = is_stable(g, col.color_of)
            assert ok, witness
            # the refinement respects the initial vertex-label partition
            masks = vl_mask(g)
            for cls in members(col):
                assert len({masks[int(v)] for v in cls}) == 1


def test_refine_matches_naive_random_larger(monkeypatch):
    """60 seeded graphs of up to 40 vertices.  With numpy rounds only they run
    114 numpy rounds, one where the untouched residue of a class is smaller
    than a touched part and loses its id; with Python rounds only, one such
    round too.  With a mixer of 0, 57 of the 114 fail their check and run
    again in Python."""
    for small in each_body(monkeypatch):
        rng = random.Random(2024)
        for _ in range(60):
            g = graph_of(random_db(rng, max_adom=40, max_facts=120))
            assert list(refine(g).color_of) == list(naive_refine(g).color_of), small


def _set_partitions(items: list[int]):
    """All partitions of `items` as lists of sets."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] | {first}] + part[i + 1:]
        yield part + [{first}]


def _stable_partition(g, classes) -> bool:
    """Test-local stability check, independent of the refine module: vertex
    labels uniform per class, and equal sorted (edge-label, target-class)
    signatures within every class."""
    color = {}
    for ci, cl in enumerate(classes):
        for v in cl:
            color[v] = ci
    masks = vl_mask(g)
    for cl in classes:
        vs = sorted(cl)
        if len({masks[v] for v in vs}) > 1:
            return False
        sigs = {
            tuple(sorted((int(g.elab[e]), color[int(g.nbr[e])])
                         for e in range(g.indptr[v], g.indptr[v + 1])))
            for v in vs
        }
        if len(sigs) > 1:
            return False
    return True


def _refines(finer, coarser) -> bool:
    return all(any(cls <= sup for sup in coarser) for cls in finer)


def test_coarsest_by_exhaustive_partition_search_small():
    """Every stable partition refining vl is finer than refine's result, so the
    result is the unique coarsest one.  Exhaustive over all set partitions."""
    rng = random.Random(77)
    dbs = [random_db(rng, max_adom=6) for _ in range(12)] + [cycle_db(5)]
    for db in dbs:
        g = graph_of(db)
        if g.n == 0:
            continue
        star = [set(int(v) for v in m) for m in members(refine(g))]
        assert _stable_partition(g, star)
        for cand in _set_partitions(list(range(g.n))):
            if _stable_partition(g, cand):
                assert _refines(cand, star), (
                    {s: db.array(s).tolist() for s in db.schema.symbols}, cand, star)


def test_incoming_counts_uniform_within_classes():
    """Equal-coloured vertices also agree on per-(label, source-class) incoming
    counts; checked against the raw edge list, not via dual labels."""
    rng = random.Random(13)
    for _ in range(15):
        g = graph_of(random_db(rng, max_adom=7))
        col = refine(g)
        incoming: dict[int, dict[tuple[int, int], int]] = {v: {} for v in range(g.n)}
        for u in range(g.n):
            for e in range(g.indptr[u], g.indptr[u + 1]):
                w = int(g.nbr[e])
                key = (int(g.elab[e]), int(col.color_of[u]))
                incoming[w][key] = incoming[w].get(key, 0) + 1
        for cls in members(col):
            sigs = {tuple(sorted(incoming[int(v)].items())) for v in cls}
            assert len(sigs) == 1


def _directed_path_db(n: int, unary=()) -> Database:
    facts = [("R", f"p{i}", f"p{i + 1}") for i in range(n - 1)] + [("U", f"p{i}") for i in unary]
    return make_db(Schema([("R", 2), ("U", 1)]), facts, constants=[f"p{i}" for i in range(n)])


def _binary_tree_db(n: int) -> Database:
    facts = [("R", f"t{(i - 1) // 2}", f"t{i}") for i in range(1, n)]
    return make_db(Schema([("R", 2)]), facts, constants=[f"t{i}" for i in range(n)])


def test_refine_matches_naive_structured(monkeypatch):
    """Shapes that take many rounds.  With numpy rounds only, the 27-vertex
    tree and the 12-path with unary labels at 0, 6 and 11 each have a split
    where the untouched residue of a class is smaller than a touched part and
    so loses its id; with Python rounds only, and with the default body
    choice, the 12-path has one such split."""
    rng = random.Random(8)
    dbs = [movie_db(), cycle_db(6), _undirected_db(4, [(0, 1), (1, 2), (2, 3)])]
    dbs += [_directed_path_db(n) for n in (1, 2, 3, 10, 31)]
    dbs += [_binary_tree_db(n) for n in (2, 7, 12, 27, 63)]
    dbs += [_directed_path_db(12, (0, 6, 11))]
    dbs += [_directed_path_db(n, rng.sample(range(n), n // 4)) for n in (8, 25, 40)]
    for small in each_body(monkeypatch):
        for db in dbs:
            g = graph_of(db)
            assert list(refine(g).color_of) == list(naive_refine(g).color_of), small


def test_path_refinement_scales_near_linearly():
    """A directed path needs about n/2 rounds; each round re-examines only the
    two vertices next to the last split, so the time grows about linearly.
    Checked on a plain path and on one with a unary label on every seventh
    vertex."""
    ns = (500, 2000, 8000)
    for unary in (False, True):
        secs = {}
        for n in ns:
            g = graph_of(_directed_path_db(n, range(0, n, 7) if unary else ()))
            best = float("inf")
            for _ in range(3 if n < 8000 else 2):
                t0 = time.perf_counter()
                col = refine(g)
                best = min(best, time.perf_counter() - t0)
            assert col.num_colors == n
            secs[n] = best
        exponent = float(np.polyfit(np.log(ns), np.log([secs[n] for n in ns]), 1)[0])
        print(f"\n[path refinement, labelled={unary}] s: "
              + ", ".join(f"{n}: {secs[n]:.4f}" for n in ns)
              + f" (log-log exponent {exponent:.2f})")
        assert exponent <= 1.35


def test_refine_matches_pinned_digest(monkeypatch):
    """The canonical colouring of three larger graphs, pinned by a sha256 of
    `color_of` as little-endian int64, the same under each `each_body` setting."""
    dbs = [
        _directed_path_db(300, range(0, 300, 7)),
        _binary_tree_db(255),
        random_db(random.Random(6), max_adom=300, max_facts=400),  # 246 vertices
    ]
    for small in each_body(monkeypatch):
        got = [(col.num_colors, hashlib.sha256(col.color_of.astype("<i8").tobytes()).hexdigest())
               for col in (refine(graph_of(db)) for db in dbs)]
        assert got == [
            (300, "98e038d3a30a991777ce2f66d2e9b9f377e44b6444635d2b5dd70d38ae78f241"),
            (8, "034ed3c725f2d78481bc100f50ad8f360aec35263626845c46177e2b357c2d2b"),
            (154, "cebd01ffd1299faa7b558d1c6a627070ad736ded869785935a530bd5443dd4a3"),
        ], small


def _hub_dbs() -> list[Database]:
    """Graphs whose hubs see hundreds of distinct (label, colour) items in one
    round: a staircase, where leaf i points to pool constants 0..i, so every
    leaf and pool constant gets its own colour in the first round, with one
    star over all its leaves and one over every other leaf; and a random base
    with hubs joined to many of its constants, two of them twins and one
    differing from them by one edge."""
    rng = random.Random(31)
    schema = Schema([("R", 2), ("S", 2), ("U", 1)])
    stairs = [("R", f"l{i}", f"q{j}") for i in range(200) for j in range(i + 1)]
    stairs += [("S", f"h{h}", f"l{i}") for h in (1, 2) for i in range(0, 200, h)]
    base = [("R" if rng.random() < 0.5 else "S", f"c{rng.randrange(300)}", f"c{rng.randrange(300)}")
            for _ in range(500)]
    base += [("U", f"c{i}") for i in rng.sample(range(300), 60)]
    seen = rng.sample(range(300), 220)
    base += [("S", h, f"c{i}") for h in ("h0", "h1") for i in seen]
    base += [("S", "h2", f"c{i}") for i in seen[1:]]
    base += [("R", f"c{i}", "h3") for i in rng.sample(range(300), 180)]
    return [make_db(schema, stairs), make_db(schema, base, constants=[f"c{i}" for i in range(300)])]


def test_refine_matches_naive_on_hubs(monkeypatch):
    """Hub runs hold hundreds of items; named by their mixed sums, none of
    these graphs' numpy rounds fails its check, and with a mixer of 0 the
    rounds that fail it run again in Python, to the same colourings."""
    fallbacks = []
    small = REFINE._round_small
    monkeypatch.setattr(REFINE, "_round_small", lambda *args: fallbacks.append(1) or small(*args))
    graphs = [graph_of(db) for db in _hub_dbs()]
    want = [list(naive_refine(g).color_of) for g in graphs]
    for setting in each_body(monkeypatch):
        fallbacks.clear()
        for g, colors in zip(graphs, want):
            assert list(refine(g).color_of) == colors, setting
        if setting[0] == 0:  # numpy rounds only: a Python round is a fallback
            assert (len(fallbacks) > 0) == (setting == (0, 0)), setting


def _random_facts_db(seed: int, facts: int) -> Database:
    """About `facts` random R and S facts over as many constants, and a tenth
    as many U facts."""
    rng = np.random.default_rng(seed)
    rels, pairs = rng.integers(0, 2, facts).tolist(), rng.integers(0, facts, (facts, 2)).tolist()
    rows = [("RS"[k], f"c{a}", f"c{b}") for k, (a, b) in zip(rels, pairs)]
    rows += [("U", f"c{a}") for a in rng.choice(facts, facts // 10, replace=False).tolist()]
    return make_db(Schema([("R", 2), ("S", 2), ("U", 1)]), rows, constants=[f"c{i}" for i in range(facts)])


def test_refinement_work_is_within_e_log_v(monkeypatch):
    """Counted work, no clock: a round walks the out-edges of its splitter
    members, and over all rounds (a fallback round's edges twice) they sum to
    at most E·(log2 V + 1) for E directed edges, as the largest part of a split
    is never walked.  Run under every `each_body` setting: a mixer of 0 sends
    every numpy round with two distinct runs under one name to Python, so this
    also shows that the fallback has no super-linear cliff."""
    walked = []
    small, ranges, as_coloring = REFINE._round_small, REFINE._ranges, REFINE._as_coloring

    def round_small(views, moved, ncol, nlab):
        indptr = views[0]
        walked.append(sum(indptr[v + 1] - indptr[v] for v in moved))
        return small(views, moved, ncol, nlab)

    def numpy_edges(starts, lens):  # a numpy round's edges into the splitters
        walked.append(int(lens.sum()))
        return ranges(starts, lens)

    def numbered(raw):  # the canonical numbering's one `_ranges`, over all V vertices, is no round
        out = as_coloring(raw)
        walked.pop()
        return out

    monkeypatch.setattr(REFINE, "_round_small", round_small)
    monkeypatch.setattr(REFINE, "_ranges", numpy_edges)
    monkeypatch.setattr(REFINE, "_as_coloring", numbered)
    dbs = _hub_dbs() + [_directed_path_db(3001)] + [_random_facts_db(s, f) for s, f in
                                                    ((1, 1000), (2, 4000), (3, 16000))]
    graphs = [graph_of(db) for db in dbs]
    for setting in each_body(monkeypatch):
        for g in graphs:
            walked.clear()
            refine(g)
            bound = g.num_directed_edges * (np.log2(g.n) + 1)
            assert 0 < sum(walked) <= bound, (setting, g.n, sum(walked), bound)
