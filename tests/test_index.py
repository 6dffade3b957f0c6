"""The colour index: tables, colour database, stats, persistence."""
from __future__ import annotations

import hashlib
import json
import random
import struct
import threading
import zlib

import numpy as np
import pytest

from colorcq.cli import main
from colorcq.evaluation import EnumerationSession, count_answers
from colorcq.frontend import plan_query
from colorcq.graph import EdgeLabel, build_labeled_graph, encode_self_loops
from colorcq.index import (
    FORMAT_VERSION,
    MAGIC,
    ColorIndex,
    build_index,
    index_stats,
    _read_constants,
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
    vertex,
)


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


def test_succ_tables_against_brute_force():
    """N̂→^λ(v,c) and #̂→^λ(c,c′) recomputed edge-by-edge from the graph, for
    every closure label and a couple of labels outside the closure."""
    rng = random.Random(29)
    for _ in range(12):
        db = random_db(rng, max_adom=6)
        idx = build_index(db)
        g = idx.g
        col = idx.coloring
        labs = list(idx.closure_symbols) + [
            EdgeLabel([("R", "+"), ("S", "+")]),
            EdgeLabel([("R", "-"), ("S", "+"), ("S", "-")]),
        ]
        for lab in labs:
            for v in range(g.n):
                by_c: dict[int, list[int]] = {}
                for w, elab in out_edges(g, v):
                    if set(lab.pairs) <= set(elab.pairs):
                        by_c.setdefault(int(col.color_of[w]), []).append(w)
                for c in range(idx.num_colors):
                    expect = sorted(by_c.get(c, []))
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
    loops = idx.unary_colors[frozenset({idx.s1.loop_symbol["R"]})]  # the classes that loop over R
    assert bool(loops[ca]) and not bool(loops[cb])
    arr = idx.loop_cover_array(EdgeLabel([("R", "+")]))
    assert bool(arr[ca]) and not bool(arr[cb])
    both = idx.loop_cover_array(EdgeLabel([("R", "+"), ("R", "-")]))
    assert bool(both[ca])
    assert not bool(idx.loop_cover_array(EdgeLabel([("S", "+")]))[ca])


def test_closure_cap_guards_adversarial_schemas():
    n_rel = 21  # one edge carrying 21 symbols: 2^21 closure labels
    db = make_db(Schema([(f"R{i:02d}", 2) for i in range(n_rel)]),
                 [(f"R{i:02d}", "a", "b") for i in range(n_rel)])
    with pytest.raises(ColorcqError, match="closure"):
        build_index(db)


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
# built or written that alters one byte fails here
SAVED_SHA256 = {
    "movie": "3f89517abdca572799f10973939b8361ac48da0817e8bd910e4f8be108d5d84a",
    "cycle 7": "63f4e0dfbff9cedb046523a2d39020c74b3c2f5049abdd782f0a1f30d909dfb1",
    "random 1901": "66ab0fe66841f9d1c5d6b8b1617823bd0bb155b038224030b6589fd8b8ee66f2",
    "random 1904": "2f4f4215f41d3ce72bde153c18e99bc6478bdd50cb87a1acbbbc5aad633a34d7",
}


def test_saved_bytes_are_pinned(tmp_path):
    dbs = {"movie": movie_db(), "cycle 7": cycle_db(7)}
    for seed in (1901, 1904):
        dbs[f"random {seed}"] = random_db(random.Random(seed), max_adom=40, max_facts=120)
    for name, db in dbs.items():
        path = tmp_path / "x.ccqx"
        save_index(build_index(db), str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == SAVED_SHA256[name], name


def test_persistence_round_trip(tmp_path, monkeypatch):
    rng = random.Random(41)
    dbs = [movie_db(), cycle_db(9), random_db(rng, max_adom=6), path_db(8), tree_db(3),
           multirel_db()]
    built = [build_index(db) for db in dbs]
    hat = EdgeLabel([("P", "+")])
    assert len(built[-1]._supers[hat.id]) == 2  # the multirel hat lookup merges

    def no_refine(g):
        raise AssertionError("load_index must not refine")

    monkeypatch.setattr("colorcq.index.refine", no_refine)
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
                p, d = index.rows[lab.id], index.rows[lab.dual().id]
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
    """No memoized `rows[λ]` of a built index or of its loaded copy holds a
    Python list, and every `ptr` is a memoryview."""
    dbs = (movie_db(), random_db(random.Random(2203), max_adom=12, max_facts=30))
    for i, db in enumerate(dbs):
        idx = build_index(db)
        save_index(idx, str(tmp_path / f"{i}.ccqx"))
        for index in (idx, load_index(str(tmp_path / f"{i}.ccqx"))):
            assert len(index.rows) == len(index.closure_symbols) >= 4
            for p in index.rows.values():
                assert isinstance(p.ptr, memoryview), p
                assert not any(isinstance(x, list) for x in p), p


def _array_offset(data: bytes, name: str) -> int:
    """Byte offset of the named array in a saved index."""
    (meta_len,) = struct.unpack("<I", data[12:16])
    meta = json.loads(data[16:16 + meta_len])
    pos = 16 + meta_len + meta["constant_bytes"]
    for entry in meta["arrays"]:
        if entry["name"] == name:
            return pos
        pos += 8 * int(np.prod(entry["shape"]))
    raise KeyError(name)


def test_tampered_coloring_is_refused_on_load(tmp_path):
    """The colouring of test_unstable_coloring_is_rejected, written into a
    saved index: every load checks stability again."""
    idx = build_index(movie_db())
    path = tmp_path / "movie.ccqx"
    save_index(idx, str(path))
    data = bytearray(path.read_bytes())
    at = _array_offset(bytes(data), "coloring")
    data[at:at + 8 * idx.g.n] = bytes(8 * idx.g.n)
    path.write_bytes(reseal(bytes(data)))
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


def test_checksum_mismatch_is_refused(tmp_path):
    """A byte flipped anywhere after the checksum fails the checksum; with the
    checksum written for the flipped bytes, a later check refuses the file."""
    idx = build_index(movie_db())
    path = tmp_path / "movie.ccqx"
    save_index(idx, str(path))
    good = path.read_bytes()
    assert struct.unpack("<I", good[8:12])[0] == zlib.crc32(good[12:])
    at = _array_offset(good, "coloring")
    bad = good[:at] + bytes([good[at] ^ 0x40]) + good[at + 1:]
    path.write_bytes(bad)
    with pytest.raises(ColorcqError, match="checksum mismatch"):
        load_index(str(path))
    path.write_bytes(reseal(bad))
    with pytest.raises(ColorcqError, match="colouring does not fit"):
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
    assert _read_constants(memoryview(p + q), 2, "f") == ["p" * 16, "q" * 8 + "p" * 8]
    for block in (p + p, p + q + p, q + b"r\n" + q):
        with pytest.raises(ColorcqError, match="repeated constant"):
            _read_constants(memoryview(block), block.count(b"\n"), "f")


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
    db = Database(Schema([("R", 2)]), constants=["a", bad])
    db.set_relation("R", np.array([[0, 1]]))
    path = tmp_path / "bad.ccqx"
    with pytest.raises(ColorcqError, match="cannot save"):
        save_index(build_index(db), str(path))
    assert not path.exists()
    # the command line exits 1; only the Python API can make such a constant
    monkeypatch.setattr("colorcq.cli._load_db", lambda _: db)
    assert main(["build", "--db", "unused", "--out", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot save") and "Traceback" not in err


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
    assert idx.tables[lab.id] is idx.tables[lab.id]
