"""Shared fixtures: the running example, cycle databases, random instances."""
from __future__ import annotations

import random
import struct
import zlib

import numpy as np
import pytest

from colorcq.frontend import check_free_connex_acyclic
from colorcq.graph import EdgeLabel, build_labeled_graph, encode_self_loops
from colorcq.index import build_index
from colorcq.model import Atom, ConjunctiveQuery, Database, Schema

# the eight facts of the movie database used as running example everywhere
MOVIE_FACTS = [
    ("P", "PS", "LM"), ("P", "PS", "MM"),
    ("A", "LM", "PS"), ("A", "MM", "PS"),
    ("M", "LM", "Dr.S"), ("M", "MM", "Dr.S"),
    ("S", "LM", "18m"), ("S", "MM", "34m"),
]
MOVIE_TEXT = "\n".join(f"{r}({a},{b})" for r, a, b in MOVIE_FACTS) + "\n"


def make_db(schema: Schema, facts, constants=()) -> Database:
    """A Database over `schema` that holds `facts`, each (relation, constant,
    ...).  Constants are numbered in the order of `constants`, then of first
    use in `facts`; each relation is put in with one `set_relation`."""
    facts = list(facts)
    db = Database(schema, constants=[*constants, *(c for _, *args in facts for c in args)])
    id_of = {c: i for i, c in enumerate(db.constants)}
    rows: dict[str, list[list[int]]] = {}
    for rel, *args in facts:
        rows.setdefault(rel, []).append([id_of[c] for c in args])
    for rel, r in rows.items():
        db.set_relation(rel, np.array(r, dtype=np.int64))
    return db


def movie_db() -> Database:
    return make_db(Schema([("P", 2), ("A", 2), ("M", 2), ("S", 2)]), MOVIE_FACTS)


def cycle_db(n: int) -> Database:
    """R(1,2), R(2,3), ..., R(n,1) over constants named 1..n."""
    db = Database(Schema([("R", 2)]), constants=[str(i) for i in range(1, n + 1)])
    ids = np.arange(n)
    db.set_relation("R", np.stack([ids, (ids + 1) % n], axis=1))
    return db


def long_constants_text() -> tuple[list[str], str]:
    """Constants of 17 to 40 bytes (3 to 5 words of 8 bytes), and a seeded
    facts text over them.  The URIs share their first two words and differ
    only in the last; the others differ only in their first word."""
    uris = [f"http://example.org/r/{i:0{k}d}" for k in (2, 5, 9, 14, 19) for i in (0, 1, 7, 10)]
    heads = [h.ljust(8, "_") + "/one/shared/tail" for h in ("a", "b", "ab", "ba", "a" * 8, "a" * 7 + "b")]
    consts = uris + heads + ["x" * 16 + "a", "x" * 16 + "b", "y" + "x" * 15 + "a"]
    rng = random.Random(17)
    lines = [f"R({rng.choice(consts)},{rng.choice(consts)})" for _ in range(300)]
    lines += [f"U({c})" for c in consts]
    rng.shuffle(lines)
    return consts, "\n".join(lines) + "\n"


def utf8_text() -> str:
    """Facts over constants with é, ü and CJK characters, of 1 to 7 UTF-8
    bytes and of more, each used several times, with spaces, tabs and
    comments that hold é."""
    consts = ["é", "ü", "日", "日本", "café", "Müller", "a", "日本語", "Zürich-Örlikon", "東京都庁舎",
              "naïve-façade"]
    lines = ["# café facts: é, ü, 日本"]
    for i, c in enumerate(consts):
        lines.append(f"R({c},{consts[(i * 5 + 3) % len(consts)]})  # über {c}")
        lines.append(f"U ( {consts[(i * 7 + 2) % len(consts)]} )")
        lines.append(f"S(\t{c} , {consts[(i + 1) % len(consts)]})#é")
    return "\n".join(lines) + "\n"


VARS = ("v", "w", "x", "y", "z")


def random_db(rng: random.Random, max_adom: int = 8, max_facts: int = 10,
              loops: bool = True) -> Database:
    """Two binary relations and one unary over at most `max_adom` constants."""
    n = rng.randint(1, max_adom)
    schema = Schema([("R", 2), ("S", 2), ("U", 1)])
    db = Database(schema, constants=[f"c{i}" for i in range(n)])
    cs = list(range(n))
    pool = [(u, v) for u in cs for v in cs if loops or u != v]
    for rel in ("R", "S"):
        pairs = rng.sample(pool, k=rng.randint(0, min(max_facts, len(pool))))
        db.set_relation(rel, np.array(pairs, dtype=np.int64).reshape(-1, 2))
    db.set_relation("U", np.array(rng.sample(cs, k=rng.randint(0, n)), dtype=np.int64)[:, None])
    return db


def random_fc_query(rng: random.Random, max_atoms: int = 5,
                    max_free: int = 4) -> ConjunctiveQuery | None:
    """A random query over {R, S, U}; None when it fails the acceptance check."""
    atoms = []
    for _ in range(rng.randint(1, max_atoms)):
        if rng.random() < 0.25:
            atoms.append(Atom("U", (rng.choice(VARS),)))
        else:
            atoms.append(Atom(rng.choice(("R", "S")),
                              (rng.choice(VARS), rng.choice(VARS))))
    atoms = list(dict.fromkeys(atoms))
    body_vars: list[str] = []
    for at in atoms:
        for v in at.args:
            if v not in body_vars:
                body_vars.append(v)
    head = tuple(rng.sample(body_vars, k=rng.randint(0, min(max_free, len(body_vars)))))
    q = ConjunctiveQuery(head=head, atoms=tuple(atoms))
    return q if check_free_connex_acyclic(q).accepted else None


def reseal(data: bytes) -> bytes:
    """The bytes of an index file with the CRC-32 in its header written for
    its current content, so that a test's edit reaches the check behind the
    checksum."""
    return data[:8] + struct.pack("<I", zlib.crc32(data[12:])) + data[12:]


def graph_of(db: Database):
    d1, s1 = encode_self_loops(db)
    return build_labeled_graph(d1, s1)


def vertex(g, cid: int) -> int:
    """The vertex index of the constant id `cid`, which must be in the active domain."""
    return int(np.flatnonzero(g.verts == cid)[0])


def color_of_name(idx, name: str) -> int:
    return int(idx.coloring.color_of[vertex(idx.g, idx.db.constants.index(name))])


def members(coloring) -> list[np.ndarray]:
    """The vertices of each class, ascending, in class order."""
    return [coloring.order[lo:hi] for lo, hi in zip(coloring.bounds, coloring.bounds[1:])]


def partition(coloring) -> frozenset[frozenset[int]]:
    """Coloring as a renaming-independent set of vertex classes."""
    return frozenset(frozenset(int(v) for v in m) for m in members(coloring))


def out_edges(g, v: int) -> list[tuple[int, EdgeLabel]]:
    """The (target, label) pairs of the out-edges of vertex v, by target."""
    return [(int(g.nbr[e]), g.labels[g.elab[e]]) for e in range(g.indptr[v], g.indptr[v + 1])]


def edge_label(g, v: int, w: int) -> EdgeLabel | None:
    return dict(out_edges(g, v)).get(w)


def tuples(db: Database, rel: str) -> set[tuple[int, ...]]:
    """The rows of `rel` as a set of tuples; empty for a symbol absent from the schema."""
    return set(map(tuple, db.array(rel).tolist())) if rel in db.schema else set()


def adom(db: Database) -> set[int]:
    """The ids that appear in at least one tuple."""
    return set(db.adom_ids().tolist())


def vl_mask(g) -> list[int]:
    """Per-vertex bitmask of the unary symbols (Python ints, any width)."""
    return [g.label_masks[i] for i in g.vl_id.tolist()]


def vertex_symbols(g, v: int) -> frozenset[str]:
    """The unary symbols that hold on vertex v."""
    mask = g.label_masks[g.vl_id[v]]
    return frozenset(u for i, u in enumerate(g.unary_symbols) if mask >> i & 1)


def hat_count(idx, lab: EdgeLabel, c: int, c2: int) -> int:
    """#̂→^λ(c,c2): the λ-successors in class c2 of any member of class c."""
    return len(idx.succ(lab, int(idx.coloring.order[idx.coloring.bounds[c]]), c2))


def names(db: Database, tuples) -> set[tuple[str, ...]]:
    return {tuple(db.constants[c] for c in t) for t in tuples}


@pytest.fixture()
def dex() -> Database:
    return movie_db()


@pytest.fixture(scope="session")
def dex_index():
    return build_index(movie_db())
