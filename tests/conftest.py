"""Shared fixtures: the running example, cycle databases, random instances."""
from __future__ import annotations

import random
import struct
import zlib

import pytest

from colorcq.frontend import check_free_connex_acyclic
from colorcq.graph import build_labeled_graph, encode_self_loops
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


def movie_db() -> Database:
    db = Database(Schema([("P", 2), ("A", 2), ("M", 2), ("S", 2)]))
    for r, a, b in MOVIE_FACTS:
        db.add_fact(r, (db.intern(a), db.intern(b)))
    return db


def cycle_db(n: int) -> Database:
    """R(1,2), R(2,3), ..., R(n,1) over constants named 1..n."""
    db = Database(Schema([("R", 2)]))
    ids = [db.intern(str(i)) for i in range(1, n + 1)]
    for i in range(n):
        db.add_fact("R", (ids[i], ids[(i + 1) % n]))
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


VARS = ("v", "w", "x", "y", "z")


def random_db(rng: random.Random, max_adom: int = 8, max_facts: int = 10,
              loops: bool = True) -> Database:
    """Two binary relations and one unary over at most `max_adom` constants."""
    db = Database(Schema([("R", 2), ("S", 2), ("U", 1)]))
    n = rng.randint(1, max_adom)
    cs = [db.intern(f"c{i}") for i in range(n)]
    pool = [(u, v) for u in cs for v in cs if loops or u != v]
    for rel in ("R", "S"):
        for t in rng.sample(pool, k=rng.randint(0, min(max_facts, len(pool)))):
            db.add_fact(rel, t)
    for u in rng.sample(cs, k=rng.randint(0, n)):
        db.add_fact("U", (u,))
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


def partition(coloring) -> frozenset[frozenset[int]]:
    """Coloring as a renaming-independent set of vertex classes."""
    return frozenset(frozenset(int(v) for v in m) for m in coloring.members)


def names(db: Database, tuples) -> set[tuple[str, ...]]:
    return {tuple(db.const_name(c) for c in t) for t in tuples}


@pytest.fixture()
def dex() -> Database:
    return movie_db()


@pytest.fixture(scope="session")
def dex_index():
    return build_index(movie_db())
