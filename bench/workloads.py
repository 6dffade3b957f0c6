"""Seeded workload generators and per-workload query mixes.

Every generator draws from one `random.Random(seed)` and returns fact text;
the program under test only ever sees that text.  Each mix holds 6-7
free-connex acyclic queries with 1-4 atoms and 0-4 free variables, at least
one of them Boolean.  A query with `parts` is a cross product of the listed
connected components: its reference count is the product of theirs, because
draining the whole product is infeasible.  A query with `enumerate=False` is
counted but not enumerated, which keeps 100 rounds of a mix within seconds.
"""
from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Query:
    text: str
    parts: tuple[str, ...] = ()
    enumerate: bool = True

    @property
    def boolean(self) -> bool:
        return self.text.replace(" ", "").startswith("Ans()")


@dataclass(frozen=True)
class Workload:
    """Why each workload is in the benchmark is said in BENCHMARK.json."""

    name: str
    make_facts: object  # (rng, scale) -> list of fact lines
    queries: tuple[Query, ...]


def _shuffled_names(rng: random.Random, n: int, prefix: str) -> list[str]:
    ids = list(range(n))
    rng.shuffle(ids)
    return [f"{prefix}{i}" for i in ids]


def _cycle(rng: random.Random, scale: float) -> list[str]:
    n = max(3, int(200_000 * scale))
    name = _shuffled_names(rng, n, "v")
    lines = [f"R({name[i]},{name[(i + 1) % n]})" for i in range(n)]
    rng.shuffle(lines)
    return lines


def _path(rng: random.Random, scale: float) -> list[str]:
    n = max(5, int(4_000 * scale))
    name = _shuffled_names(rng, n, "v")
    lines = [f"R({name[i]},{name[i + 1]})" for i in range(n - 1)]
    rng.shuffle(lines)
    return lines


def _random(rng: random.Random, scale: float) -> list[str]:
    n = max(10, int(5_000 * scale))
    m = max(20, int(25_000 * scale))
    # rejection sampling: never builds the n*n candidate pairs
    seen: set[int] = set()
    pairs: list[int] = []
    while len(pairs) < m:
        p = rng.randrange(n * n)
        if p not in seen:
            seen.add(p)
            pairs.append(p)
    return [f"R(c{p // n},c{p % n})" for p in pairs]


_MULTI_RELS = ("P", "Q", "S", "T")


def _template(rng: random.Random, size: int) -> list[tuple[str, int, int | None]]:
    """One connected pattern of 26 facts: a random spanning tree plus extra
    edges (18 binary facts), 4 parallel facts, 2 self-loops and 2 unary U."""
    pairs: dict[tuple[int, int], str] = {}
    for v in range(1, size):
        u = rng.randrange(v)
        pairs[(u, v) if rng.random() < 0.5 else (v, u)] = rng.choice(_MULTI_RELS)
    while len(pairs) < size + 6:
        a, b = rng.sample(range(size), 2)
        pairs.setdefault((a, b), rng.choice(_MULTI_RELS))
    facts = [(rel, a, b) for (a, b), rel in pairs.items()]
    for (a, b) in rng.sample(sorted(pairs), 4):
        facts.append((rng.choice([r for r in _MULTI_RELS if r != pairs[(a, b)]]), a, b))
    facts += [(rng.choice(_MULTI_RELS), v, v) for v in rng.sample(range(size), 2)]
    facts += [("U", v, None) for v in rng.sample(range(size), 2)]
    return facts


def _multirel(rng: random.Random, scale: float) -> list[str]:
    copies = max(40, int(4_000 * scale))
    templates = [_template(rng, 12) for _ in range(40)]
    lines: list[str] = []
    for j in range(copies):
        for rel, a, b in templates[j % len(templates)]:
            lines.append(f"{rel}(t{j}_{a})" if b is None else f"{rel}(t{j}_{a},t{j}_{b})")
    rng.shuffle(lines)
    return lines


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "cycle",
            _cycle,
            (
                Query("Ans() <- R(x,y), R(y,z)."),
                Query("Ans() <- R(x,x)."),
                Query("Ans(x,y) <- R(x,y)."),
                Query("Ans(x) <- R(x,y), R(y,z)."),
                Query("Ans(x,y,z) <- R(x,y), R(y,z)."),
                Query("Ans(y,z,w) <- R(x,y), R(z,y), R(z,w)."),
            ),
        ),
        Workload(
            "path",
            _path,
            (
                Query("Ans() <- R(x,y), R(y,z), R(z,w)."),
                Query("Ans() <- R(x,x)."),
                Query("Ans(x,y) <- R(x,y)."),
                Query("Ans(x,y,z) <- R(x,y), R(y,z)."),
                Query("Ans(x) <- R(x,y), R(y,z), R(z,w)."),
                Query("Ans(x,y,z,w) <- R(x,y), R(y,z), R(z,w)."),
            ),
        ),
        Workload(
            "random",
            _random,
            (
                Query("Ans() <- R(x,y), R(y,z), R(z,w)."),
                Query("Ans() <- R(x,y), R(y,x), R(x,x)."),
                Query("Ans(x,y) <- R(x,y)."),
                Query("Ans(x) <- R(x,y), R(y,z)."),
                Query("Ans(x,y,z) <- R(x,y), R(y,z)."),
                Query("Ans(x,y) <- R(x,y), R(y,x)."),
                # its enumeration prep alone costs ~70 ms a round
                Query("Ans(x,y,z,w) <- R(x,y), R(y,z), R(w,z).", enumerate=False),
            ),
        ),
        Workload(
            "multirel",
            _multirel,
            (
                Query("Ans() <- P(x,y), Q(y,z)."),
                Query("Ans() <- U(x), T(x,x)."),
                Query("Ans(x,y) <- P(x,y)."),
                Query("Ans(x,y) <- P(x,y), Q(x,y)."),
                Query("Ans(x,y,z) <- S(x,y), T(y,z), U(z)."),
                Query("Ans(x) <- U(x), P(x,y), P(y,y)."),
                Query(
                    "Ans(x,y,z,w) <- P(x,y), S(z,w).",
                    parts=("Ans(x,y) <- P(x,y).", "Ans(z,w) <- S(z,w)."),
                ),
            ),
        ),
    )
}


def make_facts(name: str, seed: int, scale: float = 1.0) -> str:
    lines = WORKLOADS[name].make_facts(random.Random(seed), scale)
    return "\n".join(lines) + "\n"
