"""Reference implementations that only the tests use: the per-line fact
parser that `load_database` is checked against, and the brute-force
stability check and fixpoint refinement that `refine` is checked against."""
from __future__ import annotations

import re

import numpy as np

from colorcq.graph import EdgeLabel, LabeledGraph
from colorcq.model import Database, ParseError, Schema, SchemaError
from colorcq.refine import Coloring, _as_coloring

_FACT_RE = re.compile(
    r"^\s*([A-Za-z_][A-Za-z0-9_.]*)\s*\(\s*([^\s(),#]+)\s*(?:,\s*([^\s(),#]+)\s*)?\)\s*$"
)


def parse_lines(text: str) -> Database:
    """Reference fact parser, one regex match per line of `str.splitlines`;
    raises ParseError or SchemaError with the number of the first bad line."""
    schema = Schema()
    names: list[str] = []  # every argument, in file order
    args_of: dict[str, list[str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _FACT_RE.match(line)
        if m is None:
            raise ParseError(f"line {lineno}: cannot parse fact {raw.strip()!r}")
        rel, a, b = m.group(1), m.group(2), m.group(3)
        args = (a,) if b is None else (a, b)
        try:
            schema.add(rel, len(args))
        except SchemaError as e:
            raise SchemaError(f"line {lineno}: {e}") from None
        names += args
        args_of.setdefault(rel, []).extend(args)

    db = Database(schema, constants=names)
    id_of = dict(zip(db.constants, range(len(db.constants))))
    for rel, args in args_of.items():
        ids = np.fromiter(map(id_of.__getitem__, args), dtype=np.int64, count=len(args))
        db.set_relation(rel, ids.reshape(-1, schema.arity(rel)))
    return db


def _signature(g: LabeledGraph, colors: np.ndarray, v: int) -> dict[tuple[int, int], int]:
    sig: dict[tuple[int, int], int] = {}
    for e in range(g.indptr[v], g.indptr[v + 1]):
        key = (int(g.elab[e]), int(colors[g.nbr[e]]))
        sig[key] = sig.get(key, 0) + 1
    return sig


def is_stable(
    g: LabeledGraph, colors: np.ndarray
) -> tuple[bool, tuple[int, int, EdgeLabel | None, int | None] | None]:
    """Check stability; on failure return a witness (v, w, label, colour).

    A `None` label in the witness means v and w disagree on vertex labels
    rather than on neighbour counts.
    """
    rep: dict[int, int] = {}
    rep_sig: dict[int, dict[tuple[int, int], int]] = {}
    for v in range(g.n):
        c = int(colors[v])
        if c not in rep:
            rep[c] = v
            rep_sig[c] = _signature(g, colors, v)
            continue
        w = rep[c]
        if g.vl_id[v] != g.vl_id[w]:
            return False, (w, v, None, None)
        sig_v = _signature(g, colors, v)
        sig_w = rep_sig[c]
        for key in sig_v.keys() | sig_w.keys():
            if sig_v.get(key, 0) != sig_w.get(key, 0):
                lab_id, target = key
                return False, (w, v, g.labels[lab_id], target)
    return True, None


def naive_refine(g: LabeledGraph) -> Coloring:
    """Fixpoint iteration with explicit signatures; reference implementation."""
    colors, ncol = g.vl_id.tolist(), len(g.label_masks)
    while True:
        sigs = []
        for v in range(g.n):
            items = sorted(
                (int(g.elab[e]), colors[g.nbr[e]])
                for e in range(g.indptr[v], g.indptr[v + 1])
            )
            sigs.append((colors[v], tuple(items)))
        ranks: dict[tuple, int] = {}
        for s in sorted(set(sigs)):
            ranks[s] = len(ranks)
        if len(ranks) == ncol:
            return _as_coloring(np.array(colors, dtype=np.int64))
        colors = [ranks[s] for s in sigs]
        ncol = len(ranks)


def rank_sets(runs: list[list[int]]) -> tuple[list[int], list[int]]:
    """Reference set ranker: each run of distinct ints read as the Python int with bit b
    for member b, and ranked among the sorted distinct ints; then those ints."""
    ints = [sum(1 << b for b in run) for run in runs]
    distinct = sorted(set(ints))
    rank = {x: i for i, x in enumerate(distinct)}
    return [rank[x] for x in ints], distinct
