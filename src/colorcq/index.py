"""The colour index: everything the evaluation phase needs, built once per db.

Components: the loop-free database and its labeled graph; the coarsest stable
colouring (with class member lists and sizes n_c); per-label successor tables
N̂→^λ(v,c) and class-pair counts #̂→^λ(c,c′); and the colour database — a
relational instance over the colours with one unary relation per unary symbol
and one binary relation E_λ per edge label λ, holding (c,c′) iff some (hence
every) vertex of colour c has a λ-superset edge to a vertex of colour c′.

Exact tables are precomputed per *actual* edge label only; the hat lookups
(union/sum over actual labels ⊇ λ) are materialized on first use and
memoized (thread-safe; concurrent first calls compute identical values).
The colour database materializes E_λ for the downward closure of the actual
labels — any other label has empty semantics by construction.
"""
from __future__ import annotations

import json
import struct
import threading
import time
from itertools import combinations

import numpy as np

from .graph import (
    EdgeLabel,
    LabeledGraph,
    Sigma1,
    build_labeled_graph,
    e_symbol,
    encode_self_loops,
)
from .model import ColorcqError, Database, Schema
from .refine import Coloring, _as_coloring, refine

MAGIC = b"CCQX"
FORMAT_VERSION = 1

_EMPTY = np.zeros(0, dtype=np.int64)

# hard cap on closure materialization; hit only by adversarial schemas where
# one vertex pair is related by very many symbols at once
_CLOSURE_CAP = 1 << 20


class ColorIndex:
    def __init__(
        self,
        db: Database,
        d1: Database,
        s1: Sigma1,
        g: LabeledGraph,
        coloring: Coloring,
        build_seconds: dict[str, float],
        preloaded_counts: dict[EdgeLabel, dict[tuple[int, int], int]] | None = None,
    ):
        self.db = db
        self.d1 = d1
        self.s1 = s1
        self.g = g
        self.coloring = coloring
        self.build_seconds = build_seconds
        self._lock = threading.Lock()
        # exact per-actual-label tables vs. memoized hat (⊇λ) lookups
        self._exact_sets: dict[EdgeLabel, dict[tuple[int, int], np.ndarray]] = {}
        self._exact_counts: dict[EdgeLabel, dict[tuple[int, int], int]] = {}
        self._hat_sets: dict[EdgeLabel, dict[tuple[int, int], np.ndarray]] = {}
        self._hat_counts: dict[EdgeLabel, dict[tuple[int, int], int]] = {}
        self._loop_arrays: dict[EdgeLabel, np.ndarray] = {}
        self._populate(preloaded_counts)

    # -- construction ------------------------------------------------------

    def _populate(self, preloaded_counts) -> None:
        t0 = time.perf_counter()
        g, col = self.g, self.coloring
        self.n_c = col.sizes
        self.num_colors = col.num_colors
        self.actual_labels: tuple[EdgeLabel, ...] = g.labels

        # vertex labels and data self-loops are uniform within a class (the
        # coloring refines the vl partition), so one representative suffices
        self.color_masks: list[int] = [
            g.vl_mask[int(col.members[c][0])] for c in range(self.num_colors)
        ]
        loop_bits = [
            (r, 1 << g._uidx[s]) for r, s in self.s1.loop_symbol.items()
        ]
        self.loop_pairs: tuple[frozenset[tuple[str, str]], ...] = tuple(
            frozenset(
                p for r, bit in loop_bits if mask & bit for p in ((r, "+"), (r, "-"))
            )
            for mask in self.color_masks
        )

        # one pass over the edges grouped by label: successor tables keyed
        # (vertex, target colour)
        if g.num_directed_edges:
            src = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.indptr))
            tgt_col = col.color_of[g.nbr]
            order = np.lexsort((g.nbr, tgt_col, src, g.elab))
            s_lab, s_src, s_col, s_nbr = (
                g.elab[order], src[order], tgt_col[order], g.nbr[order],
            )
        else:
            s_lab = s_src = s_col = s_nbr = _EMPTY

        label_bounds = np.searchsorted(s_lab, np.arange(len(self.actual_labels) + 1))
        for lid, lab in enumerate(self.actual_labels):
            lo, hi = int(label_bounds[lid]), int(label_bounds[lid + 1])
            vv, cc = s_src[lo:hi], s_col[lo:hi]
            brk = np.ones(hi - lo, dtype=bool)
            brk[1:] = (vv[1:] != vv[:-1]) | (cc[1:] != cc[:-1])
            starts = np.flatnonzero(brk)
            ends = np.append(starts[1:], hi - lo)
            table: dict[tuple[int, int], np.ndarray] = {}
            for s, e in zip(starts.tolist(), ends.tolist()):
                table[(int(vv[s]), int(cc[s]))] = s_nbr[lo + s:lo + e]
            self._exact_sets[lab] = table

            if preloaded_counts is None:
                # the class-to-class edge count is n_c times the
                # per-representative count and must divide evenly (stability)
                key = col.color_of[vv[starts]] * np.int64(self.num_colors) + cc[starts]
                uk, inv = np.unique(key, return_inverse=True)
                sums = np.zeros(len(uk), np.int64)
                np.add.at(sums, inv, ends - starts)
                counts: dict[tuple[int, int], int] = {}
                for pair, total in zip(uk.tolist(), sums.tolist()):
                    c, c2 = divmod(pair, self.num_colors)
                    n = int(self.n_c[c])
                    if total % n:
                        raise ColorcqError("unstable colouring: uneven class counts")
                    counts[(c, c2)] = total // n
                self._exact_counts[lab] = counts
        if preloaded_counts is not None:
            self._exact_counts.update(preloaded_counts)

        self._build_color_db()
        # the closure entries are exactly the hat counts; seed the memo so
        # counting queries never pay a first-use merge
        self._hat_counts.update(self.closure_counts)
        self.build_seconds = dict(self.build_seconds)
        self.build_seconds["tables"] = time.perf_counter() - t0

    def _build_color_db(self) -> None:
        g = self.g
        budget = _CLOSURE_CAP
        closure: dict[EdgeLabel, dict[tuple[int, int], int]] = {}
        for lab in self.actual_labels:
            base = self._exact_counts[lab]
            pairs = lab.pairs
            budget -= 1 << len(pairs)
            if budget < 0:
                raise ColorcqError("edge-label closure too large to materialize")
            for r in range(1, len(pairs) + 1):
                for sub in combinations(pairs, r):
                    acc = closure.setdefault(EdgeLabel(sub), {})
                    for key, cnt in base.items():
                        acc[key] = acc.get(key, 0) + cnt
        self.closure_counts = closure

        schema = Schema((u, 1) for u in g.unary_symbols)
        elabels = sorted(closure, key=lambda lab: (len(lab.pairs), lab.pairs))
        self.closure_symbols: dict[EdgeLabel, str] = {}
        for lab in elabels:
            name = e_symbol(lab)
            schema.add(name, 2)
            self.closure_symbols[lab] = name

        cdb = Database(schema, constants=(str(c) for c in range(self.num_colors)))
        for u in g.unary_symbols:
            bit = 1 << g._uidx[u]
            for c in range(self.num_colors):
                rep = int(self.coloring.members[c][0])
                if g.vl_mask[rep] & bit:
                    cdb.add_fact(u, (c,))
        for lab, name in self.closure_symbols.items():
            for pair in self.closure_counts[lab]:
                cdb.add_fact(name, pair)
        self.color_db = cdb

    # -- lookups -----------------------------------------------------------

    def _materialize_sets(self, lab: EdgeLabel) -> dict[tuple[int, int], np.ndarray]:
        supers = [a for a in self.actual_labels if lab.issubset(a)]
        if len(supers) == 1:
            merged = self._exact_sets[supers[0]]
        else:
            bykey: dict[tuple[int, int], list[np.ndarray]] = {}
            for a in supers:
                for key, ws in self._exact_sets[a].items():
                    bykey.setdefault(key, []).append(ws)
            # actual labels partition the edges: concatenation never repeats
            merged = {
                key: (np.sort(np.concatenate(parts)) if len(parts) > 1 else parts[0])
                for key, parts in bykey.items()
            }
        with self._lock:
            return self._hat_sets.setdefault(lab, merged)

    def _materialize_counts(self, lab: EdgeLabel) -> dict[tuple[int, int], int]:
        counts: dict[tuple[int, int], int] = {}
        for a in self.actual_labels:
            if lab.issubset(a):
                for key, cnt in self._exact_counts[a].items():
                    counts[key] = counts.get(key, 0) + cnt
        with self._lock:
            return self._hat_counts.setdefault(lab, counts)

    def succ(self, lab: EdgeLabel, v: int, c: int) -> np.ndarray:
        """N̂→^λ(v,c) as vertex indices (v is a vertex index too)."""
        table = self._hat_sets.get(lab)
        if table is None:
            table = self._materialize_sets(lab)
        return table.get((v, c), _EMPTY)

    def count(self, lab: EdgeLabel, c: int, c2: int) -> int:
        table = self._hat_counts.get(lab)
        if table is None:
            table = self._materialize_counts(lab)
        return table.get((c, c2), 0)

    def count_table(self, lab: EdgeLabel) -> dict[tuple[int, int], int]:
        table = self._hat_counts.get(lab)
        if table is None:
            table = self._materialize_counts(lab)
        return table

    def vertex_color(self, v: int) -> int:
        return int(self.coloring.color_of[v])

    def unary_mask(self, symbols) -> int:
        """Bitmask (vl_mask convention) for a set of unary symbols."""
        mask = 0
        for u in symbols:
            mask |= 1 << self.g._uidx[u]
        return mask

    def loop_cover_array(self, lab: EdgeLabel) -> np.ndarray:
        """Per-color flags: does every class member carry a self-loop for every
        relation mentioned in λ?  Such a vertex is its own λ-superset neighbour
        under the loop-augmented semantics used by the evaluation layer.
        """
        arr = self._loop_arrays.get(lab)
        if arr is None:
            need = set(lab.pairs)  # loop_pairs are closed under direction flip
            arr = np.fromiter(
                (need <= lp for lp in self.loop_pairs), dtype=bool,
                count=self.num_colors,
            )
            with self._lock:
                arr = self._loop_arrays.setdefault(lab, arr)
        return arr


def build_index(db: Database) -> ColorIndex:
    """Index a binary-schema database: encode loops, build the graph, refine."""
    times: dict[str, float] = {}
    t0 = time.perf_counter()
    d1, s1 = encode_self_loops(db)
    g = build_labeled_graph(d1, s1)
    times["graph"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    coloring = refine(g)
    times["refine"] = time.perf_counter() - t0
    return ColorIndex(db, d1, s1, g, coloring, times)


def hat_succ_set(idx: ColorIndex, lab: EdgeLabel, v: int, c: int) -> list[int]:
    """Constant ids w with el(v,w) ⊇ λ and col(w) = c, for constant id v."""
    if not (0 <= c < idx.num_colors):
        raise ColorcqError(f"unknown color id {c}")
    vert = idx.g.vertex_of(v)
    return [idx.g.const_of(int(w)) for w in idx.succ(lab, vert, c)]


def hat_succ_count(idx: ColorIndex, lab: EdgeLabel, c: int, c2: int) -> int:
    for x in (c, c2):
        if not (0 <= x < idx.num_colors):
            raise ColorcqError(f"unknown color id {x}")
    return idx.count(lab, c, c2)


def index_stats(idx: ColorIndex) -> dict:
    db_size = idx.db.size()
    color_db_size = idx.color_db.size()
    return {
        "db_size": db_size,
        "d1_size": idx.d1.size(),
        "adom_size": idx.g.n,
        "num_colors": idx.num_colors,
        "num_edge_labels": len(idx.actual_labels),
        "color_db_size": color_db_size,
        "k_sigma": (color_db_size / db_size) if db_size else 0.0,
        "build_seconds": dict(idx.build_seconds),
    }


# -- persistence -----------------------------------------------------------


def save_index(idx: ColorIndex, path: str) -> None:
    """Versioned binary file: magic, JSON meta, then raw little-endian int64
    blocks (schema, intern table, relations, colouring, per-label counts,
    colour-db tuples).  Lazily memoized hat tables are not persisted.
    """
    arrays: list[np.ndarray] = []
    meta: dict = {
        "format": FORMAT_VERSION,
        "constants": idx.db.constants,
        "num_colors": idx.num_colors,
        "build_seconds": idx.build_seconds,
        "relations": [],
        "labels": [],
        "color_db": [],
        "arrays": [],
    }

    def put(name: str, arr: np.ndarray) -> None:
        arr = np.ascontiguousarray(arr, dtype=np.int64)
        meta["arrays"].append({"name": name, "shape": list(arr.shape)})
        arrays.append(arr)

    for sym in idx.db.schema.symbols:
        ar = idx.db.schema.arity(sym)
        tups = sorted(idx.db.tuples(sym))
        meta["relations"].append({"name": sym, "arity": ar})
        put(f"rel:{sym}", np.array(tups, dtype=np.int64).reshape(len(tups), ar))
    put("coloring", idx.coloring.color_of)
    for lab in idx.actual_labels:
        items = sorted(idx._exact_counts[lab].items())
        meta["labels"].append({"pairs": [list(p) for p in lab.pairs]})
        put(f"count:{lab}", np.array(
            [(c, c2, n) for (c, c2), n in items], dtype=np.int64).reshape(len(items), 3))
    for sym in idx.color_db.schema.symbols:
        ar = idx.color_db.schema.arity(sym)
        tups = sorted(idx.color_db.tuples(sym))
        meta["color_db"].append({"name": sym, "arity": ar})
        put(f"cdb:{sym}", np.array(tups, dtype=np.int64).reshape(len(tups), ar))

    payload = json.dumps(meta).encode("utf-8")
    with open(path, "wb") as out:
        out.write(MAGIC)
        out.write(struct.pack("<IQ", FORMAT_VERSION, len(payload)))
        out.write(payload)
        for arr in arrays:
            out.write(arr.tobytes())


def load_index(path: str) -> ColorIndex:
    with open(path, "rb") as f:
        data = memoryview(f.read())
    magic = bytes(data[:4])
    if magic != MAGIC:
        raise ColorcqError(f"{path}: not an index file (bad magic {magic!r})")
    pos = len(MAGIC)

    def take(size: int, what: str) -> memoryview:
        nonlocal pos
        if size < 0 or pos + size > len(data):
            raise ColorcqError(f"{path}: truncated index file ({what})")
        pos += size
        return data[pos - size:pos]

    version, meta_len = struct.unpack("<IQ", take(12, "header"))
    if version != FORMAT_VERSION:
        raise ColorcqError(f"{path}: unsupported index format version {version}")
    try:
        meta = json.loads(bytes(take(meta_len, "metadata")).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ColorcqError(f"{path}: corrupt index metadata ({e})") from None
    blobs: dict[str, np.ndarray] = {}
    for entry in meta["arrays"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        raw = take(count * 8, f"array {entry['name']}")
        blobs[entry["name"]] = np.frombuffer(raw, dtype=np.int64).reshape(shape)

    schema = Schema((r["name"], r["arity"]) for r in meta["relations"])
    db = Database(schema, constants=meta["constants"])
    for r in meta["relations"]:
        arr = blobs[f"rel:{r['name']}"]
        db.relations[r["name"]] = {tuple(int(x) for x in row) for row in arr}

    d1, s1 = encode_self_loops(db)
    g = build_labeled_graph(d1, s1)
    coloring = _as_coloring(blobs["coloring"].copy())

    preloaded: dict[EdgeLabel, dict[tuple[int, int], int]] = {}
    for entry in meta["labels"]:
        lab = EdgeLabel(tuple(p) for p in entry["pairs"])
        rows = blobs[f"count:{lab}"]
        preloaded[lab] = {(int(a), int(b)): int(n) for a, b, n in rows}
    return ColorIndex(db, d1, s1, g, coloring, dict(meta["build_seconds"]), preloaded)
