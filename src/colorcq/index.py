"""The colour index: everything the evaluation phase needs, built once per db.

Components: the loop-free database and its labeled graph; the coarsest stable
colouring (with class member lists and sizes n_c); per-label successor tables
N̂→^λ(v,c) and class-pair counts #̂→^λ(c,c′); and the colour database — a
relational instance over the colours with one unary relation per unary symbol
and one binary relation E_λ per edge label λ, holding (c,c′) iff some (hence
every) vertex of colour c has a λ-superset edge to a vertex of colour c′.

All tables come from one class-major sort of the directed edges, by (label,
source colour, source, target colour), which also checks that the colouring
is stable.  Stability fixes where each successor group sits, so a label's
table is one flat target list with an offset and a stride per class pair
(`SuccTable`).  The hat tables (union over the actual labels ⊇ λ) of the
actual labels are built with the index, the others on first use; all are
memoized (thread-safe; concurrent first calls compute identical values).
The colour database materializes E_λ for the downward closure of the actual
labels (any other label has empty semantics by construction) and seeds the
sorted count rows per label that the evaluation layer reads as arrays.
"""
from __future__ import annotations

import json
import math
import struct
import time
import weakref
import zlib
from bisect import bisect_left
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .graph import (
    EdgeLabel,
    LabeledGraph,
    Sigma1,
    _bounds,
    _pack,
    build_labeled_graph,
    e_symbol,
    encode_self_loops,
    label_id,
    label_of,
)
from .model import ColorcqError, Database, Schema, _heads, _keys
from .refine import Coloring, _as_coloring, refine

MAGIC = b"CCQX"
FORMAT_VERSION = 3

_EMPTY = np.zeros(0, dtype=np.int64)

# hard cap on closure materialization; hit only by adversarial schemas where
# one vertex pair is related by very many symbols at once
_CLOSURE_CAP = 1 << 20


class PairRows(NamedTuple):
    """The pairs (a, b) of one label, sorted, with a count n per pair (None
    where only the pairs matter); the b's of a are b[ptr[a]:ptr[a + 1]], with
    `ptr` a memoryview.  Per a, `deg` sums n (counts the pairs if n is None)
    and `has` is deg > 0; in `ColorIndex.rows`, deg(c) = d̂^λ(c) = Σ_c′
    #̂→^λ(c,c′), the λ-degree stability gives every member of class c.
    `cnt` counts the pairs per a (the sweep's support counts start there)."""

    a: np.ndarray
    b: np.ndarray
    n: np.ndarray | None
    ptr: memoryview
    deg: np.ndarray
    has: np.ndarray
    cnt: np.ndarray


def pair_rows(a: np.ndarray, b: np.ndarray, n: np.ndarray | None, size: int) -> PairRows:
    """PairRows of pairs sorted by (a, b) over the ids 0..size-1."""
    deg = np.bincount(a, n, size).astype(np.int64)  # exact: a degree is at most |adom| + 1
    ptr = np.searchsorted(a, np.arange(size + 1))
    return PairRows(a, b, n, memoryview(ptr), deg, deg > 0, deg if n is None else np.diff(ptr))


class SuccTable(NamedTuple):
    """Successor table of one label λ, aligned with the pairs of `rows[λ]`.

    `nbr` holds the targets of the λ-edges sorted by (source colour, source,
    target colour, target).  By stability, every member of class c has own[j]
    λ-successors in class c′, for pair j = (c, c′), so the member of rank r
    finds them at nbr[lo[j] + r·stride[j]:][:own[j]].  `loops` holds the pairs
    (c, c) whose class loops over λ.  The enumeration reads single elements,
    which costs less on Python lists than on arrays.
    """

    nbr: list[int]
    lo: list[int]
    stride: list[int]
    own: list[int]
    loops: frozenset[int]


class _Memo(dict):
    """A dict that makes a missing key's value with `make` and keeps it, so a
    warm lookup runs no Python code; concurrent first lookups make equal values.
    `make` is held weakly: a memo of its owner's method makes no cycle."""

    __slots__ = ("make",)

    def __init__(self, make):
        super().__init__()
        self.make = weakref.WeakMethod(make)

    def __missing__(self, key):
        return self.setdefault(key, self.make()(key))


class ColorIndex:
    def __init__(
        self,
        db: Database,
        d1: Database,
        s1: Sigma1,
        g: LabeledGraph,
        coloring: Coloring,
        build_seconds: dict[str, float],
    ):
        self.db = db
        self.d1 = d1
        self.s1 = s1
        self.g = g
        self.coloring = coloring
        self.build_seconds = dict(build_seconds)
        # the lookups, memoized per label id (`rows`, `tables`) and per unary symbol set
        self.rows, self.tables = _Memo(self._make_rows), _Memo(self._make_table)
        self.unary_colors = _Memo(self._make_flags)
        t0 = time.perf_counter()
        self._build_tables()
        self._build_color_db()
        for lab in self.actual_labels:
            self.tables[lab.id] = self._make_table(lab.id)
        self.build_seconds["tables"] = time.perf_counter() - t0

    # -- construction ------------------------------------------------------

    def _build_tables(self) -> None:
        g, col = self.g, self.coloring
        self.n_c = col.sizes
        self.num_colors = col.num_colors
        self.actual_labels: tuple[EdgeLabel, ...] = g.labels

        # vertex labels and data self-loops must be uniform within a class,
        # so one representative per class stands for all of its members
        color_vl = g.vl_id[col.order[col.bounds[:-1]]]
        if (g.vl_id != color_vl[col.color_of]).any():
            raise ColorcqError("unstable colouring: a class mixes vertex labels")
        self._color_vl = color_vl

        # the directed edges sorted class-major: by (label, source colour,
        # source, target colour); the stable sort keeps targets ascending
        src = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.indptr))
        place = np.empty(g.n, np.int64)  # a vertex's place in the class-major order
        place[col.order] = np.arange(g.n)
        key = _pack(_pack(g.elab, place[src]), col.color_of[g.nbr])
        order = np.argsort(key, kind="stable")
        key, lab, src, nbr = key[order], g.elab[order], src[order], g.nbr[order]
        tgt = col.color_of[nbr]

        # stability: in each segment (label λ, class c), the groups (one per
        # source and target colour) must repeat the first member's run of
        # (target colour, count) n_c times; target colours ascend within a
        # member, so each repeat is a member of its own
        grp = _bounds(key)
        size, grp = np.diff(grp), grp[:-1]
        glab, gtgt, gcol = lab[grp], tgt[grp], col.color_of[src[grp]]
        seg = _bounds(_pack(glab, gcol))
        blk = _bounds(_pack(glab, src[grp]))
        seg_len, seg = np.diff(seg), seg[:-1]
        width = np.diff(blk)[np.searchsorted(blk, seg)]  # groups per member
        sid = np.repeat(np.arange(len(seg)), seg_len)
        ref = seg[sid] + (np.arange(len(grp)) - seg[sid]) % width[sid]
        if ((seg_len != width * self.n_c[gcol[seg]]).any()
                or (gtgt != gtgt[ref]).any() or (size != size[ref]).any()):
            raise ColorcqError("unstable colouring: uneven class counts")
        first = np.flatnonzero(ref == np.arange(len(grp)))  # the first member's groups

        bounds = np.searchsorted(lab, np.arange(len(self.actual_labels) + 1)).tolist()
        row_bounds = np.searchsorted(glab[first], np.arange(len(self.actual_labels) + 1)).tolist()
        self._edges = (bounds, place[src], tgt, nbr)
        rows = (gcol[first], gtgt[first], size[first])
        self._count_rows = [tuple(x[row_bounds[lid]:row_bounds[lid + 1]] for x in rows)
                            for lid in range(len(self.actual_labels))]

    def _build_color_db(self) -> None:
        g = self.g
        budget = _CLOSURE_CAP
        # closure label id -> numbers of the actual labels that contain it; a
        # label outside the closure is contained in no actual label
        self._supers: dict[int, list[int]] = {}
        for i, lab in enumerate(self.actual_labels):
            pairs = lab.pairs
            budget -= 1 << len(pairs)
            if budget < 0:
                raise ColorcqError("edge-label closure too large to materialize")
            for r in range(1, len(pairs) + 1):
                for sub in combinations(pairs, r):  # sorted and distinct, as `pairs`
                    self._supers.setdefault(label_id(sub), []).append(i)

        schema = Schema((u, 1) for u in g.unary_symbols)
        elabels = sorted(map(label_of, self._supers), key=lambda lab: (len(lab.pairs), lab.pairs))
        self.closure_symbols: dict[EdgeLabel, str] = {}
        for lab in elabels:
            name = e_symbol(lab)
            schema.add(name, 2)
            self.closure_symbols[lab] = name

        cdb = Database(schema, constants=map(str, range(self.num_colors)))
        for u in g.unary_symbols:
            cdb.set_relation(u, np.flatnonzero(self.unary_colors[frozenset((u,))])[:, None])
        for lab, name in self.closure_symbols.items():
            # the closure entries are exactly the hat counts; seed the row
            # memo so queries never pay a first-use merge
            hat = self._hat_count_rows(lab.id)
            cdb.set_relation(name, np.stack(hat[:2], axis=1))
            self.rows[lab.id] = self._make_rows(lab.id, hat)
        self.color_db = cdb

    # -- lookups -----------------------------------------------------------

    def _hat_count_rows(self, lid: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(c, c′, #̂→^λ(c,c′)) for the class pairs with a positive count, sorted."""
        parts = [self._count_rows[i] for i in self._supers.get(lid, ())]
        return _merge_rows(parts, self.num_colors) if parts else (_EMPTY, _EMPTY, _EMPTY)

    def _make_rows(self, lid: int, hat: tuple[np.ndarray, ...] | None = None) -> PairRows:
        """The loop-augmented counts of the label λ of id `lid`, sorted by (c, c′):
        #̂→^λ(c,c′) where it is positive, plus one on (c, c) for every class c
        that loops over λ (see `loop_cover_array`)."""
        hat = self._hat_count_rows(lid) if hat is None else hat
        diag = np.flatnonzero(self.loop_cover_array(label_of(lid)))
        if len(diag):
            hat = _merge_rows([hat, (diag, diag, np.ones(len(diag), np.int64))], self.num_colors)
        return pair_rows(*hat, self.num_colors)

    def _make_table(self, lid: int) -> SuccTable:
        bounds, place, tgt, nbr = self._edges
        segs = [slice(bounds[i], bounds[i + 1]) for i in self._supers.get(lid, ())]
        # the labels partition the edges; merge their class-major runs (one
        # label's run is already in (place, target colour, target) order)
        w = np.concatenate([nbr[x] for x in segs] + [_EMPTY])
        if len(segs) > 1:
            p, t = (np.concatenate([a[x] for x in segs]) for a in (place, tgt))
            w = w[np.argsort(_pack(_pack(p, t), w), kind="stable")]
        rows, cover = self.rows[lid], self.loop_cover_array(label_of(lid))
        loops = (rows.a == rows.b) & cover[rows.a]
        own = rows.n - loops
        deg = rows.deg - cover  # per member of c, not counting itself
        start = np.cumsum(self.n_c * deg) - self.n_c * deg  # where each class begins
        lo = start[rows.a] + (np.cumsum(own) - own) - (np.cumsum(deg) - deg)[rows.a]
        return SuccTable(w.tolist(), lo.tolist(), deg[rows.a].tolist(), own.tolist(),
                         frozenset(np.flatnonzero(loops).tolist()))

    def _pair(self, lab: EdgeLabel, c: int, c2: int) -> int | None:
        """The number of the pair (c, c2) in `rows[λ]`, or None."""
        if not (0 <= c < self.num_colors and 0 <= c2 < self.num_colors):
            raise ColorcqError(f"unknown color id in ({c}, {c2})")
        rows = self.rows[lab.id]
        j = bisect_left(rows.b, c2, rows.ptr[c], rows.ptr[c + 1])
        return j if j < rows.ptr[c + 1] and rows.b[j] == c2 else None

    def succ(self, lab: EdgeLabel, v: int, c: int) -> list[int]:
        """N̂→^λ(v,c) as an ascending list of vertex indices (v is a vertex
        index, c a colour id)."""
        if not 0 <= v < self.g.n:
            raise ColorcqError(f"unknown vertex {v}")
        j = self._pair(lab, int(self.coloring.color_of[v]), c)
        if j is None:
            return []
        t = self.tables[lab.id]
        at = t.lo[j] + self.coloring.rank[v] * t.stride[j]
        return t.nbr[at:at + t.own[j]]

    def _make_flags(self, symbols: frozenset[str]) -> np.ndarray:
        """Read-only per-colour flags: do the class members carry every symbol?"""
        need = sum(1 << self.g._uidx[u] for u in symbols)  # the `label_masks` bits of the set
        has = np.array([m & need == need for m in self.g.label_masks], dtype=bool)
        arr = has[self._color_vl]
        arr.flags.writeable = False
        return arr

    def loop_cover_array(self, lab: EdgeLabel) -> np.ndarray:
        """Per-color flags: does every class member carry a self-loop for every
        relation mentioned in λ?  Such a vertex is its own λ-superset neighbour
        under the loop-augmented semantics used by the evaluation layer.
        """
        return self.unary_colors[frozenset(self.s1.loop_symbol[r] for r, _ in lab.pairs)]


def _merge_rows(parts, ncol: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sum count rows (c, c′, n) over equal (c, c′); the result is sorted."""
    if len(parts) == 1:
        return parts[0]
    c, c2, n = (np.concatenate(x) for x in zip(*parts))
    pair, inv = np.unique(c * ncol + c2, return_inverse=True)
    total = np.zeros(len(pair), np.int64)
    np.add.at(total, inv, n)
    return pair // ncol, pair % ncol, total


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
    """Versioned binary file: magic, format version, the CRC-32 of the rest of
    the file, the length of the JSON metadata (constant count and block size,
    schema, array shapes), the metadata, the constants as one UTF-8 block of
    `\\n`-ended lines (a constant that holds `\\n` or is not UTF-8 raises
    ColorcqError), then little-endian int64 blocks: the sorted (m, arity) rows
    of each relation, then the colouring.  The rest is derived again on load.
    """
    consts = idx.db.constants
    try:
        block = "\n".join([*consts, ""]).encode("utf-8")
    except (TypeError, UnicodeEncodeError) as e:
        raise ColorcqError(f"cannot save the constants ({e})") from None
    if block.count(b"\n") != len(consts):
        raise ColorcqError("cannot save a constant that holds a line break")
    schema = idx.db.schema
    named = {f"rel:{sym}": idx.db.array(sym) for sym in schema.symbols}
    named["coloring"] = idx.coloring.color_of
    arrays = [np.ascontiguousarray(arr, dtype="<i8") for arr in named.values()]
    meta = {"constants": len(consts), "constant_bytes": len(block),
            "relations": [{"name": sym, "arity": schema.arity(sym)} for sym in schema.symbols],
            "arrays": [{"name": n, "shape": list(arr.shape)} for n, arr in zip(named, arrays)]}
    payload = json.dumps(meta).encode("utf-8")
    body = b"".join([struct.pack("<I", len(payload)), payload, block, *arrays])
    with open(path, "wb") as out:
        out.write(MAGIC + struct.pack("<II", FORMAT_VERSION, zlib.crc32(body)))
        out.write(body)


def _check_meta(meta, path: str) -> None:
    """Raise ColorcqError unless `meta` has the keys and types save_index writes."""

    def bad(what: str):
        raise ColorcqError(f"{path}: corrupt index metadata ({what})")

    if not isinstance(meta, dict):
        bad("not an object")
    for key in ("constants", "constant_bytes"):
        if not (type(meta.get(key)) is int and 0 <= meta[key] < 1 << 62):
            bad(f"{key!r} is missing or not a count")
    for key in ("relations", "arrays"):
        if not isinstance(meta.get(key), list):
            bad(f"{key!r} is missing or not a list")
    for r in meta["relations"]:
        if not (isinstance(r, dict) and isinstance(r.get("name"), str)
                and type(r.get("arity")) is int and r["arity"] in (1, 2)):
            bad(f"bad relation entry {r!r}")
    names = set()
    for a in meta["arrays"]:
        if not (isinstance(a, dict) and isinstance(a.get("name"), str)
                and isinstance(a.get("shape"), list) and len(a["shape"]) <= 2
                and all(type(x) is int and 0 <= x < 1 << 62 for x in a["shape"])):
            bad(f"bad array entry {a!r}")
        if a["name"] in names:
            bad(f"array {a['name']!r} listed twice")
        names.add(a["name"])
    shapes = {a["name"]: a["shape"] for a in meta["arrays"]}
    for r in meta["relations"]:
        shape = shapes.get(f"rel:{r['name']}")
        if shape is None or len(shape) != 2 or shape[1] != r["arity"]:
            bad(f"no (m, {r['arity']}) array for relation {r['name']!r}")
    if len(shapes.get("coloring", ())) != 1:
        bad("no colouring array")


def _read_constants(block: memoryview, count: int, path: str) -> list[str]:
    """The constants of a block of `count` distinct `\\n`-ended UTF-8 lines."""
    what = f"{path}: corrupt constants block"
    try:
        names = str(block, "utf-8").split("\n")
    except UnicodeDecodeError as e:
        raise ColorcqError(f"{what} (not UTF-8: {e})") from None
    if names.pop() or len(names) != count:
        raise ColorcqError(f"{what} (not {count} lines, each ended by a line break)")
    if count:
        buf = np.frombuffer(bytes(block) + bytes(7), np.uint8)  # _keys reads 7 bytes past a line
        ends = np.flatnonzero(buf == ord("\n")) + 1
        # each line is keyed with its line break, so no two differ by trailing NULs only
        for _, key in _keys(buf, np.append(0, ends[:-1]), np.diff(ends, prepend=0)):
            if not _heads(np.sort(key) if key.ndim == 1 else key[np.lexsort(key.T)]).all():
                raise ColorcqError(f"{what} (repeated constant)")
    return names


def load_index(path: str) -> ColorIndex:
    """Read a file written by `save_index` and derive the index from it.

    Graph, tables and colour database are rebuilt with the same code as
    `build_index`, which also checks that the stored colouring is stable;
    only refinement is skipped.
    """
    t0 = time.perf_counter()
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

    (version,) = struct.unpack("<I", take(4, "header"))
    if version != FORMAT_VERSION:
        raise ColorcqError(f"{path}: unsupported index format version {version}"
                           f" (this build reads version {FORMAT_VERSION}; rebuild the index)")
    crc, meta_len = struct.unpack("<II", take(8, "header"))
    if zlib.crc32(data[pos - 4:]) != crc:  # all that follows the checksum
        raise ColorcqError(f"{path}: checksum mismatch (the index file is damaged or truncated)")
    try:
        meta = json.loads(bytes(take(meta_len, "metadata")).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        raise ColorcqError(f"{path}: corrupt index metadata ({e})") from None
    _check_meta(meta, path)
    constants = _read_constants(take(meta["constant_bytes"], "constants"), meta["constants"], path)
    blobs: dict[str, np.ndarray] = {}
    for entry in meta["arrays"]:
        shape = tuple(entry["shape"])
        raw = take(math.prod(shape) * 8, f"array {entry['name']}")
        blobs[entry["name"]] = np.frombuffer(raw, dtype="<i8").astype(np.int64).reshape(shape)
    if pos != len(data):
        raise ColorcqError(f"{path}: {len(data) - pos} unexpected bytes after the arrays")

    try:
        db = Database(Schema((r["name"], r["arity"]) for r in meta["relations"]))
        db.constants = constants  # distinct, as checked above
        for r in meta["relations"]:
            db.set_relation(r["name"], blobs[f"rel:{r['name']}"])
    except ColorcqError as e:
        raise ColorcqError(f"{path}: {e}") from None

    times = {"load": time.perf_counter() - t0}

    t0 = time.perf_counter()
    d1, s1 = encode_self_loops(db)
    g = build_labeled_graph(d1, s1)
    times["graph"] = time.perf_counter() - t0
    raw = blobs["coloring"]
    if len(raw) != g.n or (g.n and (raw.min() < 0 or raw.max() >= g.n)):
        raise ColorcqError(f"{path}: the colouring does not fit the {g.n} vertices")
    return ColorIndex(db, d1, s1, g, _as_coloring(raw), times)
