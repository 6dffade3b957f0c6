"""The colour index: everything the evaluation phase needs, built once per db.

Components: the loop-free database and its labeled graph; the coarsest stable
colouring (with its class members and sizes n_c); per-label successor tables
N̂→^λ(v,c) and class-pair counts #̂→^λ(c,c′); and the colour database — a
relational instance over the colours with one unary relation per unary symbol
and one binary relation E_λ per edge label λ, holding (c,c′) iff some (hence
every) vertex of colour c has a λ-superset edge to a vertex of colour c′.

All tables come from the class-major edges: per label, the targets sorted by
(source colour, source, target colour, target) and per class the λ-degree,
which stability gives every member; a build sorts them out of the graph, a
load reads them.  So a label's table is one read-only view of the targets,
with an offset and a stride per class pair (`SuccTable`): no Python list per
vertex or edge.  The hat tables (union over the actual labels ⊇ λ) and the
count rows, which evaluation reads as arrays, of the actual labels are built
with the index, those of any other label on first use; all are memoized by
`EdgeLabel`, which is interned, so a warm lookup is one dict get (thread-safe;
concurrent first calls compute identical values).  Nothing is made per label
of the downward closure of the actual labels but the colour database, which
materializes E_λ for each (any other label has empty semantics), on first read.
Parsed or loaded, the base database keeps its constants as the file's block, undecoded.
"""
from __future__ import annotations

import json
import math
import struct
import time
import weakref
import zlib
from bisect import bisect_left
from functools import cached_property, partial
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .graph import (BWD, FWD, EdgeLabel, LabeledGraph, Sigma1, Vertices, _bounds, _pack, _sort_rows,
                    build_labeled_graph, e_symbol, encode_self_loops, label_of, sigma1_for)
from .model import ColorcqError, Database, Schema, _keys, _ranges
from .refine import Coloring, _coloring, refine

MAGIC = b"CCQX"
FORMAT_VERSION = 4

_EMPTY = np.zeros(0, dtype=np.int64)

# hard cap on the closure that `color_db` materializes on first read; hit only
# by adversarial schemas where one vertex pair is related by very many symbols
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
    (c, c) whose class loops over λ.  `nbr` is a read-only `memoryview`, so an
    item reads as a Python int and no Python object is made per edge.
    """

    nbr: memoryview
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
    def __init__(self, db: Database, d1: Database, s1: Sigma1, g: Vertices, coloring: Coloring,
                 build_seconds: dict[str, float], edges: tuple | None = None):
        """The index of `g` under the stable `coloring`, from its class-major `edges`
        (labels, degree rows, targets): checked when given, sorted out of the
        LabeledGraph `g` when None."""
        self.db, self.d1, self.s1, self.g, self.coloring = db, d1, s1, g, coloring
        self.build_seconds = dict(build_seconds)
        # the lookups, memoized per label (`rows`, `tables`) and per set of λ_x atoms
        self.rows, self.tables = _Memo(self._make_rows), _Memo(self._make_table)
        self.unary_colors = _Memo(self._make_flags)
        # enumeration's views of the class members and vertex -> constant id (None: identity)
        self.members = memoryview(coloring.order)
        self.const_of = None if not g.n or g.verts[-1] == g.n - 1 else memoryview(g.verts).toreadonly()
        t0 = time.perf_counter()
        self._build_tables(*(edges or _class_major(g, coloring)))
        for lab in self.actual_labels:
            self.tables[lab] = self._make_table(lab)
        self.build_seconds["tables"] = time.perf_counter() - t0

    # -- construction ------------------------------------------------------

    def _build_tables(self, labels: tuple[EdgeLabel, ...], degrees: np.ndarray, nbr: np.ndarray,
                      sources: np.ndarray | None = None) -> None:
        g, col = self.g, self.coloring
        self.n_c, self.num_colors, self.actual_labels = col.sizes, col.num_colors, labels
        self._degrees = degrees
        nbr.flags.writeable = False  # the successor tables hold views of it

        # vertex labels and data self-loops must be uniform within a class,
        # so one representative per class stands for all of its members
        color_vl = g.vl_id[col.order[col.bounds[:-1]]]
        if (g.vl_id != color_vl[col.color_of]).any():
            raise ColorcqError("unstable colouring: a class mixes vertex labels")
        self._color_vl = color_vl

        # a row (λ, c, d) of `degrees` gives each member of class c, in class-major
        # order, its d λ-targets from `nbr` in turn; so the rows place every source
        lab, cls, deg = degrees.T
        size = self.n_c[cls]
        ends = np.append(0, np.cumsum(size * deg))  # where each row's targets begin, then end
        src = _ranges(np.array(col.bounds)[cls], size).repeat(deg.repeat(size))  # source places
        at = ends[np.searchsorted(lab, np.arange(len(labels) + 1))]  # each label's first edge, then the end
        if sources is None:  # edges read from a file: checked before use
            _check_pairs(labels, at, src, nbr, col.order)

        # stability: each member has its row's degree (so the `sources` of a sort
        # match), and the colours of its targets repeat those of the member
        # before it (d targets back), so all repeat the first member's
        uneven = "unstable colouring: uneven class counts"
        _need(sources is None or np.array_equal(src, sources), uneven)
        tgt, first, back = col.color_of[nbr], _ranges(ends[:-1], deg), np.arange(len(nbr))
        back -= deg.repeat(size * deg)
        back[first] = first
        _need(np.array_equal(tgt[back], tgt), uneven)

        # the count rows (c, c′, #̂→^λ(c,c′)) per label: the first member's
        # targets per target colour
        flab, fcls, ftgt = lab.repeat(deg), cls.repeat(deg), tgt[first]
        grp = _bounds(flab, fcls, ftgt)
        cut = np.searchsorted(flab[grp[:-1]], np.arange(len(labels) + 1)).tolist()
        rows = (fcls[grp[:-1]], ftgt[grp[:-1]], np.diff(grp))
        self._count_rows = [tuple(x[cut[i]:cut[i + 1]] for x in rows) for i in range(len(labels))]
        self._edges = (at.tolist(), src, tgt, nbr)
        self._holders: dict[tuple[str, str], set[int]] = {}  # a pair -> the actual labels that hold it
        for i, label in enumerate(labels):
            for pair in label.pairs:
                self._holders.setdefault(pair, set()).add(i)

    # -- lookups -----------------------------------------------------------

    def _supers(self, lab: EdgeLabel) -> list[int]:
        """The numbers of the actual labels whose pairs contain those of `lab`, ascending."""
        each = sorted((self._holders.get(pair, set()) for pair in lab.pairs), key=len)
        return sorted(each[0].intersection(*each[1:]))

    def _make_rows(self, lab: EdgeLabel) -> PairRows:
        """The loop-augmented counts of the label λ `lab`, sorted by (c, c′), in one merge:
        #̂→^λ(c,c′), summed over the actual labels ⊇ λ, where it is positive, plus one
        on (c, c) for every class c that loops over λ (see `loop_cover_array`)."""
        diag = np.flatnonzero(self.loop_cover_array(lab))
        parts = [self._count_rows[i] for i in self._supers(lab)] + [(diag, diag, np.ones_like(diag))]
        return pair_rows(*_merge_rows(parts, self.num_colors), self.num_colors)

    def _make_table(self, lab: EdgeLabel) -> SuccTable:
        bounds, place, tgt, nbr = self._edges
        segs = [slice(bounds[i], bounds[i + 1]) for i in self._supers(lab)]
        # the labels partition the edges; merge their class-major runs (one label's run is already
        # in (place, target colour, target) order): a stable sort merges few runs faster than `_sort_rows`
        w = nbr[segs[0]] if len(segs) == 1 else np.concatenate([nbr[x] for x in segs] + [_EMPTY])
        if len(segs) > 1:
            p, t = (np.concatenate([a[x] for x in segs]) for a in (place, tgt))
            w = w[np.argsort(_pack(_pack(p, t), w), kind="stable")]
        w.flags.writeable = False
        rows, cover = self.rows[lab], self.loop_cover_array(lab)
        loops = (rows.a == rows.b) & cover[rows.a]
        own = rows.n - loops
        deg = rows.deg - cover  # per member of c, not counting itself
        start = np.cumsum(self.n_c * deg) - self.n_c * deg  # where each class begins
        lo = start[rows.a] + (np.cumsum(own) - own) - (np.cumsum(deg) - deg)[rows.a]
        return SuccTable(memoryview(w), lo.tolist(), deg[rows.a].tolist(), own.tolist(),
                         frozenset(np.flatnonzero(loops).tolist()))

    def succ(self, lab: EdgeLabel, v: int, c: int) -> list[int]:
        """N̂→^λ(v,c) as an ascending list of vertex indices (v is a vertex
        index, c a colour id)."""
        if not 0 <= v < self.g.n:
            raise ColorcqError(f"unknown vertex {v}")
        cv = int(self.coloring.color_of[v])
        if not 0 <= c < self.num_colors:
            raise ColorcqError(f"unknown color id in ({cv}, {c})")
        rows = self.rows[lab]
        j = bisect_left(rows.b, c, rows.ptr[cv], rows.ptr[cv + 1])  # the pair (cv, c) in `rows[λ]`
        if j == rows.ptr[cv + 1] or rows.b[j] != c:
            return []
        t = self.tables[lab]
        at = t.lo[j] + self.coloring.rank[v] * t.stride[j]
        return t.nbr[at:at + t.own[j]].tolist()

    def _make_flags(self, atoms: frozenset[tuple[str, int]]) -> np.ndarray:
        """Read-only per-colour flags: do the class members carry every atom?
        (U, 1) is the unary symbol U and (R, 2) R's loop symbol in the index's Σ1,
        where U is unary and R binary in its base schema; no class carries another atom."""
        arity, loop, uidx = self.s1.base._arity, self.s1.loop_symbol, self.g._uidx
        syms = {u if n == 1 else loop.get(u) for u, n in atoms if arity.get(u) == n}
        if len(syms) == len(atoms) and syms <= uidx.keys():  # not a symbol added after the build
            need = sum(1 << uidx[u] for u in syms)  # the `label_masks` bits of the set
            has = np.array([m & need == need for m in self.g.label_masks], dtype=bool)
        else:
            has = np.zeros(len(self.g.label_masks), dtype=bool)
        arr = has[self._color_vl]
        arr.flags.writeable = False
        return arr

    def loop_cover_array(self, lab: EdgeLabel) -> np.ndarray:
        """Per-color flags: does every class member carry a self-loop for every
        relation mentioned in λ?  Such a vertex is its own λ-superset neighbour
        under the loop-augmented semantics used by the evaluation layer.
        """
        return self.unary_colors[frozenset((r, 2) for r, _ in lab.pairs)]

    @cached_property
    def closure_symbols(self) -> dict[EdgeLabel, str]:
        """The symbol E_λ of each label λ in the closure of the actual labels, by size, then pairs."""
        budget, closure = _CLOSURE_CAP, set()
        for lab in self.actual_labels:
            budget -= 1 << len(lab.pairs)
            _need(budget >= 0, "edge-label closure too large to materialize")
            for r in range(1, len(lab.pairs) + 1):
                closure.update(map(label_of, combinations(lab.pairs, r)))  # sorted and distinct, as `pairs`
        return {lab: e_symbol(lab) for lab in sorted(closure, key=lambda lab: (len(lab.pairs), lab.pairs))}

    @cached_property
    def color_db(self) -> Database:
        """Colour c is the constant "c"; U holds on the classes whose members carry U,
        and E_λ, for λ in `closure_symbols`, on the (c, c′) with #̂→^λ(c,c′) > 0."""
        cdb = Database(Schema((u, 1) for u in self.g.unary_symbols), map(str, range(self.num_colors)))
        for u, rows in zip(self.g.unary_symbols, self.g.unary):
            cdb.set_relation(u, self.coloring.color_of[rows][:, None])
        for lab, name in self.closure_symbols.items():
            cdb.schema.add(name, 2)
            hat = _merge_rows([self._count_rows[i] for i in self._supers(lab)], self.num_colors)
            cdb.set_relation(name, np.stack(hat[:2], axis=1))
        return cdb


def _merge_rows(parts, ncol: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sum count rows (c, c′, n) over equal (c, c′) in one merge of the parts'
    sorted runs (a stable argsort), empty parts dropped; the result is sorted."""
    parts = [p for p in parts if len(p[0])]
    if len(parts) < 2:
        return parts[0] if parts else (_EMPTY, _EMPTY, _EMPTY)
    c, c2, n = (np.concatenate(x) for x in zip(*parts))
    by = np.argsort(c * ncol + c2, kind="stable")
    at = _bounds(c[by], c2[by])[:-1]
    return c[by[at]], c2[by[at]], np.add.reduceat(n[by], at)


def _class_major(g: LabeledGraph, col: Coloring) -> tuple:
    """g's labels, the rows (label number, class c, d) with d·n_c the label's
    edges out of c, and the targets and source places of the edges sorted by
    (label, source place, target colour, target); a place is a position in `col.order`.
    One `_sort_rows` sorts the edges: a vertex has one edge per neighbour, so no two rows are equal."""
    place = np.empty(g.n, np.int64)
    place[col.order] = np.arange(g.n)
    lab, src, _, nbr = _sort_rows(g.elab, place.repeat(np.diff(g.indptr)), col.color_of[g.nbr], g.nbr)
    color = col.color_of[col.order]  # the colour at each place
    blk = _bounds(lab, color[src])  # one block per (label, source class)
    head = blk[:-1]
    cls = color[src[head]]
    rows = np.stack([lab[head], cls, np.diff(blk) // col.sizes[cls]], axis=1)
    return g.labels, rows, nbr, src


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


def _need(ok, what: str) -> None:
    """Raise ColorcqError(what) unless `ok`."""
    if not ok:
        raise ColorcqError(what)


_DTYPES = ("|u1", "<u2", "<i4")  # the dtypes of the stored arrays, narrowest first


def _narrow(arr: np.ndarray) -> np.ndarray:
    """`arr`, whose values are >= 0, in the narrowest of `_DTYPES` that holds them."""
    top = int(arr.max(initial=0))
    _need(top < 1 << 31, "cannot save an index of 2^31 or more vertices")
    return np.ascontiguousarray(arr, dtype=_DTYPES[(top >> 8 > 0) + (top >> 16 > 0)])


def save_index(idx: ColorIndex, path: str) -> None:
    """Versioned binary file: magic, format version, CRC-32 of the rest, JSON
    metadata length and metadata, the constants as one block of `\\n`-ended UTF-8
    lines (the database's `block` as is, else its names encoded: ColorcqError for
    one with a `\\n` or, either way, not UTF-8), then the arrays, each in the narrowest
    of `_DTYPES`."""
    g, db = idx.g, idx.db
    try:
        if (block := db.block) is None:
            block = "\n".join([*db.constants, ""]).encode("utf-8")
            _need(block.count(b"\n") == db.num_constants, "cannot save a constant that holds a line break")
        elif not bytes(block).isascii():  # a parsed block keeps a lone surrogate as `surrogatepass` writes it
            str(block, "utf-8")
    except (TypeError, UnicodeError) as e:
        raise ColorcqError(f"cannot save the constants ({e})") from None
    named = {f"unary:{u}": rows for u, rows in zip(g.unary_symbols, g.unary)}
    if g.n != db.num_constants:  # else vertex i is constant i
        named["verts"] = g.verts
    named.update(order=idx.coloring.order, sizes=idx.n_c, degrees=idx._degrees, targets=idx._edges[3])
    arrays = [_narrow(arr) for arr in named.values()]
    meta = {"constants": db.num_constants, "constant_bytes": len(block),
            "relations": [{"name": sym, "arity": db.schema.arity(sym)} for sym in db.schema.symbols],
            "labels": [lab.pairs for lab in idx.actual_labels],
            "arrays": [{"name": n, "shape": list(arr.shape), "dtype": arr.dtype.str}
                       for n, arr in zip(named, arrays)]}
    payload = json.dumps(meta).encode("utf-8")
    body = b"".join([struct.pack("<I", len(payload)), payload, block, *arrays])
    with open(path, "wb") as out:
        out.write(MAGIC + struct.pack("<II", FORMAT_VERSION, zlib.crc32(body)))
        out.write(body)


def _check_meta(meta, path: str) -> None:
    """Raise ColorcqError unless `meta` has the keys and types save_index writes."""

    def need(ok, what: str) -> None:
        _need(ok, f"{path}: corrupt index metadata ({what})")

    need(isinstance(meta, dict), "not an object")
    for key in ("constants", "constant_bytes"):
        need(type(meta.get(key)) is int and 0 <= meta[key] < 1 << 62, f"{key!r} missing or not a count")
    for key in ("relations", "labels", "arrays"):
        need(isinstance(meta.get(key), list), f"{key!r} is missing or not a list")
    for r in meta["relations"]:
        need(isinstance(r, dict) and isinstance(r.get("name"), str) and type(r.get("arity")) is int
             and r["arity"] in (1, 2), f"bad relation entry {r!r}")
    binary = [r["name"] for r in meta["relations"] if r["arity"] == 2]
    for pairs in meta["labels"]:  # non-empty lists of (binary symbol, direction)
        need(isinstance(pairs, list) and pairs and all(
            isinstance(p, list) and len(p) == 2 and p[0] in binary and p[1] in (FWD, BWD) for p in pairs),
             f"bad edge label {pairs!r}")
    for a in meta["arrays"]:
        need(isinstance(a, dict) and isinstance(a.get("name"), str) and a.get("dtype") in _DTYPES
             and isinstance(a.get("shape"), list) and len(a["shape"]) <= 2
             and all(type(x) is int and 0 <= x < 1 << 62 for x in a["shape"]), f"bad array entry {a!r}")
    need(len({a["name"] for a in meta["arrays"]}) == len(meta["arrays"]), "an array listed twice")


def _check_constants(block: memoryview, count: int, path: str) -> memoryview:
    """Check that `block` is `count` distinct `\\n`-ended UTF-8 lines, decoding
    it only if it is not ASCII, and finding repeats by sorting the lines' exact
    `model._keys`; return a view of its copy that the check padded."""
    what, raw = f"{path}: corrupt constants block", b"".join((bytes(8), block))  # 8 bytes of padding
    if not raw.isascii():
        try:
            str(block, "utf-8")
        except UnicodeDecodeError as e:
            raise ColorcqError(f"{what} (not UTF-8: {e})") from None
    ends = np.flatnonzero(np.frombuffer(raw, np.uint8, offset=8) == 10)
    _need(len(ends) == count and (ends[-1] + 1 if count else 0) == len(block),
          f"{what} (not {count} lines, each ended by a break)")
    size = np.diff(ends, prepend=-1)
    size -= 1
    keys = _keys(raw, ends, size)  # exact: once sorted, equal neighbours are repeats
    keys.sort()
    _need(not (keys[1:] == keys[:-1]).any(), f"{what} (repeated constant)")
    return memoryview(raw)[8:]


def _within(arr: np.ndarray, top: int, ascending: bool = False) -> bool:
    """Do the values of `arr` lie in range(top), strictly increasing if `ascending`?"""
    return not len(arr) or bool(arr.min() >= 0 and arr.max() < top
                                and (not ascending or (arr[1:] > arr[:-1]).all()))


def _canonical(order: np.ndarray, sizes: np.ndarray) -> bool:
    """Is `order`, cut into classes of `sizes`, a permutation of range(len(order))
    with each class ascending and the classes in order of their least vertex?"""
    n = len(order)
    if (sizes < 1).any() or sizes.sum() != n or not _within(order, n):
        return False
    heads = np.cumsum(sizes) - sizes  # where each class begins
    up = order[1:] > order[:-1]
    up[heads[1:] - 1] = True
    once = np.bincount(order, minlength=n) == 1
    return bool(up.all() and once.all()) and _within(order[heads], n, ascending=True)


def _check_pairs(labels: tuple[EdgeLabel, ...], cut: np.ndarray, src: np.ndarray, nbr: np.ndarray,
                 order: np.ndarray) -> None:
    """Raise ColorcqError unless the edges (source place, target `nbr[i]`; label i's at
    cut[i]:cut[i + 1]), keyed by places in `order`, hold no loop, ascend strictly per label,
    hold each edge's reverse under the dual label, and hold no vertex pair under two labels."""
    n, number = len(order), {lab: i for i, lab in enumerate(labels)}
    # `refine` refuses such a graph, so no build wrote it; the keys are one int64 per vertex pair
    _need(len(labels) * n * n < 1 << 63, f"cannot check {n} vertices under {len(labels)} edge labels")
    place = np.empty(n, np.int64)
    place[order] = np.arange(n)
    pair, rev = np.multiply(src, n), place[nbr]  # rev: the target places, until the reverse keys
    pair += rev
    _need(not (src == rev).any(), "corrupt edges (a loop edge)")
    up = pair[1:] > pair[:-1]
    up[cut[1:-1] - 1] = True  # a label's first edge follows the last one of the label before it
    _need(up.all(), "corrupt edges (a label's edges not ascending by source, target)")
    rev *= n
    rev += src
    for i, lab in enumerate(labels):  # the reverses of label i's edges are its dual's edges
        j, mine = number.get(lab.dual()), rev[cut[i]:cut[i + 1]]
        mine.sort()
        _need(j is not None and np.array_equal(mine, pair[cut[j]:cut[j + 1]]),
              "corrupt edges (an edge's reverse not stored under the dual label)")
    pair.sort(kind="stable")  # merges the labels' ascending runs
    _need(not (pair[1:] == pair[:-1]).any(), "corrupt edges (a vertex pair stored under two labels)")


class _LazyRows(Database):
    """A Database whose rows, that `make(self)` returns, are made on first use."""

    def __init__(self, schema: Schema, constants: memoryview | Database, make):
        super().__init__(schema, constants)
        self._make = make

    _arrays = cached_property(lambda self: self._make(self))


def _base_rows(db: Database, g: Vertices, labels: tuple[EdgeLabel, ...], edges: tuple,
               order: np.ndarray, loops: dict[str, str]) -> dict[str, np.ndarray]:
    """The relations of a loaded index's base database `db` (`loops` its
    `loop_symbol`) or its loop-encoded one (`loops` empty): R(s, t) holds for
    every edge (s, t) whose label holds (R, +) and for every loop of R (in the
    base database); a unary relation holds on its rows of g."""
    bounds, src, _, nbr = edges
    out = Database(db.schema, db)  # shares db's constants, undecoded
    unary = dict(zip(g.unary_symbols, g.unary))
    for sym in db.schema.symbols:
        segs = [slice(*bounds[i:i + 2]) for i, lab in enumerate(labels) if (sym, FWD) in lab.pairs]
        loop = unary.get(loops.get(sym, sym), _EMPTY)  # a binary symbol's loops, a unary one's rows
        rows = np.stack([np.concatenate([loop, *(order[src[x]] for x in segs)]),
                         np.concatenate([loop, *(nbr[x] for x in segs)])], axis=1)
        out.set_relation(sym, g.verts[rows[:, :db.schema.arity(sym)]])
    return out._arrays


def load_index(path: str) -> ColorIndex:
    """Read and check a file written by `save_index`.  It holds the class-major
    edges: no graph is built, nothing refined, no edge array sorted but the
    keys of `_check_pairs`, which the constructor runs on them.
    The constants block is checked, not decoded: `idx.db` holds it (and writes
    it again as is), `idx.d1` shares it; both make their rows, and decode their
    one list of constants, on first use."""
    t0 = time.perf_counter()
    with open(path, "rb") as f:
        data = memoryview(f.read())
    magic = bytes(data[:4])
    _need(magic == MAGIC, f"{path}: not an index file (bad magic {magic!r})")
    pos = len(MAGIC)

    def take(size: int, what: str) -> memoryview:
        nonlocal pos
        _need(0 <= size <= len(data) - pos, f"{path}: truncated index file ({what})")
        pos += size
        return data[pos - size:pos]

    (version,) = struct.unpack("<I", take(4, "header"))
    _need(version == FORMAT_VERSION, f"{path}: unsupported index format version {version}"
          f" (this build reads version {FORMAT_VERSION}; rebuild the index)")
    crc, meta_len = struct.unpack("<II", take(8, "header"))
    crc_ok = zlib.crc32(data[pos - 4:]) == crc  # the checksum covers all that follows it
    _need(crc_ok, f"{path}: checksum mismatch (the index file is damaged or truncated)")
    try:
        meta = json.loads(bytes(take(meta_len, "metadata")).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        raise ColorcqError(f"{path}: corrupt index metadata ({e})") from None
    _check_meta(meta, path)
    count = meta["constants"]
    block = _check_constants(take(meta["constant_bytes"], "constants"), count, path)
    blobs: dict[str, np.ndarray] = {}
    for entry in meta["arrays"]:
        shape, dtype = tuple(entry["shape"]), np.dtype(entry["dtype"])
        raw = take(math.prod(shape) * dtype.itemsize, f"array {entry['name']}")
        blobs[entry["name"]] = np.frombuffer(raw, dtype).astype(np.int64).reshape(shape)
    _need(pos == len(data), f"{path}: {len(data) - pos} unexpected bytes after the arrays")
    data = raw = None  # the arrays are copies: the file's bytes go before the checks below

    try:
        schema = Schema((r["name"], r["arity"]) for r in meta["relations"])
        s1, labels = sigma1_for(schema), tuple(EdgeLabel(map(tuple, pairs)) for pairs in meta["labels"])
        _need(len(set(labels)) == len(labels), "corrupt index metadata (an edge label listed twice)")
        unary = [f"unary:{u}" for u in s1.schema.unary_symbols]
        want = {**dict.fromkeys(unary, 1), "order": 1, "sizes": 1, "degrees": 2, "targets": 1}
        ndim = {name: arr.ndim for name, arr in blobs.items()}
        _need(ndim.pop("verts", 1) == 1 and ndim == want and blobs["degrees"].shape[1] == 3,
              f"corrupt index metadata (the arrays must be {', '.join(want)}, and verts where needed)")
        order, sizes, degrees, nbr = (blobs[name] for name in ("order", "sizes", "degrees", "targets"))
        n, (lab, cls, deg) = len(order), degrees.T
        verts = blobs.get("verts", np.arange(count))
        _need(len(verts) == n and _within(verts, count, ascending=True),
              f"the {n} vertices do not fit the {count} constants")
        _need(all(_within(blobs[u], n, ascending=True) for u in unary), "unary rows not ascending")
        _need(_canonical(order, sizes), "the colouring's order is not a canonical permutation")
        key, top = lab * len(sizes) + cls, len(labels) * len(sizes)  # (label, class) keys
        _need(_within(cls, len(sizes)) and _within(key, top, ascending=True) and _within(deg - 1, n - 1)
              and np.bincount(lab, minlength=len(labels)).all(),
              "corrupt edges (degree rows not one per label and class, in order)")
        _need(np.sum(sizes[cls] * deg, dtype=float) == len(nbr) and _within(nbr, n),  # float: no wrap
              f"corrupt edges (the degrees do not add up to the {len(nbr)} targets, all in range)")
        g = Vertices(s1, verts, [blobs[name] for name in unary])
        idx = ColorIndex(None, None, s1, g, _coloring(order, sizes), {"load": time.perf_counter() - t0},
                         (labels, degrees, nbr))
    except ColorcqError as e:
        raise ColorcqError(f"{path}: {e}") from None
    rows = partial(_base_rows, g=g, labels=labels, edges=idx._edges, order=order)
    idx.db = db = _LazyRows(schema, block, partial(rows, loops=s1.loop_symbol))
    idx.d1 = _LazyRows(s1.schema, db, partial(rows, loops={}))
    return idx
