"""Command line: build an index once, then answer queries against it.

Exit codes: 0 success; 1 I/O, parse, or schema errors; 2 query outside the
supported class (with a diagnostic); 3 `--task bool` on a non-Boolean query.
"""
from __future__ import annotations

import argparse
import random
import sys
import time
from itertools import islice

import numpy as np

from . import __version__
from .evaluation import EnumerationSession, count_answers, eval_boolean
from .frontend import QueryRejected, explain_plan, plan_query
from .index import ColorIndex, build_index, index_stats, load_index, save_index
from .model import ColorcqError, Database, load_database, parse_query
from .oracle import naive_eval


def _load_db(path: str) -> Database:
    with open(path, "r", encoding="utf-8") as f:
        return load_database(f)


def _get_index(args) -> ColorIndex:
    if getattr(args, "index", None):
        return load_index(args.index)
    return build_index(_load_db(args.db))


def _print_stats(st: dict) -> None:
    for key, val in st.items():
        if key == "build_seconds":
            for phase, secs in val.items():
                print(f"build_seconds.{phase}: {secs:.6f}")
        elif isinstance(val, float):
            print(f"{key}: {val:.6f}")
        else:
            print(f"{key}: {val}")


def cmd_build(args) -> int:
    db = _load_db(args.db)
    idx = build_index(db)
    save_index(idx, args.out)
    print(f"index written to {args.out}")
    _print_stats(index_stats(idx))
    return 0


def cmd_stats(args) -> int:
    _print_stats(index_stats(_get_index(args)))
    return 0


def _limit(text: str) -> int:
    """A `--limit` value: a number of tuples, so an integer >= 0."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def _emit_enum(tuples, limit: int | None) -> None:
    for t in islice(tuples, limit):
        print("(" + ",".join(t) + ")")
    print("EOE")


def cmd_query(args) -> int:
    idx = _get_index(args)
    q = parse_query(args.query, idx.db.schema)
    plan = plan_query(q, idx.db.schema)
    if args.explain:
        print(explain_plan(plan))
    task = args.task or ("bool" if q.is_boolean else "enum")
    if task == "bool":
        if not q.is_boolean:
            print("error: --task bool requires a Boolean query", file=sys.stderr)
            return 3
        print("yes" if eval_boolean(idx, plan) else "no")
    elif task == "count":
        print(count_answers(idx, plan))
    else:
        _emit_enum(EnumerationSession(idx, plan, names=True), args.limit)
    return 0


def cmd_oracle(args) -> int:
    db = _load_db(args.db)
    q = parse_query(args.query, db.schema)
    res = naive_eval(db, q)
    task = args.task or ("bool" if q.is_boolean else "enum")
    if task == "bool":
        if not q.is_boolean:
            print("error: --task bool requires a Boolean query", file=sys.stderr)
            return 3
        print("yes" if len(res) else "no")
    elif task == "count":
        print(len(res))
    else:
        names = (tuple(db.const_name(c) for c in t) for t in sorted(res.tuples))
        _emit_enum(names, args.limit)
    return 0


def cmd_gen(args) -> int:
    lines: list[str] = []
    if args.family == "cycle":
        n = args.n
        if n < 3:
            print("error: cycle needs n >= 3", file=sys.stderr)
            return 1
        lines = [f"R({i},{i % n + 1})" for i in range(1, n + 1)]
    else:  # random
        n, m = args.n, args.m
        if n < 1 or m < 0 or m > n * n:
            print(f"error: need 1 <= n and 0 <= m <= n*n={n*n}", file=sys.stderr)
            return 1
        rng = random.Random(args.seed)
        pairs = (divmod(k, n) for k in rng.sample(range(n * n), m))
        lines = [f"R({a + 1},{b + 1})" for a, b in pairs]
    text = "\n".join(lines) + ("\n" if lines else "")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
        print(f"{len(lines)} facts written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _percentile(xs: list[float], q: float) -> float:
    return float(np.percentile(np.array(xs), q)) if xs else float("nan")


def cmd_bench(args) -> int:
    t0 = time.perf_counter()
    idx = _get_index(args)
    load_secs = time.perf_counter() - t0
    st = index_stats(idx)
    print(f"db size {st['db_size']}, color db size {st['color_db_size']}, "
          f"colors {st['num_colors']}, adom {st['adom_size']}")
    print("build/load seconds: "
          + ", ".join(f"{k}={v:.4f}" for k, v in st["build_seconds"].items())
          + f", total_here={load_secs:.4f}")

    with open(args.queries, "r", encoding="utf-8") as f:
        texts = [ln.strip() for ln in f if ln.strip() and not ln.startswith("#")]

    print(f"{'query':<44} {'prep_ms':>8} {'p50_us':>8} {'p95_us':>8} "
          f"{'max_us':>8} {'tuples':>8} {'count':>10} {'count_ms':>9}")
    cap = 10000 if args.limit is None else args.limit
    for text in texts:
        q = parse_query(text, idx.db.schema)
        plan = plan_query(q, idx.db.schema)
        t0 = time.perf_counter()
        sess = EnumerationSession(idx, plan)
        prep = (time.perf_counter() - t0) * 1e3
        gaps: list[float] = []
        last = time.perf_counter()
        for _ in islice(sess, cap):
            now = time.perf_counter()
            gaps.append((now - last) * 1e6)
            last = now
        t0 = time.perf_counter()
        cnt = count_answers(idx, plan)
        count_ms = (time.perf_counter() - t0) * 1e3
        label = text if len(text) <= 44 else text[:41] + "..."
        print(f"{label:<44} {prep:8.3f} {_percentile(gaps, 50):8.1f} "
              f"{_percentile(gaps, 95):8.1f} {_percentile(gaps, 100):8.1f} "
              f"{len(gaps):8d} {cnt:10d} {count_ms:9.3f}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="colorcq",
        description="color-index engine for free-connex acyclic conjunctive queries",
    )
    p.add_argument("--version", action="version", version=f"colorcq {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="index a database file")
    b.add_argument("--db", required=True, help="facts file, one Name(a[,b]) per line")
    b.add_argument("--out", required=True, help="output index path")
    b.set_defaults(fn=cmd_build)

    def add_source(sp, db_only: bool = False):
        if db_only:
            sp.add_argument("--db", required=True)
        else:
            g = sp.add_mutually_exclusive_group(required=True)
            g.add_argument("--index", help="persisted index file")
            g.add_argument("--db", help="facts file (a transient index is built)")

    qp = sub.add_parser("query", help="answer a query against an index")
    qp.add_argument("query", help="query text, e.g. 'Ans(x,y) <- R(x,y).'")
    add_source(qp)
    qp.add_argument("--task", choices=["bool", "count", "enum"])
    qp.add_argument("--limit", type=_limit)
    qp.add_argument("--explain", action="store_true", help="print the query plan")
    qp.set_defaults(fn=cmd_query)

    op = sub.add_parser("oracle", help="answer a query by brute force (reference)")
    op.add_argument("query")
    add_source(op, db_only=True)
    op.add_argument("--task", choices=["bool", "count", "enum"])
    op.add_argument("--limit", type=_limit)
    op.set_defaults(fn=cmd_oracle)

    gp = sub.add_parser("gen", help="generate a database file")
    gsub = gp.add_subparsers(dest="family", required=True)
    gc = gsub.add_parser("cycle", help="directed n-cycle R(1,2)...R(n,1)")
    gc.add_argument("n", type=int)
    gc.add_argument("--out")
    gc.set_defaults(fn=cmd_gen)
    gr = gsub.add_parser("random", help="m distinct random R-facts over n constants")
    gr.add_argument("n", type=int)
    gr.add_argument("m", type=int)
    gr.add_argument("--seed", type=int, default=0)
    gr.add_argument("--out")
    gr.set_defaults(fn=cmd_gen)

    bp = sub.add_parser("bench", help="time preprocessing, delay and counting")
    add_source(bp)
    bp.add_argument("--queries", required=True, help="file with one query per line")
    bp.add_argument("--limit", type=_limit, help="max tuples timed per query")
    bp.set_defaults(fn=cmd_bench)

    st = sub.add_parser("stats", help="print index statistics")
    add_source(st)
    st.set_defaults(fn=cmd_stats)
    return p


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except QueryRejected as e:
        print(f"rejected: {e.diagnostic}", file=sys.stderr)
        return 2
    except (ColorcqError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
