"""Command line: build an index once, then answer queries against it.

`query` (on the index) and `oracle` (brute force) print each task's answer alike.

Exit codes: 0 success; 1 I/O, parse, or schema errors; 2 query outside the
supported class (with a diagnostic), or a usage error reported by argparse;
3 `--task bool` on a non-Boolean query.
A reader that closes the output early (`| head`) ends the run quietly with 0,
as `--limit` would.
"""
from __future__ import annotations

import argparse
import os
import random
import sys
from decimal import Decimal
from itertools import islice

from . import __version__
from .evaluation import EnumerationSession, count_answers, eval_boolean
from .frontend import QueryRejected, explain_plan, plan_query
from .index import ColorIndex, build_index, index_stats, load_index, save_index
from .model import ColorcqError, Database, load_database, parse_query
from .oracle import naive_eval


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as f:
        try:
            return f.read()
        except UnicodeDecodeError as e:
            raise ColorcqError(f"{path} is not UTF-8 text (byte {e.start}: {e.reason})") from None


def _load_db(path: str) -> Database:
    return load_database(_read_text(path))


def _get_index(args) -> ColorIndex:
    return load_index(args.index) if args.index else build_index(_load_db(args.db))


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
    idx = build_index(_load_db(args.db))
    st = index_stats(idx)  # first: an index without stats (a label closure too large) is not written
    save_index(idx, args.out)
    print(f"index written to {args.out}")
    _print_stats(st)
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


def _answer(args, q, boolean, count, tuples) -> int:
    """Print the answer of `args.task` (by default `bool` if `q` is Boolean, else
    `enum`), computed by `boolean`, `count` or `tuples`: only that one runs."""
    task = args.task or ("bool" if q.is_boolean else "enum")
    if task == "bool":
        if not q.is_boolean:
            print("error: --task bool requires a Boolean query", file=sys.stderr)
            return 3
        print("yes" if boolean() else "no")
    elif task == "count":
        # str() of an int past sys.get_int_max_str_digits() raises; Decimal
        # holds any int exactly and prints all its digits
        print(Decimal(count()))
    else:
        for t in islice(tuples(), args.limit):
            print("(" + ",".join(t) + ")")
        print("EOE")
    return 0


def cmd_query(args) -> int:
    idx = _get_index(args)
    q = parse_query(args.query, idx.db.schema)
    plan = plan_query(q, idx.db.schema)
    if args.explain:
        print(explain_plan(plan))
    return _answer(args, q, lambda: eval_boolean(idx, plan), lambda: count_answers(idx, plan),
                   lambda: EnumerationSession(idx, plan, names=True))


def cmd_oracle(args) -> int:
    db = _load_db(args.db)
    q = parse_query(args.query, db.schema)
    # the brute force runs inside the task asked for, so a usage error exits at once
    return _answer(args, q, lambda: len(naive_eval(db, q)), lambda: len(naive_eval(db, q)),
                   lambda: (tuple(db.constants[c] for c in t) for t in sorted(naive_eval(db, q))))


def cmd_gen(args) -> int:
    if args.family == "cycle":
        n = count = args.n
        if n < 3:
            print("error: cycle needs n >= 3", file=sys.stderr)
            return 1
        lines = (f"R({i},{i % n + 1})\n" for i in range(1, n + 1))
    else:  # random
        n, count = args.n, args.m
        if n < 1 or count < 0 or count > n * n:
            print(f"error: need 1 <= n and 0 <= m <= n*n={n*n}", file=sys.stderr)
            return 1
        rng = random.Random(args.seed)
        pairs = (divmod(k, n) for k in rng.sample(range(n * n), count))
        lines = (f"R({a + 1},{b + 1})\n" for a, b in pairs)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.writelines(lines)  # line by line: the memory used does not grow with n
        print(f"{count} facts written to {args.out}")
    else:
        sys.stdout.write("".join(lines))  # all or nothing: a failed run prints no facts
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

    def add_source(sp):
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
    op.add_argument("--db", required=True)
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

    st = sub.add_parser("stats", help="print index statistics")
    add_source(st)
    st.set_defaults(fn=cmd_stats)
    return p


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed reader then shows here, not at exit
        return code
    except BrokenPipeError:  # the rest goes nowhere, so the exit's flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except QueryRejected as e:
        print(f"rejected: {e.diagnostic}", file=sys.stderr)
        return 2
    except (ColorcqError, OSError, MemoryError) as e:
        print(f"error: {'out of memory' if isinstance(e, MemoryError) else e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
