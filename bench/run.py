"""colorcq benchmark: index once, query many.

    python3 bench/run.py --workload cycle --seed 1 --seconds 5 --trace 0

One run, for one workload:

1. generates the facts from `--seed` and writes them to a file;
2. computes the reference answers with the index-free route `cde_fc_acq`;
3. builds in one process (`load_database` -> `build_index` -> `save_index`);
4. serves in a fresh process (`load_index`, rounds of the query mix, then a
   drain of every enumeration query up to a tuple cap);
5. prints the run environment, then, as its last line, one JSON object with
   `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
   BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.

Results and, for traced runs, every span go to `.bench_out/` at the root of
the checkout; scratch files go to `.bench_work/` and are removed.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from math import prod
from pathlib import Path

import numpy as np

from spans import roots
from workloads import WORKLOADS, make_facts

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
STAGE_TIMEOUT_S = 170
MIN_GAPS = 100_000  # timed gaps between successive tuples per run
ROUND_WINDOW = 100  # consecutive rounds that give one p90 (10 beyond it)


def fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def check_environment() -> None:
    if not (SRC / "colorcq" / "__init__.py").is_file():
        fail(f"no colorcq sources under {SRC}; run from a full checkout")
    if "COLORCQ_BACKEND" in os.environ:
        fail("COLORCQ_BACKEND is set; unset it so every commit runs the default kernel")


def src_nonblank_lines() -> int:
    return sum(
        sum(1 for line in p.read_text(encoding="utf-8").splitlines() if line.strip())
        for p in sorted(SRC.rglob("*.py"))
    )


def reference(db, queries) -> list[dict]:
    """Expected Boolean and count answers, from `cde_fc_acq` (no index)."""
    from colorcq import cde_fc_acq, parse_query

    def count(text: str) -> int:
        return sum(1 for _ in cde_fc_acq(db, parse_query(text, db.schema)))

    out = []
    for q in queries:
        if q.boolean:
            expected = next(cde_fc_acq(db, parse_query(q.text, db.schema)), None) is not None
        else:
            expected = prod(count(p) for p in q.parts) if q.parts else count(q.text)
        out.append({"text": q.text, "boolean": q.boolean, "expected": expected,
                    "enumerate": q.enumerate and not q.boolean})
    return out


def run_stage(stage: str, cfg: dict, work: Path) -> dict:
    cfg_path, out_path = work / f"{stage}.cfg.json", work / f"{stage}.out.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "stages.py"), stage, str(cfg_path), str(out_path)],
        cwd=ROOT, env=env, timeout=STAGE_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        fail(f"{stage} process exited with code {proc.returncode}")
    return json.loads(out_path.read_text(encoding="utf-8"))


def percentile(xs, q: float) -> float:
    return float(np.percentile(np.asarray(xs, dtype=float), q))


def windowed_percentile(xs: list[float], q: float, window: int) -> float:
    """Median over consecutive windows of `window` samples of each window's
    q-th percentile: a burst from another tenant then moves one window's
    tail, not the run's."""
    starts = range(0, max(len(xs) - window, 0) + 1, window)
    return statistics.median(percentile(xs[i:i + window], q) for i in starts)


def end_to_end(build: dict, serve: dict) -> dict[str, float]:
    m = {
        "setup_s": statistics.median(build["setup_s"]["untraced"]),
        "load_s": serve["load_s"],
        "index_bytes": build["counts"]["index.file_bytes"],
        "build_rss_mb": build["rss_mb"],
        "serve_rss_mb": serve["rss_mb"],
        "cold_query_ms": serve["cold_query_ms"],
    }
    for task in ("bool", "count", "first"):
        ms = [r[task] * 1e3 for r in serve["rounds"]]
        m[f"{task}_ms_p50"] = percentile(ms, 50)
        m[f"{task}_ms_p90"] = windowed_percentile(ms, 90, ROUND_WINDOW)
    m["tuple_us_p50"] = serve["drain"]["tuple_us_p50"]
    m["tuple_us_p99"] = serve["drain"]["tuple_us_p99"]
    m["ok_frac"] = 1.0 - serve["failed"] / serve["attempted"]
    return m


def _per_root(spans, scales, name: str, root_kind: str) -> list[float]:
    """Per root span of `root_kind`, the summed duration (s, at reference
    speed) of its child spans called `name`."""
    top = roots(spans, scales)
    sums: dict[int, float] = {}
    for _, n, t0, t1, parent, _ in spans:
        if n == name and top.get(parent, ("",))[0] == root_kind:
            sums[parent] = sums.get(parent, 0.0) + (t1 - t0) / 1e9 * top[parent][1]
    return list(sums.values())


def _per_call(spans, scales, name: str) -> list[float]:
    top = roots(spans, scales)
    return [(t1 - t0) / 1e9 * top[p][1] for _, n, t0, t1, p, _ in spans if n == name]


def per_layer(build: dict, serve: dict) -> dict[str, float]:
    m: dict[str, float] = dict(build["counts"])
    b = (build["spans"], build["scales"])
    s = (serve["spans"], serve["scales"])
    med = statistics.median
    for name, key in (("model.load_database", "model.load_database_s"),
                      ("graph.encode_self_loops", "graph.encode_self_loops_s"),
                      ("graph.build_labeled_graph", "graph.build_labeled_graph_s"),
                      ("refine.refine", "refine.refine_s"),
                      ("index.ColorIndex", "index.tables_s"),
                      ("index.save_index", "index.save_s")):
        m[key] = med(_per_root(*b, name, "setup"))
    m["index.load_s"] = med(_per_root(*s, "index.load_index", "load"))
    m["index.lazy_tables_ms"] = serve["lazy_tables_ms"]
    m["model.parse_query_us"] = med(_per_call(*s, "model.parse_query")) * 1e6
    m["frontend.plan_query_us"] = med(_per_call(*s, "frontend.plan_query")) * 1e6
    for name, key, unit in (("evaluation.EnumerationSession", "evaluation.prep_ms", 1e3),
                            ("evaluation.count_answers", "evaluation.count_ms", 1e3),
                            ("evaluation.eval_boolean", "evaluation.bool_ms", 1e3),
                            ("evaluation.first_tuple", "evaluation.first_tuple_us", 1e6)):
        m[key] = med(_per_root(*s, name, "round")) * unit
    d = serve["drain"]
    m["evaluation.tuple_us"] = d["tuple_us_mean"]
    m["evaluation.tuples"] = d["tuples"]
    m["evaluation.steps_per_tuple"] = d["steps_per_tuple"]
    m["evaluation.max_gap"] = d["max_gap"]

    bst, sst = build["self_times"], serve["self_times"]
    for layer in ("model", "graph", "refine", "index", "bench"):
        m[f"self.{layer}.setup_s"] = statistics.median(bst["setup"][layer])
    for layer, scale, unit in (("model", 1e6, "us"), ("frontend", 1e6, "us"),
                               ("evaluation", 1e3, "ms"), ("bench", 1e6, "us")):
        m[f"self.{layer}.round_{unit}"] = statistics.median(sst["round"][layer]) * scale

    su = build["setup_s"]
    m["trace.setup_overhead_s"] = statistics.median(su["traced"]) - statistics.median(
        su["untraced"])
    tot = [sum(r.values()) * 1e3 for r in serve["traced_rounds"]]
    base = [sum(r.values()) * 1e3 for r in serve["rounds"]]
    m["trace.round_overhead_ms"] = statistics.median(tot) - statistics.median(base)
    m["src.nonblank_lines"] = src_nonblank_lines()
    return m


def environment() -> dict:
    import colorcq
    from colorcq import default_backend

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "backend": default_backend(),
        "colorcq": str(Path(colorcq.__file__).resolve().parent.relative_to(ROOT)),
        "src_nonblank_lines": src_nonblank_lines(),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="workload size factor (the self-test runs tiny sizes)")
    ap.add_argument("--plant-wrong", action="store_true",
                    help="corrupt one expected answer (self-test of the checks)")
    args = ap.parse_args(argv)

    check_environment()
    sys.path.insert(0, str(SRC))
    from colorcq import load_database

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wl = WORKLOADS[args.workload]
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=ROOT / ".bench_work"))
    try:
        facts = work / "facts.txt"
        facts.write_text(make_facts(wl.name, args.seed, args.scale), encoding="utf-8")
        with open(facts, encoding="utf-8") as f:
            queries = reference(load_database(f), wl.queries)
        if args.plant_wrong:
            q = next(q for q in queries if not q["boolean"])
            q["expected"] += 1
        cfg = {"workload": wl.name, "facts": str(facts), "index": str(work / "index.ccqx"),
               "trace": args.trace, "seconds": args.seconds, "queries": queries,
               "min_gaps": max(1_000, int(MIN_GAPS * min(args.scale, 1.0)))}
        build = run_stage("build", cfg, work)
        serve = run_stage("serve", cfg, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment()
    if args.trace:
        values, names = per_layer(build, serve), spec["per_layer"]
    else:
        values, names = end_to_end(build, serve), spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    result = {"correct": serve["failed"] == 0, "attempted": serve["attempted"],
              "failed": serve["failed"], "metrics": metrics}

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "scale": args.scale, "env": env, "result": result, "errors": serve["errors"],
              "rounds": len(serve["rounds"]) + len(serve["traced_rounds"]),
              "gaps": serve["drain"]["gaps"]}
    if args.trace:
        record["self_times"] = {"build": build["self_times"], "serve": serve["self_times"]}
        record["spans"] = {"build": build["spans"], "serve": serve["spans"]}
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record), encoding="utf-8")

    for err in serve["errors"]:
        print(f"failed: {err}")
    print("env: " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
