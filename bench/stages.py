"""The two timed processes of one benchmark run.

    python3 bench/stages.py build CONFIG.json RESULT.json
    python3 bench/stages.py serve CONFIG.json RESULT.json

`build` is what `colorcq build` pays: parse the facts, index them, save the
index.  `serve` is what a long-lived query process pays: load the index, run
rounds of the workload's query mix, then drain every enumeration query up to
a fixed tuple cap.  Both time calls into the library from outside only, and
every timed sample is bracketed by speed-probe runs (clock.py).  `serve`
checks every answer against the reference in CONFIG.
"""
from __future__ import annotations

import gc
import json
import os
import re
import resource
import statistics
import sys
from itertools import islice
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from colorcq import (  # noqa: E402
    ColorIndex,
    EnumerationSession,
    build_index,
    build_labeled_graph,
    count_answers,
    encode_self_loops,
    eval_boolean,
    index_stats,
    load_database,
    load_index,
    parse_query,
    plan_query,
    refine,
    save_index,
)

from clock import SpeedProbe, scale  # noqa: E402
from spans import Tracer, self_times  # noqa: E402

SETUP_REPS = 3    # untraced set-ups per run; the median is reported
LOAD_REPS = 9     # fresh loads per run, each followed by one cold pass
MIN_ROUNDS = 100  # p90 then has at least 10 rounds beyond it
TUPLE_CAP = 40_000
DRAIN_CHUNK = 2_000  # tuples between two probe runs in a drain
MIN_WINDOW = 1_000   # gaps a chunk needs for its own p99 (10 beyond it)
PROBE_LONG = 9    # probe runs around a set-up, load, cold pass or drain
PROBE_ROUND = 3   # probe runs between rounds


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed(tr: Tracer, probe: SpeedProbe, kind: str, reps: int, fn, *args):
    """Run `fn(*args)` as a root span between two probe samples.

    Returns (result, seconds at reference speed, speed factor).
    """
    before = probe.sample(reps)
    root = tr.open(kind)
    t0 = perf_counter_ns()
    try:
        out = fn(*args)
    finally:
        t1 = perf_counter_ns()
        f = scale(before, probe.sample(reps))
        tr.close(root, t1, f)
    return out, (t1 - t0) / 1e9 * f, f


# -- build -------------------------------------------------------------------


def _setup_untraced(tr: Tracer, facts: str, out: str):
    with open(facts, encoding="utf-8") as f:
        db = load_database(f)
    idx = build_index(db)
    save_index(idx, out)
    return idx


def _setup_traced(tr: Tracer, facts: str, out: str):
    """The steps of `build_index`, called one by one so each gets a span."""
    with open(facts, encoding="utf-8") as f:
        db = tr.call("model.load_database", load_database, f)
    times: dict[str, float] = {}
    t0 = perf_counter()
    d1, s1 = tr.call("graph.encode_self_loops", encode_self_loops, db)
    g = tr.call("graph.build_labeled_graph", build_labeled_graph, d1, s1)
    times["graph"] = perf_counter() - t0
    t0 = perf_counter()
    coloring = tr.call("refine.refine", refine, g)
    times["refine"] = perf_counter() - t0
    idx = tr.call("index.ColorIndex", ColorIndex, db, d1, s1, g, coloring, times)
    tr.call("index.save_index", save_index, idx, out)
    return idx


def build(cfg: dict, probe: SpeedProbe) -> dict:
    tr = Tracer(cfg["workload"], enabled=False)
    # a traced run interleaves untraced and traced set-ups, so the difference
    # of their medians is the tracing overhead
    kinds = ["untraced", "traced"] * 2 if cfg["trace"] else ["untraced"] * SETUP_REPS
    secs: dict[str, list[float]] = {"untraced": [], "traced": []}
    idx = None
    for kind in kinds:
        idx = None
        gc.collect()
        tr.enabled = kind == "traced"
        fn = _setup_traced if tr.enabled else _setup_untraced
        idx, s, _ = timed(tr, probe, "setup", PROBE_LONG, fn, tr, cfg["facts"], cfg["index"])
        secs[kind].append(s)
    tr.enabled = False

    st = index_stats(idx)
    counts = {
        "model.facts": st["db_size"],
        "graph.vertices": idx.g.n,
        "graph.directed_edges": idx.g.num_directed_edges,
        "graph.edge_labels": len(idx.g.labels),
        "refine.colors": idx.num_colors,
        "index.color_db_tuples": st["color_db_size"],
        "index.k_sigma": st["k_sigma"],
        "index.file_bytes": os.path.getsize(cfg["index"]),
    }
    return {"setup_s": secs, "rss_mb": _rss_mb(), "counts": counts,
            "spans": tr.spans, "scales": tr.scales}


# -- answer checks -------------------------------------------------------------

_FACT_RE = re.compile(r"^(\w+)\(([^,()]+)(?:,([^,()]+))?\)$")
_HEAD_RE = re.compile(r"Ans\(([^()]*)\)\s*<-(.*)")
_ATOM_RE = re.compile(r"(\w+)\(([^()]*)\)")


def _read_facts(path: str) -> dict[str, set[tuple[str, ...]]]:
    rels: dict[str, set[tuple[str, ...]]] = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            m = _FACT_RE.match(line.strip())
            if m:
                args = (m.group(2),) if m.group(3) is None else (m.group(2), m.group(3))
                rels.setdefault(m.group(1), set()).add(args)
    return rels


class AnswerCheck:
    """Checks an emitted tuple of names against the facts file, atom by atom.

    An atom over head variables only must hold as a fact.  An atom with one
    head variable must have a fact with that value in that position (its
    other variable is quantified, so this is the check that needs no search).
    """

    def __init__(self, text: str, rels: dict[str, set[tuple[str, ...]]]):
        m = _HEAD_RE.match(text.strip())
        head = [v.strip() for v in m.group(1).split(",") if v.strip()]
        pos = {v: i for i, v in enumerate(head)}
        self.full: list[tuple[set, tuple[int, ...]]] = []
        self.partial: list[tuple[set, int]] = []
        for rel, blob in _ATOM_RE.findall(m.group(2)):
            args = [a.strip() for a in blob.split(",")]
            facts = rels.get(rel, set())
            if all(a in pos for a in args):
                self.full.append((facts, tuple(pos[a] for a in args)))
            else:
                for col, a in enumerate(args):
                    if a in pos:
                        self.partial.append(({t[col] for t in facts}, pos[a]))

    def ok(self, t: tuple[str, ...]) -> bool:
        return all(tuple(t[i] for i in ix) in facts for facts, ix in self.full) and all(
            t[i] in vals for vals, i in self.partial
        )


# -- serve ---------------------------------------------------------------------


def _op(tr: Tracer, idx, task: str, text: str):
    schema = idx.db.schema
    q = tr.call("model.parse_query", parse_query, text, schema)
    plan = tr.call("frontend.plan_query", plan_query, q, schema)
    if task == "bool":
        return tr.call("evaluation.eval_boolean", eval_boolean, idx, plan)
    if task == "count":
        return tr.call("evaluation.count_answers", count_answers, idx, plan)
    sess = tr.call("evaluation.EnumerationSession", EnumerationSession, idx, plan)
    return tr.call("evaluation.first_tuple", next, sess, None)


class Mix:
    """The workload's query mix: a Boolean query is one `bool` op, any other
    query a `count` op and, when it is enumerated, a `first` op.  Books every op as attempted, and as
    failed when it raises or returns a wrong answer (first tuples are kept
    and checked against the facts after the timed rounds)."""

    def __init__(self, queries: list[dict]):
        self.queries = queries
        self.ops = [(task, i) for i, q in enumerate(queries) for task in (
            ("bool",) if q["boolean"] else ("count", "first") if q["enumerate"] else ("count",))]
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.first_tuples: list[tuple[int, tuple | None]] = []

    def run_pass(self, tr: Tracer, idx) -> dict[str, float]:
        """One pass over the mix; returns wall-clock seconds per task."""
        spent = {"bool": 0.0, "count": 0.0, "first": 0.0}
        for task, qi in self.ops:
            q = self.queries[qi]
            self.attempted += 1
            t0 = perf_counter()
            try:
                out = _op(tr, idx, task, q["text"])
            except Exception as e:  # a crashing op is a failed op, not a crashed run
                spent[task] += perf_counter() - t0
                self.fail(f"{task} {q['text']}: {type(e).__name__}: {e}")
                continue
            spent[task] += perf_counter() - t0
            if task == "first":
                self.first_tuples.append((qi, out))
            elif (bool(out) if task == "bool" else out) != q["expected"]:
                self.fail(f"{task} {q['text']}: got {out}, expected {q['expected']}")
        return spent

    def fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(msg)


def _query_labels(idx, queries: list[dict]) -> list:
    """Distinct edge labels of the mix's plans, in plan order."""
    labels: dict = {}
    for q in queries:
        plan = plan_query(parse_query(q["text"], idx.db.schema), idx.db.schema)
        for comp in plan.components:
            labels.update(dict.fromkeys(comp.lambda_e.values()))
    return list(labels)


def _touch_lazy_tables(tr: Tracer, idx, labels: list) -> None:
    """First `succ` call per label: materialises its memoised hat table."""
    for lab in labels:
        tr.call("index.succ", idx.succ, lab, 0, 0)


def serve(cfg: dict, probe: SpeedProbe) -> dict:
    traced = bool(cfg["trace"])
    tr = Tracer(cfg["workload"], enabled=traced)
    mix = Mix(cfg["queries"])
    res: dict = {}

    # loads: each fresh index gets one cold pass (untraced run) or has its
    # lazily memoised tables timed label by label (traced run)
    load_s, cold_s, lazy_s = [], [], []
    idx = None
    for _ in range(LOAD_REPS):
        idx = None
        gc.collect()
        idx, s, _ = timed(tr, probe, "load", PROBE_LONG,
                          tr.call, "index.load_index", load_index, cfg["index"])
        load_s.append(s)
        if traced:
            labels = _query_labels(idx, mix.queries)
            _, s, _ = timed(tr, probe, "lazy", PROBE_LONG, _touch_lazy_tables,
                            tr, idx, labels)
            lazy_s.append(s)
        else:
            _, s, _ = timed(tr, probe, "cold", PROBE_LONG, mix.run_pass, tr, idx)
            cold_s.append(s)
    res["load_s"] = statistics.median(load_s)
    if cold_s:
        res["cold_query_ms"] = statistics.median(cold_s) * 1e3
    if lazy_s:
        res["lazy_tables_ms"] = statistics.median(lazy_s) * 1e3

    tr.enabled = False
    mix.run_pass(tr, idx)  # warm-up, untimed

    # rounds: a traced run alternates traced and untraced rounds
    rounds: dict[bool, list[dict[str, float]]] = {False: [], True: []}
    gc.collect()
    deadline = perf_counter() + cfg["seconds"]
    n = 0
    while n < MIN_ROUNDS or perf_counter() < deadline:
        tr.enabled = traced and n % 2 == 1
        spent, _, f = timed(tr, probe, "round", PROBE_ROUND, mix.run_pass, tr, idx)
        rounds[tr.enabled].append({task: s * f for task, s in spent.items()})
        n += 1
    tr.enabled = False
    res["rounds"] = rounds[False]
    res["traced_rounds"] = rounds[True]
    res["rss_mb"] = _rss_mb()

    # answer checks need the facts; they are read only now, so serve_rss_mb
    # above is the index and the query mix alone
    rels = _read_facts(cfg["facts"])
    checks = [AnswerCheck(q["text"], rels) for q in mix.queries]
    consts = idx.db.constants
    for qi, t in mix.first_tuples:
        exp = mix.queries[qi]["expected"]
        if (t is None) != (exp == 0) or (t is not None and not checks[qi].ok(
                tuple(consts[c] for c in t))):
            mix.fail(f"first {mix.queries[qi]['text']}: bad first tuple {t}")
    mix.first_tuples.clear()

    tr.enabled = traced
    res["drain"] = _drain(tr, probe, idx, mix, checks, cfg["min_gaps"])
    tr.enabled = False
    res["attempted"] = mix.attempted
    res["failed"] = mix.failed
    res["errors"] = mix.errors
    res["spans"] = tr.spans
    res["scales"] = tr.scales
    return res


def _drain_one(tr: Tracer, probe: SpeedProbe, idx, text: str):
    """Enumerate up to TUPLE_CAP answers in chunks of DRAIN_CHUNK, with one
    probe run between chunks; returns the session, the tuples, and per
    chunk the gaps between its successive tuples (ns, reference speed)."""
    schema = idx.db.schema
    q = tr.call("model.parse_query", parse_query, text, schema)
    plan = tr.call("frontend.plan_query", plan_query, q, schema)
    sess = tr.call("evaluation.EnumerationSession", EnumerationSession, idx, plan)
    out: list[tuple] = []
    gaps: list[np.ndarray] = []
    before = probe.sample(1)
    while True:
        want = min(DRAIN_CHUNK, TUPLE_CAP - len(out))
        stamps = [perf_counter_ns()]
        for t in islice(sess, want):
            stamps.append(perf_counter_ns())
            out.append(t)
        tr.record("evaluation.drain", stamps[0], stamps[-1])
        after = probe.sample(1)
        gaps.append(np.diff(np.array(stamps[1:], dtype=np.int64)) * scale(before, after))
        if len(stamps) - 1 < want or len(out) >= TUPLE_CAP:
            return sess, out, gaps
        before = after


def _drain(tr: Tracer, probe: SpeedProbe, idx, mix: Mix, checks, min_gaps: int) -> dict:
    """Drain every enumerated query up to TUPLE_CAP, pass after pass, until
    at least `min_gaps` gaps between successive tuples have been timed (or a
    pass times none, when no query has two answers)."""
    enum = [i for i, q in enumerate(mix.queries) if q["enumerate"]]
    consts = idx.db.constants
    gaps: list[np.ndarray] = []
    steps = emissions = max_gap = tuples = 0
    while enum:
        timed_before = sum(map(len, gaps))
        for qi in enum:
            q = mix.queries[qi]
            mix.attempted += 1
            try:
                (sess, out, chunks), _, _ = timed(tr, probe, "drain", PROBE_LONG,
                                                  _drain_one, tr, probe, idx, q["text"])
            except Exception as e:  # counted as a failed op
                mix.fail(f"drain {q['text']}: {type(e).__name__}: {e}")
                continue
            gaps += chunks
            tuples += len(out)
            steps += sess.steps.n
            emissions += sess.emissions
            max_gap = max(max_gap, sess.max_gap)
            complete = len(out) < TUPLE_CAP
            if (complete and len(out) != q["expected"]) or len(set(out)) != len(out) or not all(
                    checks[qi].ok(tuple(consts[c] for c in t)) for t in out):
                mix.fail(f"drain {q['text']}: wrong, duplicate or missing tuples")
        timed_now = sum(map(len, gaps))
        if timed_now >= min_gaps or timed_now == timed_before:
            break
    allg = np.concatenate(gaps) / 1e3 if gaps else np.zeros(1)
    # the tail is taken per chunk: a few chunks hit by another tenant's burst
    # then cannot move it, as they would move the p99 of all gaps
    windows = [g / 1e3 for g in gaps if len(g) >= MIN_WINDOW] or [allg]
    return {
        "tuple_us_p50": float(np.percentile(allg, 50)),
        "tuple_us_p99": statistics.median(float(np.percentile(g, 99)) for g in windows),
        "tuple_us_mean": float(allg.mean()),
        "gaps": int(len(allg)),
        "tuples": tuples,
        "steps_per_tuple": steps / max(emissions, 1),
        "max_gap": max_gap,
    }


def main(argv: list[str]) -> int:
    stage, cfg_path, out_path = argv
    with open(cfg_path, encoding="utf-8") as f:
        cfg = json.load(f)
    probe = SpeedProbe()
    res = {"build": build, "serve": serve}[stage](cfg, probe)
    res["self_times"] = self_times(res["spans"], res["scales"])
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(res, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
