"""Self-test of the benchmark at tiny sizes; takes about a minute.

    python3 bench/selftest.py

Checks that every workload emits exactly the metric names of BENCHMARK.json
(end-to-end untraced, per-layer traced) with their units, that a planted
wrong answer lowers `ok_frac` and marks the run incorrect, and that the
benchmark refuses to run without the library sources or with
COLORCQ_BACKEND set.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = ["--seed", "3", "--seconds", "0.2", "--scale", "0.02"]


def run(args: list[str], cwd: Path = ROOT, env: dict | None = None):
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}, out
    return out


def check_names(out: dict, section: str) -> None:
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {k: v["unit"] for k, v in out["metrics"].items()}
    assert got == want, f"{section}: missing {set(want) - set(got)}, extra {set(got) - set(want)}"
    for k, v in out["metrics"].items():
        assert isinstance(v["value"], (int, float)) and math.isfinite(v["value"]), (k, v)


def main() -> int:
    for wl in (w["name"] for w in SPEC["workloads"]):
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            out = result_of(run(["--workload", wl, "--trace", trace, *TINY]))
            check_names(out, section)
            assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0, out
        print(f"ok: {wl} emits every end-to-end and per-layer metric")

    out = result_of(run(["--workload", "random", "--trace", "0", "--plant-wrong", *TINY]))
    assert not out["correct"] and out["failed"] > 0, out
    assert out["metrics"]["ok_frac"]["value"] < 1.0, out
    print(f"ok: a planted wrong answer fails {out['failed']} of {out['attempted']} ops")

    env = dict(os.environ, COLORCQ_BACKEND="numpy")
    proc = run(["--workload", "path", "--trace", "0", *TINY], env=env)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok: refuses to run with COLORCQ_BACKEND set")

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".bench_work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in SPEC["paths"]:
            shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", "path", "--trace", "0", *TINY], cwd=bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok: refuses to run without the library sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
