"""The command-line interface, driven in-process (and in a capped child
process for running out of memory)."""
from __future__ import annotations

import json
import os
import random
import struct
import subprocess
import sys

import numpy as np
import pytest

from colorcq import cli
from colorcq.cli import main
from colorcq.index import FORMAT_VERSION, MAGIC, build_index, save_index
from colorcq.model import load_database

from .conftest import MOVIE_TEXT, reseal
from .test_index import _DEFECTS, _graph_file


@pytest.fixture()
def movie_file(tmp_path):
    p = tmp_path / "movie.facts"
    p.write_text(MOVIE_TEXT)
    return str(p)


def _enum_lines(out: str) -> list[str]:
    lines = out.strip().splitlines()
    assert lines[-1] == "EOE"
    return lines[:-1]


def test_build_stats_query_round_trip(movie_file, tmp_path, capsys):
    idx_path = str(tmp_path / "movie.ccqx")
    assert main(["build", "--db", movie_file, "--out", idx_path]) == 0
    out = capsys.readouterr().out
    assert f"index written to {idx_path}" in out
    assert "num_colors: 4" in out
    assert "color_db_size: 10" in out

    assert main(["stats", "--index", idx_path]) == 0
    out = capsys.readouterr().out
    assert "db_size: 8" in out
    assert "adom_size: 6" in out
    assert "k_sigma: 1.25" in out

    assert main(["query", "Ans(x,y) <- P(x,y).", "--index", idx_path]) == 0
    out = capsys.readouterr().out
    assert set(_enum_lines(out)) == {"(PS,LM)", "(PS,MM)"}


def test_query_tasks(movie_file, capsys):
    assert main(["query", "Ans(x,y) <- P(x,y).", "--db", movie_file,
                 "--task", "count"]) == 0
    assert capsys.readouterr().out.strip() == "2"

    assert main(["query", "Ans() <- P(x,y), M(y,z).", "--db", movie_file]) == 0
    assert capsys.readouterr().out.strip() == "yes"

    assert main(["query", "Ans() <- S(x,y), M(y,z).", "--db", movie_file]) == 0
    assert capsys.readouterr().out.strip() == "no"

    assert main(["query", "Ans() <- P(x,y).", "--db", movie_file,
                 "--task", "enum"]) == 0
    assert _enum_lines(capsys.readouterr().out) == ["()"]


def test_task_bool_on_non_boolean_is_exit_3(movie_file, capsys):
    rc = main(["query", "Ans(x) <- P(x,y).", "--db", movie_file, "--task", "bool"])
    assert rc == 3
    assert "requires a Boolean query" in capsys.readouterr().err


def test_rejected_query_is_exit_2(movie_file, capsys):
    rc = main(["query", "Ans() <- P(x,y), P(y,z), P(z,x).", "--db", movie_file])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("rejected:")
    assert "cycle" in err


def test_error_paths_are_exit_1(movie_file, tmp_path, capsys):
    rc = main(["query", "Ans(x,y) <- T(x,y).", "--db", movie_file])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")

    rc = main(["stats", "--db", str(tmp_path / "missing.facts")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")

    junk = tmp_path / "junk.ccqx"
    junk.write_bytes(b"JUNKJUNKJUNKJUNK")
    rc = main(["stats", "--index", str(junk)])
    assert rc == 1
    assert "magic" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code", [
    (["build", "--db", "{db}", "--out", "{tmp}/missing/movie.ccqx"], 1),
    (["query", "Ans(x,y) <- P(x,y).", "--index", "{tmp}"], 1),
    (["query", "Ans(x,x) <- P(x,y).", "--db", "{db}"], 1),
    (["oracle", "Ans(x,y) <- T(x,y).", "--db", "{db}"], 1),
    (["bench", "--db", "{db}", "--queries", "{db}"], 2),
    (["oracle", "Ans(x,y) <- P(x,y).", "--db", "{db}", "--task", "bool"], 3),
    (["build", "--db", "{wide}", "--out", "{tmp}/wide.ccqx"], 1),
    (["query", "Ans(x,y) <- R00(x,y), R13(x,y).", "--index", "{wide index}", "--task", "count"], 0),
    (["stats", "--index", "{wide index}"], 1),
])
def test_exit_codes(argv, code, movie_file, tmp_path, capsys, monkeypatch):
    """Errors exit 1, and `--task bool` on a non-Boolean query exits 3, with a
    one-line message; a usage error (`bench` is no subcommand) is argparse's
    exit 2.  Each is found before the oracle's brute-force search runs.  On
    a database whose one edge carries 21 symbols, past the label-closure cap,
    an index saved from Python answers queries, but `build` and `stats`,
    which print the colour database's size, exit 1, and `build` writes no file."""
    monkeypatch.setattr(cli, "naive_eval", lambda *a: pytest.fail("the search ran"))
    wide = tmp_path / "wide.facts"
    wide.write_text("".join(f"R{i:02d}(a,b)\n" for i in range(21)))
    save_index(build_index(load_database(wide.read_text())), str(tmp_path / "saved.ccqx"))
    on_wide = any(a.startswith("{wide") for a in argv)
    subs = {"{db}": movie_file, "{tmp}": str(tmp_path), "{wide}": str(wide),
            "{wide index}": str(tmp_path / "saved.ccqx")}
    for key, path in subs.items():
        argv = [a.replace(key, path) for a in argv]
    if code == 2:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err
        return
    assert main(argv) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert (out, err) == ("1\n", "")
        return
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert ("closure" in err) == on_wide, err
    assert not (tmp_path / "wide.ccqx").exists()


def test_non_utf8_input_is_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.facts"
    bad.write_bytes(b"R(a,\xff)\n")
    assert main(["stats", "--db", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{bad} is not UTF-8 text" in err
    assert "Traceback" not in err


def test_truncated_or_corrupt_index_is_exit_1(movie_file, tmp_path, capsys):
    idx_path = tmp_path / "movie.ccqx"
    assert main(["build", "--db", movie_file, "--out", str(idx_path)]) == 0
    data = idx_path.read_bytes()
    cut_path = tmp_path / "cut.ccqx"
    # inside the magic, the header, the metadata and the arrays, and one
    # byte short of the end
    for cut in (0, 2, 10, 30, 200, len(data) - 100, len(data) - 1):
        cut_path.write_bytes(data[:cut])
        capsys.readouterr()
        assert main(["stats", "--index", str(cut_path)]) == 1, cut
        assert capsys.readouterr().err.startswith("error:")

    # metadata that is not JSON: the first byte after the 16-byte header
    cut_path.write_bytes(reseal(data[:16] + b"#" + data[17:]))
    assert main(["stats", "--index", str(cut_path)]) == 1
    assert "corrupt index metadata" in capsys.readouterr().err

    # JSON nested deeper than the decoder's recursion limit
    deep = b"[" * 200_000
    cut_path.write_bytes(reseal(MAGIC + struct.pack("<III", FORMAT_VERSION, 0, len(deep)) + deep))
    assert main(["stats", "--index", str(cut_path)]) == 1
    assert "corrupt index metadata" in capsys.readouterr().err


def _index_file(path, meta, arrays: dict[str, list], block: bytes = b"a\nb\n") -> None:
    """An index file with the given metadata, constants block and int32
    array contents, and a valid checksum."""
    blob = json.dumps(meta).encode("utf-8")
    body = b"".join(np.array(a, dtype="<i4").tobytes() for a in arrays.values())
    head = MAGIC + struct.pack("<III", FORMAT_VERSION, 0, len(blob))
    path.write_bytes(reseal(head + blob + block + body))


# the index of R(a, b): the edge labels {(R,+)} and {(R,-)}, no loop of R,
# a and b in classes of their own, one target each
_GOOD = {"unary:S_R": [], "order": [0, 1], "sizes": [1, 1], "degrees": [[0, 0, 1], [1, 1, 1]],
         "targets": [1, 0]}


def _shapes(**change) -> dict:
    """The array shapes of `_GOOD`, with those in `change` set (or dropped where None)."""
    shapes = {n: list(np.shape(a)) for n, a in _GOOD.items()} | change
    return {n: s for n, s in shapes.items() if s is not None}


def _meta(constants=("a", "b"), relations=(("R", 2),), shapes=None,
          labels=([["R", "+"]], [["R", "-"]])) -> dict:
    return {"constants": len(constants),
            "constant_bytes": sum(len(c.encode("utf-8")) + 1 for c in constants),
            "relations": [{"name": n, "arity": a} for n, a in relations],
            "labels": list(labels),
            "arrays": [{"name": n, "shape": s, "dtype": "<i4"} for n, s in (shapes or _shapes()).items()]}


def _mixed(u_rows: list[int]) -> tuple[dict, dict]:
    """The metadata and arrays of R(a, b), R(b, a) with U on `u_rows`, where a and
    b form one class over the label {(R,+),(R,-)}: stable iff U holds on both."""
    arrays = {"unary:U": u_rows, "unary:S_R": [], "order": [0, 1], "sizes": [2], "degrees": [[0, 0, 1]],
              "targets": [1, 0]}
    return _meta(relations=(("R", 2), ("U", 1)), labels=([["R", "+"], ["R", "-"]],),
                 shapes={n: list(np.shape(a)) for n, a in arrays.items()}), arrays


MALFORMED = {
    "only a format key": ({"format": 1}, {}),
    "not an object": ([], {}),
    "constant count mismatch": ({**_meta(), "constants": 3}, _GOOD),
    "constants not UTF-8": (_meta(), _GOOD, b"a\n\xff\n"),
    "repeated constant": (_meta(), _GOOD, b"a\na\n"),
    "repeated 16-byte constant": (
        _meta(constants=("p" * 16,) * 2), _GOOD, (b"p" * 16 + b"\n") * 2),
    "repeated empty constant": (_meta(constants=("", "")), _GOOD, b"\n\n"),
    "repeated 7-byte constant": (_meta(constants=("p" * 7,) * 2), _GOOD, (b"p" * 7 + b"\n") * 2),
    "repeated 8-byte constant": (_meta(constants=("p" * 8,) * 2), _GOOD, (b"p" * 8 + b"\n") * 2),
    "repeated 2-byte non-ASCII constant": (_meta(constants=("é", "é")), _GOOD, "é\né\n".encode("utf-8")),
    "arity 3": (_meta(relations=(("R", 3),)), _GOOD),
    "relation entry not an object": ({**_meta(), "relations": ["R"]}, _GOOD),
    "relations not a list": ({**_meta(), "relations": {"R": 2}}, _GOOD),
    "negative shape": (_meta(shapes=_shapes(order=[-2])), _GOOD),
    "float shape": (_meta(shapes=_shapes(order=[2.0])), _GOOD),
    "dimension too large for numpy": (_meta(shapes=_shapes(x=[0, 2 ** 70])), _GOOD),
    "three dimensions": (_meta(shapes=_shapes(x=[1, 1, 1])), {**_GOOD, "x": [0]}),
    "relation array missing": (
        _meta(shapes=_shapes(**{"unary:S_R": None})), {k: v for k, v in _GOOD.items() if k != "unary:S_R"}),
    "relation array of the wrong width": (
        _meta(shapes=_shapes(**{"unary:S_R": [1, 3]})), {**_GOOD, "unary:S_R": [[0, 1, 1]]}),
    "array listed twice": ({**_meta(), "arrays": _meta()["arrays"] * 2}, _GOOD),
    "colouring missing": (_meta(shapes=_shapes(order=None)), {k: v for k, v in _GOOD.items() if k != "order"}),
    "colouring too long": (_meta(shapes=_shapes(order=[3])), {**_GOOD, "order": [0, 1, 1]}),
    "colour id out of range": (_meta(), {**_GOOD, "order": [0, 9]}),
    "negative colour id": (_meta(), {**_GOOD, "order": [-1, 0]}),
    "constant id not interned": (_meta(shapes=_shapes(verts=[2])), {**_GOOD, "verts": [0, 5]}),
    "bytes after the arrays": (_meta(), {**_GOOD, "extra": [0]}),
    "a class mixes vertex labels": _mixed([0]),
}
# the refusals of the constants block, word for word
CONSTANTS_REFUSED = {
    "constant count mismatch": "not 3 lines, each ended by a break",
    "constants not UTF-8": "not UTF-8: 'utf-8' codec can't decode byte 0xff in position 2: invalid start byte",
    **{case: "repeated constant" for case in MALFORMED if case.startswith("repeated")},
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_index_metadata_is_exit_1(case, tmp_path, capsys):
    meta, arrays, *block = MALFORMED[case]
    path = tmp_path / "bad.ccqx"
    _index_file(path, meta, arrays, *block)
    assert main(["stats", "--index", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert "checksum" not in err  # the file is refused by the check the case is about
    if case in CONSTANTS_REFUSED:
        assert err == f"error: {path}: corrupt constants block ({CONSTANTS_REFUSED[case]})\n"
    if case == "a class mixes vertex labels":
        assert err == f"error: {path}: unstable colouring: a class mixes vertex labels\n"


def test_handmade_index_file_loads(tmp_path, capsys):
    """The helper above writes valid files when nothing is broken."""
    path = tmp_path / "good.ccqx"
    _index_file(path, _meta(), _GOOD)
    assert main(["stats", "--index", str(path)]) == 0
    assert "num_colors: 2" in capsys.readouterr().out
    _index_file(path, *_mixed([0, 1]))
    assert main(["stats", "--index", str(path)]) == 0
    assert "num_colors: 1" in capsys.readouterr().out


def _stats_lines(out: str) -> list[str]:
    return [ln for ln in out.splitlines() if not ln.startswith("build_seconds.")]


_MULTIREL = ("P(a{k},b{k})\nQ(a{k},b{k})\nP(b{k},c{k})\nS(c{k},c{k})\nP(c{k},a{k})\n"
             "Q(d{k},c{k})\nS(d{k},d{k})\nP(d{k},a{k})\nU(a{k})\nU(d{k})\n")
CORPUS = {
    "movie": lambda: MOVIE_TEXT,
    # copies of one template with self-loops, unary facts and a two-symbol edge
    "multirel": lambda: "".join(_MULTIREL.format(k=k) for k in range(10_000)),
    "cycle": lambda: "".join(f"R(v{i},v{(i + 1) % 200_000})\n" for i in range(200_000)),
}


@pytest.mark.parametrize("kind", sorted(CORPUS))
def test_corrupted_index_gives_its_stats_or_exit_1(kind, tmp_path, capsys):
    """Seeded corruption of a saved index: cuts at, and one-byte flips at,
    random offsets (half of them in the first 512 bytes, where the header and
    the metadata are).  Each case gives the original stats or exits 1, never a
    traceback.  Flips with the checksum written for them reach the checks
    behind it, which must exit 0 or 1."""
    facts, path, bad = (tmp_path / name for name in ("f.facts", "i.ccqx", "bad.ccqx"))
    facts.write_text(CORPUS[kind]())
    assert main(["build", "--db", str(facts), "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["stats", "--index", str(path)]) == 0
    want = _stats_lines(capsys.readouterr().out)
    data = path.read_bytes()
    rng = random.Random(f"corrupt {kind}")
    cases = []
    for i in range(24):
        at = rng.randrange(len(data) if i % 2 else min(len(data), 512))
        flipped = data[:at] + bytes([data[at] ^ rng.randrange(1, 256)]) + data[at + 1:]
        cases += [(data[:at], False), (flipped, False)]
        if kind != "cycle":  # a load that passes the checksum rebuilds the index
            cases.append((reseal(flipped), True))
    for blob, resealed in cases:
        bad.write_bytes(blob)
        rc = main(["stats", "--index", str(bad)])
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        if rc == 0:
            assert resealed or _stats_lines(out) == want
        else:
            assert rc == 1 and err.startswith("error:"), err


def test_gen_cycle(tmp_path, capsys):
    out = str(tmp_path / "cyc.facts")
    assert main(["gen", "cycle", "5", "--out", out]) == 0
    assert "5 facts written" in capsys.readouterr().out
    with open(out) as f:
        assert f.read() == "R(1,2)\nR(2,3)\nR(3,4)\nR(4,5)\nR(5,1)\n"

    assert main(["gen", "cycle", "2", "--out", out]) == 1
    assert "n >= 3" in capsys.readouterr().err


def test_gen_random(tmp_path, capsys):
    a, b, c = (tmp_path / name for name in ("a", "b", "c"))
    assert main(["gen", "random", "6", "10", "--seed", "3", "--out", str(a)]) == 0
    assert main(["gen", "random", "6", "10", "--seed", "3", "--out", str(b)]) == 0
    assert main(["gen", "random", "6", "10", "--seed", "4", "--out", str(c)]) == 0
    capsys.readouterr()
    fa, fb, fc = (p.read_text() for p in (a, b, c))
    assert fa == fb
    assert fa != fc
    assert len(fa.strip().splitlines()) == 10

    assert main(["gen", "random", "3", "99"]) == 1
    assert "n*n" in capsys.readouterr().err

    assert main(["gen", "random", "3", "2", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2 and all(ln.startswith("R(") for ln in lines)

    # sampling must not list all n*n pairs first
    assert main(["gen", "random", "100000", "5", "--seed", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(set(lines)) == 5


def test_count_matches_enum_line_count(tmp_path, capsys):
    facts = str(tmp_path / "r.facts")
    assert main(["gen", "random", "5", "12", "--seed", "7", "--out", facts]) == 0
    capsys.readouterr()
    for text in (
        "Ans(x,y) <- R(x,y).",
        "Ans(x) <- R(x,y).",
        "Ans(x,y,z) <- R(x,y), R(y,z).",
        "Ans(x) <- R(x,y), R(y,z).",
    ):
        assert main(["query", text, "--db", facts, "--task", "count"]) == 0
        count = int(capsys.readouterr().out.strip())
        assert main(["query", text, "--db", facts, "--task", "enum"]) == 0
        assert len(_enum_lines(capsys.readouterr().out)) == count


def test_count_prints_every_digit(tmp_path, capsys):
    """A count of 4,601 digits, past Python's default limit of 4,300 for
    int-to-str conversion, prints exactly and exits 0."""
    facts = tmp_path / "star.facts"
    facts.write_text("".join(f"R(h,l{i})\n" for i in range(100)))
    k = 2300
    text = f"Ans(h,{','.join(f'a{i}' for i in range(k))}) <- " + ", ".join(
        f"R(h,a{i})" for i in range(k)) + "."
    assert main(["query", text, "--db", str(facts), "--task", "count"]) == 0
    assert capsys.readouterr().out.strip() == "1" + "0" * 4600


# prints the peak resident memory of a `colorcq` run, in KB
_PEAK_MAIN = """
import resource, sys
from colorcq.cli import main
assert main(sys.argv[1:]) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_gen_memory_does_not_grow_with_n(tmp_path):
    """`gen cycle --out` writes each line as it is made, so the peak memory at
    10x the size stays within a few MB of the 1x run."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    peak_kb = {}
    for n in (200_000, 2_000_000):
        out = tmp_path / f"cycle{n}.facts"
        res = subprocess.run([sys.executable, "-c", _PEAK_MAIN, "gen", "cycle", str(n),
                              "--out", str(out)], env=env, capture_output=True, text=True,
                             timeout=120)
        assert res.returncode == 0, res.stderr
        peak_kb[n] = int(res.stdout.split()[-1])
        assert out.stat().st_size > 13 * n
    assert peak_kb[2_000_000] - peak_kb[200_000] < 4 * 1024, peak_kb


def test_query_limit(tmp_path, capsys):
    facts = str(tmp_path / "cyc.facts")
    assert main(["gen", "cycle", "30", "--out", facts]) == 0
    capsys.readouterr()
    assert main(["query", "Ans(x,y) <- R(x,y).", "--db", facts, "--limit", "3"]) == 0
    assert len(_enum_lines(capsys.readouterr().out)) == 3


def test_negative_limit_is_a_usage_error(movie_file, capsys):
    for cmd in ("query", "oracle"):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "Ans(x,y) <- P(x,y).", "--db", movie_file, "--limit", "-1"])
        assert exc.value.code == 2
        assert "--limit: must be >= 0, got -1" in capsys.readouterr().err
    assert main(["query", "Ans(x,y) <- P(x,y).", "--db", movie_file, "--limit", "0"]) == 0
    assert _enum_lines(capsys.readouterr().out) == []


def test_explain_flag(movie_file, capsys):
    assert main(["query", "Ans(x,y) <- P(x,y).", "--db", movie_file, "--explain",
                 "--task", "count"]) == 0
    out = capsys.readouterr().out
    assert "root: x" in out
    assert "color query:" in out
    assert out.strip().endswith("2")


def test_oracle_subcommand(movie_file, capsys):
    assert main(["oracle", "Ans(x,y) <- P(x,y).", "--db", movie_file,
                 "--task", "count"]) == 0
    assert capsys.readouterr().out.strip() == "2"

    assert main(["oracle", "Ans() <- P(x,y), M(y,z).", "--db", movie_file]) == 0
    assert capsys.readouterr().out.strip() == "yes"

    assert main(["oracle", "Ans(x,y) <- P(x,y).", "--db", movie_file]) == 0
    assert set(_enum_lines(capsys.readouterr().out)) == {"(PS,LM)", "(PS,MM)"}


# runs `colorcq` with its address space capped at what the interpreter maps
# after import plus 128 MB, so a MemoryError comes whatever the machine's
# overcommit setting
_CAPPED_MAIN = """
import resource, sys
from colorcq.cli import main
with open("/proc/self/status") as f:
    vm_kb = next(int(line.split()[1]) for line in f if line.startswith("VmSize:"))
cap = vm_kb * 1024 + (128 << 20)
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs /proc and RLIMIT_AS")
@pytest.mark.parametrize("argv", [["gen", "random", "1000000", "1000000000000"],
                                  ["gen", "cycle", "100000000000"]])
def test_gen_out_of_memory_is_an_error_not_a_traceback(argv):
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    res = subprocess.run([sys.executable, "-c", _CAPPED_MAIN, *argv], env=env,
                         capture_output=True, text=True, timeout=120)
    assert (res.returncode, res.stderr, res.stdout) == (1, "error: out of memory\n", "")


def test_optimized_python_prints_the_same(movie_file, tmp_path):
    """`python -O` drops every `assert`.  Build, query and stats print the
    same and exit with the same code with and without it, on the movie facts,
    on a truncated index, and on one crafted index per `corrupt edges` text.
    Timings are left out of the comparison."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    good, cut = str(tmp_path / "movie.ccqx"), str(tmp_path / "cut.ccqx")

    def run(flags: list[str], argv: list[str]):
        res = subprocess.run([sys.executable, *flags, "-m", "colorcq.cli", *argv], env=env,
                             capture_output=True, text=True, timeout=120)
        out = [ln for ln in res.stdout.splitlines() if not ln.startswith("build_seconds.")]
        return res.returncode, out, res.stderr

    def same(argv: list[str], code: int) -> None:
        plain = run([], argv)
        assert plain == run(["-O"], argv), argv
        assert plain[0] == code and "Traceback" not in plain[2], (argv, plain)

    same(["build", "--db", movie_file, "--out", good], 0)
    with open(good, "rb") as f:
        data = f.read()
    with open(cut, "wb") as f:
        f.write(data[:len(data) * 2 // 3])
    query = ["query", "Ans(x,y) <- P(x,y), M(y,z).", "--index"]
    for path, code in ((good, 0), (cut, 1)):
        same(["stats", "--index", path], code)
        same(query + [path], code)
        same(query + [path, "--task", "count"], code)
    for case in ("degree rows out of order", "uneven degrees", "loop edge", "targets not ascending",
                 "missing reverse edge", "pair under two labels"):
        _graph_file(tmp_path / "bad.ccqx", **_DEFECTS[case][0])
        same(["stats", "--index", str(tmp_path / "bad.ccqx")], 1)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("colorcq ")
