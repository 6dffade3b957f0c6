"""The command-line interface, driven in-process."""
from __future__ import annotations

import json
import struct

import numpy as np
import pytest

from colorcq.cli import main
from colorcq.index import FORMAT_VERSION, MAGIC

from .conftest import MOVIE_TEXT


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
    cut_path.write_bytes(data[:16] + b"#" + data[17:])
    assert main(["stats", "--index", str(cut_path)]) == 1
    assert "corrupt index metadata" in capsys.readouterr().err

    # JSON nested deeper than the decoder's recursion limit
    deep = b"[" * 200_000
    cut_path.write_bytes(MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(deep)) + deep)
    assert main(["stats", "--index", str(cut_path)]) == 1
    assert "corrupt index metadata" in capsys.readouterr().err


def _index_file(path, meta, arrays: dict[str, list]) -> None:
    """An index file with the given metadata and int64 array contents."""
    blob = json.dumps(meta).encode("utf-8")
    body = b"".join(np.array(a, dtype="<i8").tobytes() for a in arrays.values())
    path.write_bytes(MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(blob)) + blob + body)


def _meta(constants=("a", "b"), relations=(("R", 2),), shapes=None) -> dict:
    shapes = shapes or {"rel:R": [1, 2], "coloring": [2]}
    return {"constants": list(constants),
            "relations": [{"name": n, "arity": a} for n, a in relations],
            "arrays": [{"name": n, "shape": s} for n, s in shapes.items()]}


_GOOD = {"rel:R": [[0, 1]], "coloring": [0, 1]}

MALFORMED = {
    "only a format key": ({"format": 1}, {}),
    "not an object": ([], {}),
    "constants not a list": ({**_meta(), "constants": "ab"}, _GOOD),
    "constant not a string": (_meta(constants=("a", 7)), _GOOD),
    "repeated constant": (_meta(constants=("a", "a")), _GOOD),
    "arity 3": (_meta(relations=(("R", 3),)), _GOOD),
    "relation entry not an object": ({**_meta(), "relations": ["R"]}, _GOOD),
    "negative shape": (_meta(shapes={"rel:R": [1, 2], "coloring": [-2]}), _GOOD),
    "float shape": (_meta(shapes={"rel:R": [1, 2], "coloring": [2.0]}), _GOOD),
    "dimension too large for numpy": (
        _meta(shapes={"rel:R": [1, 2], "coloring": [2], "x": [0, 2 ** 70]}), _GOOD),
    "three dimensions": (
        _meta(shapes={"rel:R": [1, 2], "coloring": [2], "x": [1, 1, 1]}), {**_GOOD, "x": [0]}),
    "relation array missing": (_meta(shapes={"coloring": [2]}), {"coloring": [0, 1]}),
    "relation array of the wrong width": (
        _meta(shapes={"rel:R": [1, 3], "coloring": [2]}),
        {"rel:R": [[0, 1, 1]], "coloring": [0, 1]}),
    "array listed twice": (
        {**_meta(), "arrays": _meta()["arrays"] * 2}, {**_GOOD, "x": [0, 1, 0, 1]}),
    "colouring missing": (_meta(shapes={"rel:R": [1, 2]}), {"rel:R": [[0, 1]]}),
    "colouring too long": (
        _meta(shapes={"rel:R": [1, 2], "coloring": [3]}),
        {"rel:R": [[0, 1]], "coloring": [0, 1, 1]}),
    "colour id out of range": (_meta(), {"rel:R": [[0, 1]], "coloring": [0, 9]}),
    "negative colour id": (_meta(), {"rel:R": [[0, 1]], "coloring": [-1, 0]}),
    "constant id not interned": (_meta(), {"rel:R": [[0, 5]], "coloring": [0, 1]}),
    "bytes after the arrays": (_meta(), {**_GOOD, "extra": [0]}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_index_metadata_is_exit_1(case, tmp_path, capsys):
    meta, arrays = MALFORMED[case]
    path = tmp_path / "bad.ccqx"
    _index_file(path, meta, arrays)
    assert main(["stats", "--index", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_handmade_index_file_loads(tmp_path, capsys):
    """The helper above writes valid files when nothing is broken."""
    path = tmp_path / "good.ccqx"
    _index_file(path, _meta(), _GOOD)
    assert main(["stats", "--index", str(path)]) == 0
    assert "num_colors: 2" in capsys.readouterr().out


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


def test_bench_smoke(movie_file, tmp_path, capsys):
    queries = tmp_path / "queries.txt"
    queries.write_text(
        "# delay benchmarks\n"
        "Ans(x,y) <- P(x,y).\n"
        "\n"
        "Ans() <- P(x,y), M(y,z).\n"
    )
    assert main(["bench", "--db", movie_file, "--queries", str(queries)]) == 0
    out = capsys.readouterr().out
    assert "prep_ms" in out
    assert "Ans(x,y) <- P(x,y)." in out


def test_bench_limit_zero_times_no_tuples(movie_file, tmp_path, capsys):
    queries = tmp_path / "queries.txt"
    queries.write_text("Ans(x,y) <- P(x,y).\n")
    for limit, timed in ((None, "2"), ("1", "1"), ("0", "0")):
        extra = [] if limit is None else ["--limit", limit]
        assert main(["bench", "--db", movie_file, "--queries", str(queries), *extra]) == 0
        row = capsys.readouterr().out.strip().splitlines()[-1].split()
        assert row[-3:-1] == [timed, "2"]  # tuples timed, count
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--db", movie_file, "--queries", str(queries), "--limit", "-5"])
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("colorcq ")
