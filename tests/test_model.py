"""Data model: schemas, fact parsing, interning, query parsing."""
from __future__ import annotations

import io
import random
import re
import sys

import numpy as np
import pytest

from colorcq import model
from colorcq.cli import main
from colorcq.index import build_index, save_index
from colorcq.model import (
    ColorcqError,
    ConjunctiveQuery,
    Database,
    ParseError,
    Schema,
    SchemaError,
    load_database,
    parse_query,
)

from .conftest import (
    MOVIE_FACTS,
    MOVIE_TEXT,
    adom,
    long_constants_text,
    make_db,
    movie_db,
    random_db,
    tuples,
    utf8_text,
)
from .reference import parse_lines


def test_schema_basic():
    sch = Schema([("R", 2), ("U", 1)])
    assert sch.arity("R") == 2 and sch.arity("U") == 1
    assert "R" in sch and "T" not in sch
    assert sch.binary_symbols == ("R",)
    assert sch.unary_symbols == ("U",)
    with pytest.raises(SchemaError):
        sch.arity("T")


def test_schema_rejects_bad_arity_and_redefinition():
    sch = Schema()
    with pytest.raises(SchemaError):
        sch.add("R", 3)
    with pytest.raises(SchemaError):
        sch.add("R", 0)
    with pytest.raises(SchemaError):
        sch.add("", 1)  # an empty name
    sch.add("R", 2)
    sch.add("R", 2)  # same arity again is a no-op
    with pytest.raises(SchemaError):
        sch.add("R", 1)


def test_load_database_movie():
    db = load_database(io.StringIO(MOVIE_TEXT))
    assert db.size() == 8
    assert len(adom(db)) == 6
    assert db.schema.arity("P") == 2
    assert (db.constants.index("PS"), db.constants.index("LM")) in tuples(db, "P")


def test_load_database_comments_blank_lines_duplicates():
    text = "# header\nR(a,b)\n\nR(a,b)  # repeated on purpose\nU(a)\n"
    db = load_database(text)
    assert db.size() == 2
    assert tuples(db, "R") == {(db.constants.index("a"), db.constants.index("b"))}


def test_load_database_reports_line_numbers():
    with pytest.raises(ParseError, match="line 2"):
        load_database("R(a,b)\nnot a fact\n")
    with pytest.raises(SchemaError, match="line 2"):
        load_database("R(a,b)\nR(a)\n")


def test_load_database_empty_document():
    db = load_database("")
    assert db.size() == 0 and adom(db) == set()


def _outcome(parse, text: str):
    """The error `parse(text)` raises, or everything the Database holds."""
    try:
        db = parse(text)
    except ColorcqError as e:
        return type(e).__name__, str(e)
    return _contents(db)


def _contents(db: Database):
    arrays = {s: (db.array(s).dtype.str, db.array(s).shape, db.array(s).tolist())
              for s in db.schema.symbols}
    return db.schema.symbols, [db.schema.arity(s) for s in db.schema.symbols], db.constants, arrays


def _paths_agree(text: str) -> bool:
    """`load_database` and the reference parser give the same database, or
    the same error type and text, on `text`; True when they build one."""
    ref = _outcome(parse_lines, text)
    assert _outcome(load_database, text) == ref, text
    return not isinstance(ref[0], str)


PREFIXES = "abcdefghijklmnopqrstuvwxyz0123456789ABCD"

# (text, whether it is canonical: a valid fact list written with printable
# characters, spaces, tabs and `\n` only)
PINNED_TEXTS = [
    (" \tR \t( \ta \t, \tb \t) \t\n\tU\t(\ta\t)\t\n", True),
    ("R (a,b)\n", True),
    ("R(a b,c)\n", False),
    ("R(a,)\n", False),
    ("R()\n", False),
    ("R(a,b,c)\n", False),
    ("R(a,b)\nR x(a,b)\n", False),
    ("R(a,b)\n)R(a,b)\n", False),
    ("R(a,b) # x(y,z), # w\n# (,#)\n#\nS(c) #\n", True),
    ("R(a,b)#\n#R(c\n", True),
    ("\n\n  \nR(a,b)\n\n\t\nS(c)", True),
    ("R(a,b)", True),
    ("R(a,b)\r\nS(c)\r\n", False),
    ("R(a,b)\rS(c)\n", False),
    ("R(a,b)\rS(c,d)\n", False),
    ("R(a,b)\x1f\n", False),
    ("R(a,\x1fb)\n", False),
    ("R(a,\xa0b)\nR(a,b)\xa0\n", False),
    ("R(a,b) # \xa0 nbsp\nS(c)\n", False),
    ("R(a,b) # \u2028S(c,d)\n", False),
    ("R(a,b) # \x85S(c,d)\n", False),
    ("R(a,b) # \x0bS(c)\n", False),
    ("R(a\x00b,c)\n", False),
    ("R(a,a\x00)\nR(a\x00,a)\nS(a)\n", False),
    ("R(\u00e9,\u00fc)\nR(\u65e5\u672c,\u00e9)\n", True),
    ("R(abcdefgh,abcdefghi)\nR(abcdefghi,abcdefghij)\nR(abcdefghabcdefgh,abcdefghabcdefghX)\n"
     "R(abcdefghijklmnopq,abcdefghijklmnopqr)\nR(abcdefghabcdefghX,abcdefgh)\n"
     "R(abcdefghijklmnopqrstuvwxyz0123456789,abcdefgh)\n", True),
    ("R(a,b)\nR(c)\n", False),
    ("R(c)\nR(a,b)\n", False),
    ("S(a)\nR(a,b)\nR(b,c)\nS(b,c)\n", False),
    ("S(a)\nR(a,b)\nT(b)\nR(b,c)\nR(d)\n", False),
    ("1R(a,b)\n", False),
    ("R-S(a,b)\n", False),
    ("R.s_1(a,b)\n_x(a)\n", True),
    ("R(.,_)\nR(-,+)\nR(\"',`)\n", True),
    ("", True),
    ("# only a comment", True),
    # constants of every length from 1 to 40, each a prefix of the longer ones
    ("".join(f"R({PREFIXES[:i]},{PREFIXES[:41 - i]})\nU({PREFIXES[:i]})\n" for i in range(1, 41)),
     True),
    # URI-shaped constants that share a prefix and a suffix and differ in the
    # middle, each used several times, alternating with constants of 1-7 bytes
    ("".join(f"R(http://example.org/item/{k * 37 % 11}/id,{PREFIXES[:k % 7 + 1]})\n"
             f"R({PREFIXES[:k % 5 + 3]},http://example.org/item/{k * 53 % 13}/id)\n"
             f"U(http://example.org/item/{k % 9}/id)\n" for k in range(40)),
     True),
    # the first error comes first, whichever check finds it
    ("R(a,b)\nR(c)\nS(d)\nS(d e)\n", False),
    ("R(a,b)\nR(a b)\nR(c)\n", False),
    ("R(a,b)\r\nS(c)\x1cT(d)\u2028S(e)\n1X(e)\nR(f)\n", False),
    ("".join(f"R(a{i},b)\r\n" for i in range(50)) + "R(a,b\r\nR(c)\r\n", False),
]

# the characters a canonical text can be rewritten with: line breaks, then other whitespace
BREAKS = ("\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
SPACES = ("\x1f", "\xa0", "\u1680", "\u2000", "\u200a", "\u202f", "\u205f", "\u3000")


@pytest.mark.parametrize("text,fast", PINNED_TEXTS)
def test_parse_paths_agree_on_pinned_texts(text, fast):
    """Every pinned text gives the reference's outcome; a canonical one also
    gives its database with its line breaks, spaces and tabs rewritten as
    other characters that `str.splitlines` and `str.strip` read the same."""
    built = _paths_agree(text)
    assert fast == (built and all(c.isprintable() or c in " \t\n" for c in text))
    if fast:
        want = _contents(load_database(text))
        for k, (brk, space) in enumerate(zip(BREAKS, SPACES * 2)):
            other = text.replace("\n", brk).replace(" ", space).replace("\t", SPACES[-1 - k % 8])
            assert _contents(load_database(other)) == want, other
            assert _paths_agree(other)


def test_interning_falls_back_where_mixed_keys_collide(monkeypatch):
    """With a multiplier of 0 every two keys share their mixed bits, so
    `_group` takes its stable argsort, and the parse is unchanged."""
    monkeypatch.setattr(model, "_MIX", np.uint64(0))
    for text, fast in PINNED_TEXTS + [(utf8_text(), True), (long_constants_text()[1], True)]:
        assert _paths_agree(text) >= fast


def test_relation_names_grouped_over_many_runs_get_first_appearance_ids(monkeypatch):
    """Shuffled lines over a few relations, in many runs (so their names are grouped by
    one sort, not by runs), of both arities: the parse builds the reference's database."""
    rng = random.Random(38)
    for size in (8, 40, 400):
        lines = [f"{rng.choice('PQSTU')}(c{rng.randrange(size)},c{rng.randrange(size)})"
                 for _ in range(size)] + [f"V(c{rng.randrange(size)})" for _ in range(size // 4)]
        rng.shuffle(lines)
        assert _paths_agree("\n".join(lines))
        for mix in (model._MIX, np.uint64(0)):  # 0: every name shares its mixed bits
            monkeypatch.setattr(model, "_MIX", mix)
            assert _paths_agree("\n".join(lines[::-1]))


def test_parse_paths_agree_when_one_item_of_a_line_is_wrong():
    for shape in (["R", "(", "a", ")"], ["R", "(", "a", ",", "b", ")"]):
        for i in range(len(shape)):
            for item in ("x", "(", ")", ",", " ", "", "#", "\x0b"):
                line = "".join(shape[:i] + [item] + shape[i + 1:])
                _paths_agree(f"S(c,d)\n{line}\nS(d,c)\n")


def _random_fact_text(rng: random.Random) -> str:
    """A conftest random database printed with random constant names,
    spacing, comments and blank lines."""
    db = random_db(rng, max_adom=10)
    alphabet = "abcxyzAB019._-+'!"
    rename = {c: "".join(rng.choice(alphabet) for _ in range(rng.choice((1, 2, 7, 8, 9, 16, 17, 30))))
              for c in db.constants}
    facts = [(sym, tuple(rename[db.constants[c]] for c in t))
             for sym in db.schema.symbols for t in sorted(tuples(db, sym))]
    facts += rng.sample(facts, k=min(len(facts), rng.randint(0, 3)))  # repeated facts
    rng.shuffle(facts)

    def ws():
        return rng.choice(("", "", "", " ", "\t", " \t "))

    lines = []
    for sym, args in facts:
        sep = ws() + "," + ws()
        line = ws() + sym + ws() + "(" + ws() + sep.join(args) + ws() + ")" + ws()
        if rng.random() < 0.1:
            line += "#" + rng.choice(("", " x(y,z)", "#,", " (#"))
        lines.append(line)
        if rng.random() < 0.1:
            lines.append(rng.choice(("", "  ", "# note")))
    return "\n".join(lines) + rng.choice(("\n", ""))


def _mutate(rng: random.Random, text: str) -> str:
    pieces = [" ", "\t", "\n", "(", ")", ",", "#", "R", "U", "a", "\r", "\r\n", "\x00",
              "\x0b", "\x0c", "\x1f", "\x7f", "\xa0", "\u00e9", "\u2028", "\x85"]
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        op = rng.random()
        if op < 0.5:
            text = text[:i] + rng.choice(pieces) + text[i:]
        elif op < 0.8:
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + rng.choice(pieces) + text[i + 1:]
    return text


def test_parse_paths_agree_on_random_and_mutated_texts():
    rng = random.Random(20261018)
    built = rejected = 0
    for _ in range(400):
        text = _random_fact_text(rng)
        assert _paths_agree(text), text  # canonical texts are built
        for _ in range(3):
            mutated = _mutate(rng, text)
            built += _paths_agree(mutated)
            try:
                parse_lines(mutated)
            except ColorcqError:
                rejected += 1
    # the mutations hit both sides: texts that are built, and errors
    assert built > 150 and rejected > 500


def test_parse_paths_agree_on_arity_conflicts_at_every_line():
    facts = ["R(a,b)", "S(b)", "R(b,c)", "T(c,c)", "S(a)", "R(c,a)"]
    for i in range(len(facts) + 1):
        for bad in ("R(a)", "S(a,b)", "T(c)"):
            lines = facts[:i] + [bad] + facts[i:]
            arity: dict[str, int] = {}
            lineno = next(k for k, f in enumerate(lines, start=1)
                          if arity.setdefault(f[0], f.count(",") + 1) != f.count(",") + 1)
            text = "\n".join(lines) + "\n"
            assert not _paths_agree(text)
            with pytest.raises(SchemaError, match=f"^line {lineno}: symbol '{bad[0]}'"):
                load_database(text)


def _multirel_text(rng: random.Random, copies: int) -> str:
    lines = []
    for j in range(copies):
        for v in range(1, 8):
            lines.append(f"{rng.choice('PQST')}(t{j}_{rng.randrange(v)},t{j}_{v})")
        lines.append(f"{rng.choice('PQST')}(t{j}_3,t{j}_3)")
        lines.append(f"U(t{j}_{rng.randrange(8)})")
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


def test_save_index_bytes_agree_between_parse_paths(tmp_path):
    n = 2000
    cycle = "".join(f"R({i},{i % n + 1})\n" for i in range(1, n + 1))
    for name, text in (("cycle", cycle), ("multirel", _multirel_text(random.Random(5), 250)),
                       ("utf8", utf8_text())):
        save_index(build_index(load_database(text)), str(tmp_path / f"{name}.fast"))
        save_index(build_index(parse_lines(text)), str(tmp_path / f"{name}.lines"))
        assert (tmp_path / f"{name}.fast").read_bytes() == (tmp_path / f"{name}.lines").read_bytes()


def test_long_constants_get_the_line_parser_ids():
    """Constants of several 8-byte words that differ only in their first or
    only in their last word get the ids of the reference parser."""
    consts, text = long_constants_text()
    assert all(17 <= len(c) <= 40 for c in consts) and len(set(consts)) == len(consts)
    assert _paths_agree(text)
    assert sorted(load_database(text).constants) == sorted(consts)


def test_generated_cycle_is_parsed_by_the_array_path(tmp_path):
    path = tmp_path / "cycle.facts"
    assert main(["gen", "cycle", "1000", "--out", str(path)]) == 0
    with open(path, encoding="utf-8") as f:
        db = load_database(f)
    assert db.size() == 1000 and db.constants == [str(i) for i in range(1, 1001)]


def test_utf8_text_is_parsed_by_the_array_path():
    """Constants with é, ü and CJK characters, of up to 7 UTF-8 bytes and of
    more, and comments that hold é, are read as their UTF-8 bytes."""
    text = utf8_text()
    assert not text.isascii() and any(len(c.encode("utf-8")) > 7 for c in re.findall(r"[^\s(),#]+", text))
    ref = _contents(parse_lines(text))
    db = load_database(text)
    assert "constants" not in vars(db)  # kept as their block until read
    assert _contents(db) == ref and len(db.constants) == db.num_constants == 11


def test_odd_code_points_are_where_the_reference_reads_space():
    """The stand-ins cover exactly the code points other than space, tab and
    `\\n` that `\\s`, `str.strip` or `str.splitlines` treat as space or a line
    break: each has a stand-in of its UTF-8 length, ending in `\\n` exactly
    for a line break.  A text that holds any of them, or a lone surrogate
    (a constant byte, like NUL and DEL), gives the reference's database."""
    space, odd = re.compile(r"\s"), []
    for c in range(sys.maxunicode + 1):
        ch = chr(c)
        if ch not in " \t\n" and (space.match(ch) or ch.isspace() or len(ch.join("ab").splitlines()) > 1):
            odd.append(ch)
    ascii_odd = [ch for ch in odd if ch.isascii()]
    assert [chr(b) for b in range(128) if model._ASCII_STAND_IN[b] != b] == ascii_odd
    assert sorted(k.decode() for k in model._WIDE_STAND_IN) == odd[len(ascii_odd):]
    for ch in odd:
        stand_in = model._ASCII_STAND_IN[ord(ch)].to_bytes() if ch.isascii() else model._WIDE_STAND_IN[ch.encode()]
        breaks = len(ch.join("ab").splitlines()) > 1
        assert len(stand_in) == len(ch.encode()) and stand_in == b" " * (len(stand_in) - breaks) + b"\n" * breaks
        for text in (f"R(a,b{ch}c)\n", f"R(a,b){ch}S(c)\n", f"R(a,b{ch})", f"R(a{ch}b)\n"):
            _paths_agree(text)
    surrogates = [chr(c) for c in range(0xD800, 0xE000)]
    assert _paths_agree("".join(f"R(a{ch},{ch}\x00{ch})\nU({ch}\x7f)\n" for ch in surrogates))


def test_interning_round_trip_and_adom():
    db = movie_db()
    for name in ("PS", "LM", "MM", "Dr.S", "18m", "34m"):
        assert db.constants[db.constants.index(name)] == name
    assert adom(db) == set(range(6))
    # an interned constant that appears in no fact is not in the active domain
    db = make_db(db.schema, MOVIE_FACTS, constants=[*db.constants, "ghost"])
    assert db.constants.index("ghost") not in adom(db)


def test_set_relation_checks_shape_and_ids():
    """`set_relation` is the one way rows enter a Database; `load_index`
    relies on its checks for foreign files."""
    db = Database(Schema([("R", 2), ("U", 1)]), constants=["a", "b"])
    for rel, rows in (("R", [[0]]), ("R", [0, 1]), ("R", [[0, 1, 1]]), ("U", [[0, 1]]),
                      ("R", np.zeros((0, 1), np.int64)), ("T", [[0, 1]])):
        with pytest.raises(SchemaError):
            db.set_relation(rel, rows)
    for rel, rows in (("R", [[0, 2]]), ("R", [[-1, 0]]), ("U", [[2]]), ("U", [[-1]])):
        with pytest.raises(ColorcqError, match="not interned"):
            db.set_relation(rel, rows)
    # a cast would store [[0.9, 1.7]] as [[0, 1]] and read bools and digits as ids
    for rows, dtype in (([[0.9, 1.7]], "float64"), ([[True, False]], "bool"),
                        ([["0", "1"]], "<U1"), ([[2**70, 1]], "object")):
        with pytest.raises(ColorcqError, match=f"takes integer ids, not dtype {dtype}"):
            db.set_relation("R", rows)
    assert db.size() == 0
    db.set_relation("R", [[1, 0], [0, 1], [1, 0]])
    assert db.array("R").tolist() == [[0, 1], [1, 0]]


def test_rename_genericity():
    """Renaming constants yields an isomorphic database (same sizes/structure)."""
    rng = random.Random(7)
    for _ in range(20):
        db = random_db(rng, max_adom=6)
        ren = {c: f"z{i}" for i, c in enumerate(db.constants)}
        text = []
        for sym in db.schema.symbols:
            for t in tuples(db, sym):
                text.append(f"{sym}({','.join(ren[db.constants[c]] for c in t)})")
        if not text:
            continue
        db2 = load_database("\n".join(text))
        assert db2.size() == db.size()
        assert len(adom(db2)) == len(adom(db))
        for sym in db.schema.symbols:
            back = {
                tuple(db.constants[c] for c in t): None for t in tuples(db, sym)
            }
            fwd = {
                tuple(db2.constants[c] for c in t) for t in tuples(db2, sym)
            }
            assert fwd == {tuple(ren[n] for n in t) for t in back}


def test_parse_query_example5_shape():
    q = parse_query("Ans(x1,x2) <- R(x1,x2), R(x3,x1), R(x2,x2).")
    assert q.head == ("x1", "x2")
    assert len(q.atoms) == 3
    assert q.variables() == ("x1", "x2", "x3")
    assert not q.is_boolean


def test_parse_query_boolean_and_optional_period():
    q = parse_query("Ans() <- R(x,y)")
    assert q.is_boolean and q.head == ()


def test_parse_query_deduplicates_atoms():
    q = parse_query("Ans(x) <- R(x,y), R(x,y).")
    assert len(q.atoms) == 1


def test_parse_query_errors():
    with pytest.raises(ParseError):
        parse_query("Ans(x,x) <- R(x,y).")  # repeated head variable
    with pytest.raises(ParseError):
        parse_query("Ans(z) <- R(x,y).")  # head variable not in body
    with pytest.raises(ParseError):
        parse_query("Ans(x) <- R(x,A).")  # constants unsupported
    with pytest.raises(ParseError):
        parse_query("nonsense")
    with pytest.raises(ParseError):
        parse_query("Ans(x) <- R(x,y) junk R(y,x).")
    with pytest.raises(ParseError):
        parse_query("Ans() <- .")  # no atoms
    with pytest.raises(ParseError):
        ConjunctiveQuery(head=(), atoms=())  # no atoms, built without the parser


def test_parse_query_against_schema():
    sch = Schema([("R", 2), ("U", 1)])
    parse_query("Ans(x) <- R(x,y), U(y).", sch)
    with pytest.raises(SchemaError):
        parse_query("Ans(x) <- T(x,y).", sch)
    with pytest.raises(SchemaError):
        parse_query("Ans(x) <- U(x,y).", sch)


def test_query_str_round_trip():
    q = parse_query("Ans(y,x) <- R(x,y), U(x).")
    assert parse_query(str(q)) == q


def test_query_variables_first_occurrence_order():
    q = parse_query("Ans() <- R(z,y), R(y,x).")
    assert q.variables() == ("z", "y", "x")
    assert ConjunctiveQuery(head=(), atoms=q.atoms).is_boolean
