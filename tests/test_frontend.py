"""Query checking, decomposition, and planning."""
from __future__ import annotations

import ast
import hashlib
import random
import time
from pathlib import Path

import pytest

import colorcq
from colorcq.frontend import (
    QueryRejected,
    check_free_connex_acyclic,
    explain_plan,
    plan_query,
)
from colorcq.graph import EdgeLabel, sigma1_for
from colorcq.model import Atom, ConjunctiveQuery, ParseError, Schema, SchemaError, parse_query

RS = Schema([("R", 2), ("S", 2), ("U", 1)])


def _q(text: str) -> ConjunctiveQuery:
    return parse_query(text)


def test_cycle_is_rejected_with_witness():
    chk = check_free_connex_acyclic(_q("Ans() <- R(x,y), R(y,z), R(z,x)."))
    assert not chk
    assert chk.diagnostic == "Gaifman graph has a cycle: x-y-z-x"
    assert chk.cycle == ("x", "y", "z", "x")
    adj = _q("Ans() <- R(x,y), R(y,z), R(z,x).").adj
    for a, b in zip(chk.cycle, chk.cycle[1:]):
        assert b in adj[a]


def test_package_has_no_assert_statements():
    """`python -O` strips asserts, so no check in the package may be one."""
    for path in sorted(Path(colorcq.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name}: assert on lines {lines}"


def test_disconnected_free_pair_is_rejected():
    chk = check_free_connex_acyclic(_q("Ans(x,z) <- R(x,y), S(y,z)."))
    assert not chk
    assert chk.free_pair == ("x", "z")
    assert chk.diagnostic == (
        "free variables x and z are connected only through quantified variables"
    )


def test_accepted_shapes():
    for text in (
        "Ans(y,z) <- P(x,y), M(y,z).",
        "Ans() <- R(x,y), R(y,z).",
        "Ans(x,z) <- R(x,x), S(x,z).",       # loops add no Gaifman edges
        "Ans(x,y) <- R(x,v), S(y,w).",       # free vars in separate components
        "Ans(x) <- U(x).",
        "Ans(x1,x2) <- R(x1,x2), R(x3,x1), R(x2,x2).",
    ):
        chk = check_free_connex_acyclic(_q(text))
        assert chk and chk.accepted and chk.diagnostic is None, text


def test_multi_edge_between_same_vars_is_not_a_cycle():
    assert check_free_connex_acyclic(_q("Ans(x,y) <- R(x,y), S(x,y), R(y,x)."))


def test_remove_self_loops():
    q = _q("Ans(y,z) <- P(x,y), M(y,z).")
    assert plan_query(q, Schema([("P", 2), ("M", 2)])).components[0].q1 == q

    q = ConjunctiveQuery(
        head=("x",),
        atoms=(Atom("R", ("x", "x")), Atom("R", ("x", "x")), Atom("S", ("x", "x"))),
    )
    out = plan_query(q, RS).components[0].q1
    assert out.atoms == (Atom("S_R", ("x",)), Atom("S_S", ("x",)))
    assert out.head == ("x",)


def test_decompose_components_ordering():
    q = _q("Ans(x,w) <- R(x,y), S(w,v), R(u,u).")
    plan = plan_query(q, RS)
    assert [str(c.query) for c in plan.components] == [
        "Ans(x) <- R(x,y).",
        "Ans(w) <- S(w,v).",
        "Ans() <- R(u,u).",
    ]
    assert [ci for ci, _ in plan.head_slots] == [0, 1]


def test_components_sorted_by_first_head_position():
    q = _q("Ans(b,a) <- R(a,u), S(b,v).")
    plan = plan_query(q, RS)
    assert [c.query.head for c in plan.components] == [("b",), ("a",)]
    assert plan.head_slots == ((0, 0), (1, 0))


def test_worked_plan_with_loop_atom():
    """Ans(x1,x2) <- R(x1,x2), R(x3,x1), R(x2,x2): loop becomes a unary atom,
    the order is x1 < x2 < x3, and the colour query reads the labels off the
    two tree edges."""
    q = _q("Ans(x1,x2) <- R(x1,x2), R(x3,x1), R(x2,x2).")
    plan = plan_query(q, Schema([("R", 2)]))
    assert len(plan.components) == 1
    c = plan.components[0]
    assert c.q1.atoms == (
        Atom("R", ("x1", "x2")), Atom("R", ("x3", "x1")), Atom("S_R", ("x2",)),
    )
    assert c.root == "x1"
    assert c.order == ("x1", "x2", "x3")
    assert c.free_prefix == ("x1", "x2")
    assert dict(zip(c.order, c.unary)) == {
        "x1": frozenset(), "x2": frozenset({("R", 2)}), "x3": frozenset()}
    assert c.lambda_e == {
        ("x1", "x2"): EdgeLabel([("R", "+")]),
        ("x1", "x3"): EdgeLabel([("R", "-")]),
    }
    assert c.q_col.head == ("x1", "x2")
    assert c.q_col.atoms == (
        Atom("S_R", ("x2",)),
        Atom("E{(R,+)}", ("x1", "x2")),
        Atom("E{(R,-)}", ("x1", "x3")),
    )
    assert plan.head_slots == ((0, 0), (0, 1))


def test_single_atom_plan():
    plan = plan_query(_q("Ans(x,y) <- R(x,y)."), RS)
    c = plan.components[0]
    assert c.q_col.atoms == (Atom("E{(R,+)}", ("x", "y")),)
    assert c.q_col.head == ("x", "y")


def test_opposing_atoms_fold_into_one_label():
    plan = plan_query(_q("Ans(x) <- R(x,y), S(y,x)."), RS)
    c = plan.components[0]
    assert c.lambda_e == {("x", "y"): EdgeLabel([("R", "+"), ("S", "-")])}
    assert c.q_col.atoms == (Atom("E{(R,+),(S,-)}", ("x", "y")),)

    plan = plan_query(_q("Ans(x,y) <- R(x,y), S(x,y), R(y,x)."), RS)
    c = plan.components[0]
    assert c.lambda_e[("x", "y")] == EdgeLabel([("R", "+"), ("R", "-"), ("S", "+")])
    assert len(c.q_col.atoms) == 1


def test_head_slots_undo_internal_reordering():
    plan = plan_query(_q("Ans(x,z,y) <- R(x,y), S(y,z)."), RS)
    c = plan.components[0]
    assert c.order == ("x", "y", "z")
    assert plan.head_slots == ((0, 0), (0, 2), (0, 1))


def test_unary_only_plan():
    plan = plan_query(_q("Ans(x) <- U(x)."), RS)
    c = plan.components[0]
    assert c.order == ("x",)
    assert c.q_col.atoms == (Atom("U", ("x",)),)


def test_plan_query_errors():
    with pytest.raises(SchemaError):
        plan_query(_q("Ans(x) <- T(x,y)."), RS)
    with pytest.raises(SchemaError, match="arity"):
        plan_query(ConjunctiveQuery(head=("x",), atoms=(Atom("R", ("x",)),)), RS)
    with pytest.raises(SchemaError, match=r"^atom R\(\) uses R with arity 0, schema says 2$"):
        plan_query(ConjunctiveQuery(head=(), atoms=(Atom("R", ()),)), RS)
    with pytest.raises(QueryRejected) as exc:
        plan_query(_q("Ans() <- R(x,y), R(y,z), R(z,x)."), RS)
    assert "cycle" in exc.value.diagnostic


def _random_query(rng: random.Random) -> ConjunctiveQuery:
    pool = ["v", "w", "x", "y", "z"][: rng.randint(2, 5)]
    atoms = []
    for _ in range(rng.randint(1, 5)):
        rel = rng.choice(["R", "S", "U"])
        if rel == "U":
            atoms.append(Atom(rel, (rng.choice(pool),)))
        else:
            atoms.append(Atom(rel, (rng.choice(pool), rng.choice(pool))))
    seen = sorted({v for a in atoms for v in a.args})
    head = tuple(rng.sample(seen, rng.randint(0, min(3, len(seen)))))
    return ConjunctiveQuery(head=head, atoms=tuple(atoms))


def test_hand_built_and_parsed_queries_plan_alike():
    """Construction builds the Gaifman graph the same way for either kind of
    query: each of the 2,000 seeded random queries, built by hand with its
    atoms shuffled and some repeated, plans field by field as its text does
    once parsed, or is rejected with the same diagnostic."""
    rng, mix = random.Random(2026), random.Random(2027)
    planned = 0
    for _ in range(2000):
        q = _random_query(rng)
        atoms = [*q.atoms, *mix.choices(q.atoms, k=mix.randint(0, 2))]
        mix.shuffle(atoms)
        built = ConjunctiveQuery(head=q.head, atoms=tuple(atoms))
        parsed = parse_query(str(built), RS)
        try:
            mine = plan_query(built, RS)
        except QueryRejected as e:
            with pytest.raises(QueryRejected) as theirs:
                plan_query(parsed, RS)
            assert theirs.value.diagnostic == e.diagnostic
            continue
        theirs = plan_query(parsed, RS)
        assert mine.head_slots == theirs.head_slots
        for a, b in zip(mine.components, theirs.components, strict=True):
            for name in ("order", "parent", "children", "unary", "label"):
                assert getattr(a, name) == getattr(b, name), (str(built), name)
        planned += 1
    assert planned > 1000


def test_plan_checks_arities_against_its_own_schema():
    """A query parsed with no schema, or against one with other arities, is
    checked by `plan_query` against the schema it is given; the first atom
    that disagrees is named."""
    other = Schema([("R", 1), ("S", 2), ("U", 2)])
    for text, schema, msg in (
        ("Ans(x) <- R(x), S(x,y).", None, "atom R(x) uses R with arity 1, schema says 2"),
        ("Ans() <- R(x,y), R(x).", None, "atom R(x) uses R with arity 1, schema says 2"),
        ("Ans() <- S(x,y), T(y,z).", None, "unknown relation symbol 'T'"),
        ("Ans() <- T(x), R(x), S(x,y).", None, "unknown relation symbol 'T'"),
        ("Ans(x) <- U(x,y), R(x).", other, "atom U(x,y) uses U with arity 2, schema says 1"),
        ("Ans(x) <- S(x,y), R(y).", other, "atom R(y) uses R with arity 1, schema says 2"),
    ):
        q = parse_query(text, schema)
        with pytest.raises(SchemaError) as exc:
            plan_query(q, RS)
        assert str(exc.value) == msg


def test_unary_and_loop_atoms_never_decide_acceptance():
    """Dropping unary atoms and self-loop atoms (and restricting the head to
    the remaining variables) does not change the outcome of the check."""
    rng = random.Random(47)
    compared = 0
    for _ in range(400):
        q = _random_query(rng)
        core = tuple(
            a for a in q.atoms if len(a.args) == 2 and a.args[0] != a.args[1]
        )
        if not core:
            continue
        vs = {v for a in core for v in a.args}
        stripped = ConjunctiveQuery(
            head=tuple(v for v in q.head if v in vs), atoms=core
        )
        assert check_free_connex_acyclic(q).accepted == (
            check_free_connex_acyclic(stripped).accepted
        )
        compared += 1
    assert compared > 200


def test_color_query_is_itself_accepted_and_replans_identically():
    rng = random.Random(53)
    checked = 0
    for _ in range(200):
        q = _random_query(rng)
        if not check_free_connex_acyclic(q):
            continue
        plan = plan_query(q, RS)
        for c in plan.components:
            assert check_free_connex_acyclic(c.q_col)
            schema = Schema({(a.rel, len(a.args)) for a in c.q_col.atoms})
            (replanned,) = plan_query(c.q_col, schema).components
            assert replanned.order == c.order
            assert replanned.parent == c.parent
            checked += 1
    assert checked > 50


def test_plan_is_deterministic():
    q = _q("Ans(x,y) <- R(x,v), S(y,w), U(v).")
    p1, p2 = plan_query(q, RS), plan_query(q, RS)
    assert [c.order for c in p1.components] == [c.order for c in p2.components]
    assert [c.q_col for c in p1.components] == [c.q_col for c in p2.components]
    assert p1.head_slots == p2.head_slots


def test_sigma1_memo_follows_schema_changes():
    schema = Schema([("R", 2)])
    q = _q("Ans(x) <- R(x,x), R(x,y).")
    comp = plan_query(q, schema).components[0]
    assert comp.s1 == sigma1_for(schema)
    assert comp.unary[0] == {("R", 2)}  # x is the root
    assert "lambda_x(x) = {S_R}" in explain_plan(plan_query(q, schema))

    schema.add("T", 2)
    comp = plan_query(q, schema).components[0]
    assert comp.s1 == sigma1_for(schema)
    assert comp.s1.loop_symbol == {"R": "S_R", "T": "S_T"}

    schema.add("S_R", 1)  # a user symbol takes the loop symbol's name
    comp = plan_query(q, schema).components[0]
    assert comp.s1 == sigma1_for(schema)
    assert comp.s1.loop_symbol == {"R": "_S_R", "T": "S_T"}
    assert comp.unary[0] == {("R", 2)}  # the plan holds the atom; only names change
    assert str(comp.q_col) == "Ans(x) <- _S_R(x), E{(R,+)}(x,y)."


def test_explain_plan_smoke():
    q = _q("Ans(x1,x2) <- R(x1,x2), R(x3,x1), R(x2,x2).")
    text = explain_plan(plan_query(q, Schema([("R", 2)])))
    assert "components: 1" in text
    assert "root: x1" in text
    assert "x1 < x2 < x3" in text
    assert "lambda_x(x2) = {S_R}" in text
    assert "color query:" in text
    assert "output slots:" in text

    btext = explain_plan(plan_query(_q("Ans() <- R(x,y)."), RS))
    assert "(boolean)" in btext
    assert "output slots:" not in btext


MULTIREL = Schema([("P", 2), ("Q", 2), ("S", 2), ("T", 2), ("U", 1)])
BENCH_MIX = (
    (Schema([("R", 2)]), (
        "Ans() <- R(x,y), R(y,z).",
        "Ans() <- R(x,x).",
        "Ans(x,y) <- R(x,y).",
        "Ans(x) <- R(x,y), R(y,z).",
        "Ans(x,y,z) <- R(x,y), R(y,z).",
        "Ans(y,z,w) <- R(x,y), R(z,y), R(z,w).",
        "Ans() <- R(x,y), R(y,z), R(z,w).",
        "Ans(x,y,z,w) <- R(x,y), R(y,z), R(z,w).",
        "Ans(x) <- R(x,y), R(y,z), R(z,w).",
        "Ans() <- R(x,y), R(y,x), R(x,x).",
        "Ans(x,y) <- R(x,y), R(y,x).",
        "Ans(x,y,z,w) <- R(x,y), R(y,z), R(w,z).",
    )),
    (MULTIREL, (
        "Ans() <- P(x,y), Q(y,z).",
        "Ans() <- U(x), T(x,x).",
        "Ans(x,y) <- P(x,y).",
        "Ans(x,y) <- P(x,y), Q(x,y).",
        "Ans(x,y,z) <- S(x,y), T(y,z), U(z).",
        "Ans(x) <- U(x), P(x,y), P(y,y).",
        "Ans(x,y,z,w) <- P(x,y), S(z,w).",
        "Ans(z,w) <- S(z,w).",
    )),
)


def test_plans_match_pinned_digest():
    """Every plan, and every rejection, is pinned: the sha256 over one entry
    per query (its `explain_plan` text, or `REJECTED: <diagnostic>`) for 2,000
    seeded random queries over RS and the benchmark's query mixes."""

    def entry(q: ConjunctiveQuery, schema: Schema) -> str:
        try:
            return explain_plan(plan_query(q, schema))
        except QueryRejected as e:
            return f"REJECTED: {e.diagnostic}"

    rng = random.Random(2026)
    corpus = [(_random_query(rng), RS) for _ in range(2000)]
    corpus += [(_q(text), schema) for schema, texts in BENCH_MIX for text in texts]
    digest = hashlib.sha256()
    rejected = 0
    for q, schema in corpus:
        text = entry(q, schema)
        rejected += text.startswith("REJECTED: ")
        digest.update(text.encode() + b"\n")
    assert 50 < rejected < 500
    assert digest.hexdigest() == "7ca0b470cfb799ef7313d5a6d18e2ac22d56d5a0fc4c8a0297c1a4eea8fa9049"


# whitespace the query grammar accepts wherever it allows space, Unicode included
_WS = ("", "", " ", "  ", "\t", "\n", " \n\t", "\r\n", "\x0b", "\x0c", " ", " ")
_JUNK = ("junk", ";", ", ,", ",,", "&", "-", ".", "9", "Ans", "<-", "(", ")", "()")


def _outcome_texts(rng: random.Random, head: list[str], atoms: list[tuple[str, list[str]]],
                   mutate: bool) -> str:
    """One rendering of `Ans(head) <- atoms` with random spacing, separators,
    leading and trailing commas, duplicate atoms and final period; with
    `mutate`, one or two edits that each make the front end raise."""
    head, atoms = list(head), [(r, list(a)) for r, a in atoms]
    body_vars = [v for _, args in atoms for v in args]
    prefix, between, suffix = "Ans", {}, ""
    for _ in range(rng.randint(1, 2) if mutate else 0):
        kind = rng.randrange(13)
        i = rng.randrange(max(1, len(atoms)))
        if kind == 0:
            prefix = rng.choice(("", "ans", "Ans2", "Ans(", "Ans("))
        elif kind == 1:
            head.insert(rng.randint(0, len(head)), rng.choice(("X", "1x", "x-y", "", "a b", "Q1")))
        elif kind == 2:
            head.append(rng.choice(head or body_vars))
        elif kind == 3:
            head.insert(rng.randint(0, len(head)), rng.choice(("q", "missing", "x9")))
        elif kind == 4 and atoms and atoms[i][1]:
            args = atoms[i][1]
            args[rng.randrange(len(args))] = rng.choice(("A", "1", "'a'", "Bob", "x y", "", "_v"))
        elif kind == 5 and atoms:
            atoms[i] = (atoms[i][0], rng.choice(([], ["x", "y", "z"], ["x", "x", "x"])))
        elif kind == 6:
            between[i] = rng.choice(_WS) + rng.choice(_JUNK) + rng.choice(_WS)
        elif kind == 7:
            suffix = rng.choice((" z", "..", " extra", ", ,", " junk(", ")", ". R(x,y)", ".,"))
        elif kind == 8:
            atoms.insert(i, (rng.choice(("T", "V.w", "_x", "r")), ["x", "y"][: rng.randint(1, 2)]))
        elif kind == 9:
            atoms.insert(i, rng.choice((("U", ["x", "y"]), ("R", ["x"]), ("S", ["y"]))))
        elif kind == 10:
            atoms += [("R", ["x", "y"]), ("R", ["y", "z"]), ("S", ["z", "x"])]
        elif kind == 11:
            head[:] = ["x", "z"]
            atoms[:] = [("R", ["x", "y"]), ("S", ["y", "z"])]
        elif kind == 12:
            atoms[:] = []
    if not mutate and atoms and rng.random() < 0.3:  # a duplicate atom
        atoms.insert(rng.randint(0, len(atoms)), rng.choice(atoms))

    def w() -> str:
        return rng.choice(_WS)

    def items(xs: list[str]) -> str:
        return w() + "".join((w() + "," + w() if j else "") + x for j, x in enumerate(xs)) + w()

    out = [w(), prefix, w(), "(", items(head), ")", w(), "<-", w()]
    out.append(rng.choice(("", "", "", ",", " , ")))
    for j, (rel, args) in enumerate(atoms):
        if j:
            out.append(rng.choice(("", " ", "\n", "\t", ",", ", ", " ,\n", " ")))
        out += [between.get(j, ""), rel, w(), "(", items(args), ")"]
    out.append(rng.choice(("", "", ",", " ,")))
    out.append(rng.choice(("", ".", " .", ". ", "\n.\n", "\t.")))
    return "".join(out) + suffix


def test_front_end_outcomes_match_pinned_digest():
    """Every front-end outcome is pinned, errors word for word: the sha256 over
    `explain_plan(plan_query(parse_query(t, s), s))`, or `Type: message` when
    a call raises, for seeded query texts over RS and the benchmark mixes,
    valid ones in many spellings and ones mutated to hit every error."""
    rng = random.Random(4111)
    corpus: list[tuple[str, Schema]] = []
    for _ in range(3000):
        q = _random_query(rng)
        atoms = [(a.rel, list(a.args)) for a in q.atoms]
        corpus.append((_outcome_texts(rng, list(q.head), atoms, rng.random() < 0.5), RS))
    for schema, texts in BENCH_MIX:
        for text in texts:
            q = _q(text)
            atoms = [(a.rel, list(a.args)) for a in q.atoms]
            for j in range(40):
                corpus.append((_outcome_texts(rng, list(q.head), atoms, j % 2 == 1), schema))

    digest = hashlib.sha256()
    kinds: set[str] = set()
    for text, schema in corpus:
        try:
            out = explain_plan(plan_query(parse_query(text, schema), schema))
            kinds.add("plan")
        except colorcq.ColorcqError as e:
            out = f"{type(e).__name__}: {e}"
            kinds.add(f"{type(e).__name__}: " + " ".join(str(e).split()[:2]))
        digest.update(out.encode() + b"\n")
    for kind in (
        "plan", "ParseError: cannot parse", "ParseError: head: ", "ParseError: atom",
        "ParseError: unexpected text", "ParseError: unexpected trailing",
        "ParseError: query needs", "ParseError: repeated variable", "ParseError: head variable(s)",
        "SchemaError: unknown relation", "SchemaError: atom", "QueryRejected: Gaifman graph",
        "QueryRejected: free variables",
    ):
        assert any(k.startswith(kind) for k in kinds), kind
    assert digest.hexdigest() == "f617f1ee36701ff7c8a9e6bc5f066e16738c6be2f8b190ca7f9b283c1c354797"


def _front_end_seconds(text: str, calls: int = 1) -> float:
    """CPU time of parse plus plan, per call over `calls` calls: time other
    processes take is not counted."""
    t0 = time.process_time()
    for _ in range(calls):
        try:
            plan_query(parse_query(text, RS), RS)
        except ParseError:
            pass
    return (time.process_time() - t0) / calls


def test_front_end_is_linear_in_the_query():
    """Parse plus plan of a query 4x as long takes < 8x the time (linear is
    ~4x, quadratic ~16x), for whitespace before junk, a full path query and a
    full star query; each size is timed 15 times in CPU time, interleaved,
    and the least time per call counts.  A sample of the short query times 4
    calls, so that at linear cost both samples run about as long and a
    scheduler tick weighs as little on either.  Whitespace before junk once
    backtracked cubically, and the star's plan once grew the root's tuple of
    children one child at a time."""
    shapes = {
        "junk": lambda n: "Ans() <- R(x,y)" + " " * (10 * n) + "z",
        "path": lambda n: f"Ans({','.join(f'x{i}' for i in range(n + 1))}) <- "
                          + ", ".join(f"R(x{i},x{i + 1})" for i in range(n)) + ".",
        "star": lambda n: f"Ans(c,{','.join(f'x{i}' for i in range(n))}) <- "
                          + ", ".join(f"R(c,x{i})" for i in range(n)) + ".",
    }
    for name, make in shapes.items():
        texts = (make(1000), make(4000))
        best = [float("inf")] * 2
        for _ in range(15):
            best = [min(b, _front_end_seconds(t, calls)) for b, t, calls in zip(best, texts, (4, 1))]
        assert best[1] < 8 * best[0], (name, best)

    t0 = time.perf_counter()
    with pytest.raises(ParseError, match="^unexpected trailing text 'z' in query body$"):
        parse_query("Ans() <- R(x,y)" + " " * 20_000 + "z", RS)
    assert time.perf_counter() - t0 < 5
