"""Query checking, decomposition, and planning."""
from __future__ import annotations

import ast
import hashlib
import random
from pathlib import Path

import pytest

import colorcq
from colorcq.frontend import (
    QueryRejected,
    build_plan,
    check_free_connex_acyclic,
    decompose_components,
    explain_plan,
    gaifman_adjacency,
    plan_query,
    remove_self_loops,
)
from colorcq.graph import EdgeLabel, sigma1_for
from colorcq.model import Atom, ColorcqError, ConjunctiveQuery, Schema, SchemaError, parse_query

RS = Schema([("R", 2), ("S", 2), ("U", 1)])
S1 = sigma1_for(RS)


def _q(text: str) -> ConjunctiveQuery:
    return parse_query(text)


def test_cycle_is_rejected_with_witness():
    chk = check_free_connex_acyclic(_q("Ans() <- R(x,y), R(y,z), R(z,x)."))
    assert not chk
    assert chk.diagnostic == "Gaifman graph has a cycle: x-y-z-x"
    assert chk.cycle == ("x", "y", "z", "x")
    adj = gaifman_adjacency(_q("Ans() <- R(x,y), R(y,z), R(z,x)."))
    for a, b in zip(chk.cycle, chk.cycle[1:]):
        assert b in adj[a]


def test_build_plan_rejects_a_non_tree_edge():
    """Called directly on a cyclic component, build_plan must refuse it,
    also under `python -O`, instead of dropping the non-tree edge."""
    q = _q("Ans() <- R(x,y), R(y,z), R(z,x).")
    with pytest.raises(ColorcqError, match="not a tree"):
        build_plan(q, q)


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
    s1 = sigma1_for(Schema([("P", 2), ("M", 2)]))
    assert remove_self_loops(q, s1) == q

    q = ConjunctiveQuery(
        head=("x",),
        atoms=(Atom("R", ("x", "x")), Atom("R", ("x", "x")), Atom("S", ("x", "x"))),
    )
    out = remove_self_loops(q, S1)
    assert out.atoms == (Atom("S_R", ("x",)), Atom("S_S", ("x",)))
    assert out.head == ("x",)


def test_decompose_components_ordering():
    q = _q("Ans(x,w) <- R(x,y), S(w,v), R(u,u).")
    queries, owner = decompose_components(q)
    assert [str(cq) for cq in queries] == [
        "Ans(x) <- R(x,y).",
        "Ans(w) <- S(w,v).",
        "Ans() <- R(u,u).",
    ]
    assert owner == [0, 1]


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
    assert c.lambda_x == {"x1": frozenset(), "x2": frozenset({"S_R"}), "x3": frozenset()}
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
            replanned = build_plan(c.q_col, c.q_col)
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
    plan = plan_query(q, schema)
    assert plan.s1 == sigma1_for(schema)
    assert plan.components[0].lambda_x["x"] == {"S_R"}

    schema.add("T", 2)
    plan = plan_query(q, schema)
    assert plan.s1 == sigma1_for(schema)
    assert plan.s1.loop_symbol == {"R": "S_R", "T": "S_T"}

    schema.add("S_R", 1)  # a user symbol takes the loop symbol's name
    plan = plan_query(q, schema)
    assert plan.s1 == sigma1_for(schema)
    assert plan.s1.loop_symbol == {"R": "_S_R", "T": "S_T"}
    assert plan.components[0].lambda_x["x"] == {"_S_R"}


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
