"""The package's public surface is pinned: adding or removing a public name
takes an edit of this list."""
from __future__ import annotations

from dataclasses import fields

import colorcq
from colorcq.frontend import PlanComponent

PUBLIC = [
    "Atom", "ColorIndex", "ColorcqError", "Coloring", "ConjunctiveQuery", "Database",
    "EdgeLabel", "EnumerationSession", "FcCheck", "LabeledGraph", "ParseError", "QueryPlan",
    "QueryRejected", "Schema", "SchemaError", "Sigma1", "__version__", "build_index",
    "build_labeled_graph", "cde_fc_acq", "check_free_connex_acyclic", "count_answers",
    "default_backend", "encode_self_loops", "eval_boolean", "explain_plan", "index_stats",
    "load_database", "load_index", "naive_count", "naive_eval", "parse_query", "plan_query",
    "refine", "save_index",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(colorcq.__all__) == PUBLIC
    assert len(set(colorcq.__all__)) == len(colorcq.__all__)
    for name in colorcq.__all__:
        assert hasattr(colorcq, name), name


# the public methods and properties of the core classes; re-adding a method
# that only tests call takes an edit of this table
METHODS = {
    "ColorIndex": ["closure_symbols", "color_db", "loop_cover_array", "succ"],
    "Coloring": ["num_colors", "sizes"],
    "Database": ["adom_ids", "array", "constants", "set_relation", "size"],
    "EdgeLabel": ["dual", "pairs"],
    "LabeledGraph": ["num_directed_edges"],
}


def test_class_methods_are_pinned():
    for name, methods in METHODS.items():
        cls = getattr(colorcq, name)
        assert sorted(m for m in dir(cls) if not m.startswith("_")) == methods, name


# the shape of a plan, which evaluation reads: a change to these fields or
# slots takes an edit of this table
SHAPES = {
    "ConjunctiveQuery": ("head", "atoms", "adj", "unary", "free"),
    "EdgeLabel": ("pairs", "_dual"),
    "PlanComponent": ("root", "order", "free_prefix", "parent", "children", "unary", "label",
                      "source", "schema"),
    "QueryPlan": ("query", "components", "head_slots"),
}


def test_plan_shapes_are_pinned():
    for cls in (colorcq.ConjunctiveQuery, colorcq.EdgeLabel):
        assert cls.__slots__ == SHAPES[cls.__name__], cls.__name__
    for cls in (PlanComponent, colorcq.QueryPlan):
        assert tuple(f.name for f in fields(cls)) == SHAPES[cls.__name__], cls.__name__
