"""The package's public surface is pinned: adding or removing a public name
takes an edit of this list."""
from __future__ import annotations

import colorcq

PUBLIC = [
    "Atom", "ColorIndex", "ColorcqError", "Coloring", "ConjunctiveQuery", "Database",
    "EdgeLabel", "EnumerationSession", "FcCheck", "LabeledGraph", "ParseError", "QueryPlan",
    "QueryRejected", "Schema", "SchemaError", "Sigma1", "__version__", "build_index",
    "build_labeled_graph", "cde_fc_acq", "check_free_connex_acyclic", "count_answers",
    "default_backend", "encode_self_loops", "eval_boolean", "explain_plan", "index_stats",
    "is_stable", "load_database", "load_index", "naive_count", "naive_eval", "naive_refine",
    "parse_query", "plan_query", "refine", "save_index",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(colorcq.__all__) == PUBLIC
    assert len(set(colorcq.__all__)) == len(colorcq.__all__)
    for name in colorcq.__all__:
        assert hasattr(colorcq, name), name


# the public methods and properties of the core classes; re-adding a method
# that only tests call takes an edit of this table
METHODS = {
    "ColorIndex": ["loop_cover_array", "succ"],
    "Coloring": ["num_colors", "sizes"],
    "Database": ["adom_ids", "array", "set_relation", "size"],
    "EdgeLabel": ["dual", "id"],
    "LabeledGraph": ["num_directed_edges"],
}


def test_class_methods_are_pinned():
    for name, methods in METHODS.items():
        cls = getattr(colorcq, name)
        assert sorted(m for m in dir(cls) if not m.startswith("_")) == methods, name
