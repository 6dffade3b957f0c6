"""colorcq: a colour-index engine for free-connex acyclic conjunctive queries
over binary-schema databases.

Build an index once per database (self-loop encoding, labeled graph, colour
refinement, colour database); then answer Boolean / counting / enumeration
queries in time that depends on the index, not on the raw data size.
"""
from .model import (
    Atom,
    ColorcqError,
    ConjunctiveQuery,
    Database,
    ParseError,
    Schema,
    SchemaError,
    load_database,
    parse_query,
)
from .graph import EdgeLabel, LabeledGraph, Sigma1, build_labeled_graph, encode_self_loops
from .refine import Coloring, default_backend, refine
from .index import ColorIndex, build_index, index_stats, load_index, save_index
from .frontend import (
    FcCheck,
    QueryPlan,
    QueryRejected,
    check_free_connex_acyclic,
    explain_plan,
    plan_query,
)
from .evaluation import (
    EnumerationSession,
    cde_fc_acq,
    count_answers,
    eval_boolean,
)
from .oracle import naive_count, naive_eval

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "ColorcqError",
    "ConjunctiveQuery",
    "Database",
    "ParseError",
    "Schema",
    "SchemaError",
    "load_database",
    "parse_query",
    "EdgeLabel",
    "LabeledGraph",
    "Sigma1",
    "build_labeled_graph",
    "encode_self_loops",
    "Coloring",
    "default_backend",
    "refine",
    "ColorIndex",
    "build_index",
    "index_stats",
    "load_index",
    "save_index",
    "FcCheck",
    "QueryPlan",
    "QueryRejected",
    "check_free_connex_acyclic",
    "explain_plan",
    "plan_query",
    "EnumerationSession",
    "cde_fc_acq",
    "count_answers",
    "eval_boolean",
    "naive_count",
    "naive_eval",
    "__version__",
]
