"""Edge labels are interned: one `EdgeLabel` object per set of pairs, in
every process, so a pickled plan means the same wherever it is read."""
from __future__ import annotations

import copy
import json
import os
import pickle
import subprocess
import sys

from colorcq.evaluation import EnumerationSession, count_answers, eval_boolean
from colorcq.frontend import plan_query
from colorcq.graph import EdgeLabel
from colorcq.index import build_index, load_index, save_index
from colorcq.model import load_database, parse_query

_FACTS = "R(a,b)\nR(b,c)\nS(c,a)\nS(a,a)\nU(b)\n"
_QUERIES = ("Ans(x,y) <- R(x,y), U(y).", "Ans() <- R(x,y), U(y).", "Ans(x,z) <- R(x,y), S(z,x).",
            "Ans(x) <- S(x,y), R(y,z).")

# plans a query whose tree edges are labelled {(S,+)} and then {(S,-)} before
# it reads the index and the plans, so the child names its labels in another
# order than the process that made the plans
_CHILD = """
import json, pickle, sys
from colorcq.evaluation import EnumerationSession, count_answers, eval_boolean
from colorcq.frontend import plan_query
from colorcq.index import load_index
from colorcq.model import Schema, parse_query
s = Schema([("S", 2)])
plan_query(parse_query("Ans(x) <- S(x,y), S(z,x).", s), s)
idx = load_index(sys.argv[1])
with open(sys.argv[2], "rb") as f:
    plans = pickle.load(f)
print(json.dumps([[eval_boolean(idx, p) if not p.query.head else None, count_answers(idx, p),
                   sorted(EnumerationSession(idx, p, names=True))] for p in plans]))
"""


def _answers(idx, plans) -> list:
    return [[eval_boolean(idx, p) if not p.query.head else None, count_answers(idx, p),
             sorted(map(list, EnumerationSession(idx, p, names=True)))] for p in plans]


def test_a_pickled_plan_gets_the_same_answers_in_another_process(tmp_path):
    """Plans pickled here and read by a child process that named other labels
    first give the child the Boolean answers, counts and sorted answers they
    give here, on the index the child loads from the saved file."""
    db = load_database(_FACTS)
    built = build_index(db)
    save_index(built, str(tmp_path / "i.ccqx"))
    plans = [plan_query(parse_query(text, db.schema), db.schema) for text in _QUERIES]
    with open(tmp_path / "plans.pkl", "wb") as f:
        pickle.dump(plans, f)
    want = _answers(load_index(str(tmp_path / "i.ccqx")), plans)
    assert want == _answers(built, plans) and want[0][1] == 1

    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    argv = [sys.executable, "-c", _CHILD, str(tmp_path / "i.ccqx"), str(tmp_path / "plans.pkl")]
    res = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == want


def test_one_object_per_set_of_pairs():
    """Naming the pairs in any order, copying and unpickling all give the one
    label, and `dual` is an involution up to identity."""
    p = [("Q", "-"), ("P", "+"), ("Q", "+")]
    lab = EdgeLabel(p)
    assert EdgeLabel(reversed(p)) is lab and EdgeLabel(p + p) is lab
    assert copy.copy(lab) is lab and copy.deepcopy(lab) is lab
    assert pickle.loads(pickle.dumps(lab)) is lab
    assert lab.dual() is EdgeLabel([("Q", "+"), ("P", "-"), ("Q", "-")]) and lab.dual().dual() is lab
    loop = EdgeLabel([("R", "+"), ("R", "-")])
    assert loop.dual() is loop
    assert repr(lab) == "EdgeLabel(pairs=(('P', '+'), ('Q', '+'), ('Q', '-')))"


def test_indexes_and_plans_hold_the_interned_labels(tmp_path):
    """A loaded index's labels are the built index's objects, its memos are
    keyed by them, and a plan's λ_e are the labels its components hold."""
    db = load_database(_FACTS)
    built = build_index(db)
    save_index(built, str(tmp_path / "i.ccqx"))
    loaded = load_index(str(tmp_path / "i.ccqx"))
    assert len(loaded.actual_labels) == len(built.actual_labels) > 0
    assert all(a is b for a, b in zip(loaded.actual_labels, built.actual_labels))
    for idx in (built, loaded):
        assert all(type(lab) is EdgeLabel for lab in (*idx.rows, *idx.tables, *idx.closure_symbols))
    for text in _QUERIES:
        for comp in plan_query(parse_query(text, db.schema), db.schema).components:
            assert comp.label[0] is None
            assert list(map(id, comp.lambda_e.values())) == list(map(id, comp.label[1:]))
