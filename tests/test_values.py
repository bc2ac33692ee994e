"""The value semantics of kcol3's nine frozen value types, pinned apart from the mechanism that gives them."""

import os
import subprocess
import sys
from array import array

import pytest

import kcol3
from kcol3 import (
    CnfFormula,
    CnfGraphMap,
    Coloring,
    GadgetInstance,
    GadgetSemantics,
    Graph,
    ReductionMap,
    SizeReport,
    SolveCounters,
    SolveOutcome,
)

TABLE = {(a, b, z): a != z or b != z for a in range(3) for b in range(3) for z in range(3)}
SIZES = {"n": 3, "e": 3, "k": 3, "vertices": 63, "edges": 132, "crude_bound_vertices": 72, "crude_bound_edges": 99}
SIZES |= {"vertex_bound_holds": True, "edge_bound_holds": False}
OUTCOME = {"status": "colorable", "witness": Coloring(2, (0, 1)), "wall_time": 0.5}
OUTCOME["counters"] = SolveCounters(1, 2, 3, 4, 5)
CNF_MAP = {"t_vertex": 0, "f_vertex": 1, "b_vertex": 2, "pos_literal": (3, 5), "neg_literal": (4, 6)}


def _case(kwargs, fields=None):
    """(positional arguments, the same as keyword arguments, the fields they give in field order)"""
    return tuple(kwargs.values()), kwargs, kwargs if fields is None else fields


CASES = {
    Graph: _case({"n": 3, "edges": [(1, 2), (0, 1)]}, {"n": 3, "us": array("I", [0, 1]), "vs": array("I", [1, 2])}),
    Coloring: _case({"palette_size": 3, "assignment": [0, 2, 1]}, {"palette_size": 3, "assignment": (0, 2, 1)}),
    GadgetInstance: _case({"boundary": (0, 1, 2), "internal_start": 3}),
    GadgetSemantics: _case({"arity": 2, "table": TABLE}),
    ReductionMap: _case({"k": 3, "n": 2, "edges": ((0, 1),)}),
    SizeReport: _case(SIZES),
    SolveOutcome: _case(OUTCOME),
    CnfFormula: _case({"var_count": 2, "clauses": [[1, -2], [2]]}, {"var_count": 2, "clauses": ((1, -2), (2,))}),
    CnfGraphMap: _case(CNF_MAP),
}


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_value_semantics(cls):
    args, kwargs, fields = CASES[cls]
    value, again = cls(*args), cls(**kwargs)
    assert value == again and not value != again
    assert {name: getattr(value, name) for name in fields} == fields
    if cls is GadgetSemantics:  # its table is a dict
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(again)
    strangers = [tuple(fields.values()), object(), *(other(*CASES[other][0]) for other in CASES if other is not cls)]
    for other in strangers:
        assert value != other and other != value
    assert repr(value) == f"{cls.__name__}({', '.join(f'{name}={field!r}' for name, field in fields.items())})"
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        if name in fields:
            with pytest.raises(AttributeError):
                delattr(value, name)
    assert value == again and {name: getattr(value, name) for name in fields} == fields
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(**kwargs, extra=0)
    with pytest.raises(TypeError):
        cls(*args, *args)
    with pytest.raises(TypeError):  # the first field twice
        cls(args[0], **kwargs)
    captures = ", ".join(f"f{i}" for i in range(len(fields)))
    scope = {"value": value, "cls": cls}
    exec(f"match value:\n    case cls({captures}):\n        bound = ({captures},)", scope)
    assert scope["bound"] == tuple(fields.values())


def test_solve_outcome_counters_default_to_zero():
    assert SolveOutcome("timeout", None, 0.0).counters == SolveCounters() == (0, 0, 0, 0, 0)
    assert SolveCounters._fields == ("decisions", "forced", "pair_prunes", "backjumps", "max_depth")


def test_package_imports_without_dataclasses_or_typing():
    """kcol3's value types need neither module, and importing them costs start-up time on every CLI run. `-S` keeps
    `site` from importing `typing` first."""
    code = "import sys, kcol3, kcol3.cli; print(*sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(kcol3.__file__))}
    run = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True, env=env)
    assert run.stdout.split() == []
