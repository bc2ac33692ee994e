"""Toolkit for the direct k-colorability to 3-colorability reduction.

Exposes graph/coloring primitives, the color-copying gadget library, the
direct reduction with witness translation, an exact backtracking solver,
and the SAT-detour baseline for size comparison.
"""

from .errors import (
    ConstructionError,
    ExtensionError,
    InvariantViolation,
    ParseError,
    SolveTimeout,
)
from .gadgets import (
    GadgetInstance,
    GadgetSemantics,
    GraphBuilder,
    attach_chain_gadget,
    extend_coloring,
    semantics_by_brute_force,
)
from .graphs import (
    Coloring,
    Graph,
    complete_graph,
    cycle_graph,
    emit_dimacs_col,
    gen_gnp,
    is_proper_coloring,
    parse_dimacs_col,
)
from .reduction import (
    ReductionMap,
    SizeReport,
    formula_edges,
    formula_vertices,
    lift_witness,
    project_witness,
    reduce_to_3col,
    size_report,
)
from .sat_route import (
    CnfFormula,
    CnfGraphMap,
    cnf_satisfiable_brute_force,
    compare_routes,
    emit_dimacs_cnf,
    encode_cnf_as_3col,
    encode_col_as_cnf,
    parse_dimacs_cnf,
)
from .solver import DEFAULT_BUDGET, SolveCounters, SolveOutcome, decide, solve

__version__ = "0.1.0"
