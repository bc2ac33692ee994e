"""Baseline detour route: k-coloring -> CNF -> 3-coloring.

Measured for size comparison against the direct graph-to-graph reduction.
The coloring-to-CNF step is the standard direct encoding (at-least-one,
pairwise at-most-one, per-edge conflict clauses) rather than a literal
Cook-Levin machine tableau; the CNF-to-3-coloring step reuses the chain
gadget in its disjunction role: literal vertices are forced to the T or F
color by a base-vertex triangle, and each clause's chain output is pinned
to T, which is achievable exactly when some literal is T.
"""

from __future__ import annotations

import json
import math
from itertools import combinations, product, repeat

from .errors import InvariantViolation, ParseError
from .gadgets import _chain_links, _link_columns
from .graphs import Graph, _fields, _Frozen, _ints, _problem_counts
from .reduction import reduce_to_3col, size_report
from .solver import DEFAULT_BUDGET, solve

__all__ = [
    "CnfFormula",
    "CnfGraphMap",
    "encode_col_as_cnf",
    "encode_cnf_as_3col",
    "emit_dimacs_cnf",
    "parse_dimacs_cnf",
    "cnf_satisfiable_brute_force",
    "compare_routes",
]


class CnfFormula(_Frozen):
    """CNF over variables 1..var_count; literals are signed indices."""

    var_count: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "clauses", tuple(tuple(cl) for cl in self.clauses))
        for cl in self.clauses:
            if not cl:
                raise ValueError("empty clause")
            for lit in cl:
                if lit == 0 or abs(lit) > self.var_count:
                    raise ValueError(f"literal {lit} outside variables 1..{self.var_count}")


def encode_col_as_cnf(g: Graph, k: int) -> CnfFormula:
    """Direct encoding: variable x_{i,j} means 'vertex i has color j'.

    kn variables; n at-least-one clauses, n*C(k,2) at-most-one clauses,
    ke conflict clauses.
    """
    if k < 2:
        raise ValueError(f"palette size must be at least 2, got {k}")
    rows = [range(i * k + 1, i * k + k + 1) for i in range(g.n)]  # rows[i][j] is x_{i,j}
    clauses = [tuple(row) for row in rows]
    clauses += [(-row[j1], -row[j2]) for row in rows for j1, j2 in combinations(range(k), 2)]
    clauses += [(-rows[u][c], -rows[v][c]) for u, v in g.edges for c in range(k)]
    return CnfFormula(g.n * k, tuple(clauses))


class CnfGraphMap(_Frozen):
    """Locates the base triangle and literal vertices in the encoded graph."""

    t_vertex: int
    f_vertex: int
    b_vertex: int
    pos_literal: tuple[int, ...]  # [v-1] -> vertex for literal  v
    neg_literal: tuple[int, ...]  # [v-1] -> vertex for literal -v


def encode_cnf_as_3col(f: CnfFormula) -> tuple[Graph, CnfGraphMap]:
    """Standard satisfiability-to-3-coloring construction.

    Base triangle (T, F, B); per variable a complementary literal pair in
    a triangle with B; per clause a chain over its literal vertices whose
    output is joined to F and B (forcing it to take T's color).
    """
    t, fv, bv = 0, 1, 2
    pos = range(3, 3 + 2 * f.var_count, 2)
    neg = range(4, 4 + 2 * f.var_count, 2)
    outs, chains, n = [], [], 3 + 2 * f.var_count
    for clause in f.clauses:
        # (x or x) collapses to (x)
        lits = tuple(dict.fromkeys(pos[lit - 1] if lit > 0 else neg[-lit - 1] for lit in clause))
        if len(lits) == 1:
            outs.append(lits[0])
        else:  # a fresh output vertex, then the chain's internals
            outs.append(n)
            chains.append(((*lits, n), n + 1))
            n += 3 * len(lits) - 3
    us, vs = _link_columns(*_chain_links(chains))
    # Every edge (lower, higher), so Graph need not orient them.
    us = [t, t, fv, *pos, *repeat(bv, 2 * f.var_count), *repeat(fv, len(outs)), *repeat(bv, len(outs)), *us]
    vs = [fv, bv, bv, *neg, *pos, *neg, *outs, *outs, *vs]
    return Graph(n, columns=(us, vs)), CnfGraphMap(t, fv, bv, tuple(pos), tuple(neg))


def _sat_route_sizes(n: int, e: int, k: int) -> dict:
    """Closed-form SAT-route sizes of (g, k), k >= 2: its CNF has no unit clause, so no edge repeats."""
    return {
        "vars": k * n,
        "clauses": n + n * k * (k - 1) // 2 + k * e,
        "vertices": 3 + n * (3 * k * k + 7 * k - 6) // 2 + 3 * k * e,
        "edges": 3 + n * (7 * k * k + 9 * k - 6) // 2 + 7 * k * e,
    }


def emit_dimacs_cnf(f: CnfFormula) -> str:
    lines = [f"p cnf {f.var_count} {len(f.clauses)}"]
    lines.extend(" ".join(str(lit) for lit in cl) + " 0" for cl in f.clauses)
    return "\n".join(lines) + "\n"


def parse_dimacs_cnf(text: str | bytes) -> CnfFormula:
    """Parse DIMACS CNF; clauses are 0-terminated integer runs and may
    span lines. The `p cnf <v> <c>` line's c must equal the clause count."""
    var_count = None
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for lineno, line, parts in _fields(text):
        if parts[0] == "p":
            if var_count is not None:
                raise ParseError("duplicate p line", lineno)
            var_count, declared_c = _problem_counts(line, parts, "cnf", lineno)
            p_lineno = lineno
            continue
        if var_count is None:
            raise ParseError("clause before p line", lineno)
        for lit in _ints(parts, line, lineno, "bad literal {field!r}"):
            if lit == 0:
                if not current:
                    raise ParseError("empty clause", lineno)
                clauses.append(tuple(current))
                current = []
            elif abs(lit) > var_count:
                raise ParseError(f"literal {lit} exceeds declared {var_count} variables", lineno)
            else:
                current.append(lit)
    if var_count is None:
        raise ParseError("missing p line", 1)
    if current:
        raise ParseError("unterminated clause at end of input", lineno)
    if len(clauses) != declared_c:
        raise ParseError(f"p line declares {declared_c} clauses, file has {len(clauses)}", p_lineno)
    return CnfFormula(var_count, tuple(clauses))


_BRUTE_FORCE_VARS = 20  # at most 2^20 assignments are walked; a formula with more variables is refused


def cnf_satisfiable_brute_force(f: CnfFormula) -> bool:
    """Exhaustive assignment enumeration; independent of any graph route."""
    if f.var_count > _BRUTE_FORCE_VARS:
        raise ValueError(f"{f.var_count} variables exceeds brute-force limit {_BRUTE_FORCE_VARS}")
    for values in product((False, True), repeat=f.var_count):
        if all(any(values[abs(l) - 1] == (l > 0) for l in cl) for cl in f.clauses):
            return True
    return False


def compare_routes(g: Graph, k: int, budget: float = DEFAULT_BUDGET, with_decisions: bool = True) -> dict:
    """Size (and optionally decision) comparison of the two routes.

    Returns a JSON-ready record. Its sizes come from the closed forms; a
    route's graph is built only to decide it, at a positive budget. A
    decision is None when not asked for or when the budget runs out."""
    if math.isnan(budget):
        raise ValueError("budget must be a number of seconds, got nan")
    sane = size_report(g, k)
    sat = _sat_route_sizes(g.n, g.e, k)
    record = {
        "sane": {"vertices": sane.vertices, "edges": sane.edges},
        "sat_route": sat,
        "ratios": {"vertices": sat["vertices"] / sane.vertices, "edges": sat["edges"] / sane.edges},
        "decisions": {"sane": None, "sat_route": None},
    }
    if with_decisions and budget > 0:
        for name in ("sane", "sat_route"):
            graph = reduce_to_3col(g, k)[0] if name == "sane" else encode_cnf_as_3col(encode_col_as_cnf(g, k))[0]
            if (graph.n, graph.e) != (record[name]["vertices"], record[name]["edges"]):
                raise InvariantViolation(f"built {name} graph has ({graph.n}, {graph.e}), not its closed-form sizes")
            record["decisions"][name] = {"colorable": True, "uncolorable": False}.get(solve(graph, 3, budget).status)
            del graph  # the two routes' graphs are never alive at once
    return record


def comparison_to_json(record: dict) -> str:
    return json.dumps(record, indent=2) + "\n"
