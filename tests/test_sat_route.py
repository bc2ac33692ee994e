import hashlib
import random
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kcol3 import (
    CnfFormula,
    CnfGraphMap,
    Graph,
    GraphBuilder,
    InvariantViolation,
    ParseError,
    attach_chain_gadget,
    cnf_satisfiable_brute_force,
    compare_routes,
    complete_graph,
    emit_dimacs_cnf,
    encode_cnf_as_3col,
    encode_col_as_cnf,
    gen_gnp,
    parse_dimacs_cnf,
    reduce_to_3col,
    solve,
)
from kcol3 import sat_route
from kcol3.sat_route import comparison_to_json
from test_graphs import MUTATIONS, mutate


def all_graphs(n):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(n, tuple(p for i, p in enumerate(pairs) if mask >> i & 1))


def test_cnf_rejects_empty_clause():
    with pytest.raises(ValueError):
        CnfFormula(1, ((),))


def test_cnf_rejects_out_of_range_literal():
    with pytest.raises(ValueError):
        CnfFormula(1, ((2,),))


def test_encode_k2_counts():
    cnf = encode_col_as_cnf(complete_graph(2), 2)
    assert cnf.var_count == 4
    assert len(cnf.clauses) == 6


def test_encode_k3_counts():
    cnf = encode_col_as_cnf(complete_graph(3), 3)
    assert cnf.var_count == 9
    assert len(cnf.clauses) == 21


def test_encode_count_formula():
    for seed in range(8):
        g = gen_gnp(4, 0.5, seed)
        for k in (2, 3):
            cnf = encode_col_as_cnf(g, k)
            assert cnf.var_count == k * g.n
            assert len(cnf.clauses) == g.n + g.n * k * (k - 1) // 2 + k * g.e


def test_encode_rejects_small_k():
    with pytest.raises(ValueError):
        encode_col_as_cnf(complete_graph(2), 1)


def test_cnf_satisfiability_matches_colorability():
    for n in range(1, 5):
        for g in all_graphs(n):
            for k in (2, 3):
                if k * n > 12:
                    continue
                cnf = encode_col_as_cnf(g, k)
                assert solve(g, k).status == ("colorable" if cnf_satisfiable_brute_force(cnf) else "uncolorable")


def test_unit_clause_graph_colorable():
    g, _ = encode_cnf_as_3col(CnfFormula(1, ((1,),)))
    assert solve(g, 3).status == "colorable"


def test_contradiction_graph_uncolorable():
    g, _ = encode_cnf_as_3col(CnfFormula(1, ((1,), (-1,))))
    assert solve(g, 3).status == "uncolorable"


def test_repeated_literal_clause():
    g, _ = encode_cnf_as_3col(CnfFormula(1, ((1, 1),)))
    assert solve(g, 3).status == "colorable"


def test_tautology_clause():
    g, _ = encode_cnf_as_3col(CnfFormula(1, ((1, -1),)))
    assert solve(g, 3).status == "colorable"


def test_micro_scale_soundness():
    """CNF satisfiability by assignment enumeration matches 3-colorability
    of the encoded graph, for every CNF produced from tiny instances."""
    for n in range(1, 4):
        for g in all_graphs(n):
            for k in (2, 3):
                if k * n > 12:
                    continue
                cnf = encode_col_as_cnf(g, k)
                encoded, _ = encode_cnf_as_3col(cnf)
                assert cnf_satisfiable_brute_force(cnf) == (solve(encoded, 3).status == "colorable")


def test_end_to_end_route_equivalence():
    cases = [
        (complete_graph(4), 3, "uncolorable"),
        (complete_graph(4), 4, "colorable"),
        (complete_graph(3), 3, "colorable"),
    ]
    for g, k, expected in cases:
        encoded, _ = encode_cnf_as_3col(encode_col_as_cnf(g, k))
        assert solve(encoded, 3).status == expected == solve(g, k).status


def test_emit_dimacs_cnf():
    assert emit_dimacs_cnf(CnfFormula(1, ((1,),))) == "p cnf 1 1\n1 0\n"
    assert emit_dimacs_cnf(CnfFormula(2, ((-1, 2),))) == "p cnf 2 1\n-1 2 0\n"


def test_cnf_round_trip():
    for seed in range(6):
        g = gen_gnp(4, 0.5, seed)
        cnf = encode_col_as_cnf(g, 3)
        assert parse_dimacs_cnf(emit_dimacs_cnf(cnf)) == cnf


@st.composite
def _formulas(draw):
    """A CNF over at most 6 variables with at most 8 clauses of 1-4 literals."""
    var_count = draw(st.integers(1, 6))
    literals = st.integers(1, var_count).flatmap(lambda v: st.sampled_from([v, -v]))
    return CnfFormula(var_count, draw(st.lists(st.lists(literals, min_size=1, max_size=4), max_size=8)))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_formulas())
@example(CnfFormula(0, ()))
@example(CnfFormula(4, ()))
def test_cnf_round_trip_on_drawn_formulas(f):
    assert parse_dimacs_cnf(emit_dimacs_cnf(f)) == f


# text -> (message, line) of the ParseError that parse_dimacs_cnf raises:
# one case for each check, then two texts with two faults each, where the
# first faulty line wins.
_CNF_PARSE_ERRORS = {
    "1 0\n": ("clause before p line", 1),
    "x 0\n": ("clause before p line", 1),  # checked before the literals
    "p cnf 1 1\n2 0\n": ("literal 2 exceeds declared 1 variables", 2),
    "p cnf 1 1\n-2 0\n": ("literal -2 exceeds declared 1 variables", 2),
    "p cnf 1 1\nx 0\n": ("bad literal 'x'", 2),
    "p cnf 1 1\n1\n": ("unterminated clause at end of input", 2),
    "p cnf 1 1\np cnf 1 1\n1 0\n": ("duplicate p line", 2),
    "p dnf 1 1\n1 0\n": ("malformed problem line 'p dnf 1 1'", 1),
    "c header next\np cnf 1\n": ("malformed problem line 'p cnf 1'", 2),
    "p cnf one 1\n": ("non-integer counts in 'p cnf one 1'", 1),
    "p cnf 1 1\n1 0 0\n": ("empty clause", 2),
    "c no header\n\n": ("missing p line", 1),
    "p cnf 1 2\n1\n0\n": ("p line declares 2 clauses, file has 1", 1),
    "p cnf 1 1\n\u0661 0\n": ("non-ASCII character", 2),  # an Arabic-Indic digit one
    b"p cnf 1 1\n1 0\xff\n": ("non-ASCII character", 2),
    "p cnf -3 0\n": ("negative variable count -3", 1),
    "pxyz cnf 1 1\n1 0\n": ("clause before p line", 1),  # the first field must be p
    "pcnf 1 1\n": ("clause before p line", 1),
    "p cnf 1 1\n1\nc trailing comment\n\n": ("unterminated clause at end of input", 2),  # the last line with fields
    "p cnf 1 1\n0\n2 0\n": ("empty clause", 2),
    "p cnf 1 1\ny 0\np cnf 1 1\n": ("bad literal 'y'", 2),
    # The integer grammar: ASCII digits after at most one `-`, not whatever int() reads.
    "p cnf 1 1\n+1 0\n": ("bad literal '+1'", 2),
    "p cnf 1 1\n1 0_0\n": ("bad literal '0_0'", 2),
    "p cnf 1 1\n--1 0\n": ("bad literal '--1'", 2),
    "p cnf 1_0 0\n": ("non-integer counts in 'p cnf 1_0 0'", 1),
    "p cnf 1 1\n0 +1\n": ("empty clause", 2),  # a line's literals are read in turn, so its first fault wins
}


@pytest.mark.parametrize("text", list(_CNF_PARSE_ERRORS))
def test_cnf_parse_errors(text):
    message, line = _CNF_PARSE_ERRORS[text]
    with pytest.raises(ParseError) as exc:
        parse_dimacs_cnf(text)
    assert (str(exc.value), exc.value.line) == (f"line {line}: {message}", line)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(_formulas(), MUTATIONS)
@example(CnfFormula(1, ((1,),)), [("i", 10, "+")])  # "p cnf 1 1\n+1 0\n", which int() would read
def test_cnf_parse_on_mutated_files(f, edits):
    """.cnf has no bulk reader to compare with: a mutated file either raises ParseError or reads as a formula that
    round-trips, and a file that reads has no `+` or `_` outside its comment lines (the integer grammar)."""
    text = mutate(emit_dimacs_cnf(f), edits)
    try:
        read = parse_dimacs_cnf(text)
    except ParseError:
        return
    assert parse_dimacs_cnf(emit_dimacs_cnf(read)) == read
    assert not {"+", "_"} & set("".join(line for line in text.splitlines() if not line.strip().startswith("c")))


def _builder_encoding(f):
    """The SAT-route layout built edge by edge with GraphBuilder and
    attach_chain_gadget: the reference for encode_cnf_as_3col."""
    b = GraphBuilder()
    t, fv, bv = b.add_vertex(), b.add_vertex(), b.add_vertex()
    b.add_edge(t, fv)
    b.add_edge(t, bv)
    b.add_edge(fv, bv)
    pos, neg = [], []
    for _ in range(f.var_count):
        p, q = b.add_vertex(), b.add_vertex()
        b.add_edge(p, q)
        b.add_edge(p, bv)
        b.add_edge(q, bv)
        pos.append(p)
        neg.append(q)
    for clause in f.clauses:
        lits = []
        for lit in clause:
            v = pos[lit - 1] if lit > 0 else neg[-lit - 1]
            if v not in lits:
                lits.append(v)
        if len(lits) == 1:
            out = lits[0]
        else:
            out = b.add_vertex()
            attach_chain_gadget(b, lits, out)
        b.add_edge(out, fv)
        b.add_edge(out, bv)
    return b.to_graph(), CnfGraphMap(t, fv, bv, tuple(pos), tuple(neg))


def test_encode_cnf_as_3col_equals_builder_reference():
    rng = random.Random(8)
    formulas = [CnfFormula(0, ()), CnfFormula(3, ((1,), (1,), (-2, -2), (1, -1, 2, 3), (-3,), (2, 2, -1)))]
    for _ in range(60):
        var_count = rng.randint(1, 5)
        clauses = [
            tuple(rng.choice((1, -1)) * rng.randint(1, var_count) for _ in range(rng.randint(1, 5)))
            for _ in range(rng.randint(0, 8))
        ]
        formulas.append(CnfFormula(var_count, tuple(clauses)))
    for f in formulas:
        assert encode_cnf_as_3col(f) == _builder_encoding(f)


@pytest.mark.parametrize("declared", [0, 2, 5])
def test_cnf_parse_rejects_wrong_declared_clause_count(declared):
    with pytest.raises(ParseError) as exc:
        parse_dimacs_cnf(f"c comment\np cnf 2 {declared}\n1 -2 0\n")
    assert exc.value.line == 2


def test_brute_force_guardrail():
    with pytest.raises(ValueError):
        cnf_satisfiable_brute_force(CnfFormula(30, ((1,),)))


def test_compare_routes_record():
    record = compare_routes(complete_graph(3), 3)
    assert record["sane"] == {"vertices": 63, "edges": 132}
    assert record["sat_route"]["vars"] == 9
    assert record["sat_route"]["clauses"] == 21
    assert record["ratios"]["vertices"] > 1
    assert record["decisions"] == {"sane": True, "sat_route": True}
    # every size in the record is the size of the graph or formula it names
    graphs = [Graph(0, ()), Graph(5, ()), *map(complete_graph, range(1, 7))]
    graphs += [gen_gnp(n, p, seed) for n in (4, 7) for p in (0.3, 0.7) for seed in range(2)]
    for g in graphs:
        for k in range(2, 7):
            gprime, _ = reduce_to_3col(g, k)
            cnf = encode_col_as_cnf(g, k)
            gsat, _ = encode_cnf_as_3col(cnf)
            record = compare_routes(g, k, 0)
            assert record["sane"] == {"vertices": gprime.n, "edges": gprime.e}
            assert record["sat_route"] == {
                "vars": cnf.var_count,
                "clauses": len(cnf.clauses),
                "vertices": gsat.n,
                "edges": gsat.e,
            }
            assert record["ratios"] == {"vertices": gsat.n / gprime.n, "edges": gsat.e / gprime.e}


def test_sizes_only_compare_builds_no_graph(monkeypatch):
    g = gen_gnp(12, 0.3, 7)
    expected = compare_routes(g, 4, 0)

    def no_build(*args):
        raise AssertionError("a graph or a formula was built")

    monkeypatch.setattr(Graph, "__post_init__", no_build)
    monkeypatch.setattr(CnfFormula, "__post_init__", no_build)
    monkeypatch.setattr(sat_route, "reduce_to_3col", no_build)
    monkeypatch.setattr(sat_route, "encode_col_as_cnf", no_build)
    assert compare_routes(g, 4, 0) == expected
    assert compare_routes(g, 4, with_decisions=False) == expected
    with pytest.raises(ValueError):
        compare_routes(g, 1, 0)


def test_compare_checks_each_graph_it_builds(monkeypatch):
    monkeypatch.setattr(sat_route, "encode_cnf_as_3col", lambda f: (Graph(4, ()), None))
    assert compare_routes(complete_graph(3), 3, 0)["decisions"] == {"sane": None, "sat_route": None}
    with pytest.raises(InvariantViolation):
        compare_routes(complete_graph(3), 3)


def test_compare_routes_decisions_agree():
    for g, k, expected in [(complete_graph(3), 3, "colorable"), (complete_graph(4), 3, "uncolorable")]:
        assert solve(g, k).status == expected
        record = compare_routes(g, k)
        assert record["decisions"]["sane"] == record["decisions"]["sat_route"] == (expected == "colorable")


def test_sane_route_strictly_smaller():
    for seed in range(10):
        g = gen_gnp(3 + seed % 4, 0.6, seed)
        if g.e == 0:
            continue
        for k in (2, 3, 4):
            record = compare_routes(g, k, with_decisions=False)
            assert record["sane"]["vertices"] < record["sat_route"]["vertices"]


@pytest.mark.parametrize(
    "g, k, sizes_only_sha, decided_sha",
    [
        (
            Graph(1, ()),
            2,
            "f2376246670728b6123c8a2cbbb0a6538c0efcb102ec95810e327c014483e14a",
            "97946dc085edb8b4bfb6141837bfcdbad08544375484efd8329808618e008daa",
        ),
        (
            gen_gnp(8, 0.4, 2),
            3,
            "2fe06d603272800d62c2472e3005f05eb91c3251ffb5db10b18e9cb3583cc88f",
            "c40769faff44ff5b7dfb5bb98d4b8a338d4f93fe766892e7a87e6700d6c895f4",
        ),
        (
            complete_graph(4),
            3,
            "c14bf8d9fb01db340208e32aa1a21b530f117877e766cd8003cf880d9eb6fbb8",
            "311d813c4c39dec24a213691dd0ff7e3092a91e9626aead2c93f261bc37b349d",
        ),
    ],
)
def test_comparison_bytes_are_pinned(g, k, sizes_only_sha, decided_sha):
    """The `compare` record's JSON text is byte-stable across refactors,
    at budget 0 (both decisions null) and at the default budget."""

    def sha(record):
        return hashlib.sha256(comparison_to_json(record).encode()).hexdigest()

    assert sha(compare_routes(g, k, 0)) == sizes_only_sha
    assert sha(compare_routes(g, k)) == decided_sha


@pytest.mark.parametrize("with_decisions", [True, False])
def test_compare_refuses_a_nan_budget(with_decisions):
    with pytest.raises(ValueError, match="budget must be a number of seconds, got nan"):
        compare_routes(complete_graph(3), 3, float("nan"), with_decisions)


def test_brute_force_limit_is_twenty_variables():
    with pytest.raises(ValueError, match="^21 variables exceeds brute-force limit 20$"):
        cnf_satisfiable_brute_force(CnfFormula(21, ((1,),)))
    # All-false, the first assignment walked, satisfies this one.
    assert cnf_satisfiable_brute_force(CnfFormula(20, tuple((-v,) for v in range(1, 21))))
