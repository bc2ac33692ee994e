"""Acceptance suite.

Runs every acceptance criterion at its stated tolerance and prints one
PASS/FAIL line per criterion (visible with `pytest -s` or in failure
output). The equivalence sweep (criterion 3) is computed once in a
session fixture and shared with the witness and size criteria.
"""

import json
import time
from itertools import product

import networkx as nx
import pytest

from kcol3 import (
    Graph,
    cnf_satisfiable_brute_force,
    compare_routes,
    complete_graph,
    emit_dimacs_cnf,
    emit_dimacs_col,
    encode_cnf_as_3col,
    encode_col_as_cnf,
    formula_edges,
    formula_vertices,
    gen_gnp,
    is_proper_coloring,
    lift_witness,
    parse_dimacs_cnf,
    parse_dimacs_col,
    project_witness,
    reduce_to_3col,
    semantics_by_brute_force,
    size_report,
    solve,
)
from kcol3.cli import main
from kcol3.gadgets import GraphBuilder, attach_chain_gadget

BUDGET = 10.0
K_VALUES = (2, 3, 4)


def report(criterion: str, passed: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"{criterion}: {detail}"


def atlas_graphs(max_n: int):
    """All non-isomorphic graphs with 1..max_n vertices."""
    out = []
    for ag in nx.graph_atlas_g():
        n = ag.number_of_nodes()
        if 1 <= n <= max_n:
            relabeled = nx.convert_node_labels_to_integers(ag, ordering="sorted")
            out.append(Graph(n, tuple(relabeled.edges())))
    return out


def gnp_samples():
    """300 seeded samples with n <= 8, p in {0.3, 0.5, 0.8}."""
    return [gen_gnp(2 + s % 7, (0.3, 0.5, 0.8)[s % 3], s) for s in range(300)]


@pytest.fixture(scope="session")
def sweep():
    """Solve both sides of the reduction for every sweep instance."""
    results = []
    for g in atlas_graphs(6) + gnp_samples():
        for k in K_VALUES:
            gprime, rmap = reduce_to_3col(g, k)
            src = solve(g, k, BUDGET)
            dst = solve(gprime, 3, BUDGET)
            results.append(
                {"g": g, "k": k, "gprime": gprime, "rmap": rmap, "src": src, "dst": dst}
            )
    return results


def test_criterion_1_gadget_lemma_certification():
    t0 = time.perf_counter()
    failures = 0
    total = 0
    for k in range(2, 7):
        sem = semantics_by_brute_force(k)
        assert len(sem.table) == 3 ** (k + 1)
        for boundary, extendable in sem.table.items():
            total += 1
            inputs, z = boundary[:-1], boundary[-1]
            expected = not (len(set(inputs)) == 1 and z != inputs[0])
            if extendable != expected:
                failures += 1
    elapsed = time.perf_counter() - t0
    report(
        "criterion-1 gadget lemmas",
        failures == 0 and elapsed < 10.0,
        f"{total} boundary colorings over k=2..6, {failures} violations, {elapsed:.2f}s",
    )


def test_criterion_2_gadget_size_arithmetic():
    bad = []
    for k in range(2, 13):
        b = GraphBuilder(k + 1)
        inst = attach_chain_gadget(b, list(range(k)), k)
        dv, de = inst.internal_len, len(inst.added_edges)
        if (dv, de) != (3 * k - 4, 5 * (k - 1)) or dv > 3 * k or de > 5 * k:
            bad.append(k)
    report("criterion-2 gadget sizes", not bad, f"k=2..12 chain deltas exact and within 3k/5k; bad={bad}")


def test_criterion_3_equivalence(sweep):
    disagreements = []
    timeouts = 0
    for rec in sweep:
        if rec["src"].status == "timeout" or rec["dst"].status == "timeout":
            timeouts += 1
            continue
        if rec["src"].status != rec["dst"].status:
            disagreements.append((rec["g"].n, rec["g"].e, rec["k"]))
    total = len(sweep)
    timeout_rate = timeouts / total
    report(
        "criterion-3 equivalence",
        not disagreements and timeout_rate < 0.05,
        f"{total} instances (atlas n<=6 + 300 G(n,p) samples, k in {K_VALUES}), "
        f"{len(disagreements)} disagreements, {timeouts} timeouts ({timeout_rate:.1%})",
    )


def test_criterion_4_witness_round_trip(sweep):
    checked = 0
    failures = []
    for rec in sweep:
        if rec["src"].status != "colorable" or rec["dst"].status != "colorable":
            continue
        g, k, rmap = rec["g"], rec["k"], rec["rmap"]
        lifted = lift_witness(g, rec["src"].witness, rmap)
        if not is_proper_coloring(rec["gprime"], lifted):
            failures.append(("lift", g.n, g.e, k))
        projected = project_witness(rmap, rec["dst"].witness, g)
        if not is_proper_coloring(g, projected):
            failures.append(("project", g.n, g.e, k))
        if project_witness(rmap, lifted, g) != rec["src"].witness:
            failures.append(("round-trip", g.n, g.e, k))
        checked += 1
    report(
        "criterion-4 witness round-trip",
        checked > 0 and not failures,
        f"{checked} colorable instances, failures={failures}",
    )


def test_criterion_5_size_formulas(sweep):
    mismatches = []
    for rec in sweep:
        g, k, gprime = rec["g"], rec["k"], rec["gprime"]
        if (gprime.n, gprime.e) != (formula_vertices(g.n, g.e, k), formula_edges(g.n, g.e, k)):
            mismatches.append((g.n, g.e, k))
    rep3 = size_report(complete_graph(3), 3)
    rep2 = size_report(complete_graph(2), 2)
    fixtures_ok = (rep3.vertices, rep3.edges) == (63, 132) and (rep2.vertices, rep2.edges) == (19, 37)

    # bound satisfaction is reported, not asserted: the crude bounds are
    # known not to hold everywhere
    vertex_bound_fail_small_k = sum(
        1 for rec in sweep if rec["k"] < 4 and not size_report(rec["g"], rec["k"]).vertex_bound_holds
    )
    edge_bound_fail = sum(
        1 for rec in sweep if rec["g"].e >= 1 and not size_report(rec["g"], rec["k"]).edge_bound_holds
    )
    vertex_bound_hold_k4 = all(
        size_report(rec["g"], rec["k"]).vertex_bound_holds for rec in sweep if rec["k"] >= 4
    )
    print(
        f"  finding: edge bound fails on {edge_bound_fail} instances with e>=1; "
        f"vertex bound fails on {vertex_bound_fail_small_k} instances with k<4; "
        f"vertex bound holds on all k>=4 instances: {vertex_bound_hold_k4}"
    )
    report(
        "criterion-5 size formulas",
        not mismatches and fixtures_ok,
        f"closed forms exact on {len(sweep)} instances; fixtures 63/132 and 19/37 ok={fixtures_ok}",
    )


def test_criterion_6_sat_route_baseline(sweep):
    failures = []
    # end-to-end decision agreement on all non-isomorphic graphs n <= 5
    for g in atlas_graphs(5):
        for k in (2, 3):
            direct = solve(g, k, BUDGET)
            encoded, _ = encode_cnf_as_3col(encode_col_as_cnf(g, k))
            routed = solve(encoded, 3, BUDGET)
            if "timeout" in (direct.status, routed.status) or direct.status != routed.status:
                failures.append(("route", g.n, g.e, k))
            # micro-scale: assignment enumeration vs encoded-graph colorability
            if k * g.n <= 12:
                cnf = encode_col_as_cnf(g, k)
                if cnf_satisfiable_brute_force(cnf) != (routed.status == "colorable"):
                    failures.append(("micro", g.n, g.e, k))
    # size dominance over the sweep; exceptions are findings, not failures
    exceptions = []
    for rec in sweep:
        g, k = rec["g"], rec["k"]
        if g.n >= 2 and g.e >= 1:
            record = compare_routes(g, k, with_decisions=False)
            if record["sane"]["vertices"] >= record["sat_route"]["vertices"]:
                exceptions.append((g.n, g.e, k))
    if exceptions:
        print(f"  finding: sane route not strictly smaller on {len(exceptions)} instances: {exceptions[:5]}")
    else:
        print("  finding: sane route strictly smaller in vertices on every sweep instance with n>=2, e>=1")
    report("criterion-6 SAT-route baseline", not failures, f"failures={failures}")


def test_criterion_7_determinism_and_round_trips(sweep, tmp_path):
    failures = []
    for rec in sweep[:50]:
        g, k = rec["g"], rec["k"]
        if reduce_to_3col(g, k) != reduce_to_3col(g, k):
            failures.append(("reduce-determinism", g.n, g.e, k))
        text = emit_dimacs_col(rec["gprime"])
        if parse_dimacs_col(text) != rec["gprime"] or emit_dimacs_col(parse_dimacs_col(text)) != text:
            failures.append(("col-round-trip", g.n, g.e, k))
        cnf = encode_col_as_cnf(g, k)
        if parse_dimacs_cnf(emit_dimacs_cnf(cnf)) != cnf:
            failures.append(("cnf-round-trip", g.n, g.e, k))

    # CLI exit codes across representative cases
    k3 = tmp_path / "k3.col"
    k3.write_text(emit_dimacs_col(complete_graph(3)), newline="")
    k4 = tmp_path / "k4.col"
    k4.write_text(emit_dimacs_col(complete_graph(4)), newline="")
    bad = tmp_path / "bad.col"
    bad.write_text("p edge 2 1\ne 1 1\n", newline="")
    out = tmp_path / "out"
    cli_cases = [
        (["solve", "--k", "4", "--input", str(k4)], 0),
        (["solve", "--k", "3", "--input", str(k4)], 1),
        (["solve", "--k", "3", "--input", str(bad)], 2),
        (["reduce", "--k", "1", "--input", str(k3), "--output", str(out)], 2),
        (["reduce", "--k", "3", "--input", str(k3), "--output", str(out)], 0),
        (["roundtrip", "--k", "3", "--input", str(k3)], 0),
        (["roundtrip", "--k", "3", "--input", str(k4)], 0),
        (["roundtrip", "--k", "3", "--input", str(k4), "--timeout", "0"], 3),
        (["compare", "--k", "3", "--input", str(k3), "--output", str(tmp_path / "c.json")], 0),
        (["gen", "--model", "gnp", "--n", "6", "--p", "0.5", "--seed", "1", "--output", str(out)], 0),
    ]
    for argv, expected in cli_cases:
        rc = main(argv)
        if rc != expected:
            failures.append(("cli", argv[0], rc, expected))

    # byte-identical CLI outputs on repeated runs
    a, b = tmp_path / "a.col", tmp_path / "b.col"
    for path in (a, b):
        main(["reduce", "--k", "3", "--input", str(k3), "--output", str(path), "--map", str(path) + ".json"])
    if a.read_bytes() != b.read_bytes():
        failures.append(("cli-reduce-determinism",))
    if (tmp_path / "a.col.json").read_bytes() != (tmp_path / "b.col.json").read_bytes():
        failures.append(("cli-map-determinism",))
    report("criterion-7 determinism and formats", not failures, f"failures={failures}")
