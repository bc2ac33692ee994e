import ast
import hashlib
import heapq
import math
import sys
import tracemalloc
from itertools import combinations, product
from pathlib import Path

import networkx as nx
import pytest

from kcol3 import (
    Graph,
    InvariantViolation,
    SolveCounters,
    complete_graph,
    gen_gnp,
    is_proper_coloring,
    reduce_to_3col,
    solve,
)
from kcol3 import solver


def brute_force_status(g: Graph, k: int) -> str:
    """Independent oracle: enumerate all k^n assignments."""
    colorable = any(all(c[u] != c[v] for u, v in g.edges) for c in product(range(k), repeat=g.n))
    return "colorable" if colorable else "uncolorable"


def cycle_graph(n: int) -> Graph:
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def all_graphs(n):
    """Every labeled graph on n vertices."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(n, tuple(p for i, p in enumerate(pairs) if mask >> i & 1))


def test_k4_uncolorable_with_three():
    assert solve(complete_graph(4), 3).status == "uncolorable"


def test_k4_colorable_with_four():
    outcome = solve(complete_graph(4), 4)
    assert outcome.status == "colorable"
    assert sorted(outcome.witness.assignment) == [0, 1, 2, 3]


def test_witnesses_are_proper():
    for seed in range(10):
        g = gen_gnp(8, 0.4, seed)
        outcome = solve(g, 3)
        if outcome.status == "colorable":
            assert is_proper_coloring(g, outcome.witness)


def test_solve_basics():
    assert solve(Graph(10, ()), 1).status == "colorable"
    assert solve(complete_graph(2), 1).status == "uncolorable"
    assert solve(cycle_graph(5), 2).status == "uncolorable"
    assert solve(cycle_graph(5), 3).status == "colorable"
    assert solve(cycle_graph(6), 2).status == "colorable"


@pytest.mark.parametrize("g", [Graph(0, ()), complete_graph(3)], ids=["empty", "k3"])
def test_nan_budget_is_refused(g):
    with pytest.raises(ValueError, match="budget must be a number of seconds, got nan"):
        solve(g, 3, math.nan)


def test_agreement_with_exhaustive_enumeration():
    for n in range(1, 5):
        for g in all_graphs(n):
            for k in (1, 2, 3):
                assert solve(g, k).status == brute_force_status(g, k), (n, g.edges, k)


def test_agreement_on_n5_samples():
    for seed in range(40):
        g = gen_gnp(5, 0.5, seed)
        for k in (1, 2, 3):
            assert solve(g, k).status == brute_force_status(g, k)


def test_monotonicity_in_k():
    for seed in range(15):
        g = gen_gnp(7, 0.5, seed)
        statuses = [solve(g, k).status for k in range(1, 6)]
        refuted = statuses.count("uncolorable")
        assert statuses == ["uncolorable"] * refuted + ["colorable"] * (5 - refuted), seed


def test_determinism_of_witness_and_node_count():
    g = gen_gnp(9, 0.5, 11)
    a = solve(g, 3)
    b = solve(g, 3)
    assert a.witness == b.witness
    assert a.nodes == b.nodes


def test_symmetry_breaking_first_vertex_color_zero():
    for seed in range(10):
        g = gen_gnp(6, 0.6, seed)
        outcome = solve(g, 3)
        if outcome.status == "colorable" and g.n:
            # some vertex was assigned first and fixed to color 0
            assert 0 in outcome.witness.assignment


def test_empty_graph():
    outcome = solve(Graph(0, ()), 2)
    assert outcome.status == "colorable"
    assert len(outcome.witness) == 0
    assert outcome.wall_time >= 0


def test_rejects_nonpositive_k():
    with pytest.raises(ValueError):
        solve(complete_graph(2), 0)


def mycielskian_of_c7() -> Graph:
    """Triangle-free and 4-chromatic on 15 vertices: refuting it with three
    colors takes real backtracking on both G and G'."""
    m = 7
    edges = [(i, (i + 1) % m) for i in range(m)]
    edges += [(m + i, (i + 1) % m) for i in range(m)] + [(m + i, (i - 1) % m) for i in range(m)]
    edges += [(2 * m, m + i) for i in range(m)]
    return Graph(2 * m + 1, tuple(edges))


def witness_digest(outcome) -> str | None:
    if outcome.witness is None:
        return None
    return hashlib.sha256(bytes(outcome.witness.assignment)).hexdigest()[:16]


# (status, nodes, sha256 prefix of the witness) for each source graph G and
# its reduction G' at k=3. Any change to vertex choice, pruning, the pair
# rule, the order of forced colorings, backjumping or symmetry breaking
# changes the search tree and shows up here.
PINNED_SEARCH_TREES = {
    "mycielskian(C7)": (mycielskian_of_c7, ("uncolorable", 61, None), ("uncolorable", 4428, None)),
    "gnp(60,0.05,1)": (
        lambda: gen_gnp(60, 0.05, 1),
        ("colorable", 66, "313067cf8ba71c0f"),
        ("colorable", 1455, "bf22927261272858"),
    ),
    "gnp(30,0.147,5)": (
        lambda: gen_gnp(30, 0.147, 5),
        ("colorable", 30, "6d7945a87eab7ad9"),
        ("colorable", 916, "0fdf8e6c28efbd32"),
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_SEARCH_TREES))
def test_pinned_search_trees(name):
    build, *expected = PINNED_SEARCH_TREES[name]
    g = build()
    gprime, _ = reduce_to_3col(g, 3)
    for graph, pinned in zip((g, gprime), expected):
        outcome = solve(graph, 3)
        assert (outcome.status, outcome.nodes, witness_digest(outcome)) == pinned


def test_solve_leaves_recursion_limit_alone():
    gprime, _ = reduce_to_3col(gen_gnp(60, 0.05, 1), 3)
    assert gprime.n > 1000
    saved = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(1000)
        assert solve(gprime, 3).status == "colorable"
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(saved)


def test_positive_budget_times_out_at_first_check():
    gprime, _ = reduce_to_3col(gen_gnp(60, 0.05, 1), 3)
    outcome = solve(gprime, 3, budget=1e-9)
    assert (outcome.status, outcome.witness, outcome.nodes) == ("timeout", None, 256)


def test_budget_is_checked_at_every_256th_decision():
    # No vertex of an edgeless graph is ever forced, so the check on the decision path fires.
    outcome = solve(Graph(300, ()), 3, budget=1e-9)
    assert (outcome.status, outcome.witness) == ("timeout", None)
    assert outcome.counters == SolveCounters(decisions=256, forced=0, pair_prunes=0, backjumps=0, max_depth=256)


# Every SolveCounters field (decisions, forced, pair_prunes, backjumps,
# max_depth) for G and G' of each PINNED_SEARCH_TREES case at k=3. A change
# to the pair rule can leave node counts alone and still show here.
PINNED_COUNTERS = {
    "mycielskian(C7)": ((16, 45, 0, 0, 6), (84, 4344, 363, 0, 9)),
    "gnp(60,0.05,1)": ((37, 29, 3, 0, 36), (258, 1197, 60, 0, 258)),
    "gnp(30,0.147,5)": ((8, 22, 4, 0, 8), (136, 780, 40, 0, 135)),
}


@pytest.mark.parametrize("name", sorted(PINNED_COUNTERS))
def test_pinned_counters(name):
    g = PINNED_SEARCH_TREES[name][0]()
    gprime, _ = reduce_to_3col(g, 3)
    assert tuple(tuple(solve(graph, 3).counters) for graph in (g, gprime)) == PINNED_COUNTERS[name]


# Past 4n + 64 entries select() rebuilds the heap from the uncolored vertices. (Rebuilds, entries rebuilt in all)
# when refuting the G' of the Mycielskian of C7 as numbered, and as relabelled by two vertex permutations: the first
# reaches exactly 4n + 64 entries at a select() and the second exactly 4n + 65, so a threshold one off either way
# changes these counts, though it never changes an answer or a search tree.
@pytest.mark.parametrize(
    "label, rebuilds",
    [
        (range(15), (4, 1211)),
        ((7, 6, 14, 13, 0, 5, 2, 12, 4, 3, 8, 10, 11, 9, 1), (3, 884)),
        ((2, 7, 8, 6, 10, 12, 9, 13, 3, 4, 5, 0, 11, 14, 1), (3, 883)),
    ],
    ids=["as-numbered", "at-4n+64", "at-4n+65"],
)
def test_heap_is_rebuilt_from_the_uncolored_vertices(monkeypatch, label, rebuilds):
    sizes = []

    def spy(heap):
        sizes.append(len(heap))
        heapq.heapify(heap)

    monkeypatch.setattr(solver, "heapify", spy)
    g = Graph(15, [(label[u], label[v]) for u, v in mycielskian_of_c7().edges])
    outcome = solve(reduce_to_3col(g, 3)[0], 3)
    assert outcome.status == "uncolorable"
    assert (len(sizes), sum(sizes)) == rebuilds


def test_search_state_per_live_frame_is_bounded():
    # Every vertex of an edgeless graph is decided and stays a frame to the end, so the traced peak is the per-vertex
    # lists plus one live frame per vertex: with frames of ints and one shared trail, under 540 bytes per vertex.
    n = 5000
    tracemalloc.start()
    try:
        outcome = solve(Graph(n, ()), 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome.status == "colorable" and outcome.counters.max_depth == n
    assert peak < 540 * n


# The pair rule skips a queued vertex whose domain is no longer two colors
# when its turn comes. A line tracer shows that these two searches at k = 4
# reach that skip, once and twice; a line tracer over the other tests finds
# no other search that does.
@pytest.mark.parametrize(
    "g, counters",
    [(gen_gnp(10, 0.7, 293), (6, 4, 1, 0, 6)), (gen_gnp(12, 0.5, 124), (8, 7, 5, 0, 7))],
    ids=["gnp(10,0.7,293)", "gnp(12,0.5,124)"],
)
def test_pair_rule_skips_a_queued_vertex_no_longer_a_pair(g, counters):
    outcome = solve(g, 4)
    assert (outcome.status, tuple(outcome.counters)) == ("colorable", counters)
    assert is_proper_coloring(g, outcome.witness)


# Refuting K_{k+1} takes at most 3 decisions on G but 2·k! on G': the solver
# breaks the symmetry of G's k colors, not the k! matching permutations of
# G''s indicator columns (README, "Ground truth").
@pytest.mark.parametrize("k, g_decisions", [(2, 1), (3, 1), (4, 2), (5, 3)])
def test_refuting_a_clique_costs_2_k_factorial_decisions_on_gprime(k, g_decisions):
    g = complete_graph(k + 1)
    gprime, _ = reduce_to_3col(g, k)
    outcomes = solve(g, k), solve(gprime, 3)
    assert [outcome.status for outcome in outcomes] == ["uncolorable", "uncolorable"]
    assert [outcome.counters.decisions for outcome in outcomes] == [g_decisions, 2 * math.factorial(k)]


# Among vertices with equally many colors left the solver decides the one
# of highest degree first, and among those the lowest index (DSATUR's tie
# rule with static degrees), so the first decision takes color 0.
@pytest.mark.parametrize(
    "edges, witness",
    [
        (((0, 3), (1, 3), (2, 3)), (1, 1, 1, 0)),  # the star's center, vertex 3, goes first
        (((0, 1), (1, 2), (2, 3)), (1, 0, 1, 0)),  # vertices 1 and 2 tie on degree; 1 goes first
    ],
)
def test_ties_go_to_the_highest_degree_then_the_lowest_index(edges, witness):
    assert solve(Graph(4, edges), 2).witness.assignment == witness


def test_grotzsch_graph_decisions_on_g_and_gprime():
    # README, "Ground truth": the Grötzsch graph, numbered as networkx numbers it, at k = 3.
    h = nx.mycielski_graph(4)
    g = Graph(h.number_of_nodes(), tuple(h.edges()))
    outcomes = solve(g, 3), solve(reduce_to_3col(g, 3)[0], 3)
    assert [(o.status, o.counters.decisions) for o in outcomes] == [("uncolorable", 8), ("uncolorable", 36)]


@pytest.mark.parametrize("name", sorted(PINNED_SEARCH_TREES))
def test_counters_account_for_every_node(name):
    g = PINNED_SEARCH_TREES[name][0]()
    for graph in (g, reduce_to_3col(g, 3)[0]):
        outcome = solve(graph, 3)
        c = outcome.counters
        if outcome.status == "colorable":  # every vertex was colored at least once
            assert c.decisions + c.forced >= graph.n == len(outcome.witness)
        else:
            assert outcome.witness is None
        assert 1 <= c.max_depth <= c.decisions


def test_counters_with_one_color_are_all_forced():
    outcome = solve(Graph(4, ()), 1)
    assert outcome.status == "colorable"
    assert (outcome.nodes, outcome.counters.forced, outcome.counters.decisions) == (4, 4, 0)


def test_backjumping_decides_generator_order_reduction():
    # Seed 1020 is the first seed >= 1000 whose generator-order G' (k=3)
    # backjumps. Chronological backtracking colors it after 19,340 nodes;
    # backjumping skips dead subtrees and needs 5,522.
    gprime, _ = reduce_to_3col(gen_gnp(250, 0.0095, 1020), 3)
    outcome = solve(gprime, 3)
    assert (outcome.status, tuple(outcome.counters)) == ("colorable", (1062, 4460, 270, 1, 1051))
    assert is_proper_coloring(gprime, outcome.witness)


def test_a_backjump_over_one_frame_counts_once():
    # This search backjumps once, over one frame: a count that skipped
    # one-frame jumps would read 0, and one that counted a jump twice 2.
    g = gen_gnp(20, 0.3, 97)
    outcome = solve(g, 4)
    assert (outcome.status, tuple(outcome.counters)) == ("colorable", (15, 39, 2, 1, 9))
    assert is_proper_coloring(g, outcome.witness)


def test_agreement_on_dense_n8_draws():
    # Most of these need real backtracking, which exercises the conflict sets.
    for seed in range(40):
        g = gen_gnp(8, 0.5 + 0.05 * (seed % 5), seed)
        assert solve(g, 3).status == brute_force_status(g, 3), seed


def test_huge_palette_costs_no_k_bit_domains():
    # One k-bit domain per vertex would need about 8 MB here.
    g = gen_gnp(60, 0.3, 1)
    tracemalloc.start()
    try:
        outcome = solve(g, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome.status == "colorable" and outcome.witness.palette_size == 10**6
    assert is_proper_coloring(g, outcome.witness)
    assert peak < 1 << 20


def test_palette_beyond_n_plus_two_changes_only_the_palette():
    sources = [build() for build, *_ in PINNED_SEARCH_TREES.values()]
    for g in sources + [gen_gnp(12, 0.9, seed) for seed in range(3)]:
        small, large = solve(g, g.n + 2), solve(g, g.n + 9)
        assert (small.status, small.counters, small.witness.assignment) == (
            large.status,
            large.counters,
            large.witness.assignment,
        )
        assert (small.witness.palette_size, large.witness.palette_size) == (g.n + 2, g.n + 9)


def test_solver_imports_only_errors_and_graphs_from_the_package():
    # The solver is the oracle for every equivalence test: it must share no
    # code with the reduction or the SAT route.
    tree = ast.parse(Path(solver.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            dots = "." * node.level
            if node.module is None:
                imported.update(dots + alias.name for alias in node.names)
            else:
                imported.add(dots + node.module)
    inside = {name for name in imported if name.startswith(".") or name.split(".")[0] == "kcol3"}
    assert inside == {".errors", ".graphs"}


def test_budget_is_checked_while_one_color_forces_every_vertex():
    # With k = 1 propagation colors every vertex before any decision, so the check on the forced path fires.
    outcome = solve(Graph(300, ()), 1, budget=1e-9)
    assert (outcome.status, outcome.witness) == ("timeout", None)
    assert outcome.counters == SolveCounters(decisions=0, forced=256, pair_prunes=0, backjumps=0, max_depth=0)


def test_solve_checks_its_witness(monkeypatch):
    monkeypatch.setattr(solver, "is_proper_coloring", lambda g, c: False)
    with pytest.raises(InvariantViolation, match="^search produced an improper witness$"):
        solve(complete_graph(3), 3)
