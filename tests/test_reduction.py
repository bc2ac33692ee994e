import hashlib
import json
import tracemalloc
from itertools import chain, combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kcol3 import (
    Coloring,
    GadgetInstance,
    Graph,
    InvariantViolation,
    ReductionMap,
    complete_graph,
    decide,
    emit_dimacs_col,
    extend_coloring,
    formula_edges,
    formula_vertices,
    gen_gnp,
    is_proper_coloring,
    lift_witness,
    project_witness,
    reduce_to_3col,
    size_report,
    solve,
)


def _gadget_log(rmap):
    """(tag, GadgetInstance) for every gadget of the map, in construction order."""
    return [(tag, GadgetInstance(*gadget)) for tag, gadget in zip(rmap._tags(), rmap._boundaries())]


def test_k3_fixture_sizes():
    gprime, _ = reduce_to_3col(complete_graph(3), 3)
    assert (gprime.n, gprime.e) == (63, 132)


def test_k2_fixture_sizes():
    gprime, _ = reduce_to_3col(complete_graph(2), 2)
    assert (gprime.n, gprime.e) == (19, 37)


def test_single_vertex_fixture():
    gprime, _ = reduce_to_3col(Graph(1, ()), 2)
    assert gprime.n == 9


def test_rejects_k_below_two():
    with pytest.raises(ValueError):
        reduce_to_3col(complete_graph(2), 1)


def test_map_structure():
    g = complete_graph(3)
    gprime, rmap = reduce_to_3col(g, 3)
    t, f, r = rmap.t_vertex, rmap.f_vertex, rmap.r_vertex
    edge_set = set(gprime.edges)
    # palette triangle
    for u, v in ((t, f), (t, r), (f, r)):
        assert (min(u, v), max(u, v)) in edge_set
    # every indicator is wired to R
    for row in rmap.indicator:
        for v in row:
            assert (min(v, r), max(v, r)) in edge_set
    # triangle, indicators, and gadget internals partition the vertices
    seen = {t, f, r}
    for row in rmap.indicator:
        for v in row:
            assert v not in seen
            seen.add(v)
    for _, inst in _gadget_log(rmap):
        for v in inst.internal:
            assert v not in seen
            seen.add(v)
    assert seen == set(range(gprime.n))


def test_gadget_log_tags_cover_construction():
    g = complete_graph(3)
    _, rmap = reduce_to_3col(g, 3)
    tags = [tag.split(":")[0] for tag, _ in _gadget_log(rmap)]
    assert tags.count("at-least-one") == g.n
    assert tags.count("at-most-one") == g.n * 3  # C(3,2) per vertex
    assert tags.count("edge-conflict") == g.e * 3


def test_map_reconstructs_reduced_graph():
    for seed in (0, 1):
        g = gen_gnp(4, 0.5, seed)
        for k in (2, 3):
            gprime, rmap = reduce_to_3col(g, k)
            assert rmap.reconstruct_graph() == gprime


@pytest.mark.parametrize("k", [2, 3, 5])
def test_gprime_columns_follow_the_gadget_log(k):
    rmap = ReductionMap(k, 6, gen_gnp(6, 0.5, 3).edges)
    t, f, r = rmap.t_vertex, rmap.f_vertex, rmap.r_vertex
    expected = [(t, f), (t, r), (f, r)]
    expected += [(r, v) for row in rmap.indicator for v in row]
    expected += [edge for _, inst in _gadget_log(rmap) for edge in inst.added_edges]
    us, vs = rmap._columns
    assert list(zip(us, vs)) == expected


def _reference_boundaries(rmap):
    """(boundary, internal_start) of every gadget, walked one gadget at a
    time: the reference for the closed-form chain and base-gadget blocks."""
    k, t, f, ind = rmap.k, rmap.t_vertex, rmap.f_vertex, rmap.indicator
    pos = 3 + rmap.n * k
    for boundary in chain(
        ((*row, t) for row in ind),
        ((row[j1], row[j2], f) for row in ind for j1, j2 in combinations(range(k), 2)),
        ((ind[u][c], ind[v][c], f) for u, v in rmap.edges for c in range(k)),
    ):
        yield boundary, pos
        pos += 3 * len(boundary) - 7


def _reference_edges(rmap):
    """G''s edges in layout order, each gadget wired link by link: a link
    allocates its output y (the last outputs z), then its a and b."""
    t, f, r = rmap.t_vertex, rmap.f_vertex, rmap.r_vertex
    edges = [(t, f), (t, r), (f, r)] + [(r, v) for row in rmap.indicator for v in row]
    for (*inputs, z), pos in _reference_boundaries(rmap):
        prev = inputs[0]
        for i in range(1, len(inputs)):
            if i == len(inputs) - 1:
                out = z
            else:
                out, pos = pos, pos + 1
            a, b, pos = pos, pos + 1, pos + 2
            edges += ((prev, a), (inputs[i], b), (a, b), (out, a), (out, b))
            prev = out
    return edges


def _reference_lift(c, rmap):
    """lift_witness's coloring, built gadget by gadget."""
    assign = [-1] * formula_vertices(rmap.n, rmap.e, rmap.k)
    assign[rmap.t_vertex], assign[rmap.f_vertex], assign[rmap.r_vertex] = 0, 1, 2
    for i, row in enumerate(rmap.indicator):
        for j, v in enumerate(row):
            assign[v] = 0 if c[i] == j else 1
    for boundary, start in _reference_boundaries(rmap):
        fill = extend_coloring(GadgetInstance(boundary, start), tuple(assign[v] for v in boundary))
        for v, color in fill.items():
            assign[v] = color
    return Coloring(3, tuple(assign))


@st.composite
def _colored_graphs(draw):
    """(k, n, a k-coloring of n vertices, a source graph it colors properly)."""
    k, n = draw(st.integers(2, 6)), draw(st.integers(0, 7))
    colors = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    pairs = [(u, v) for u, v in combinations(range(n), 2) if colors[u] != colors[v]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return k, n, colors, Graph(n, edges)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(_colored_graphs())
@example((2, 0, [], Graph(0, ())))
@example((2, 3, [0, 1, 0], Graph(3, ())))
@example((2, 4, [0, 1, 0, 1], Graph(4, ((0, 1), (1, 2), (2, 3)))))
def test_layout_and_lift_equal_the_per_gadget_reference(case):
    k, n, colors, g = case
    rmap = ReductionMap(k, n, g.edges)
    assert list(rmap._boundaries()) == list(_reference_boundaries(rmap))
    assert list(zip(*rmap._columns)) == _reference_edges(rmap)
    c = Coloring(k, colors)
    assert lift_witness(g, c, rmap) == _reference_lift(c, rmap)


def _document(rmap):
    """The sidecar as a dict, built from the gadget log: the reference that
    to_json writes from templates and from_json checks record by record."""
    gadgets = [
        dict(tag=tag, boundary=list(g.boundary), internal_start=g.internal_start, internal_len=g.internal_len)
        for tag, g in _gadget_log(rmap)
    ]
    return {**rmap._header(), "gadgets": gadgets}


@pytest.mark.parametrize("k", range(2, 9))
@pytest.mark.parametrize("n, edges", [(0, ()), (1, ()), (2, ()), (3, ((0, 1), (0, 2)))])
def test_to_json_is_json_dumps_of_the_document(n, edges, k):
    rmap = ReductionMap(k, n, edges)
    assert rmap.to_json() == json.dumps(_document(rmap), indent=2) + "\n"


def test_map_json_round_trip():
    g = gen_gnp(4, 0.6, 9)
    gprime, rmap = reduce_to_3col(g, 3)
    restored = ReductionMap.from_json(rmap.to_json())
    assert restored == rmap
    assert restored.reconstruct_graph() == gprime


def test_map_from_json_names_missing_field():
    with pytest.raises(ValueError, match="gadgets"):
        ReductionMap.from_json('{"k": 3}')
    doc = json.loads(reduce_to_3col(gen_gnp(4, 0.6, 9), 3)[1].to_json())
    del doc["indicator"]
    with pytest.raises(ValueError, match="indicator"):
        ReductionMap.from_json(json.dumps(doc))


def _edited_sidecar(edit):
    doc = json.loads(reduce_to_3col(gen_gnp(4, 0.6, 9), 3)[1].to_json())
    edit(doc)
    return json.dumps(doc)


@pytest.mark.parametrize(
    "text",
    [
        "[]",
        _edited_sidecar(lambda doc: doc.update(indicator=5)),
        _edited_sidecar(lambda doc: doc["gadgets"][0].update(internal_len=3)),
        _edited_sidecar(lambda doc: doc.update(k=4)),
        _edited_sidecar(lambda doc: doc.update(n=10**12)),
        _edited_sidecar(lambda doc: doc.update(k=10**9)),
        _edited_sidecar(lambda doc: doc["gadgets"][-3].update(tag="edge-conflict:1:9:0")),
    ],
    ids=["array", "indicator-int", "internal-len", "k", "huge-n", "huge-k", "edge-tag"],
)
def test_map_from_json_rejects_malformed_sidecar(text):
    with pytest.raises(ValueError):
        ReductionMap.from_json(text)


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc.update(extra=0),
        lambda doc: doc.update(t=2, r=0),
        lambda doc: doc["gadgets"][5].update(extra=0),
        lambda doc: doc["gadgets"][5]["boundary"].reverse(),
        lambda doc: doc["gadgets"][-1].update(internal_start=doc["gadgets"][-1]["internal_start"] + 1),
        lambda doc: doc["gadgets"][1].update(tag="at-least-one:0"),
    ],
    ids=["extra-key", "palette", "record-extra-key", "boundary-order", "last-start", "record-tag"],
)
def test_map_from_json_checks_header_and_every_record(edit):
    with pytest.raises(ValueError, match="differs from the reduction"):
        ReductionMap.from_json(_edited_sidecar(edit))


def _traced_peak(f):
    tracemalloc.start()
    try:
        result = f()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_empty_reduction_memory_does_not_grow_with_k_squared():
    # At k = 2000 a list of the k(k-1)/2 color pairs alone would take over 100 MiB.
    sidecar = '{"k": 2000, "n": 0, "e": 0, "t": 0, "f": 1, "r": 2, "indicator": [], "gadgets": []}'
    peak, rmap = _traced_peak(lambda: ReductionMap.from_json(sidecar))
    assert rmap == ReductionMap(2000, 0, ())
    assert peak < 2**20
    peak, (gprime, _) = _traced_peak(lambda: reduce_to_3col(Graph(0, ()), 2000))
    assert (gprime.n, gprime.e) == (3, 3)
    assert peak < 2**20


def test_determinism():
    g = gen_gnp(5, 0.5, 4)
    a, amap = reduce_to_3col(g, 3)
    b, bmap = reduce_to_3col(g, 3)
    assert a == b and amap == bmap


def test_closed_forms_match_construction():
    for seed in range(12):
        g = gen_gnp(2 + seed % 6, 0.5, seed)
        for k in (2, 3, 4, 5):
            gprime, _ = reduce_to_3col(g, k)
            assert gprime.n == formula_vertices(g.n, g.e, k)
            assert gprime.e == formula_edges(g.n, g.e, k)


def test_size_report_fixture_values():
    rep = size_report(complete_graph(3), 3)
    assert (rep.vertices, rep.edges) == (63, 132)
    assert rep.crude_bound_vertices == 72
    assert rep.crude_bound_edges == 99
    assert rep.vertex_bound_holds is True
    assert rep.edge_bound_holds is False

    rep2 = size_report(complete_graph(2), 2)
    assert (rep2.vertices, rep2.edges) == (19, 37)
    assert rep2.crude_bound_vertices == 20
    assert rep2.crude_bound_edges == 28
    assert rep2.vertex_bound_holds is True
    assert rep2.edge_bound_holds is False


def test_vertex_bound_holds_for_k_at_least_four():
    for n in range(1, 8):
        for k in (4, 5, 6):
            rep = size_report(Graph(n, ()), k)
            assert rep.vertex_bound_holds


def test_lift_witness_k3():
    g = complete_graph(3)
    gprime, rmap = reduce_to_3col(g, 3)
    lifted = lift_witness(g, Coloring(3, (0, 1, 2)), rmap)
    assert is_proper_coloring(gprime, lifted)


def test_lift_rejects_improper_coloring():
    g = complete_graph(3)
    _, rmap = reduce_to_3col(g, 3)
    with pytest.raises(ValueError):
        lift_witness(g, Coloring(3, (0, 0, 1)), rmap)


def test_lift_rejects_another_source_graph():
    _, rmap = reduce_to_3col(Graph(3, ((0, 1), (1, 2))), 3)
    with pytest.raises(ValueError, match="not the reduction map's source graph"):
        lift_witness(Graph(3, ((0, 1),)), Coloring(3, (0, 1, 1)), rmap)


def test_project_rejects_another_source_graph():
    path = Graph(3, ((0, 1), (1, 2)))
    _, rmap = reduce_to_3col(path, 3)
    lifted = lift_witness(path, Coloring(3, (0, 1, 0)), rmap)
    with pytest.raises(ValueError, match="not the reduction map's source graph"):
        project_witness(rmap, lifted, complete_graph(3))


def test_project_solver_witness():
    g = complete_graph(3)
    gprime, rmap = reduce_to_3col(g, 3)
    outcome = solve(gprime, 3)
    assert outcome.status == "colorable"
    projected = project_witness(rmap, outcome.witness, g)
    assert is_proper_coloring(g, projected)


def test_project_rejects_improper_input():
    g = complete_graph(2)
    gprime, rmap = reduce_to_3col(g, 2)
    with pytest.raises(ValueError):
        project_witness(rmap, Coloring(3, (0,) * gprime.n))


def test_project_rejects_witness_of_wrong_length():
    g = complete_graph(3)
    _, rmap = reduce_to_3col(g, 3)
    lifted = lift_witness(g, Coloring(3, (0, 1, 2)), rmap).assignment
    for witness in (lifted + (0,), lifted[:-1]):
        with pytest.raises(ValueError):
            project_witness(rmap, Coloring(3, witness), g)


def test_lift_and_project_build_no_graph(monkeypatch):
    g = gen_gnp(12, 0.3, 7)
    _, rmap = reduce_to_3col(g, 4)
    source = solve(g, 4).witness

    def no_graph(*args):
        raise AssertionError("a Graph was built")

    monkeypatch.setattr(ReductionMap, "reconstruct_graph", no_graph)
    monkeypatch.setattr(Graph, "__post_init__", no_graph)
    lifted = lift_witness(g, source, rmap)
    assert project_witness(rmap, lifted, g) == source


def test_project_lift_round_trip():
    for seed in range(8):
        g = gen_gnp(5, 0.4, seed)
        for k in (2, 3):
            outcome = solve(g, k)
            if outcome.status != "colorable":
                continue
            gprime, rmap = reduce_to_3col(g, k)
            lifted = lift_witness(g, outcome.witness, rmap)
            assert project_witness(rmap, lifted, g) == outcome.witness


def test_equivalence_small_sweep():
    for seed in range(10):
        g = gen_gnp(5, 0.5, seed)
        for k in (2, 3):
            gprime, _ = reduce_to_3col(g, k)
            assert decide(g, k) == decide(gprime, 3)


def test_k2_chain_degenerates_legally():
    g = complete_graph(2)
    _, rmap = reduce_to_3col(g, 2)
    chains = [inst for tag, inst in _gadget_log(rmap) if tag.startswith("at-least-one")]
    assert all(inst.internal_len == 2 for inst in chains)


@pytest.mark.parametrize(
    "g, k, col_sha, map_sha, lifted_sha, source",
    [
        (
            gen_gnp(12, 0.3, 7),
            4,
            "9166fa17959b0aa87351f63c8751d01bae3066ffe0e08fabeeadcec1e58b739c",
            "291a758e4e2122843ec5b1a47f5d36ea4a90d18b637569880b7b322f9abe34c8",
            "4d2bdda5d6204364286fb12fc6b17e67677554a648cc04cfc5b9b9af66afa009",
            (0, 0, 1, 0, 0, 1, 1, 1, 0, 2, 1, 2),
        ),
        (
            complete_graph(2),
            2,
            "23c0deb4352ff851fe3dd1c5c473b3f06daf37a6d8cd8b894072d576747c1b88",
            "f2e48ef726d053557bb44df8bedfd9a4d862428072a112dda2383889c5f15132",
            "89559ad61ea58e5d99345babb8b38b64506aefffe050bc8bc662349fe4e163d7",
            (0, 1),
        ),
    ],
)
def test_output_bytes_are_pinned(g, k, col_sha, map_sha, lifted_sha, source):
    """The .col text, the sidecar and the lifted witness (in the CLI's
    witness-file format) are byte-stable across refactors. The source
    witness is a literal, so a change to the solver's search cannot move
    these bytes."""
    gprime, rmap = reduce_to_3col(g, k)
    lifted = lift_witness(g, Coloring(k, source), rmap)
    witness = "".join(f"v {v + 1} {c}\n" for v, c in enumerate(lifted.assignment))

    def sha(text):
        return hashlib.sha256(text.encode()).hexdigest()

    assert sha(emit_dimacs_col(gprime)) == col_sha
    assert sha(rmap.to_json()) == map_sha
    assert sha(witness) == lifted_sha
