import hashlib
import json
import re
import tracemalloc
from itertools import chain, combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import kcol3.reduction
from kcol3 import (
    Coloring,
    GadgetInstance,
    Graph,
    InvariantViolation,
    ReductionMap,
    compare_routes,
    complete_graph,
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
from test_graphs import simple_graphs


def _gadget_log(rmap):
    """(tag, GadgetInstance) for every gadget of the map, in construction order."""
    return [(tag, GadgetInstance(*gadget)) for tag, gadget in zip(rmap._tags(), _reference_boundaries(rmap))]


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
    rmap = ReductionMap(k, gen_gnp(6, 0.5, 3))
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
    pos = 3 + rmap.source.n * k
    for boundary in chain(
        ((*row, t) for row in ind),
        ((row[j1], row[j2], f) for row in ind for j1, j2 in combinations(range(k), 2)),
        ((ind[u][c], ind[v][c], f) for u, v in rmap.source.edges for c in range(k)),
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
    assign = [-1] * formula_vertices(rmap.source.n, rmap.source.e, rmap.k)
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
    k, _, colors, g = case
    rmap = ReductionMap(k, g)
    assert list(zip(*rmap._columns)) == _reference_edges(rmap)
    c = Coloring(k, colors)
    assert lift_witness(g, c, rmap) == _reference_lift(c, rmap)


def _document(rmap):
    """The sidecar as a dict, built from the gadget log: the reference that to_json writes from templates."""
    gadgets = [
        dict(tag=tag, boundary=list(g.boundary), internal_start=g.internal_start, internal_len=g.internal_len)
        for tag, g in _gadget_log(rmap)
    ]
    indicator = [list(row) for row in rmap.indicator]
    head = {"k": rmap.k, "n": rmap.source.n, "e": rmap.source.e, "t": 0, "f": 1, "r": 2}
    return {**head, "indicator": indicator, "gadgets": gadgets}


@pytest.mark.parametrize("k", range(2, 9))
@pytest.mark.parametrize("n, edges", [(0, ()), (1, ()), (2, ()), (3, ((0, 1), (0, 2)))])
def test_to_json_is_json_dumps_of_the_document(n, edges, k):
    rmap = ReductionMap(k, Graph(n, edges))
    assert rmap.to_json() == json.dumps(_document(rmap), indent=2) + "\n"


def test_to_json_spans_many_blocks():
    """The chains, and the at-most-one and edge-conflict records, each fill more than two of the writer's blocks."""
    g = gen_gnp(600, 0.003, 0)
    rmap = ReductionMap(3, g)
    assert min(g.n, 3 * g.n, 3 * g.e) > 2 * kcol3.reduction._BLOCK
    assert rmap.to_json() == json.dumps(_document(rmap), indent=2) + "\n"


def test_map_json_round_trip():
    g = gen_gnp(4, 0.6, 9)
    gprime, rmap = reduce_to_3col(g, 3)
    restored = ReductionMap.from_json(rmap.to_json())
    assert restored == rmap
    assert restored.reconstruct_graph() == gprime


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.integers(2, 5), simple_graphs(max_n=8))
def test_map_json_round_trip_on_drawn_graphs(k, g):
    """from_json reads to_json's own bytes, not a JSON document: the compact form of the same document is refused."""
    rmap = ReductionMap(k, g)
    text = rmap.to_json()
    assert ReductionMap.from_json(text) == rmap
    with pytest.raises(ValueError):
        ReductionMap.from_json(json.dumps(json.loads(text)))


def test_from_json_reads_its_own_text_without_a_document(monkeypatch):
    maps = [ReductionMap(3, Graph(4, ((0, 1), (0, 3), (1, 2)))), ReductionMap(2, Graph(0)), ReductionMap(4, Graph(1))]
    texts = [rmap.to_json() for rmap in maps]
    others = ["[]", "{", texts[0][:-2], json.dumps(json.loads(texts[0])), texts[0].encode(), None]

    def no_tree(*args, **kwargs):
        raise AssertionError("from_json parsed its text as a JSON document")

    monkeypatch.setattr(json, "loads", no_tree)
    assert [ReductionMap.from_json(text) for text in texts] == maps
    for other in others:  # malformed, compact, bytes and no text at all: each refused without a document
        with pytest.raises(ValueError):
            ReductionMap.from_json(other)


def _spelled(text):
    """(k, n, e, edges) as a sidecar's header and c = 0 edge-conflict tags spell them, or None with no header."""
    head = re.match(r'\{\n  "k": ([0-9]+),\n  "n": ([0-9]+),\n  "e": ([0-9]+),\n', text)
    edges = tuple((int(u), int(v)) for u, v in re.findall(r'"edge-conflict:([0-9]+):([0-9]+):0"', text))
    return head and (*map(int, head.groups()), edges)


def _line_of_first_difference(text, reference):
    """The line of `text` that holds its first character not in `reference` (its end, if it is a prefix)."""
    first = next((i for i, (a, b) in enumerate(zip(text, reference)) if a != b), min(len(text), len(reference)))
    return text.count("\n", 0, first) + 1


_AT_LINE = re.compile(r"reduction map differs from the reduction of its k=\d+, n=\d+ and source edges at line (\d+)")
# The faults that have no line: the header, a k below 2 as the map refuses it, and the edge list as Graph checks it.
_NO_LINE = re.compile(
    r"reduction map (has no to_json header|lists do not)|palette size must be at least 2, got [01]$|self-loop|edge \("
)

# Where a single-character edit of a sidecar lands: digits of the header counts, of tags, of boundaries, of
# internal starts, or any whitespace.
_EDIT_SPOTS = {
    "head": r'"[kne]": [0-9]+',
    "tag": r'"tag": "[^"]*"',
    "boundary": r"\n {8}[0-9]+",
    "start": r'"internal_start": [0-9]+',
    "space": r"\s",
}


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    st.integers(2, 4),
    simple_graphs(max_n=6),
    st.sampled_from(sorted(_EDIT_SPOTS)),
    st.sampled_from(["replace", "delete", "insert"]),
    st.sampled_from("0123456789 \n\t:,-"),
    st.integers(0, 2**16),
)
@example(2, Graph(0, ()), "head", "replace", "3", 0)  # "k": 3 and no source vertex: another map's own text
@example(2, Graph(2, ((0, 1),)), "tag", "replace", "1", 8)  # "edge-conflict:1:1:0", a self-loop
def test_single_character_edits_are_refused_at_their_line(k, g, where, op, char, pick):
    """A text reads back only as the map whose to_json it is. An edit that leaves k, n, e and the c = 0
    edge-conflict tags as they were is refused at the line of its first changed character. Any other edit is
    refused for its header or edge list, or at the first line where it differs from the reduction it now spells,
    unless (with no source vertex) it spells another map's text whole."""
    text = ReductionMap(k, g).to_json()
    spans = (range(*m.span()) for m in re.finditer(_EDIT_SPOTS[where], text))
    spots = [i for span in spans for i in span if where == "space" or text[i].isdigit()]
    assume(spots)
    spots += [len(text)] if op == "insert" else []  # a character after the final newline
    i = spots[pick % len(spots)]
    edited = text[:i] + ("" if op == "delete" else char) + text[i + (op != "insert") :]
    assume(edited != text)
    spelled = _spelled(edited)
    try:
        rmap = ReductionMap.from_json(edited)
    except ValueError as exc:
        message = str(exc)
    else:
        assert g.n == 0 and spelled[0] not in (0, 1, k) and rmap.to_json() == edited
        return
    line = _AT_LINE.fullmatch(message)
    if spelled == _spelled(text):
        assert line, message
        named, at = int(line[1]), edited.count("\n", 0, i) + 1
        assert named == _line_of_first_difference(edited, text)
        assert named in (at, at + 1)  # the line after only where a newline goes in before a newline
    elif line:
        reference = ReductionMap(spelled[0], Graph(spelled[1], spelled[3])).to_json()
        assert int(line[1]) == _line_of_first_difference(edited, reference)
    else:
        assert _NO_LINE.match(message), message


def test_map_from_json_names_missing_field():
    """A field that is missing is named by the line it belongs on."""
    with pytest.raises(ValueError, match="^reduction map has no to_json header$"):
        ReductionMap.from_json('{"k": 3}')
    text = _edited_sidecar(lambda doc: doc.pop("indicator"))
    assert text.splitlines()[7] == '  "gadgets": ['
    with pytest.raises(ValueError, match="at line 8$"):
        ReductionMap.from_json(text)


def _edited_sidecar(edit):
    """The sidecar of a small map with one edit to its document, written in to_json's layout, so that the edit
    itself is what the reader refuses."""
    doc = json.loads(reduce_to_3col(gen_gnp(4, 0.6, 9), 3)[1].to_json())
    edit(doc)
    return json.dumps(doc, indent=2) + "\n"


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
        ReductionMap(2, Graph(0)).to_json().replace('"k": 2', '"k": 0', 1),  # to_json's own layout at k = 0
        _edited_sidecar(lambda doc: doc.update(k=1)),
    ],
    ids=["array", "indicator-int", "internal-len", "k", "huge-n", "huge-k", "edge-tag", "k-0", "k-1"],
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


def _first_edge_record(doc):
    """Index of a sidecar's first edge-conflict record."""
    return doc["n"] * (1 + doc["k"] * (doc["k"] - 1) // 2)


def _reverse_edge_records(doc):
    first = _first_edge_record(doc)
    doc["gadgets"][first:] = reversed(doc["gadgets"][first:])


_PATH = ReductionMap(3, Graph(3, ((0, 1), (1, 2))))
_DIFFERS = "reduction map differs from the reduction of its k=3, n={} and source edges at line {}"


def _with_n(rmap, n):
    """The map's sidecar with the header's n set to `n`."""
    return rmap.to_json().replace(f'"n": {rmap.source.n},', f'"n": {n},', 1)


def _with_tags(rmap, *edges):
    """The map's sidecar with its c = 0 edge-conflict tags spelling `edges` in turn."""
    spelled = iter(edges)
    return re.sub(r"edge-conflict:[0-9]+:[0-9]+:0", lambda _: "edge-conflict:%d:%d:0" % next(spelled), rmap.to_json())


@pytest.mark.parametrize(
    "text, message",
    [
        (
            _edited_sidecar(lambda doc: doc["gadgets"][_first_edge_record(doc)].update(tag="edge-conflict:x:1:0")),
            "reduction map differs from the reduction of its k=3, n=4 and source edges at line 4",  # e: one tag fewer
        ),
        (_edited_sidecar(_reverse_edge_records), _DIFFERS.format(4, 196)),  # at the first edge-conflict tag
        (_with_tags(ReductionMap(3, Graph(2, ((0, 1),))), (1, 1)), "self-loop at vertex 1"),
        (_with_tags(_PATH, (1, 2), (0, 1)), _DIFFERS.format(3, 150)),  # at the first edge-conflict tag
        (_with_tags(_PATH, (0, 1), (0, 1)), _DIFFERS.format(3, 4)),  # at e: one distinct edge, not two
        (_with_n(ReductionMap(3, Graph(3, ((0, 2),))), 2), r"edge \(0,2\) out of range for n=2"),
    ],
    ids=["non-integer-field", "edges-out-of-order", "self-loop", "unsorted", "repeated", "out-of-range"],
)
def test_map_from_json_names_a_bad_edge_list(text, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        ReductionMap.from_json(text)


def _traced_peak(f):
    tracemalloc.start()
    try:
        result = f()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "k, n, edges, message",
    [
        (0, 2, (), "palette size must be at least 2, got 0"),
        (1, 2, ((0, 1),), "palette size must be at least 2, got 1"),
        (3, 2, ((1, 1),), "self-loop at vertex 1"),  # refused by Graph, before any map is made
    ],
    ids=["k-0", "k-1", "self-loop"],
)
def test_map_refuses_fields_no_reduction_has(k, n, edges, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ReductionMap(k, Graph(n, edges))


def _refusal(f):
    """The message of the ValueError that f() raises."""
    with pytest.raises(ValueError) as refused:
        f()
    return str(refused.value)


def test_size_cap_refuses_a_reduction_before_building_it(monkeypatch):
    # K2 at k = 100,000: G' would have about 2 * 10**10 vertices, and building it runs out of memory.
    g, k = complete_graph(2), 10**5
    expected = f"reduced graph would have {formula_vertices(2, 1, k)} vertices, above the cap of 1789569"
    for f in (lambda: reduce_to_3col(g, k), lambda: compare_routes(g, k, 1.0)):
        peak, message = _traced_peak(lambda: _refusal(f))
        assert message == expected
        assert peak < 2**20
    # Sizes alone are closed forms, so they are not capped.
    record = compare_routes(g, k, 0)
    assert size_report(g, k).vertices == record["sane"]["vertices"] == formula_vertices(2, 1, k)
    assert record["decisions"] == {"sane": None, "sat_route": None}
    # The cap is on G''s closed-form vertex count, 6n + 3 for an edgeless source at k = 2: a G' at the cap gets as
    # far as its build (stubbed here), and one vertex more is refused.
    assert size_report(Graph(298_261, ()), 2).vertices == 1_789_569

    def build(rmap):
        raise InvariantViolation(f"would build the G' of {rmap.source.n} vertices")

    monkeypatch.setattr(ReductionMap, "reconstruct_graph", build)
    with pytest.raises(InvariantViolation, match="^would build the G' of 298261 vertices$"):
        reduce_to_3col(Graph(298_261, ()), 2)
    with pytest.raises(ValueError, match="^reduced graph would have 1789575 vertices, above the cap of 1789569$"):
        reduce_to_3col(Graph(298_262, ()), 2)


def test_a_map_holds_its_source_graph(monkeypatch):
    g = gen_gnp(12, 0.3, 7)
    rmap = reduce_to_3col(g, 4)[1]
    assert rmap.source is g
    text, builds, post_init = rmap.to_json(), [], Graph.__post_init__

    def counted(self, *args):
        builds.append(args)
        post_init(self, *args)

    monkeypatch.setattr(Graph, "__post_init__", counted)
    assert ReductionMap.from_json(text).source == g
    assert len(builds) == 1


def test_empty_reduction_memory_does_not_grow_with_k_squared():
    # At k = 2000 a list of the k(k-1)/2 color pairs alone would take over 100 MiB.
    sidecar = ReductionMap(2000, Graph(0)).to_json()
    peak, rmap = _traced_peak(lambda: ReductionMap.from_json(sidecar))
    assert rmap == ReductionMap(2000, Graph(0))
    assert peak < 2**20
    peak, (gprime, _) = _traced_peak(lambda: reduce_to_3col(Graph(0, ()), 2000))
    assert (gprime.n, gprime.e) == (3, 3)
    assert peak < 2**20


@pytest.mark.parametrize("field, value", [("k", 10**9), ("n", 10**6), ("n", 10**12), ("e", 10**9)])
def test_a_header_too_large_for_its_text_is_refused_in_bounded_memory(field, value):
    doc = json.loads(reduce_to_3col(gen_gnp(4, 0.6, 9), 3)[1].to_json())
    text = json.dumps({**doc, field: value}, indent=2) + "\n"  # to_json's own layout, header and all

    def read():
        with pytest.raises(ValueError, match="lengths"):
            ReductionMap.from_json(text)

    peak, _ = _traced_peak(read)
    assert peak < 2**20


def test_a_header_as_large_as_its_text_is_walked():
    """Only k(nk + e) above the text's length is refused for its size; at equality the walk names the line."""
    head = '{\n  "k": 2,\n  "n": 20,\n  "e": 0,\n'
    text = head + " " * (2 * (20 * 2 + 0) - len(head))
    with pytest.raises(ValueError, match="at line 5$"):
        ReductionMap.from_json(text)
    with pytest.raises(ValueError, match="lengths"):
        ReductionMap.from_json(text[:-1])


def test_from_json_peaks_below_the_length_of_its_own_text():
    g = gen_gnp(200, 0.05, 1)
    rmap = ReductionMap(4, g)
    text = rmap.to_json()
    peak, restored = _traced_peak(lambda: ReductionMap.from_json(text))
    assert restored == rmap
    assert peak < len(text)


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

    # The edge count meets its bound exactly when n(k - 2)(k - 5) = 6(ke + 1), as at n = 9, e = 2, k = 7; the vertex
    # count never meets its bound, which would need n(k^2 - 3k + 4) = 3.
    rep3 = size_report(Graph(9, ((0, 1), (0, 2))), 7)
    assert rep3.edges == rep3.crude_bound_edges == 1351
    assert rep3.edge_bound_holds is True


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


def test_lift_rejects_another_palette():
    g = complete_graph(3)
    _, rmap = reduce_to_3col(g, 3)
    with pytest.raises(ValueError, match="witness palette 4 does not match reduction k=3"):
        lift_witness(g, Coloring(4, (0, 1, 2)), rmap)


def test_project_rejects_another_palette():
    g = complete_graph(3)
    _, rmap = reduce_to_3col(g, 3)
    lifted = lift_witness(g, Coloring(3, (0, 1, 2)), rmap).assignment
    # A proper coloring of G' is still refused under another palette.
    for witness in (Coloring(4, lifted), Coloring(2, (0,) * len(lifted))):
        with pytest.raises(ValueError, match="projection expects a 3-color witness"):
            project_witness(rmap, witness, g)


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


def test_projection_is_checked_against_the_map_source_edges():
    # One T-colored indicator per row, but both ends of the edge get color 0;
    # the private helper trusts its caller to have checked the coloring on G'.
    _, rmap = reduce_to_3col(complete_graph(2), 2)
    witness = [2] * formula_vertices(2, 1, 2)
    witness[rmap.t_vertex], witness[3:7] = 0, (0, 1, 0, 1)
    with pytest.raises(InvariantViolation, match="projected coloring is not proper"):
        kcol3.reduction._project(rmap, Coloring(3, witness))


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
            assert solve(gprime, 3).status == solve(g, k).status in ("colorable", "uncolorable")


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


def test_reduce_checks_its_sizes_against_the_closed_forms(monkeypatch):
    monkeypatch.setattr(kcol3.reduction, "formula_vertices", lambda n, e, k: 0)
    message = r"^constructed sizes \(63, 132\) differ from closed forms \(0, 132\)$"
    with pytest.raises(InvariantViolation, match=message):
        reduce_to_3col(complete_graph(3), 3)


def test_lift_checks_the_lifted_coloring(monkeypatch):
    def all_t(instance, colors):  # every internal colored T: each gadget's a-b edge is monochromatic
        return dict.fromkeys(instance.internal, 0)

    monkeypatch.setattr(kcol3.reduction, "extend_coloring", all_t)
    g = complete_graph(3)
    _, rmap = reduce_to_3col(g, 3)
    with pytest.raises(InvariantViolation, match="^lifted coloring is not proper; construction bug$"):
        lift_witness(g, Coloring(3, (0, 1, 2)), rmap)


def test_projection_needs_one_t_indicator_per_row():
    g = Graph(1, ())
    _, rmap = reduce_to_3col(g, 2)
    colors = list(lift_witness(g, Coloring(2, (0,)), rmap).assignment)
    colors[rmap.indicator[0][1]] = colors[rmap.t_vertex]
    with pytest.raises(InvariantViolation, match="^source vertex 0 has 2 indicators colored T$"):
        kcol3.reduction._project(rmap, Coloring(3, colors))
