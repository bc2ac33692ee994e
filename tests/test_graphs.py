import hashlib
import math
import random
import tracemalloc
from array import array
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kcol3.graphs
import kcol3.sat_route
from kcol3 import (
    CnfFormula,
    Coloring,
    GadgetInstance,
    Graph,
    GraphBuilder,
    ParseError,
    ReductionMap,
    complete_graph,
    emit_dimacs_cnf,
    emit_dimacs_col,
    encode_cnf_as_3col,
    encode_col_as_cnf,
    formula_vertices,
    gen_gnp,
    is_proper_coloring,
    parse_dimacs_cnf,
    parse_dimacs_col,
    reduce_to_3col,
)
from kcol3.graphs import _bulk_columns, _emit_witness, _read_witness, _walk_dimacs_col, _walk_witness


def test_graph_canonicalizes_edges():
    g = Graph(3, ((2, 0), (0, 2), (1, 0)))
    assert g.edges == ((0, 1), (0, 2))
    assert g.e == 2


def test_graph_rejects_self_loop_and_range():
    with pytest.raises(ValueError):
        Graph(3, ((1, 1),))
    with pytest.raises(ValueError):
        Graph(3, ((0, 3),))


# One-shot inputs: the first bad edge, in input order and orientation, is
# named from the materialized input, whether or not the pairs are oriented.
@pytest.mark.parametrize(
    "us, vs, message",
    [
        pytest.param([0, 1], [1, 1], "self-loop at vertex 1", id="self-loop"),
        pytest.param([0, 5, 2], [1, 0, 9], "edge (5,0) out of range for n=3", id="out-of-range"),
        pytest.param([0, 1, 0], [1, 7, 5], "edge (1,7) out of range for n=3", id="oriented-out-of-range"),
        pytest.param([2, 1], [0, 5], "edge (1,5) out of range for n=3", id="vertex-0-in-range"),
    ],
)
@pytest.mark.parametrize(
    "one_shot",
    [zip, lambda us, vs: ((u, v) for u, v in zip(us, vs)), lambda us, vs: iter(list(zip(us, vs)))],
    ids=["zip", "generator", "iterator"],
)
def test_graph_names_the_bad_edge_of_a_one_shot_input(one_shot, us, vs, message):
    with pytest.raises(ValueError) as err:
        Graph(3, one_shot(us, vs))
    assert str(err.value) == message


@st.composite
def _cnf_formulas(draw):
    """Any CNF, unit and repeated-literal clauses included."""
    var_count = draw(st.integers(1, 5))
    literals = st.integers(1, var_count).flatmap(lambda v: st.sampled_from([v, -v]))
    return CnfFormula(var_count, draw(st.lists(st.lists(literals, min_size=1, max_size=4), max_size=8)))


def _lower_higher(edges) -> bool:
    return all(type(edge) is tuple and len(edge) == 2 and edge[0] < edge[1] for edge in edges)


# `Graph` orients no edge when every edge is (lower, higher), so each layout
# must keep handing it such columns for that skip to fire.
@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.integers(2, 6), st.integers(0, 8), st.integers(0, 99), st.sampled_from([0.0, 0.3, 0.7, 1.0]), _cnf_formulas(),
       st.data())
def test_every_layout_gives_lower_higher_pairs(k, n, seed, p, formula, data):
    g = gen_gnp(n, p, seed)
    assert _lower_higher(zip(*ReductionMap(k, n, g.edges)._columns))
    handed = []

    def spy(n, *, columns):
        handed.append(list(zip(*columns)))
        return Graph(n, columns=columns)

    with mock.patch.object(kcol3.sat_route, "Graph", spy):
        encode_cnf_as_3col(encode_col_as_cnf(g, k))
        encode_cnf_as_3col(formula)
    assert len(handed) == 2 and all(map(_lower_higher, handed))
    start = data.draw(st.integers(k + 1, 3 * k + 6))
    boundary = data.draw(st.lists(st.integers(0, start - 1), min_size=k + 1, max_size=k + 1, unique=True))
    assert _lower_higher(GadgetInstance(tuple(boundary), start).added_edges)


def _reference_edges(n, edges):
    """Per-edge reference for `Graph`'s canonicalization: check each edge,
    orient it into a set, then sort the set. The columns hold ints, so a
    non-int endpoint that passes the checks is a TypeError."""
    if n < 0:
        raise ValueError(f"negative vertex count {n}")
    canon = set()
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        canon.add((u, v) if u < v else (v, u))
    if not all(isinstance(x, int) for edge in canon for x in edge):
        raise TypeError("non-int endpoint")
    return tuple(sorted(canon))


def _layout_edges(g, k):
    """The edges of G' in the order `ReductionMap.reconstruct_graph` hands them to `Graph`."""
    return tuple(zip(*ReductionMap(k, g.n, g.edges)._columns))


def _both_ways_shuffled(g, seed):
    edges = [*g.edges, *((v, u) for u, v in g.edges)]
    random.Random(seed).shuffle(edges)
    return tuple(edges)


@pytest.mark.parametrize(
    "n, edges",
    [
        (4, ((0, 1), (0, 3), (1, 2), (2, 3))),
        (4, [(0, 1), (1, 2)]),
        (4, [[0, 1], [1, 2]]),
        (4, ([0, 1], [1, 2])),
        (4, ((0, 1), (1, 2, 3))),
        (4, ((0, 1), (2,))),
        (4, ((0, 1), ())),
        (4, ((1, 0),)),
        (4, ((0, 2), (1, 0))),
        (4, ((0, 1), (0, 1))),
        (4, ((0, 2), (0, 1))),
        (4, ((-1, 2),)),
        (4, ((-2, -1), (0, 1))),
        (4, ((0, 4),)),
        (4, ((0, 5), (1, 2))),
        (4, ((2, 2),)),
        (4, ((0, 1), (3, 3))),
        (4, ()),
        (0, ()),
        (-1, ()),
        (4, ((0, 1), (1, "a"))),
        (4, ((0, 1.5),)),
        (formula_vertices(6, gen_gnp(6, 0.5, 3).e, 3), _layout_edges(gen_gnp(6, 0.5, 3), 3)),
        (12, _both_ways_shuffled(gen_gnp(12, 0.4, 2), 7)),
    ],
)
def test_graph_equals_reference_loop(n, edges):
    try:
        expected = _reference_edges(n, edges)
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc)):
            Graph(n, edges)
        return
    got = Graph(n, edges).edges
    assert got == expected
    assert type(got) is tuple and all(type(edge) is tuple for edge in got)


_endpoints = st.integers(-2, 9)
_edge_inputs = st.one_of(
    st.tuples(_endpoints, _endpoints),
    st.lists(_endpoints, min_size=2, max_size=2),
    st.lists(_endpoints, max_size=3).map(tuple),
)


# Integer endpoints only: with mixed types the reference and `Graph` may
# meet a different bad edge first, and so raise a different error.
@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.integers(-1, 8), st.one_of(st.lists(_edge_inputs), st.lists(_edge_inputs).map(tuple)))
def test_graph_equals_reference_loop_on_generated_input(n, edges):
    test_graph_equals_reference_loop(n, edges)


def test_graph_caps_n_at_its_endpoint_width():
    width = 8 * array(kcol3.graphs._ENDPOINT).itemsize
    cap = 1 << width
    assert Graph(cap, ((cap - 1, 0),)).edges == ((0, cap - 1),)  # nothing is allocated per vertex
    with pytest.raises(ValueError, match=rf"^vertex count {cap + 1} above 2\*\*{width}$"):
        Graph(cap + 1, ())
    # The reader checks the p line's n before it reads any edge line, so the error names the p line.
    with pytest.raises(ParseError, match=rf"^line 1: vertex count {cap + 1} above 2\*\*{width}$"):
        parse_dimacs_col(f"p edge {cap + 1} 0\n")


def test_every_build_path_runs_post_init_once(monkeypatch):
    """perfbench times `Graph.__post_init__` as the graph build, so every path that makes a Graph runs it once."""
    g = gen_gnp(12, 0.4, 2)
    text = emit_dimacs_col(g)
    builder = GraphBuilder(3)
    builder.add_edge(2, 0)
    builder.add_edge(1, 2)
    calls = []
    post_init = Graph.__post_init__

    def counted(self, *args):
        calls.append(args)
        post_init(self, *args)

    monkeypatch.setattr(Graph, "__post_init__", counted)
    paths = {
        "pairs": lambda: Graph(g.n, g.edges),
        "bulk reader": lambda: _read_noting_walker(parse_dimacs_col, "_walk_dimacs_col", kcol3.graphs, text)[0],
        "walker": lambda: _walk_dimacs_col(text),
        "reconstruct_graph": lambda: ReductionMap(3, g.n, g.edges).reconstruct_graph(),
        "encode_cnf_as_3col": lambda: encode_cnf_as_3col(encode_col_as_cnf(g, 3))[0],
        "gen_gnp": lambda: gen_gnp(12, 0.4, 2),
        "GraphBuilder": builder.to_graph,
    }
    for name, build in paths.items():
        calls.clear()
        built = build()
        assert len(calls) == 1, name
        again = Graph(built.n, built.edges)
        assert again == built and hash(again) == hash(built), name
    assert Graph(g.n, g.edges[1:]) != g and Graph(g.n + 1, g.edges) != g


def _kept_bytes(build):
    """What build() returns, and the bytes that it keeps allocated."""
    tracemalloc.start()
    try:
        result = build()
        return tracemalloc.get_traced_memory()[0], result
    finally:
        tracemalloc.stop()


def test_graphs_keep_int_columns_not_pair_tuples():
    """A return to a tuple of pair tuples (here 110 bytes per parsed edge and 96 per reduced edge) fails here."""
    g = gen_gnp(300, 0.02, 1)
    data = emit_dimacs_col(reduce_to_3col(g, 4)[0]).encode()
    kept, parsed = _kept_bytes(lambda: parse_dimacs_col(data))
    assert parsed.e > 30_000 and kept <= 16 * parsed.e
    kept, (gprime, _) = _kept_bytes(lambda: reduce_to_3col(g, 4))
    assert gprime == parsed and kept <= 32 * gprime.e


def test_coloring_rejects_out_of_palette():
    # The message names the first vertex whose color is out of range.
    for palette, assignment, message in [
        (2, (0, 2), "vertex 1 has color 2 outside palette 0..1"),
        (3, (0, 5, -1), "vertex 1 has color 5 outside palette 0..2"),
        (3, (0, 1, -1, 7), "vertex 2 has color -1 outside palette 0..2"),
        (1, [0, 0, 1], "vertex 2 has color 1 outside palette 0..0"),
    ]:
        with pytest.raises(ValueError) as err:
            Coloring(palette, assignment)
        assert str(err.value) == message


def test_is_proper_coloring_triangle():
    k3 = complete_graph(3)
    assert is_proper_coloring(k3, Coloring(3, (0, 1, 2)))
    assert not is_proper_coloring(k3, Coloring(3, (0, 0, 1)))


def test_is_proper_coloring_edgeless():
    g = Graph(4, ())
    assert is_proper_coloring(g, Coloring(1, (0, 0, 0, 0)))


def test_is_proper_coloring_domain_mismatch():
    with pytest.raises(ValueError):
        is_proper_coloring(complete_graph(3), Coloring(3, (0, 1)))


def test_is_proper_on_complete_graph_bijective_vs_not():
    k5 = complete_graph(5)
    assert is_proper_coloring(k5, Coloring(5, (4, 2, 0, 1, 3)))
    assert not is_proper_coloring(k5, Coloring(5, (0, 0, 1, 2, 3)))


def test_parse_triangle():
    g = parse_dimacs_col("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
    assert g == complete_graph(3)


def test_parse_dedups_reversed_edges():
    g = parse_dimacs_col("p edge 2 1\ne 1 2\ne 2 1\n")
    assert g.n == 2 and g.e == 1
    g = parse_dimacs_col("p edge 4 3\ne 3 1\ne 2 1\ne 1 3\ne 4 2\ne 1 2\ne 2 4\ne 3 1\n")
    assert g.edges == ((0, 1), (0, 2), (1, 3))


# text -> (message, line) of the ParseError that parse_dimacs_col raises:
# one case for each check, then two texts with two faults each, where the
# first faulty line wins.
_COL_PARSE_ERRORS = {
    "p edge 2 1\ne 1 1\n": ("self-loop at vertex 1", 2),
    "e 1 2\n": ("edge line before p line", 1),
    "p edge 2 1\np edge 2 1\n": ("duplicate p line", 2),
    "p edge 2 1\ne 1 3\n": ("endpoint out of range 1..2 in 'e 1 3'", 2),
    "p edge 2 1\ne 0 1\n": ("endpoint out of range 1..2 in 'e 0 1'", 2),  # vertices are 1-indexed
    "p edge 2 1\nq 1 2\n": ("unrecognized line 'q 1 2'", 2),
    "p edge 2 1\ne 1\n": ("malformed edge line 'e 1'", 2),
    "p edge 2 1\ne 1 x\n": ("non-integer endpoint in 'e 1 x'", 2),
    "c header next\np edge 2\n": ("malformed problem line 'p edge 2'", 2),
    "p col 2 1\n": ("malformed problem line 'p col 2 1'", 1),
    "p edge two 1\n": ("non-integer counts in 'p edge two 1'", 1),
    "p edge -1 0\n": ("negative vertex count -1", 1),
    "pxyz edge 2 1\n": ("unrecognized line 'pxyz edge 2 1'", 1),  # the first field must be p
    "c no header\n\n": ("missing p line", 1),
    "p edge 3 2\ne 1 2\n": ("p line declares 2 edges, file has 1 distinct edges", 1),
    "p edge 2 1\ne \u0661 2\n": ("non-ASCII character", 2),
    "c two faults\np edge 3 1\ne 1 1\ne 1 4\n": ("self-loop at vertex 1", 3),
    "p edge 2 1\nq\np edge 2 1\n": ("unrecognized line 'q'", 2),
    "c x\ne 1 2\np edge 2 1\ne 1 2\n": ("edge line before p line", 2),
    "p edge 4 2\ne\n1 2 e 3 4\n": ("malformed edge line 'e'", 2),  # as many fields as two edge lines
    "p edge 4294967297 0\n": ("vertex count 4294967297 above 2**32", 1),  # Graph's cap, checked on the p line
    "c x\np edge 4294967297 2\ne 1 2\ne 1 x\n": ("vertex count 4294967297 above 2**32", 2),
    # The integer grammar: ASCII digits after at most one `-`, not whatever int() reads.
    "p edge 10 1\ne 1_0 2\n": ("non-integer endpoint in 'e 1_0 2'", 2),
    "p edge 10 1\ne 1 +2\n": ("non-integer endpoint in 'e 1 +2'", 2),
    "p edge 10 1\ne 1 --2\n": ("non-integer endpoint in 'e 1 --2'", 2),
    "p edge +10 1\n": ("non-integer counts in 'p edge +10 1'", 1),
    "p edge 10 1\ne 1 2{}\n": ("non-integer endpoint in 'e 1 2{}'", 2),  # the message is not a format string
}


@pytest.mark.parametrize("text", list(_COL_PARSE_ERRORS))
def test_parse_errors(text):
    message, line = _COL_PARSE_ERRORS[text]
    with pytest.raises(ParseError) as exc:
        parse_dimacs_col(text)
    assert (str(exc.value), exc.value.line) == (f"line {line}: {message}", line)


@pytest.mark.parametrize("declared", [0, 2, 7])
def test_parse_rejects_wrong_declared_edge_count(declared):
    with pytest.raises(ParseError) as exc:
        parse_dimacs_col(f"c comment\np edge 3 {declared}\ne 1 2\n")
    assert exc.value.line == 2


@pytest.mark.parametrize(
    "text, line",
    [
        ("p edge 2 1\ne \u0661 2\n", 2),  # an Arabic-Indic digit one, which int() reads as 1
        (b"c \xff\np edge 2 1\ne 1 2\n", 1),
        (b"p edge 2 1\r\re 1 2\xa0\n", 3),
        ("p edge 2 1\ne 1 2\u2028", 2),
    ],
    ids=["digit", "byte-0xff", "cr-lines", "line-separator"],
)
def test_parse_rejects_non_ascii_on_its_line(text, line):
    with pytest.raises(ParseError, match="non-ASCII") as exc:
        parse_dimacs_col(text)
    assert exc.value.line == line


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as exc:
        parse_dimacs_col("c comment\np edge 2 1\ne 1 1\n")
    assert exc.value.line == 3


def _outcome(read, *args):
    """What a reader returns, or the message and line of the ParseError it raises."""
    try:
        return read(*args)
    except ParseError as exc:
        return str(exc), exc.line


def _read_noting_walker(read, walker_name, owner, *args):
    """`read(*args)`, and whether it handed the text to the line walker."""
    walker = getattr(owner, walker_name)
    with mock.patch.object(owner, walker_name, side_effect=walker) as spy:
        return _outcome(read, *args), spy.called


# Layouts other than the one emit_dimacs_col writes, each with how it is
# read: True if the line walker reads the graph below, False if the bulk
# path does (it takes only single-spaced `e <digits> <digits>` lines after
# a `p edge` line), or the (message, line) of the ParseError the walker
# raises: `+1` and `1_0`, which int() reads, are outside the integer grammar.
@pytest.mark.parametrize(
    "text, read",
    [
        ("p\tedge 10 3\ne\t1 2\ne 1\t10\ne 2 4\n", True),
        ("p edge 10 3\r\ne 1 2\r\ne 1 10\r\ne 2 4\r\n", True),
        ("p edge 10 3\ne 1  2\ne 1 10\ne 2 4\n", True),
        ("p edge 10 3\n  e 1 2\ne 1 10\ne 2 4\n", True),
        (" p edge 10 3\ne 1 2\ne 1 10\ne 2 4\n", True),
        ("p edge 10 3\ne 1 2\ne 1 10\ne 2 4", True),
        ("p edge 10 3\ne 1 2\ne 1 10\ne 2 4\n\n\n", True),
        ("p edge 10 3\ne 1 2\nc between edges\ne 1 10\ne 2 4\n", True),
        ("c before the p line\np edge 10 3\ne 1 2\ne 1 10\ne 2 4\n", True),
        ("p edge 10 3\ne +1 2\ne 1 1_0\ne 2 +4\n", ("line 2: non-integer endpoint in 'e +1 2'", 2)),
        ("p edge 1_0 3\ne 1 2\ne 1 10\ne 2 4\n", ("line 1: non-integer counts in 'p edge 1_0 3'", 1)),
        ("p edge 10 3\ne 2 1\ne 10 1\ne 4 2\n", False),
        ("p edge 10 3\ne 1 2\ne 2 1\ne 1 10\ne 10 1\ne 2 4\ne 4 2\n", False),
    ],
    ids=[
        "tabs", "crlf", "double-space", "leading-spaces", "leading-space-header", "no-final-newline",
        "trailing-blank-lines", "comment-between-edges", "comment-before-header", "plus-and-underscore",
        "underscore-in-header", "reversed-edges", "both-directions",
    ],
)
def test_parse_other_layouts(text, read):
    expected = parse_dimacs_col("p edge 10 3\ne 1 2\ne 1 10\ne 2 4\n")
    assert expected == Graph(10, ((0, 1), (0, 9), (1, 3)))
    outcome = (read, True) if isinstance(read, tuple) else (expected, read)
    for data in (text, text.encode()):
        assert _read_noting_walker(parse_dimacs_col, "_walk_dimacs_col", kcol3.graphs, data) == outcome


def test_emitted_col_is_read_in_bulk():
    """A format change that sends every emitted file to the line walker fails here."""
    gprime, _ = reduce_to_3col(gen_gnp(80, 0.1, 1), 5)
    data = emit_dimacs_col(gprime).encode()
    assert len(data) > 2 * kcol3.graphs._BULK_BLOCK  # three blocks at least
    assert _bulk_columns(data, data.index(b"\n") + 1, b"e", 1) == (gprime.us, gprime.vs)
    assert _read_noting_walker(parse_dimacs_col, "_walk_dimacs_col", kcol3.graphs, data) == (gprime, False)
    # A fault in the last block sends the whole text to the walker, which names the line.
    faulty = data[: data.rindex(b"e ")] + b"e 3 3\n"
    assert _read_noting_walker(parse_dimacs_col, "_walk_dimacs_col", kcol3.graphs, faulty) == (
        (f"line {gprime.e + 1}: self-loop at vertex 3", gprime.e + 1),
        True,
    )


@pytest.mark.parametrize(
    "line",
    [b"e 0 1\n", b"e 1 4294967297\n", b"e  1\n", b"e 1 " + b"9" * 5000 + b"\n"],
    ids=["endpoint-zero", "past-the-width", "empty-field", "past-int-digit-limit"],
)
def test_bulk_columns_give_none_at_the_first_doubt(line):
    """An endpoint 0 or one past the column's width is an OverflowError, an empty field or one past int()'s digit
    limit a ValueError: none of them escapes, in the first block or a later one."""
    for data in (line, b"e 1 2\n" * 12000 + line):  # 72,000 bytes before the line: it is in the second block
        assert _bulk_columns(data, 0, b"e", 1) is None
    with pytest.raises(ParseError, match="^line 12002: "):
        parse_dimacs_col(b"p edge 2 1\n" + b"e 1 2\n" * 12000 + line)


# Insert, delete or replace one character, a few times over: the characters
# are the ones the DIMACS and witness formats give meaning to.
_MUTATION_CHARS = " \t\r\nevcp-+_0123456789"
MUTATIONS = st.lists(
    st.tuples(st.sampled_from("idr"), st.integers(0, 200), st.sampled_from(_MUTATION_CHARS)), max_size=4
)


def mutate(text: str, edits) -> str:
    for op, at, ch in edits:
        at %= len(text) + 1
        text = text[:at] + (ch if op != "d" else "") + text[at + (op != "i") :]
    return text


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.integers(0, 7), st.integers(0, 20), MUTATIONS, st.sampled_from([8, 64, 1 << 16]))
def test_parse_equals_walker_on_mutated_files(n, seed, edits, block):
    text = mutate(emit_dimacs_col(gen_gnp(n, 0.4, seed)), edits)
    with mock.patch.object(kcol3.graphs, "_BULK_BLOCK", block):
        assert _outcome(parse_dimacs_col, text) == _outcome(_walk_dimacs_col, text)


_ARABIC_INDIC_DIGITS = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))


def _respell(field: str, how: int, at: int) -> str:
    """The integer `field` spelled so that Python's int() reads it and the formats' grammar does not: with an `_`
    between two digits (after a leading 0, which int() allows), with Arabic-Indic digits, or with a `+` sign."""
    sign, digits = ("-", "0" + field[1:]) if field.startswith("-") else ("", "0" + field)
    at = 1 + at % (len(digits) - 1)
    spellings = [sign + digits[:at] + "_" + digits[at:], field.translate(_ARABIC_INDIC_DIGITS)]
    if not sign:  # int() refuses `+-1`
        spellings.append("+" + field)
    respelled = spellings[how % len(spellings)]
    assert int(respelled) == int(field)
    return respelled


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.integers(1, 7), st.integers(0, 20), st.integers(0, 999), st.integers(0, 99), st.integers(0, 2),
       st.integers(0, 9))
def test_every_reader_refuses_integers_only_int_reads(n, seed, line_pick, field_pick, how, at):
    """One integer field of an emitted .col, witness and .cnf text, respelled, is a ParseError on its line in every
    reader of that format: the grammar is ASCII digits after at most one `-`, on the bulk path and off it."""
    g = gen_gnp(n, 0.4, seed)
    coloring = Coloring(3, [v * seed % 3 for v in range(n)])
    readers = {
        emit_dimacs_col(g): (parse_dimacs_col, lambda data: parse_dimacs_col(data.decode()), _walk_dimacs_col),
        _emit_witness(coloring): (lambda data: _read_witness(data, n, 3), lambda data: _walk_witness(data, n, 3)),
        emit_dimacs_cnf(encode_col_as_cnf(g, 2)): (parse_dimacs_cnf,),
    }
    for text, reads in readers.items():
        lines = text.splitlines(keepends=True)
        lineno = 1 + line_pick % len(lines)
        parts = lines[lineno - 1].split()
        first = 2 if parts[0] == "p" else parts[0] in ("e", "v")  # the integer fields follow the line's tag(s)
        pick = first + field_pick % (len(parts) - first)
        respelled = _respell(parts[pick], how, at)
        lines[lineno - 1] = " ".join(parts[:pick] + [respelled] + parts[pick + 1 :]) + "\n"
        data = "".join(lines).encode()
        for read in reads:
            with pytest.raises(ParseError) as exc:
                read(data)
            assert exc.value.line == lineno, (text, lineno, respelled)
            assert respelled in str(exc.value) or str(exc.value).endswith("non-ASCII character")


def test_emit_k2():
    assert emit_dimacs_col(complete_graph(2)) == "p edge 2 1\ne 1 2\n"


def test_emit_edgeless_single_vertex():
    assert emit_dimacs_col(Graph(1, ())) == "p edge 1 0\n"


def test_round_trip_identity_on_sweep():
    for seed in range(25):
        g = gen_gnp(2 + seed % 9, (seed % 4) / 4 + 0.1, seed)
        assert parse_dimacs_col(emit_dimacs_col(g)) == g
        assert emit_dimacs_col(parse_dimacs_col(emit_dimacs_col(g))) == emit_dimacs_col(g)


@st.composite
def simple_graphs(draw, max_n=12):
    """Any simple graph on at most max_n vertices, the edgeless and empty ones included."""
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else ())


@settings(derandomize=True, deadline=None, max_examples=200)
@given(simple_graphs(), st.randoms(use_true_random=False))
def test_col_round_trip(g, rng):
    data = emit_dimacs_col(g).encode()
    assert _read_noting_walker(parse_dimacs_col, "_walk_dimacs_col", kcol3.graphs, data) == (g, False)
    # The same graph rewritten: a comment, CRLF line ends, leading spaces,
    # the lines shuffled and half of the edges reversed.
    header, *lines = data.decode().splitlines()
    lines = [" ".join((e, v, u) if rng.random() < 0.5 else (e, u, v)) for e, u, v in map(str.split, lines)]
    rng.shuffle(lines)
    rewrite = "".join(f"  {line}\r\n" for line in ("c rewritten", header, *lines))
    assert _read_noting_walker(parse_dimacs_col, "_walk_dimacs_col", kcol3.graphs, rewrite) == (g, True)


def test_gnp_extremes():
    for n in (1, 5, 20, 50):
        assert gen_gnp(n, 0.0, 1).e == 0
        assert gen_gnp(n, 1.0, 1).e == n * (n - 1) // 2


def test_gnp_deterministic():
    assert gen_gnp(8, 0.5, 42) == gen_gnp(8, 0.5, 42)


def test_gnp_seed_sensitivity():
    assert gen_gnp(12, 0.5, 1) != gen_gnp(12, 0.5, 2)


def test_gnp_reference_sample():
    # frozen output of the documented splitmix64 generator; guards against
    # accidental changes to the stream
    assert gen_gnp(5, 0.5, 7).edges == (
        (0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
    )


def test_gnp_rejects_bad_probability():
    with pytest.raises(ValueError):
        gen_gnp(5, 1.5, 0)


_MASK64 = (1 << 64) - 1


def _splitmix64(state: int):
    """One step of the splitmix64 generator (Steele, Lea & Flood constants)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return state, z


def _reference_gnp_edges(n, p, seed):
    """The scalar generator `gen_gnp` computes lane-parallel: one draw per
    pair in lexicographic (u, v) order, edge iff (draw >> 11)/2^53 < p."""
    state = seed & _MASK64
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            state, z = _splitmix64(state)
            if (z >> 11) * 2.0 ** -53 < p:
                edges.append((u, v))
    return tuple(edges)


def _rows_around(pairs):
    """Every n from the last whose pair count n(n-1)/2 is below `pairs` to
    the first whose count is above it (n has n - 1 pairs more than n - 1)."""
    return [n for n in range(pairs + 2) if -n <= n * (n - 1) // 2 - pairs < n]


# The batch width 105 and twice it are both pair counts (n = 15, 21), so
# that width also gives the n whose pairs fill whole batches exactly.
@pytest.mark.parametrize("lanes", [kcol3.graphs._LANES, 105])
@pytest.mark.parametrize("p", [0.0, 5e-324, 1e-12, 0.0095, 0.5, 1.0])
def test_gnp_matches_scalar_reference_around_batch_edges(lanes, p):
    ns = [0, 1, 2] + _rows_around(lanes) + _rows_around(2 * lanes)
    with mock.patch.object(kcol3.graphs, "_LANES", lanes):
        for n in ns:
            for seed in (0, -1, 2**64 - 1, 2**64, 2**80 + 5):
                assert gen_gnp(n, p, seed).edges == _reference_gnp_edges(n, p, seed), (n, seed)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.integers(0, 150), st.floats(0.0, 1.0), st.integers(-(2**70), 2**70), st.integers(1, 5000))
def test_gnp_matches_scalar_reference(n, p, seed, lanes):
    with mock.patch.object(kcol3.graphs, "_LANES", lanes):
        assert gen_gnp(n, p, seed).edges == _reference_gnp_edges(n, p, seed)


# p at (draw >> 11)/2^53 leaves that draw's pair out; the next float up
# takes it in. Only draws below 2^63 are used: there that float times 2^53
# is not an integer, so rounding it down instead of up would drop the pair.
@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_gnp_threshold_is_exact_at_a_draw(seed):
    state, draws = seed & _MASK64, []
    for _ in range(30 * 29 // 2):
        state, z = _splitmix64(state)
        draws.append(z >> 11)
    for x in [x for x in draws if x < 2**52][:5]:
        for p in (x * 2.0**-53, math.nextafter(x * 2.0**-53, 1.0)):
            assert gen_gnp(30, p, seed).edges == _reference_gnp_edges(30, p, seed), (x, p)


def test_gnp_stream_pinned_at_benchmark_scale():
    # sha256 of the top benchmark row's .col text, as the scalar generator wrote it
    text = emit_dimacs_col(gen_gnp(2000, 0.00197, 0))
    assert hashlib.sha256(text.encode()).hexdigest() == "8a788d9ef223d2dc9c117b9cf409b3516aeb6cfe31cca6401bd4f3c44038d060"


def test_gnp_rejects_negative_n_before_drawing():
    with pytest.raises(ValueError, match=r"^negative vertex count -3$"):
        gen_gnp(-3, 0.5, 0)
    # n(n-1)/2 is 5*10^17 here: a single batch drawn fails the test, not hangs it
    with mock.patch.object(kcol3.graphs, "compress", side_effect=AssertionError("drew a batch")):
        with pytest.raises(ValueError, match=r"^negative vertex count -1000000000$"):
            gen_gnp(-(10**9), 0.5, 0)


def test_complete_graph_sizes():
    assert complete_graph(1).e == 0
    assert complete_graph(3).e == 3
    assert complete_graph(5).e == 10


def test_coloring_needs_a_positive_palette():
    with pytest.raises(ValueError, match="^palette size must be positive, got 0$"):
        Coloring(0, ())


def test_named_graphs_refuse_too_few_vertices():
    with pytest.raises(ValueError, match="^need at least one vertex$"):
        complete_graph(0)
