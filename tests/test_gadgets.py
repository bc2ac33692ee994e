import sys
from itertools import product

import pytest

from kcol3 import (
    ConstructionError,
    ExtensionError,
    GadgetInstance,
    GraphBuilder,
    attach_chain_gadget,
    extend_coloring,
    semantics_by_brute_force,
)


def boundary_characterization(boundary):
    """Independent statement of the gadget's semantics: a boundary coloring
    is non-extendable exactly when all inputs share one color and the
    output differs from it."""
    inputs, z = boundary[:-1], boundary[-1]
    return not (len(set(inputs)) == 1 and z != inputs[0])


def test_base_gadget_wiring():
    b = GraphBuilder(3)
    inst = attach_chain_gadget(b, [0, 1], 2)
    assert list(inst.internal) == [3, 4]
    assert set(inst.added_edges) == {(0, 3), (1, 4), (3, 4), (2, 3), (2, 4)}


def test_base_gadget_deltas():
    b = GraphBuilder(5)
    before_n, before_e = b.n, len(b.edges)
    attach_chain_gadget(b, [1, 3], 4)
    assert (b.n - before_n, len(b.edges) - before_e) == (2, 5)


def test_base_gadget_rejects_repeated_boundary():
    b = GraphBuilder(3)
    with pytest.raises(ConstructionError):
        attach_chain_gadget(b, [0, 0], 2)


def test_base_gadget_rejects_missing_vertex():
    b = GraphBuilder(2)
    with pytest.raises(ConstructionError):
        attach_chain_gadget(b, [0, 1], 5)


@pytest.mark.parametrize("k", range(2, 13))
def test_chain_gadget_deltas(k):
    b = GraphBuilder(k + 1)
    inst = attach_chain_gadget(b, list(range(k)), k)
    assert inst.internal_len == 3 * k - 4
    assert len(inst.added_edges) == 5 * (k - 1)
    # within the crude 3k / 5k allowances
    assert inst.internal_len <= 3 * k
    assert len(inst.added_edges) <= 5 * k


def _linked_edges(boundary, start):
    """The chain's wiring, link by link: each link but the last allocates
    its output y, then its a and b; the last link outputs z."""
    *inputs, z = boundary
    prev, pos, edges = inputs[0], start, []
    for i in range(1, len(inputs)):
        if i == len(inputs) - 1:
            out = z
        else:
            out, pos = pos, pos + 1
        a, b = pos, pos + 1
        pos += 2
        edges += ((prev, a), (inputs[i], b), (a, b), (out, a), (out, b))
        prev = out
    return tuple(edges)


@pytest.mark.parametrize("k", range(2, 9))
def test_added_edges_equal_link_by_link_wiring(k):
    boundary = (*range(10, 10 + k), 1)
    inst = GadgetInstance(boundary, 40)
    assert inst.added_edges == _linked_edges(boundary, 40)
    assert all(u < v for u, v in inst.added_edges)


def test_chain_gadget_rejects_arity_one():
    b = GraphBuilder(2)
    with pytest.raises(ConstructionError):
        attach_chain_gadget(b, [0], 1)


def test_chain_gadget_rejects_repeats():
    b = GraphBuilder(4)
    with pytest.raises(ConstructionError):
        attach_chain_gadget(b, [0, 1, 0], 3)


def test_semantics_k2_spot_values():
    table = semantics_by_brute_force(2).table
    assert table[(0, 0, 0)] is True  # same inputs, matching output
    assert table[(0, 0, 1)] is False  # same inputs, differing output
    for z in (0, 1, 2):
        assert table[(0, 1, z)] is True  # mixed inputs never constrain z


@pytest.mark.parametrize("k", range(2, 7))
def test_semantics_biconditional(k):
    sem = semantics_by_brute_force(k)
    assert len(sem.table) == 3 ** (k + 1)
    for boundary, extendable in sem.table.items():
        assert extendable == boundary_characterization(boundary)


def test_semantics_rejects_out_of_range():
    with pytest.raises(ValueError):
        semantics_by_brute_force(1)
    with pytest.raises(ValueError):
        semantics_by_brute_force(7)


def test_extend_base_gadget_forced_case():
    b = GraphBuilder(3)
    inst = attach_chain_gadget(b, [0, 1], 2)
    ext = extend_coloring(inst, (0, 0, 0))
    a, bb = inst.internal
    assert {ext[a], ext[bb]} == {1, 2}
    # lowest-color-first in allocation order
    assert ext[a] == 1 and ext[bb] == 2


def test_extend_raises_on_non_extendable():
    b = GraphBuilder(3)
    inst = attach_chain_gadget(b, [0, 1], 2)
    with pytest.raises(ExtensionError):
        extend_coloring(inst, (0, 0, 1))


@pytest.mark.parametrize(
    "colors, message",
    [
        ((0, 1), "boundary coloring arity mismatch"),
        ((0, 1, 2, 0), "boundary coloring arity mismatch"),
        ((0, 1, 3), r"boundary colors must be in 0\.\.2"),
        ((-1, 1, 2), r"boundary colors must be in 0\.\.2"),
    ],
)
def test_extend_rejects_a_malformed_boundary_coloring(colors, message):
    inst = attach_chain_gadget(GraphBuilder(3), [0, 1], 2)
    with pytest.raises(ValueError, match=message):
        extend_coloring(inst, colors)


def test_extend_is_deterministic():
    b = GraphBuilder(3)
    inst = attach_chain_gadget(b, [0, 1], 2)
    assert extend_coloring(inst, (0, 1, 2)) == extend_coloring(inst, (0, 1, 2))


@pytest.mark.parametrize("k", range(2, 7))
def test_extend_matches_semantics_and_is_proper(k):
    b = GraphBuilder(k + 1)
    inst = attach_chain_gadget(b, list(range(k)), k)
    sem = semantics_by_brute_force(k)
    for boundary in product((0, 1, 2), repeat=k + 1):
        if not sem.table[boundary]:
            with pytest.raises(ExtensionError):
                extend_coloring(inst, boundary)
            continue
        ext = extend_coloring(inst, boundary)
        colors = dict(zip(inst.boundary, boundary))
        colors.update(ext)
        assert all(colors[u] != colors[v] for u, v in inst.added_edges)


def test_extension_of_a_long_chain_needs_no_recursion():
    arity = 400
    inst = GadgetInstance(tuple(range(arity + 1)), arity + 1)
    saved = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(1000)
        ext = extend_coloring(inst, (0,) * (arity + 1))
    finally:
        sys.setrecursionlimit(saved)
    assert sorted(ext) == list(inst.internal)
    colors = dict.fromkeys(inst.boundary, 0)
    colors.update(ext)
    assert all(colors[u] != colors[v] for u, v in inst.added_edges)


def test_builder_rejects_a_self_loop_and_an_out_of_range_edge():
    builder = GraphBuilder(2)
    with pytest.raises(ValueError, match=r"^self-loop at 1$"):
        builder.add_edge(1, 1)
    with pytest.raises(ValueError, match=r"^edge \(0,2\) out of range$"):
        builder.add_edge(0, 2)
    assert builder.edges == set()
