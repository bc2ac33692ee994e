"""Color-copying gadget builders and their exhaustive semantics oracle.

The base gadget joins two input vertices x, y and an output vertex z
through two fresh internal vertices a (touching x) and b (touching y):
edges x-a, y-b, a-b, a-z, b-z. In any proper 3-coloring, if x and y share
a color then z is forced to that same color; every other boundary
coloring extends. The chained gadget propagates the same constraint
across k inputs by composing base gadgets left to right.
"""

from __future__ import annotations

from itertools import product

from .errors import ConstructionError, ExtensionError
from .graphs import Graph, _Frozen

__all__ = [
    "GraphBuilder",
    "GadgetInstance",
    "GadgetSemantics",
    "attach_chain_gadget",
    "semantics_by_brute_force",
    "extend_coloring",
]


class GraphBuilder:
    """Mutable graph under construction; single-writer."""

    def __init__(self, n: int = 0):
        self.n = n
        self.edges: set[tuple[int, int]] = set()

    def add_vertex(self) -> int:
        v = self.n
        self.n += 1
        return v

    def add_edge(self, u: int, v: int) -> tuple[int, int]:
        if u == v:
            raise ValueError(f"self-loop at {u}")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"edge ({u},{v}) out of range")
        edge = (u, v) if u < v else (v, u)
        self.edges.add(edge)
        return edge

    def to_graph(self) -> Graph:
        return Graph(self.n, tuple(self.edges))


class GadgetInstance(_Frozen):
    """One chain gadget: its internals are numbered from `internal_start`,
    above every boundary vertex, per link as y_i (the last link outputs z
    instead), a_i, b_i. Everything else is derived from these two fields."""

    boundary: tuple[int, ...]  # inputs x_1..x_k, then output z
    internal_start: int

    @property
    def arity(self) -> int:
        return len(self.boundary) - 1

    @property
    def internal_len(self) -> int:
        return 3 * self.arity - 4

    @property
    def internal(self) -> range:
        return range(self.internal_start, self.internal_start + self.internal_len)

    @property
    def added_edges(self) -> tuple[tuple[int, int], ...]:
        """The 5(arity - 1) edges, link by link, each pair (lower, higher)."""
        return tuple(zip(*_link_columns(*_chain_links(((self.boundary, self.internal_start),)))))


def _chain_links(chains) -> tuple[list[int], list[int], list[int], list[int]]:
    """Columns (previous output, input, output, a) of every link of the
    chain gadgets given as (boundary, internal_start); b is a + 1. Every
    link but a chain's last outputs a fresh y numbered just below its a and
    b, so every edge `_link_columns` makes is (lower, higher)."""
    prev, inputs, out, a = [], [], [], []
    for boundary, start in chains:
        ys = range(start, start + 3 * len(boundary) - 9, 3)
        prev += (boundary[0], *ys)
        inputs += boundary[1:-1]
        out += (*ys, boundary[-1])
        a += (*range(start + 1, ys.stop, 3), ys.stop)
    return prev, inputs, out, a


def _link_columns(prev, inputs, out, a) -> tuple[list[int], list[int]]:
    """Endpoint columns of the five edges (prev, a), (input, b), (a, b),
    (output, a), (output, b) of every link, link by link, from the links'
    columns (sequences of one length); b is a + 1."""
    b = [v + 1 for v in a]
    us, vs = [0] * (5 * len(a)), [0] * (5 * len(a))
    us[0::5], us[1::5], us[2::5], us[3::5], us[4::5] = prev, inputs, a, out, out
    vs[0::5], vs[1::5], vs[2::5], vs[3::5], vs[4::5] = a, b, b, a, b
    return us, vs


class GadgetSemantics(_Frozen):
    """Exhaustive table: boundary coloring -> does a proper extension exist."""

    arity: int
    table: dict[tuple[int, ...], bool]


def _check_boundary(builder: GraphBuilder, vertices: list[int]):
    for v in vertices:
        if not (0 <= v < builder.n):
            raise ConstructionError(f"boundary vertex {v} does not exist")
    if len(set(vertices)) != len(vertices):
        raise ConstructionError(f"boundary vertices must be distinct, got {vertices}")


def attach_chain_gadget(builder: GraphBuilder, inputs: list[int], z: int) -> GadgetInstance:
    """Attach the k-input chain; +3k-4 vertices, +5(k-1) edges.

    For k = 2 this is exactly the base gadget. For k > 2 the chain runs
    left to right through intermediates y_1..y_{k-2}, each intermediate
    allocated just before the sub-gadget that outputs it.
    """
    k = len(inputs)
    if k < 2:
        raise ConstructionError(f"chain gadget needs at least 2 inputs, got {k}")
    _check_boundary(builder, list(inputs) + [z])
    instance = GadgetInstance((*inputs, z), builder.n)
    builder.n += instance.internal_len
    builder.edges.update(instance.added_edges)
    return instance


def _extension_search(instance: GadgetInstance, boundary_colors: tuple[int, ...]):
    """Deterministic backtracking over internal vertices in allocation
    order, lowest color first, on an explicit position counter so a long
    chain needs no recursion. Returns {vertex: color} or None."""
    if len(boundary_colors) != len(instance.boundary):
        raise ValueError("boundary coloring arity mismatch")
    if any(c not in (0, 1, 2) for c in boundary_colors):
        raise ValueError("boundary colors must be in 0..2")
    colors = dict(zip(instance.boundary, boundary_colors))
    order = list(instance.internal)
    neighbors: dict[int, list[int]] = {v: [] for v in order}
    for u, v in instance.added_edges:
        if u in neighbors:
            neighbors[u].append(v)
        if v in neighbors:
            neighbors[v].append(u)

    tried = [-1] * len(order)  # color at each position, -1 before the first try
    i = 0
    while i < len(order):
        v = order[i]
        colors.pop(v, None)
        c = tried[i] + 1
        while c < 3 and any(colors.get(w) == c for w in neighbors[v]):
            c += 1
        if c < 3:
            colors[v] = tried[i] = c
            i += 1
        elif i == 0:
            return None
        else:
            tried[i] = -1
            i -= 1
    return {v: colors[v] for v in order}


def extend_coloring(instance: GadgetInstance, boundary_colors: tuple[int, ...]) -> dict[int, int]:
    """Proper 3-coloring of the gadget internals for an extendable boundary."""
    ext = _extension_search(instance, boundary_colors)
    if ext is None:
        raise ExtensionError(
            f"boundary coloring {boundary_colors} of gadget at {instance.boundary} is not extendable"
        )
    return ext


def semantics_by_brute_force(k: int) -> GadgetSemantics:
    """Exhaustively decide extendability of every boundary coloring of the
    k-input chain gadget. Supported for 2 <= k <= 6."""
    if not (2 <= k <= 6):
        raise ValueError(f"arity {k} outside supported range 2..6")
    instance = GadgetInstance(tuple(range(k + 1)), k + 1)
    table = {
        boundary: _extension_search(instance, boundary) is not None
        for boundary in product((0, 1, 2), repeat=k + 1)
    }
    return GadgetSemantics(k, table)
