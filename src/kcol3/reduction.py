"""Direct reduction from k-colorability to 3-colorability.

Construction, in fixed vertex-numbering order:

1. a palette triangle T, F, R (vertices 0, 1, 2);
2. indicator vertices v_ij (row-major over source vertex i, color j),
   each wired to R so it can only take the T or F color;
3. per source vertex, a chain gadget forcing at least one indicator in
   its row away from F ("at least one color");
4. per source vertex and color pair, a base gadget into F ("at most one");
5. per source edge and color, a base gadget into F (no shared color
   across an edge).

The ReductionMap records enough bookkeeping to rebuild the output graph
and to translate coloring witnesses in both directions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import InvariantViolation
from .gadgets import GadgetInstance, GraphBuilder, attach_base_gadget, attach_chain_gadget, extend_coloring
from .graphs import Coloring, Graph, is_proper_coloring

__all__ = [
    "ReductionMap",
    "SizeReport",
    "reduce_to_3col",
    "lift_witness",
    "project_witness",
    "size_report",
    "formula_vertices",
    "formula_edges",
]


@dataclass(frozen=True)
class ReductionMap:
    """Bookkeeping from the reduced graph back to the source graph."""

    k: int
    n: int
    e: int
    t_vertex: int
    f_vertex: int
    r_vertex: int
    indicator: tuple[tuple[int, ...], ...]  # [i][j] -> vertex of v_ij
    gadget_log: tuple[tuple[str, GadgetInstance], ...]

    @property
    def total_vertices(self) -> int:
        return 3 + self.n * self.k + sum(inst.internal_len for _, inst in self.gadget_log)

    def reconstruct_graph(self) -> Graph:
        """Rebuild the reduced graph from the map alone."""
        edges = [(self.t_vertex, self.f_vertex), (self.t_vertex, self.r_vertex), (self.f_vertex, self.r_vertex)]
        for row in self.indicator:
            edges.extend((v, self.r_vertex) for v in row)
        for _, inst in self.gadget_log:
            edges.extend(inst.added_edges)
        return Graph(self.total_vertices, tuple(edges))

    def to_json(self) -> str:
        doc = {
            "k": self.k,
            "n": self.n,
            "e": self.e,
            "t": self.t_vertex,
            "f": self.f_vertex,
            "r": self.r_vertex,
            "indicator": [list(row) for row in self.indicator],
            "gadgets": [
                {
                    "tag": tag,
                    "boundary": list(inst.boundary),
                    "internal_start": inst.internal_start,
                    "internal_len": inst.internal_len,
                }
                for tag, inst in self.gadget_log
            ],
        }
        return json.dumps(doc, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ReductionMap":
        doc = json.loads(text)
        try:
            log = []
            for rec in doc["gadgets"]:
                boundary = tuple(rec["boundary"])
                # Re-derive the wiring from the deterministic construction.
                inst = _rebuild_instance(boundary, rec["internal_start"], rec["internal_len"])
                log.append((rec["tag"], inst))
            return cls(
                k=doc["k"],
                n=doc["n"],
                e=doc["e"],
                t_vertex=doc["t"],
                f_vertex=doc["f"],
                r_vertex=doc["r"],
                indicator=tuple(tuple(row) for row in doc["indicator"]),
                gadget_log=tuple(log),
            )
        except KeyError as exc:
            raise ValueError(f"reduction map is missing field {exc.args[0]!r}") from None


def _rebuild_instance(boundary: tuple[int, ...], start: int, length: int) -> GadgetInstance:
    """Reconstruct a gadget's edge list from its boundary and internal range.

    The chain layout is deterministic (y_i, a_i, b_i triples, final a, b),
    so the edges are a pure function of the recorded indices.
    """
    k = len(boundary) - 1
    inputs, z = boundary[:-1], boundary[-1]
    if length != 3 * k - 4:
        raise InvariantViolation(f"gadget internal length {length} inconsistent with arity {k}")
    edges = []
    prev = inputs[0]
    pos = start
    for i in range(1, k):
        if i == k - 1:
            out = z
        else:
            out = pos
            pos += 1
        a, b = pos, pos + 1
        pos += 2
        edges.extend(
            (u, v) if u < v else (v, u)
            for u, v in ((prev, a), (inputs[i], b), (a, b), (a, out), (b, out))
        )
        prev = out
    return GadgetInstance(boundary, start, length, tuple(edges))


def reduce_to_3col(g: Graph, k: int) -> tuple[Graph, ReductionMap]:
    """Build the 3-colorability instance for (g, k) with full bookkeeping.

    Deterministic: identical inputs give identical vertex numbering.
    """
    if k < 2:
        raise ValueError(f"palette size must be at least 2, got {k}")
    b = GraphBuilder()
    t, f, r = b.add_vertex(), b.add_vertex(), b.add_vertex()
    b.add_edge(t, f)
    b.add_edge(t, r)
    b.add_edge(f, r)
    indicator = []
    for _ in range(g.n):
        row = tuple(b.add_vertex() for _ in range(k))
        for v in row:
            b.add_edge(v, r)
        indicator.append(row)
    log: list[tuple[str, GadgetInstance]] = []
    for i in range(g.n):
        inst = attach_chain_gadget(b, list(indicator[i]), t)
        log.append((f"at-least-one:{i}", inst))
    for i in range(g.n):
        for j1 in range(k):
            for j2 in range(j1 + 1, k):
                inst = attach_base_gadget(b, indicator[i][j1], indicator[i][j2], f)
                log.append((f"at-most-one:{i}:{j1}:{j2}", inst))
    for u, v in g.edges:
        for c in range(k):
            inst = attach_base_gadget(b, indicator[u][c], indicator[v][c], f)
            log.append((f"edge-conflict:{u}:{v}:{c}", inst))
    rmap = ReductionMap(k, g.n, g.e, t, f, r, tuple(indicator), tuple(log))
    return b.to_graph(), rmap


def lift_witness(g: Graph, c: Coloring, rmap: ReductionMap) -> Coloring:
    """Translate a proper k-coloring of g into a proper 3-coloring of the
    reduced graph: T, F, R get colors 0, 1, 2; indicator v_ij copies T's
    color iff c(i) = j, else F's; gadget internals are filled by the
    deterministic extension search."""
    if c.palette_size != rmap.k:
        raise ValueError(f"witness palette {c.palette_size} does not match reduction k={rmap.k}")
    if not is_proper_coloring(g, c):
        raise ValueError("input coloring is not a proper coloring of the source graph")
    assign = [-1] * rmap.total_vertices
    assign[rmap.t_vertex], assign[rmap.f_vertex], assign[rmap.r_vertex] = 0, 1, 2
    for i, row in enumerate(rmap.indicator):
        for j, v in enumerate(row):
            assign[v] = 0 if c[i] == j else 1
    for _, inst in rmap.gadget_log:
        boundary_colors = tuple(assign[v] for v in inst.boundary)
        for v, col in extend_coloring(inst, boundary_colors).items():
            assign[v] = col
    lifted = Coloring(3, tuple(assign))
    if not is_proper_coloring(rmap.reconstruct_graph(), lifted):
        raise InvariantViolation("lifted coloring is not proper; construction bug")
    return lifted


def project_witness(rmap: ReductionMap, c3: Coloring, g: Graph | None = None) -> Coloring:
    """Read a proper 3-coloring of the reduced graph back to a k-coloring
    of the source: vertex i gets the unique j whose indicator shares T's
    color."""
    if c3.palette_size != 3:
        raise ValueError("projection expects a 3-color witness")
    if not is_proper_coloring(rmap.reconstruct_graph(), c3):
        raise ValueError("input is not a proper 3-coloring of the reduced graph")
    t_color = c3[rmap.t_vertex]
    assign = []
    for i, row in enumerate(rmap.indicator):
        hits = [j for j, v in enumerate(row) if c3[v] == t_color]
        if len(hits) != 1:
            raise InvariantViolation(f"source vertex {i} has {len(hits)} indicators colored T")
        assign.append(hits[0])
    projected = Coloring(rmap.k, tuple(assign))
    if g is not None and not is_proper_coloring(g, projected):
        raise InvariantViolation("projected coloring is not proper; construction bug")
    return projected


def formula_vertices(n: int, e: int, k: int) -> int:
    """Closed-form vertex count: 3 + n(k^2 + 3k - 4) + 2ke."""
    return 3 + n * (k * k + 3 * k - 4) + 2 * k * e


def formula_edges(n: int, e: int, k: int) -> int:
    """Closed-form edge count: 3 + n(2.5k^2 + 3.5k - 5) + 5ke."""
    return 3 + n * (5 * k * k + 7 * k - 10) // 2 + 5 * k * e


@dataclass(frozen=True)
class SizeReport:
    """Exact output sizes vs the closed forms and the crude upper bounds
    2k^2 n + 2ke (vertices) and 3k^2 n + 2ke (edges).

    The crude bounds do not hold on every instance (the edge bound fails
    whenever e >= 1, the vertex bound for small k); satisfaction is
    reported per instance rather than assumed.
    """

    n: int
    e: int
    k: int
    vertices: int
    edges: int
    formula_vertices: int
    formula_edges: int
    crude_bound_vertices: int
    crude_bound_edges: int
    vertex_bound_holds: bool
    edge_bound_holds: bool


def size_report(g: Graph, k: int) -> SizeReport:
    gprime, _ = reduce_to_3col(g, k)
    n, e = g.n, g.e
    fv = formula_vertices(n, e, k)
    fe = formula_edges(n, e, k)
    if (gprime.n, gprime.e) != (fv, fe):
        raise InvariantViolation(
            f"constructed sizes ({gprime.n}, {gprime.e}) differ from closed forms ({fv}, {fe})"
        )
    bound_v = 2 * k * k * n + 2 * k * e
    bound_e = 3 * k * k * n + 2 * k * e
    return SizeReport(
        n=n,
        e=e,
        k=k,
        vertices=gprime.n,
        edges=gprime.e,
        formula_vertices=fv,
        formula_edges=fe,
        crude_bound_vertices=bound_v,
        crude_bound_edges=bound_e,
        vertex_bound_holds=gprime.n <= bound_v,
        edge_bound_holds=gprime.e <= bound_e,
    )
