"""Direct reduction from k-colorability to 3-colorability.

G' is a pure function of (k, n, source edges). Its vertices are numbered
in this fixed order:

1. a palette triangle T, F, R (vertices 0, 1, 2);
2. indicator vertices v_ij = 3 + ik + j (row-major over source vertex i,
   color j), each wired to R so it can only take the T or F color;
3. per source vertex, a chain gadget forcing at least one indicator in
   its row away from F ("at least one color");
4. per source vertex and color pair, a base gadget into F ("at most one");
5. per source edge and color, a base gadget into F (no shared color
   across an edge).

Each gadget's internals follow the previous gadget's. A ReductionMap stores
(k, n, source edges) and derives the layout from them on demand: the n
chains one by one, and blocks 4 and 5, whose gadgets are all base gadgets
(x, y, F) with two internals each, as two columns filled by strided slices.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, repeat
from operator import add, eq

from .errors import InvariantViolation
from .gadgets import GadgetInstance, _chain_links, _link_columns, extend_coloring
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


# One gadget record of the sidecar, as `json.dumps(..., indent=2)` lays it out.
_GADGET_RECORD = (
    '    {\n      "tag": "%s",\n      "boundary": [\n        %s\n      ],\n'
    '      "internal_start": %d,\n      "internal_len": %d\n    }'
)


@dataclass(frozen=True)
class ReductionMap:
    """The reduction of (k, n, edges), where `edges` is a source graph's
    canonical edge tuple (`Graph.edges`). Every vertex of G' is derived
    from these three fields."""

    k: int
    n: int
    edges: tuple[tuple[int, int], ...]

    t_vertex = 0
    f_vertex = 1
    r_vertex = 2

    @property
    def e(self) -> int:
        return len(self.edges)

    @property
    def indicator(self) -> tuple[range, ...]:
        """[i][j] -> vertex of v_ij."""
        k = self.k
        return tuple(range(3 + i * k, 3 + (i + 1) * k) for i in range(self.n))

    def _chains(self):
        """(boundary, internal_start) of each at-least-one chain: a row of
        indicators into T, with 3k - 4 internals."""
        start, step = 3 + self.n * self.k, 3 * self.k - 4
        return zip(((*row, self.t_vertex) for row in self.indicator), range(start, start + self.n * step, step))

    def _base_gadgets(self) -> tuple[int, list[int], list[int]]:
        """(start, xs, ys): the i-th at-most-one or edge-conflict gadget is
        (xs[i], ys[i], F), with internals start + 2i and start + 2i + 1."""
        k, n, pairs = self.k, self.n, self.k * (self.k - 1) // 2
        ind = list(range(3, 3 + n * k))  # one int object per indicator, shared by both columns
        xs, ys = [0] * (n * pairs + k * self.e), [0] * (n * pairs + k * self.e)
        for p, (j1, j2) in enumerate(combinations(range(k), 2) if n else ()):  # no k^2 walk when n = 0
            xs[p : n * pairs : pairs] = ind[j1::k]
            ys[p : n * pairs : pairs] = ind[j2::k]
        if self.edges:
            us, vs = [k * u for u, _ in self.edges], [k * v for _, v in self.edges]
            for c in range(k):
                xs[n * pairs + c :: k] = map(ind.__getitem__, map(c.__add__, us))
                ys[n * pairs + c :: k] = map(ind.__getitem__, map(c.__add__, vs))
        return 3 + n * (4 * k - 4), xs, ys

    def _boundaries(self):
        """(boundary, internal_start) for every gadget in construction order."""
        start, xs, ys = self._base_gadgets()
        return chain(self._chains(), zip(zip(xs, ys, repeat(self.f_vertex)), range(start, start + 2 * len(xs), 2)))

    def _tags(self):
        """The sidecar tag of every gadget, in the order of `_boundaries`."""
        return chain(
            (f"at-least-one:{i}" for i in range(self.n)),
            (f"at-most-one:{i}:{j1}:{j2}" for i in range(self.n) for j1, j2 in combinations(range(self.k), 2)),
            (f"edge-conflict:{u}:{v}:{c}" for u, v in self.edges for c in range(self.k)),
        )

    @cached_property
    def _columns(self) -> tuple[list[int], list[int]]:
        """G' as two endpoint columns of (lower, higher) edges: palette triangle, R to the indicators, then the
        gadget wiring. Built once per map and shared by its callers, which must not mutate the lists."""
        t, f, r, m = self.t_vertex, self.f_vertex, self.r_vertex, self.n * self.k
        prev, inputs, out, a = _chain_links(self._chains())
        start, xs, ys = self._base_gadgets()
        a += range(start, start + 2 * len(xs), 2)
        us, vs = _link_columns(prev + xs, inputs + ys, out + [f] * len(xs), a)
        return [t, t, f, *repeat(r, m), *us], [f, r, r, *range(3, 3 + m), *vs]

    def reconstruct_graph(self) -> Graph:
        """Rebuild the reduced graph from the map alone. Every vertex of G'
        has an edge, so the largest higher endpoint + 1 is the layout's own
        vertex count, which reduce_to_3col checks against the closed form."""
        us, vs = self._columns
        return Graph(max(vs) + 1, zip(us, vs))

    def _header(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "e": self.e,
            "t": self.t_vertex,
            "f": self.f_vertex,
            "r": self.r_vertex,
            "indicator": [list(row) for row in self.indicator],
        }

    def to_json(self) -> str:
        """`json.dumps` of the header with the gadget records appended, at
        indent 2 and with a final newline; each record is written from a
        template instead of a dict."""
        records = ",\n".join(
            _GADGET_RECORD % (tag, ",\n        ".join(map(str, boundary)), start, 3 * len(boundary) - 7)
            for tag, (boundary, start) in zip(self._tags(), self._boundaries())
        )
        head = json.dumps(self._header(), indent=2)[: -len("\n}")]
        gadgets = f"[\n{records}\n  ]" if records else "[]"
        return f'{head},\n  "gadgets": {gadgets}\n}}\n'

    @classmethod
    def from_json(cls, text: str) -> "ReductionMap":
        """Read (k, n, source edges) from a sidecar, then require the
        sidecar to equal the one that reduction writes: its header, then
        each gadget record in one pass. Any other document raises
        ValueError."""
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("reduction map must be a JSON object")
        try:
            gadgets, indicator, k, n, e = (doc[name] for name in ("gadgets", "indicator", "k", "n", "e"))
        except KeyError as exc:
            raise ValueError(f"reduction map is missing field {exc.args[0]!r}") from None
        if not (all(type(x) is int for x in (k, n, e)) and isinstance(indicator, list) and isinstance(gadgets, list)):
            raise ValueError("reduction map needs integer k, n, e and list indicator, gadgets")
        # Checked before anything is derived, so that the derived map is no
        # larger than the parsed document.
        first_edge = n + n * (k * (k - 1) // 2)
        if k < 2 or n < 0 or e < 0 or len(indicator) != n or len(gadgets) != first_edge + k * e:
            raise ValueError(f"reduction map lists do not have the lengths k={k}, n={n}, e={e} give")
        try:  # tags "edge-conflict:u:v:c"; the c = 0 record of each edge
            edges = tuple((int(u), int(v)) for _, u, v, _ in (rec["tag"].split(":") for rec in gadgets[first_edge::k]))
        except (TypeError, KeyError, AttributeError, ValueError):
            raise ValueError("reduction map has a malformed edge-conflict record") from None
        if Graph(n, edges).edges != edges:
            raise ValueError("reduction map source edges are not sorted, distinct pairs (u < v)")
        rmap = cls(k, n, edges)
        records = (
            dict(tag=tag, boundary=list(boundary), internal_start=start, internal_len=3 * len(boundary) - 7)
            for tag, (boundary, start) in zip(rmap._tags(), rmap._boundaries())
        )
        # The gadgets list is compared with itself here and record by record below.
        if doc != {**rmap._header(), "gadgets": gadgets} or not all(map(eq, gadgets, records)):
            raise ValueError(f"reduction map differs from the reduction of its k={k}, n={n} and source edges")
        return rmap


def reduce_to_3col(g: Graph, k: int) -> tuple[Graph, ReductionMap]:
    """Build the 3-colorability instance for (g, k) with full bookkeeping.

    Deterministic: identical inputs give identical vertex numbering.
    """
    if k < 2:
        raise ValueError(f"palette size must be at least 2, got {k}")
    rmap = ReductionMap(k, g.n, g.edges)
    gprime = rmap.reconstruct_graph()
    fv, fe = formula_vertices(g.n, g.e, k), formula_edges(g.n, g.e, k)
    if (gprime.n, gprime.e) != (fv, fe):
        raise InvariantViolation(f"constructed sizes ({gprime.n}, {gprime.e}) differ from closed forms ({fv}, {fe})")
    return gprime, rmap


def _is_proper_on_gprime(rmap: ReductionMap, c: Coloring) -> bool:
    """`is_proper_coloring` on G', run over the map's edge columns, not a built Graph."""
    a, n = c.assignment, formula_vertices(rmap.n, rmap.e, rmap.k)
    if len(a) != n:
        raise ValueError(f"coloring covers {len(a)} vertices, reduced graph has {n}")
    us, vs = rmap._columns
    return all(a[u] != a[v] for u, v in zip(us, vs))


def lift_witness(g: Graph, c: Coloring, rmap: ReductionMap) -> Coloring:
    """Translate a proper k-coloring of g into a proper 3-coloring of the
    reduced graph: T, F, R get colors 0, 1, 2; indicator v_ij copies T's
    color iff c(i) = j, else F's; gadget internals are filled by the
    deterministic extension search, once per distinct boundary coloring."""
    if (g.n, g.edges) != (rmap.n, rmap.edges):
        raise ValueError("graph is not the reduction map's source graph")
    if c.palette_size != rmap.k:
        raise ValueError(f"witness palette {c.palette_size} does not match reduction k={rmap.k}")
    if not is_proper_coloring(g, c):
        raise ValueError("input coloring is not a proper coloring of the source graph")
    assign = [-1] * formula_vertices(rmap.n, rmap.e, rmap.k)
    assign[rmap.t_vertex], assign[rmap.f_vertex], assign[rmap.r_vertex] = 0, 1, 2
    for row, color in zip(rmap.indicator, c.assignment):
        assign[row.start : row.stop] = [1] * rmap.k
        assign[row[color]] = 0
    # An extension depends only on the arity and the boundary colors,
    # both of which the key holds.
    extensions: dict[tuple[int, ...], tuple[int, ...]] = {}
    for boundary, start in rmap._chains():
        colors = tuple(map(assign.__getitem__, boundary))
        fill = extensions.get(colors)
        if fill is None:
            fill = extensions[colors] = tuple(extend_coloring(GadgetInstance(boundary, start), colors).values())
        assign[start : start + len(fill)] = fill
    # A base gadget's output is F, so 3 * color(x) + color(y) keys its fill.
    start, xs, ys = rmap._base_gadgets()
    keys = list(map(add, map((3).__mul__, map(assign.__getitem__, xs)), map(assign.__getitem__, ys)))
    template, a_fill, b_fill = GadgetInstance((0, 1, 2), 3), {}, {}
    for key in set(keys):
        a_fill[key], b_fill[key] = extend_coloring(template, (key // 3, key % 3, assign[rmap.f_vertex])).values()
    assign[start::2] = map(a_fill.__getitem__, keys)
    assign[start + 1 :: 2] = map(b_fill.__getitem__, keys)
    lifted = Coloring(3, tuple(assign))
    if not _is_proper_on_gprime(rmap, lifted):
        raise InvariantViolation("lifted coloring is not proper; construction bug")
    return lifted


def project_witness(rmap: ReductionMap, c3: Coloring, g: Graph | None = None) -> Coloring:
    """Read a proper 3-coloring of the reduced graph back to a k-coloring
    of the source: vertex i gets the unique j whose indicator shares T's
    color."""
    if g is not None and (g.n, g.edges) != (rmap.n, rmap.edges):
        raise ValueError("graph is not the reduction map's source graph")
    if c3.palette_size != 3:
        raise ValueError("projection expects a 3-color witness")
    if not _is_proper_on_gprime(rmap, c3):
        raise ValueError("input is not a proper 3-coloring of the reduced graph")
    a, t_color = c3.assignment, c3[rmap.t_vertex]
    assign = []
    for i, row in enumerate(rmap.indicator):
        colors = a[row.start : row.stop]
        if colors.count(t_color) != 1:
            raise InvariantViolation(f"source vertex {i} has {colors.count(t_color)} indicators colored T")
        assign.append(colors.index(t_color))
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
    """Exact output sizes (the closed forms) vs the crude upper bounds
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
    crude_bound_vertices: int
    crude_bound_edges: int
    vertex_bound_holds: bool
    edge_bound_holds: bool


def size_report(g: Graph, k: int) -> SizeReport:
    """Sizes of the reduction of (g, k), from the closed forms alone;
    `reduce_to_3col` checks them against every G' it builds."""
    if k < 2:
        raise ValueError(f"palette size must be at least 2, got {k}")
    n, e = g.n, g.e
    fv = formula_vertices(n, e, k)
    fe = formula_edges(n, e, k)
    bound_v = 2 * k * k * n + 2 * k * e
    bound_e = 3 * k * k * n + 2 * k * e
    return SizeReport(
        n=n,
        e=e,
        k=k,
        vertices=fv,
        edges=fe,
        crude_bound_vertices=bound_v,
        crude_bound_edges=bound_e,
        vertex_bound_holds=fv <= bound_v,
        edge_bound_holds=fe <= bound_e,
    )
