"""Direct reduction from k-colorability to 3-colorability.

G' is a pure function of the source graph G and k. Its vertices are
numbered in this fixed order:

1. a palette triangle T, F, R (vertices 0, 1, 2);
2. indicator vertices v_ij = 3 + ik + j (row-major over source vertex i,
   color j), each wired to R so it can only take the T or F color;
3. per source vertex, a chain gadget forcing at least one indicator in
   its row away from F ("at least one color");
4. per source vertex and color pair, a base gadget into F ("at most one");
5. per source edge and color, a base gadget into F (no shared color
   across an edge).

Each gadget's internals follow the previous gadget's. A ReductionMap stores
k and G itself and derives the layout from them on demand: the n chains
one by one, and blocks 4 and 5, whose gadgets are all base gadgets
(x, y, F) with two internals each, as two columns listed in tag order.
"""

from __future__ import annotations

import re
from array import array
from functools import cached_property
from itertools import chain, combinations, count, islice, repeat

from .errors import InvariantViolation
from .gadgets import GadgetInstance, _chain_links, _link_columns, extend_coloring
from .graphs import _ENDPOINT, Coloring, Graph, _Frozen, is_proper_coloring

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


_BLOCK = 256  # gadget records per `%` in the sidecar writer: bounds each block's template and value tuple
_MAX_VERTICES = 2**30 // 600  # G' vertices in 1 GiB at the 600 bytes each that `compare` peaks at (README)
_HEAD = re.compile(r'\{\n  "k": ([0-9]{1,20}),\n  "n": ([0-9]{1,20}),\n  "e": ([0-9]{1,20}),\n')
_EDGE_TAG = re.compile(r'"edge-conflict:([0-9]{1,20}):([0-9]{1,20}):0"')


def _record_blocks(tags, width: int, total: int, columns):
    """`total` gadget records with `width` boundary vertices, laid out as `json.dumps(..., indent=2)` does, in
    blocks of at most _BLOCK. A block is one `%` of a repeated record template against the next tags and
    `columns(lo, hi)`, the boundary and internal_start columns of records lo..hi-1, interleaved record by record."""
    boundary = ",\n".join(["        %d"] * width)
    template = f'    {{\n      "tag": "%s",\n      "boundary": [\n{boundary}\n      ],\n      "internal_start": %d,\n'
    template += f'      "internal_len": {3 * width - 7}\n    }}'
    for lo in range(0, total, _BLOCK):
        hi = min(lo + _BLOCK, total)
        fields = [list(islice(tags, hi - lo)), *columns(lo, hi)]
        values = [0] * (len(fields) * (hi - lo))
        for j, field in enumerate(fields):
            values[j :: len(fields)] = field
        yield ",\n".join([template] * (hi - lo)) % tuple(values)


class ReductionMap(_Frozen):
    """The reduction of (k, source), where `source` is the source `Graph`.
    Every vertex of G' is derived from these two fields; a Graph is
    canonical by construction, so only k is checked when the map is made."""

    k: int
    source: Graph

    t_vertex = 0
    f_vertex = 1
    r_vertex = 2

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"palette size must be at least 2, got {self.k}")

    @property
    def indicator(self) -> tuple[range, ...]:
        """[i][j] -> vertex of v_ij."""
        k = self.k
        return tuple(range(3 + i * k, 3 + (i + 1) * k) for i in range(self.source.n))

    def _chains(self):
        """(boundary, internal_start) of each at-least-one chain: a row of
        indicators into T, with 3k - 4 internals."""
        return zip(((*row, self.t_vertex) for row in self.indicator), count(3 + self.source.n * self.k, 3 * self.k - 4))

    def _base_gadgets(self) -> tuple[range, list[int], list[int]]:
        """(starts, xs, ys): the i-th gadget `_tags` names after the chains is (xs[i], ys[i], F), with internals
        starts[i] and starts[i] + 1. Edge (u, v)'s gadget for color c joins v_uc and v_vc."""
        k, n, us, vs = self.k, self.source.n, self.source.us, self.source.vs
        ind = list(range(3, 3 + n * k))  # one int object per indicator, shared by both columns
        rows = [ind[i : i + k] for i in range(0, n * k, k)]
        pairs = list(combinations(range(k), 2)) if n else []  # no k^2 walk when n = 0
        xs = [row[j1] for row in rows for j1, _ in pairs] + [x for u in us for x in rows[u]]
        ys = [row[j2] for row in rows for _, j2 in pairs] + [y for v in vs for y in rows[v]]
        start = 3 + n * (4 * k - 4)
        return range(start, start + 2 * len(xs), 2), xs, ys

    def _tags(self):
        """The sidecar tag of every gadget, in construction order: the chains, then the base gadgets."""
        return chain(
            (f"at-least-one:{i}" for i in range(self.source.n)),
            (f"at-most-one:{i}:{j1}:{j2}" for i in range(self.source.n) for j1, j2 in combinations(range(self.k), 2)),
            (f"edge-conflict:{u}:{v}:{c}" for u, v in zip(self.source.us, self.source.vs) for c in range(self.k)),
        )

    @cached_property
    def _columns(self) -> tuple[array, array]:
        """G' as two endpoint columns of (lower, higher) edges: palette triangle, R to the indicators, then the
        gadget wiring. Built once per map and shared by its callers, which must not mutate the arrays."""
        t, f, r, m = self.t_vertex, self.f_vertex, self.r_vertex, self.source.n * self.k
        prev, inputs, out, a = _chain_links(self._chains())
        starts, xs, ys = self._base_gadgets()
        a += starts
        us, vs = _link_columns(prev + xs, inputs + ys, out + [f] * len(xs), a)
        return array(_ENDPOINT, [t, t, f, *repeat(r, m), *us]), array(_ENDPOINT, [f, r, r, *range(3, 3 + m), *vs])

    def reconstruct_graph(self) -> Graph:
        """Rebuild the reduced graph from the map alone. Every vertex of G'
        has an edge, so the largest higher endpoint + 1 is the layout's own
        vertex count, which reduce_to_3col checks against the closed form."""
        us, vs = self._columns
        return Graph(max(vs) + 1, columns=(us, vs))

    def _parts(self):
        """The sidecar text in parts, the only code that decides its bytes: the header as `json.dumps(...,
        indent=2)` lays it out, with the indicator table from a row template, then the gadget records in blocks."""
        k, n, e, t, f, r = self.k, self.source.n, self.source.e, self.t_vertex, self.f_vertex, self.r_vertex
        yield f'{{\n  "k": {k},\n  "n": {n},\n  "e": {e},\n  "t": {t},\n  "f": {f},\n  "r": {r},\n  "indicator": '
        if not n:  # no gadget, and no k-wide row template: k may be huge
            yield '[],\n  "gadgets": []\n}\n'
            return
        row = "    [\n" + ",\n".join(["      %d"] * k) + "\n    ]"
        yield "[\n" + ",\n".join([row] * n) % tuple(range(3, 3 + n * k)) + '\n  ],\n  "gadgets": '
        tags, chains, (starts, xs, ys) = self._tags(), self._chains(), self._base_gadgets()
        blocks = chain(
            _record_blocks(tags, k + 1, n, lambda lo, hi: zip(*((*b, s) for b, s in islice(chains, hi - lo)))),
            _record_blocks(tags, 3, len(xs), lambda lo, hi: (xs[lo:hi], ys[lo:hi], [f] * (hi - lo), starts[lo:hi])),
        )
        yield from chain.from_iterable(zip(chain(["[\n"], repeat(",\n")), blocks))
        yield "\n  ]\n}\n"

    def to_json(self) -> str:
        """`json.dumps` of the header with the gadget records appended, at indent 2 and with a final newline. It is
        written from templates: each block of up to _BLOCK records is one `%` against a flat tuple of its values."""
        return "".join(self._parts())

    @classmethod
    def from_json(cls, text: str) -> "ReductionMap":
        """The map whose `to_json` is `text`; any other input raises ValueError naming its fault. k, n and e come
        from the header's fixed prefix (ASCII digits only) and the edges from the c = 0 edge-conflict tags. A k, n
        or e too large for the text is refused before anything is derived; `Graph` refuses a self-loop or an edge
        out of range, and the map a k below 2. Then the map's parts are compared with the text in place and must
        end exactly at its end; the first character that differs is named by its line, so tags out of order or
        repeated are refused there. No JSON document is built."""
        head = _HEAD.match(text) if isinstance(text, str) else None
        if head is None:
            raise ValueError("reduction map has no to_json header")
        k, n, e = map(int, head.groups())
        if k * (n * k + e) > len(text):  # before anything is derived: the text could not hold the records
            raise ValueError(f"reduction map lists do not have the lengths k={k}, n={n}, e={e} give")
        edges = [(int(u), int(v)) for u, v in _EDGE_TAG.findall(text)]
        rmap, pos = cls(k, Graph(n, edges)), 0  # e itself is checked by the walk, in the first part
        for part in rmap._parts():  # each part must start where the last one ended
            if not text.startswith(part, pos):
                seg = text[pos : pos + len(part)]  # the error path's only copy: the failing part's span of the text
                pos += next((i for i, (a, b) in enumerate(zip(part, seg)) if a != b), len(seg))
                break
            pos += len(part)
        else:
            if pos == len(text):
                return rmap
        line = text.count("\n", 0, pos) + 1  # of the first character that differs, or of the first one too many
        raise ValueError(
            f"reduction map differs from the reduction of its k={k}, n={n} and source edges at line {line}"
        )


def reduce_to_3col(g: Graph, k: int) -> tuple[Graph, ReductionMap]:
    """Build the 3-colorability instance for (g, k) with full bookkeeping.

    Deterministic: identical inputs give identical vertex numbering.
    """
    rep = size_report(g, k)  # refuses a palette below 2
    if rep.vertices > _MAX_VERTICES:  # before anything is built
        raise ValueError(f"reduced graph would have {rep.vertices} vertices, above the cap of {_MAX_VERTICES}")
    rmap = ReductionMap(k, g)
    gprime = rmap.reconstruct_graph()
    fv, fe = rep.vertices, rep.edges
    if (gprime.n, gprime.e) != (fv, fe):
        raise InvariantViolation(f"constructed sizes ({gprime.n}, {gprime.e}) differ from closed forms ({fv}, {fe})")
    return gprime, rmap


def _is_proper_on_gprime(rmap: ReductionMap, c: Coloring) -> bool:
    """`is_proper_coloring` on G', run over the map's edge columns, not a built Graph."""
    a, n = c.assignment, formula_vertices(rmap.source.n, rmap.source.e, rmap.k)
    if len(a) != n:
        raise ValueError(f"coloring covers {len(a)} vertices, reduced graph has {n}")
    us, vs = rmap._columns
    return all(a[u] != a[v] for u, v in zip(us, vs))


def lift_witness(g: Graph, c: Coloring, rmap: ReductionMap) -> Coloring:
    """Translate a proper k-coloring of g into a proper 3-coloring of the
    reduced graph: T, F, R get colors 0, 1, 2; indicator v_ij copies T's
    color iff c(i) = j, else F's; gadget internals are filled by the
    deterministic extension search, once per distinct boundary coloring."""
    if g != rmap.source:
        raise ValueError("graph is not the reduction map's source graph")
    if c.palette_size != rmap.k:
        raise ValueError(f"witness palette {c.palette_size} does not match reduction k={rmap.k}")
    if not is_proper_coloring(g, c):
        raise ValueError("input coloring is not a proper coloring of the source graph")
    # Indicator row i and chain i (that row, then T) depend only on c(i): one extension per color c uses.
    k = rmap.k
    template = GadgetInstance((*range(k), k), k + 1)
    rows = {j: (1,) * j + (0,) + (1,) * (k - 1 - j) for j in set(c.assignment)}
    chain_fills = {j: extend_coloring(template, (*row, 0)).values() for j, row in rows.items()}
    assign = [0, 1, 2]  # T, F, R
    assign += chain.from_iterable(map(rows.__getitem__, c.assignment))
    assign += chain.from_iterable(map(chain_fills.__getitem__, c.assignment))
    # A base gadget's output is F (color 1), so 3 * color(x) + color(y) keys its fill.
    _, xs, ys = rmap._base_gadgets()
    keys = [3 * assign[x] + assign[y] for x, y in zip(xs, ys)]
    base = GadgetInstance((0, 1, 2), 3)
    base_fills = {key: extend_coloring(base, (key // 3, key % 3, 1)).values() for key in set(keys)}
    assign += chain.from_iterable(map(base_fills.__getitem__, keys))
    lifted = Coloring(3, tuple(assign))
    if not _is_proper_on_gprime(rmap, lifted):
        raise InvariantViolation("lifted coloring is not proper; construction bug")
    return lifted


def project_witness(rmap: ReductionMap, c3: Coloring, g: Graph | None = None) -> Coloring:
    """Read a proper 3-coloring of the reduced graph back to a k-coloring
    of the source: vertex i gets the unique j whose indicator shares T's
    color."""
    if g is not None and g != rmap.source:
        raise ValueError("graph is not the reduction map's source graph")
    if c3.palette_size != 3:
        raise ValueError("projection expects a 3-color witness")
    if not _is_proper_on_gprime(rmap, c3):
        raise ValueError("input is not a proper 3-coloring of the reduced graph")
    return _project(rmap, c3)


def _project(rmap: ReductionMap, c3: Coloring) -> Coloring:
    """`project_witness` of a 3-coloring already known to be a proper coloring of G'. The result is checked
    on the map's source graph, which is g whenever a caller passes g."""
    a, t_color = c3.assignment, c3[rmap.t_vertex]
    assign = []
    for i, row in enumerate(rmap.indicator):
        colors = a[row.start : row.stop]
        if colors.count(t_color) != 1:
            raise InvariantViolation(f"source vertex {i} has {colors.count(t_color)} indicators colored T")
        assign.append(colors.index(t_color))
    projected = Coloring(rmap.k, tuple(assign))
    if not is_proper_coloring(rmap.source, projected):
        raise InvariantViolation("projected coloring is not proper; construction bug")
    return projected


def formula_vertices(n: int, e: int, k: int) -> int:
    """Closed-form vertex count: 3 + n(k^2 + 3k - 4) + 2ke."""
    return 3 + n * (k * k + 3 * k - 4) + 2 * k * e


def formula_edges(n: int, e: int, k: int) -> int:
    """Closed-form edge count: 3 + n(2.5k^2 + 3.5k - 5) + 5ke."""
    return 3 + n * (5 * k * k + 7 * k - 10) // 2 + 5 * k * e


class SizeReport(_Frozen):
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
    """Sizes of the reduction of (g, k), from the closed forms alone, for any k >= 2; `reduce_to_3col` refuses a
    G' above _MAX_VERTICES vertices before it builds one and checks them against every G' it builds."""
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
