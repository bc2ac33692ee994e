"""Core graph and coloring types, DIMACS .col and witness I/O, seeded random graphs.

Vertices are dense indices 0..n-1 internally; DIMACS 1-indexing is confined
to the parse/emit boundary. Graphs are simple and undirected: edges are
canonical (u, v) with u < v, deduplicated, no self-loops, held as two int columns.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from contextlib import suppress
from itertools import compress, groupby, islice, repeat
from math import ceil
from operator import and_, lt, rshift, sub

from .errors import ParseError

__all__ = [
    "Graph",
    "Coloring",
    "is_proper_coloring",
    "parse_dimacs_col",
    "emit_dimacs_col",
    "gen_gnp",
    "complete_graph",
]

_ENDPOINT = "I"  # typecode of Graph's endpoint columns
_WIDTH = 8 * array(_ENDPOINT).itemsize  # bits per endpoint


class _Frozen:
    """Base of kcol3's immutable value types, which are not dataclasses: importing `dataclasses` slows every start-up.
    A subclass's own annotated names are its fields, in order, and its `__match_args__`. It is built by position or
    keyword, a field left out takes the class attribute of its name, and `__post_init__`, if defined, runs last.
    Objects are equal by type and fields and hash by fields; assigning or deleting an attribute is an AttributeError."""

    def __init_subclass__(cls):
        cls.__match_args__ = tuple(cls.__annotations__)  # from Python 3.10, the class's own annotations only

    def __init__(self, *args, **kwargs):
        cls, names = type(self), self.__match_args__
        if len(args) > len(names) or not kwargs.keys() <= set(names[len(args) :]):  # unknown, or given twice
            raise TypeError(f"{cls.__name__}() takes the fields {', '.join(names)}, each at most once")
        fields = dict(zip(names, args), **kwargs)
        for name in names:
            if name not in fields:
                if name not in vars(cls):
                    raise TypeError(f"{cls.__name__}() missing field {name!r}")
                fields[name] = vars(cls)[name]
        vars(self).update(fields)
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def _values(self):
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__match_args__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot delete {name!r}")


class Graph(_Frozen):
    """Immutable simple undirected graph on vertices 0..n-1, held as two `_WIDTH`-bit endpoint columns, so n is at most
    2**_WIDTH: edge i is (us[i], vs[i]), us[i] < vs[i], in ascending order, each edge once. `edges`, any iterable of
    pairs, is read once; internal callers hand over two int columns of one length as `columns` instead."""

    n: int
    us: array
    vs: array

    def __init__(self, n: int, edges=(), *, columns=None):
        self.__post_init__(n, edges, columns)

    def __post_init__(self, n, edges, columns):
        if not 0 <= n <= 1 << _WIDTH:
            raise ValueError(f"negative vertex count {n}" if n < 0 else f"vertex count {n} above 2**{_WIDTH}")
        if columns is None:
            items = list(edges)  # the input may be a one-shot iterator
            columns = zip(*items, strict=True) if items else ((), ())  # a pair of another length is a ValueError
        us, vs = columns
        oriented = all(map(lt, us, vs))
        lo, hi = (us, vs) if oriented else (list(map(min, us, vs)), list(map(max, us, vs)))
        if lo and not (min(lo) >= 0 and max(hi) < n and (oriented or all(map(lt, lo, hi)))):
            u, v = next((u, v) for u, v in zip(us, vs) if u == v or not (0 <= u < n and 0 <= v < n))
            raise ValueError(f"self-loop at vertex {u}" if u == v else f"edge ({u},{v}) out of range for n={n}")
        if not all(map(lt, zip(lo, hi), islice(zip(lo, hi), 1, None))):  # unsorted, or some edge repeats
            width = n.bit_length()  # the fewer int digits a key has, the faster it is made and sorted
            keys = sorted([u << width | v for u, v in zip(lo, hi)])  # orders as (u, v) does
            if not all(map(lt, keys, islice(keys, 1, None))):
                keys = [key for key, _ in groupby(keys)]
            lo, hi = map(rshift, keys, repeat(width)), map(and_, keys, repeat((1 << width) - 1))
        vars(self).update(n=n, us=array(_ENDPOINT, lo), vs=array(_ENDPOINT, hi))  # frozen: no setattr

    def __hash__(self):
        return hash((self.n, self.us.tobytes(), self.vs.tobytes()))

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The edges as (u, v) pairs, made anew on every call."""
        return tuple(zip(self.us, self.vs))

    @property
    def e(self) -> int:
        return len(self.us)

    def adjacency(self) -> list[list[int]]:
        """Sorted neighbor lists, one per vertex, sharing one int object per vertex. No sort is needed: the edges
        are canonical and sorted, so each row gets its lower neighbors in ascending order, then its higher ones."""
        ids = list(range(self.n))
        adj: list[list[int]] = [[] for _ in ids]
        for u, v in zip(self.us, self.vs):
            adj[u].append(ids[v])
            adj[v].append(ids[u])
        return adj


class Coloring(_Frozen):
    """Total assignment of colors 0..palette_size-1 to vertices 0..len-1."""

    palette_size: int
    assignment: tuple[int, ...]

    def __post_init__(self):
        if self.palette_size < 1:
            raise ValueError(f"palette size must be positive, got {self.palette_size}")
        a = tuple(self.assignment)
        object.__setattr__(self, "assignment", a)
        if a and not (min(a) >= 0 and max(a) < self.palette_size):
            v, c = next((v, c) for v, c in enumerate(a) if not (0 <= c < self.palette_size))
            raise ValueError(f"vertex {v} has color {c} outside palette 0..{self.palette_size - 1}")

    def __getitem__(self, v: int) -> int:
        return self.assignment[v]

    def __len__(self) -> int:
        return len(self.assignment)


def is_proper_coloring(g: Graph, c: Coloring) -> bool:
    """True iff no edge of g is monochromatic under c."""
    if len(c.assignment) != g.n:
        raise ValueError(f"coloring covers {len(c.assignment)} vertices, graph has {g.n}")
    a = c.assignment
    return all(a[u] != a[v] for u, v in zip(g.us, g.vs))


def _fields(text: str | bytes):
    """Yield (line number from 1, stripped line, its fields) for every line of a DIMACS-style text that is neither
    blank nor a `c` comment. The format is ASCII: a non-ASCII character, which `int` and `str.isdigit` may read as a
    digit, is a ParseError on its line, raised before any line is read."""
    text = text.decode("latin-1") if isinstance(text, bytes) else text  # no byte fails to decode as latin-1
    if not text.isascii():
        culprit = next(i for i, ch in enumerate(text) if not ch.isascii())
        # With "x" standing in for the culprit, its line is the text's last line.
        raise ParseError("non-ASCII character", len((text[:culprit] + "x").splitlines()))
    for lineno, line in enumerate(map(str.strip, text.splitlines()), start=1):
        if line and not line.startswith("c"):
            yield lineno, line, line.split()


def _problem_counts(line: str, parts: list[str], kind: str, lineno: int) -> tuple[int, int]:
    """The two counts of a `p <kind> <a> <b>` line (kind `edge` or `cnf`); a negative vertex or variable count a,
    or a vertex count above Graph's cap, is an error."""
    if len(parts) != 4 or parts[1] != kind:
        raise ParseError(f"malformed problem line {line!r}", lineno)
    a, b = _ints(parts[2:], line, lineno, "non-integer counts in {line!r}")
    if a < 0:
        raise ParseError(f"negative {'vertex' if kind == 'edge' else 'variable'} count {a}", lineno)
    if kind == "edge" and a > 1 << _WIDTH:  # Graph's cap, checked before any edge line is read
        raise ParseError(f"vertex count {a} above 2**{_WIDTH}", lineno)
    return a, b


def _ints(fields: list[str], line: str, lineno: int, message: str):
    """Yield each field as an int by the one integer grammar of kcol3's text formats: ASCII digits after at most one
    `-`. Any other field, or one past int()'s digit limit, raises ParseError(message with line and field) on lineno."""
    for field in fields:
        with suppress(ValueError):  # int() refuses a field past its digit limit
            if field.removeprefix("-").isdigit():
                yield int(field)
                continue
        raise ParseError(message.format(line=line, field=field), lineno)


_BULK_BLOCK = 1 << 16  # bytes per block of the bulk readers: it bounds their peak memory, not their speed


def _bulk_columns(data: bytes, start: int, tag: bytes, less: int):
    """The two int columns of data[start:], each field less `less`, as `_ENDPOINT` arrays, if every line is
    `<tag> <digits> <digits>`, single-spaced and newline-ended; else None. Converts block by block and never raises:
    an empty field is a ValueError, a value outside a column's range an OverflowError."""
    columns = array(_ENDPOINT), array(_ENDPOINT)
    with suppress(ValueError, OverflowError):
        while start < len(data):
            stop = data.find(b"\n", start + _BULK_BLOCK) + 1 or len(data)
            block, start = data[start:stop], stop
            fields = block.replace(b"\n", b" \n ").split(b" ")  # an aligned line: tag, int, int, newline
            if block.translate(None, b" \n0123456789" + tag) or fields[-1] or len(fields) % 4 != 1 or (
                fields[:-1:4].count(tag) + fields[3::4].count(b"\n") != len(fields) // 2  # a tag and a newline per line
            ):
                return None
            for column, values in zip(columns, (list(map(int, fields[1::4])), list(map(int, fields[2::4])))):
                column.extend(map(sub, values, repeat(less)) if less else values)
        return columns
    return None


def parse_dimacs_col(text: str | bytes) -> Graph:
    """Parse DIMACS .col text into a canonical Graph.

    Accepts `c` comment lines, exactly one `p edge <n> <e>` line, and `e <u> <v>` lines with 1-indexed endpoints,
    each integer ASCII digits after at most one `-`. Self-loops are rejected. A repeated edge, either way round,
    collapses, and `e` counts it once. The layout `emit_dimacs_col` writes is read in bulk, any other text by
    `_walk_dimacs_col`, line by line, with the same result or error.
    """
    data = text.encode("ascii", "replace") if isinstance(text, str) else text  # "?" fails every bulk check
    start = data.find(b"\n") + 1
    head = data[: start - 1].split(b" ")
    # A header of at most 64 bytes keeps its counts well inside the digit limit of int().
    if 0 < start <= 64 and len(head) == 4 and head[:2] == [b"p", b"edge"] and head[2].isdigit() and head[3].isdigit():
        columns = _bulk_columns(data, start, b"e", 1)  # an endpoint 0 overflows a column
        with suppress(ValueError):  # from Graph: the walker names the fault
            if columns and (g := Graph(int(head[2]), columns=columns)).e == int(head[3]):
                return g
    return _walk_dimacs_col(text)


def _walk_dimacs_col(text: str | bytes) -> Graph:
    """parse_dimacs_col line by line, the only .col reader that raises ParseError."""
    n = None
    edges: list[tuple[int, int]] = []
    for lineno, line, parts in _fields(text):
        if parts[0] == "p":
            if n is not None:
                raise ParseError("duplicate p line", lineno)
            n, declared_e = _problem_counts(line, parts, "edge", lineno)
            p_lineno = lineno
        elif parts[0] == "e":
            if n is None:
                raise ParseError("edge line before p line", lineno)
            if len(parts) != 3:
                raise ParseError(f"malformed edge line {line!r}", lineno)
            u, v = _ints(parts[1:], line, lineno, "non-integer endpoint in {line!r}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"endpoint out of range 1..{n} in {line!r}", lineno)
            if u == v:
                raise ParseError(f"self-loop at vertex {u}", lineno)
            edges.append((u - 1, v - 1))
        else:
            raise ParseError(f"unrecognized line {line!r}", lineno)
    if n is None:
        raise ParseError("missing p line", 1)
    g = Graph(n, edges)
    if g.e != declared_e:
        raise ParseError(f"p line declares {declared_e} edges, file has {g.e} distinct edges", p_lineno)
    return g


def emit_dimacs_col(g: Graph) -> str:
    """Canonical DIMACS .col text: header, then sorted 1-indexed edge lines."""
    lines = [f"e {u + 1} {v + 1}\n" for u, v in zip(g.us, g.vs)]
    return f"p edge {g.n} {g.e}\n" + "".join(lines)


def _read_witness(data: bytes, n: int, k: int) -> Coloring:
    """The layout `_emit_witness` writes is read in bulk, any other by `_walk_witness`, which alone raises."""
    columns = _bulk_columns(data, 0, b"v", 0)
    if columns and len(columns[0]) == n and columns[0] == array(_ENDPOINT, range(1, n + 1)):  # vertices 1..n in order
        with suppress(ValueError):  # a color outside the palette: the walker names its line
            return Coloring(k, columns[1])
    return _walk_witness(data, n, k)


def _walk_witness(text: bytes, n: int, k: int) -> Coloring:
    assignment: list[int | None] = [None] * n
    for lineno, line, parts in _fields(text):
        if len(parts) != 3 or parts[0] != "v":
            raise ParseError(f"malformed witness line {line!r}", lineno)
        v, color = _ints(parts[1:], line, lineno, "non-integer field in {line!r}")
        if not (1 <= v <= n):
            raise ParseError(f"vertex {v} out of range 1..{n}", lineno)
        if not (0 <= color < k):
            raise ParseError(f"color {color} out of range 0..{k - 1}", lineno)
        if assignment[v - 1] is not None:
            raise ParseError(f"duplicate line for vertex {v}", lineno)
        assignment[v - 1] = color
    if None in assignment:
        raise ParseError(f"witness missing vertex {assignment.index(None) + 1}", 1)
    return Coloring(k, assignment)


def _emit_witness(c: Coloring) -> str:
    """Witness text: one `v <vertex from 1> <color>` line per vertex, in vertex order."""
    return "".join(f"v {v + 1} {color}\n" for v, color in enumerate(c.assignment))


_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # splitmix64's state increment (Steele, Lea & Flood)
_LANES = 4096  # draws per batch, one per 128-bit lane of a Python int; 2,048-8,192 time alike


def gen_gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p), bit-for-bit reproducible from the seed.

    One splitmix64 draw per candidate edge in lexicographic (u, v) order,
    edge included iff (draw >> 11)/2^53 < p. The i-th state (from 1) is
    seed + i*gamma mod 2^64, so a batch of draws is mixed at once, each in
    its own 128-bit lane, masked to 64 bits before every multiply so no
    product leaves it.
    """
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"probability out of range: {p}")
    if n < 0:  # n(n-1)/2 pairs is positive for negative n too
        raise ValueError(f"negative vertex count {n}")
    pairs = n * (n - 1) // 2
    lanes = min(_LANES, pairs) or 1
    ones = int.from_bytes(b"\1".ljust(16, b"\0") * lanes, "little")
    mask = _MASK64 * ones
    lane_index = int.from_bytes(b"".join([i.to_bytes(16, "little") for i in range(lanes)]), "little")
    states = (((seed + _GAMMA) & _MASK64) * ones + _GAMMA * lane_index) & mask  # draw i's state in lane i - 1
    step = (lanes * _GAMMA & _MASK64) * ones  # from one batch's states to the next's
    # draw >> 11 < p*2^53 (both exact) iff draw < ceil(p*2^53) << 11 iff 2^64 + that - 1 - draw has bit 64 set
    below = (_MASK64 + (ceil(p * 2.0**53) << 11)) * ones
    hits = []
    for first in range(0, pairs, lanes):
        z, states = states, (states + step) & mask
        z = ((z ^ (z >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
        z = ((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB & mask
        z = (z ^ (z >> 31)) & mask
        hit = (below - z).to_bytes(16 * lanes, "little")[8::16]  # byte 8 of a lane holds its bit 64
        hits.extend(compress(range(first, min(first + lanes, pairs)), hit))
    rows = [u * (2 * n - u - 1) // 2 for u in range(n)]  # index of each row's first pair (u, u + 1)
    us = [bisect_right(rows, i) - 1 for i in hits]
    return Graph(n, columns=(us, [i - rows[u] + u + 1 for i, u in zip(hits, us)]))


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("need at least one vertex")
    return Graph(n, tuple((u, v) for u in range(n) for v in range(u + 1, n)))

