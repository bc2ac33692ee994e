"""Output checks that share no code with the program under test.

They work on plain Python data (vertex counts, edge lists, color lists)
so that a bug in `kcol3` cannot hide itself by also being in the check.
"""

from __future__ import annotations


def witness_problem(n: int, edges, k: int, colors) -> str | None:
    """Why `colors` is not a proper k-coloring of (n, edges), or None if it is."""
    if len(colors) != n:
        return f"witness covers {len(colors)} vertices, graph has {n}"
    for v, c in enumerate(colors):
        if not 0 <= c < k:
            return f"vertex {v} has color {c} outside 0..{k - 1}"
    for u, v in edges:
        if colors[u] == colors[v]:
            return f"edge ({u}, {v}) is monochromatic"
    return None


def parse_col(text: str) -> tuple[int, int, list[tuple[int, int]]]:
    """DIMACS .col text -> (declared n, declared e, 0-indexed edge list)."""
    n = e = -1
    edges = []
    for line in text.splitlines():
        if line.startswith("e "):
            _, u, v = line.split()
            edges.append((int(u) - 1, int(v) - 1))
        elif line.startswith("p "):
            _, _, n_text, e_text = line.split()
            n, e = int(n_text), int(e_text)
    return n, e, edges


def sane_sizes(n: int, e: int, k: int) -> tuple[int, int]:
    """Vertices and edges of G' for the direct reduction of (G, k)."""
    return 3 + n * (k * k + 3 * k - 4) + 2 * k * e, 3 + n * (5 * k * k + 7 * k - 10) // 2 + 5 * k * e


def sat_route_sizes(n: int, e: int, k: int) -> dict:
    """Sizes along the detour: the direct CNF encoding of (G, k), then the
    3-coloring graph that gives each clause of L >= 2 literals one output
    vertex, 3L - 4 chain internals and 5(L - 1) + 2 edges."""
    pairs = n * k * (k - 1) // 2 + k * e  # two-literal clauses
    return {
        "vars": n * k,
        "clauses": n + pairs,
        "vertices": 3 + 2 * n * k + n * (3 * k - 3) + 3 * pairs,
        "edges": 3 + 3 * n * k + n * (5 * k - 3) + 7 * pairs,
    }
