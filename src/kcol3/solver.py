"""Exact k-colorability by complete backtracking search.

This is the ground-truth oracle for every equivalence test, so it is
deliberately independent of the SAT-route module. The search uses:

* most-constrained-vertex-first ordering (fewest remaining feasible
  colors, ties broken by lowest index), read in O(log n) off a heap of
  (domain size, vertex) entries whose stale entries are dropped lazily,
  rebuilt from the uncolored vertices past 4n + 64 entries;
* forward pruning of uncolored neighbors' color sets;
* a pair-propagation rule: two adjacent uncolored vertices sharing the
  same two-color domain must use both colors, so their common neighbors
  lose both (cascaded to a fixpoint after every assignment);
* symmetry breaking: the first colored vertex is fixed to color 0 and
  new colors are introduced in ascending order.

The search loops over an explicit stack of frames, one per colored
vertex, so it neither recurses nor touches the recursion limit.

Deterministic: identical inputs yield identical outcomes, witnesses and
node counts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .errors import InvariantViolation, SolveTimeout
from .graphs import Coloring, Graph, is_proper_coloring

__all__ = ["SolveOutcome", "solve", "decide", "DEFAULT_BUDGET"]

DEFAULT_BUDGET = 10.0


@dataclass(frozen=True)
class SolveOutcome:
    status: str  # "colorable" | "uncolorable" | "timeout"
    witness: Coloring | None
    nodes: int
    wall_time: float


def solve(g: Graph, k: int, budget: float = DEFAULT_BUDGET) -> SolveOutcome:
    """Decide k-colorability of g within a wall-clock budget (seconds)."""
    if k < 1:
        raise ValueError(f"palette size must be positive, got {k}")
    start = time.perf_counter()
    n = g.n
    if n == 0:
        return SolveOutcome("colorable", Coloring(k, ()), 0, time.perf_counter() - start)
    if budget <= 0:
        return SolveOutcome("timeout", None, 0, 0.0)
    adj = g.adjacency()
    adj_sets = [set(row) for row in adj]
    common_cache: dict[tuple[int, int], tuple[int, ...]] = {}

    def common_neighbors(u: int, v: int) -> tuple[int, ...]:
        key = (u, v) if u < v else (v, u)
        hit = common_cache.get(key)
        if hit is None:
            hit = tuple(w for w in adj[u] if w in adj_sets[v])
            common_cache[key] = hit
        return hit

    full = (1 << k) - 1
    domains = [full] * n
    assignment = [-1] * n
    nodes = 0
    # Holds (domain size, vertex) for every uncolored vertex, among stale
    # entries: a push follows every change to a domain or an unassignment.
    heap = [(k, v) for v in range(n)]

    def select() -> int:
        if len(heap) > 4 * n + 64:
            heap[:] = [(domains[v].bit_count(), v) for v in range(n) if assignment[v] < 0]
            heapify(heap)
        while True:
            size, v = heap[0]
            if assignment[v] < 0 and domains[v].bit_count() == size:
                return v
            heappop(heap)

    def propagate(start_vertex: int, bit: int, trail: list[tuple[int, int]]) -> bool:
        """Prune `bit` from start_vertex's uncolored neighbors, then chase
        the pair rule to a fixpoint. Records every removal on the trail;
        returns False on a wiped-out domain."""
        pairs = []  # vertices whose domain just shrank to two colors
        for w in adj[start_vertex]:
            if assignment[w] < 0 and domains[w] & bit:
                domains[w] &= ~bit
                trail.append((w, bit))
                size = domains[w].bit_count()
                if size == 0:
                    return False
                heappush(heap, (size, w))
                if size == 2:
                    pairs.append(w)
        while pairs:
            v = pairs.pop()
            dom = domains[v]
            if assignment[v] >= 0 or dom.bit_count() != 2:
                continue
            for w in adj[v]:
                if assignment[w] < 0 and domains[w] == dom:
                    for u in common_neighbors(v, w):
                        if assignment[u] < 0 and domains[u] & dom:
                            removed = domains[u] & dom
                            domains[u] &= ~dom
                            trail.append((u, removed))
                            size = domains[u].bit_count()
                            if size == 0:
                                return False
                            heappush(heap, (size, u))
                            if size == 2:
                                pairs.append(u)
        return True

    def frame(used: int) -> list:
        """[vertex, untried candidate colors, colors used before it, trail]."""
        v = select()
        return [v, domains[v] & ((1 << min(k, used + 1)) - 1), used, []]

    stack = [frame(0)]
    while stack:
        top = stack[-1]
        v, candidates, used, trail = top
        if assignment[v] >= 0:  # undo the candidate tried last
            for w, removed in trail:
                domains[w] |= removed
                heappush(heap, (domains[w].bit_count(), w))
            trail.clear()
            assignment[v] = -1
            heappush(heap, (domains[v].bit_count(), v))
        if not candidates:
            stack.pop()
            continue
        bit = candidates & -candidates
        top[1] = candidates ^ bit
        color = bit.bit_length() - 1
        nodes += 1
        if nodes % 256 == 0 and time.perf_counter() - start > budget:
            return SolveOutcome("timeout", None, nodes, time.perf_counter() - start)
        assignment[v] = color
        if propagate(v, bit, trail):
            if len(stack) == n:
                break
            stack.append(frame(max(used, color + 1)))
    elapsed = time.perf_counter() - start
    if not stack:
        return SolveOutcome("uncolorable", None, nodes, elapsed)
    witness = Coloring(k, tuple(assignment))
    if not is_proper_coloring(g, witness):
        raise InvariantViolation("search produced an improper witness")
    return SolveOutcome("colorable", witness, nodes, elapsed)


def decide(g: Graph, k: int, budget: float = DEFAULT_BUDGET) -> bool:
    """Boolean convenience wrapper; a timeout raises SolveTimeout instead
    of being coerced to either answer."""
    outcome = solve(g, k, budget)
    if outcome.status == "timeout":
        raise SolveTimeout(f"no decision for (n={g.n}, k={k}) within {budget}s")
    return outcome.status == "colorable"
