"""Exact k-colorability by complete backtracking search.

This is the ground-truth oracle for every equivalence test, so it is
deliberately independent of the SAT-route module and of the reduction.
The search uses:

* most-constrained-vertex-first ordering (fewest remaining feasible
  colors, ties broken by highest degree and then by lowest index, as
  DSATUR breaks them, with degrees in the whole graph), read in O(log n)
  off a heap of int keys size << rank_bits | rank, where rank is
  (top degree - degree) << n.bit_length() | vertex, computed once per
  solve; stale entries are dropped lazily, and the heap is rebuilt from
  the uncolored vertices past 4n + 64 entries;
* forward pruning of uncolored neighbors' color sets;
* a pair-propagation rule: two adjacent uncolored vertices sharing the
  same two-color domain must use both colors, so their common neighbors
  lose both, found by stamping one's neighbors in a list of marks;
* forced colorings inside propagation: a vertex left with one color is
  put on a work list, colored when it is taken off (last in, first out),
  and its color pruned from its neighbors, all cascaded to a fixpoint
  after every decision;
* symmetry breaking: the first decision is fixed to color 0 and new
  colors are introduced in ascending order, so no color above n - 1 is
  ever used. A vertex has at most n - 1 neighbors, so with n + 2 colors
  or more every domain keeps three: nothing is forced, the pair rule
  never fires, and more colors change only the palette. The search runs
  with min(k, n + 2) colors, not k-bit domains;
* conflict-directed backjumping (Prosser 1993): every removal keeps its
  immediate cause (the colored vertex, or the pair behind a pair-rule
  prune) after the removed colors in a flat per-vertex list. Only at a
  dead end are the causes walked back to the decisions they rest on, and
  an exhausted decision jumps back to the deepest of those, skipping
  decisions that played no part.

The search loops over an explicit stack with one frame per decision, a
vertex with two or more colors left, so it neither recurses nor touches
the recursion limit. A frame holds only ints: its conflict set is a bit
set of frame indices, and its trail height is where its decision went on
the one undo trail (as in MiniSat) that every change goes on, so a
backjump over any number of frames is one cut of the trail. Backjumping
skips only subtrees without a solution, so the first witness found is
the one chronological backtracking finds.

Deterministic: identical inputs yield identical outcomes, witnesses and
node counts.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple
from heapq import heapify, heappop, heappush

from .errors import InvariantViolation
from .graphs import Coloring, Graph, _Frozen, is_proper_coloring

__all__ = ["SolveCounters", "SolveOutcome", "solve", "DEFAULT_BUDGET"]

DEFAULT_BUDGET = 10.0
_FIXPOINT, _OUT_OF_TIME = -1, -2  # propagate's results besides a wiped-out vertex


SolveCounters = namedtuple("SolveCounters", "decisions forced pair_prunes backjumps max_depth", defaults=(0,) * 5)
SolveCounters.__doc__ = """What one search did, each count 0 by default: decisions (colors tried at a frame), forced
(vertices colored by propagation), pair_prunes (domains shrunk by the pair rule), backjumps (dead ends that jumped
past at least one frame) and max_depth (most frames on the stack at once). Every coloring is a decision or forced, and
`SolveOutcome.nodes` is their sum. (A `collections.namedtuple`: `typing.NamedTuple` would import `typing` on every
start-up, and the counters are a tuple, which the frozen-value base of the other value types does not make.)"""


class SolveOutcome(_Frozen):
    status: str  # "colorable" | "uncolorable" | "timeout"
    witness: Coloring | None
    wall_time: float
    counters: SolveCounters = SolveCounters()

    @property
    def nodes(self) -> int:
        """Vertices colored during the search, by decision or forced."""
        return self.counters.decisions + self.counters.forced


def solve(g: Graph, k: int, budget: float = DEFAULT_BUDGET) -> SolveOutcome:
    """Decide k-colorability of g within a wall-clock budget (seconds)."""
    if k < 1:
        raise ValueError(f"palette size must be positive, got {k}")
    if math.isnan(budget):  # no budget check below would ever stop
        raise ValueError("budget must be a number of seconds, got nan")
    start = time.perf_counter()
    n = g.n
    if n == 0:
        return SolveOutcome("colorable", Coloring(k, ()), time.perf_counter() - start)
    if budget <= 0:
        return SolveOutcome("timeout", None, 0.0)
    adj = g.adjacency()
    mark = [-1] * n  # mark[x] == w: x is a neighbor of w, stamped by the pair rule
    colors = min(k, n + 2)  # more change only the palette (module docstring)
    full = (1 << colors) - 1
    domains = [full] * n
    assignment = [-1] * n
    # causes[v] alternates removed colors and cause for every removal from
    # v's domain still in effect, oldest first; a cause is the colored vertex
    # whose color was pruned, or the pair (v, w) behind a pair-rule prune.
    causes: list[list[int | tuple[int, int]]] = [[] for _ in range(n)]
    decision_depth = [-1] * n  # frame index of a decided vertex, else -1
    trail: list[int] = []  # newest last: w for a removal from w's domain, ~v for a coloring of v
    colored = decisions = forced = pair_prunes = backjumps = max_depth = 0
    # Holds domain size << rank_bits | rank[v] for every uncolored vertex v
    # with two or more colors left, among stale entries: a push follows every
    # shrink to two or more colors and every undo. rank[v]'s low bits are v.
    shift, mask = n.bit_length(), (1 << n.bit_length()) - 1
    top_degree = max(map(len, adj))
    rank = [(top_degree - len(row)) << shift | v for v, row in enumerate(adj)]
    rank_bits = shift + top_degree.bit_length()
    heap = sorted(colors << rank_bits | r for r in rank)

    def select() -> int:
        if len(heap) > 4 * n + 64:
            heap[:] = [domains[v].bit_count() << rank_bits | rank[v] for v in range(n) if assignment[v] < 0]
            heapify(heap)
        while True:
            top = heap[0]
            v = top & mask
            if assignment[v] < 0 and domains[v].bit_count() == top >> rank_bits:
                return v
            heappop(heap)

    def propagate(pending: list[int]) -> int:
        """Color each pending vertex when it is taken off the list, last in
        first out (a decision comes already colored), prune its color from
        its uncolored neighbors and chase the pair rule, until nothing is
        left to do. A vertex left with one color joins the list. Records
        every change on the trail, and checks the clock every 256 colorings
        (each vertex comes off the list once, right after it is colored).
        Returns _FIXPOINT, _OUT_OF_TIME or, on a dead end, the wiped-out
        vertex."""
        nonlocal colored, forced, pair_prunes
        pairs: list[int] = []
        while pending:
            v = pending.pop()
            # A forced vertex needs no symmetry check: domains are symmetric
            # in the colors no vertex has yet, so one of those is forced only
            # when it is the last one.
            if assignment[v] < 0:  # forced: one color left
                assignment[v] = domains[v].bit_length() - 1
                trail.append(~v)
                colored += 1
                forced += 1
            if (decisions + forced) % 256 == 0 and time.perf_counter() - start > budget:
                return _OUT_OF_TIME
            bit = 1 << assignment[v]
            for w in adj[v]:
                if assignment[w] < 0 and domains[w] & bit:
                    domains[w] ^= bit
                    trail.append(w)
                    removals = causes[w]
                    removals.append(bit)
                    removals.append(v)
                    size = domains[w].bit_count()
                    if size == 1:
                        pending.append(w)
                    elif size:
                        heappush(heap, size << rank_bits | rank[w])
                        if size == 2:
                            pairs.append(w)
                    else:
                        return w
            while pairs:
                p = pairs.pop()  # uncolored: pairs empties before the next vertex is colored
                dom = domains[p]
                if dom.bit_count() != 2:
                    continue
                for w in adj[p]:
                    if assignment[w] < 0 and domains[w] == dom:
                        for x in adj[w]:  # the graph never changes, so a stamp stays true
                            mark[x] = w
                        for u in adj[p]:  # their common neighbors, in ascending order
                            removed = domains[u] & dom
                            if removed and assignment[u] < 0 and mark[u] == w:
                                pair_prunes += 1
                                domains[u] ^= removed
                                trail.append(u)
                                causes[u] += removed, (p, w)
                                size = domains[u].bit_count()
                                if size == 1:
                                    pending.append(u)
                                elif size:
                                    heappush(heap, size << rank_bits | rank[u])
                                    if size == 2:
                                        pairs.append(u)
                                else:
                                    return u
        return _FIXPOINT

    def retract(height: int):
        """Undo the trail down to `height`, newest first: decisions, removals and forced colorings. A removal and
        a decision push their vertex on the heap; a forced vertex's own removals push it."""
        nonlocal colored
        for x in reversed(trail[height:]):
            if x < 0:
                x = ~x
                assignment[x] = -1
                colored -= 1
                if decision_depth[x] < 0:
                    continue
                decision_depth[x] = -1
            else:
                removals = causes[x]
                removals.pop()
                domains[x] |= removals.pop()
            heappush(heap, domains[x].bit_count() << rank_bits | rank[x])
        del trail[height:]

    def explain(v: int) -> int:
        """Bit set of the frame indices of the decisions behind every removal from v's domain, found by walking
        each removal's cause back: a decided vertex stands for its frame, a forced vertex and a pair for theirs."""
        depths = 0
        seen = {v}
        todo = [v]
        while todo:
            for cause in causes[todo.pop()][1::2]:
                if type(cause) is int:
                    depth = decision_depth[cause]
                    if depth >= 0:
                        depths |= 1 << depth
                    elif cause not in seen:
                        seen.add(cause)
                        todo.append(cause)
                    continue
                for w in cause:
                    if w not in seen:
                        seen.add(w)
                        todo.append(w)
        return depths

    def frame(used: int) -> list[int]:
        """[vertex, untried candidate colors, colors used before it, trail height where its decision goes,
        bit set of the frame indices its dead ends so far rest on]."""
        v = select()
        return [v, domains[v] & ((1 << min(colors, used + 1)) - 1), used, len(trail), 0]

    def outcome(status: str, witness: Coloring | None = None) -> SolveOutcome:
        counters = SolveCounters(decisions, forced, pair_prunes, backjumps, max_depth)
        return SolveOutcome(status, witness, time.perf_counter() - start, counters)

    # With one color every vertex is forced before any decision.
    result = propagate(list(range(n))) if colors == 1 else _FIXPOINT
    if result == _OUT_OF_TIME:
        return outcome("timeout")
    stack = [frame(0)] if result == _FIXPOINT and colored < n else []
    max_depth = len(stack)
    while stack:
        depth = len(stack) - 1
        top = stack[depth]
        v, candidates, used, height, conflict = top
        if assignment[v] >= 0:  # undo the candidate tried last
            retract(height)
        if not candidates:
            # Dead end: jump to the deepest frame this one's failures rest
            # on. Colors missing from v's domain rest on their removals;
            # colors held back by symmetry breaking rest on every frame.
            conflict |= explain(v)
            if domains[v] >> min(colors, used + 1):
                conflict |= (1 << depth) - 1
            if not conflict:  # no decision to take back: uncolorable
                break
            target = conflict.bit_length() - 1
            if target < depth - 1:
                backjumps += 1
            retract(stack[target + 1][3])
            del stack[target + 1 :]
            stack[target][4] |= conflict ^ 1 << target
            continue
        bit = candidates & -candidates
        top[1] = candidates ^ bit
        color = bit.bit_length() - 1
        decisions += 1
        assignment[v] = color
        decision_depth[v] = depth
        colored += 1
        trail.append(~v)
        result = propagate([v])
        if result == _FIXPOINT:
            if colored == n:
                break
            stack.append(frame(max(used, color + 1)))
            max_depth = max(max_depth, depth + 2)
        elif result == _OUT_OF_TIME:
            return outcome("timeout")
        else:  # the frames besides this one that the wipe-out rests on
            top[4] = conflict | explain(result) & ~(1 << depth)
    if colored < n:
        return outcome("uncolorable")
    witness = Coloring(k, tuple(assignment))
    if not is_proper_coloring(g, witness):
        raise InvariantViolation("search produced an improper witness")
    return outcome("colorable", witness)

