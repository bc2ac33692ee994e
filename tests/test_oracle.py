"""An exact colorability oracle that shares no code with the solver: a 0-1
integer program solved by SciPy's HiGHS interface. The solver, the direct
reduction and the oracle must give one answer on every instance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_matrix

from kcol3 import gen_gnp, reduce_to_3col, solve


def milp_colorable(n: int, edges, k: int) -> bool:
    """True iff the graph on 0..n-1 has a proper k-coloring.

    Binary x[v * k + c] says vertex v takes color c. Row v of the constraint
    matrix makes each vertex take exactly one color; one row per edge and
    color keeps both endpoints off that color at once. Vertex 0 takes color
    0, which loses nothing because the colors are interchangeable."""
    if n == 0:
        return True
    rows = [[v * k + c for c in range(k)] for v in range(n)]
    rows += [[u * k + c, v * k + c] for u, v in edges for c in range(k)]
    indptr = np.cumsum([0] + [len(row) for row in rows])
    matrix = csr_matrix((np.ones(indptr[-1]), np.concatenate(rows), indptr), shape=(len(rows), n * k))
    lower = np.zeros(len(rows))
    lower[:n] = 1
    fixed = np.zeros(n * k)
    fixed[0] = 1
    result = milp(
        np.zeros(n * k),
        constraints=LinearConstraint(matrix, lower, np.ones(len(rows))),
        integrality=np.ones(n * k),
        bounds=Bounds(fixed, np.ones(n * k)),
    )
    if result.status not in (0, 2):  # 0: a coloring was found, 2: the program is infeasible
        raise RuntimeError(f"MILP gave no answer (status {result.status}: {result.message})")
    return result.status == 0


def test_oracle_on_named_graphs():
    triangle = [(0, 1), (0, 2), (1, 2)]
    assert milp_colorable(3, triangle, 3) and not milp_colorable(3, triangle, 2)
    odd_cycle = [(i, (i + 1) % 5) for i in range(5)]
    assert milp_colorable(5, odd_cycle, 3) and not milp_colorable(5, odd_cycle, 2)
    assert milp_colorable(0, [], 1) and milp_colorable(4, [], 1) and not milp_colorable(2, [(0, 1)], 1)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(st.sampled_from(range(13)), st.floats(0, 1), st.integers(0, 2**64 - 1), st.sampled_from([2, 3, 4]))
def test_solver_reduction_and_oracle_agree(n, p, seed, k):
    g = gen_gnp(n, p, seed)
    gprime, _ = reduce_to_3col(g, k)
    expected = milp_colorable(g.n, g.edges, k)
    assert (solve(g, k).status == "colorable") == expected
    assert (solve(gprime, 3).status == "colorable") == expected


@pytest.mark.parametrize("seed", range(60))
def test_solver_agrees_with_oracle_near_the_threshold(seed):
    # G(30, 0.147) has average degree about 4.3, where 3-colorable and uncolorable draws both occur.
    g = gen_gnp(30, 0.147, seed)
    assert (solve(g, 3).status == "colorable") == milp_colorable(g.n, g.edges, 3)
