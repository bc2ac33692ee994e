"""Colorability labels from a MILP, independent of `kcol3.solver`.

Runs in its own process so that importing NumPy and SciPy neither counts
toward the workload's set-up time nor raises its peak memory:

    python3 perfbench/oracle.py K FILE.col [FILE.col ...]

prints one JSON list with a true/false k-colorability label per file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import coo_matrix

from checks import parse_col


def milp_colorable(n: int, edges, k: int) -> bool:
    """Exact k-colorability by integer programming (HiGHS).

    One binary x[v, c] per vertex and color; each vertex takes exactly one
    color and the endpoints of an edge never share one. Vertex 0 is pinned
    to color 0, which loses no solutions because colors are interchangeable.
    """
    if n == 0:
        return True
    if k < 1:
        return False
    rows, cols, lower, upper = [], [], [], []
    for v in range(n):
        rows.extend([len(lower)] * k)
        cols.extend(v * k + c for c in range(k))
        lower.append(1)
        upper.append(1)
    for u, v in edges:
        for c in range(k):
            rows.extend([len(lower)] * 2)
            cols.extend((u * k + c, v * k + c))
            lower.append(0)
            upper.append(1)
    matrix = coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(len(lower), n * k)).tocsr()
    low_bound = np.zeros(n * k)
    low_bound[0] = 1
    res = milp(
        np.zeros(n * k),
        constraints=LinearConstraint(matrix, lower, upper),
        integrality=np.ones(n * k),
        bounds=Bounds(low_bound, np.ones(n * k)),
    )
    if res.status == 0:
        return True
    if res.status == 2:
        return False
    raise RuntimeError(f"MILP oracle gave no answer (status {res.status}: {res.message})")


def main(argv: list[str]) -> int:
    k = int(argv[0])
    labels = []
    for path in argv[1:]:
        n, _, edges = parse_col(Path(path).read_text())
        labels.append(milp_colorable(n, edges, k))
    print(json.dumps(labels))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
