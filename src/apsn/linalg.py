"""Exact elimination for small dense systems: rational Gaussian elimination
and fraction-free (Bareiss) determinant and adjugate of integer matrices."""
from __future__ import annotations

from fractions import Fraction

from .errors import SingularMatrixError


def solve_rational(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Solve A x = b exactly.  A is consumed as a working copy.

    Nothing in the package calls it: the random-walk kernels use
    `det_adjugate`, and the Fraction walk oracles in the tests use this.
    It stays here because the benchmark's tracer patches it by name as
    ``apsn.linalg.solve_rational``.
    """
    n = len(matrix)
    a = [[Fraction(x) for x in row] + [Fraction(rhs[r])] for r, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise SingularMatrixError(f"singular system at column {col}")
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def det_adjugate(matrix: list[list[int]]) -> tuple[int, list[list[int]]]:
    """(det M, adj M) by fraction-free Gauss-Jordan; no pivoting, so leading minors must be nonzero."""
    n = len(matrix)
    a = [list(row) + [int(r == c) for c in range(n)] for r, row in enumerate(matrix)]
    prev = 1
    for k in range(n):
        rk = a[k]
        pivot = rk[k]
        if pivot == 0:
            raise SingularMatrixError(f"zero leading principal minor at column {k}")
        for r in range(n):
            if r == k:
                continue
            row = a[r]
            f = row[k]
            # Sylvester's identity makes every quotient exact.
            a[r] = [(pivot * x - f * y) // prev for x, y in zip(row, rk)]
        prev = pivot
    return prev, [row[n:] for row in a]
