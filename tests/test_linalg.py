from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from apsn.errors import SingularMatrixError
from apsn.linalg import det_adjugate, solve_rational


def test_small_system():
    a = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    b = [Fraction(5), Fraction(10)]
    x = solve_rational(a, b)
    assert x == [Fraction(1), Fraction(3)]


def test_singular_raises():
    a = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    with pytest.raises(SingularMatrixError):
        solve_rational(a, [Fraction(1), Fraction(1)])


@given(
    st.lists(
        st.lists(st.fractions(min_value=-5, max_value=5), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    ),
    st.lists(st.fractions(min_value=-5, max_value=5), min_size=3, max_size=3),
)
def test_solution_satisfies_system(a, b):
    try:
        x = solve_rational(a, b)
    except SingularMatrixError:
        return
    for row, rhs in zip(a, b):
        assert sum(c * v for c, v in zip(row, x)) == rhs


@st.composite
def reduced_laplacians(draw):
    """L = D - A of a random connected graph with one vertex's row and column
    removed: a random spanning tree (each vertex hangs off an earlier one)
    plus random chords."""
    n = draw(st.integers(min_value=2, max_value=8))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chords = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges |= {p for p, keep in zip(pairs, chords) if keep}
    lap = [[0] * n for _ in range(n)]
    for i, j in edges:
        lap[i][j] = lap[j][i] = -1
        lap[i][i] += 1
        lap[j][j] += 1
    k = draw(st.integers(0, n - 1))
    return [[x for c, x in enumerate(row) if c != k] for r, row in enumerate(lap) if r != k]


@given(reduced_laplacians())
def test_adjugate_times_matrix_is_determinant(m):
    det, adj = det_adjugate(m)
    size = len(m)
    assert det > 0  # the number of spanning trees
    for r in range(size):
        for c in range(size):
            assert sum(adj[r][t] * m[t][c] for t in range(size)) == (det if r == c else 0)


@pytest.mark.parametrize(
    "m",
    [
        [[1, 2], [2, 4]],
        [[0, 1], [1, 0]],  # regular, but the first pivot is zero
        [[1, -1, 0], [-1, 2, -1], [0, -1, 1]],  # a full Laplacian: the last pivot is zero
    ],
)
def test_det_adjugate_zero_pivot_raises(m):
    with pytest.raises(SingularMatrixError):
        det_adjugate(m)
