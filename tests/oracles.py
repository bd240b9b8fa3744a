"""Independent slow implementations that the fast kernels in
``apsn.centrality`` are checked against.

* ``brute_shapley`` and ``brute_betweenness`` enumerate every ordering of
  the players and every simple path;
* ``hitting_times`` and ``absorption_probabilities`` solve the walk systems
  over Fractions;
* ``eigenvector_by_iteration`` and ``pagerank_by_iteration`` are the power
  iterations that the closed-form spectral kernels replaced.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from apsn.errors import SizeGuardError
from apsn.graphs import Graph, bits, reachable_from
from apsn.linalg import solve_rational

EIG_TOLERANCE = 1e-12
EIG_MAX_ITER = 10**6
PAGERANK_TOLERANCE = 1e-12
PAGERANK_MAX_ITER = 10**6
BRUTE_CAP = 7


# -- power iterations ------------------------------------------------------------


def eigenvector_by_iteration(g: Graph) -> tuple[float, ...]:
    """Power iteration on A + I from the uniform unit vector to 1e-12."""
    n = g.n
    if g.mask == 0:
        # zero matrix: the iteration below would stall on the unit shift,
        # and any vector is an eigenvector; report the uniform one.
        return tuple([1.0 / math.sqrt(n)] * n)
    a = np.zeros((n, n))
    for i, j in g.edges():
        a[i, j] = a[j, i] = 1.0
    # The unit shift keeps eigenvectors, makes the dominant eigenvalue unique
    # in magnitude (bipartite adjacency spectra are symmetric around 0, which
    # makes unshifted power iteration oscillate forever).
    shifted = a + np.eye(n)
    x = np.full(n, 1.0 / math.sqrt(n))
    for _ in range(EIG_MAX_ITER):
        y = shifted @ x
        y /= np.linalg.norm(y)
        if np.max(np.abs(y - x)) < EIG_TOLERANCE:
            return tuple(float(v) for v in y)
        x = y
    raise AssertionError("eigenvector power iteration did not converge")


def pagerank_by_iteration(g: Graph, damping: float = 0.85) -> tuple[float, ...]:
    """Power iteration of the damped walk with uniform teleports from
    dangling vertices, from the uniform vector to 1e-12."""
    d = damping
    n = g.n
    adj = g.adjacency()
    degs = [a.bit_count() for a in adj]
    p = [1.0 / n] * n
    for _ in range(PAGERANK_MAX_ITER):
        dangling = sum(p[u] for u in range(n) if degs[u] == 0)
        base = (1.0 - d) / n + d * dangling / n
        nxt = [base] * n
        for u in range(n):
            if degs[u]:
                share = d * p[u] / degs[u]
                for w in bits(adj[u]):
                    nxt[w] += share
        if max(abs(a - b) for a, b in zip(nxt, p)) < PAGERANK_TOLERANCE:
            return tuple(nxt)
        p = nxt
    raise AssertionError("pagerank power iteration did not converge")


# -- random walks over Fractions ---------------------------------------------------


def hitting_times(g: Graph, target: int) -> dict[int, Fraction]:
    """Expected steps for a walk from each vertex of Conn(target) to first
    hit the target, solved exactly."""
    adj = g.adjacency()
    comp = reachable_from(adj, 1 << target)
    members = [v for v in bits(comp) if v != target]
    if not members:
        return {target: Fraction(0)}
    index = {v: k for k, v in enumerate(members)}
    size = len(members)
    matrix = [[Fraction(0)] * size for _ in range(size)]
    rhs = [Fraction(1)] * size
    for v in members:
        r = index[v]
        d = adj[v].bit_count()
        matrix[r][r] = Fraction(1)
        for w in bits(adj[v]):
            if w != target:
                matrix[r][index[w]] -= Fraction(1, d)
    sol = solve_rational(matrix, rhs)
    out = {target: Fraction(0)}
    out.update({v: sol[index[v]] for v in members})
    return out


def absorption_probabilities(g: Graph, hit: int, avoid: int) -> dict[int, Fraction]:
    """P[walk from v reaches `hit` before `avoid`] for all v, exactly.

    Within a component containing both special vertices this is the standard
    absorbing-walk solve.  A walk in a component containing `hit` but not
    `avoid` reaches `hit` with probability 1 (finite recurrence); a walk in a
    component without `hit` never does.
    """
    adj = g.adjacency()
    comp_hit = reachable_from(adj, 1 << hit)
    probs: dict[int, Fraction] = {}
    if not comp_hit >> avoid & 1:
        for v in range(g.n):
            probs[v] = Fraction(1) if comp_hit >> v & 1 else Fraction(0)
        probs[avoid] = Fraction(0)
        return probs
    members = [v for v in bits(comp_hit) if v not in (hit, avoid)]
    index = {v: k for k, v in enumerate(members)}
    size = len(members)
    sol: list[Fraction] = []
    if size:
        matrix = [[Fraction(0)] * size for _ in range(size)]
        rhs = [Fraction(0)] * size
        for v in members:
            r = index[v]
            d = adj[v].bit_count()
            matrix[r][r] = Fraction(1)
            for w in bits(adj[v]):
                if w == hit:
                    rhs[r] += Fraction(1, d)
                elif w != avoid:
                    matrix[r][index[w]] -= Fraction(1, d)
        sol = solve_rational(matrix, rhs)
    for v in range(g.n):
        if v == hit:
            probs[v] = Fraction(1)
        elif v == avoid:
            probs[v] = Fraction(0)
        elif comp_hit >> v & 1:
            probs[v] = sol[index[v]]
        else:
            probs[v] = Fraction(0)
    return probs


# -- brute force -------------------------------------------------------------------


def brute_shapley(g: Graph, i: int) -> Fraction:
    """Shapley value of vertex i in the coverage game, averaged over every
    ordering of the players.  Independent of the closed-form path."""
    if g.n > BRUTE_CAP:
        raise SizeGuardError(f"brute shapley capped at n={BRUTE_CAP}")
    adj = g.adjacency()
    closed = [adj[v] | 1 << v for v in range(g.n)]
    total = 0
    for order in itertools.permutations(range(g.n)):
        cover = 0
        for v in order:
            new = cover | closed[v]
            if v == i:
                total += new.bit_count() - cover.bit_count()
                break
            cover = new
    return Fraction(total, math.factorial(g.n))


def _all_simple_paths(adj: tuple[int, ...], src: int, dst: int):
    stack = [(src, 1 << src, (src,))]
    while stack:
        v, seen, path = stack.pop()
        if v == dst:
            yield path
            continue
        for w in bits(adj[v] & ~seen):
            stack.append((w, seen | 1 << w, path + (w,)))


def brute_betweenness(g: Graph, i: int) -> Fraction:
    """Betweenness from full enumeration of simple paths per pair."""
    if g.n > BRUTE_CAP:
        raise SizeGuardError(f"brute betweenness capped at n={BRUTE_CAP}")
    adj = g.adjacency()
    total = Fraction(0)
    for y in range(g.n):
        for z in range(y + 1, g.n):
            if i in (y, z):
                continue
            paths = list(_all_simple_paths(adj, y, z))
            if not paths:
                continue
            shortest = min(len(p) for p in paths)
            on_shortest = [p for p in paths if len(p) == shortest]
            through = sum(1 for p in on_shortest if i in p)
            if through:
                total += Fraction(through, len(on_shortest))
    return total
