"""Centrality measures with exact rational arithmetic wherever possible.

Exact measures return Fractions; spectral measures (eigenvector, Katz,
PageRank) return floats and are tagged approximate.  Brute-force oracles
(`brute_shapley`, `brute_betweenness`) and the rational walk solves
(`hitting_times`, `absorption_probabilities`) are deliberately independent
implementations kept for cross-checking the fast paths; the random-walk
vectors themselves come from integer adjugates of reduced Laplacians.
Closeness, decay, harmonic and eccentricity are read off one bitmask BFS
distance histogram per vertex; these and betweenness and game-theoretic
centrality sum integer numerators over one denominator and build a single
Fraction per value, shared through bounded memos.

Conventions for degenerate inputs, applied consistently throughout:

* closeness, random-walk closeness and eccentricity of an isolated vertex
  are 0 (their defining expressions divide by an empty sum there);
* decay and harmonic sums skip unreachable vertices (a vanishing
  contribution at infinite distance);
* betweenness sums over unordered pairs {y, z} with y != i != z, and a
  disconnected pair contributes 0.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConvergenceError, ParameterError, SizeGuardError
from .graphs import MAX_VERTICES, Graph, bits, component_masks, reachable_from
from .linalg import det_adjugate, solve_rational
from .values import Approx, Exact, Value

EXACT_KINDS = frozenset(
    {
        "degree",
        "linear",
        "closeness",
        "eccentricity",
        "rwcloseness",
        "decay",
        "harmonic",
        "betweenness",
        "rwbetweenness",
        "gametheoretic",
    }
)
APPROX_KINDS = frozenset({"eigenvector", "katz", "pagerank"})

#: Measures whose defining formula is a reciprocal of an (empty) sum at
#: isolated vertices; their conventional 0 there is excluded from axiom and
#: monotonicity checks because the formula itself is undefined at that point.
UNDEFINED_ON_ISOLATED = frozenset({"closeness", "rwcloseness", "eccentricity"})

EIG_TOLERANCE = 1e-12
EIG_MAX_ITER = 10**6
PAGERANK_TOLERANCE = 1e-12
PAGERANK_MAX_ITER = 10**6
BRUTE_CAP = 7


@dataclass(frozen=True)
class Measure:
    kind: str
    beta: Fraction | None = None  # decay
    alpha: float | None = None  # katz; None = auto
    damping: float | None = None  # pagerank
    weights: tuple[tuple[int, ...], ...] | None = None  # linear

    def __post_init__(self):
        if self.kind not in EXACT_KINDS | APPROX_KINDS:
            raise ParameterError(f"unknown measure kind {self.kind!r}")
        if self.kind == "decay":
            if self.beta is None or not (0 < self.beta < 1):
                raise ParameterError("decay requires a rational beta with 0 < beta < 1")
        if self.kind == "katz" and self.alpha is not None:
            if not (0 < self.alpha < 1):
                raise ParameterError("katz alpha must satisfy 0 < alpha < 1")
        if self.kind == "pagerank":
            d = 0.85 if self.damping is None else self.damping
            if not (0 < d < 1):
                raise ParameterError("pagerank damping must be in (0, 1)")
        if self.kind == "linear":
            w = self.weights
            if w is None:
                raise ParameterError("linear centrality requires a weight table")
            size = len(w)
            for i, row in enumerate(w):
                if len(row) != size:
                    raise ParameterError("weight table must be square")
                for j, x in enumerate(row):
                    if not isinstance(x, int) or x < 0:
                        raise ParameterError("linear weights are nonnegative integers")
                    if x != w[j][i]:
                        raise ParameterError("weight table must be symmetric")
                if row[i] != 0:
                    raise ParameterError("weight table diagonal must be zero")

    @property
    def is_exact(self) -> bool:
        return self.kind in EXACT_KINDS


def degree() -> Measure:
    return Measure("degree")


def linear(weights) -> Measure:
    return Measure("linear", weights=tuple(tuple(row) for row in weights))


def closeness() -> Measure:
    return Measure("closeness")


def eccentricity() -> Measure:
    return Measure("eccentricity")


def rw_closeness() -> Measure:
    return Measure("rwcloseness")


def decay(beta) -> Measure:
    return Measure("decay", beta=Fraction(beta))


def harmonic() -> Measure:
    return Measure("harmonic")


def betweenness() -> Measure:
    return Measure("betweenness")


def rw_betweenness() -> Measure:
    return Measure("rwbetweenness")


def eigenvector() -> Measure:
    return Measure("eigenvector")


def katz(alpha: float | None = None) -> Measure:
    return Measure("katz", alpha=alpha)


def pagerank(damping: float = 0.85) -> Measure:
    return Measure("pagerank", damping=damping)


def game_theoretic() -> Measure:
    return Measure("gametheoretic")


# ---------------------------------------------------------------------------
# shortest-path machinery shared by several measures


def _next_level(adj: tuple[int, ...], frontier: int, seen: int) -> int:
    """Vertices adjacent to the frontier that are not yet seen."""
    nxt = 0
    while frontier:
        low = frontier & -frontier
        nxt |= adj[low.bit_length() - 1]
        frontier ^= low
    return nxt & ~seen


def _distance_histograms(adj: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Per source s, (c_1, ..., c_D): c_d vertices lie at distance d from s
    and D is the largest finite distance.  Unreachable vertices are not
    counted, so an isolated vertex has the empty histogram."""
    out = []
    for s in range(len(adj)):
        seen = frontier = 1 << s
        hist = []
        while True:
            frontier = _next_level(adj, frontier, seen)
            if not frontier:
                break
            hist.append(frontier.bit_count())
            seen |= frontier
        out.append(tuple(hist))
    return out


def _shortest_paths(adj: tuple[int, ...]) -> list[tuple[list[int], list[int]]]:
    """Per source s, (levels, sigma): levels[d] is the mask of the vertices
    at distance d from s, sigma[v] the number of shortest s-v paths (0 when
    v is unreachable)."""
    n = len(adj)
    out = []
    for s in range(n):
        sigma = [0] * n
        sigma[s] = 1
        seen = frontier = 1 << s
        levels = [frontier]
        while True:
            nxt = _next_level(adj, frontier, seen)
            if not nxt:
                break
            rest = nxt
            while rest:
                low = rest & -rest
                w = low.bit_length() - 1
                preds = adj[w] & frontier
                count = 0
                while preds:
                    p = preds & -preds
                    count += sigma[p.bit_length() - 1]
                    preds ^= p
                sigma[w] = count
                rest ^= low
            levels.append(nxt)
            seen |= nxt
            frontier = nxt
        out.append((levels, sigma))
    return out


# ---------------------------------------------------------------------------
# exact vectors

_ZERO = Fraction(0)

#: lcm(1, ..., k) for k = 0..MAX_VERTICES
_LCM = tuple(math.lcm(*range(1, k + 1)) for k in range(MAX_VERTICES + 1))


@functools.cache
def _fraction(num: int, den: int) -> Fraction:
    """Fraction(num, den), one shared object per key.

    Vector memos hold many equal values; sharing them saves memory and a
    lookup is cheaper than building a Fraction.  Callers use keys from
    bounded sets for n <= 16: degree (degree, 1), at most 16 keys;
    closeness (1, distance sum), at most 120 sums;
    eccentricity (n - 1, largest distance), at most 225 keys; game-theoretic
    (numerator, lcm(1..n)), fewer than n * lcm(1..n) keys per n.
    """
    return Fraction(num, den)


def _degree_vector(g: Graph) -> tuple[Fraction, ...]:
    return tuple(_fraction(a.bit_count(), 1) for a in g.adjacency())


def _linear_vector(g: Graph, weights) -> tuple[Fraction, ...]:
    if len(weights) != g.n:
        raise ParameterError(f"weight table is {len(weights)}x{len(weights)}, graph has n={g.n}")
    adj = g.adjacency()
    return tuple(
        Fraction(sum(weights[i][j] for j in bits(adj[i]))) for i in range(g.n)
    )


@functools.cache
def _closeness_value(hist: tuple[int, ...]) -> Fraction:
    """1 / (sum of distances), or 0 for an isolated vertex.  Keyed by the
    distance histogram: at most 2^(n-1) histograms on n vertices, 32,768
    for n <= 16."""
    total = sum(d * c for d, c in enumerate(hist, 1))
    return _fraction(1, total) if total else _ZERO


@functools.cache
def _harmonic_value(hist: tuple[int, ...]) -> Fraction:
    """sum_d c_d / d over the common denominator lcm(1..D).  Keyed by the
    distance histogram: at most 2^(n-1) histograms on n vertices, 32,768
    for n <= 16."""
    den = _LCM[len(hist)]
    return Fraction(sum(c * (den // d) for d, c in enumerate(hist, 1)), den)


@functools.cache
def _decay_value(p: int, q: int, hist: tuple[int, ...]) -> Fraction:
    """sum_d c_d beta^d for beta = p/q, as the integer Horner sum
    sum_d c_d p^d q^(D-d) over q^D.  Keyed by beta and the distance
    histogram: at most 32,768 histograms per beta for n <= 16."""
    num = 0
    power = 1
    for c in hist:
        power *= p
        num = num * q + c * power
    return Fraction(num, q ** len(hist))


def _closeness_vector(g: Graph) -> tuple[Fraction, ...]:
    return tuple(map(_closeness_value, _distance_histograms(g.adjacency())))


def _harmonic_vector(g: Graph) -> tuple[Fraction, ...]:
    return tuple(map(_harmonic_value, _distance_histograms(g.adjacency())))


def _decay_vector(g: Graph, beta: Fraction) -> tuple[Fraction, ...]:
    p, q = beta.numerator, beta.denominator
    return tuple(_decay_value(p, q, hist) for hist in _distance_histograms(g.adjacency()))


def _eccentricity_vector(g: Graph) -> tuple[Fraction, ...]:
    # (n-1) / max distance within the own component; 0 for isolated vertices.
    return tuple(
        _fraction(g.n - 1, len(hist)) if hist else _ZERO
        for hist in _distance_histograms(g.adjacency())
    )


def _betweenness_vector(g: Graph) -> tuple[Fraction, ...]:
    """Pair (y, z) at distance D >= 2 gives vertex i on a shortest y-z path
    (at distance k from y and D - k from z) sigma_yi sigma_iz / sigma_yz.
    The terms are summed as integers over the lcm of all sigma_yz."""
    n = g.n
    paths = _shortest_paths(g.adjacency())
    pairs = []
    for y in range(n):
        levels = paths[y][0]
        for dist in range(2, len(levels)):
            rest = levels[dist] & ~((2 << y) - 1)  # z > y
            while rest:
                low = rest & -rest
                pairs.append((y, low.bit_length() - 1, dist))
                rest ^= low
    if not pairs:
        return (_ZERO,) * n
    den = math.lcm(*(paths[y][1][z] for y, z, _ in pairs))
    num = [0] * n
    for y, z, dist in pairs:
        levels_y, sigma_y = paths[y]
        levels_z, sigma_z = paths[z]
        scale = den // sigma_y[z]
        for k in range(1, dist):
            inner = levels_y[k] & levels_z[dist - k]
            while inner:
                low = inner & -inner
                i = low.bit_length() - 1
                num[i] += sigma_y[i] * sigma_z[i] * scale
                inner ^= low
    return tuple(Fraction(x, den) if x else _ZERO for x in num)


def _gametheoretic_vector(g: Graph) -> tuple[Fraction, ...]:
    """Sum over the closed neighbourhood of 1 / (degree + 1), as integers
    lcm(1..n) / (degree + 1) over lcm(1..n)."""
    adj = g.adjacency()
    den = _LCM[g.n]
    share = [den // (a.bit_count() + 1) for a in adj]
    out = []
    for i, a in enumerate(adj):
        num = share[i]
        while a:
            low = a & -a
            num += share[low.bit_length() - 1]
            a ^= low
        out.append(_fraction(num, den))
    return tuple(out)


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


def _reduced_laplacian_adjugates(g: Graph):
    """(k, rest, det L_k, adj L_k) for every vertex k of every component C
    with |C| > 1, where L_k is the integer Laplacian D - A on rest = C - {k}.

    L_k is symmetric positive definite (C is connected), so `det_adjugate`
    needs no pivoting, and L_k^-1 = adj L_k / det L_k is the Green's function
    of the walk absorbed at k, scaled by 1/degree.
    """
    adj = g.adjacency()
    for comp in component_masks(g):
        members = list(bits(comp))
        if len(members) < 2:
            continue
        for k in members:
            rest = [v for v in members if v != k]
            matrix = []
            for p, v in enumerate(rest):
                row = [-(adj[v] >> w & 1) for w in rest]
                row[p] = adj[v].bit_count()
                matrix.append(row)
            det, adjugate = det_adjugate(matrix)
            yield k, rest, det, adjugate


def _rwcloseness_vector(g: Graph) -> tuple[Fraction, ...]:
    """1 / (sum of hitting times to t).  The hitting times solve L_t H = d,
    so the vertex's value is det L_t / (1^T adj(L_t) d)."""
    adj = g.adjacency()
    out = [Fraction(0)] * g.n
    for t, rest, det, adjugate in _reduced_laplacian_adjugates(g):
        deg = [adj[v].bit_count() for v in rest]
        total = sum(sum(x * d for x, d in zip(row, deg)) for row in adjugate)
        out[t] = Fraction(det, total)
    return tuple(out)


def _rwbetweenness_vector(g: Graph) -> tuple[Fraction, ...]:
    """Sum over ordered pairs (j, k) of the probability that a walk started
    at j with absorbing vertex k passes through i, for j, k in Conn(i) - {i}
    (other pairs contribute 0).

    P[walk from j hits i before k] = adj(L_k)[j][i] / adj(L_k)[i][i], so each
    k adds the off-diagonal sum of column i of adj(L_k) over its diagonal
    entry.  The sums run over integers and become one Fraction per vertex.
    """
    num = [0] * g.n
    den = [1] * g.n
    for _k, rest, _det, adjugate in _reduced_laplacian_adjugates(g):
        for p, i in enumerate(rest):
            diag = adjugate[p][p]
            off = sum(row[p] for row in adjugate) - diag
            num[i] = num[i] * diag + off * den[i]
            den[i] *= diag
    return tuple(Fraction(x, d) for x, d in zip(num, den))


# ---------------------------------------------------------------------------
# approximate vectors


def _adjacency_matrix(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n))
    for i, j in g.edges():
        a[i, j] = a[j, i] = 1.0
    return a


def spectral_radius_bound(g: Graph) -> int:
    return max(1, max(g.degrees(), default=0))


def _eigenvector_vector(g: Graph) -> tuple[float, ...]:
    n = g.n
    if g.mask == 0:
        # zero matrix: power iteration below would stall on the unit shift,
        # and any vector is an eigenvector; report the uniform one.
        return tuple([1.0 / math.sqrt(n)] * n)
    a = _adjacency_matrix(g)
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
    raise ConvergenceError("eigenvector power iteration did not converge")


def _resolve_katz_alpha(m: Measure, g: Graph) -> float:
    if m.alpha is not None:
        lam = float(np.max(np.abs(np.linalg.eigvalsh(_adjacency_matrix(g))))) if g.mask else 0.0
        if m.alpha * lam >= 1:
            raise ParameterError(
                f"katz alpha {m.alpha} times spectral radius {lam:.6f} is >= 1"
            )
        return m.alpha
    return 1.0 / (2.0 * spectral_radius_bound(g))


def _katz_vector(g: Graph, m: Measure) -> tuple[float, ...]:
    alpha = _resolve_katz_alpha(m, g)
    a = _adjacency_matrix(g)
    rhs = alpha * (a @ np.ones(g.n))
    sol = np.linalg.solve(np.eye(g.n) - alpha * a, rhs)
    return tuple(float(v) for v in sol)


def _pagerank_vector(g: Graph, damping: float | None) -> tuple[float, ...]:
    d = 0.85 if damping is None else damping
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
    raise ConvergenceError("pagerank power iteration did not converge")


# ---------------------------------------------------------------------------
# public entry points


def centrality_vector(m: Measure, g: Graph):
    """All vertices' centrality values as raw numbers (Fraction or float)."""
    kind = m.kind
    if kind == "degree":
        return _degree_vector(g)
    if kind == "linear":
        return _linear_vector(g, m.weights)
    if kind == "closeness":
        return _closeness_vector(g)
    if kind == "eccentricity":
        return _eccentricity_vector(g)
    if kind == "rwcloseness":
        return _rwcloseness_vector(g)
    if kind == "decay":
        return _decay_vector(g, m.beta)
    if kind == "harmonic":
        return _harmonic_vector(g)
    if kind == "betweenness":
        return _betweenness_vector(g)
    if kind == "rwbetweenness":
        return _rwbetweenness_vector(g)
    if kind == "gametheoretic":
        return _gametheoretic_vector(g)
    if kind == "eigenvector":
        return _eigenvector_vector(g)
    if kind == "katz":
        return _katz_vector(g, m)
    if kind == "pagerank":
        return _pagerank_vector(g, m.damping)
    raise ParameterError(f"unknown measure kind {kind!r}")


def centrality(m: Measure, g: Graph, i: int, tol: float = 1e-9) -> Value:
    if not 0 <= i < g.n:
        raise ParameterError(f"vertex {i} outside 0..{g.n - 1}")
    raw = centrality_vector(m, g)[i]
    return Exact(raw) if m.is_exact else Approx(float(raw), tol)


# ---------------------------------------------------------------------------
# independent brute-force oracles


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
