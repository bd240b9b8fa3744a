"""Centrality measures with exact rational arithmetic wherever possible.

Exact measures return Fractions; spectral measures (eigenvector, Katz,
PageRank) return floats and are tagged approximate.  The random-walk
vectors come from integer adjugates of reduced Laplacians.  Closeness,
decay, harmonic and eccentricity are read off one bitmask BFS distance
histogram per vertex; these and betweenness and game-theoretic centrality
sum integer numerators over one denominator and build a single Fraction per
value, shared through bounded memos.  Each spectral vector is one dense
numpy call: an ``eigh`` projection for eigenvector centrality, a linear
solve for Katz and PageRank.  The independent oracles these kernels are
checked against live with the tests.

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
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ParameterError
from .graphs import MAX_VERTICES, Graph, bits, component_masks
from .linalg import det_adjugate
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

#: eigenvalues of A this close to the largest one span the eigenvector
#: centrality eigenspace
EIG_TIE = 1e-9


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
    """The all-ones vector projected onto the eigenspace of the largest
    eigenvalue of A, normalised.

    The projection does not depend on the eigenbasis, so a tied top
    eigenvalue (disjoint components of equal spectral radius, or the empty
    graph, where every vector is an eigenvector) gets one well-defined
    vector.  Eigenvalues within ``EIG_TIE`` of the largest count as tied.
    """
    w, v = np.linalg.eigh(_adjacency_matrix(g))
    top = v[:, w > w[-1] - EIG_TIE]
    x = top @ top.sum(axis=0)
    return tuple((x / np.linalg.norm(x)).tolist())


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
    """The solution of (I - d P) x = (1 - d) / n 1, where P is the
    column-stochastic walk matrix and a dangling (isolated) vertex's column
    is uniform 1 / n."""
    d = 0.85 if damping is None else damping
    n = g.n
    a = _adjacency_matrix(g)
    deg = a.sum(axis=0)
    walk = np.where(deg > 0, a / np.maximum(deg, 1.0), 1.0 / n)
    x = np.linalg.solve(np.eye(n) - d * walk, np.full(n, (1.0 - d) / n))
    return tuple(x.tolist())


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
