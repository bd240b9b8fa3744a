"""Centrality measures with exact rational arithmetic wherever possible.

Exact measures return Fractions; spectral measures (eigenvector, Katz,
PageRank) return floats and are tagged approximate.  The random-walk
vectors come from integer adjugates of reduced Laplacians.  Closeness,
decay, harmonic and eccentricity are read off the bitmask BFS distance
histogram of one vertex; these and betweenness and game-theoretic centrality
sum integer numerators over one denominator and build a single Fraction per
value, shared through bounded memos.  Each spectral vector is one dense
numpy call: an ``eigh`` projection for eigenvector centrality, a linear
solve for Katz and PageRank.  The independent oracles these kernels are
checked against live with the tests.

``KINDS`` maps every measure kind to its kernel and to every fact about the
kind that other modules need; no other module keeps a list of kinds.  The
local kinds (degree, linear, closeness, eccentricity, decay, harmonic and
game-theoretic) compute one vertex's value from the adjacency rows, so the
flip engine evaluates an endpoint without building a whole vector.

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
from typing import Callable, Sequence

import numpy as np

from .errors import ParameterError
from .graphs import MAX_VERTICES, Graph, bits, component_masks
from .linalg import det_adjugate
from .values import Approx, Exact, Value

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
        if self.kind not in KINDS:
            raise ParameterError(f"unknown measure kind {self.kind!r}")
        if self.kind == "decay":
            if self.beta is None or not (0 < self.beta < 1):
                raise ParameterError("decay requires a rational beta with 0 < beta < 1")
        if self.kind == "katz" and self.alpha is not None:
            if not (0 < self.alpha < 1):
                raise ParameterError("katz alpha must satisfy 0 < alpha < 1")
        if self.kind == "pagerank":
            if self.damping is None:
                object.__setattr__(self, "damping", 0.85)
            if not (0 < self.damping < 1):
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
        return KINDS[self.kind].exact

    @property
    def is_increasing(self) -> bool:
        """Every vertex strictly gains from each edge it adds, on every graph
        of every size: truncation analysis needs it.  Katz with a fixed alpha
        counts walks, and the new edge is a new walk for both endpoints; the
        automatic alpha halves when the largest degree grows, and PageRank
        loses at n = 6 (the K_2 endpoint of K_4 + K_2 joining the K_4).  A
        linear centrality gains nothing from a pair of weight 0."""
        if self.kind == "katz":
            return self.alpha is not None
        if self.kind == "linear":
            w = self.weights
            return all(w[i][j] for i in range(len(w)) for j in range(len(w)) if i != j)
        return KINDS[self.kind].rule == "1"


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


def _distance_histogram(adj, s: int) -> tuple[int, ...]:
    """(c_1, ..., c_D): c_d vertices lie at distance d from s and D is the
    largest finite distance.  Unreachable vertices are not counted, so an
    isolated vertex has the empty histogram."""
    seen = frontier = 1 << s
    hist = []
    while True:
        nxt = 0  # _next_level, inlined: this loop is the flip engine's hot path
        while frontier:
            low = frontier & -frontier
            nxt |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & ~seen
        if not frontier:
            return tuple(hist)
        hist.append(frontier.bit_count())
        seen |= frontier


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


def _degree_at(adj, v: int, m: Measure) -> Fraction:
    return _fraction(adj[v].bit_count(), 1)


def _linear_at(adj, v: int, m: Measure) -> Fraction:
    weights = m.weights
    if len(weights) != len(adj):
        raise ParameterError(
            f"weight table is {len(weights)}x{len(weights)}, graph has n={len(adj)}"
        )
    return Fraction(sum(weights[v][j] for j in bits(adj[v])))


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


def _closeness_at(adj, v: int, m: Measure) -> Fraction:
    return _closeness_value(_distance_histogram(adj, v))


def _harmonic_at(adj, v: int, m: Measure) -> Fraction:
    return _harmonic_value(_distance_histogram(adj, v))


def _decay_at(adj, v: int, m: Measure) -> Fraction:
    beta = m.beta
    return _decay_value(beta.numerator, beta.denominator, _distance_histogram(adj, v))


def _eccentricity_at(adj, v: int, m: Measure) -> Fraction:
    # (n-1) / max distance within the own component; 0 for isolated vertices.
    hist = _distance_histogram(adj, v)
    return _fraction(len(adj) - 1, len(hist)) if hist else _ZERO


def _betweenness_vector(g: Graph, m: Measure) -> tuple[Fraction, ...]:
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


def _gametheoretic_at(adj, v: int, m: Measure) -> Fraction:
    """Sum over the closed neighbourhood of 1 / (degree + 1), as integers
    lcm(1..n) / (degree + 1) over lcm(1..n)."""
    den = _LCM[len(adj)]
    a = adj[v]
    num = den // (a.bit_count() + 1)
    while a:
        low = a & -a
        num += den // (adj[low.bit_length() - 1].bit_count() + 1)
        a ^= low
    return _fraction(num, den)


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


def _rwcloseness_vector(g: Graph, m: Measure) -> tuple[Fraction, ...]:
    """1 / (sum of hitting times to t).  The hitting times solve L_t H = d,
    so the vertex's value is det L_t / (1^T adj(L_t) d)."""
    adj = g.adjacency()
    out = [Fraction(0)] * g.n
    for t, rest, det, adjugate in _reduced_laplacian_adjugates(g):
        deg = [adj[v].bit_count() for v in rest]
        total = sum(sum(x * d for x, d in zip(row, deg)) for row in adjugate)
        out[t] = Fraction(det, total)
    return tuple(out)


def _rwbetweenness_vector(g: Graph, m: Measure) -> tuple[Fraction, ...]:
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


def _eigenvector_vector(g: Graph, m: Measure) -> tuple[float, ...]:
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


def _pagerank_vector(g: Graph, m: Measure) -> tuple[float, ...]:
    """The solution of (I - d P) x = (1 - d) / n 1, where P is the
    column-stochastic walk matrix and a dangling (isolated) vertex's column
    is uniform 1 / n."""
    d = m.damping
    n = g.n
    a = _adjacency_matrix(g)
    deg = a.sum(axis=0)
    walk = np.where(deg > 0, a / np.maximum(deg, 1.0), 1.0 / n)
    x = np.linalg.solve(np.eye(n) - d * walk, np.full(n, (1.0 - d) / n))
    return tuple(x.tolist())


# ---------------------------------------------------------------------------
# the measure-kind table


@dataclass(frozen=True)
class Kind:
    """A measure kind's kernel ``vector(g, m)`` (most kernels read only g)
    and the facts other modules ask about it.

    A local kind's value at v comes from the adjacency rows alone: its one
    kernel is ``at(adj, v, m)``, and its ``vector`` is that kernel at every
    vertex.  A global kind has ``at = None``.

    ``rule`` says when an untruncated agent gains from an edge ko added to
    lo, the graph without it, on every graph (``game.rule_of``), so that
    ``game._decided_blocks`` decides it from pair masks.  "1", always:
    degree, decay and harmonic, since ko adds a neighbour and lengthens no
    distance.  "2 or isolated", when o is in k's component of lo or k is
    isolated there: closeness, since d(k, o) falls to 1 inside and the
    distance sum grows by o's component across.  "homophily", when
    d_o <= (d_k + 1)(d_k + 2) - 3 in lo (``game.GT_HOMOPHILY``, read off
    lo's degrees): game-theoretic centrality, since ko turns k's term
    1 / (d_k + 1) into 1 / (d_k + 2) and adds o's 1 / (d_o + 2), a change
    of 1 / (d_o + 2) - 1 / ((d_k + 1)(d_k + 2)) (Michalak et al., JAIR 2013).
    Random-walk closeness obeys "2 or isolated" too (checked on every class
    to n = 7), but waits for ``perfbench``'s ``RefClock`` to probe at a
    phase's start: a census-walk pass decided from components ends before its
    first probe."""

    vector: Callable[[Graph, Measure], tuple]
    at: Callable[[Sequence[int], int, Measure], Fraction] | None = None
    exact: bool = True  # Fractions, not tagged floats
    solve: bool = False  # a linear solve or eigendecomposition per graph: census cap
    undefined_on_isolated: bool = False  # empty sum at an isolated vertex: axiom checks skip it
    labeled: bool = False  # reads vertex labels: a census colours every vertex apart
    rule: str | None = None  # when a vertex gains from an added edge, from lo's facts


def _vector_at(at, g: Graph, m: Measure) -> tuple:
    adj = g.adjacency()
    return tuple([at(adj, v, m) for v in range(g.n)])


def _local(at, **facts) -> Kind:
    return Kind(functools.partial(_vector_at, at), at, **facts)


KINDS: dict[str, Kind] = {
    "degree": _local(_degree_at, rule="1"),
    "linear": _local(_linear_at, labeled=True),
    "closeness": _local(_closeness_at, undefined_on_isolated=True, rule="2 or isolated"),
    "eccentricity": _local(_eccentricity_at, undefined_on_isolated=True),
    "rwcloseness": Kind(_rwcloseness_vector, solve=True, undefined_on_isolated=True),
    "decay": _local(_decay_at, rule="1"),
    "harmonic": _local(_harmonic_at, rule="1"),
    "betweenness": Kind(_betweenness_vector),
    "rwbetweenness": Kind(_rwbetweenness_vector, solve=True),
    "gametheoretic": _local(_gametheoretic_at, rule="homophily"),
    "eigenvector": Kind(_eigenvector_vector, exact=False, solve=True),
    "katz": Kind(_katz_vector, exact=False, solve=True),
    "pagerank": Kind(_pagerank_vector, exact=False, solve=True),
}


# ---------------------------------------------------------------------------
# public entry points


def centrality_vector(m: Measure, g: Graph):
    """All vertices' centrality values as raw numbers (Fraction or float)."""
    return KINDS[m.kind].vector(g, m)


def centrality(m: Measure, g: Graph, i: int) -> Value:
    if not 0 <= i < g.n:
        raise ParameterError(f"vertex {i} outside 0..{g.n - 1}")
    raw = centrality_vector(m, g)[i]
    return Exact(raw) if m.is_exact else Approx(float(raw))
