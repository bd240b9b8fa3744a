"""Truncated-centrality games: universality thresholds, the Pareto test,
greedy existence for linear centralities and the capped-growth construction.

Thresholds are exact rationals; ``None`` stands for an infinite threshold
(no truncation).  Truncating at the current value freezes any network into
a stable one; for increasing measures the two Pareto clauses characterize
the stable networks of the truncated game exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .census import colouring
from .centrality import Measure
from .errors import (
    ContractError,
    MalformedLineError,
    ParameterError,
    SizeGuardError,
    VertexRangeError,
)
from .game import EvalCache, GameSpec, NumericAgent, default_policy
from .graphs import Graph, graph_classes, pair_list, to_graph6
from .values import format_rational

MAXIMAL_MEMBER_CAP = 6

Threshold = Optional[Fraction]


def _check_increasing(measures: Sequence[Measure]) -> None:
    for m in measures:
        if not m.is_increasing:
            what = {
                "katz": "katz with the automatic alpha",
                "linear": "linear with a pair of weight 0",
            }.get(m.kind, m.kind)
            raise ParameterError(
                f"{what} is not an increasing measure; truncation analysis "
                "requires one"
            )


def _below(value, theta: Threshold) -> bool:
    return True if theta is None else value < theta


def truncated_game(measures: Sequence[Measure], thetas: Sequence[Threshold]) -> GameSpec:
    agents = tuple(NumericAgent(m, t) for m, t in zip(measures, thetas))
    return GameSpec(agents, default_policy(agents))


def universality_thresholds(
    g: Graph, measures: Sequence[Measure], cache: EvalCache | None = None
) -> tuple[Fraction, ...]:
    """Thresholds freezing g: each agent's threshold is its current value.

    Every edge then sits exactly at the plateau (dropping it strictly hurts)
    and no addition can raise a truncated value, so g is stable for the
    truncated game.
    """
    if len(measures) != g.n:
        raise ParameterError(f"{len(measures)} measures for {g.n} vertices")
    _check_increasing(measures)
    cache = cache or EvalCache()
    return tuple(cache.vector(m, g)[i] for i, m in enumerate(measures))


def pareto_check(
    g: Graph,
    measures: Sequence[Measure],
    thetas: Sequence[Threshold],
    cache: EvalCache | None = None,
) -> bool:
    """Two-clause stability test for truncated increasing games.

    Missing pair: at least one endpoint already sits at or above its
    threshold.  Present edge: removing it drops both endpoints strictly
    below their thresholds.
    """
    if not (len(measures) == len(thetas) == g.n):
        raise ParameterError("measures and thresholds must match the vertex count")
    _check_increasing(measures)
    cache = cache or EvalCache()
    values = [cache.vector(m, g)[i] for i, m in enumerate(measures)]
    for i, j in g.non_edges():
        if _below(values[i], thetas[i]) and _below(values[j], thetas[j]):
            return False
    for i, j in g.edges():
        l = g.remove_edge(i, j)
        if not _below(cache.vector(measures[i], l)[i], thetas[i]):
            return False
        if not _below(cache.vector(measures[j], l)[j], thetas[j]):
            return False
    return True


# ---------------------------------------------------------------------------
# greedy construction for linear centralities


def greedy_linear_apsn(
    weights: tuple[tuple[int, ...], ...], thetas: Sequence[Threshold]
) -> Graph:
    """Scan pairs by decreasing weight (ties: lexicographic) and keep an edge
    whenever both endpoints are still strictly below their thresholds.  A
    pair of weight 0 is never kept: its edge raises no value, so dropping it
    saves its cost."""
    n = len(weights)
    measure = Measure("linear", weights=tuple(tuple(row) for row in weights))
    if len(thetas) != n:
        raise ParameterError("threshold vector must match the weight table size")
    order = sorted(pair_list(n), key=lambda p: (-weights[p[0]][p[1]], p))
    g = Graph.empty(n)
    values = [Fraction(0)] * n
    for a, b in order:
        if not weights[a][b]:
            break  # the rest weigh 0 too
        if _below(values[a], thetas[a]) and _below(values[b], thetas[b]):
            g = g.add_edge(a, b)
            values[a] += weights[a][b]
            values[b] += weights[a][b]
    return g


# ---------------------------------------------------------------------------
# capped growth (regular measures)


@dataclass
class MaximalMemberResult:
    graph: Graph
    caps: tuple[Fraction, ...]

    def to_json(self) -> dict:
        return {
            "graph6": to_graph6(self.graph),
            "caps": [format_rational(c) for c in self.caps],
        }


def compute_caps(
    n: int,
    measures: Sequence[Measure],
    thetas: Sequence[Threshold],
    cache: EvalCache | None = None,
) -> tuple[Fraction, ...]:
    """Per-vertex caps: the largest value an agent still below its threshold
    can reach through one more edge, maximized over every graph on n
    vertices.  The separation property behind the capped growth (value after
    an addition is within the cap iff the value before it was below the
    threshold) is then checked exhaustively, and a violation is reported
    with the first witness in mask and pair order.  A relabeling that keeps
    ``census.colouring`` of the truncated game maps a vertex to one of its
    colour, so both passes walk one graph per class and keep a cap per
    colour.  Exact measures only: a float maximum depends on the labeling."""
    if not (len(measures) == len(thetas) == n):
        raise ParameterError("measures and thresholds must match the vertex count")
    if n > MAXIMAL_MEMBER_CAP:
        raise SizeGuardError(
            f"exhaustive cap computation is limited to n={MAXIMAL_MEMBER_CAP}; "
            "supply caps explicitly beyond that"
        )
    if not all(m.is_exact for m in measures):
        raise ParameterError("exhaustive caps need exact measures; supply caps explicitly")
    cache = cache or EvalCache()
    colours = colouring(truncated_game(measures, thetas))
    caps: dict[int, Fraction] = {}
    for _, _, _, k, before, after in _additions(n, measures, colours, cache):
        c = colours[k]
        if _below(before, thetas[k]) and (c not in caps or after > caps[c]):
            caps[c] = after
    filled = tuple(caps.get(c, Fraction(0)) for c in colours)
    for g, i, j, k, before, after in _additions(n, measures, colours, cache):
        if after <= filled[k] and not _below(before, thetas[k]):
            raise ContractError(
                "capped-growth precondition failed: on "
                f"{to_graph6(g)} adding ({i},{j}) keeps vertex {k} "
                "within its cap although it already met its threshold"
            )
    return filled


def _additions(n: int, measures: Sequence[Measure], colours, cache: EvalCache):
    """(g, i, j, k, k's values before and after) per endpoint k of each
    addition ij to one graph per class, in mask and pair order."""
    for mask in graph_classes(n, colours):
        g = Graph(n, mask)
        values = [cache.vector(m, g)[k] for k, m in enumerate(measures)]
        for i, j in g.non_edges():
            h = g.add_edge(i, j)
            for k in (i, j):
                yield g, i, j, k, values[k], cache.vector(measures[k], h)[k]


def maximal_member(
    n: int,
    measures: Sequence[Measure],
    thetas: Sequence[Threshold],
    caps: Sequence[Fraction] | None = None,
    cache: EvalCache | None = None,
) -> MaximalMemberResult:
    """Grow an edge-maximal graph whose values stay within the caps.

    Measures must be increasing (``_check_increasing``), and no value of
    an admitted kind falls when an edge is added anywhere, so a single pass
    in pair order is enough: once an addition overshoots a cap it stays
    overshot on every larger graph.
    """
    if len(measures) != n or len(thetas) != n:
        raise ParameterError("measures and thresholds must match the vertex count")
    if caps is not None and len(caps) != n:
        raise ParameterError(f"need one cap per vertex: {n} caps, got {len(caps)}")
    _check_increasing(measures)
    cache = cache or EvalCache()
    resolved = (
        tuple(Fraction(c) for c in caps)
        if caps is not None
        else compute_caps(n, measures, thetas, cache)
    )
    g = Graph.empty(n)
    for i, j in pair_list(n):
        h = g.add_edge(i, j)
        if all(cache.vector(measures[k], h)[k] <= resolved[k] for k in range(n)):
            g = h
    return MaximalMemberResult(g, resolved)


# ---------------------------------------------------------------------------
# weight-table file format


def read_weight_table(text: str) -> tuple[tuple[int, ...], ...]:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise MalformedLineError("empty weight table")
    try:
        n = int(lines[0])
    except ValueError:
        raise MalformedLineError(f"weight table header must be a vertex count, got {lines[0]!r}")
    table = [[0] * n for _ in range(n)]
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise MalformedLineError(f"weight line must be 'i j w', got {ln!r}")
        try:
            i, j, w = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise MalformedLineError(f"weight line must be 'i j w', got {ln!r}")
        if not (0 <= i < n and 0 <= j < n):
            raise VertexRangeError(f"weight entry ({i},{j}) outside 0..{n - 1}")
        if i == j:
            raise MalformedLineError("diagonal weights must stay zero")
        if w < 0:
            raise MalformedLineError("weights are nonnegative integers")
        table[i][j] = table[j][i] = w
    return tuple(tuple(row) for row in table)
