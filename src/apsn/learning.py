"""Oracle model for learning truncation thresholds from stable networks.

The hidden game fixes measures and thresholds; the oracle knows its full
stable set.  Asked about (g, i) it answers with a stable network giving
agent i strictly more raw centrality, or NONE.  Climbing those answers from
the empty network corners the agent's threshold inside one edge flip:
[value without one incident edge, value at the final network].

Thresholds are identifiable only up to that interval: flips move the
measure in jumps, so any two thresholds between the same pair of reachable
values behave identically.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .census import run_census
from .errors import ContractError, ParameterError
from .game import EvalCache, GameSpec, NumericAgent
from .graphs import Graph, canonical_form, to_graph6
from .values import format_rational


class ApsnOracle:
    """Answers improvement queries from the precomputed stable set of a
    hidden truncated game."""

    def __init__(self, hidden: GameSpec, cache: EvalCache | None = None, jobs: int = 1):
        for agent in hidden.agents:
            if not isinstance(agent, NumericAgent) or not agent.measure.is_exact:
                raise ContractError("threshold learning needs exact numeric agents")
            if agent.threshold is None:
                raise ContractError("hidden agents must carry finite thresholds")
        self.hidden = hidden
        self.n = hidden.n
        self.cache = cache or EvalCache()
        self._census = run_census(hidden, self.n, jobs=jobs, cache=self.cache)
        self.stable = [Graph(self.n, m) for m in self._census.stable_masks]
        self.queries = 0
        self.transcript: list[tuple[str, Optional[str]]] = []

    def _raw(self, g: Graph, i: int) -> Fraction:
        return self.cache.vector(self.hidden.agents[i].measure, g)[i]

    def query(self, g: Graph, i: int) -> Optional[Graph]:
        """A stable network strictly better for agent i, or None.

        Among the improvements the one maximizing i's value is returned,
        ties broken by smallest canonical form, then smallest mask."""
        self.queries += 1
        current = self._raw(g, i)
        best: Optional[Graph] = None
        best_key = None
        for h in self.stable:
            val = self._raw(h, i)
            if val > current:
                key = (-val, canonical_form(h), h.mask)
                if best_key is None or key < best_key:
                    best, best_key = h, key
        self.transcript.append((to_graph6(g), to_graph6(best) if best else None))
        return best

    def hypothesis_holds(self, i: int) -> bool:
        """Is some stable network at or above agent i's hidden threshold?"""
        theta = self.hidden.agents[i].threshold
        return any(self._raw(h, i) >= theta for h in self.stable)


@dataclass
class LearnResult:
    final: Graph
    edge: Optional[tuple[int, int]]
    low: Fraction
    high: Fraction
    queries: int
    transcript: list[tuple[str, Optional[str]]]
    hypothesis_ok: bool
    no_adjacent_edge: bool = False

    def to_json(self) -> dict:
        return {
            "final": to_graph6(self.final),
            "edge": list(self.edge) if self.edge else None,
            "interval": [format_rational(self.low), format_rational(self.high)],
            "queries": self.queries,
            "transcript": [
                {"query": q, "answer": a} for q, a in self.transcript
            ],
            "hypothesis_ok": self.hypothesis_ok,
            "no_adjacent_edge": self.no_adjacent_edge,
        }


def learn_threshold(oracle: ApsnOracle, i: int) -> LearnResult:
    """Climb oracle answers from the empty network, then read the interval
    off any edge at the agent: the value with that edge bounds the threshold
    from above (by the climbing hypothesis), the value without it from below
    (the agent kept paying for the edge, so dropping it must cost centrality).

    When the final network leaves the agent isolated the interval collapses
    to a point; with an unverifiable hypothesis the result carries the flag
    rather than a correction.
    """
    if not 0 <= i < oracle.n:
        raise ParameterError(f"agent {i} outside 0..{oracle.n - 1}")
    start = len(oracle.transcript)
    g = Graph.empty(oracle.n)
    while True:
        answer = oracle.query(g, i)
        if answer is None:
            break
        g = answer
    queries = len(oracle.transcript) - start
    transcript = oracle.transcript[start:]
    hypothesis_ok = oracle.hypothesis_holds(i)
    high = oracle._raw(g, i)
    neighbors = g.neighbors(i)
    if not neighbors:
        return LearnResult(
            g, None, high, high, queries, transcript, hypothesis_ok, no_adjacent_edge=True
        )
    j = min(neighbors)
    low = oracle._raw(g.remove_edge(i, j), i)
    return LearnResult(g, (i, j), low, high, queries, transcript, hypothesis_ok)
