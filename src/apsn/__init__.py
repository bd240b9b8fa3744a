"""Exact-arithmetic laboratory for centrality-driven network formation games.

Agents sit on the vertices of a small undirected graph and flip edges to
maximize a centrality measure at a vanishing per-edge cost.  The package
computes the measures exactly where mathematics allows, decides asymptotic
pairwise stability, enumerates stable networks exhaustively, tests the
structural characterizations that predict them, and runs the truncated-game
and threshold-learning constructions.
"""

__version__ = "0.1.0"

from .census import CensusResult, conjecture_report, run_census  # noqa: F401
from .game import (  # noqa: F401
    EvalCache,
    ExactPolicy,
    GameSpec,
    HomophilicAgent,
    HomophilyFunction,
    MonotoneAgent,
    NumericAgent,
    StabilityReport,
    TolerantPolicy,
    best_response_dynamics,
    epsilon_witness,
    finite_cost_check,
    is_apsn,
    uniform_game,
)
from .graphs import Graph, canonical_form, from_graph6, to_graph6  # noqa: F401
