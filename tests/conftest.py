import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def shared_cache():
    """One evaluation cache for the whole run; exhaustive suites share the
    per-graph centrality vectors this way."""
    from apsn.game import EvalCache

    return EvalCache()


@pytest.fixture()
def one_measure_per_kind():
    """A measure of every kind in ``KINDS`` but linear, whose weight table
    fixes n: decay 1/2, Katz alpha 0.1, PageRank damping 0.85 and the
    parameterless kinds."""
    from apsn.centrality import KINDS, Measure, decay, katz, pagerank

    params = {"decay": decay(Fraction(1, 2)), "katz": katz(0.1), "pagerank": pagerank(0.85)}
    return [params.get(kind) or Measure(kind) for kind in KINDS if kind != "linear"]


@pytest.fixture()
def rng():
    return random.Random(20240817)
