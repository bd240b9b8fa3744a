import random
from fractions import Fraction

import pytest

from apsn.centrality import (
    betweenness,
    closeness,
    decay,
    degree,
    eigenvector,
    game_theoretic,
    harmonic,
    pagerank,
)
from apsn.errors import ContractError, SpecValidationError
from apsn.game import (
    EvalCache,
    ExactPolicy,
    GameSpec,
    HomophilicAgent,
    HomophilyFunction,
    MonotoneAgent,
    NumericAgent,
    TolerantPolicy,
    best_response_dynamics,
    candidate_flips,
    delta_add,
    delta_remove,
    epsilon_witness,
    finite_cost_check,
    improving_add,
    improving_remove,
    is_apsn,
    uniform_game,
)
from apsn.graphs import Graph, enumerate_labeled_graphs, graph_count
from apsn.values import Exact, sign_with_band
from oracles import eigenvector_by_iteration, pagerank_by_iteration


def numeric_game(n, measure, threshold=None):
    return uniform_game(n, NumericAgent(measure, threshold))


def rule_game(n, kind):
    return uniform_game(n, MonotoneAgent(kind))


# -- deltas ---------------------------------------------------------------------


def test_degree_deltas_are_unit():
    spec = numeric_game(4, degree())
    g = Graph.empty(4)
    di, dj = delta_add(spec, g, 0, 1)
    assert di == Exact(Fraction(1)) and dj == Exact(Fraction(1))


def test_closeness_cross_component_deltas_strictly_negative():
    spec = numeric_game(4, closeness())
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    di, dj = delta_add(spec, g, 0, 2)
    assert di.value < 0 and dj.value < 0


def test_truncated_degree_plateau_delta_is_zero():
    spec = numeric_game(4, degree(), threshold=Fraction(2))
    g = Graph.from_edges(4, [(0, 1), (0, 2)])
    di, _ = delta_add(spec, g, 0, 3)
    assert di == Exact(Fraction(0))


def test_delta_on_rule_agent_is_contract_error():
    spec = rule_game(3, "1")
    with pytest.raises(ContractError):
        delta_add(spec, Graph.empty(3), 0, 1)


def test_delta_remove_requires_edge():
    spec = numeric_game(3, degree())
    with pytest.raises(ContractError):
        delta_remove(spec, Graph.empty(3), 0, 1)


# -- improving moves ---------------------------------------------------------------


def test_type1_agents_always_add_never_remove():
    spec = rule_game(4, "1")
    g = Graph.from_edges(4, [(0, 1)])
    assert improving_add(spec, g, 2, 3)
    assert not improving_remove(spec, g, 0, 1)


def test_type2p_intra_component_add_refused():
    spec = rule_game(4, "2p")
    g = Graph.from_edges(4, [(0, 1), (1, 2)])
    assert not improving_add(spec, g, 0, 2)
    assert improving_add(spec, Graph.empty(4), 0, 1)


def test_gt_agents_never_link_isolated_vertices():
    spec = numeric_game(4, game_theoretic())
    g = Graph.empty(4)
    for i, j in g.non_edges():
        assert not improving_add(spec, g, i, j)


def test_decay_agents_keep_complete_graph():
    spec = numeric_game(4, decay(Fraction(1, 2)))
    g = Graph.complete(4)
    for i, j in g.edges():
        assert not improving_remove(spec, g, i, j)


def test_pendant_betweenness_removal_is_improving():
    spec = numeric_game(3, betweenness())
    g = Graph.path(3)
    # the pendant keeps betweenness 0 after disconnecting, so it benefits
    assert improving_remove(spec, g, 0, 1)


# -- stability ----------------------------------------------------------------------


def test_decay_k4_stable_and_subgraphs_unstable():
    spec = numeric_game(4, decay(Fraction(1, 2)))
    assert is_apsn(spec, Graph.complete(4)).stable
    report = is_apsn(spec, Graph.complete(4).remove_edge(0, 1))
    assert not report.stable
    assert report.blocking_flips


def test_betweenness_cycle_stable():
    spec = numeric_game(4, betweenness())
    assert is_apsn(spec, Graph.cycle(4)).stable


def test_report_invariants():
    spec = numeric_game(4, degree())
    report = is_apsn(spec, Graph.empty(4))
    assert report.stable == (not report.blocking_flips)
    assert not report.ambiguous_flips  # exact policy never produces any


def test_is_apsn_isomorphism_invariant_uniform_profile():
    spec = numeric_game(5, harmonic())
    cache = EvalCache()
    rnd = random.Random(13)
    for _ in range(25):
        g = Graph(5, rnd.randrange(graph_count(5)))
        perm = list(range(5))
        rnd.shuffle(perm)
        h = g.relabel(tuple(perm))
        assert is_apsn(spec, g, cache).stable == is_apsn(spec, h, cache).stable


def test_addition_removal_duality_exhaustive_n4():
    for measure in (degree(), harmonic(), game_theoretic()):
        spec = numeric_game(4, measure)
        cache = EvalCache()
        for g in enumerate_labeled_graphs(4):
            for i, j in g.non_edges():
                di, dj = delta_add(spec, g, i, j, cache)
                h = g.add_edge(i, j)
                expected = di.value <= 0 or dj.value <= 0
                assert improving_remove(spec, h, i, j, cache) == expected


# -- policies ---------------------------------------------------------------------


def test_mixed_exact_approx_rejected():
    with pytest.raises(SpecValidationError):
        GameSpec((NumericAgent(degree()), NumericAgent(eigenvector())), TolerantPolicy())


def test_approx_requires_tolerant_policy():
    with pytest.raises(SpecValidationError):
        uniform_game(3, NumericAgent(eigenvector()), ExactPolicy())
    uniform_game(3, NumericAgent(eigenvector()), TolerantPolicy())  # fine


def test_engine_reads_a_float_zero_as_a_confident_zero():
    # at n = 2 every eigenvector delta is float noise within the tolerance:
    # a zero gain refuses the addition and a zero loss accepts the removal
    spec = uniform_game(2, NumericAgent(eigenvector()), TolerantPolicy())
    empty = is_apsn(spec, Graph.empty(2))
    k2 = is_apsn(spec, Graph.complete(2))
    assert empty.verdict == "stable" and not empty.ambiguous_flips
    assert k2.verdict == "unstable" and not k2.ambiguous_flips
    assert [flip_key(f) for f in k2.blocking_flips] == [("remove", 0, 1)]


def test_agent_count_checked_at_bind():
    spec = numeric_game(3, degree())
    with pytest.raises(SpecValidationError):
        is_apsn(spec, Graph.empty(4))


# -- finite cost bridge ---------------------------------------------------------------


def test_k3_degree_costs():
    spec = numeric_game(3, degree())
    g = Graph.complete(3)
    assert finite_cost_check(spec, g, Fraction(1, 2))
    assert not finite_cost_check(spec, g, Fraction(2))


def test_witness_bridges_asymptotic_and_finite_exhaustive_n4():
    for measure in (degree(), harmonic(), closeness(), game_theoretic()):
        spec = numeric_game(4, measure)
        cache = EvalCache()
        for g in enumerate_labeled_graphs(4):
            eps = epsilon_witness(spec, g, cache)
            assert eps > 0
            assert is_apsn(spec, g, cache).stable == finite_cost_check(spec, g, eps, cache)


def test_witness_defaults_to_one_when_all_deltas_vanish():
    spec = numeric_game(2, degree(), threshold=Fraction(0))
    assert epsilon_witness(spec, Graph.empty(2)) == 1


# -- dynamics ----------------------------------------------------------------------


def test_decay_dynamics_reaches_complete_graph():
    spec = numeric_game(4, decay(Fraction(1, 2)))
    traj = best_response_dynamics(spec, Graph.empty(4), 50, seed=1)
    assert traj.converged
    assert traj.final == Graph.complete(4)


def test_decreasing_rule_dynamics_reaches_empty_graph():
    spec = rule_game(4, "1p")
    traj = best_response_dynamics(spec, Graph.complete(4), 50, seed=2)
    assert traj.converged
    assert traj.final == Graph.empty(4)


def test_dynamics_seed_determinism():
    spec = numeric_game(5, decay(Fraction(1, 3)))
    a = best_response_dynamics(spec, Graph.empty(5), 50, seed=7)
    b = best_response_dynamics(spec, Graph.empty(5), 50, seed=7)
    assert [f.to_json() for f in a.steps] == [f.to_json() for f in b.steps]
    assert a.final == b.final


def test_candidate_flip_order_additions_then_removals():
    for n in range(1, 5):
        for g in enumerate_labeled_graphs(n):
            expected = [("add", i, j) for i, j in g.non_edges()]
            expected += [("remove", i, j) for i, j in g.edges()]
            assert list(candidate_flips(g)) == expected, g


def flip_key(f):
    return (f.kind, f.i, f.j)


def ambiguous_by_band(kind, deltas):
    """Whether a flip's verdict rests on a near-band delta: no endpoint
    settles it confidently (a confident refusal of an addition, a confident
    acceptance of a removal) and some endpoint is in the band."""
    classes = [
        ((d.value > 0) - (d.value < 0), False)
        if isinstance(d, Exact)
        else sign_with_band(d.value, d.tol)
        for d in deltas
    ]
    if kind == "add":
        settled = any(sign <= 0 and not band for sign, band in classes)
    else:
        settled = any(sign >= 0 and not band for sign, band in classes)
    return not settled and any(band for _, band in classes)


@pytest.mark.parametrize(
    "spec_of",
    [
        lambda n: numeric_game(n, decay(Fraction(1, 2))),
        # the near band (1000 tol = 0.03) catches some deltas at n <= 5; only
        # eigenvector agents also refuse additions or accept removals in it
        lambda n: uniform_game(n, NumericAgent(pagerank()), TolerantPolicy(3e-5)),
        lambda n: uniform_game(n, NumericAgent(eigenvector()), TolerantPolicy(3e-5)),
    ],
    ids=["decay-1/2", "pagerank", "eigenvector"],
)
def test_is_apsn_matches_per_flip_predicates_exhaustive_n5(spec_of):
    cache = EvalCache()
    ambiguous_seen = 0
    for n in range(1, 6):
        spec = spec_of(n)
        for g in enumerate_labeled_graphs(n):
            report = is_apsn(spec, g, cache, early_exit=False)
            expected = [
                (kind, i, j)
                for kind, i, j in candidate_flips(g)
                if (improving_add if kind == "add" else improving_remove)(spec, g, i, j, cache)
            ]
            assert [flip_key(f) for f in report.blocking_flips] == expected, g
            expected_ambiguous = [
                (kind, i, j)
                for kind, i, j in candidate_flips(g)
                if ambiguous_by_band(
                    kind, (delta_add if kind == "add" else delta_remove)(spec, g, i, j, cache)
                )
            ]
            assert [flip_key(f) for f in report.ambiguous_flips] == expected_ambiguous, g
            for f in report.blocking_flips + report.ambiguous_flips:
                delta = delta_add if f.kind == "add" else delta_remove
                assert (f.delta_i, f.delta_j) == delta(spec, g, f.i, f.j, cache)
            ambiguous_seen += len(report.ambiguous_flips)
            assert report.verdict == is_apsn(spec, g, cache, early_exit=True).verdict
    if isinstance(spec.policy, TolerantPolicy):
        assert ambiguous_seen > 0  # the near-band path ran


class IterationCache(EvalCache):
    """An evaluation cache whose spectral vectors come from the power
    iterations that the closed-form kernels replaced."""

    def __init__(self):
        super().__init__()
        self.iterated = {}

    def vector(self, m, g):
        key = (m, g)
        if key not in self.iterated:
            if m.kind == "eigenvector":
                self.iterated[key] = eigenvector_by_iteration(g)
            else:
                self.iterated[key] = pagerank_by_iteration(g, m.damping)
        return self.iterated[key]


def outcome(report):
    return (
        report.verdict,
        [flip_key(f) for f in report.blocking_flips],
        [flip_key(f) for f in report.ambiguous_flips],
    )


@pytest.mark.parametrize("tol", [1e-9, 3e-5])
@pytest.mark.parametrize("measure", [eigenvector(), pagerank()], ids=["eigenvector", "pagerank"])
def test_spectral_verdicts_match_power_iterations_exhaustive_n5(measure, tol):
    closed, iterated = EvalCache(), IterationCache()
    ambiguous_seen = 0
    for n in range(1, 6):
        spec = uniform_game(n, NumericAgent(measure), TolerantPolicy(tol))
        for g in enumerate_labeled_graphs(n):
            new, old = (is_apsn(spec, g, cache) for cache in (closed, iterated))
            assert outcome(new) == outcome(old), g
            ambiguous_seen += len(new.ambiguous_flips)
    if tol == 3e-5:
        assert ambiguous_seen > 0  # deltas in the near band were compared


# -- homophilic rule agents -----------------------------------------------------------


def test_homophilic_rule_matches_numeric_gt_on_flips_n5():
    cache = EvalCache()
    for n in (3, 4, 5):
        rule_spec = uniform_game(n, HomophilicAgent())
        gt_spec = numeric_game(n, game_theoretic())
        for g in enumerate_labeled_graphs(n):
            for i, j in g.non_edges():
                assert improving_add(rule_spec, g, i, j, cache) == improving_add(
                    gt_spec, g, i, j, cache
                )
            for i, j in g.edges():
                assert improving_remove(rule_spec, g, i, j, cache) == improving_remove(
                    gt_spec, g, i, j, cache
                )


def test_homophily_table_validation():
    with pytest.raises(Exception):
        HomophilyFunction(table=(3, 3))
    f = HomophilyFunction(table=(-1, 3, 9))
    assert f(0) == -1 and f(2) == 9
