import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from apsn.centrality import (
    closeness,
    decay,
    degree,
    game_theoretic,
    harmonic,
    katz,
    linear,
    pagerank,
)
from apsn.errors import ContractError, MalformedLineError, ParameterError
from apsn.game import EvalCache, TolerantPolicy, default_policy, is_apsn
from apsn.graphs import Graph, graph_classes, graph_count
from apsn.truncation import (
    compute_caps,
    greedy_linear_apsn,
    maximal_member,
    pareto_check,
    read_weight_table,
    truncated_game,
    universality_thresholds,
)
from oracles import (
    enumerate_labeled_graphs,
    labeled_compute_caps,
    maximal_member_by_rounds,
    seeded_weights,
    write_weight_table,
)


def unit_weights(n):
    return tuple(tuple(0 if i == j else 1 for j in range(n)) for i in range(n))


# -- universality ---------------------------------------------------------------


def test_universality_on_path_with_degree_measures():
    g = Graph.path(4)
    measures = [degree()] * 4
    thetas = universality_thresholds(g, measures)
    assert thetas == (1, 2, 2, 1)
    spec = truncated_game(measures, thetas)
    assert is_apsn(spec, g).stable


def test_universality_on_empty_graph():
    g = Graph.empty(4)
    thetas = universality_thresholds(g, [degree()] * 4)
    assert thetas == (0, 0, 0, 0)
    assert is_apsn(truncated_game([degree()] * 4, thetas), g).stable


def test_universality_random_harmonic_n7(rng):
    measures = [harmonic()] * 7
    cache = EvalCache()
    for _ in range(5):
        g = Graph(7, rng.randrange(graph_count(7)))
        thetas = universality_thresholds(g, measures, cache)
        assert is_apsn(truncated_game(measures, thetas), g, cache).stable


def test_universality_rejects_non_increasing_measures():
    with pytest.raises(ParameterError):
        universality_thresholds(Graph.path(3), [closeness()] * 3)
    # increasing only on some graphs: PageRank from n = 6, Katz whose alpha
    # follows the largest degree
    for m in (pagerank(), katz()):
        with pytest.raises(ParameterError, match="not an increasing measure"):
            universality_thresholds(Graph.path(3), [m] * 3)
        with pytest.raises(ParameterError, match="not an increasing measure"):
            pareto_check(Graph.path(3), [m] * 3, [None] * 3)
    assert universality_thresholds(Graph.path(3), [katz(0.1)] * 3)


def test_katz_with_a_fixed_alpha_gets_a_tolerant_truncated_game():
    """Katz with a fixed alpha is increasing but approximate: its truncated
    game takes the default policy, tolerant, instead of refusing the spec."""
    measures = [katz(0.1)] * 3
    thetas = universality_thresholds(Graph.complete(3), measures)
    spec = truncated_game(measures, thetas)
    assert spec.policy == default_policy(spec.agents) == TolerantPolicy()
    assert is_apsn(spec, Graph.complete(3)).stable


@pytest.mark.parametrize("measure", [degree(), decay(Fraction(1, 2)), harmonic()],
                         ids=["degree", "decay", "harmonic"])
def test_every_class_is_stable_under_its_universality_thresholds_n6_n7(measure):
    """The truncated agents are evaluated, never decided by a rule."""
    cache = EvalCache()
    for n, classes in ((6, 156), (7, 1044)):
        assert len(graph_classes(n)) == classes
        for mask in graph_classes(n):
            g = Graph(n, mask)
            thetas = universality_thresholds(g, [measure] * n, cache)
            assert is_apsn(truncated_game([measure] * n, thetas), g, cache).stable, g


def test_linear_with_a_weight_0_pair_is_not_increasing():
    # vertex 2 gains nothing from either of its edges in the triangle, so the
    # thresholds (1, 1, 0) would not freeze it: the engine finds both of its
    # edges blocking
    m = linear(((0, 1, 0), (1, 0, 0), (0, 0, 0)))
    triangle = Graph.complete(3)
    assert not m.is_increasing
    assert not is_apsn(truncated_game([m] * 3, [Fraction(1), Fraction(1), Fraction(0)]), triangle).stable
    with pytest.raises(ParameterError, match="linear with a pair of weight 0"):
        universality_thresholds(triangle, [m] * 3)
    with pytest.raises(ParameterError, match="linear with a pair of weight 0"):
        pareto_check(triangle, [m] * 3, [None] * 3)
    positive = linear(((0, 1, 2), (1, 0, 1), (2, 1, 0)))
    assert positive.is_increasing
    thetas = universality_thresholds(triangle, [positive] * 3)
    assert is_apsn(truncated_game([positive] * 3, thetas), triangle).stable
    assert pareto_check(triangle, [positive] * 3, thetas)


def test_greedy_never_keeps_a_pair_of_weight_0():
    w = ((0, 1, 0), (1, 0, 0), (0, 0, 0))
    g = greedy_linear_apsn(w, [Fraction(5)] * 3)
    assert g == Graph.from_edges(3, [(0, 1)])
    assert is_apsn(truncated_game([linear(w)] * 3, [Fraction(5)] * 3), g).stable


# -- pareto check ---------------------------------------------------------------


def test_pareto_cycle_at_threshold_two():
    measures = [degree()] * 4
    thetas = [Fraction(2)] * 4
    assert pareto_check(Graph.cycle(4), measures, thetas)


def test_pareto_path_fails():
    measures = [degree()] * 3
    thetas = [Fraction(2)] * 3
    assert not pareto_check(Graph.path(3), measures, thetas)


def test_pareto_accepts_universality_thresholds(rng):
    measures = [decay(Fraction(1, 2))] * 5
    cache = EvalCache()
    for _ in range(8):
        g = Graph(5, rng.randrange(graph_count(5)))
        thetas = universality_thresholds(g, measures, cache)
        assert pareto_check(g, measures, thetas, cache)


def test_pareto_equals_engine_exhaustive_n4(rng):
    cache = EvalCache()
    for make in (degree, harmonic):
        for _ in range(3):
            thetas = [Fraction(rng.randrange(0, 8), rng.choice((1, 2, 3))) for _ in range(4)]
            measures = [make()] * 4
            spec = truncated_game(measures, thetas)
            for g in enumerate_labeled_graphs(4):
                assert (
                    is_apsn(spec, g, cache, early_exit=True).stable
                    == pareto_check(g, measures, thetas, cache)
                )


# -- greedy construction -----------------------------------------------------------


def test_greedy_saturates_to_complete_graph():
    n = 5
    g = greedy_linear_apsn(unit_weights(n), [Fraction(n - 1)] * n)
    assert g == Graph.complete(n)


def test_greedy_zero_thresholds_stay_empty():
    g = greedy_linear_apsn(unit_weights(4), [Fraction(0)] * 4)
    assert g == Graph.empty(4)


def test_greedy_threshold_two_output_is_stable():
    n = 4
    w = unit_weights(n)
    thetas = [Fraction(2)] * n
    g = greedy_linear_apsn(w, thetas)
    measures = [linear(w)] * n
    assert pareto_check(g, measures, thetas)
    assert is_apsn(truncated_game(measures, thetas), g).stable


def test_greedy_random_instances_pass_pareto(rng):
    for _ in range(15):
        n = rng.randrange(3, 8)
        w = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                w[i][j] = w[j][i] = rng.randrange(0, 9)
        w = tuple(tuple(row) for row in w)
        thetas = [Fraction(rng.randrange(0, 15)) for _ in range(n)]
        g = greedy_linear_apsn(w, thetas)
        measures = [linear(w)] * n
        assert is_apsn(truncated_game(measures, thetas), g).stable
        # the Pareto test holds for increasing measures: no pair of weight 0
        if linear(w).is_increasing:
            assert pareto_check(g, measures, thetas)


# -- capped growth ------------------------------------------------------------------


def test_maximal_member_degree_threshold_two():
    n = 4
    measures = [degree()] * n
    thetas = [Fraction(2)] * n
    result = maximal_member(n, measures, thetas)
    assert result.caps == (Fraction(2),) * n
    g = result.graph
    assert max(g.degrees()) <= 2
    # edge-maximal: every missing pair would push someone past the cap
    for i, j in g.non_edges():
        h = g.add_edge(i, j)
        assert any(h.degree(k) > 2 for k in (i, j))
    assert is_apsn(truncated_game(measures, thetas), g).stable


def test_maximal_member_zero_thresholds():
    result = maximal_member(3, [degree()] * 3, [Fraction(0)] * 3)
    assert result.graph == Graph.empty(3)


def test_maximal_member_rejects_a_caps_list_of_the_wrong_length():
    for caps in ([Fraction(1)], [Fraction(1)] * 4):
        with pytest.raises(ParameterError):
            maximal_member(3, [degree()] * 3, [Fraction(1)] * 3, caps)


def test_maximal_member_matches_repeated_passes(shared_cache):
    """One pass grows the graph that passes repeated until one adds no pair
    grow, for every admitted kind and a mix of them at n = 2..5, with caps
    read off seeded graphs' values so that some pairs fit and some do
    not."""
    between = 0
    for n in range(2, 6):
        rnd = random.Random(n)
        w = [[0] * n for _ in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            w[i][j] = w[j][i] = rnd.randrange(1, 3)
        kinds = [degree(), decay(Fraction(1, 2)), harmonic(), katz(0.1), linear(w)]
        for measures in [*([m] * n for m in kinds), (kinds * n)[:n]]:
            for _ in range(4):
                g = Graph(n, rnd.getrandbits(n * (n - 1) // 2))
                caps = [Fraction(shared_cache.vector(m, g)[k]) for k, m in enumerate(measures)]
                got = maximal_member(n, measures, [None] * n, caps, shared_cache).graph
                assert got == maximal_member_by_rounds(n, measures, caps, shared_cache), (
                    n, measures[0].kind, g)
                between += 0 < got.edge_count() < n * (n - 1) // 2
    assert between  # some grown graph is neither empty nor complete


def test_stable_graphs_are_edge_maximal_within_caps(shared_cache):
    n = 4
    measures = [degree()] * n
    thetas = [Fraction(2)] * n
    caps = compute_caps(n, measures, thetas, shared_cache)
    spec = truncated_game(measures, thetas)
    for g in enumerate_labeled_graphs(n):
        values_ok = all(
            shared_cache.vector(measures[k], g)[k] <= caps[k] for k in range(n)
        )
        if not (values_ok and is_apsn(spec, g, shared_cache, early_exit=True).stable):
            continue
        for i, j in g.non_edges():
            h = g.add_edge(i, j)
            assert any(
                shared_cache.vector(measures[k], h)[k] > caps[k] for k in range(n)
            )


def _caps_cases():
    """(n, measures, thresholds): uniform, mixed and per-vertex thresholds,
    a labeled measure, and games whose precondition fails (a witness)."""
    half = Fraction(1, 2)
    for n in (3, 4, 5):
        yield n, [degree()] * n, [Fraction(2)] * n
        yield n, [harmonic()] * n, [Fraction(3, 2)] * n
        yield n, [decay(half)] * n, [Fraction(1)] * n
        yield n, [degree()] * (n - 1) + [harmonic()], [Fraction(1)] * (n - 1) + [Fraction(2)]
        yield n, [degree()] * n, [Fraction(1)] + [None] * (n - 1)
        yield n, [linear(seeded_weights(n))] * n, [Fraction(2)] * n
        yield n, [closeness()] * n, [half] * n
    # thresholds that split the vertices of one measure into colours
    yield 3, [harmonic()] * 3, [Fraction(1), None, Fraction(1)]
    yield 4, [game_theoretic()] * 4, [None, Fraction(3, 2), None, Fraction(2)]
    yield 4, [decay(half)] * 4, [None, half, half, half]
    yield 6, [degree()] * 6, [Fraction(2)] * 6
    yield 6, [harmonic()] * 6, [Fraction(5, 2)] * 6


def _caps_or_witness(compute, n, measures, thetas, cache):
    try:
        return compute(n, measures, thetas, cache)
    except ContractError as exc:
        return str(exc)


def test_compute_caps_equals_labeled_scan(shared_cache):
    # one cap per colour over one graph per class gives every labeled cap
    # and the labeled scan's first witness: 26 cases, 15 of them witnesses
    witnesses = 0
    for n, measures, thetas in _caps_cases():
        expected = _caps_or_witness(labeled_compute_caps, n, measures, thetas, shared_cache)
        found = _caps_or_witness(compute_caps, n, measures, thetas, shared_cache)
        assert found == expected, (n, measures[-1].kind, thetas)
        witnesses += isinstance(found, str)
    assert witnesses == 15


def test_compute_caps_wants_one_measure_and_one_threshold_per_vertex():
    with pytest.raises(ParameterError):
        compute_caps(4, [degree()] * 3, [Fraction(1)] * 3)
    with pytest.raises(ParameterError):
        compute_caps(3, [degree()] * 3, [Fraction(1)] * 2)


def test_compute_caps_refuses_approximate_measures():
    # a float maximum depends on the labeling that attains it
    with pytest.raises(ParameterError):
        compute_caps(3, [katz(0.1)] * 3, [Fraction(1, 2)] * 3)


# -- truncation semantics --------------------------------------------------------------


@given(
    st.fractions(min_value=0, max_value=10),
    st.fractions(min_value=0, max_value=10),
)
def test_truncation_is_monotone_and_tight(value, theta):
    truncated = min(value, theta)
    assert truncated <= value
    if value < theta:
        assert truncated == value


# -- weight table I/O -------------------------------------------------------------------


def test_weight_table_round_trip():
    w = ((0, 3, 0), (3, 0, 7), (0, 7, 0))
    assert read_weight_table(write_weight_table(w)) == w


def test_weight_table_errors():
    with pytest.raises(MalformedLineError):
        read_weight_table("")
    with pytest.raises(MalformedLineError):
        read_weight_table("3\n0 1\n")
    with pytest.raises(MalformedLineError):
        read_weight_table("3\n1 1 4\n")
