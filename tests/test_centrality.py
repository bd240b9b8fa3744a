import functools
import itertools
import math
import random
from fractions import Fraction

import networkx as nx
import pytest

from apsn.centrality import (
    KINDS,
    Measure,
    betweenness,
    centrality,
    centrality_vector,
    closeness,
    decay,
    degree,
    eccentricity,
    eigenvector,
    game_theoretic,
    harmonic,
    katz,
    linear,
    pagerank,
    rw_betweenness,
    rw_closeness,
)
from apsn.errors import ParameterError, SizeGuardError
from apsn.graphs import (
    Graph,
    graph_count,
    is_connected,
)
from apsn.values import Approx, Exact
from oracles import (
    absorption_probabilities,
    brute_betweenness,
    brute_shapley,
    eigenvector_by_iteration,
    enumerate_labeled_graphs,
    hitting_times,
    oracle_betweenness,
    oracle_closeness,
    oracle_decay,
    oracle_eccentricity,
    oracle_gametheoretic,
    oracle_harmonic,
    oracle_rwbetweenness,
    oracle_rwcloseness,
    pagerank_by_iteration,
    seeded_weights,
)

ALL_EXACT = [
    degree(),
    closeness(),
    eccentricity(),
    rw_closeness(),
    decay(Fraction(1, 2)),
    harmonic(),
    betweenness(),
    game_theoretic(),
]


def to_networkx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


# -- frozen spot values --------------------------------------------------------


def test_gametheoretic_pair():
    g = Graph.complete(2)
    assert centrality(game_theoretic(), g, 0) == Exact(Fraction(1))
    assert centrality(game_theoretic(), g, 1) == Exact(Fraction(1))


def test_gametheoretic_isolated_vertex_is_one():
    assert centrality_vector(game_theoretic(), Graph.empty(1))[0] == 1


def test_betweenness_path():
    g = Graph.path(3)
    vec = centrality_vector(betweenness(), g)
    assert vec == (Fraction(0), Fraction(1), Fraction(0))


def test_closeness_path():
    vec = centrality_vector(closeness(), Graph.path(3))
    assert vec == (Fraction(1, 3), Fraction(1, 2), Fraction(1, 3))


def test_decay_half_path_end():
    vec = centrality_vector(decay(Fraction(1, 2)), Graph.path(3))
    assert vec[0] == Fraction(3, 4)


def test_eccentricity_isolated_is_zero():
    g = Graph.from_edges(3, [(0, 1)])
    vec = centrality_vector(eccentricity(), g)
    assert vec[2] == 0
    assert vec[0] == Fraction(2, 1)  # (n-1)/1 within its own component


def test_closeness_isolated_is_zero():
    assert centrality_vector(closeness(), Graph.empty(2)) == (Fraction(0), Fraction(0))


def test_closeness_vectors_share_equal_values():
    c5 = centrality_vector(closeness(), Graph.cycle(5))
    star = centrality_vector(closeness(), Graph.from_edges(7, [(0, k) for k in range(1, 7)]))
    assert c5[0] == star[0] == Fraction(1, 6)
    assert all(x is c5[0] for x in c5 + star[:1])


def test_linear_centrality_sums_incident_weights():
    w = ((0, 2, 5), (2, 0, 0), (5, 0, 0))
    g = Graph.from_edges(3, [(0, 1), (0, 2)])
    assert centrality_vector(linear(w), g) == (Fraction(7), Fraction(2), Fraction(5))


def test_gametheoretic_homophily_boundary():
    # The improving-add boundary of the coverage Shapley value is
    # deg(j) <= (deg(i)+1)(deg(i)+2) - 3, checked here from raw deltas.
    def f(d):
        return (d + 1) * (d + 2) - 3

    for g in enumerate_labeled_graphs(5):
        vec = centrality_vector(game_theoretic(), g)
        for i, j in g.non_edges():
            h = g.add_edge(i, j)
            hvec = centrality_vector(game_theoretic(), h)
            gains = hvec[i] - vec[i] > 0
            assert gains == (g.degree(j) <= f(g.degree(i)))


# -- brute-force oracles ---------------------------------------------------------


def test_brute_shapley_pair_and_isolated():
    assert brute_shapley(Graph.complete(2), 0) == Fraction(1)
    assert brute_shapley(Graph.empty(3), 0) == Fraction(1)


def test_brute_shapley_matches_closed_form_up_to_n5():
    for n in range(1, 5):
        for g in enumerate_labeled_graphs(n):
            vec = centrality_vector(game_theoretic(), g)
            for i in range(n):
                assert brute_shapley(g, i) == vec[i]
    rnd = random.Random(11)
    for _ in range(40):
        g = Graph(5, rnd.randrange(graph_count(5)))
        vec = centrality_vector(game_theoretic(), g)
        i = rnd.randrange(5)
        assert brute_shapley(g, i) == vec[i]


def test_brute_shapley_guard():
    with pytest.raises(SizeGuardError):
        brute_shapley(Graph.empty(8), 0)


def test_brute_betweenness_examples():
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert brute_betweenness(star, 0) == Fraction(3)
    assert all(brute_betweenness(Graph.complete(4), i) == 0 for i in range(4))
    assert brute_betweenness(Graph.cycle(4), 0) == Fraction(1, 2)


def test_betweenness_matches_brute_exhaustive_n5():
    for n in range(1, 6):
        for g in enumerate_labeled_graphs(n):
            vec = centrality_vector(betweenness(), g)
            for i in range(n):
                assert vec[i] == brute_betweenness(g, i)


def test_betweenness_agrees_with_networkx():
    rnd = random.Random(3)
    for _ in range(30):
        g = Graph(6, rnd.randrange(graph_count(6)))
        ours = centrality_vector(betweenness(), g)
        theirs = nx.betweenness_centrality(to_networkx(g), normalized=False)
        for i in range(6):
            assert math.isclose(float(ours[i]), theirs[i], abs_tol=1e-9)


# -- hitting times ------------------------------------------------------------------


def test_hitting_time_pair():
    ht = hitting_times(Graph.complete(2), 0)
    assert ht[1] == Fraction(1)


def test_hitting_times_path_exact():
    ht = hitting_times(Graph.path(3), 1)  # walks into the middle vertex
    assert ht[0] == Fraction(1)
    assert ht == {1: Fraction(0), 0: Fraction(1), 2: Fraction(1)}
    ht_end = hitting_times(Graph.path(3), 0)
    assert ht_end[1] == Fraction(3)
    assert ht_end[2] == Fraction(4)


def test_hitting_times_match_monte_carlo():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    target = 1
    exact = hitting_times(g, target)
    rnd = random.Random(99)
    adj = {v: g.neighbors(v) for v in range(4)}
    for start in (0, 2, 3):
        trials = 4000
        samples = []
        for _ in range(trials):
            v, steps = start, 0
            while v != target:
                v = rnd.choice(adj[v])
                steps += 1
            samples.append(steps)
        mean = sum(samples) / trials
        var = sum((s - mean) ** 2 for s in samples) / (trials - 1)
        sigma = math.sqrt(var / trials)
        assert abs(mean - float(exact[start])) <= 3 * sigma + 1e-9


def test_intra_component_edge_at_target_never_increases_hitting_times():
    # Monotonicity holds for additions incident to the target vertex (the
    # improving-move situation); edges elsewhere can lengthen walks.
    from oracles import same_component

    for g in enumerate_labeled_graphs(4):
        for i, j in g.non_edges():
            if same_component(g, i, j):
                h = g.add_edge(i, j)
                before = hitting_times(g, i)
                after = hitting_times(h, i)
                for k, v in after.items():
                    assert v <= before[k]


def test_edge_elsewhere_can_increase_hitting_times():
    # Documents why the monotonicity above is restricted to the target's
    # own edges: a chord far from the target may make walks wander longer.
    g = Graph(5, 848)
    h = g.add_edge(1, 3)
    assert hitting_times(h, 2)[1] > hitting_times(g, 2)[1]


# -- random-walk measures --------------------------------------------------------


def test_rwcloseness_pair():
    vec = centrality_vector(rw_closeness(), Graph.complete(2))
    assert vec == (Fraction(1), Fraction(1))


def test_rwcloseness_isolated_zero():
    assert centrality_vector(rw_closeness(), Graph.empty(2)) == (Fraction(0),) * 2


def test_absorption_probabilities_path():
    g = Graph.path(3)
    probs = absorption_probabilities(g, hit=0, avoid=2)
    assert probs[1] == Fraction(1, 2)
    assert probs[0] == 1 and probs[2] == 0


def test_rwbetweenness_disconnected_pairs_contribute_zero():
    g = Graph.from_edges(4, [(0, 1)])
    vec = centrality_vector(rw_betweenness(), g)
    assert vec == (Fraction(0),) * 4


def test_rwbetweenness_path_middle():
    vec = centrality_vector(rw_betweenness(), Graph.path(3))
    # ordered pairs (0,2) and (2,0): every walk crosses the middle.
    assert vec[1] == Fraction(2)
    assert vec[0] < vec[1]


# -- kernel test graphs: the sets every kernel family is checked on ----------------


def graphs_up_to_n5() -> list[Graph]:
    """Every labeled graph with 1 to 5 vertices."""
    return [g for n in range(1, 6) for g in enumerate_labeled_graphs(n)]


def atlas_classes_n6() -> list[Graph]:
    """One graph per isomorphism class on 6 vertices, from networkx's atlas."""
    atlas = [h for h in nx.graph_atlas_g() if h.number_of_nodes() == 6]
    assert len(atlas) == 156
    return [Graph.from_edges(6, list(h.edges())) for h in atlas]


def random_graphs_n7(seed: int, extra: tuple[Graph, ...] = ()) -> list[Graph]:
    """50 graphs on 7 vertices: `extra`, then seeded random ones of mixed density."""
    rnd = random.Random(seed)
    graphs = []
    for _ in range(50 - len(extra)):
        density = rnd.uniform(0.15, 0.7)
        graphs.append(Graph.from_edges(
            7, [(i, j) for i in range(7) for j in range(i + 1, 7) if rnd.random() < density]
        ))
    assert sum(not is_connected(g) for g in graphs) >= 5
    return list(extra) + graphs


def assert_kernels_match(oracles, g: Graph, tol: float | None = None):
    """Each kernel equals its oracle exactly, or within `tol` when one is given."""
    for m, oracle in oracles:
        ours, theirs = centrality_vector(m, g), oracle(g)
        if tol is None:
            assert ours == theirs, (m, g.mask)
        else:
            assert max(abs(a - b) for a, b in zip(ours, theirs)) <= tol, (m, g.mask)


# -- random-walk kernels against their rational-solve oracles ------------------------

RW_ORACLES = [(rw_closeness(), oracle_rwcloseness), (rw_betweenness(), oracle_rwbetweenness)]


def test_rw_kernels_match_oracles_exhaustive_n5():
    for g in graphs_up_to_n5():
        assert_kernels_match(RW_ORACLES, g)


def test_rw_kernels_match_oracles_on_the_156_classes_n6():
    for g in atlas_classes_n6():
        assert_kernels_match(RW_ORACLES, g)


def test_rw_kernels_match_oracles_random_n7():
    for g in random_graphs_n7(2005):
        assert_kernels_match(RW_ORACLES, g)


# -- distance kernels against the Fraction loops they replaced -------------------


DISTANCE_ORACLES = [
    (closeness(), oracle_closeness),
    (decay(Fraction(1, 2)), lambda g: oracle_decay(g, Fraction(1, 2))),
    (decay(Fraction(2, 3)), lambda g: oracle_decay(g, Fraction(2, 3))),
    (harmonic(), oracle_harmonic),
    (eccentricity(), oracle_eccentricity),
    (betweenness(), oracle_betweenness),
    (game_theoretic(), oracle_gametheoretic),
]


def test_distance_kernels_match_oracles_exhaustive_n5():
    for g in graphs_up_to_n5():
        assert_kernels_match(DISTANCE_ORACLES, g)


def test_distance_kernels_match_oracles_on_the_156_classes_n6():
    for g in atlas_classes_n6():
        assert_kernels_match(DISTANCE_ORACLES, g)


def test_distance_kernels_match_oracles_random_n7():
    for g in random_graphs_n7(2006):
        assert_kernels_match(DISTANCE_ORACLES, g)


# -- per-vertex kernels of the local kinds -----------------------------------------

LOCAL_KINDS = {"degree", "linear", "closeness", "eccentricity", "decay", "harmonic", "gametheoretic"}


def test_local_kinds_are_the_kinds_with_a_per_vertex_kernel():
    assert {name for name, kind in KINDS.items() if kind.at is not None} == LOCAL_KINDS
    assert all(KINDS[name].exact for name in LOCAL_KINDS)


def local_measures(n: int) -> list:
    """(measure, oracle) for every local kind, decay at two betas, and a
    seeded weight table for linear on n vertices."""
    w = seeded_weights(n)
    return [
        (degree(), lambda g: tuple(Fraction(d) for d in g.degrees())),
        (linear(w), lambda g: tuple(Fraction(sum(w[i][j] for j in g.neighbors(i))) for i in range(n))),
        *((m, oracle) for m, oracle in DISTANCE_ORACLES if m.kind in LOCAL_KINDS),
    ]


def assert_local_kernels_match(g: Graph):
    """Each local kernel at each vertex, on the adjacency tuple and on a
    list copy (the flip engine's toggled rows), is the vector's entry and
    the oracle's, and a Fraction."""
    adj = g.adjacency()
    for m, oracle in local_measures(g.n):
        at = KINDS[m.kind].at
        vector, expected = centrality_vector(m, g), oracle(g)
        for v in range(g.n):
            for rows in (adj, list(adj)):
                value = at(rows, v, m)
                assert value == vector[v] == expected[v], (m, g.mask, v)
                assert type(value) is type(vector[v]) is Fraction, (m, g.mask, v)


def test_local_kernels_match_vectors_and_oracles_exhaustive_n5():
    for g in graphs_up_to_n5():
        assert_local_kernels_match(g)


def test_local_kernels_match_vectors_and_oracles_on_the_156_classes_n6():
    for g in atlas_classes_n6():
        assert_local_kernels_match(g)


def test_local_kernels_match_vectors_and_oracles_random_n7():
    for g in random_graphs_n7(2007):
        assert_local_kernels_match(g)


# -- spectral measures -------------------------------------------------------------


def test_eigenvector_matches_networkx_on_connected():
    rnd = random.Random(23)
    seen = 0
    while seen < 15:
        g = Graph(5, rnd.randrange(graph_count(5)))
        h = to_networkx(g)
        if not nx.is_connected(h):
            continue
        seen += 1
        ours = centrality_vector(eigenvector(), g)
        theirs = nx.eigenvector_centrality_numpy(h)
        for i in range(5):
            assert math.isclose(ours[i], theirs[i], abs_tol=1e-6)


def test_eigenvector_empty_graph_is_uniform():
    vec = centrality_vector(eigenvector(), Graph.empty(4))
    assert all(math.isclose(v, 0.5, abs_tol=1e-12) for v in vec)


def test_eigenvector_bipartite_converges():
    vec = centrality_vector(eigenvector(), Graph.path(3))
    assert vec[1] > vec[0]


def test_pagerank_matches_networkx():
    rnd = random.Random(31)
    for _ in range(15):
        g = Graph(5, rnd.randrange(graph_count(5)))
        ours = centrality_vector(pagerank(0.85), g)
        theirs = nx.pagerank(to_networkx(g), alpha=0.85, tol=1e-12, max_iter=500)
        for i in range(5):
            assert math.isclose(ours[i], theirs[i], abs_tol=1e-8)


# -- spectral kernels against the power iterations they replaced ----------------

SPECTRAL_ORACLES = [
    (eigenvector(), eigenvector_by_iteration),
    (pagerank(0.85), pagerank_by_iteration),
    (pagerank(0.5), lambda g: pagerank_by_iteration(g, 0.5)),
]


def test_spectral_kernels_match_iterations_exhaustive_n5():
    for g in graphs_up_to_n5():
        assert_kernels_match(SPECTRAL_ORACLES, g, tol=1e-10)


def test_spectral_kernels_match_iterations_on_the_156_classes_n6():
    for g in atlas_classes_n6():
        assert_kernels_match(SPECTRAL_ORACLES, g, tol=1e-10)


def test_spectral_kernels_match_iterations_random_n7():
    k1, k2, k3 = Graph.empty(1), Graph.complete(2), Graph.complete(3)
    tied = tuple(  # a top eigenvalue shared by several components
        functools.reduce(Graph.disjoint_union, parts)
        for parts in ((Graph.cycle(4), k3), (k3, k3, k1), (k2, k2, k2, k1), (Graph.empty(7),))
    )
    for g in random_graphs_n7(2007, extra=tied):
        assert_kernels_match(SPECTRAL_ORACLES, g, tol=1e-10)


def test_eigenvector_tied_top_eigenvalue_spreads_over_components():
    # C4 and K3 both have spectral radius 2; projecting the all-ones vector
    # weights each component's Perron vector by its size
    vec = centrality_vector(eigenvector(), Graph.disjoint_union(Graph.cycle(4), Graph.complete(3)))
    assert all(math.isclose(v, 1 / math.sqrt(7), abs_tol=1e-12) for v in vec)


def test_katz_explicit_alpha_matches_series():
    g = Graph.cycle(4)
    alpha = 0.1
    vec = centrality_vector(katz(alpha), g)
    # row sums of A^k on the 2-regular cycle are 2^k, so the walk series
    # telescopes to a plain geometric sum
    expected = sum((2 * alpha) ** k for k in range(1, 200))
    assert math.isclose(vec[0], expected, rel_tol=1e-9)


def test_katz_alpha_guard():
    with pytest.raises(ParameterError):
        centrality_vector(katz(0.9), Graph.complete(4))


def test_katz_auto_alpha_accepts_any_graph():
    for g in (Graph.empty(3), Graph.complete(5), Graph.path(4)):
        vec = centrality_vector(katz(), g)
        assert len(vec) == g.n


def test_measure_parameter_validation():
    with pytest.raises(ParameterError):
        decay(Fraction(3, 2))
    with pytest.raises(ParameterError):
        pagerank(1.5)
    with pytest.raises(ParameterError):
        linear(((0, 1), (2, 0)))
    with pytest.raises(ParameterError):
        linear(((0, -1), (-1, 0)))
    with pytest.raises(ParameterError):
        Measure("nonsense")


def test_centrality_wraps_values_by_kind():
    g = Graph.complete(3)
    assert isinstance(centrality(degree(), g, 0), Exact)
    assert isinstance(centrality(pagerank(), g, 0), Approx)


# -- isomorphism equivariance -------------------------------------------------------


def test_exact_measures_isomorphism_equivariance_exhaustive_n4():
    for g in enumerate_labeled_graphs(4):
        for perm in itertools.permutations(range(4)):
            h = g.relabel(perm)
            for m in ALL_EXACT:
                gv = centrality_vector(m, g)
                hv = centrality_vector(m, h)
                for i in range(4):
                    assert hv[perm[i]] == gv[i]
            break  # one non-identity permutation per graph keeps this quick


def test_exact_measures_isomorphism_equivariance_random_n6():
    rnd = random.Random(41)
    for _ in range(25):
        g = Graph(6, rnd.randrange(graph_count(6)))
        perm = list(range(6))
        rnd.shuffle(perm)
        perm = tuple(perm)
        h = g.relabel(perm)
        for m in ALL_EXACT:
            gv = centrality_vector(m, g)
            hv = centrality_vector(m, h)
            for i in range(6):
                assert hv[perm[i]] == gv[i]


def test_approx_measures_isomorphism_equivariance():
    rnd = random.Random(43)
    for _ in range(10):
        g = Graph(5, rnd.randrange(graph_count(5)))
        perm = list(range(5))
        rnd.shuffle(perm)
        perm = tuple(perm)
        h = g.relabel(perm)
        for m in (eigenvector(), pagerank(), katz(0.05)):
            gv = centrality_vector(m, g)
            hv = centrality_vector(m, h)
            for i in range(5):
                assert math.isclose(hv[perm[i]], gv[i], abs_tol=1e-8)
