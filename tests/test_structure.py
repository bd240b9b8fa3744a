import itertools
import pathlib
from fractions import Fraction

import pytest

from apsn.census import run_census
from apsn.centrality import (
    betweenness,
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
)
from apsn.errors import ContractError, ParameterError, SizeGuardError
from apsn.game import (
    EvalCache,
    GT_HOMOPHILY,
    HomophilicAgent,
    HomophilyFunction,
    MonotoneAgent,
    NumericAgent,
    rule_of,
    uniform_game,
)
from apsn.graphs import Graph, canonical_form, from_graph6, passing_masks, read_edge_list
from apsn.values import AMBIGUITY_BAND
from apsn.game import is_apsn
from apsn.profiles import load_profile_file
from apsn.structure import (
    check_monotone_structure,
    ecc_necessary,
    ecc_strict_condition_distance,
    ecc_sufficient,
    falsify_axiom,
    infer_types,
    is_stratified,
    realize_sequence,
    stratified_sequences,
    betweenness_condition,
)
from oracles import (
    ecc_strict_condition_paths,
    enumerate_labeled_graphs,
    labeled_falsify_axiom,
    seeded_weights,
)

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"
CORE_PERIPHERY_TYPES = tuple(
    agent.kind
    for agent in load_profile_file(str(DATA / "core_periphery_types.json"), 15).agents
)


def data_graph(name):
    return read_edge_list((DATA / f"{name}.edges").read_text())


def wheel(n):
    """Hub 0 joined to an (n-1)-cycle."""
    rim = [(i, i % (n - 1) + 1) for i in range(1, n)]
    return Graph.from_edges(n, [(0, i) for i in range(1, n)] + rim)


def monotone_game(types):
    from apsn.game import GameSpec

    return GameSpec(tuple(MonotoneAgent(t) for t in types))


def monotone_census_matches_predicate(n, types, cache=None):
    spec = monotone_game(types)
    cache = cache or EvalCache()
    for g in enumerate_labeled_graphs(n):
        stable = is_apsn(spec, g, cache, early_exit=True).stable
        if stable != check_monotone_structure(g, types):
            return g
    return None


# -- monotone structure -------------------------------------------------------


def test_core_periphery_fixture_passes():
    g = data_graph("core_periphery_fifteen")
    assert check_monotone_structure(g, CORE_PERIPHERY_TYPES)


def test_all_increasing_agents_need_the_complete_graph():
    types = ("1",) * 4
    assert check_monotone_structure(Graph.complete(4), types)
    assert not check_monotone_structure(Graph.complete(4).remove_edge(0, 1), types)


def test_peripheral_pendant_on_componentwise_vertex_rejected():
    # 0-1 clique pair is replaced by one componentwise vertex 0 carrying a
    # peripheral pendant 2: the bridge to a type-2 contact is not stable.
    g = Graph.from_edges(3, [(0, 1), (0, 2)])
    types = ("2", "2", "2p")
    assert not check_monotone_structure(g, types)
    spec = monotone_game(types)
    assert not is_apsn(spec, g).stable


def test_componentwise_pair_clique_is_unstable_boundary():
    # A two-clique of componentwise agents sits on a bridge; severing it is
    # free for both, so neither the engine nor the predicate accepts it.
    g = Graph.from_edges(2, [(0, 1)])
    types = ("2", "2")
    assert not check_monotone_structure(g, types)
    assert not is_apsn(monotone_game(types), g).stable
    # ... while a componentwise triangle is fine.
    assert check_monotone_structure(Graph.complete(3), ("2",) * 3)
    assert is_apsn(monotone_game(("2",) * 3), Graph.complete(3)).stable


def test_peripheral_chain_is_stable_and_accepted():
    # increasing vertex 0 with a two-deep bridge chain of peripheral agents
    g = Graph.path(3)
    types = ("1", "2p", "2p")
    assert is_apsn(monotone_game(types), g).stable
    assert check_monotone_structure(g, types)


def test_standalone_peripheral_pair_without_increasing_agents():
    g = Graph.from_edges(3, [(0, 1)])
    types = ("2p", "2p", "2")
    assert is_apsn(monotone_game(types), g).stable
    assert check_monotone_structure(g, types)


def test_monotone_census_equivalence_n4_random_assignments(rng):
    cache = EvalCache()
    for _ in range(12):
        types = tuple(rng.choice(("1", "1p", "2", "2p")) for _ in range(4))
        bad = monotone_census_matches_predicate(4, types, cache)
        assert bad is None, f"mismatch for {types} at mask {bad and bad.mask}"


def test_monotone_census_equivalence_all_two_type_mixes_n3():
    cache = EvalCache()
    for types in itertools.product(("1", "1p", "2", "2p"), repeat=3):
        bad = monotone_census_matches_predicate(3, types, cache)
        assert bad is None, f"mismatch for {types} at mask {bad and bad.mask}"


# -- type inference -------------------------------------------------------------


def test_infer_types_on_fixture_matches_ground_truth():
    g = data_graph("core_periphery_fifteen")
    candidates = infer_types(g)
    for v, t in enumerate(CORE_PERIPHERY_TYPES):
        assert t in candidates[v]
    # isolated decreasing-or-componentwise agents stay undetermined
    assert candidates[7] == frozenset({"1p", "2"})
    assert candidates[8] == frozenset({"1p", "2"})
    # pendants and their anchors are fully identified
    assert candidates[5] == frozenset({"2p"})
    assert candidates[4] == frozenset({"1"})
    # triangle members next to a complex component are componentwise
    assert candidates[9] == frozenset({"2"})


def test_infer_types_rejects_non_stable_shape():
    # a four-cycle with a pendant mixes bridge and cycle edges at one vertex,
    # forcing it increasing, while the cycle can never complete into a core
    g = Graph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 1), (0, 1)])
    with pytest.raises(ContractError):
        infer_types(g)


def test_paths_are_standalone_peripheral_trees():
    # every edge of a path is a bridge, so an all-peripheral assignment fits
    g = Graph.path(4)
    assert check_monotone_structure(g, ("2p",) * 4)
    cands = infer_types(g)
    assert all("2p" in c for c in cands)


def test_infer_types_known_types_refine():
    # clique pair next to an isolated vertex: the pair sits on a bridge, so
    # its members are increasing or peripheral, never componentwise
    g = Graph.from_edges(3, [(0, 1)])
    cands = infer_types(g)
    assert cands[0] == frozenset({"1", "2p"})
    assert cands[2] == frozenset({"1p", "2"})
    refined = infer_types(g, known_types={2: "2"})
    assert refined[0] == frozenset({"1", "2p"})
    with pytest.raises(ContractError):
        # an increasing agent elsewhere would have linked to everyone
        infer_types(g, known_types={2: "1"})


def test_infer_types_soundness_against_census(rng):
    cache = EvalCache()
    for _ in range(6):
        types = tuple(rng.choice(("1", "1p", "2", "2p")) for _ in range(4))
        spec = monotone_game(types)
        for g in enumerate_labeled_graphs(4):
            if is_apsn(spec, g, cache, early_exit=True).stable:
                cands = infer_types(g)
                for v in range(4):
                    assert types[v] in cands[v]


# -- stratified cliques ----------------------------------------------------------


def test_stratified_examples():
    k5_k1 = Graph.disjoint_union(Graph.complete(5), Graph.empty(1))
    assert is_stratified(k5_k1, GT_HOMOPHILY)
    k2_k2 = Graph.disjoint_union(Graph.complete(2), Graph.complete(2))
    assert not is_stratified(k2_k2, GT_HOMOPHILY)
    assert is_stratified(Graph.complete(3), GT_HOMOPHILY)


def test_pair_clique_unstable_under_gt_homophily():
    # both members of a two-clique have degree one; severing beats f(0) = -1
    assert not is_stratified(Graph.complete(2), GT_HOMOPHILY)
    spec = uniform_game(2, HomophilicAgent())
    assert not is_apsn(spec, Graph.complete(2)).stable
    gt = uniform_game(2, NumericAgent(game_theoretic()))
    assert not is_apsn(gt, Graph.complete(2)).stable


def test_stratified_sequences_n6():
    seqs = stratified_sequences(6, GT_HOMOPHILY)
    shapes = sorted((s.sizes, s.isolated) for s in seqs)
    assert shapes == [
        ((), 6),
        ((3,), 3),
        ((4,), 2),
        ((5,), 1),
        ((6,), 0),
    ]


def test_realized_sequences_are_stratified():
    for seq in stratified_sequences(6, GT_HOMOPHILY):
        assert is_stratified(realize_sequence(seq), GT_HOMOPHILY)


def test_non_clique_component_is_not_stratified():
    assert not is_stratified(Graph.path(3), GT_HOMOPHILY)


def test_homophily_hypothesis_validated():
    shrinking = HomophilyFunction(table=(5, 6, 7))  # violates f(x) >= x? no: 6>=1...
    # a function with f(1) < 1 is rejected
    with pytest.raises(ParameterError):
        stratified_sequences(3, HomophilyFunction(table=(-3, 0, 5)))
    stratified_sequences(3, shrinking)  # fine


def test_stratified_census_equivalence_n5():
    spec = uniform_game(5, HomophilicAgent())
    cache = EvalCache()
    stable = {
        g.mask
        for g in enumerate_labeled_graphs(5)
        if is_apsn(spec, g, cache, early_exit=True).stable
    }
    predicted = {
        g.mask for g in enumerate_labeled_graphs(5) if is_stratified(g, GT_HOMOPHILY)
    }
    assert stable == predicted


@pytest.mark.parametrize("agent", [
    NumericAgent(game_theoretic()),
    HomophilicAgent(),
    HomophilicAgent(HomophilyFunction((0, 1, 3, 6, 10, 15, 21))),
    HomophilicAgent(HomophilyFunction((0, 1, 3, 6, 10, 15))),
], ids=["gametheoretic", "homophilic", "homophilic-table", "homophilic-table-to-n-2"])
def test_stratified_census_equivalence_n7(agent):
    """The uniform census at n = 7 is the stratified-clique family of the
    agent's threshold, compared on every class and expanded to every
    labeled graph.  A table needs values only up to degree n - 2, the
    highest a game reads."""
    f = rule_of(agent)
    stable = run_census(uniform_game(7, agent), 7).stable_masks
    assert stable == passing_masks(7, lambda g: is_stratified(g, f))


# -- betweenness condition ---------------------------------------------------------


def test_betweenness_condition_examples():
    assert betweenness_condition(Graph.complete_bipartite(2, 3))
    assert not betweenness_condition(Graph.path(4))
    assert betweenness_condition(Graph.empty(5))
    assert not betweenness_condition(Graph.complete(4))


def test_fixture_ten_vertex_graph():
    g = data_graph("betweenness_ten")
    assert betweenness_condition(g)
    assert g.has_edge(3, 4) and g.has_edge(3, 8) and g.has_edge(4, 8)  # a triangle
    spec = uniform_game(10, NumericAgent(betweenness()))
    assert is_apsn(spec, g).stable


def test_betweenness_census_equivalence_n4(shared_cache):
    spec = uniform_game(4, NumericAgent(betweenness()))
    stable = {
        g.mask
        for g in enumerate_labeled_graphs(4)
        if is_apsn(spec, g, shared_cache, early_exit=True).stable
    }
    predicted = {g.mask for g in enumerate_labeled_graphs(4) if betweenness_condition(g)}
    assert stable == predicted
    # the cycle and the empty graph are the only shapes at n=4
    canon = {canonical_form(Graph(4, m)) for m in stable}
    assert canon == {canonical_form(Graph.cycle(4)), canonical_form(Graph.empty(4))}


# -- eccentricity predicates ----------------------------------------------------------


def test_ecc_necessary_examples():
    assert ecc_necessary(data_graph("eccentricity_six"))
    assert not ecc_necessary(Graph.path(3))
    assert ecc_necessary(Graph.from_edges(4, [(0, 1), (2, 3)]))  # pair components fine


def test_fixture_six_vertex_graph_is_stable():
    g = data_graph("eccentricity_six")
    spec = uniform_game(6, NumericAgent(eccentricity()))
    assert is_apsn(spec, g).stable
    assert ecc_sufficient(g)


def test_ecc_sufficient_members_and_non_members():
    assert ecc_sufficient(Graph.cycle(5))
    assert ecc_sufficient(Graph.complete_bipartite(3, 3))
    assert not ecc_sufficient(Graph.cycle(4))  # opposite pairs would link up
    assert not ecc_sufficient(Graph.complete_bipartite(2, 3))
    assert not ecc_sufficient(wheel(5))


def test_wheel_is_not_stable_for_eccentricity():
    # Removing a rim edge costs its endpoints nothing (the hub keeps all
    # distances at two), so the saved edge cost makes severing improving.
    g = wheel(5)
    spec = uniform_game(5, NumericAgent(eccentricity()))
    report = is_apsn(spec, g)
    assert not report.stable
    assert any(f.kind == "remove" for f in report.blocking_flips)


def test_every_ecc_sufficient_graph_is_stable_n5(shared_cache):
    spec = uniform_game(5, NumericAgent(eccentricity()))
    for g in enumerate_labeled_graphs(5):
        if ecc_sufficient(g):
            assert is_apsn(spec, g, shared_cache, early_exit=True).stable


def test_ecc_census_respects_necessary_condition_n5(shared_cache):
    spec = uniform_game(5, NumericAgent(eccentricity()))
    for g in enumerate_labeled_graphs(5):
        if is_apsn(spec, g, shared_cache, early_exit=True).stable:
            assert ecc_necessary(g)


# -- eccentricity strictness -------------------------------------------------------


def ecc_vec(g):
    from apsn.centrality import centrality_vector

    return centrality_vector(eccentricity(), g)


def test_ecc_strict_distance_condition_is_exact_n4():
    from oracles import same_component

    for g in enumerate_labeled_graphs(4):
        base = ecc_vec(g)
        for i, j in g.non_edges():
            if not same_component(g, i, j):
                continue
            strict = ecc_vec(g.add_edge(i, j))[i] > base[i]
            assert strict == ecc_strict_condition_distance(g, i, j)


def test_ecc_paths_reading_misses_strict_increases():
    # Five vertices: a four-cycle 1-2-3-4 with a pendant 0 on vertex 1.
    # Adding 0-4 strictly raises 0's eccentricity centrality although 4 is
    # not on every shortest path to the farthest vertex 3.
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 1)])
    base = ecc_vec(g)
    after = ecc_vec(g.add_edge(0, 4))
    assert after[0] > base[0]
    assert ecc_strict_condition_distance(g, 0, 4)
    assert not ecc_strict_condition_paths(g, 0, 4)


def test_ecc_paths_reading_still_implies_strictness_n4():
    from oracles import same_component

    for g in enumerate_labeled_graphs(4):
        base = ecc_vec(g)
        for i, j in g.non_edges():
            if not same_component(g, i, j):
                continue
            if ecc_strict_condition_paths(g, i, j):
                assert ecc_vec(g.add_edge(i, j))[i] > base[i]


# -- axiom falsifier ---------------------------------------------------------------


def test_closeness_satisfies_componentwise_axiom_n4(shared_cache):
    result = falsify_axiom(closeness(), "2", 4, cache=shared_cache)
    assert result.counterexample is None


def test_degree_satisfies_regularity_n4(shared_cache):
    result = falsify_axiom(degree(), "4", 4, cache=shared_cache)
    assert result.counterexample is None


def test_degree_harmonic_decay_increasing_n4(shared_cache):
    for m in (degree(), harmonic(), decay(Fraction(1, 2))):
        assert falsify_axiom(m, "1", 4, cache=shared_cache).counterexample is None


def test_betweenness_violates_increasing_axiom(shared_cache):
    result = falsify_axiom(betweenness(), "1", 4, cache=shared_cache)
    assert result.counterexample is not None


def test_closeness_violates_increasing_axiom_via_cross_adds(shared_cache):
    result = falsify_axiom(closeness(), "1", 3, cache=shared_cache)
    assert result.counterexample is not None


def test_gametheoretic_homophily_fit(shared_cache):
    result = falsify_axiom(game_theoretic(), "3", 5, cache=shared_cache)
    assert result.counterexample is None
    assert result.fitted_f[0] == -1
    assert result.fitted_f[1] == 3


AXIOMS = ("1", "1p", "2", "2p", "3", "4")


def test_falsifier_guard():
    with pytest.raises(SizeGuardError):
        falsify_axiom(degree(), "1", 8)


@pytest.mark.parametrize("axiom", AXIOMS)
def test_falsifier_hunts_a_linear_measure_at_its_table_size(shared_cache, axiom):
    # the weight table fixes n and the kernel refuses every other n
    for weights in (((0, 1), (1, 0)), seeded_weights(4)):
        m = linear(weights)
        expected = labeled_falsify_axiom(m, axiom, 4, cache=shared_cache).to_json()
        assert falsify_axiom(m, axiom, 4, cache=shared_cache).to_json() == expected
        if axiom == "1":
            assert (expected["counterexample"] is None) == m.is_increasing
    with pytest.raises(ParameterError):
        falsify_axiom(linear(seeded_weights(4)), axiom, 3)


def test_falsifier_rejects_unknown_axiom():
    with pytest.raises(ParameterError):
        falsify_axiom(degree(), "5", 4)


def test_increasing_axiom_family_n7(shared_cache, one_measure_per_kind):
    # a measure is increasing exactly when the falsifier finds no violation
    # up to n = 7 (PageRank's first one is at n = 6, next test); exact
    # members are checked exactly, spectral members report only confident
    # violations and log near-band events
    for m in one_measure_per_kind:
        result = falsify_axiom(m, "1", 7, cache=shared_cache)
        assert (result.counterexample is None) == m.is_increasing, m.kind
        if m.is_exact and m.is_increasing:
            assert not result.near_band


def test_pagerank_and_auto_katz_lose_from_an_own_edge():
    # E`r? is K4 minus 45 on {0, 1, 4, 5} plus the edge 23; adding 02 lowers
    # vertex 2's PageRank by exactly 77231/15140694 at d = 17/20
    g = from_graph6("E`r?")
    before = centrality_vector(pagerank(), g)[2]
    after = centrality_vector(pagerank(), g.add_edge(0, 2))[2]
    assert after - before == pytest.approx(-77231 / 15140694, rel=1e-9)
    # on the path Bo, centred at 0, dropping 02 doubles the automatic alpha
    path = from_graph6("Bo")
    before = centrality_vector(katz(), path)[0]
    after = centrality_vector(katz(), path.remove_edge(0, 2))[0]
    assert after - before == pytest.approx(2 / 7, rel=1e-9)
    assert not pagerank().is_increasing and not katz().is_increasing
    assert katz(0.1).is_increasing


def test_falsifier_reads_a_float_zero_as_undecided():
    # the same zero deltas the engine settles (the empty graph and K2 at
    # n = 2) neither confirm nor violate a strict increase
    from apsn.centrality import eigenvector

    result = falsify_axiom(eigenvector(), "1", 2)
    assert result.counterexample is None
    assert [(e.graph, e.i, e.j, e.vertex) for e in result.near_band] == [
        (Graph.empty(2), 0, 1, 0),
        (Graph.empty(2), 0, 1, 1),
    ]



@pytest.mark.parametrize("axiom", AXIOMS)
def test_falsifier_equals_labeled_scan_n4(shared_cache, one_measure_per_kind, axiom):
    # the class walk reports what a scan of every labeled graph reports
    for m in one_measure_per_kind:
        expected = labeled_falsify_axiom(m, axiom, 4, cache=shared_cache).to_json()
        assert falsify_axiom(m, axiom, 4, cache=shared_cache).to_json() == expected, m.kind


@pytest.mark.parametrize("axiom", AXIOMS)
def test_falsifier_equals_labeled_scan_spectral_n5(shared_cache, axiom):
    # float deltas: every near-band instance is listed under its own
    # labeling, which takes the fragile fallback
    for m in (eigenvector(), katz(0.1), pagerank()):
        expected = labeled_falsify_axiom(m, axiom, 5, cache=shared_cache).to_json()
        assert falsify_axiom(m, axiom, 5, cache=shared_cache).to_json() == expected, m.kind


def test_falsifier_scans_every_labeling_of_a_fragile_class(shared_cache):
    # Bo (edges 01, 02) and Bg (edges 01, 12) label the path on three
    # vertices.  Adding its missing pair raises each end's eigenvector value
    # by the same amount in exact arithmetic, but the float readings differ
    # in the last digits.  A tolerance that puts the band's outer edge
    # between Bg's smaller reading and Bo's readings makes Bg alone list a
    # near-band instance; Bo's reading is fragile, so the walk scans Bg too.
    m = eigenvector()

    def readings(g, i, j):
        before, after = shared_cache.vector(m, g), shared_cache.vector(m, g.add_edge(i, j))
        return [after[k] - before[k] for k in (i, j)]

    low, high = readings(Graph(3, 5), 0, 2)[1], min(readings(Graph(3, 3), 1, 2))
    assert low < high
    tol = (low + high) / 2 / AMBIGUITY_BAND
    result = falsify_axiom(m, "3", 3, tol, shared_cache)
    expected = labeled_falsify_axiom(m, "3", 3, tol, shared_cache)
    assert result.to_json() == expected.to_json()
    near = [(e.graph.mask, e.i, e.j, e.vertex) for e in result.near_band]
    assert (5, 0, 2, 2) in near and all(mask != 3 for mask, *_ in near)


def test_falsifier_rejects_auto_katz():
    from apsn.centrality import katz

    with pytest.raises(ParameterError):
        falsify_axiom(katz(), "1", 3)
