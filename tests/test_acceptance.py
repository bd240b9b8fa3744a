"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Exhaustive sweeps share one evaluation cache across the module, so
the whole suite stays well inside the stated runtime budgets.
"""
import functools
import pathlib
import random
import time
from fractions import Fraction

from apsn.census import conjecture_report, run_census
from apsn.centrality import (
    betweenness,
    closeness,
    decay,
    degree,
    eccentricity,
    game_theoretic,
    harmonic,
    linear,
    rw_closeness,
)
from apsn.game import (
    EvalCache,
    GameSpec,
    MonotoneAgent,
    NumericAgent,
    epsilon_witness,
    finite_cost_check,
    is_apsn,
    uniform_game,
)
from apsn.graphs import (
    Graph,
    bits,
    bridges,
    canonical_form,
    component_masks,
    graph_count,
    read_edge_list,
)
from apsn.learning import ApsnOracle, learn_threshold
from apsn.profiles import load_profile_file
from apsn.structure import (
    check_monotone_structure,
    ecc_necessary,
    ecc_strict_condition_distance,
    ecc_sufficient,
    falsify_axiom,
    infer_types,
    is_stratified,
    betweenness_condition,
    realize_sequence,
    stratified_sequences,
)
from apsn.game import GT_HOMOPHILY
from apsn.truncation import (
    greedy_linear_apsn,
    pareto_check,
    truncated_game,
    universality_thresholds,
)
from oracles import brute_shapley, ecc_strict_condition_paths, enumerate_labeled_graphs

CACHE = EvalCache()
DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


def data_graph(name):
    return read_edge_list((DATA / f"{name}.edges").read_text())


def criterion(cid, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.monotonic()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                print(f"\n[FAIL] criterion {cid}: {label}")
                raise
            print(f"\n[PASS] criterion {cid}: {label} ({time.monotonic() - start:.1f}s)")
            return out

        return wrapper

    return deco


def census_stable_masks(spec, n):
    return set(run_census(spec, n, cache=CACHE).stable_masks)


# ---------------------------------------------------------------------------


@criterion("1", "decay-centrality census finds exactly the complete graph")
def test_criterion_01_decay_census():
    for n in (3, 4, 5):
        spec = uniform_game(n, NumericAgent(decay(Fraction(1, 2))))
        start = time.monotonic()
        result = run_census(spec, n, cache=CACHE)
        elapsed = time.monotonic() - start
        assert result.stable_masks == [Graph.complete(n).mask]
        if n == 5:
            assert elapsed < 10.0, f"n=5 census took {elapsed:.1f}s"


@criterion("2", "closeness and rw-closeness pass the componentwise falsifier, n<=5")
def test_criterion_02_componentwise_axiom():
    start = time.monotonic()
    for measure in (closeness(), rw_closeness()):
        result = falsify_axiom(measure, "2", 5, cache=CACHE)
        assert result.counterexample is None, result.counterexample
        assert not result.near_band
    assert time.monotonic() - start < 120.0


@criterion("3", "coverage-Shapley flips follow the degree threshold; closed form = brute force")
def test_criterion_03_gametheoretic_equivalence():
    gt = game_theoretic()

    def f(d):
        return (d + 1) * (d + 2) - 3

    for n in range(2, 7):
        for g in enumerate_labeled_graphs(n):
            vec = CACHE.vector(gt, g)
            degs = g.degrees()
            for i, j in g.non_edges():
                h = g.add_edge(i, j)
                hvec = CACHE.vector(gt, h)
                willing_i = hvec[i] - vec[i] > 0
                willing_j = hvec[j] - vec[j] > 0
                assert willing_i == (degs[j] <= f(degs[i]))
                assert willing_j == (degs[i] <= f(degs[j]))
            for i, j in g.edges():
                h = g.remove_edge(i, j)
                hvec = CACHE.vector(gt, h)
                numeric = hvec[i] - vec[i] >= 0 or hvec[j] - vec[j] >= 0
                rule = degs[j] - 1 > f(degs[i] - 1) or degs[i] - 1 > f(degs[j] - 1)
                assert numeric == rule
    for n in range(1, 6):
        for g in enumerate_labeled_graphs(n):
            vec = CACHE.vector(gt, g)
            for i in range(n):
                assert brute_shapley(g, i) == vec[i]


@criterion("4", "monotone mixtures: census = structure test; inferred types contain truth")
def test_criterion_04_monotone_structure():
    rng = random.Random(424242)
    kinds = ("1", "1p", "2", "2p")
    for trial in range(30):
        types = tuple(rng.choice(kinds) for _ in range(5))
        spec = GameSpec(tuple(MonotoneAgent(t) for t in types))
        stable = set()
        for g in enumerate_labeled_graphs(5):
            if is_apsn(spec, g, CACHE, early_exit=True).stable:
                stable.add(g.mask)
                cands = infer_types(g)
                for v in range(5):
                    assert types[v] in cands[v], (types, g.mask, v)
        predicted = {
            g.mask
            for g in enumerate_labeled_graphs(5)
            if check_monotone_structure(g, types)
        }
        assert stable == predicted, f"assignment {types}: census != structure test"
    fixture = data_graph("core_periphery_fifteen")
    spec = load_profile_file(str(DATA / "core_periphery_types.json"), fixture.n)
    assert check_monotone_structure(fixture, [agent.kind for agent in spec.agents])
    assert is_apsn(spec, fixture, CACHE).stable


@criterion("5", "degree-homophily census at n=6 equals the stratified-clique family")
def test_criterion_05_stratified_census():
    start = time.monotonic()
    spec = uniform_game(6, NumericAgent(game_theoretic()))
    result = run_census(spec, 6, shards=8, cache=CACHE)
    found = {c for c, _ in result.apsn_canonical}
    predicted = {
        canonical_form(realize_sequence(s)) for s in stratified_sequences(6, GT_HOMOPHILY)
    }
    assert found == predicted
    # the labeled stable set also matches the structural membership test
    predicted_masks = {
        g.mask for g in enumerate_labeled_graphs(6) if is_stratified(g, GT_HOMOPHILY)
    }
    assert set(result.stable_masks) == predicted_masks
    assert time.monotonic() - start < 300.0


@criterion("6", "betweenness census at n=4..6 equals the domination criterion")
def test_criterion_06_betweenness_census():
    for n in (4, 5, 6):
        spec = uniform_game(n, NumericAgent(betweenness()))
        stable = census_stable_masks(spec, n)
        predicted = {
            g.mask for g in enumerate_labeled_graphs(n) if betweenness_condition(g)
        }
        assert stable == predicted, f"n={n}"
        for g6_member in _expected_betweenness_members(n):
            assert g6_member.mask in stable
    fixture = data_graph("betweenness_ten")
    spec10 = uniform_game(10, NumericAgent(betweenness()))
    assert is_apsn(spec10, fixture, CACHE).stable
    assert fixture.has_edge(3, 4) and fixture.has_edge(3, 8) and fixture.has_edge(4, 8)
    assert betweenness_condition(fixture)


def _expected_betweenness_members(n):
    if n == 4:
        return [Graph.complete_bipartite(2, 2)]
    if n == 5:
        return [
            Graph.complete_bipartite(2, 3),
            Graph.disjoint_union(Graph.cycle(4), Graph.empty(1)),
        ]
    return []


@criterion("7", "eccentricity: stable sets respect the necessary test; the sufficient family is stable")
def test_criterion_07_eccentricity():
    for n in (4, 5, 6):
        spec = uniform_game(n, NumericAgent(eccentricity()))
        stable = census_stable_masks(spec, n)
        for mask in stable:
            assert ecc_necessary(Graph(n, mask))
        for g in enumerate_labeled_graphs(n):
            if ecc_sufficient(g):
                assert g.mask in stable, f"sufficient graph unstable at n={n}: {g.mask}"
    fixture = data_graph("eccentricity_six")
    spec6 = uniform_game(6, NumericAgent(eccentricity()))
    assert is_apsn(spec6, fixture, CACHE).stable


@criterion("8", "betweenness and eccentricity flip monotonicity laws, n<=6")
def test_criterion_08_flip_monotonicity_laws():
    bet = betweenness()
    ecc = eccentricity()
    paths_gap_seen = False
    for n in range(2, 7):
        for g in enumerate_labeled_graphs(n):
            bvec = CACHE.vector(bet, g)
            evec = CACHE.vector(ecc, g)
            adj = g.adjacency()
            degs = [a.bit_count() for a in adj]
            comp_of = {v: comp for comp in component_masks(g) for v in bits(comp)}
            for i, j in g.non_edges():
                h = g.add_edge(i, j)
                bh = CACHE.vector(bet, h)
                eh = CACHE.vector(ecc, h)
                same = bool(comp_of[i] >> j & 1)
                for k, other in ((i, j), (j, i)):
                    if not same:
                        # bridge addition: betweenness weakly up, strictly
                        # unless the endpoint was isolated
                        assert bh[k] >= bvec[k]
                        assert (bh[k] > bvec[k]) == (degs[k] > 0)
                        # eccentricity centrality never rises on a bridge
                        # addition (isolated endpoints sit outside the
                        # formula's domain)
                        if degs[k] > 0:
                            assert eh[k] <= evec[k]
                    else:
                        assert bh[k] >= bvec[k]  # non-bridge addition
                        assert eh[k] >= evec[k]
                        strict = eh[k] > evec[k]
                        assert strict == ecc_strict_condition_distance(g, k, other)
                        if ecc_strict_condition_paths(g, k, other):
                            assert strict
                        elif strict:
                            paths_gap_seen = True
            for i, j in bridges(g):
                h = g.remove_edge(i, j)
                bh = CACHE.vector(bet, h)
                for k in (i, j):
                    assert (bh[k] >= bvec[k]) == (degs[k] == 1)
    # the 'all shortest paths' reading provably misses strict increases
    assert paths_gap_seen


@criterion("9", "truncation: universality, pareto equivalence, greedy construction")
def test_criterion_09_truncation():
    rng = random.Random(909090)
    measure_makers = (degree, harmonic, lambda: decay(Fraction(1, 2)))
    for _ in range(100):
        n = rng.randrange(2, 8)
        g = Graph(n, rng.randrange(graph_count(n)))
        measures = [rng.choice(measure_makers)() for _ in range(n)]
        thetas = universality_thresholds(g, measures, CACHE)
        assert is_apsn(truncated_game(measures, thetas), g, CACHE, early_exit=True).stable
    for make in (degree, harmonic):
        for n in (3, 4, 5):
            for _ in range(2):
                thetas = [
                    Fraction(rng.randrange(0, 4 * n), rng.choice((1, 2, 3)))
                    for _ in range(n)
                ]
                measures = [make()] * n
                spec = truncated_game(measures, thetas)
                for g in enumerate_labeled_graphs(n):
                    assert (
                        is_apsn(spec, g, CACHE, early_exit=True).stable
                        == pareto_check(g, measures, thetas, CACHE)
                    )
    for _ in range(100):
        n = rng.randrange(2, 8)
        w = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                w[i][j] = w[j][i] = rng.randrange(0, 9)
        w = tuple(tuple(row) for row in w)
        thetas = [Fraction(rng.randrange(0, 20)) for _ in range(n)]
        g = greedy_linear_apsn(w, thetas)
        measures = [linear(w)] * n
        assert is_apsn(truncated_game(measures, thetas), g, CACHE).stable
        if linear(w).is_increasing:  # no pair of weight 0
            assert pareto_check(g, measures, thetas)


@criterion("10", "learning: intervals bracket hidden thresholds within the query budget")
def test_criterion_10_learning():
    rng = random.Random(101010)
    checked_agents = 0
    for _ in range(50):
        n = rng.randrange(3, 6)
        if rng.random() < 0.5:
            w = tuple(
                tuple(0 if i == j else 1 for j in range(n)) for i in range(n)
            )
        else:
            raw = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    raw[i][j] = raw[j][i] = rng.randrange(0, 4)
            w = tuple(tuple(row) for row in raw)
        agents = tuple(
            NumericAgent(linear(w), Fraction(rng.randrange(0, 8))) for _ in range(n)
        )
        oracle = ApsnOracle(GameSpec(agents), cache=EvalCache())
        for i in range(n):
            before = oracle.queries
            result = learn_threshold(oracle, i)
            used = oracle.queries - before
            assert used <= sum(w[i]) + 1
            if result.hypothesis_ok:
                checked_agents += 1
                assert result.low <= agents[i].threshold <= result.high
    assert checked_agents >= 50  # the hypothesis holds often enough to bite


@criterion("11", "conjecture reports for random-walk betweenness and eigenvector at n=4")
def test_criterion_11_conjectures():
    start = time.monotonic()
    rwb = conjecture_report("rwbetweenness", 4)
    assert rwb["verdict"] in ("consistent with conjecture", "deviation found")
    found = set(rwb["stable"])
    assert set(rwb["counterexamples"]) <= found
    assert not (set(rwb["missing_expected"]) & found)
    eig = conjecture_report("eigenvector", 4)
    assert eig["verdict"] in ("consistent with conjecture", "deviation found")
    assert set(eig["counterexamples"]) <= set(eig["stable"])
    assert isinstance(eig["ambiguous"], list)
    # both reports internally consistent: stable sets split into expected and
    # counterexamples exactly
    for rep, expected_count in ((rwb, 2), (eig, 1)):
        if rep["verdict"] == "consistent with conjecture":
            assert len(rep["stable"]) == expected_count
            assert not rep["counterexamples"] and not rep["missing_expected"]
    assert time.monotonic() - start < 300.0


@criterion("12", "asymptotic verdicts match finite-cost checks at the witness cost, n<=5")
def test_criterion_12_engine_consistency():
    for make in (degree, harmonic, closeness, game_theoretic):
        spec_measure = make()
        for n in (2, 3, 4, 5):
            spec = uniform_game(n, NumericAgent(spec_measure))
            for g in enumerate_labeled_graphs(n):
                eps = epsilon_witness(spec, g, CACHE)
                assert is_apsn(spec, g, CACHE, early_exit=True).stable == finite_cost_check(
                    spec, g, eps, CACHE
                )
