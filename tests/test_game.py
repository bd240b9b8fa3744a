import hashlib
import json
import random
import weakref
from fractions import Fraction
from functools import partial

import pytest

from apsn import game
from apsn.centrality import (
    KINDS,
    betweenness,
    closeness,
    decay,
    degree,
    eccentricity,
    eigenvector,
    game_theoretic,
    harmonic,
    linear,
    pagerank,
    rw_closeness,
)
from apsn.errors import ContractError, ParameterError, SpecValidationError
from apsn.game import (
    EvalCache,
    GT_HOMOPHILY,
    ExactPolicy,
    GameSpec,
    HomophilicAgent,
    HomophilyFunction,
    MonotoneAgent,
    NumericAgent,
    TolerantPolicy,
    best_response_dynamics,
    candidate_flips,
    default_policy,
    epsilon_witness,
    finite_cost_check,
    is_apsn,
    rule_of,
    rule_willing,
    uniform_game,
)
from apsn.graphs import (
    Graph,
    bits,
    component_of,
    graph_classes,
    graph_count,
    pair_index,
    pair_list,
    reachable_from,
)
from apsn.values import Exact, sign_with_band
from oracles import (
    delta_add,
    delta_remove,
    eigenvector_by_iteration,
    enumerate_labeled_graphs,
    improving_add,
    improving_remove,
    pagerank_by_iteration,
    seeded_weights,
    two_way_eval_flip,
)


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


def test_default_policy_is_tolerant_only_for_approximate_measures():
    assert default_policy([NumericAgent(eigenvector())]) == TolerantPolicy(1e-9)
    assert default_policy([NumericAgent(degree()), MonotoneAgent("1")]) == ExactPolicy()
    assert default_policy([HomophilicAgent()]) == ExactPolicy()


@pytest.mark.parametrize("tol", [-1e-9, float("nan"), float("-inf")])
def test_tolerant_policy_rejects_negative_or_nan_tolerance(tol):
    # with tol < 0, sign_with_band(0.0, tol) reads an exact zero as a
    # confident loss, and a census's fragile fallback does not track that
    with pytest.raises(ParameterError):
        TolerantPolicy(tol)
    assert TolerantPolicy(0.0).tol == 0.0


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
    """Local, global and truncated kinds alike: every delta the bridge reads
    comes from the one delta builder."""
    for measure, threshold in (
        (degree(), None), (harmonic(), None), (closeness(), None), (game_theoretic(), None),
        (betweenness(), None), (rw_closeness(), None), (eccentricity(), None),
        (degree(), Fraction(2)), (closeness(), Fraction(1, 2)), (betweenness(), Fraction(1)),
    ):
        spec = numeric_game(4, measure, threshold)
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


def test_linear_weight_table_of_another_size_is_refused():
    for size in (2, 4):
        spec = numeric_game(3, linear([[0] * size for _ in range(size)]))
        for g in (Graph.empty(3), Graph.complete(3)):
            with pytest.raises(ParameterError, match="weight table is"):
                is_apsn(spec, g)


def test_closeness_trajectories_n7_are_pinned():
    # sha256 of the JSON of 50 seeded n = 7 closeness runs on one shared
    # cache, recorded before endpoints of local kinds left the cached vectors
    spec = numeric_game(7, closeness())
    cache = EvalCache()
    runs = []
    for seed in range(50):
        g0 = Graph(7, random.Random(seed).getrandbits(21))
        runs.append(best_response_dynamics(spec, g0, 200, seed=seed, cache=cache).to_json())
    assert sum(len(r["steps"]) for r in runs) == 458 and all(r["converged"] for r in runs)
    digest = hashlib.sha256(json.dumps(runs, sort_keys=True).encode()).hexdigest()
    assert digest == "62f8c72a3ee50c2e40c4b55f957d542705764a55468448077a8a6753d39498b2"


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
        # truncated local and global kinds: every reported delta against the
        # whole-vector oracle
        lambda n: numeric_game(n, degree(), Fraction(2)),
        lambda n: numeric_game(n, betweenness(), Fraction(1)),
        lambda n: numeric_game(n, closeness(), Fraction(1, 2)),
    ],
    ids=["decay-1/2", "pagerank", "eigenvector", "degree-trunc-2", "betweenness-trunc-1",
         "closeness-trunc-1/2"],
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
            early = is_apsn(spec, g, cache, early_exit=True)
            assert early.verdict == report.verdict
            # the early-exit report lists the full one's flips up to and
            # including its first confident block, and no delta
            order = {flip: k for k, flip in enumerate(candidate_flips(g))}
            unsure = {flip_key(f) for f in report.ambiguous_flips}
            confident = [flip_key(f) for f in report.blocking_flips if flip_key(f) not in unsure]
            last = order[confident[0]] if confident else len(order)
            for seen, full in ((early.blocking_flips, report.blocking_flips),
                               (early.ambiguous_flips, report.ambiguous_flips)):
                assert [flip_key(f) for f in seen] == [
                    flip_key(f) for f in full if order[flip_key(f)] <= last
                ], g
            assert all(
                f.delta_i is None and f.delta_j is None
                for f in early.blocking_flips + early.ambiguous_flips
            ), g
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


# -- one flip rule against the two-direction oracle -----------------------------------


def cycled(n, agents):
    return GameSpec(tuple(agents[k % len(agents)] for k in range(n)))


def tolerant_game(n, measure, tol):
    return uniform_game(n, NumericAgent(measure), TolerantPolicy(tol))


ONE_RULE_GAMES = {
    **{f"monotone-{kind}": partial(rule_game, kind=kind) for kind in ("1", "1p", "2", "2p")},
    "monotone-mixed": partial(cycled, agents=[MonotoneAgent(t) for t in ("1", "2p", "2", "1p", "2")]),
    "homophilic-gt": partial(uniform_game, agent=HomophilicAgent()),
    "homophilic-table": partial(
        uniform_game, agent=HomophilicAgent(HomophilyFunction(table=(0, 1, 2, 4, 8)))
    ),
    # plateau thresholds: values the agents reach, so a flip can end on them
    "truncated-closeness": partial(numeric_game, measure=closeness(), threshold=Fraction(1, 5)),
    "truncated-closeness-1/4": partial(numeric_game, measure=closeness(), threshold=Fraction(1, 4)),
    "truncated-degree": partial(numeric_game, measure=degree(), threshold=Fraction(2)),
    "closeness-rule-mixed": partial(cycled, agents=[
        NumericAgent(closeness()), MonotoneAgent("2"), HomophilicAgent()
    ]),
    "numeric-rule-mixed": partial(cycled, agents=[
        NumericAgent(decay(Fraction(1, 2))),
        MonotoneAgent("2"),
        HomophilicAgent(),
        NumericAgent(degree(), Fraction(2)),
        MonotoneAgent("2p"),
    ]),
    **{f"local-{m.kind}": partial(numeric_game, measure=m)
       for m in (degree(), closeness(), eccentricity(), decay(Fraction(1, 2)), harmonic(), game_theoretic())},
    "local-linear": lambda n: numeric_game(n, linear(seeded_weights(n))),
    "local-global-mixed": partial(cycled, agents=[
        NumericAgent(closeness()),
        NumericAgent(betweenness()),
        NumericAgent(decay(Fraction(1, 2))),
        NumericAgent(rw_closeness()),
    ]),
    **{f"{name}-{tol:g}": partial(tolerant_game, measure=m, tol=tol)
       for name, m in (("eigenvector", eigenvector()), ("pagerank", pagerank()))
       for tol in (3e-5, 1e-3)},
}


@pytest.mark.parametrize("name", list(ONE_RULE_GAMES))
def test_one_flip_rule_matches_two_way_oracle_exhaustive_n5(name, monkeypatch, shared_cache):
    """Every report, with and without early exit, equals the one built by the
    flip evaluation that spells out additions and removals separately, with
    no agent rule-typed, so no flip is decided from components or bridges."""
    specs = {n: ONE_RULE_GAMES[name](n) for n in range(1, 6)}
    cases = [
        (n, g, early)
        for n in range(1, 6)
        for g in enumerate_labeled_graphs(n)
        for early in (False, True)
    ]
    reports = [is_apsn(specs[n], g, shared_cache, early_exit=early) for n, g, early in cases]

    def oracle_eval_flip(spec, i, j, adding, cache, before):
        g = before.g
        h = g.toggled(pair_index(g.n, i, j))
        return two_way_eval_flip(spec, g, h, i, j, adding, cache, before)

    monkeypatch.setattr(game, "_eval_flip", oracle_eval_flip)
    monkeypatch.setattr(game, "rule_of", lambda agent: None)
    untyped = {n: ONE_RULE_GAMES[name](n) for n in range(1, 6)}
    assert not any(spec.rules[0] for spec in untyped.values())
    for (n, g, early), report in zip(cases, reports):
        expected = is_apsn(untyped[n], g, shared_cache, early_exit=early)
        assert report.to_json() == expected.to_json(), (g, early)
        assert report.verdict == expected.verdict, (g, early)
        assert report.fragile == expected.fragile, (g, early)
    if name == "eigenvector-0.001":
        # both readings of an ambiguous removal were compared
        removals = [
            f in r.blocking_flips
            for r in reports[::2]
            for f in r.ambiguous_flips
            if f.kind == "remove"
        ]
        assert True in removals and False in removals


# -- pinned dynamics ------------------------------------------------------------------


#: games whose seeded trajectories are pinned
DYNAMICS_PIN_GAMES = {
    name: ONE_RULE_GAMES[name]
    for name in (
        "local-closeness", "local-decay", "local-harmonic", "truncated-degree",
        "closeness-rule-mixed",
    )
}

#: sha256 of the JSON of pinned_runs(game, rule), recorded before flips were
#: settled by kind facts
DYNAMICS_PINS = {
    ("local-closeness", "first"):
        "b44aa9df58005bde1d4a930d9f5c57a0e45cbc1c43ece3736a140d5f5c6ece55",
    ("local-closeness", "random"):
        "362e88fa883a14445367f3243db46ad7dccaabdbe87d9a22631fd748b6880279",
    ("local-decay", "first"):
        "603c30cf9bc87b96e93089ff5038f164f292ecb1e6f3004938ab8e6e1a8072ef",
    ("local-decay", "random"):
        "2aab302bd4faa48318b0d916486282d1eff9a8516c52a0e8f0e04367b591d8c9",
    ("local-harmonic", "first"):
        "37f6a43d5abbdbc5b7b306973bb1bcf33a94c350b66e483858b4fe1a4021059b",
    ("local-harmonic", "random"):
        "087dc8746729fbe83c27623993413c534063636bcbe205c381068507fc4674cb",
    ("truncated-degree", "first"):
        "6c63b234e8f5f54aac86c8c7f612f0e9998e506aed7078445f1807f77d7acd4e",
    ("truncated-degree", "random"):
        "0b227d9b02c35152485edfcfb0fb10643951bc3440a41089dfbd1d3c69edc6d7",
    ("closeness-rule-mixed", "first"):
        "1f23ffc4dd999614201c62b2ad1c3da5056bc30b2a35b498ad8b643d1c1c80cd",
    ("closeness-rule-mixed", "random"):
        "12350b25be043879e4c0d88b7db031322026dd6758e53fccf841d380a904ffbf",
}


def pinned_runs(make, rule):
    """Eight seeded starts at n = 6 and at n = 7 on one shared cache, and per
    n one run whose budget of two steps ends it unconverged."""
    runs = []
    cache = EvalCache()
    for n in (6, 7):
        spec = make(n)
        pairs = n * (n - 1) // 2
        for seed in range(8):
            g0 = Graph(n, random.Random(f"{n}-{seed}").getrandbits(pairs))
            run = best_response_dynamics(spec, g0, 100, seed=seed, rule=rule, cache=cache)
            runs.append(run.to_json())
        runs.append(best_response_dynamics(spec, g0, 2, seed=0, rule=rule, cache=cache).to_json())
    return runs


@pytest.mark.parametrize("rule", ["first", "random"])
@pytest.mark.parametrize("name", list(DYNAMICS_PIN_GAMES))
def test_dynamics_trajectories_are_pinned(name, rule):
    runs = pinned_runs(DYNAMICS_PIN_GAMES[name], rule)
    # only the two-step runs stop short
    assert [r["converged"] for r in runs] == ([True] * 8 + [False]) * 2
    assert [len(r["steps"]) for r in runs[8::9]] == [2, 2]
    digest = hashlib.sha256(json.dumps(runs, sort_keys=True).encode()).hexdigest()
    assert digest == DYNAMICS_PINS[name, rule]



#: games whose dynamics evaluate global kinds or read a tolerant band
GLOBAL_DYNAMICS_GAMES = {
    "betweenness": partial(numeric_game, measure=betweenness()),
    "truncated-betweenness": partial(numeric_game, measure=betweenness(), threshold=Fraction(1)),
    "pagerank-1e-09": partial(tolerant_game, measure=pagerank(), tol=1e-9),
    "closeness-betweenness": lambda n: GameSpec(
        (NumericAgent(closeness()),) * 3 + (NumericAgent(betweenness()),) * (n - 3)
    ),
}

#: (steps, sha256 of the runs' JSON) of each game's sixteen n = 6 runs,
#: recorded while every step still built its deltas as it was taken
GLOBAL_DYNAMICS_PINS = {
    "betweenness": (59, "3d0d0a0f6e22a100658c1afab5004c210a7bba33804cec0e661559cf15a9d3f4"),
    "truncated-betweenness":
        (66, "e5a314e0710cd29106fddec21d585e6b7fac9788bece5240c74be4f5a7fdd298"),
    "pagerank-1e-09": (118, "fc8f5c6a2546486e4191189f8685dc5838257f3c44d919da57c970069c06f862"),
    "closeness-betweenness":
        (98, "dfdeafabade9dbd9175d1583f50f40cd745fdb4ce0f5367505bc0a80080fb60b"),
}


@pytest.mark.parametrize("name", list(GLOBAL_DYNAMICS_GAMES))
def test_global_and_tolerant_dynamics_take_flips_of_full_reports(name):
    """Every step, with its deltas, is a blocking flip of the full report on
    its graph under a fresh cache (the first one under rule 'first'), for
    eight seeded n = 6 starts per rule on one shared cache."""
    spec = GLOBAL_DYNAMICS_GAMES[name](6)
    cache = EvalCache()
    runs, steps = [], 0
    for rule in ("first", "random"):
        for seed in range(8):
            g = Graph(6, random.Random(f"6-{seed}").getrandbits(15))
            traj = best_response_dynamics(spec, g, 100, seed=seed, rule=rule, cache=cache)
            assert traj.converged
            for flip in traj.steps:
                blocking = is_apsn(spec, g, EvalCache()).blocking_flips
                assert flip in (blocking[:1] if rule == "first" else blocking), (rule, g)
                g = g.toggled(pair_index(6, flip.i, flip.j))
            assert g == traj.final
            steps += len(traj.steps)
            runs.append(traj.to_json())
    digest = hashlib.sha256(json.dumps(runs, sort_keys=True).encode()).hexdigest()
    assert (steps, digest) == GLOBAL_DYNAMICS_PINS[name]


def test_trajectory_keeps_no_cache_and_builds_its_steps_once(monkeypatch):
    """A kept trajectory does not keep the caller's cache alive, reading its
    steps computes no vector of a global kind and stores none in the
    caller's cache, and a second read is the same list."""
    spec = numeric_game(6, betweenness())
    cache = EvalCache()
    g0 = Graph(6, random.Random("6-1").getrandbits(15))
    traj = best_response_dynamics(spec, g0, 100, seed=3, cache=cache)
    cache.vectors.clear()

    def no_kernel(m, g):
        raise AssertionError(f"replay computed a {m.kind} vector")

    with monkeypatch.context() as patch:
        patch.setattr(game, "centrality_vector", no_kernel)
        steps = traj.steps
    assert steps and traj.steps is steps
    assert len(cache.vectors) == 0
    ref = weakref.ref(cache)
    del cache
    assert ref() is None
    assert traj.to_json()["steps"] == [f.to_json() for f in steps]

def test_settle_mask_marks_untruncated_agents_of_kinds_with_the_fact():
    """The rule table: untruncated agents of degree, decay, harmonic (rule
    "1"), closeness ("2 or isolated") and game-theoretic centrality
    ("homophily", as ``GT_HOMOPHILY``), monotone agents (their type) and
    homophilic agents (their threshold) are rule-typed.  ``GameSpec.rules``
    marks who refuses in each component case and lists the homophilic
    ones, which read degrees instead."""
    assert {kind: KINDS[kind].rule for kind in KINDS if KINDS[kind].rule} == {
        "degree": "1", "closeness": "2 or isolated", "decay": "1", "harmonic": "1",
        "gametheoretic": "homophily",
    }
    # every kind with a rule is local so far
    assert all(KINDS[kind].at for kind in KINDS if KINDS[kind].rule)
    none, every = (0, 0, 0, 0), (0b11111,) * 4
    for m in (degree(), decay(Fraction(1, 2)), harmonic()):
        assert numeric_game(5, m).rules == (0b11111, none, ())
        assert numeric_game(5, m, Fraction(1)).rules == (0, none, ())
    # (across, across and isolated, inside, inside and isolated)
    assert numeric_game(5, closeness()).rules == (0b11111, (0b11111, 0, 0, 0), ())
    homophilic = ((GT_HOMOPHILY, 0b11111),)
    assert numeric_game(5, game_theoretic()).rules == (0b11111, none, homophilic)
    assert uniform_game(5, HomophilicAgent()).rules == (0b11111, none, homophilic)
    assert numeric_game(5, game_theoretic(), Fraction(1)).rules == (0, none, ())
    for m in (eccentricity(), linear(seeded_weights(5)), betweenness()):
        assert numeric_game(5, m).rules == (0, none, ())
    for kind, refuse in (("1", none), ("1p", every), ("2", (0b11111,) * 2 + (0, 0)),
                         ("2p", (0, 0) + (0b11111,) * 2)):
        assert rule_game(5, kind).rules == (0b11111, refuse, ())
    # closeness, M2, homophilic, closeness, M2
    assert ONE_RULE_GAMES["closeness-rule-mixed"](5).rules == (
        0b11111, (0b11011, 0b10010, 0, 0), ((GT_HOMOPHILY, 0b00100),)
    )


def rule_cases():
    """(n, adjacency) of every labeled graph with n <= 5 and of every class
    representative at n = 6 and 7."""
    for n in range(1, 6):
        for g in enumerate_labeled_graphs(n):
            yield n, g.adjacency()
    for n in (6, 7):
        for mask in graph_classes(n):
            yield n, Graph(n, mask).adjacency()


@pytest.mark.parametrize(
    "measure",
    [degree(), closeness(), decay(Fraction(1, 2)), harmonic(), game_theoretic()],
    ids=["degree", "closeness", "decay", "harmonic", "gametheoretic"],
)
def test_kind_rule_equals_the_evaluated_strict_gain(measure):
    """For every pair ij of every case and each endpoint k, the kind's rule
    on lo (the graph without ij) answers whether k's value strictly rises
    from lo to hi (the graph with it)."""
    kind = KINDS[measure.kind]
    rule = rule_of(NumericAgent(measure))
    seen = set()
    for n, adj in rule_cases():
        for i, j in pair_list(n):
            lo, hi = list(adj), list(adj)
            lo[i] &= ~(1 << j)
            lo[j] &= ~(1 << i)
            hi[i] |= 1 << j
            hi[j] |= 1 << i
            same = bool(reachable_from(lo, 1 << i) >> j & 1)
            for k, o in ((i, j), (j, i)):
                gains = kind.at(hi, k, measure) > kind.at(lo, k, measure)
                if isinstance(rule, HomophilyFunction):
                    says = lo[o].bit_count() <= rule(lo[k].bit_count())
                else:
                    says = rule_willing(rule, same, not lo[k])
                assert says == gains, (adj, i, j, k)
                seen.add((same, not lo[k]))
    # every possible case was met: an isolated k has no partner in its component
    assert seen == {(True, False), (False, False), (False, True)}


# -- decided pairs as pair masks --------------------------------------------------------


#: games whose pairs are all decided by rules that read components
DECIDED_GAMES = {
    **{f"local-{m.kind}": partial(numeric_game, measure=m)
       for m in (degree(), decay(Fraction(1, 2)), harmonic(), closeness())},
    **{f"monotone-{kind}": partial(rule_game, kind=kind) for kind in ("1", "1p", "2", "2p")},
    "closeness-degree-monotone": partial(cycled, agents=[
        NumericAgent(closeness()), MonotoneAgent("2p"), NumericAgent(degree()),
        MonotoneAgent("2"), NumericAgent(closeness()), MonotoneAgent("1p"),
    ]),
}


def reference_blocks(spec, g, adding):
    """Pair mask of the additions (``adding``) of g that no rule-typed end
    refuses, or of its removals that one refuses: each end asks its rule
    (``rule_willing`` or its homophily threshold f) about lo, g without the
    pair, built as a graph, and a numeric end does not answer.  In a game
    whose every agent is rule-typed, these are g's blocking flips."""
    rules = [rule_of(agent) for agent in spec.agents]
    out = 0
    for p, (i, j) in enumerate(pair_list(g.n)):
        if g.has_edge(i, j) == adding:
            continue
        lo = g if adding else g.remove_edge(i, j)
        same = bool(component_of(lo, i) >> j & 1)
        degrees = lo.degrees()
        refused = False
        for k, o in ((i, j), (j, i)):
            if isinstance(rules[k], HomophilyFunction):
                refused |= degrees[o] > rules[k](degrees[k])
            elif rules[k] is not None:
                refused |= not rule_willing(rules[k], same, degrees[k] == 0)
        if refused != adding:
            out |= 1 << p
    return out


@pytest.mark.parametrize("name", [
    *DECIDED_GAMES, "closeness-rule-mixed", "numeric-rule-mixed", "homophilic-gt",
    "homophilic-table",
])
def test_decided_blocks_match_rule_willing_on_lo_exhaustive_n5(name):
    make = DECIDED_GAMES.get(name) or ONE_RULE_GAMES[name]
    for n in range(1, 6):
        spec = make(n)
        for g in enumerate_labeled_graphs(n):
            adj = g.adjacency()
            for adding in (True, False):
                iso = game._isolated(adj)[not adding]
                got = game._decided_blocks(spec.rules, n, g.mask, adj, adding, iso)
                assert got == reference_blocks(spec, g, adding), (g, adding)


def reference_dynamics(spec, g0, max_steps, seed, rule):
    """(moves, final, converged) of a dynamics run that takes the first of
    ``reference_blocks``' flips in candidate order or draws one with
    ``random.Random(seed).choice``."""
    rng = random.Random(seed)
    pairs = pair_list(g0.n)
    g, moves = g0, []
    for step in range(max_steps + 1):
        flips = [
            (kind, *pairs[p])
            for kind, adding in (("add", True), ("remove", False))
            for p in bits(reference_blocks(spec, g, adding))
        ]
        if not flips or step == max_steps:
            return moves, g, not flips
        kind, i, j = flips[0] if rule == "first" else rng.choice(flips)
        moves.append((kind, i, j, None))
        g = g.add_edge(i, j) if kind == "add" else g.remove_edge(i, j)


@pytest.mark.parametrize("name", list(DECIDED_GAMES))
def test_decided_dynamics_match_a_reference_loop(name):
    """25 seeded starts per n = 4..7 and 3 at n = 9 and 12, whose pair
    masks are wider than 32 and 64 bits, under both rules, with a budget
    that lets them converge and one of two steps that mostly does not."""
    stopped = 0
    for n, starts in [*((n, 25) for n in range(4, 8)), (9, 3), (12, 3)]:
        spec = DECIDED_GAMES[name](n)
        assert spec.rules[0] == (1 << n) - 1
        for seed in range(starts):
            g0 = Graph(n, random.Random(f"{n}-{seed}").getrandbits(n * (n - 1) // 2))
            for rule in ("first", "random"):
                for budget in (100, 2):
                    traj = best_response_dynamics(spec, g0, budget, seed=seed, rule=rule)
                    got = traj.moves, traj.final, traj.converged
                    assert got == reference_dynamics(spec, g0, budget, seed, rule), (n, seed, rule)
                    stopped += not traj.converged
    assert stopped  # some budget ran out


def reference_scanned_dynamics(spec, g0, max_steps, seed, rule):
    """(steps, final, converged) of a dynamics run that reads a full
    ``is_apsn`` report of each graph on a fresh cache and takes its first
    blocking flip or draws one with ``random.Random(seed).choice``."""
    rng = random.Random(seed)
    g, steps = g0, []
    for step in range(max_steps + 1):
        flips = is_apsn(spec, g, EvalCache()).blocking_flips
        if not flips or step == max_steps:
            return steps, g, not flips
        flip = flips[0] if rule == "first" else rng.choice(flips)
        steps.append(flip)
        g = g.add_edge(flip.i, flip.j) if flip.kind == "add" else g.remove_edge(flip.i, flip.j)


@pytest.mark.parametrize("measure, threshold, sizes", [
    (degree(), Fraction(2), (9, 12)),
    (betweenness(), None, (9,)),
], ids=["degree-truncated-2", "betweenness"])
def test_evaluated_dynamics_match_a_reference_loop(measure, threshold, sizes):
    """3 seeded starts per n, whose pair masks are wider than 32 and 64
    bits, under both rules, with a budget that lets them converge and one
    of two steps; the steps' deltas come from the values the walk
    recorded."""
    stopped = 0
    for n in sizes:
        spec = numeric_game(n, measure, threshold)
        assert spec.rules[0] != (1 << n) - 1
        for seed in range(3):
            g0 = Graph(n, random.Random(f"{n}-{seed}").getrandbits(n * (n - 1) // 2))
            for rule in ("first", "random"):
                for budget in (100, 2):
                    traj = best_response_dynamics(spec, g0, budget, seed=seed, rule=rule)
                    got = traj.steps, traj.final, traj.converged
                    assert got == reference_scanned_dynamics(spec, g0, budget, seed, rule), (
                        n, seed, rule)
                    stopped += not traj.converged
    assert stopped  # some budget ran out


def test_monotone_types_1_2_2p_cycle_under_the_first_rule():
    """The monotone game of types (1, 2, 2p) at n = 3 loops under rule
    'first' from every start with edge 12, with period 4: agent 0 takes
    every edge, agent 2 joins across components and leaves within one, and
    agent 1 joins within its component and drops 01 once it is a bridge."""
    spec = GameSpec(tuple(MonotoneAgent(t) for t in ("1", "2", "2p")))
    traj = best_response_dynamics(spec, Graph.from_edges(3, [(1, 2)]), 50, 0, rule="first")
    assert len(traj.moves) == 50 and not traj.converged
    period = [("add", 0, 2, None), ("add", 0, 1, None), ("remove", 0, 2, None),
              ("remove", 0, 1, None)]
    assert traj.moves == period * 12 + period[:2]
    loops = [m for m in range(8)
             if not best_response_dynamics(spec, Graph(3, m), 50, 0, rule="first").converged]
    assert loops == [4, 5, 6, 7]  # the starts with edge 12


def test_dynamics_rejects_a_negative_step_budget():
    spec = numeric_game(3, closeness())
    with pytest.raises(ParameterError, match="step budget"):
        best_response_dynamics(spec, Graph.path(3), -3, seed=1)
    traj = best_response_dynamics(spec, Graph.path(3), 0, seed=1)
    assert traj.moves == [] and traj.final == Graph.path(3)


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


def test_a_homophily_table_is_read_at_every_degree_lo_can_have():
    """A scan direction reads f at the degree in lo of each homophilic
    agent with a pair in it, 0 to n - 2: a table that covers those never
    raises, not even on K_n, whose vertices of degree n - 1 have no
    addition, and a shorter one raises even where an early exit stops
    before the vertex's pairs."""
    covered = uniform_game(4, HomophilicAgent(HomophilyFunction((0, 1, 2))))
    for g in enumerate_labeled_graphs(4):
        is_apsn(covered, g)
    path = Graph.from_edges(4, [(0, 1), (1, 2)])
    # the first addition, 02, blocks: an early exit never reaches 13
    assert [(f.i, f.j) for f in is_apsn(covered, path, early_exit=True).blocking_flips] == [(0, 2)]
    short = uniform_game(4, HomophilicAgent(HomophilyFunction((0, 1))))
    with pytest.raises(ParameterError, match="no value for degree 2"):
        is_apsn(short, path, early_exit=True)


def test_homophily_table_validation():
    with pytest.raises(Exception):
        HomophilyFunction(table=(3, 3))
    f = HomophilyFunction(table=(-1, 3, 9))
    assert f(0) == -1 and f(2) == 9
