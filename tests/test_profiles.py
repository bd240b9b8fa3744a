import json
from fractions import Fraction

import pytest

from apsn.census import colouring, game_fingerprint
from apsn.centrality import Measure, pagerank
from apsn.errors import MeasureGrammarError, ProfileError
from apsn.game import (
    ExactPolicy,
    GameSpec,
    HomophilicAgent,
    MonotoneAgent,
    NumericAgent,
    TolerantPolicy,
    uniform_game,
)
from apsn.profiles import load_profile, measure_grammar, parse_measure


@pytest.mark.parametrize(
    "text,kind",
    [
        ("degree", "degree"),
        ("closeness", "closeness"),
        ("eccentricity", "eccentricity"),
        ("rwcloseness", "rwcloseness"),
        ("harmonic", "harmonic"),
        ("betweenness", "betweenness"),
        ("rwbetweenness", "rwbetweenness"),
        ("eigenvector", "eigenvector"),
        ("gametheoretic", "gametheoretic"),
    ],
)
def test_plain_measures_parse(text, kind):
    assert parse_measure(text).kind == kind


def test_parameterized_measures_parse():
    m = parse_measure("decay:1/2")
    assert m.beta == Fraction(1, 2)
    assert parse_measure("katz:0.05").alpha == 0.05
    assert parse_measure("pagerank:0.9").damping == 0.9
    assert parse_measure("katz").alpha is None


def test_linear_measure_reads_weight_file(tmp_path):
    wf = tmp_path / "w.txt"
    wf.write_text("3\n0 1 4\n1 2 2\n")
    m = parse_measure(f"linear:{wf}")
    assert m.weights[0][1] == 4 and m.weights[2][1] == 2


def test_grammar_round_trip(one_measure_per_kind):
    for text in ("degree", "decay:1/2", "katz:0.25", "pagerank:0.9", "gametheoretic"):
        assert measure_grammar(parse_measure(text)) == text
    for m in one_measure_per_kind + [Measure("pagerank")]:
        assert parse_measure(measure_grammar(m)) == m


def test_pagerank_default_damping_is_normalised():
    # one measure, one colour, one fingerprint, however it is written
    assert Measure("pagerank") == pagerank() == pagerank(0.85)
    assert hash(Measure("pagerank")) == hash(pagerank())
    spec = GameSpec(
        (NumericAgent(Measure("pagerank")), NumericAgent(pagerank()), NumericAgent(pagerank())),
        TolerantPolicy(),
    )
    assert colouring(spec) == (0, 0, 0)
    uniform = uniform_game(3, NumericAgent(pagerank()), TolerantPolicy())
    assert game_fingerprint(spec) == game_fingerprint(uniform)
    assert repr(pagerank()) == (
        "Measure(kind='pagerank', beta=None, alpha=None, damping=0.85, weights=None)"
    )


def test_unknown_measure_rejected(one_measure_per_kind):
    with pytest.raises(MeasureGrammarError, match="unknown measure"):
        parse_measure("pagerangk")
    for m in one_measure_per_kind:
        if m.kind not in ("decay", "katz", "pagerank"):
            with pytest.raises(MeasureGrammarError, match="takes no parameter"):
                parse_measure(f"{m.kind}:3")


def test_out_of_range_parameter_is_a_parameter_error():
    from apsn.errors import ParameterError

    with pytest.raises(ParameterError):
        parse_measure("decay:2/1")


def test_profile_array_form():
    doc = json.dumps(
        [
            {"node": 0, "measure": "degree", "threshold": "3/2"},
            {"node": 1, "rule": "2p"},
            {"node": 2, "homophily_f": "gt"},
            {"node": 3, "homophily_f": {"table": [-1, 3, 9, 17]}},
        ]
    )
    spec = load_profile(doc, 4)
    assert isinstance(spec.agents[0], NumericAgent)
    assert spec.agents[0].threshold == Fraction(3, 2)
    assert isinstance(spec.agents[1], MonotoneAgent)
    assert isinstance(spec.agents[2], HomophilicAgent)
    assert spec.agents[3].f(1) == 3
    assert isinstance(spec.policy, ExactPolicy)


def test_profile_default_fills_missing_nodes():
    doc = json.dumps(
        {"default": {"measure": "decay:1/2"}, "agents": [{"node": 1, "rule": "1"}]}
    )
    spec = load_profile(doc, 3)
    assert isinstance(spec.agents[0], NumericAgent)
    assert isinstance(spec.agents[1], MonotoneAgent)


def test_profile_policy_parsing():
    doc = json.dumps(
        {"policy": {"tolerant": 1e-6}, "default": {"measure": "degree"}, "agents": []}
    )
    spec = load_profile(doc, 2)
    assert spec.policy == TolerantPolicy(1e-6)


def test_profile_spectral_measures_default_to_tolerant():
    doc = json.dumps({"default": {"measure": "eigenvector"}, "agents": []})
    assert isinstance(load_profile(doc, 3).policy, TolerantPolicy)


@pytest.mark.parametrize(
    "doc",
    [
        '[{"node": 0}]',
        '[{"node": 0, "measure": "degree", "rule": "1"}]',
        '[{"node": 0, "rule": "1", "threshold": "1"}, {"node": 1, "rule": "1"}]',
        '[{"node": 5, "measure": "degree"}]',
        '[{"node": 0, "measure": "degree"}]',
        '[{"node": 0, "measure": "degree"}, {"node": 0, "measure": "degree"}]',
        "not json",
        "[5]",
        '{"agents": 5, "default": {"measure": "degree"}}',
        '{"agents": [], "default": 5}',
    ],
)
def test_profile_errors(doc):
    with pytest.raises(ProfileError):
        load_profile(doc, 2)
