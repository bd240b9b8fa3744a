import functools
import itertools
import json
import pathlib

import jsonschema
import pytest

from apsn.cli import main, make_parser
from apsn.game import MONOTONE_KINDS
from apsn.graphs import Graph, from_graph6, to_graph6, write_edge_list
from apsn.structure import (
    betweenness_condition,
    check_monotone_structure,
    ecc_necessary,
    ecc_sufficient,
)
from oracles import labeled_passing_masks, write_weight_table

REPO = pathlib.Path(__file__).resolve().parent.parent
SCHEMAS = REPO / "docs" / "schemas"
DATA = REPO / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema(name):
    return json.loads((SCHEMAS / f"{name}.schema.json").read_text())


def validate(name, payload):
    jsonschema.validate(payload, load_schema(name))


@pytest.fixture()
def k4_file(tmp_path):
    path = tmp_path / "k4.edges"
    path.write_text(write_edge_list(Graph.complete(4)))
    return str(path)


def test_check_betweenness_fixture(capsys):
    code, out, _ = run_cli(
        capsys,
        "check",
        "--graph",
        str(DATA / "betweenness_ten.edges"),
        "--profile",
        str(DATA / "betweenness_all.json"),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["stable"] is True
    validate("check", payload)


def test_census_decay_profile(capsys):
    code, out, _ = run_cli(
        capsys,
        "census",
        "--n",
        "4",
        "--profile",
        str(DATA / "decay_half.json"),
    )
    assert code == 0
    payload = json.loads(out)
    validate("census", payload)
    assert payload["stable_count"] == 1
    assert from_graph6(payload["apsn"][0]["graph6"]) == Graph.complete(4)


def test_axiom_closeness_componentwise(capsys):
    code, out, _ = run_cli(
        capsys, "axiom", "--measure", "closeness", "--axiom", "2", "--max-n", "4"
    )
    assert code == 0
    payload = json.loads(out)
    validate("axiom", payload)
    assert payload["counterexample"] is None


def test_axiom_linear_hunts_at_the_table_size(capsys, tmp_path):
    table = tmp_path / "path.weights"
    table.write_text(write_weight_table(((0, 1, 0), (1, 0, 2), (0, 2, 0))))
    code, out, _ = run_cli(
        capsys, "axiom", "--measure", f"linear:{table}", "--axiom", "1", "--max-n", "4"
    )
    assert code == 0
    payload = json.loads(out)
    validate("axiom", payload)
    # pair 02 has weight 0, so adding it to the empty graph gains nothing
    assert payload["counterexample"]["graph6"] == "B?"
    assert payload["counterexample"]["edge"] == [0, 2]


def test_centrality_command(capsys, k4_file):
    code, out, _ = run_cli(
        capsys, "centrality", "--graph", k4_file, "--measure", "degree", "--vertex", "0"
    )
    assert code == 0
    payload = json.loads(out)
    validate("centrality", payload)
    assert payload["value"] == {"exact": "3"}


@pytest.mark.parametrize("vertex", ["-1", "6"])
def test_centrality_vertex_outside_the_graph_is_a_parameter_error(capsys, vertex):
    code, out, err = run_cli(
        capsys, "centrality", "--graph", str(DATA / "eccentricity_six.edges"),
        "--measure", "degree", "--vertex", vertex,
    )
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "parameter"


@pytest.mark.parametrize("agent", ["-1", "7"])
def test_learn_agent_outside_the_game_is_a_parameter_error(capsys, agent):
    code, out, err = run_cli(
        capsys, "learn", "--n", "4", "--profile", str(DATA / "degree_theta2.json"),
        "--agent", agent,
    )
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "parameter"


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_fewer_than_one_job_is_a_parameter_error(capsys, jobs):
    for argv in (
        ["census", "--n", "4", "--rule", "2"],
        ["learn", "--n", "4", "--profile", str(DATA / "degree_theta2.json"), "--agent", "0"],
    ):
        code, out, err = run_cli(capsys, *argv, f"--jobs={jobs}")
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "parameter"


def test_census_negative_tolerance_is_a_parameter_error(capsys):
    # argparse reads a lone "-1e-9" as an option, hence the "=" form
    code, out, err = run_cli(
        capsys, "census", "--n", "3", "--measure", "eigenvector", "--tolerant=-1e-9"
    )
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "parameter"


def test_predict_stratified(capsys):
    code, out, _ = run_cli(capsys, "predict", "--family", "stratified", "--n", "6")
    assert code == 0
    payload = json.loads(out)
    validate("predict", payload)
    assert len(payload["graphs"]) == 5


def test_predict_monotone_types(capsys):
    code, out, _ = run_cli(
        capsys, "predict", "--family", "monotone", "--types", "1,1,2p"
    )
    assert code == 0
    payload = json.loads(out)
    validate("predict", payload)
    assert payload["graphs"]


def test_predict_equals_labeled_filter_n5(capsys):
    # each monotone multiset's list and each structural family's list is the
    # labeled scan's, in mask order
    runs = [
        (["--family", "monotone", "--types", ",".join(types)],
         functools.partial(check_monotone_structure, types=types), n)
        for n in range(1, 6)
        for types in itertools.combinations_with_replacement(MONOTONE_KINDS, n)
    ]
    runs += [
        (["--family", family, "--n", str(n)], predicate, n)
        for family, predicate in (
            ("betweenness", betweenness_condition),
            ("ecc-necessary", ecc_necessary),
            ("ecc-sufficient", ecc_sufficient),
        )
        for n in range(1, 6)
    ]
    for argv, keep, n in runs:
        code, out, _ = run_cli(capsys, "predict", *argv)
        assert code == 0
        expected = [to_graph6(Graph(n, m)) for m in labeled_passing_masks(n, keep)]
        assert json.loads(out)["graphs"] == expected, argv


def test_predict_beyond_the_class_lists_is_a_size_guard_error(capsys):
    for argv in (["--n", "8", "--family", "betweenness"],
                 ["--family", "monotone", "--types", "1,1,1,1,2,2,2,2"]):
        code, out, err = run_cli(capsys, "predict", *argv)
        assert code == 1 and not out
        assert json.loads(err)["error"] == "size_guard"


def test_truncated_universality(capsys, tmp_path):
    p4 = tmp_path / "p4.edges"
    p4.write_text(write_edge_list(Graph.path(4)))
    code, out, _ = run_cli(
        capsys,
        "truncated",
        "--op",
        "universality",
        "--graph",
        str(p4),
        "--measure",
        "degree",
    )
    assert code == 0
    payload = json.loads(out)
    validate("truncated", payload)
    assert payload["thresholds"] == ["1", "2", "2", "1"]
    assert payload["stable"] is True


def test_truncated_universality_prints_float_thresholds_as_numbers(capsys, tmp_path):
    k3 = tmp_path / "k3.g6"
    k3.write_text(to_graph6(Graph.complete(3)) + "\n")
    code, out, _ = run_cli(
        capsys, "truncated", "--op", "universality", "--measure", "katz:0.1", "--graph", str(k3)
    )
    assert code == 0
    payload = json.loads(out)
    validate("truncated", payload)
    assert [round(t, 12) for t in payload["thresholds"]] == [0.25] * 3
    assert payload["stable"] is True


def test_truncated_greedy(capsys, tmp_path):
    wf = tmp_path / "w.txt"
    wf.write_text("4\n" + "\n".join(f"{i} {j} 1" for i in range(4) for j in range(i + 1, 4)) + "\n")
    code, out, _ = run_cli(
        capsys,
        "truncated",
        "--op",
        "greedy",
        "--weights",
        str(wf),
        "--thresholds",
        "2,2,2,2",
    )
    assert code == 0
    payload = json.loads(out)
    validate("truncated", payload)


def test_learn_transcript(capsys):
    code, out, _ = run_cli(
        capsys,
        "learn",
        "--n",
        "4",
        "--profile",
        str(DATA / "degree_theta2.json"),
        "--agent",
        "0",
    )
    assert code == 0
    payload = json.loads(out)
    validate("learn", payload)
    assert payload["interval"] == ["1", "2"]


def test_dynamics_requires_seed(capsys, k4_file):
    with pytest.raises(SystemExit) as exc:
        main(["dynamics", "--graph", k4_file, "--rule", "1p"])
    assert exc.value.code == 2


def test_dynamics_runs_seeded(capsys, k4_file):
    code, out, _ = run_cli(
        capsys,
        "dynamics",
        "--graph",
        k4_file,
        "--rule",
        "1p",
        "--seed",
        "7",
    )
    assert code == 0
    payload = json.loads(out)
    validate("dynamics", payload)
    assert payload["converged"] is True
    assert from_graph6(payload["final"]) == Graph.empty(4)


def test_export_dot(capsys, k4_file):
    code, out, _ = run_cli(
        capsys, "export-dot", "--graph", k4_file, "--measure", "degree"
    )
    assert code == 0
    assert out.startswith("graph g {")
    assert "0 -- 1;" in out
    assert "C=3" in out


def test_domain_error_is_structured_json(capsys, tmp_path):
    bad = tmp_path / "bad.edges"
    bad.write_text("3 1\n0 9\n")
    code, out, err = run_cli(capsys, "check", "--graph", str(bad), "--measure", "degree")
    assert code == 1
    payload = json.loads(err)
    assert payload["error"] == "parse_vertex_range"


@pytest.mark.parametrize(
    "argv, code",
    [
        (["check", "--graph", "K3", "--homophily", "notjson"], "parameter"),
        (["check", "--graph", "K3", "--homophily", "5"], "parameter"),
        (["check", "--graph", "K3", "--measure", "degree", "--threshold", "abc"], "parameter"),
        (["truncated", "--op", "pareto", "--graph", "K3", "--measure", "degree",
          "--thresholds", "1,x,2"], "parameter"),
        (["truncated", "--op", "maximal", "--n", "3", "--measure", "degree",
          "--thresholds", "1,1,1", "--caps", "1,zz,1"], "parameter"),
        (["predict", "--family", "stratified", "--n", "3", "--homophily", "notjson"], "parameter"),
        (["check", "--graph", "K3", "--profile",
          {"default": {"homophily_f": {"table": 5}}, "agents": []}], "profile"),
        (["check", "--graph", "K3", "--profile",
          {"policy": {"tolerant": "x"}, "default": {"measure": "degree"}, "agents": []}], "profile"),
    ],
    ids=[
        "homophily-notjson",
        "homophily-5",
        "threshold",
        "thresholds",
        "caps",
        "predict-homophily",
        "profile-table",
        "profile-tolerance",
    ],
)
def test_malformed_number_is_structured_error(capsys, tmp_path, argv, code):
    k3 = tmp_path / "k3.edges"
    k3.write_text(write_edge_list(Graph.complete(3)))
    argv = [str(k3) if arg == "K3" else arg for arg in argv]
    profile = tmp_path / "profile.json"
    for k, arg in enumerate(argv):
        if isinstance(arg, dict):
            profile.write_text(json.dumps(arg))
            argv[k] = str(profile)
    exit_code, _, err = run_cli(capsys, *argv)
    assert exit_code == 1
    assert json.loads(err)["error"] == code


def test_size_guard_error_code(capsys):
    code, _, err = run_cli(capsys, "census", "--n", "9", "--measure", "degree")
    assert code == 1
    assert json.loads(err)["error"] == "size_guard"


def test_unknown_measure_error_code(capsys, k4_file):
    code, _, err = run_cli(capsys, "check", "--graph", k4_file, "--measure", "nonsense")
    assert code == 1
    assert json.loads(err)["error"] == "measure_grammar"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["census"])
    assert exc.value.code == 2


def test_out_flag_writes_file(tmp_path, capsys, k4_file):
    out_file = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        "check",
        "--graph",
        k4_file,
        "--measure",
        "degree",
        "--out",
        str(out_file),
    )
    assert code == 0 and out == ""
    validate("check", json.loads(out_file.read_text()))


def test_census_shards_checkpoint_resume_and_g6_list(tmp_path, capsys):
    ckpt = tmp_path / "census.jsonl"
    g6_list = tmp_path / "stable.g6"
    args = [
        "census",
        "--n",
        "4",
        "--measure",
        "decay:1/2",
        "--shards",
        "4",
        "--jobs",
        "1",
        "--checkpoint",
        str(ckpt),
        "--g6-out",
        str(g6_list),
    ]
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    first = json.loads(out)
    assert len(ckpt.read_text().splitlines()) == 4
    assert g6_list.read_text().splitlines() == [first["apsn"][0]["graph6"]]
    code, out, _ = run_cli(capsys, *args[:-4], "--resume", str(ckpt))
    assert code == 0
    resumed = json.loads(out)
    assert resumed["stable_masks"] == first["stable_masks"]


def test_check_with_uniform_rule_and_homophily(capsys, tmp_path):
    k3 = tmp_path / "k3.edges"
    k3.write_text(write_edge_list(Graph.complete(3)))
    code, out, _ = run_cli(capsys, "check", "--graph", str(k3), "--rule", "1")
    assert code == 0 and json.loads(out)["stable"] is True
    code, out, _ = run_cli(capsys, "check", "--graph", str(k3), "--homophily", "gt")
    assert code == 0 and json.loads(out)["stable"] is True
    code, out, _ = run_cli(
        capsys, "check", "--graph", str(k3), "--measure", "eigenvector", "--tolerant", "1e-9"
    )
    assert code == 0
    validate("check", json.loads(out))


def test_check_uniform_threshold(capsys, tmp_path):
    c4 = tmp_path / "c4.edges"
    c4.write_text(write_edge_list(Graph.cycle(4)))
    code, out, _ = run_cli(
        capsys, "check", "--graph", str(c4), "--measure", "degree", "--threshold", "2"
    )
    assert code == 0 and json.loads(out)["stable"] is True


def test_predict_structural_families(capsys):
    for family in ("betweenness", "ecc-necessary", "ecc-sufficient"):
        code, out, _ = run_cli(capsys, "predict", "--family", family, "--n", "4")
        assert code == 0
        validate("predict", json.loads(out))


def test_truncated_pareto_and_maximal(capsys, tmp_path):
    c4 = tmp_path / "c4.edges"
    c4.write_text(write_edge_list(Graph.cycle(4)))
    code, out, _ = run_cli(
        capsys,
        "truncated",
        "--op",
        "pareto",
        "--graph",
        str(c4),
        "--measure",
        "degree",
        "--thresholds",
        "2,2,2,2",
    )
    assert code == 0 and json.loads(out)["pareto"] is True
    code, out, _ = run_cli(
        capsys,
        "truncated",
        "--op",
        "maximal",
        "--n",
        "4",
        "--measure",
        "degree",
        "--thresholds",
        "2,2,2,2",
    )
    assert code == 0
    payload = json.loads(out)
    validate("truncated", payload)
    assert payload["caps"] == ["2", "2", "2", "2"]


def test_truncated_maximal_needs_explicit_caps_for_an_approximate_measure(capsys):
    argv = ["truncated", "--op", "maximal", "--n", "3", "--measure", "katz:0.1",
            "--thresholds", "1/2,1/2,1/2"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and not out
    assert json.loads(err)["error"] == "parameter"
    code, out, _ = run_cli(capsys, *argv, "--caps", "1/2,1/2,1/2")
    assert code == 0
    payload = json.loads(out)
    validate("truncated", payload)
    assert payload["caps"] == ["1/2", "1/2", "1/2"]


def test_dynamics_first_order(capsys, k4_file):
    code, out, _ = run_cli(
        capsys,
        "dynamics",
        "--graph",
        k4_file,
        "--rule",
        "1p",
        "--seed",
        "3",
        "--order",
        "first",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == "first"
    assert payload["converged"]


def test_dynamics_rejects_a_negative_step_budget(capsys, k4_file):
    code, out, err = run_cli(
        capsys, "dynamics", "--graph", k4_file, "--measure", "closeness", "--seed", "1",
        "--max-steps", "-3",
    )
    assert code == 1 and not out
    assert json.loads(err)["error"] == "parameter"


def test_export_dot_with_profile(capsys):
    code, out, _ = run_cli(
        capsys,
        "export-dot",
        "--graph",
        str(DATA / "core_periphery_fifteen.edges"),
        "--profile",
        str(DATA / "core_periphery_types.json"),
    )
    assert code == 0
    assert "rule 1" in out and "rule 2p" in out


def test_centrality_full_vector(capsys, k4_file):
    code, out, _ = run_cli(capsys, "centrality", "--graph", k4_file, "--measure", "pagerank:0.85")
    assert code == 0
    payload = json.loads(out)
    validate("centrality", payload)
    assert len(payload["values"]) == 4


def test_every_subcommand_has_help():
    parser = make_parser()
    for cmd in (
        "centrality",
        "check",
        "census",
        "axiom",
        "predict",
        "truncated",
        "learn",
        "dynamics",
        "export-dot",
    ):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([cmd, "--help"])
        assert exc.value.code == 0
