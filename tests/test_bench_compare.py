import importlib.util
import json
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "bench_compare.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_compare", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_failed_run_reports_workload_seed_side_and_stderr(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import sys\nprint('RefClock: no probes', file=sys.stderr)\nsys.exit(3)\n"
    )
    with pytest.raises(SystemExit) as failure:
        load_script().run_once(tmp_path, "census-walk", 4, 1, "base")
    message = str(failure.value.code)
    assert "census-walk seed 4 on base" in message and "exited 3" in message
    assert message.endswith("RefClock: no probes")


FAKE_RUN = """\
import json, pathlib, sys
with open(sys.argv[0] + ".log", "a") as log:
    print(" ".join(sys.argv[1:]), file=log)
arg = lambda name: sys.argv[sys.argv.index(name) + 1]
if arg("--trace") == "1":
    if FAIL_TRACED:
        print("StatisticsError: mean requires at least one data point", file=sys.stderr)
        sys.exit(1)
    # two ops per phase: the untraced one spans (10 s + 5) ms and the traced
    # one (20 s + 5) ms, s being the seed times SCALE
    s = int(arg("--seed")) * SCALE / 1000
    ops = [["op", 0.0, 10 * s, 0], ["op", 10 * s, 0.005, 0],
           ["op", 5.0, 20 * s, 0], ["op", 5.0 + 20 * s, 0.005, 0]]
    results = pathlib.Path(".perfbench", "results")
    results.mkdir(parents=True, exist_ok=True)
    path = results / (arg("--workload") + "-seed" + arg("--seed") + "-trace1.json")
    path.write_text(json.dumps({"ops": ops}))
print(json.dumps({"correct": True, "failed": 0, "metrics": {"work_per_s": {"value": 1.0}}}))
"""


def fake_checkout(root, fail_traced, scale=1):
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(
        f"FAIL_TRACED = {fail_traced}\nSCALE = {scale}\n" + FAKE_RUN
    )
    (root / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1,
        "workloads": [{"name": "census-walk"}, {"name": "dynamics-canon"}],
        "end_to_end": [{"name": "work_per_s", "unit": "1/s", "better": "higher", "bound": 0.2}],
    }))
    return root / "perfbench" / "run.py.log"


def test_traced_runs_come_first_and_a_failed_one_is_recorded(tmp_path, monkeypatch, capsys):
    script = load_script()
    base_log = fake_checkout(tmp_path / "base", fail_traced=False)
    head_log = fake_checkout(tmp_path / "head", fail_traced=True)
    monkeypatch.setattr(script, "HEAD", tmp_path / "head")
    monkeypatch.setattr(script, "PAIRS", 2)
    assert script.main(["--base", str(tmp_path / "base"), "--label", "x"]) == 1
    err = capsys.readouterr().err
    assert "census-walk seed 1 traced on head" in err and "exited 1" in err
    assert "failed traced runs: census-walk seed 1 on head exited 1" in err
    # every traced run came first, then the untraced pairs ran on both sides
    for log in (base_log, head_log):
        calls = log.read_text().splitlines()
        assert [c.endswith("--trace 1") for c in calls] == [True] * 6 + [False] * 4
    report = json.loads((tmp_path / "head" / "BENCH_x.json").read_text())
    for workload in ("census-walk", "dynamics-canon"):
        traced = report["workloads"][workload]["traced"]
        for t in traced:
            if t["side"] == "head":
                assert t["exit"] == 1 and "correct" not in t
                assert t["stderr_tail"] == "StatisticsError: mean requires at least one data point"
            else:
                assert t["exit"] == 0 and t["correct"] and t["failed"] == 0
        assert report["workloads"][workload]["metrics"]["work_per_s"]["head_wins"] == 0
        shortest = report["workloads"][workload]["shortest_phase_ms"]
        assert shortest["base"] == pytest.approx(15) and shortest["head"] is None


def test_traced_runs_are_recorded(tmp_path, monkeypatch):
    script = load_script()
    fake_checkout(tmp_path / "base", fail_traced=False)
    head_log = fake_checkout(tmp_path / "head", fail_traced=False, scale=2)
    monkeypatch.setattr(script, "HEAD", tmp_path / "head")
    monkeypatch.setattr(script, "PAIRS", 2)
    assert script.main(["--base", str(tmp_path / "base"), "--label", "x"]) == 0
    report = json.loads((tmp_path / "head" / "BENCH_x.json").read_text())
    for workload in ("census-walk", "dynamics-canon"):
        traced = report["workloads"][workload]["traced"]
        assert [(t["seed"], t["side"]) for t in traced] == [
            (seed, side) for seed in (1, 2, 3) for side in ("base", "head")
        ]
        assert all(t["correct"] and t["failed"] == 0 for t in traced)
        # each phase's wall ms, read from the results file the run left
        for t in traced:
            s = t["seed"] * (2 if t["side"] == "head" else 1)
            assert t["phase_ms"] == {
                "untraced": pytest.approx(10 * s + 5), "traced": pytest.approx(20 * s + 5)
            }
        shortest = report["workloads"][workload]["shortest_phase_ms"]
        assert shortest == {"base": pytest.approx(15), "head": pytest.approx(25)}
    calls = head_log.read_text().splitlines()
    assert [c.endswith("--trace 1") for c in calls] == [True] * 6 + [False] * 4
