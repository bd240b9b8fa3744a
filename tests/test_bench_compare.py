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
import json, sys
with open(sys.argv[0] + ".log", "a") as log:
    print(" ".join(sys.argv[1:]), file=log)
if sys.argv[sys.argv.index("--trace") + 1] == "1" and FAIL_TRACED:
    print("StatisticsError: mean requires at least one data point", file=sys.stderr)
    sys.exit(1)
print(json.dumps({"correct": True, "failed": 0, "metrics": {"work_per_s": {"value": 1.0}}}))
"""


def fake_checkout(root, fail_traced):
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(f"FAIL_TRACED = {fail_traced}\n" + FAKE_RUN)
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


def test_traced_runs_are_recorded(tmp_path, monkeypatch):
    script = load_script()
    fake_checkout(tmp_path / "base", fail_traced=False)
    head_log = fake_checkout(tmp_path / "head", fail_traced=False)
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
    calls = head_log.read_text().splitlines()
    assert [c.endswith("--trace 1") for c in calls] == [True] * 6 + [False] * 4
