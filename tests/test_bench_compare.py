import importlib.util
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
