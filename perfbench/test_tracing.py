"""Tests of the benchmark's own machinery: tracing leaves apsn as it found
it, traced counts add up, and the benchmark refuses to run without the
package.  Run from the repository root:

    python3 -m pytest perfbench/test_tracing.py -q
"""
from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

apsn = workloads.import_apsn()


def snapshot() -> dict:
    """Every callable attribute of every loaded apsn module, and the
    attributes of ``EvalCache``."""
    out = {}
    for modname, mod in list(sys.modules.items()):
        if modname == "apsn" or modname.startswith("apsn."):
            for attr, value in vars(mod).items():
                if callable(value):
                    out[(modname, attr)] = value
    for attr, value in vars(apsn.game.EvalCache).items():
        out[("EvalCache", attr)] = value
    return out


def changed(before: dict) -> list:
    now = snapshot()
    return sorted(k for k in before.keys() | now.keys() if before.get(k) is not now.get(k))


class Probed:
    """A workload whose operations record, before and after each call,
    which apsn attributes differ from ``before``."""

    def __init__(self, workload, before: dict):
        self.workload = workload
        self.before = before
        self.seen: list[list] = []

    def passes(self, state):
        for ops in self.workload.passes(state):
            yield [dataclasses.replace(op, call=self._probe(op.call)) for op in ops]

    def _probe(self, call):
        def probed():
            self.seen.append(changed(self.before))
            out = call()
            self.seen.append(changed(self.before))
            return out

        return probed


def census_workload(parallel=False):
    # eigenvector at n=5: 1,024 graphs, well under a second
    return workloads.CensusWorkload("test", ("eigenvector",), parallel=parallel)


def test_untraced_run_never_wraps(tmp_path):
    before = snapshot()
    for workload in (census_workload(), workloads.DynamicsWorkload()):
        probed = Probed(workload, before)
        records = run.run_phase(probed, workload.setup(1, tmp_path), tmp_path, 3, None)
        assert run.check(records) == (0, [])
        assert probed.seen and all(c == [] for c in probed.seen)
    assert changed(before) == []


def test_traced_run_restores_originals(tmp_path):
    before = snapshot()
    workload = census_workload()
    probed = Probed(workload, before)
    with Tracer(tmp_path) as tracer:
        records = run.run_phase(probed, workload.setup(1, tmp_path), tmp_path, 1, None, tracer)
    assert changed(before) == []
    wrapped = {name for _, name in probed.seen[0]}
    assert {"run_census", "is_apsn", "canonical_form", "vector", "centrality_vector"} <= wrapped
    assert run.check(records) == (0, [])
    metrics = tracer.metrics()
    assert metrics["game.is_apsn.calls"][0] == 1024
    assert metrics["centrality.calls.eigenvector"][0] == metrics["cache.misses"][0] == 1024
    assert metrics["cache.vectors_held"][0] == 1024
    ops = [s for s in tracer.spans if s["name"] == "op"]
    censuses = [s for s in tracer.spans if s["name"] == "run_census"]
    assert len(ops) == len(censuses) == 1 and censuses[0]["parent"] == ops[0]["id"]


def test_tracer_restores_originals_after_an_error(tmp_path):
    before = snapshot()
    with pytest.raises(RuntimeError):
        with Tracer(tmp_path):
            assert changed(before)
            raise RuntimeError("boom")
    assert changed(before) == []


def test_forked_workers_are_counted(tmp_path):
    workload = census_workload(parallel=True)
    with Tracer(tmp_path) as tracer:
        records = run.run_phase(workload, workload.setup(1, tmp_path), tmp_path, 1, None, tracer)
    assert tracer.merge_workers() >= 1
    assert run.check(records) == (0, [])
    metrics = tracer.metrics()
    assert metrics["game.is_apsn.calls"][0] == 1024
    assert metrics["census.resume_s"][0] > 0
    stats = workloads.layer_stats([r.out for r in records])
    assert stats["census.checkpoint_bytes"][0] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census-walk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
