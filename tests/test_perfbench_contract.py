"""The benchmark's own checks, run on one pass of each workload.

``perfbench/workloads.py`` checks every operation's output: census payload
digests, structural characterizations, seeded early-exit spot checks and
the dynamics endpoints.  Here each workload is set up at seed 1 in a
temporary directory and one pass is run and checked, straight through the
workload objects: not through ``perfbench/run.py`` and its reference
clock, whose probes need a phase longer than one pass.  The names that
``perfbench/tracer.py`` patches are checked to exist in apsn.  Nothing
under ``perfbench/`` is written.
"""
import itertools
import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import tracer  # noqa: E402
import workloads  # noqa: E402

#: dynamics starts that make one pass of dynamics-canon here
DYNAMICS_STARTS = 20


def test_tracer_targets_resolve():
    # the tracer patches each target by name and reads it from its owner's
    # __dict__, so a renamed or deleted target fails every traced run
    workloads.import_apsn()
    for module, attr, _ in tracer.TARGETS:
        owner, name = tracer._resolve(module, attr)
        assert callable(owner.__dict__[name]), (module, attr)


def test_workloads_are_the_declared_ones():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert sorted(w["name"] for w in declared) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_pass_passes_every_check(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    state = workload.setup(1, tmp_path)
    passes = workload.passes(state)
    if name == "dynamics-canon":
        ops = [op for ops in itertools.islice(passes, DYNAMICS_STARTS) for op in ops]
        assert len(ops) == DYNAMICS_STARTS
    else:
        ops = next(passes)
        assert [op.family for op in ops] == list(workload.families)
    for op in ops:
        assert op.check(op.call()) == [], op.label
