"""The atlas of stable classes (``data/atlas.json``) against a rebuild, and
its digests against the ones ``perfbench`` records for its families."""
import importlib.util
import json
import pathlib
import sys

import pytest

from apsn import centrality
from apsn.profiles import measure_grammar

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "build_atlas.py"
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402


@pytest.fixture(scope="module")
def rebuilt():
    spec = importlib.util.spec_from_file_location("build_atlas", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.build()


@pytest.fixture(scope="module")
def committed():
    return json.loads((ROOT / "data" / "atlas.json").read_text())


def test_atlas_matches_a_rebuild(rebuilt, committed):
    assert rebuilt["games"].keys() == committed["games"].keys()
    for name, sizes in committed["games"].items():
        assert rebuilt["games"][name] == sizes, name
    assert rebuilt == committed


@pytest.mark.parametrize("family", sorted(workloads.FAMILIES))
def test_atlas_digest_is_perfbench_digest(family, committed):
    n, ctor, args, tolerant = workloads.FAMILIES[family]
    if tolerant:
        assert committed["tolerance"] == workloads.SPECTRAL_TOL
    game = committed["games"][measure_grammar(getattr(centrality, ctor)(*args))]
    assert game[str(n)]["digest"] == workloads.PAYLOAD_DIGESTS[family]
