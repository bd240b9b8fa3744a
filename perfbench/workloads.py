"""The benchmark's workloads: inputs built from a seed, the timed operations,
and the checks on every output.

apsn is imported inside the functions, never at module level, so that
``timed_setup`` in a fresh interpreter measures the import too.  Every call
into apsn goes through a module attribute (``census.run_census``, not a name
bound at import), so that the tracer's wrappers see it.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import random
import resource
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator

import refclock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: family -> (n, measure constructor name, constructor args, tolerant policy)
FAMILIES = {
    "degree": (6, "degree", (), False),
    "closeness": (6, "closeness", (), False),
    "decay": (6, "decay", (Fraction(1, 2),), False),
    "betweenness": (6, "betweenness", (), False),
    "gametheoretic": (6, "game_theoretic", (), False),
    "rwcloseness": (5, "rw_closeness", (), False),
    "rwbetweenness": (5, "rw_betweenness", (), False),
    "eigenvector": (5, "eigenvector", (), True),
    "pagerank": (5, "pagerank", (), True),
}
SPECTRAL_TOL = 1e-9

#: sha256 of each family's census payload without its ``shards`` field,
#: recorded from the package as first committed.  Sequential, jobs=2 and
#: resumed censuses must all match it.
PAYLOAD_DIGESTS = {
    "degree": "4818c6fa723a42159e5b32670c7e4d44d21ccec83d8550ecd20bcaecb9f816eb",
    "closeness": "44ea7c34d58f3f0b669798385457bed418edd6ff9ae7c5f1e1aee6bd3ead6835",
    "decay": "6e36e1b8b07c72dc016ee3ef0ba7b912bebf125d783ba1521b9a4f8831792b6c",
    "betweenness": "4c3921725cd057af588a2cccf0ea414622e7cb7bbea4e7a95fb0ea113de90497",
    "gametheoretic": "db570a42ad519afb1526f564f8c6f0a3aa2f03bc3962a43397c4ccea4940d763",
    "rwcloseness": "77626ec4e8d2f0a2c603d171390cce04d2617da7733ddaef5e442c0a2966fc72",
    "rwbetweenness": "1429a7e4fe4ce02e60b7f649e14b2cee93a305508b0f7216aa4501eca5650bc9",
    "eigenvector": "d8616b1b6bc3129c4fba0e392c08db19beaefe03ce39fc3943248d7a0d6e19a4",
    "pagerank": "f198707eb33d4588e2a840359fe28974b2f73167367e37c055545eba41548a96",
}

SPOT_CHECKS = 24  # seeded masks per census re-decided with a fresh cache
PARALLEL_SHARDS = 8
PARALLEL_JOBS = 2
DYNAMICS_N = 7
DYNAMICS_STARTS = 400  # per run: forty samples lie beyond p90, twenty beyond p95
DYNAMICS_POOL = 4000  # start graphs built in set-up; a run never uses more
DYNAMICS_MAX_STEPS = 1000
RELABEL_EVERY = 10  # every tenth endpoint's canonical form is re-derived


def require_src() -> None:
    if not (SRC / "apsn" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no apsn package under {SRC}")


def import_apsn():
    """Import apsn from this checkout's ``src`` and nowhere else."""
    require_src()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import apsn
    import apsn.census
    import apsn.centrality
    import apsn.game
    import apsn.graphs
    import apsn.linalg
    import apsn.structure

    if Path(apsn.__file__).resolve().parent != SRC / "apsn":
        raise SystemExit(f"perfbench: apsn imported from {apsn.__file__}, not {SRC}")
    return apsn


def payload_digest(result) -> str:
    payload = result.payload()
    payload.pop("shards")
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


@dataclass
class Op:
    """One timed operation: ``call`` is timed, ``check`` runs afterwards,
    untraced, and returns failure messages."""

    label: str
    work: int  # labeled graphs classified, or 1 for a dynamics start
    call: Callable[[], object]
    check: Callable[[object], list]
    family: str | None = None


@dataclass
class ParallelOut:
    first: object  # the jobs=2 census
    resumed: object  # the census resumed from its checkpoint
    first_s: float
    worker_cpu_s: float
    checkpoint_bytes: int


# ---------------------------------------------------------------------------
# census workloads


@dataclass
class CensusState:
    apsn: object
    seed: int
    workdir: Path
    specs: dict
    predicted: dict = field(default_factory=dict)  # family -> stable mask set
    counter: Iterator[int] = field(default_factory=itertools.count)


class CensusWorkload:
    def __init__(self, name: str, families: tuple, parallel: bool = False):
        self.name = name
        self.families = families
        self.parallel = parallel
        self.min_ops = len(families)

    def setup(self, seed: int, workdir: Path) -> CensusState:
        apsn = import_apsn()
        game, centrality = apsn.game, apsn.centrality
        specs = {}
        for family in self.families:
            n, ctor, args, tolerant = FAMILIES[family]
            agent = game.NumericAgent(getattr(centrality, ctor)(*args))
            policy = game.TolerantPolicy(SPECTRAL_TOL) if tolerant else game.ExactPolicy()
            specs[family] = game.uniform_game(n, agent, policy)
        return CensusState(apsn, seed, workdir, specs)

    def passes(self, state: CensusState) -> Iterator[list]:
        while True:
            yield [self._op(state, family) for family in self.families]

    def _op(self, state: CensusState, family: str) -> Op:
        census = state.apsn.census
        spec = state.specs[family]
        n = FAMILIES[family][0]
        if not self.parallel:
            return Op(
                f"census {family} n={n}",
                1 << (n * (n - 1) // 2),
                lambda: census.run_census(spec, n),
                lambda out: self._check(state, family, out, shards=1),
                family,
            )
        checkpoint = state.workdir / f"{family}-{next(state.counter)}.jsonl"

        def call() -> ParallelOut:
            cpu0 = children_cpu_s()
            t0 = time.perf_counter()
            first = census.run_census(
                spec, n, shards=PARALLEL_SHARDS, jobs=PARALLEL_JOBS, checkpoint=str(checkpoint)
            )
            first_s = time.perf_counter() - t0
            cpu = children_cpu_s() - cpu0
            resumed = census.run_census(
                spec, n, shards=PARALLEL_SHARDS, jobs=PARALLEL_JOBS, resume=str(checkpoint)
            )
            return ParallelOut(first, resumed, first_s, cpu, checkpoint.stat().st_size)

        def check(out: ParallelOut) -> list:
            failures = self._check(state, family, out.first, PARALLEL_SHARDS)
            failures += [f"resumed: {f}" for f in self._check(state, family, out.resumed, PARALLEL_SHARDS)]
            with open(checkpoint) as fh:
                records = [json.loads(line) for line in fh if line.strip()]
            if sorted(r["shard"] for r in records) != list(range(PARALLEL_SHARDS)):
                failures.append("checkpoint does not hold one record per shard")
            return failures

        return Op(f"census {family} n={n} jobs={PARALLEL_JOBS}+resume", 1 << (n * (n - 1) // 2), call, check, family)

    def _check(self, state: CensusState, family: str, result, shards: int) -> list:
        apsn = state.apsn
        Graph = apsn.graphs.Graph
        n = FAMILIES[family][0]
        total = 1 << (n * (n - 1) // 2)
        full = total - 1
        failures = []
        if result.scanned != total:
            failures.append(f"scanned {result.scanned} of {total} graphs")
        if result.payload()["shards"] != shards:
            failures.append(f"payload reports {result.payload()['shards']} shards, ran {shards}")
        if payload_digest(result) != PAYLOAD_DIGESTS[family]:
            failures.append("payload digest differs from the recorded one")
        stable = set(result.stable_masks)
        if family == "decay" and stable != {full}:
            failures.append("decay census found graphs other than K_n")
        if family == "eigenvector" and stable != {full}:
            failures.append("eigenvector census found graphs other than K_n")
        if family == "rwbetweenness" and stable != {0, full}:
            failures.append("rwbetweenness census is not exactly the empty and complete graphs")
        if family in ("betweenness", "gametheoretic"):
            if family not in state.predicted:
                if family == "betweenness":
                    rule = apsn.structure.betweenness_condition
                else:
                    f = apsn.game.GT_HOMOPHILY
                    rule = lambda g: apsn.structure.is_stratified(g, f)  # noqa: E731
                state.predicted[family] = {m for m in range(total) if rule(Graph(n, m))}
            if stable != state.predicted[family]:
                failures.append(f"{family} census differs from its structural characterization")
        # re-decide a seeded sample of graphs one at a time with a fresh cache
        rng = random.Random(f"{state.seed}-{family}")
        ambiguous = set(result.ambiguous_masks)
        spec = state.specs[family]
        for mask in rng.sample(range(total), SPOT_CHECKS):
            verdict = apsn.game.is_apsn(spec, Graph(n, mask), apsn.game.EvalCache(), early_exit=True).verdict
            listed = "stable" if mask in stable else "ambiguous" if mask in ambiguous else "unstable"
            if verdict != listed:
                failures.append(f"graph {mask}: census says {listed}, fresh check says {verdict}")
        return failures


# ---------------------------------------------------------------------------
# dynamics workload


@dataclass
class DynamicsState:
    apsn: object
    seed: int
    spec: object
    starts: list


class DynamicsWorkload:
    name = "dynamics-canon"
    min_ops = DYNAMICS_STARTS

    def setup(self, seed: int, workdir: Path) -> DynamicsState:
        apsn = import_apsn()
        game = apsn.game
        spec = game.uniform_game(DYNAMICS_N, game.NumericAgent(apsn.centrality.closeness()))
        rng = random.Random(seed)
        pairs = DYNAMICS_N * (DYNAMICS_N - 1) // 2
        starts = [apsn.graphs.Graph(DYNAMICS_N, rng.getrandbits(pairs)) for _ in range(DYNAMICS_POOL)]
        return DynamicsState(apsn, seed, spec, starts)

    def passes(self, state: DynamicsState) -> Iterator[list]:
        game, graphs = state.apsn.game, state.apsn.graphs
        cache = game.EvalCache()  # shared by every start of this run
        for index, g0 in enumerate(state.starts):
            run_seed = state.seed * 1_000_003 + index

            def call(g0=g0, run_seed=run_seed):
                trajectory = game.best_response_dynamics(
                    state.spec, g0, DYNAMICS_MAX_STEPS, seed=run_seed, rule="random", cache=cache
                )
                return trajectory, graphs.canonical_form(trajectory.final)

            yield [Op(f"start {index}", 1, call, lambda out, index=index: self._check(state, index, out))]

    def _check(self, state: DynamicsState, index: int, out) -> list:
        apsn = state.apsn
        trajectory, canonical = out
        final = trajectory.final
        failures = []
        if not trajectory.converged:
            failures.append(f"start {index}: dynamics did not converge")
        if not apsn.game.is_apsn(state.spec, final, apsn.game.EvalCache()).stable:
            failures.append(f"start {index}: endpoint is not stable under a fresh cache")
        image = apsn.graphs.Graph(DYNAMICS_N, canonical)
        if canonical > final.mask or sorted(image.degrees()) != sorted(final.degrees()):
            failures.append(f"start {index}: canonical form is not a minimal relabeling")
        if index % RELABEL_EVERY == 0:
            perm = list(range(DYNAMICS_N))
            random.Random(f"{state.seed}-{index}").shuffle(perm)
            if apsn.graphs.canonical_form(final.relabel(tuple(perm))) != canonical:
                failures.append(f"start {index}: relabeled endpoint has another canonical form")
        return failures


def layer_stats(outs: list) -> dict:
    """Census-layer figures read from the operations' outputs (0 where no
    census ran with a pool and a checkpoint)."""
    parallel = [out for out in outs if isinstance(out, ParallelOut)]
    wall = sum(out.first_s for out in parallel)
    return {
        "census.checkpoint_bytes": (sum(out.checkpoint_bytes for out in parallel), "B"),
        "census.parallel_efficiency": (
            sum(out.worker_cpu_s for out in parallel) / (PARALLEL_JOBS * wall) if wall else 0.0,
            "ratio",
        ),
    }


# why each workload exists: see BENCHMARK.json and README.md
WORKLOADS = {
    w.name: w
    for w in (
        CensusWorkload("census-distance", ("degree", "closeness", "decay", "betweenness", "gametheoretic")),
        CensusWorkload("census-walk", ("rwcloseness", "rwbetweenness", "eigenvector", "pagerank")),
        DynamicsWorkload(),
        CensusWorkload("census-parallel", ("closeness", "decay"), parallel=True),
    )
}


def timed_setup(name: str, seed: int, workdir: Path | None) -> tuple[object, float, float]:
    """Build a workload's inputs, importing apsn first if it is not loaded;
    returns the state and the wall and reference seconds it took."""
    return refclock.rescaled_call(WORKLOADS[name].setup, seed, workdir)
