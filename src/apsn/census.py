"""Exhaustive stability censuses over all labeled graphs on n vertices.

A census classifies every labeled graph on n vertices as stable, unstable
or (under the tolerant policy) ambiguous, and reports the stable set up to
isomorphism.  When every agent is the same label-free agent and verdicts
are exact, relabeling a graph relabels its verdict, so the census decides
one canonical graph per isomorphism class (``graph_classes``) and expands
each stable class to its labeled orbit: *orbit mode*.  Any other game has
every adjacency mask decided once: *labeled mode*.  Either work list splits
into contiguous shards that share nothing, so shard count, worker count and
mode never change the result payload; per-shard checkpoint records make
long runs resumable.
"""
from __future__ import annotations

import hashlib
import json
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Sequence

from . import __version__
from .centrality import APPROX_KINDS
from .errors import ParameterError, SizeGuardError
from .game import (
    EvalCache,
    ExactPolicy,
    GameSpec,
    NumericAgent,
    TolerantPolicy,
    is_apsn,
    uniform_game,
)
from .graphs import (
    Graph,
    canonical_form,
    graph_classes,
    graph_count,
    is_connected,
    orbit_masks,
    shard_bounds,
    to_graph6,
)

CENSUS_CAP_EXACT = 7
CENSUS_CAP_SOLVE = 6

# Measures whose kernel is a linear solve or an eigendecomposition per graph.
_SOLVE_KINDS = APPROX_KINDS | {"rwcloseness", "rwbetweenness"}

#: Written into every checkpoint record; resume keeps only records with the
#: current value.  Bump the engine tag whenever a change can alter a verdict
#: or what a record holds.
CODE_VERSION = f"{__version__}+engine.1"


def orbit_mode(spec: GameSpec) -> bool:
    """Whether a census may decide one graph per isomorphism class: all
    agents equal, exact verdicts, and no measure that reads vertex labels
    (a linear centrality's weight table does)."""
    agents = set(spec.agents)
    if len(agents) != 1 or not isinstance(spec.policy, ExactPolicy):
        return False
    (agent,) = agents
    return not (isinstance(agent, NumericAgent) and agent.measure.kind == "linear")


def census_cap(spec: GameSpec) -> int:
    """Largest n a census of the game runs at: 7, except 6 on the labeled
    path for measures that need a solve or an eigendecomposition per graph."""
    if orbit_mode(spec):
        return CENSUS_CAP_EXACT
    cap = CENSUS_CAP_EXACT
    for agent in spec.agents:
        if isinstance(agent, NumericAgent) and agent.measure.kind in _SOLVE_KINDS:
            cap = min(cap, CENSUS_CAP_SOLVE)
    return cap


def game_fingerprint(spec: GameSpec) -> str:
    text = repr((spec.agents, spec.policy))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class CensusResult:
    n: int
    fingerprint: str
    stable_masks: list[int]
    ambiguous_masks: list[int]
    apsn_canonical: list[tuple[int, str]]  # (canonical mask, representative graph6)
    scanned: int
    shard_layout: list[tuple[int, int]]
    wall_time: float = 0.0

    @property
    def stable_count(self) -> int:
        return len(self.stable_masks)

    def payload(self) -> dict:
        """Deterministic result payload: everything except timings."""
        return {
            "n": self.n,
            "fingerprint": self.fingerprint,
            "scanned": self.scanned,
            "stable_count": self.stable_count,
            "ambiguous_count": len(self.ambiguous_masks),
            "apsn": [
                {"canonical": c, "graph6": g6} for c, g6 in self.apsn_canonical
            ],
            "stable_masks": self.stable_masks,
            "ambiguous_graph6": [
                to_graph6(Graph(self.n, m)) for m in self.ambiguous_masks
            ],
            "shards": len(self.shard_layout),
        }

    def to_json(self) -> dict:
        out = self.payload()
        out["wall_time_seconds"] = self.wall_time
        return out


def _work(spec: GameSpec, n: int) -> Sequence[int]:
    """The masks a census decides: the canonical mask of each isomorphism
    class in orbit mode, every labeled mask otherwise."""
    return graph_classes(n) if orbit_mode(spec) else range(graph_count(n))


def _scan_shard(
    spec: GameSpec, n: int, shard: int, shards: int, cache: EvalCache | None = None
) -> tuple[list[int], list[int]]:
    """Stable and ambiguous masks of one shard of the work list; a fresh
    cache unless given one."""
    work = _work(spec, n)
    lo, hi = shard_bounds(len(work), shard, shards)
    if cache is None:
        cache = EvalCache()
    stable: list[int] = []
    ambiguous: list[int] = []
    for mask in work[lo:hi]:
        report = is_apsn(spec, Graph(n, mask), cache, early_exit=True)
        verdict = report.verdict
        if verdict == "stable":
            stable.append(mask)
        elif verdict == "ambiguous":
            ambiguous.append(mask)
    return stable, ambiguous


def _record_fits(
    rec: dict, header: dict, layout: list[tuple[int, int]], work: Sequence[int]
) -> bool:
    """Whether a checkpoint record carries this census's header, covers one
    whole shard of the layout and lists only masks of that shard's work."""
    if any(rec.get(key) != value for key, value in header.items()):
        return False
    shard = rec.get("shard")
    if not isinstance(shard, int) or not 0 <= shard < len(layout):
        return False
    lo, hi = layout[shard]
    members = work[lo:hi]  # a range, or a slice of the class list
    return rec.get("scanned") == hi - lo and all(
        m in members for m in rec["stable"] + rec["ambiguous"]
    )


def run_census(
    spec: GameSpec,
    n: int,
    shards: int = 1,
    jobs: int = 1,
    cache: EvalCache | None = None,
    checkpoint: str | None = None,
    resume: str | None = None,
) -> CensusResult:
    """Classify every labeled graph on n vertices for the given game, in
    orbit mode when the game allows it (see ``orbit_mode``)."""
    cap = census_cap(spec)
    if n > cap:
        raise SizeGuardError(f"census capped at n={cap} for this game (got n={n})")
    if spec.n != n:
        raise ParameterError(f"game has {spec.n} agents, census wants n={n}")
    if shards < 1:
        raise ParameterError("need at least one shard")
    start = time.monotonic()
    orbit = orbit_mode(spec)
    # built here, before any pool starts, so forked workers inherit the memo
    work = _work(spec, n)
    layout = [shard_bounds(len(work), k, shards) for k in range(shards)]
    header = {
        "fingerprint": game_fingerprint(spec),
        "n": n,
        "shards": shards,
        "mode": "orbit" if orbit else "labeled",
        "code_version": CODE_VERSION,
    }

    done: dict[int, tuple[list[int], list[int]]] = {}
    if resume:
        with open(resume) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                rec = json.loads(line)
                if _record_fits(rec, header, layout, work):
                    done[rec["shard"]] = (rec["stable"], rec["ambiguous"])

    pending = [k for k in range(shards) if k not in done]
    with ExitStack() as stack:
        ckpt_fh = stack.enter_context(open(checkpoint, "a")) if checkpoint else None
        if jobs > 1 and len(pending) > 1:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=jobs))
            futures = {pool.submit(_scan_shard, spec, n, k, shards): k for k in pending}
            results = ((futures[f], f.result()) for f in as_completed(futures))
        else:
            shared = cache or EvalCache()
            results = ((k, _scan_shard(spec, n, k, shards, shared)) for k in pending)
        # each record is written as its shard finishes, in completion order,
        # so an interrupted run keeps every shard done before it
        for k, (stable, ambiguous) in results:
            done[k] = (stable, ambiguous)
            if ckpt_fh:
                record = {
                    **header,
                    "shard": k,
                    "stable": stable,
                    "ambiguous": ambiguous,
                    "scanned": layout[k][1] - layout[k][0],
                }
                ckpt_fh.write(json.dumps(record) + "\n")
                ckpt_fh.flush()

    stable_masks = sorted(m for k in done for m in done[k][0])
    ambiguous_masks = sorted(m for k in done for m in done[k][1])
    if orbit:
        # a class's canonical mask is the smallest mask of its orbit, so it
        # is also the representative a labeled census would report; exact
        # verdicts leave no ambiguous class to expand
        apsn_canonical = [(c, to_graph6(Graph(n, c))) for c in stable_masks]
        stable_masks = sorted(m for c in stable_masks for m in orbit_masks(n, c))
    else:
        reps: dict[int, int] = {}
        for m in stable_masks:
            reps.setdefault(canonical_form(Graph(n, m)), m)
        apsn_canonical = [(c, to_graph6(Graph(n, reps[c]))) for c in sorted(reps)]
    return CensusResult(
        n=n,
        fingerprint=header["fingerprint"],
        stable_masks=stable_masks,
        ambiguous_masks=ambiguous_masks,
        apsn_canonical=apsn_canonical,
        scanned=graph_count(n),
        shard_layout=layout,
        wall_time=time.monotonic() - start,
    )


# ---------------------------------------------------------------------------
# conjecture hunting for the two measures without a proven characterization


def conjecture_report(kind: str, n: int, tol: float = 1e-9, jobs: int = 1) -> dict:
    """Census a random-walk-betweenness or eigenvector game and compare the
    stable set against the conjectured one.

    Both outcomes are reportable: a match confirms consistency, a mismatch
    lists counterexample graphs.  Ambiguous verdicts land in their own bucket
    rather than being forced either way.
    """
    from .centrality import eigenvector, rw_betweenness

    if kind not in ("rwbetweenness", "eigenvector"):
        raise ParameterError("conjecture reports cover 'rwbetweenness' and 'eigenvector'")
    if kind == "rwbetweenness":
        spec = uniform_game(n, NumericAgent(rw_betweenness()))
        expected = [Graph.empty(n), Graph.complete(n)]
        conjecture = "the empty and the complete graph are the only stable networks"
    else:
        spec = uniform_game(n, NumericAgent(eigenvector()), TolerantPolicy(tol))
        expected = [Graph.complete(n)]
        conjecture = "the complete graph is the only stable network"
    result = run_census(spec, n, jobs=jobs)
    expected_canon = sorted(canonical_form(g) for g in expected)
    found_canon = [c for c, _ in result.apsn_canonical]
    extra = [g6 for c, g6 in result.apsn_canonical if c not in expected_canon]
    missing = [
        to_graph6(g) for g in expected if canonical_form(g) not in found_canon
    ]
    degenerate = sorted(
        {
            to_graph6(Graph(n, m))
            for m in result.stable_masks + result.ambiguous_masks
            if not is_connected(Graph(n, m))
        }
    )
    consistent = not extra and not missing and not result.ambiguous_masks
    return {
        "measure": kind,
        "n": n,
        "conjecture": conjecture,
        "verdict": "consistent with conjecture" if consistent else "deviation found",
        "stable": [g6 for _, g6 in result.apsn_canonical],
        "counterexamples": extra,
        "missing_expected": missing,
        "ambiguous": [to_graph6(Graph(n, m)) for m in result.ambiguous_masks],
        "spectrally_degenerate": degenerate,
        "census": result.to_json(),
    }
