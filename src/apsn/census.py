"""Exhaustive stability censuses over all labeled graphs on n vertices.

A census scans every adjacency mask once, classifies each graph as stable,
unstable or (under the tolerant policy) ambiguous, and reports the stable
set up to isomorphism.  The mask range splits into contiguous shards that
share nothing, so shard count and worker count never change the result
payload; per-shard checkpoint records make long runs resumable.
"""
from __future__ import annotations

import hashlib
import json
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import ExitStack
from dataclasses import dataclass

from .centrality import APPROX_KINDS
from .errors import ParameterError, SizeGuardError
from .game import EvalCache, GameSpec, NumericAgent, TolerantPolicy, is_apsn, uniform_game
from .graphs import Graph, canonical_form, graph_count, is_connected, shard_bounds, to_graph6

CENSUS_CAP_EXACT = 7
CENSUS_CAP_SOLVE = 6

# Measures whose kernel is a linear solve or an eigendecomposition per graph.
_SOLVE_KINDS = APPROX_KINDS | {"rwcloseness", "rwbetweenness"}


def census_cap(spec: GameSpec) -> int:
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


def _scan_shard(
    spec: GameSpec, n: int, shard: int, shards: int, cache: EvalCache | None = None
) -> tuple[list[int], list[int]]:
    """Stable and ambiguous masks of one shard; a fresh cache unless given one."""
    lo, hi = shard_bounds(graph_count(n), shard, shards)
    if cache is None:
        cache = EvalCache()
    stable: list[int] = []
    ambiguous: list[int] = []
    for mask in range(lo, hi):
        report = is_apsn(spec, Graph(n, mask), cache, early_exit=True)
        verdict = report.verdict
        if verdict == "stable":
            stable.append(mask)
        elif verdict == "ambiguous":
            ambiguous.append(mask)
    return stable, ambiguous


def _record_fits(rec: dict, layout: list[tuple[int, int]]) -> bool:
    """Whether a checkpoint record covers one whole shard of the layout and
    lists only masks inside it."""
    shard = rec.get("shard")
    if not isinstance(shard, int) or not 0 <= shard < len(layout):
        return False
    lo, hi = layout[shard]
    return rec.get("scanned") == hi - lo and all(
        lo <= m < hi for m in rec["stable"] + rec["ambiguous"]
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
    """Classify every labeled graph on n vertices for the given game."""
    cap = census_cap(spec)
    if n > cap:
        raise SizeGuardError(f"census capped at n={cap} for this game (got n={n})")
    if spec.n != n:
        raise ParameterError(f"game has {spec.n} agents, census wants n={n}")
    if shards < 1:
        raise ParameterError("need at least one shard")
    start = time.monotonic()
    fingerprint = game_fingerprint(spec)
    layout = [shard_bounds(graph_count(n), k, shards) for k in range(shards)]

    done: dict[int, tuple[list[int], list[int]]] = {}
    if resume:
        with open(resume) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                rec = json.loads(line)
                if (
                    rec.get("fingerprint") == fingerprint
                    and rec.get("n") == n
                    and rec.get("shards") == shards
                    and _record_fits(rec, layout)
                ):
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
                ckpt_fh.write(
                    json.dumps(
                        {
                            "fingerprint": fingerprint,
                            "n": n,
                            "shards": shards,
                            "shard": k,
                            "stable": stable,
                            "ambiguous": ambiguous,
                            "scanned": layout[k][1] - layout[k][0],
                        }
                    )
                    + "\n"
                )
                ckpt_fh.flush()

    stable_masks = sorted(m for k in done for m in done[k][0])
    ambiguous_masks = sorted(m for k in done for m in done[k][1])
    reps: dict[int, int] = {}
    for m in stable_masks:
        c = canonical_form(Graph(n, m))
        reps.setdefault(c, m)
    apsn_canonical = [
        (c, to_graph6(Graph(n, reps[c]))) for c in sorted(reps)
    ]
    return CensusResult(
        n=n,
        fingerprint=fingerprint,
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
