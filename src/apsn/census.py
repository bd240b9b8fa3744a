"""Exhaustive stability censuses over all labeled graphs on n vertices.

A census classifies every labeled graph on n vertices as stable, unstable
or (under the tolerant policy) ambiguous, and reports the stable set up to
isomorphism.  It colours each vertex by its agent (``colouring``).  A
relabeling that maps every vertex to one of the same colour, and so of the
same agent, relabels the verdict too, so the census decides one graph per
class of such relabelings (``graph_classes``): the isomorphism classes of a
uniform game, single masks when every vertex has its own colour, and
anything between for a mixture.  Each stable or ambiguous class expands to
its orbit under those relabelings (``orbit_union``).

A game whose agents are all rule-typed (monotone, homophilic, or of a
kind with a rule, as game-theoretic centrality) decides every pair from
components, bridges and degrees: its census reads each class's verdict from
``game._decided_flip``, the two pair masks of blocking flips that dynamics
draws from, and builds no graph, report or cache.  Any other census asks
``is_apsn`` only for each graph's verdict: its early-exit report, which
stops at the first confident block and builds no delta.  Exact verdicts
carry over as they are.  A tolerant verdict reads float deltas, which two
labelings of a graph may give in different last digits; when the scan
reads a delta on an edge of the ambiguity band (``StabilityReport.fragile``;
a flip a rule-typed end decides reads none), the census decides every
member of that class instead: the fragile fallback.  The class list splits
into contiguous shards that share nothing, so shard count and worker count
never change the result payload; per-shard checkpoint records make long
runs resumable.
"""
from __future__ import annotations

import hashlib
import json
import time
from bisect import bisect_left
from collections import Counter
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import ExitStack
from dataclasses import dataclass
from math import factorial, prod
from operator import itemgetter
from typing import Sequence

from . import __version__
from .centrality import KINDS
from .errors import ParameterError, SizeGuardError
from .game import (
    EvalCache,
    GameSpec,
    NumericAgent,
    TolerantPolicy,
    _decided_flip,
    is_apsn,
    uniform_game,
)
from .graphs import (
    MAX_CLASSES,
    Graph,
    build_adjacency,
    canonical_form,
    graph_classes,
    graph_count,
    is_connected,
    orbit_union,
    shard_bounds,
    to_graph6,
)

CENSUS_CAP_SOLVE = 6

#: Written into every checkpoint record; resume keeps only records with the
#: current value.  Bump the engine tag whenever a change can alter a verdict
#: or what a record holds.
CODE_VERSION = f"{__version__}+engine.3"


def colouring(spec: GameSpec) -> tuple[int, ...]:
    """One colour per vertex, numbered in order of first appearance: equal
    agents share a colour.  A linear centrality's weight table reads vertex
    labels, so a game with a linear agent gives every vertex its own colour."""
    agents = spec.agents
    if any(isinstance(a, NumericAgent) and KINDS[a.measure.kind].labeled for a in agents):
        return tuple(range(spec.n))
    first: dict = {}
    return tuple(first.setdefault(agent, len(first)) for agent in agents)


def census_cap(spec: GameSpec) -> int:
    """Largest n a census of the game runs at: ``MAX_CLASSES`` (7), or 6 for
    a game with a measure that needs a solve or an eigendecomposition per
    graph when it would decide more than graph_count(6) = 32,768 classes.
    The test is on graph_count(n) / prod(k!) over the sizes k of the
    colours, a lower bound on the classes by orbit-stabiliser: 416 for one
    colour at n = 7, and at most 32,768 for any game at n <= 6."""
    if any(
        isinstance(a, NumericAgent) and KINDS[a.measure.kind].solve
        for a in spec.agents
    ):
        relabelings = prod(factorial(k) for k in Counter(colouring(spec)).values())
        if graph_count(spec.n) > graph_count(CENSUS_CAP_SOLVE) * relabelings:
            return CENSUS_CAP_SOLVE
    return MAX_CLASSES


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
) -> tuple[list[int], list[int], list[int]]:
    """Stable, ambiguous and fragile classes of one shard of the class list;
    a fresh cache unless given one.  A fragile class is in neither of the
    other lists.

    When every agent is rule-typed (``GameSpec.rules``) a class is stable
    exactly when ``_decided_flip`` finds no blocking flip on its adjacency:
    no ``Graph``, report or cache is made, and a decided flip has no delta,
    so no such class is ambiguous or fragile.  Any other game asks
    ``is_apsn`` for each class's early-exit report."""
    work = graph_classes(n, colouring(spec))
    lo, hi = shard_bounds(len(work), shard, shards)
    rules = spec.rules
    if rules[0] == (1 << n) - 1:
        return [
            mask for mask in work[lo:hi]
            if _decided_flip(rules, n, mask, build_adjacency(n, mask), None) is None
        ], [], []
    if cache is None:
        cache = EvalCache()
    stable: list[int] = []
    ambiguous: list[int] = []
    fragile: list[int] = []
    for mask in work[lo:hi]:
        report = is_apsn(spec, Graph(n, mask), cache, early_exit=True)
        verdict = report.verdict
        if report.fragile:
            fragile.append(mask)
        elif verdict == "stable":
            stable.append(mask)
        elif verdict == "ambiguous":
            ambiguous.append(mask)
    return stable, ambiguous, fragile


#: The mask lists of a checkpoint record, in ``_scan_shard``'s order.
_RECORD_LISTS = ("stable", "ambiguous", "fragile")


def _record_fits(
    rec: dict, header: dict, layout: list[tuple[int, int]], work: Sequence[int]
) -> bool:
    """Whether a checkpoint record carries this census's header, covers one
    whole shard of the layout and lists only masks of that shard's work.
    The work is ascending (a range, or the class list), so each mask is
    looked up by bisection."""
    if any(rec.get(key) != value for key, value in header.items()):
        return False
    shard = rec.get("shard")
    if not isinstance(shard, int) or not 0 <= shard < len(layout):
        return False
    lo, hi = layout[shard]
    lists = [rec.get(key) for key in _RECORD_LISTS]

    def listed(m) -> bool:
        k = bisect_left(work, m, lo, hi)
        return k < hi and work[k] == m

    return (
        rec.get("scanned") == hi - lo
        and all(isinstance(masks, list) for masks in lists)
        and all(isinstance(m, int) and listed(m) for masks in lists for m in masks)
    )


def _expand_classes(
    spec: GameSpec, n: int, colours: tuple[int, ...], stable: list[int],
    ambiguous: list[int], fragile: list[int], cache: EvalCache,
) -> tuple[list[int], list[int], list[tuple[int, int]]]:
    """(stable masks, ambiguous masks, (isomorphism class, representative)
    per stable isomorphism class) of a census from its class verdicts.

    The stable and the ambiguous classes each contribute the union of
    their orbits (``orbit_union``), and a stable class's mask, the
    smallest of its orbit, is its smallest stable member.  A fragile
    class has each member decided on its own, and its smallest stable
    member, if any, stands for it.  The smallest of these members per
    uncoloured ``canonical_form`` represents that isomorphism class, as a
    scan of every mask would report it.  With one colour a class is an
    isomorphism class and its mask is canonical (``graph_classes``), so
    the class names it and no canonical form is computed.
    """
    stable_masks = orbit_union(n, stable, colours)
    ambiguous_masks = orbit_union(n, ambiguous, colours)
    smallest = [(c, c) for c in stable]
    if fragile:
        for c in fragile:
            kept = []
            for m in orbit_union(n, [c], colours):
                verdict = is_apsn(spec, Graph(n, m), cache, early_exit=True).verdict
                if verdict == "stable":
                    kept.append(m)
                elif verdict == "ambiguous":
                    ambiguous_masks.append(m)
            stable_masks += kept
            if kept:
                smallest.append((c, kept[0]))
        stable_masks.sort()
        ambiguous_masks.sort()
    one_colour = len(set(colours)) == 1
    reps: dict[int, int] = {}
    for c, m in sorted(smallest, key=itemgetter(1)):
        reps.setdefault(c if one_colour else canonical_form(Graph(n, m)), m)
    return stable_masks, ambiguous_masks, sorted(reps.items())


def run_census(
    spec: GameSpec,
    n: int,
    shards: int = 1,
    jobs: int = 1,
    cache: EvalCache | None = None,
    checkpoint: str | None = None,
    resume: str | None = None,
) -> CensusResult:
    """Classify every labeled graph on n vertices for the given game, one
    class of colour-preserving relabelings at a time (see the module
    docstring)."""
    cap = census_cap(spec)
    if n > cap:
        raise SizeGuardError(f"census capped at n={cap} for this game (got n={n})")
    if spec.n != n:
        raise ParameterError(f"game has {spec.n} agents, census wants n={n}")
    if shards < 1:
        raise ParameterError("need at least one shard")
    if jobs < 1:
        raise ParameterError(f"need at least one job (got {jobs})")
    start = time.monotonic()
    colours = colouring(spec)
    # built here, before any pool starts, so forked workers inherit the
    # memos of the class list and of the adjacency byte tables
    work = graph_classes(n, colours)
    build_adjacency(n, 0)
    layout = [shard_bounds(len(work), k, shards) for k in range(shards)]
    header = {
        "fingerprint": game_fingerprint(spec),
        "n": n,
        "shards": shards,
        "mode": list(colours),
        "code_version": CODE_VERSION,
    }

    done: dict[int, tuple[list[int], ...]] = {}
    if resume:
        with open(resume) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                rec = json.loads(line)
                if _record_fits(rec, header, layout, work):
                    done[rec["shard"]] = tuple(rec[key] for key in _RECORD_LISTS)

    pending = [k for k in range(shards) if k not in done]
    shared = cache or EvalCache()
    with ExitStack() as stack:
        ckpt_fh = stack.enter_context(open(checkpoint, "a")) if checkpoint else None
        if jobs > 1 and len(pending) > 1:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=jobs))
            futures = {pool.submit(_scan_shard, spec, n, k, shards): k for k in pending}
            results = ((futures[f], f.result()) for f in as_completed(futures))
        else:
            results = ((k, _scan_shard(spec, n, k, shards, shared)) for k in pending)
        # each record is written as its shard finishes, in completion order,
        # so an interrupted run keeps every shard done before it
        for k, lists in results:
            done[k] = lists
            if ckpt_fh:
                record = {
                    **header,
                    "shard": k,
                    **dict(zip(_RECORD_LISTS, lists)),
                    "scanned": layout[k][1] - layout[k][0],
                }
                ckpt_fh.write(json.dumps(record) + "\n")
                ckpt_fh.flush()

    stable, ambiguous, fragile = (
        sorted(m for k in done for m in done[k][i]) for i in range(3)
    )
    stable_masks, ambiguous_masks, reps = _expand_classes(
        spec, n, colours, stable, ambiguous, fragile, shared
    )
    apsn_canonical = [(c, to_graph6(Graph(n, rep))) for c, rep in reps]
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
# conjecture hunting for the three measures without a proven characterization


def conjecture_report(kind: str, n: int, tol: float = 1e-9, jobs: int = 1) -> dict:
    """Census a random-walk-betweenness, eigenvector or PageRank game and
    compare the stable set against the conjectured one.

    Both outcomes are reportable: a match confirms consistency, a mismatch
    lists counterexample graphs.  Ambiguous verdicts land in their own bucket
    rather than being forced either way.
    """
    from .centrality import eigenvector, pagerank, rw_betweenness

    if kind == "rwbetweenness":
        spec = uniform_game(n, NumericAgent(rw_betweenness()))
        expected = [Graph.empty(n), Graph.complete(n)]
        conjecture = "the empty and the complete graph are the only stable networks"
    elif kind == "eigenvector":
        spec = uniform_game(n, NumericAgent(eigenvector()), TolerantPolicy(tol))
        expected = [Graph.complete(n)]
        conjecture = "the complete graph is the only stable network"
    elif kind == "pagerank":
        spec = uniform_game(n, NumericAgent(pagerank()), TolerantPolicy(tol))
        expected = [Graph.complete(n)]
        if n >= 6:
            expected.append(Graph.disjoint_union(Graph.complete(n - 2), Graph.complete(2)))
        conjecture = (
            "the complete graph K_n is the only stable network for n <= 5; "
            "for n >= 6, K_n and K_{n-2} + K_2 are"
        )
    else:
        raise ParameterError(
            "conjecture reports cover 'rwbetweenness', 'eigenvector' and 'pagerank'"
        )
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
