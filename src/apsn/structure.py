"""Structural predicates that characterize stable networks, and the axiom
falsifier.

The predicates here are *engine-independent*: they look only at graph shape
(cliques, bridges, domination, eccentricities) and are tested against
exhaustive stability censuses.  Where a characterization has degenerate
boundary cases, the predicate implements the exact stable set derived from
the flip semantics; the docstrings call out each boundary reading:

* a two-vertex clique whose members both follow componentwise (type-2)
  behavior is NOT stable: its single edge is a bridge, and severing a bridge
  never costs a componentwise agent centrality while it saves the edge cost;
* peripheral (type-2') agents hang off the core in bridge *trees* (every
  incident edge a bridge), not only as depth-one pendants, and when no
  increasing (type-1) agent exists at all they may form one standalone tree
  component of their own;
* under degree homophily with f(0) < 0 a two-vertex clique is likewise
  unstable (severing its edge is improving when 0 > f(0)), so stratified
  clique graphs use cliques of size one or at least three.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from .centrality import KINDS, Measure
from .errors import ContractError, ParameterError, SizeGuardError
from .game import MONOTONE_KINDS, EvalCache, HomophilyFunction
from .graphs import (
    MAX_CLASSES,
    Graph,
    bfs_distances,
    bits,
    bridges,
    component_masks,
    dominates,
    graph_classes,
    graph_count,
    orbit_masks,
    to_graph6,
)
from .values import FRAGILE_MARGIN, on_band_edge, sign_with_band

INFER_CAP = 15


# ---------------------------------------------------------------------------
# monotone mixtures: structure test and type inference


def _pair_constraint_ok(g: Graph, comp_of, u: int, tu: str, v: int, tv: str) -> bool:
    same_comp = bool(comp_of[u] >> v & 1)
    adjacent = g.has_edge(u, v)
    if tu == "1" and tv == "1" and not adjacent:
        return False
    if tu in ("1", "2") and tv in ("1", "2") and same_comp and not adjacent:
        return False
    if {tu, tv} == {"2p"} and not same_comp:
        return False
    if {tu, tv} == {"1", "2p"} and not same_comp:
        return False
    return True


def _unary_candidates(g: Graph) -> list[set[str]]:
    cut = bridges(g)
    adj = g.adjacency()
    out = []
    for v in range(g.n):
        cands = {"1"}
        if adj[v] == 0:
            cands |= {"1p", "2", "2p"}
        else:
            incident = [(min(v, w), max(v, w)) for w in bits(adj[v])]
            if all(e not in cut for e in incident):
                cands.add("2")
            if all(e in cut for e in incident):
                cands.add("2p")
        out.append(cands)
    return out


def check_monotone_structure(g: Graph, types) -> bool:
    """Does the typed graph have the exact shape stable monotone mixtures take?

    The shape: decreasing (1') agents isolated; increasing (1) agents one
    clique; per component the {1,2} members form a clique; componentwise (2)
    agents touch no bridge, peripheral (2') agents touch only bridges and no
    2-agent; all 2' agents live in one component, the component of the 1
    agents whenever those exist.
    """
    types = tuple(types)
    if len(types) != g.n:
        raise ParameterError(f"{len(types)} types for {g.n} vertices")
    for t in types:
        if t not in MONOTONE_KINDS:
            raise ParameterError(f"unknown monotone type {t!r}")
    comp_of = {v: comp for comp in component_masks(g) for v in bits(comp)}
    unary = _unary_candidates(g)
    for v, t in enumerate(types):
        if t not in unary[v]:
            return False
    for u, v in itertools.combinations(range(g.n), 2):
        if not _pair_constraint_ok(g, comp_of, u, types[u], v, types[v]):
            return False
    return True


def infer_types(
    g: Graph, known_types: dict[int, str] | None = None
) -> tuple[frozenset, ...]:
    """Per-vertex sets of monotone types consistent with the graph being a
    stable mixture.  ``known_types`` pins vertices whose type is known from
    outside the graph.

    Raises when no assignment at all fits ("not a monotone stable shape").
    """
    if g.n > INFER_CAP:
        raise SizeGuardError(f"type inference capped at n={INFER_CAP}")
    comp_of = {v: comp for comp in component_masks(g) for v in bits(comp)}
    unary = _unary_candidates(g)
    if known_types:
        for v, t in known_types.items():
            if t not in MONOTONE_KINDS:
                raise ParameterError(f"unknown monotone type {t!r}")
            unary[v] = unary[v] & {t}
            if not unary[v]:
                raise ContractError("not a monotone stable shape (known type conflicts)")

    order = sorted(range(g.n), key=lambda v: len(unary[v]))
    candidates: list[set[str]] = [set() for _ in range(g.n)]
    feasible_any = False
    for v in range(g.n):
        for t in sorted(unary[v]):
            assignment = {v: t}
            rest = [u for u in order if u != v]
            if _extend_over(g, comp_of, unary, assignment, rest, 0):
                candidates[v].add(t)
                feasible_any = True
    if not feasible_any:
        raise ContractError("not a monotone stable shape")
    return tuple(frozenset(c) for c in candidates)


def _extend_over(g, comp_of, unary, assignment, order, pos) -> bool:
    if pos == len(order):
        return True
    v = order[pos]
    for t in sorted(unary[v]):
        if all(_pair_constraint_ok(g, comp_of, u, tu, v, t) for u, tu in assignment.items()):
            assignment[v] = t
            if _extend_over(g, comp_of, unary, assignment, order, pos + 1):
                del assignment[v]
                return True
            del assignment[v]
    return False


# ---------------------------------------------------------------------------
# stratified clique graphs (degree homophily)


@dataclass(frozen=True)
class CliqueSequence:
    sizes: tuple[int, ...]  # strictly decreasing, each >= 2
    isolated: int

    @property
    def n(self) -> int:
        return sum(self.sizes) + self.isolated


def _validate_homophily(f: HomophilyFunction, n: int) -> None:
    """f(x) >= x at every degree 1..n-2: a game on n agents, and the
    stability of a clique sequence, read f only at 0..n-2.  f is strictly
    increasing already (``HomophilyFunction``)."""
    for d in range(1, n - 1):
        if f(d) < d:
            raise ParameterError("homophily function must satisfy f(x) >= x for x >= 1")


def sequence_is_stable(seq: CliqueSequence, f: HomophilyFunction) -> bool:
    """Stability conditions for a disjoint union of cliques plus isolates.

    Between strata: a member of the next clique must refuse the link,
    a_i - 1 > f(a_{i+1} - 1) (with 1 standing in for the isolates).  Inside a
    stratum of size a >= 2: severing must not pay, a - 2 <= f(a - 2); with
    f(0) < 0 this rules out two-vertex cliques.  Two isolates stay apart only
    when 0 > f(0).
    """
    sizes = seq.sizes
    for a, b in zip(sizes, sizes[1:]):
        if not a > b:
            return False
    if any(a < 2 for a in sizes):
        return False
    for a in sizes:
        if a - 2 > f(a - 2):
            return False
    for a, b in zip(sizes, sizes[1:]):
        if not a - 1 > f(b - 1):
            return False
    if seq.isolated >= 1 and sizes:
        if not sizes[-1] - 1 > f(0):
            return False
    if seq.isolated >= 2 and not 0 > f(0):
        return False
    return True


def stratified_sequences(n: int, f: HomophilyFunction) -> list[CliqueSequence]:
    """All stable clique sequences with sum of sizes plus isolates equal n."""
    _validate_homophily(f, n)
    out = []

    def rec(remaining: int, prev: int, acc: tuple[int, ...]):
        seq = CliqueSequence(acc, remaining)
        if sequence_is_stable(seq, f):
            out.append(seq)
        for a in range(min(remaining, prev - 1), 1, -1):
            rec(remaining - a, a, acc + (a,))

    rec(n, n + 1, ())
    return out


def realize_sequence(seq: CliqueSequence) -> Graph:
    edges = []
    start = 0
    for a in seq.sizes:
        edges.extend(
            (start + i, start + j) for i in range(a) for j in range(i + 1, a)
        )
        start += a
    return Graph.from_edges(seq.n, edges)


def is_stratified(g: Graph, f: HomophilyFunction) -> bool:
    """Is g a disjoint union of cliques forming a stable stratified sequence?"""
    _validate_homophily(f, g.n)
    sizes = []
    isolated = 0
    for comp in component_masks(g):
        members = list(bits(comp))
        size = len(members)
        for u, v in itertools.combinations(members, 2):
            if not g.has_edge(u, v):
                return False
        if size == 1:
            isolated += 1
        else:
            sizes.append(size)
    sizes.sort(reverse=True)
    return sequence_is_stable(CliqueSequence(tuple(sizes), isolated), f)


# ---------------------------------------------------------------------------
# betweenness games: the domination criterion


def betweenness_condition(g: Graph) -> bool:
    """Isolated vertices plus at most one component with >= 2 vertices in
    which every degree is >= 2, the diameter is 2, and a pair is adjacent
    exactly when neither of the two dominates the other."""
    adj = g.adjacency()
    nontrivial = [c for c in component_masks(g) if c.bit_count() >= 2]
    if not nontrivial:
        return True
    if len(nontrivial) > 1:
        return False
    comp = nontrivial[0]
    members = list(bits(comp))
    if any(adj[v].bit_count() < 2 for v in members):
        return False
    diam = 0
    for v in members:
        dist = bfs_distances(adj, v)
        diam = max(diam, max(dist[u] for u in members))
    if diam != 2:
        return False
    for u, v in itertools.combinations(members, 2):
        if g.has_edge(u, v) == (dominates(g, v, u) or dominates(g, u, v)):
            return False
    return True


# ---------------------------------------------------------------------------
# eccentricity games


def ecc_necessary(g: Graph) -> bool:
    """No pendant vertices inside components of size at least three."""
    adj = g.adjacency()
    for comp in component_masks(g):
        if comp.bit_count() >= 3:
            if any(adj[v].bit_count() == 1 for v in bits(comp)):
                return False
    return True


def ecc_sufficient(g: Graph) -> bool:
    """A verified sufficient family for eccentricity games: connected graphs
    in which every vertex has eccentricity exactly two, every vertex misses
    at least two others, and no edge lies in a triangle.

    Triangle-freeness makes every removal stretch the severed pair to
    distance >= 3 (a strict loss for both ends); two non-neighbors apiece
    mean no single addition can make anyone universal, so additions never
    pay either.
    """
    adj = g.adjacency()
    n = g.n
    if n < 3:
        return False
    for v in range(n):
        dist = bfs_distances(adj, v)
        if any(d < 0 for d in dist):
            return False  # disconnected
        if max(dist) != 2:
            return False
        if adj[v].bit_count() > n - 3:
            return False
    for i, j in g.edges():
        if adj[i] & adj[j]:
            return False
    return True


def ecc_strict_condition_distance(g: Graph, i: int, j: int) -> bool:
    """Exact condition for an intra-component addition ij to strictly raise
    i's eccentricity centrality: every vertex realizing i's maximum distance
    sits at distance at most (that maximum minus two) from j."""
    adj = g.adjacency()
    di = bfs_distances(adj, i)
    far = max((d for d in di if d > 0), default=0)
    if far == 0:
        return False
    dj = bfs_distances(adj, j)
    return all(dj[k] <= di[k] - 2 for k in range(g.n) if di[k] == far)


# ---------------------------------------------------------------------------
# axiom falsifier


@dataclass(frozen=True)
class AxiomInstance:
    graph: Graph
    i: int
    j: int
    vertex: int
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "graph6": to_graph6(self.graph),
            "edge": [self.i, self.j],
            "vertex": self.vertex,
            "detail": self.detail,
        }


@dataclass
class FalsifierResult:
    counterexample: Optional[AxiomInstance]
    near_band: list[AxiomInstance] = field(default_factory=list)
    fitted_f: Optional[dict[int, int]] = None

    def to_json(self) -> dict:
        return {
            "counterexample": self.counterexample.to_json() if self.counterexample else None,
            "near_band": [e.to_json() for e in self.near_band],
            "fitted_f": self.fitted_f,
        }


def _delta_class(before, after, exact: bool, tol: float) -> tuple[int, bool, bool]:
    """(-1|0|+1, undecided-band, fragile) for the raw difference after -
    before; an approximate zero is undecided too (``values.sign_with_band``),
    and ``values.on_band_edge`` tells whether another labeling could differ."""
    if exact:
        d = after - before
        return ((d > 0) - (d < 0), False, False)
    x = float(after) - float(before)
    sign, near = sign_with_band(x, tol)
    return (sign, near or sign == 0, on_band_edge(x, tol, before, after))


def falsify_axiom(
    measure: Measure,
    axiom: str,
    n_max: int,
    tol: float = 1e-9,
    cache: EvalCache | None = None,
) -> FalsifierResult:
    """Exhaustively hunt for a violation of a monotonicity/regularity axiom.

    Axioms: '1' increasing, '1p' decreasing, '2' componentwise,
    '2p' peripheral, '3' degree homophilic (fits a threshold function from
    the observed improving-move boundary), '4' regular.

    For measures whose formula divides by an empty sum at isolated vertices
    (closeness, random-walk closeness, eccentricity) the conventional 0 there
    is outside the formula's domain, so instances whose subject vertex is
    isolated are skipped for the monotonicity axioms.  Approximate measures
    report violations only beyond the ambiguity band; closer calls are
    returned in ``near_band``.  The result is that of a scan of every
    labeled graph with 1..n_max <= 7 vertices in mask order, stopped at the
    first violation; ``_hunt`` gets it from one graph per class.
    """
    if axiom not in ("1", "1p", "2", "2p", "3", "4"):
        raise ParameterError(f"unknown axiom {axiom!r}")
    if n_max > MAX_CLASSES:
        raise SizeGuardError(f"axiom falsifier capped at n={MAX_CLASSES}")
    if measure.kind == "katz" and measure.alpha is None:
        raise ParameterError(
            "axiom checks need a fixed katz alpha; the automatic one varies "
            "with the graph and makes before/after values incomparable"
        )
    events = _hunt(measure, axiom, n_max, tol, cache or EvalCache())
    if axiom == "3":
        return _fit_homophily(events)
    near: list[AxiomInstance] = []
    for tag, inst, _ in events:
        if tag == "bad":
            return FalsifierResult(inst, near)
        near.append(inst)
    return FalsifierResult(None, near)


def _hunt(measure: Measure, axiom: str, n_max: int, tol: float, cache: EvalCache):
    """``_scan_graph``'s events on every labeled graph with 1..n_max
    vertices, in mask order, as far as the first violation.  The first graph
    with a property that relabeling keeps is a class's canonical mask, the
    smallest of its orbit.  A float may read otherwise in another labeling at
    an edge of the band, and a near-band entry names its own labeled graph,
    so a class whose representative reads either has every member scanned.
    A linear measure's weight table fixes n, and its kernel reads labels: it
    is hunted at that n alone, where every vertex has its own colour."""
    labeled = KINDS[measure.kind].labeled
    if labeled and len(measure.weights) > n_max:
        raise ParameterError(f"weight table has n={len(measure.weights)}, above n_max={n_max}")
    for n in [len(measure.weights)] if labeled else range(1, n_max + 1):
        colours = range(n) if labeled else None
        scanned, first_bad = {}, graph_count(n)
        for rep in graph_classes(n, colours):
            if rep > first_bad:  # no member of this class or a later one comes first
                break
            events, fragile = _scan_graph(measure, axiom, Graph(n, rep), cache, tol)
            members = {rep: events}
            if fragile or any(tag == "near" for tag, _, _ in events):
                for m in orbit_masks(n, rep, colours) - {rep}:
                    members[m] = _scan_graph(measure, axiom, Graph(n, m), cache, tol)[0]
            bad = [m for m, found in members.items() if found and found[-1][0] == "bad"]
            first_bad = min([first_bad, *bad])
            scanned.update(members)
        for m in sorted(scanned):
            yield from scanned[m]


def _scan_graph(measure: Measure, axiom: str, g: Graph, cache: EvalCache, tol: float):
    """(events, fragile) of one graph, in pair order up to its first
    violation.  An event is (tag, instance, key): "near" or "bad", or for
    axiom 3 "gain" or "stop" keyed by the subject's and partner's degrees.
    Axiom 4 compares an isolated vertex's float with 0, so near 0 is fragile."""
    exact = measure.is_exact
    base = cache.vector(measure, g)
    comp_of = {v: c for c in component_masks(g) for v in bits(c)}
    guard = axiom not in ("3", "4") and KINDS[measure.kind].undefined_on_isolated
    degrees = g.degrees()
    events, fragile = [], False
    for i, j in g.non_edges():
        hvec = cache.vector(measure, g.add_edge(i, j))
        # axiom 4's clause: an edge elsewhere cannot raise an unrelated value
        for k in [k for k in range(g.n) if k not in (i, j)] if axiom == "4" else (i, j):
            if guard and comp_of[k] == 1 << k:
                continue
            sign, band, edge = _delta_class(base[k], hvec[k], exact, tol)
            fragile |= edge
            if axiom == "3":
                tag = "near" if band else "gain" if sign > 0 else "stop"
                inst = AxiomInstance(g, i, j, k, "band: excluded from fit" if band else "")
                events.append((tag, inst, (degrees[k], degrees[i + j - k])))
                continue
            if axiom == "4":
                bad, detail = sign > 0, "unrelated value increased"
            else:
                bad, detail = _axiom_violation(axiom, bool(comp_of[i] >> j & 1), sign)
            if band:
                if bad or sign == 0 and axiom != "4":
                    events.append(("near", AxiomInstance(g, i, j, k, detail), None))
            elif bad:
                events.append(("bad", AxiomInstance(g, i, j, k, detail), None))
                return events, fragile
    if axiom == "4":
        for k in range(g.n):
            if comp_of[k] == 1 << k:
                fragile |= not exact and abs(base[k]) <= FRAGILE_MARGIN
                if base[k] != 0:
                    inst = AxiomInstance(g, k, k, k, "isolated vertex value nonzero")
                    return events + [("bad", inst, None)], fragile
    return events, fragile


def _axiom_violation(axiom: str, same_component: bool, sign: int) -> tuple[bool, str]:
    if axiom == "1":
        return sign <= 0, "addition failed to strictly increase"
    if axiom == "1p":
        return sign >= 0, "addition failed to strictly decrease"
    if axiom == "2":
        if same_component:
            return sign <= 0, "intra-component addition failed to strictly increase"
        return sign > 0, "cross-component addition increased"
    # '2p'
    if same_component:
        return sign > 0, "intra-component addition increased"
    return sign <= 0, "cross-component addition failed to strictly increase"


def _fit_homophily(events) -> FalsifierResult:
    near: list[AxiomInstance] = []
    improving: dict[int, dict[int, AxiomInstance]] = {}
    refusing: dict[int, dict[int, AxiomInstance]] = {}
    for tag, inst, (d, other) in events:
        if tag == "near":
            near.append(inst)
        else:
            (improving if tag == "gain" else refusing).setdefault(d, {}).setdefault(other, inst)
    degrees_seen = sorted(set(improving) | set(refusing))
    los: dict[int, int | None] = {}
    his: dict[int, int | None] = {}
    for d in degrees_seen:
        gains = improving.get(d, {})
        stops = refusing.get(d, {})
        lo = max(gains) if gains else None
        hi = min(stops) - 1 if stops else None
        if lo is not None and hi is not None and lo > hi:
            inst = gains[lo]
            detail = (
                f"degree {d}: improving toward partner degree {lo} but refused at "
                f"{hi + 1}; no threshold separates them"
            )
            return FalsifierResult(
                AxiomInstance(inst.graph, inst.i, inst.j, inst.vertex, detail), near
            )
        los[d], his[d] = lo, hi
    # Upper caps propagated right to left keep early unpinned values from
    # crowding later bounded ones; one left-to-right minimal pass under the
    # caps then decides feasibility and yields a strictly increasing table.
    caps: dict[int, int | None] = {}
    next_cap: int | None = None
    next_d: int | None = None
    for d in reversed(degrees_seen):
        cap = his[d]
        if next_cap is not None:
            shifted = next_cap - (next_d - d)
            cap = shifted if cap is None else min(cap, shifted)
        caps[d] = cap
        if cap is not None:
            next_cap, next_d = cap, d
    fitted: dict[int, int] = {}
    prev: int | None = None
    prev_d = 0
    for d in degrees_seen:
        floor = None if prev is None else prev + (d - prev_d)
        bounds = [x for x in (los[d], floor) if x is not None]
        if bounds:
            val = max(bounds)
            if caps[d] is not None and val > caps[d]:
                bucket = refusing.get(d) or improving.get(d)
                inst = next(iter(bucket.values()))
                detail = f"degree {d}: no strictly increasing threshold fits"
                return FalsifierResult(
                    AxiomInstance(inst.graph, inst.i, inst.j, inst.vertex, detail), near
                )
        else:
            val = caps[d] if caps[d] is not None else 0
        fitted[d] = val
        prev, prev_d = val, d
    return FalsifierResult(None, near, fitted_f=fitted)
