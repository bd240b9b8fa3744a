"""Independent slow implementations that the fast kernels in
``apsn.centrality`` are checked against.

* ``brute_shapley`` and ``brute_betweenness`` enumerate every ordering of
  the players and every simple path;
* ``hitting_times`` and ``absorption_probabilities`` solve the walk systems
  over Fractions;
* ``eigenvector_by_iteration`` and ``pagerank_by_iteration`` are the power
  iterations that the closed-form spectral kernels replaced;
* ``oracle_rwcloseness`` and ``oracle_rwbetweenness`` build the random-walk
  vectors from those rational solves, and ``oracle_closeness``,
  ``oracle_betweenness`` and the other distance oracles are the
  ``Fraction`` loops that the integer BFS kernels replaced;
* ``adjacency_by_bits`` builds adjacency rows one pair bit at a time, and
  ``expand_classes_per_class`` expands a census's class verdicts one orbit
  set at a time: the loops that ``graphs.build_adjacency``'s byte tables
  and ``census._expand_classes``'s sorted orbit unions replaced;
  ``colour_patterns`` lists every colouring of n vertices;
* ``enumerate_labeled_graphs`` walks every labeled graph in mask order,
  the walk that ``graphs.graph_classes`` replaces with one graph per class
  of colour-preserving relabelings; ``labeled_census``,
  ``labeled_falsify_axiom``, ``labeled_compute_caps`` and
  ``labeled_passing_masks`` are the census, the axiom hunt, the cap
  computation and the predicate filter on that walk;
* ``maximal_member_by_rounds`` repeats ``truncation.maximal_member``'s pass
  in pair order until a pass adds no pair, the loop its single pass
  replaced;
* ``two_way_eval_flip`` spells out the willingness rules of additions and
  removals separately, the flip evaluation that ``game._eval_flip``'s one
  rule replaced;
* ``delta_add`` and ``delta_remove`` read one flip's deltas off whole
  cached vectors, and ``improving_add`` and ``improving_remove`` decide it
  through ``two_way_eval_flip``: none of them calls the flip engine, so
  neither the kind rules nor the delta builder of ``is_apsn`` is used.

``ecc_strict_condition_paths`` is the shortest-path reading of a strict
eccentricity increase that ``structure.ecc_strict_condition_distance``
corrects.  ``same_component`` reads whether two vertices are connected.
``seeded_weights`` gives the linear kernel tests a reproducible weight table
and ``write_weight_table`` is the inverse of ``truncation.read_weight_table``.
"""
from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np

from apsn.census import game_fingerprint
from apsn.centrality import KINDS
from apsn.errors import ContractError, SizeGuardError
from apsn import structure
from apsn.game import EvalCache, GameSpec, MonotoneAgent, NumericAgent, is_apsn
from apsn.graphs import (
    Graph,
    bfs_distances,
    bits,
    bridges,
    canonical_form,
    component_masks,
    component_of,
    graph_count,
    orbit_masks,
    pair_list,
    reachable_from,
    to_graph6,
)
from apsn.values import Approx, Exact, on_band_edge, sign_with_band
from apsn.linalg import solve_rational

EIG_TOLERANCE = 1e-12
EIG_MAX_ITER = 10**6
PAGERANK_TOLERANCE = 1e-12
PAGERANK_MAX_ITER = 10**6
BRUTE_CAP = 7
LABELED_CAP = 8


# -- power iterations ------------------------------------------------------------


def eigenvector_by_iteration(g: Graph) -> tuple[float, ...]:
    """Power iteration on A + I from the uniform unit vector to 1e-12."""
    n = g.n
    if g.mask == 0:
        # zero matrix: the iteration below would stall on the unit shift,
        # and any vector is an eigenvector; report the uniform one.
        return tuple([1.0 / math.sqrt(n)] * n)
    a = np.zeros((n, n))
    for i, j in g.edges():
        a[i, j] = a[j, i] = 1.0
    # The unit shift keeps eigenvectors, makes the dominant eigenvalue unique
    # in magnitude (bipartite adjacency spectra are symmetric around 0, which
    # makes unshifted power iteration oscillate forever).
    shifted = a + np.eye(n)
    x = np.full(n, 1.0 / math.sqrt(n))
    for _ in range(EIG_MAX_ITER):
        y = shifted @ x
        y /= np.linalg.norm(y)
        if np.max(np.abs(y - x)) < EIG_TOLERANCE:
            return tuple(float(v) for v in y)
        x = y
    raise AssertionError("eigenvector power iteration did not converge")


def pagerank_by_iteration(g: Graph, damping: float = 0.85) -> tuple[float, ...]:
    """Power iteration of the damped walk with uniform teleports from
    dangling vertices, from the uniform vector to 1e-12."""
    d = damping
    n = g.n
    adj = g.adjacency()
    degs = [a.bit_count() for a in adj]
    p = [1.0 / n] * n
    for _ in range(PAGERANK_MAX_ITER):
        dangling = sum(p[u] for u in range(n) if degs[u] == 0)
        base = (1.0 - d) / n + d * dangling / n
        nxt = [base] * n
        for u in range(n):
            if degs[u]:
                share = d * p[u] / degs[u]
                for w in bits(adj[u]):
                    nxt[w] += share
        if max(abs(a - b) for a, b in zip(nxt, p)) < PAGERANK_TOLERANCE:
            return tuple(nxt)
        p = nxt
    raise AssertionError("pagerank power iteration did not converge")


# -- random walks over Fractions ---------------------------------------------------


def hitting_times(g: Graph, target: int) -> dict[int, Fraction]:
    """Expected steps for a walk from each vertex of Conn(target) to first
    hit the target, solved exactly."""
    adj = g.adjacency()
    comp = reachable_from(adj, 1 << target)
    members = [v for v in bits(comp) if v != target]
    if not members:
        return {target: Fraction(0)}
    index = {v: k for k, v in enumerate(members)}
    size = len(members)
    matrix = [[Fraction(0)] * size for _ in range(size)]
    rhs = [Fraction(1)] * size
    for v in members:
        r = index[v]
        d = adj[v].bit_count()
        matrix[r][r] = Fraction(1)
        for w in bits(adj[v]):
            if w != target:
                matrix[r][index[w]] -= Fraction(1, d)
    sol = solve_rational(matrix, rhs)
    out = {target: Fraction(0)}
    out.update({v: sol[index[v]] for v in members})
    return out


def absorption_probabilities(g: Graph, hit: int, avoid: int) -> dict[int, Fraction]:
    """P[walk from v reaches `hit` before `avoid`] for all v, exactly.

    Within a component containing both special vertices this is the standard
    absorbing-walk solve.  A walk in a component containing `hit` but not
    `avoid` reaches `hit` with probability 1 (finite recurrence); a walk in a
    component without `hit` never does.
    """
    adj = g.adjacency()
    comp_hit = reachable_from(adj, 1 << hit)
    probs: dict[int, Fraction] = {}
    if not comp_hit >> avoid & 1:
        for v in range(g.n):
            probs[v] = Fraction(1) if comp_hit >> v & 1 else Fraction(0)
        probs[avoid] = Fraction(0)
        return probs
    members = [v for v in bits(comp_hit) if v not in (hit, avoid)]
    index = {v: k for k, v in enumerate(members)}
    size = len(members)
    sol: list[Fraction] = []
    if size:
        matrix = [[Fraction(0)] * size for _ in range(size)]
        rhs = [Fraction(0)] * size
        for v in members:
            r = index[v]
            d = adj[v].bit_count()
            matrix[r][r] = Fraction(1)
            for w in bits(adj[v]):
                if w == hit:
                    rhs[r] += Fraction(1, d)
                elif w != avoid:
                    matrix[r][index[w]] -= Fraction(1, d)
        sol = solve_rational(matrix, rhs)
    for v in range(g.n):
        if v == hit:
            probs[v] = Fraction(1)
        elif v == avoid:
            probs[v] = Fraction(0)
        elif comp_hit >> v & 1:
            probs[v] = sol[index[v]]
        else:
            probs[v] = Fraction(0)
    return probs


# -- centrality vectors from Fraction loops ---------------------------------------


def oracle_rwcloseness(g: Graph) -> tuple[Fraction, ...]:
    """One rational hitting-time solve per target."""
    out = []
    for i in range(g.n):
        total = sum(hitting_times(g, i).values(), Fraction(0))
        out.append(1 / total if total else Fraction(0))
    return tuple(out)


def oracle_rwbetweenness(g: Graph) -> tuple[Fraction, ...]:
    """One rational absorption solve per ordered pair (i, k) in a component."""
    out = []
    for i in range(g.n):
        others = [v for v in range(g.n) if v != i and same_component(g, i, v)]
        total = Fraction(0)
        for k in others:
            probs = absorption_probabilities(g, hit=i, avoid=k)
            total += sum((probs[j] for j in others if j != k), Fraction(0))
        out.append(total)
    return tuple(out)


def oracle_path_counts(adj):
    """(dist, sigma): shortest-path lengths and counts from every source."""
    n = len(adj)
    dist = []
    sigma = []
    for s in range(n):
        d = [-1] * n
        sig = [0] * n
        d[s] = 0
        sig[s] = 1
        frontier = [s]
        level = 0
        while frontier:
            level += 1
            nxt = []
            for v in frontier:
                for w in bits(adj[v]):
                    if d[w] == -1:
                        d[w] = level
                        nxt.append(w)
                    if d[w] == level:
                        sig[w] += sig[v]
            frontier = nxt
        dist.append(d)
        sigma.append(sig)
    return dist, sigma


def oracle_distance_vector(g: Graph, value) -> tuple[Fraction, ...]:
    adj = g.adjacency()
    return tuple(value([d for d in bfs_distances(adj, i) if d > 0]) for i in range(g.n))


def oracle_closeness(g: Graph) -> tuple[Fraction, ...]:
    return oracle_distance_vector(g, lambda ds: Fraction(1, sum(ds)) if ds else Fraction(0))


def oracle_harmonic(g: Graph) -> tuple[Fraction, ...]:
    return oracle_distance_vector(g, lambda ds: sum((Fraction(1, d) for d in ds), Fraction(0)))


def oracle_decay(g: Graph, beta: Fraction) -> tuple[Fraction, ...]:
    return oracle_distance_vector(g, lambda ds: sum((beta**d for d in ds), Fraction(0)))


def oracle_eccentricity(g: Graph) -> tuple[Fraction, ...]:
    return oracle_distance_vector(g, lambda ds: Fraction(g.n - 1, max(ds)) if ds else Fraction(0))


def oracle_betweenness(g: Graph) -> tuple[Fraction, ...]:
    dist, sigma = oracle_path_counts(g.adjacency())
    bet = [Fraction(0)] * g.n
    for y in range(g.n):
        dy = dist[y]
        sy = sigma[y]
        for z in range(y + 1, g.n):
            dyz = dy[z]
            if dyz <= 1:
                continue
            syz = sy[z]
            for i in range(g.n):
                if i == y or i == z:
                    continue
                if dy[i] > 0 and dist[i][z] > 0 and dy[i] + dist[i][z] == dyz:
                    inner = sy[i] * sigma[i][z]
                    if inner:
                        bet[i] += Fraction(inner, syz)
    return tuple(bet)


def oracle_gametheoretic(g: Graph) -> tuple[Fraction, ...]:
    adj = g.adjacency()
    deg = [a.bit_count() for a in adj]
    out = []
    for i in range(g.n):
        total = Fraction(1, deg[i] + 1)
        for j in bits(adj[i]):
            total += Fraction(1, deg[j] + 1)
        out.append(total)
    return tuple(out)


# -- brute force -------------------------------------------------------------------


def brute_shapley(g: Graph, i: int) -> Fraction:
    """Shapley value of vertex i in the coverage game, averaged over every
    ordering of the players.  Independent of the closed-form path."""
    if g.n > BRUTE_CAP:
        raise SizeGuardError(f"brute shapley capped at n={BRUTE_CAP}")
    adj = g.adjacency()
    closed = [adj[v] | 1 << v for v in range(g.n)]
    total = 0
    for order in itertools.permutations(range(g.n)):
        cover = 0
        for v in order:
            new = cover | closed[v]
            if v == i:
                total += new.bit_count() - cover.bit_count()
                break
            cover = new
    return Fraction(total, math.factorial(g.n))


def _all_simple_paths(adj: tuple[int, ...], src: int, dst: int):
    stack = [(src, 1 << src, (src,))]
    while stack:
        v, seen, path = stack.pop()
        if v == dst:
            yield path
            continue
        for w in bits(adj[v] & ~seen):
            stack.append((w, seen | 1 << w, path + (w,)))


def brute_betweenness(g: Graph, i: int) -> Fraction:
    """Betweenness from full enumeration of simple paths per pair."""
    if g.n > BRUTE_CAP:
        raise SizeGuardError(f"brute betweenness capped at n={BRUTE_CAP}")
    adj = g.adjacency()
    total = Fraction(0)
    for y in range(g.n):
        for z in range(y + 1, g.n):
            if i in (y, z):
                continue
            paths = list(_all_simple_paths(adj, y, z))
            if not paths:
                continue
            shortest = min(len(p) for p in paths)
            on_shortest = [p for p in paths if len(p) == shortest]
            through = sum(1 for p in on_shortest if i in p)
            if through:
                total += Fraction(through, len(on_shortest))
    return total


# -- components and eccentricity ---------------------------------------------------


def same_component(g: Graph, i: int, j: int) -> bool:
    return bool(component_of(g, i) >> j & 1)


def ecc_strict_condition_paths(g: Graph, i: int, j: int) -> bool:
    """The 'j lies on all shortest paths to all farthest vertices' reading of
    when an addition ij strictly raises i's eccentricity centrality.  It
    implies a strict increase but misses some, which the exact
    ``structure.ecc_strict_condition_distance`` catches (the tests hold a
    witness)."""
    adj = g.adjacency()
    di = bfs_distances(adj, i)
    far = max((d for d in di if d > 0), default=0)
    if far == 0:
        return False
    # every shortest i-k path passes through j iff deleting j lengthens
    # (or severs) the i-k connection
    cut = tuple(a & ~(1 << j) if v != j else 0 for v, a in enumerate(adj))
    d_cut = bfs_distances(cut, i)
    for k in range(g.n):
        if di[k] == far and k != j:
            if 0 <= d_cut[k] == di[k]:
                return False
    return True


# -- census ------------------------------------------------------------------------


def seeded_weights(n: int) -> list[list[int]]:
    """A symmetric weight table for linear centrality on n vertices, with
    entries 0..2 drawn from a generator seeded by n."""
    rnd = random.Random(n)
    w = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w[i][j] = w[j][i] = rnd.randrange(3)
    return w


def enumerate_labeled_graphs(n: int):
    """All labeled graphs on n vertices in increasing mask order."""
    if n > LABELED_CAP:
        raise SizeGuardError(f"full enumeration capped at n={LABELED_CAP} (got {n})")
    for mask in range(graph_count(n)):
        yield Graph(n, mask)


def colour_patterns(n: int):
    """Every colouring of n vertices up to renaming the colours, each
    numbered in order of first appearance."""
    if n == 0:
        yield ()
        return
    for head in colour_patterns(n - 1):
        for c in range(max(head, default=-1) + 2):
            yield head + (c,)


def adjacency_by_bits(n: int, mask: int) -> tuple[int, ...]:
    """Per-vertex neighbor bitsets read one pair bit at a time, the loop
    that ``graphs.build_adjacency``'s byte tables replaced."""
    adj = [0] * n
    for k in bits(mask):
        i, j = pair_list(n)[k]
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return tuple(adj)


def expand_classes_per_class(spec, n, colours, stable, ambiguous, fragile, cache):
    """``census._expand_classes`` with one ``orbit_masks`` set per class and
    one uncoloured ``canonical_form`` per stable class, the expansion that
    its sorted orbit unions replaced."""
    stable_masks = [m for c in stable for m in orbit_masks(n, c, colours)]
    ambiguous_masks = [m for c in ambiguous for m in orbit_masks(n, c, colours)]
    smallest = list(stable)
    for c in fragile:
        kept = []
        for m in sorted(orbit_masks(n, c, colours)):
            verdict = is_apsn(spec, Graph(n, m), cache, early_exit=True).verdict
            if verdict == "stable":
                kept.append(m)
            elif verdict == "ambiguous":
                ambiguous_masks.append(m)
        stable_masks += kept
        smallest += kept[:1]
    reps: dict[int, int] = {}
    for m in sorted(smallest):
        reps.setdefault(canonical_form(Graph(n, m)), m)
    return sorted(stable_masks), sorted(ambiguous_masks), sorted(reps.items())


def labeled_passing_masks(n: int, keep) -> list[int]:
    """Masks of the labeled graphs on n vertices that pass ``keep``."""
    return [g.mask for g in enumerate_labeled_graphs(n) if keep(g)]


def labeled_census(spec: GameSpec, n: int) -> dict:
    """The payload of a one-shard census of the game, from ``is_apsn``'s
    full report on every labeled graph with one fresh cache, so a census,
    which reads the early-exit report, is checked against verdicts reached
    without it."""
    cache = EvalCache()
    verdicts = {
        mask: is_apsn(spec, Graph(n, mask), cache).verdict
        for mask in range(graph_count(n))
    }
    stable = [m for m, v in verdicts.items() if v == "stable"]
    ambiguous = [m for m, v in verdicts.items() if v == "ambiguous"]
    reps: dict[int, int] = {}
    for m in stable:
        reps.setdefault(canonical_form(Graph(n, m)), m)
    return {
        "n": n,
        "fingerprint": game_fingerprint(spec),
        "scanned": graph_count(n),
        "stable_count": len(stable),
        "ambiguous_count": len(ambiguous),
        "apsn": [{"canonical": c, "graph6": to_graph6(Graph(n, reps[c]))} for c in sorted(reps)],
        "stable_masks": stable,
        "ambiguous_graph6": [to_graph6(Graph(n, m)) for m in ambiguous],
        "shards": 1,
    }


# -- axiom hunts and caps ----------------------------------------------------------


def labeled_falsify_axiom(measure, axiom: str, n_max: int, tol: float = 1e-9, cache=None):
    """``structure.falsify_axiom`` by a scan of every labeled graph, each
    instance read from its own labeling; the homophily fit (axiom 3) is
    ``structure._fit_homophily`` on the instances in scan order.  A linear
    measure is scanned at its weight table's n alone."""
    cache = cache or EvalCache()
    exact = measure.is_exact
    guard_isolated = KINDS[measure.kind].undefined_on_isolated
    near: list = []
    fit: list = []

    def delta_class(before, after):
        if exact:
            d = after - before
            return (d > 0) - (d < 0), False
        sign, band = sign_with_band(float(after) - float(before), tol)
        return sign, band or sign == 0

    sizes = [len(measure.weights)] if measure.kind == "linear" else range(1, n_max + 1)
    for n in sizes:
        for g in enumerate_labeled_graphs(n):
            base = cache.vector(measure, g)
            comp_of = {v: c for c in component_masks(g) for v in bits(c)}
            degrees = g.degrees()
            for i, j in g.non_edges():
                hvec = cache.vector(measure, g.add_edge(i, j))
                if axiom == "3":
                    for k, other in ((i, j), (j, i)):
                        sign, band = delta_class(base[k], hvec[k])
                        key = (degrees[k], degrees[other])
                        if band:
                            inst = structure.AxiomInstance(g, i, j, k, "band: excluded from fit")
                            fit.append(("near", inst, key))
                        else:
                            tag = "gain" if sign > 0 else "stop"
                            fit.append((tag, structure.AxiomInstance(g, i, j, k), key))
                    continue
                if axiom == "4":
                    for k in range(n):
                        if k in (i, j):
                            continue
                        sign, band = delta_class(base[k], hvec[k])
                        inst = structure.AxiomInstance(g, i, j, k, "unrelated value increased")
                        if band:
                            if sign > 0:
                                near.append(inst)
                        elif sign > 0:
                            return structure.FalsifierResult(inst, near)
                    continue
                same = bool(comp_of[i] >> j & 1)
                for k in (i, j):
                    if guard_isolated and comp_of[k] == 1 << k:
                        continue
                    sign, band = delta_class(base[k], hvec[k])
                    bad, detail = structure._axiom_violation(axiom, same, sign)
                    inst = structure.AxiomInstance(g, i, j, k, detail)
                    if band:
                        if bad or sign == 0:
                            near.append(inst)
                    elif bad:
                        return structure.FalsifierResult(inst, near)
            if axiom == "4":
                for k in range(n):
                    if comp_of[k] == 1 << k and base[k] != 0:
                        inst = structure.AxiomInstance(g, k, k, k, "isolated vertex value nonzero")
                        return structure.FalsifierResult(inst, near)
    if axiom == "3":
        return structure._fit_homophily(fit)
    return structure.FalsifierResult(None, near)


def labeled_compute_caps(n: int, measures, thetas, cache=None) -> tuple[Fraction, ...]:
    """``truncation.compute_caps`` by two scans of every labeled graph, one
    cap per vertex."""
    cache = cache or EvalCache()

    def below(value, theta):
        return theta is None or value < theta

    caps: list = [None] * n
    for g in enumerate_labeled_graphs(n):
        values = [cache.vector(m, g)[i] for i, m in enumerate(measures)]
        for i, j in g.non_edges():
            h = g.add_edge(i, j)
            for k in (i, j):
                if below(values[k], thetas[k]):
                    after = cache.vector(measures[k], h)[k]
                    if caps[k] is None or after > caps[k]:
                        caps[k] = after
    filled = tuple(Fraction(0) if c is None else c for c in caps)
    for g in enumerate_labeled_graphs(n):
        values = [cache.vector(m, g)[i] for i, m in enumerate(measures)]
        for i, j in g.non_edges():
            h = g.add_edge(i, j)
            for k in (i, j):
                after = cache.vector(measures[k], h)[k]
                if after <= filled[k] and not below(values[k], thetas[k]):
                    raise ContractError(
                        "capped-growth precondition failed: on "
                        f"{to_graph6(g)} adding ({i},{j}) keeps vertex {k} "
                        "within its cap although it already met its threshold"
                    )
    return filled


def maximal_member_by_rounds(n: int, measures, caps, cache=None) -> Graph:
    """The graph ``truncation.maximal_member`` grows within ``caps``, by
    passes over the missing pairs in pair order, adding each that keeps
    every value within its cap, until a pass adds none."""
    cache = cache or EvalCache()
    g, changed = Graph.empty(n), True
    while changed:
        changed = False
        for i, j in pair_list(n):
            if g.has_edge(i, j):
                continue
            h = g.add_edge(i, j)
            if all(cache.vector(measures[k], h)[k] <= caps[k] for k in range(n)):
                g, changed = h, True
    return g


# -- flip evaluation -------------------------------------------------------------


def _two_way_rule_willing(agent, k: int, i: int, j: int, g: Graph, adding: bool) -> bool:
    """Whether rule agent k accepts flipping ij in g, read off g itself."""
    degrees = g.degrees()
    if isinstance(agent, MonotoneAgent):
        if adding:
            same_comp = bool(component_of(g, i) >> j & 1)
            return {"1": True, "1p": False, "2": same_comp, "2p": not same_comp}[agent.kind]
        # the monotonicity axioms applied to the graph after the removal: an
        # increasing agent always strictly loses, a decreasing one always
        # gains, a componentwise one does not lose exactly when the removal
        # disconnects the pair, a peripheral one exactly when it does not
        bridge = (i, j) in bridges(g)
        return {"1": False, "1p": True, "2": bridge, "2p": not bridge}[agent.kind]
    other = j if k == i else i
    if adding:
        return degrees[other] <= agent.f(degrees[k])
    return degrees[other] - 1 > agent.f(degrees[k] - 1)


def two_way_eval_flip(spec, g, h, i, j, adding, cache, before):
    """(blocking, ambiguous, fragile, values) of flipping pair ij, which
    turns g into h, as ``game._eval_flip`` returns them, read off whole
    vectors of g and h (``before`` is not read): an endpoint is willing to
    add when its truncated value strictly rises and to remove when it does
    not fall."""
    willing, bands, values = [], [], []
    fragile = False
    for k in (i, j):
        agent = spec.agents[k]
        if not isinstance(agent, NumericAgent):
            willing.append(_two_way_rule_willing(agent, k, i, j, g, adding))
            bands.append(False)
            values.append(None)
            continue
        b, a = cache.vector(agent.measure, g)[k], cache.vector(agent.measure, h)[k]
        if agent.threshold is not None:
            cap = agent.threshold if agent.measure.is_exact else float(agent.threshold)
            b, a = min(b, cap), min(a, cap)
        values.append((b, a))
        if agent.measure.is_exact:
            willing.append(a > b if adding else a >= b)
            bands.append(False)
        else:
            x = float(a) - float(b)
            sign, near = sign_with_band(x, spec.policy.tol)
            willing.append(sign > 0 if adding else sign >= 0)
            bands.append(near)
            fragile = fragile or on_band_edge(x, spec.policy.tol, b, a)
    if adding:
        blocking = willing[0] and willing[1]
        settled = (not willing[0] and not bands[0]) or (not willing[1] and not bands[1])
    else:
        blocking = willing[0] or willing[1]
        settled = (willing[0] and not bands[0]) or (willing[1] and not bands[1])
    return blocking, not settled and (bands[0] or bands[1]), fragile, values


def _checked_flip(spec, g: Graph, i: int, j: int, adding: bool) -> Graph:
    """g with pair ij added (removed), once it is checked to be absent
    (present)."""
    spec.bind(g)
    if g.has_edge(i, j) == adding:
        raise ContractError(f"edge ({i},{j}) {'already' if adding else 'not'} present")
    return g.add_edge(i, j) if adding else g.remove_edge(i, j)


def _deltas(spec, g: Graph, i: int, j: int, adding: bool, cache: EvalCache | None):
    """Both endpoints' truncated-centrality changes, read off whole vectors
    of g and of g with ij flipped."""
    h = _checked_flip(spec, g, i, j, adding)
    cache = cache or EvalCache()
    out = []
    for k in (i, j):
        agent = spec.agents[k]
        if not isinstance(agent, NumericAgent):
            raise ContractError("centrality deltas are defined for numeric agents only")
        m = agent.measure
        b, a = cache.vector(m, g)[k], cache.vector(m, h)[k]
        if agent.threshold is not None:
            cap = agent.threshold if m.is_exact else float(agent.threshold)
            b, a = min(b, cap), min(a, cap)
        out.append(Exact(a - b) if m.is_exact else Approx(float(a) - float(b), spec.policy.tol))
    return tuple(out)


def delta_add(spec, g: Graph, i: int, j: int, cache: EvalCache | None = None):
    """Truncated-centrality changes at both endpoints when edge ij is added."""
    return _deltas(spec, g, i, j, True, cache)


def delta_remove(spec, g: Graph, i: int, j: int, cache: EvalCache | None = None):
    return _deltas(spec, g, i, j, False, cache)


def improving_add(spec, g: Graph, i: int, j: int, cache: EvalCache | None = None) -> bool:
    h = _checked_flip(spec, g, i, j, True)
    return two_way_eval_flip(spec, g, h, i, j, True, cache or EvalCache(), None)[0]


def improving_remove(spec, g: Graph, i: int, j: int, cache: EvalCache | None = None) -> bool:
    h = _checked_flip(spec, g, i, j, False)
    return two_way_eval_flip(spec, g, h, i, j, False, cache or EvalCache(), None)[0]


# -- weight-table file format --------------------------------------------------------


def write_weight_table(weights: tuple[tuple[int, ...], ...]) -> str:
    n = len(weights)
    lines = [str(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if weights[i][j]:
                lines.append(f"{i} {j} {weights[i][j]}")
    return "\n".join(lines) + "\n"
