"""Edge-flip game engine: utilities, improving moves and stability.

The asymptotic (edge cost -> 0+) semantics compile to one sign question per
flip of pair ij: does adding ij to the graph without it (lo) give the graph
with it (hi) an endpoint gains from?  An endpoint is willing when its
truncated centrality strictly rises from lo to hi (under the tolerant policy,
when ``sign_with_band`` reads the rise as positive).

* an addition blocks stability iff both endpoints are willing (a zero gain
  minus a positive cost is a strict loss);
* a removal blocks stability iff at least one endpoint is not willing (the
  saved cost then strictly improves its utility).

An endpoint with a rule (``rule_of``) is rule-typed: it answers from facts
of lo, never from a kernel.  A monotone agent's type and an untruncated
numeric agent's ``Kind.rule`` read whether i and j share a component and
whether the endpoint is isolated (``rule_willing``); a homophilic agent's
threshold, as game-theoretic centrality's ``GT_HOMOPHILY``, reads lo's
degrees.  One function reads every rule: ``_decided_blocks`` gives the
additions no rule-typed end refuses, or the removals one refuses, as a pair
mask read from g's components, bridges and degrees.  A rule-typed end's
refusal decides its pair, and so does a pair of two rule-typed ends;
``_eval_flip`` reads only the numeric ends of the rest.
A numeric endpoint's values on g and on g with ij flipped are read in one
place, ``_Before.values``: for the sign ``_eval_flip`` reads, and for every
delta ``_with_deltas`` builds.  Dynamics records the values of each flip it
takes, and its ``Trajectory`` builds their deltas when its steps are read.
When every agent is rule-typed, ``_decided_flip`` draws a blocking flip
from the two masks with no scan.  A census reads a class as stable when
there is no such flip, and reads its removals only when no addition
blocks.  An early-exit report, the census's otherwise, lists its flips with
no deltas.  Dynamics runs one loop on ints, g's pair mask and adjacency
rows, whose move is ``_decided_flip`` or, in a game with an evaluated pair,
``_scanned_flip``, the same question put to the scan.
"""
from __future__ import annotations

import functools
import itertools
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional, Union

from .centrality import KINDS, Measure, centrality_vector
from .errors import ContractError, ParameterError, SpecValidationError
from .graphs import Graph, bridge_mask, pair_index, pair_list, pairs_within, reachable_from
from .values import (
    DEFAULT_TOLERANCE,
    Approx,
    Exact,
    Value,
    on_band_edge,
    sign_with_band,
    value_to_json,
)

MONOTONE_KINDS = ("1", "1p", "2", "2p")


@dataclass(frozen=True)
class HomophilyFunction:
    """Strictly increasing integer threshold on the partner's degree.

    Either the closed form matching game-theoretic centrality
    (f(d) = (d+1)(d+2) - 3, so f(0) = -1) or an explicit value table
    indexed by degree.
    """

    table: tuple[int, ...] | None = None  # None = game-theoretic closed form

    def __post_init__(self):
        if self.table is not None:
            if len(self.table) < 1:
                raise ParameterError("homophily table must not be empty")
            for a, b in zip(self.table, self.table[1:]):
                if b <= a:
                    raise ParameterError("homophily table must be strictly increasing")

    def __call__(self, d: int) -> int:
        if self.table is None:
            return (d + 1) * (d + 2) - 3
        if d >= len(self.table):
            raise ParameterError(
                f"homophily table has no value for degree {d} (length {len(self.table)})"
            )
        return self.table[d]


GT_HOMOPHILY = HomophilyFunction()


@dataclass(frozen=True)
class NumericAgent:
    measure: Measure
    threshold: Fraction | None = None  # None = untruncated

    def __post_init__(self):
        if self.threshold is not None and self.threshold < 0:
            raise ParameterError("truncation threshold must be nonnegative")


@dataclass(frozen=True)
class MonotoneAgent:
    kind: str  # '1', '1p', '2', '2p'

    def __post_init__(self):
        if self.kind not in MONOTONE_KINDS:
            raise ParameterError(f"monotone agent kind must be one of {MONOTONE_KINDS}")


@dataclass(frozen=True)
class HomophilicAgent:
    f: HomophilyFunction = GT_HOMOPHILY


Agent = Union[NumericAgent, MonotoneAgent, HomophilicAgent]


@dataclass(frozen=True)
class ExactPolicy:
    pass


@dataclass(frozen=True)
class TolerantPolicy:
    tol: float = DEFAULT_TOLERANCE

    def __post_init__(self):
        # a negative tolerance would read a float zero as a confident sign
        if not self.tol >= 0:
            raise ParameterError(f"tolerance must be a number >= 0 (got {self.tol})")


Policy = Union[ExactPolicy, TolerantPolicy]


@dataclass(frozen=True)
class GameSpec:
    agents: tuple[Agent, ...]
    policy: Policy = ExactPolicy()

    def __post_init__(self):
        exact = {
            agent.measure.is_exact
            for agent in self.agents
            if isinstance(agent, NumericAgent)
        }
        if exact == {True, False}:
            raise SpecValidationError(
                "mixing exact and approximate measures in one game is rejected"
            )
        if exact == {False} and isinstance(self.policy, ExactPolicy):
            raise SpecValidationError(
                "approximate (spectral) measures require the tolerant policy"
            )

    @property
    def n(self) -> int:
        return len(self.agents)

    @functools.cached_property
    def rules(self) -> tuple[int, tuple[int, ...], tuple]:
        """(typed, refuse, homophilic): the vertex mask of the agents with a
        rule (``rule_of``); per case 2 * same + isolated of
        ``rule_willing``, the mask of those whose rule reads components and
        refuses; and (f, mask of its agents) per homophily threshold f."""
        rules = [rule_of(agent) for agent in self.agents]
        return sum(1 << k for k, r in enumerate(rules) if r), tuple(
            sum(1 << k for k, r in enumerate(rules)
                if isinstance(r, str) and not rule_willing(r, same, iso))
            for same in (False, True)
            for iso in (False, True)
        ), tuple(
            (f, sum(1 << k for k, r in enumerate(rules) if r == f))
            for f in dict.fromkeys(r for r in rules if isinstance(r, HomophilyFunction))
        )

    def bind(self, g: Graph) -> None:
        if g.n != self.n:
            raise SpecValidationError(
                f"game has {self.n} agents but graph has {g.n} vertices"
            )


def default_policy(agents) -> Policy:
    """Tolerant at ``DEFAULT_TOLERANCE`` when a numeric agent's measure is
    approximate, exact otherwise."""
    if any(isinstance(a, NumericAgent) and not a.measure.is_exact for a in agents):
        return TolerantPolicy()
    return ExactPolicy()


def uniform_game(n: int, agent: Agent, policy: Policy = ExactPolicy()) -> GameSpec:
    return GameSpec(tuple([agent] * n), policy)


# ---------------------------------------------------------------------------
# evaluation cache


#: default bound of each EvalCache memo, more than the 32,768 graphs of a
#: census at n = 6; full of n = 7 betweenness vectors it holds about 27 MB
#: (420 B a vector with its key)
DEFAULT_MAX_VECTORS = 1 << 16


class _FifoMemo(dict):
    """A dict that holds at most ``bound`` entries and drops the oldest first.

    A CPython dict keeps deleted slots at the front of its entry table until
    it resizes, so ``next(iter(d))`` rescans all of them on every eviction.
    The oldest keys are instead taken a batch of bound/16 at a time from one
    pass, which makes an insert amortized O(1) at no memory per entry.
    """

    __slots__ = ("bound", "_oldest")

    def __init__(self, bound: int):
        super().__init__()
        self.bound = bound
        self._oldest: list = []  # next keys to drop, the oldest last

    def put(self, key, value) -> None:
        if len(self) >= self.bound:
            if not self._oldest:
                self._oldest = list(itertools.islice(self, max(1, self.bound // 16)))
                self._oldest.reverse()
            del self[self._oldest.pop()]
        self[key] = value


class EvalCache:
    """Memo for per-graph centrality vectors.

    Exhaustive scans revisit the same adjacency masks through edge flips, so
    one shared cache turns a census of a global kind (betweenness, the
    random-walk and spectral kinds) into one vector computation per graph.
    The flip engine evaluates local kinds at the two endpoints instead and
    stores none of their vectors; truncation and structure analyses still
    read any kind's vector here.  ``max_vectors`` bounds the memo with
    oldest-first eviction, so memory stays bounded over spaces too large to
    hold (two million graphs at n = 7) and over long dynamics runs that
    share a cache.

    A vector's key is one int packing (slot, n, mask), where the slot numbers
    the distinct measures this cache has seen.  Hashing the frozen
    ``Measure`` on every lookup would cost more than the lookup itself.
    """

    def __init__(self, max_vectors: int = DEFAULT_MAX_VECTORS):
        if max_vectors is None or max_vectors < 1:
            raise ParameterError("max_vectors must be at least 1")
        self.vectors = _FifoMemo(max_vectors)
        self._slots: dict[Measure, int] = {}
        # id(m) -> (slot, m); holding m keeps its id from being reused
        self._by_id: dict[int, tuple[int, Measure]] = {}

    def _slot(self, m: Measure) -> int:
        slot = self._slots.setdefault(m, len(self._slots))
        if len(self._by_id) >= _MAX_MEASURE_OBJECTS:
            self._by_id.clear()  # callers that build a Measure per call
        self._by_id[id(m)] = (slot, m)
        return slot

    def vector(self, m: Measure, g: Graph):
        known = self._by_id.get(id(m))
        slot = known[0] if known is not None else self._slot(m)
        n = g.n
        key = (slot << (n * (n - 1) >> 1) | g.mask) << 4 | n - 1
        out = self.vectors.get(key)
        if out is None:
            out = centrality_vector(m, g)
            self.vectors.put(key, out)
        return out


#: measure objects an EvalCache remembers by identity before it starts over
_MAX_MEASURE_OBJECTS = 64


# ---------------------------------------------------------------------------
# deltas and sign classification


def _truncate(raw, threshold: Fraction):
    if isinstance(raw, Fraction):
        return min(raw, threshold)
    return min(float(raw), float(threshold))


# ---------------------------------------------------------------------------
# willingness per agent kind


def rule_willing(rule: str, same: bool, isolated: bool) -> bool:
    """Whether endpoint k of rule ``rule`` gains from adding ko to lo, the graph
    without it: ``same`` if o is in k's component of lo, ``isolated`` if k is."""
    if rule == "2 or isolated":
        return same or isolated
    return {"1": True, "1p": False, "2": same, "2p": not same}[rule]


def rule_of(agent: Agent) -> str | HomophilyFunction | None:
    """A monotone agent's type, a homophilic agent's threshold function, an
    untruncated numeric agent's ``Kind.rule`` ("homophily" being
    ``GT_HOMOPHILY``), or None: the rule that answers whether the agent
    gains from an added edge."""
    if isinstance(agent, MonotoneAgent):
        return agent.kind
    if isinstance(agent, HomophilicAgent):
        return agent.f
    if agent.threshold is None:
        rule = KINDS[agent.measure.kind].rule
        return GT_HOMOPHILY if rule == "homophily" else rule
    return None


def _same_pairs(n: int, adj) -> int:
    """Pair mask of the pairs whose ends share a component of the graph
    with adjacency ``adj``."""
    rest, out = (1 << n) - 1, 0
    while rest:
        comp = reachable_from(adj, rest & -rest)
        out |= pairs_within(n, comp)
        rest ^= comp
    return out


def _isolated(adj) -> tuple[int, int]:
    """The vertices of the graph with adjacency ``adj`` that have no
    neighbour and those that have at most one, as two vertex masks read in
    one pass over its rows: a vertex lies in as many rows as it has
    neighbours."""
    seen = twice = 0
    for a in adj:
        twice |= seen & a
        seen |= a
    everyone = (1 << len(adj)) - 1
    return everyone ^ seen, everyone ^ twice


def _homophily_refusals(homophilic: tuple, n: int, adj, adding: bool) -> int:
    """Pair mask of the pairs ko of g (adjacency ``adj``) that an agent k
    of threshold f, by ``homophilic`` of ``GameSpec.rules``, refuses to add
    to lo, the graph without ko: d_lo(o) > f(d_lo(k)), with lo = g for an
    addition and both degrees one lower for a removal (pairs of the other
    direction are the caller's to drop).  The agents of one f and degree
    refuse one suffix of g's degree buckets, and f is read only at a degree
    lo can have (0 to n - 2) of an agent with a pair in this direction."""
    exact = [0] * (n + 1)  # exact[d]: the vertices of degree d
    for v, a in enumerate(adj):
        exact[a.bit_count()] |= 1 << v
    least = list(itertools.accumulate(reversed(exact), operator.or_))[::-1]  # degree d or more
    drop = 0 if adding else 1
    out = 0
    for f, agents in homophilic:
        for d in range(drop, n - 1 + drop):
            ks = agents & exact[d]
            t = f(d - drop) + drop + 1 if ks else n  # partners of degree t or more refuse
            if t < n:  # pairs with one end in ks and the other in partners
                partners = least[max(t, 0)]
                out |= (pairs_within(n, ks | partners) ^ pairs_within(n, ks & ~partners)
                        ^ pairs_within(n, partners & ~ks))
    return out


def _decided_blocks(rules: tuple, n: int, mask: int, adj, adding: bool, iso: int) -> int:
    """Pair mask of the additions (``adding``) of g (pair mask ``mask``,
    adjacency ``adj``) that no rule-typed end refuses, or of its removals
    that one refuses, by ``rules``, the ``GameSpec.rules`` masks: g's
    blocking flips when every agent is rule-typed.

    An end refuses the addition to lo, the graph without the pair, by its
    homophily threshold (``_homophily_refusals``) or by its case of
    ``rule_willing``: whether it is isolated in lo (``iso``, those of
    ``_isolated(adj)`` with no neighbour in g for an addition and with at
    most one for a removal) and whether the pair shares a component of lo,
    read only where a refusal turns on it, off g's components (lo = g) or
    bridges (lo = g - ij).
    """
    _, refuse, homophilic = rules
    everyone = (1 << n) - 1
    among = pairs_within(n, everyone) & ~mask if adding else mask
    if not among:
        return 0
    across = among & ~pairs_within(n, everyone ^ (refuse[0] & ~iso | refuse[1] & iso))
    inside = among & ~pairs_within(n, everyone ^ (refuse[2] & ~iso | refuse[3] & iso))
    if inside != across:
        same = _same_pairs(n, adj) if adding else ~bridge_mask(adj, inside ^ across)
        inside = inside & same | across & ~same
    if homophilic:
        inside |= among & _homophily_refusals(homophilic, n, adj, adding)
    return among & ~inside if adding else inside


class _Before:
    """What the flips of one scan of g share, each made on first use: g's
    adjacency ``adj`` (or a caller's), and per measure (by id) its kernel
    ``at`` with its values on g, a list that a local kind fills vertex by
    vertex or, for a global kind (``at`` None), its vector.  A scan that
    does not read ``adj``, as a global kind's, does not build it.
    ``values`` is the one reader of a numeric endpoint."""

    def __init__(self, g: Graph, adj=None):
        self.g = g
        self.found: dict = {}
        # the last pair ``values`` read, and what it made of g with it flipped
        self.pair = self.adj_h = self.h = self.on_h = None
        if adj is not None:
            self.adj = adj

    @functools.cached_property
    def adj(self):
        return self.g.adjacency()

    def toggled(self, i: int, j: int) -> list[int]:
        """g's adjacency with pair ij flipped."""
        adj = list(self.adj)
        adj[i] ^= 1 << j
        adj[j] ^= 1 << i
        return adj

    def values(self, agent: NumericAgent, k: int, i: int, j: int, cache: EvalCache) -> tuple:
        """(before, after): numeric ``agent``'s value at endpoint k of pair
        ij on g and on g with ij flipped, truncated at its threshold.

        A local kind reads ``at`` on g's adjacency and on a copy with ij
        toggled; a global kind reads cached vectors of g and of g with ij
        flipped.  Values on g are kept for the scan.  The toggled adjacency,
        the flipped graph and each measure's vector on it are made at most
        once per pair, and only the last pair's are kept.
        """
        m = agent.measure
        found = self.found.get(id(m))
        if found is None:
            at = KINDS[m.kind].at
            on_g = cache.vector(m, self.g) if at is None else [None] * self.g.n
            found = self.found[id(m)] = at, on_g
        at, on_g = found
        if self.pair != (i, j):  # drop what the last pair made
            self.pair, self.adj_h, self.h, self.on_h = (i, j), None, None, {}
        b = on_g[k]
        if at is None:
            on_h = self.on_h.get(id(m))
            if on_h is None:
                if self.h is None:
                    self.h = self.g.toggled(pair_index(self.g.n, i, j))
                on_h = self.on_h[id(m)] = cache.vector(m, self.h)
            a = on_h[k]
        else:
            if b is None:
                b = on_g[k] = at(self.adj, k, m)
            if self.adj_h is None:
                self.adj_h = self.toggled(i, j)
            a = at(self.adj_h, k, m)
        if agent.threshold is not None:
            return _truncate(b, agent.threshold), _truncate(a, agent.threshold)
        return b, a


def _eval_flip(
    spec: GameSpec, i: int, j: int, adding: bool, cache: EvalCache, before: _Before
) -> tuple[bool, bool, bool, list]:
    """(blocking, ambiguous, fragile, values) of flipping pair ij of g, a
    pair with a numeric end that ``_decided_blocks`` left open.

    Each end is asked whether it gains from adding ij to lo, the one of g
    and g with ij flipped that lacks the edge; an addition blocks when both
    do and a removal when either does not.  A rule-typed end did not refuse,
    so it is willing and gets None in ``values``.  A numeric one reads the
    sign of its truncated (before, after) from ``before.values``.
    ``ambiguous`` means the verdict relies on a near-band float delta, and
    ``fragile`` that a float delta sits on an edge of the band
    (``on_band_edge``), so another labeling of g could read it differently.
    """
    willing, bands, values, fragile = [True, True], [False, False], [None, None], False
    for e, k in enumerate((i, j)):
        if spec.rules[0] >> k & 1:
            continue
        agent = spec.agents[k]
        b, a = values[e] = before.values(agent, k, i, j, cache)
        lo, hi = (b, a) if adding else (a, b)
        if agent.measure.is_exact:
            willing[e] = hi > lo
        else:
            x = float(hi) - float(lo)
            sign, bands[e] = sign_with_band(x, spec.policy.tol)
            willing[e] = sign > 0
            fragile = fragile or on_band_edge(x, spec.policy.tol, b, a)
    blocking = (willing[0] and willing[1]) == adding
    # a confident refusal by either endpoint settles the verdict
    settled = (not willing[0] and not bands[0]) or (not willing[1] and not bands[1])
    return blocking, not settled and (bands[0] or bands[1]), fragile, values


# ---------------------------------------------------------------------------
# stability


@dataclass(frozen=True, slots=True)
class Flip:
    i: int
    j: int
    kind: str  # 'add' | 'remove'
    # None for an agent without a measure, and for every flip of an
    # early-exit report, which asks only for the verdict
    delta_i: Optional[Value] = None
    delta_j: Optional[Value] = None

    def to_json(self) -> dict:
        return {
            "edge": [self.i, self.j],
            "kind": self.kind,
            "delta_i": value_to_json(self.delta_i) if self.delta_i is not None else None,
            "delta_j": value_to_json(self.delta_j) if self.delta_j is not None else None,
        }


@dataclass
class StabilityReport:
    stable: bool
    blocking_flips: list[Flip] = field(default_factory=list)
    ambiguous_flips: list[Flip] = field(default_factory=list)
    confident_block: bool = False
    #: a flip the scan read has a float delta on a band edge, so another
    #: labeling of the graph may get another verdict; not part of to_json()
    fragile: bool = False

    @property
    def verdict(self) -> str:
        """'stable' | 'unstable' | 'ambiguous' (no confident block, bands seen)."""
        if self.confident_block:
            return "unstable"
        if self.ambiguous_flips:
            return "ambiguous"
        return "stable" if self.stable else "unstable"

    def to_json(self) -> dict:
        return {
            "stable": self.stable,
            "verdict": self.verdict,
            "blocking_flips": [f.to_json() for f in self.blocking_flips],
            "ambiguous_flips": [f.to_json() for f in self.ambiguous_flips],
        }


def candidate_flips(g: Graph) -> Iterator[tuple[str, int, int]]:
    """Fixed deterministic flip order: additions by pair index, then removals.

    The order ``_scan`` walks, and the flips the finite-cost bridge reads;
    no scan calls it.  perfbench's tracer patches it by name.
    """
    pairs = pair_list(g.n)
    mask = g.mask
    absent = ~mask & (1 << len(pairs)) - 1
    while absent:
        low = absent & -absent
        i, j = pairs[low.bit_length() - 1]
        yield "add", i, j
        absent ^= low
    while mask:
        low = mask & -mask
        i, j = pairs[low.bit_length() - 1]
        yield "remove", i, j
        mask ^= low


def _scan(spec: GameSpec, g: Graph, cache: EvalCache, before: _Before) -> Iterator[tuple]:
    """The flips of g, in ``candidate_flips`` order, that block, are
    ambiguous or are fragile, as (kind, i, j, blocking, ambiguous, fragile,
    values).  A pair with a rule-typed end goes through ``_decided_blocks``
    (its removals once the scan reaches them) and is decided when that end
    refuses, an addition skipped and a removal blocking with ``values``
    None, or when both ends are rule-typed.  Every other flip is evaluated.
    """
    n, pairs = g.n, pair_list(g.n)
    typed = spec.rules[0]
    for kind in ("add", "remove"):
        adding = kind == "add"
        visit = g.mask ^ (1 << len(pairs)) - 1 if adding else g.mask
        decided = 0
        if typed:  # a game with no rule-typed agent does no mask work
            iso = _isolated(before.adj)[not adding]
            blocks = _decided_blocks(spec.rules, n, g.mask, before.adj, adding, iso)
            both = pairs_within(n, typed)
            visit, decided = (blocks, both) if adding else (visit & ~both | blocks, blocks)
        while visit:
            low = visit & -visit
            visit ^= low
            i, j = pairs[low.bit_length() - 1]
            if low & decided:
                yield kind, i, j, True, False, False, None
                continue
            blocking, ambiguous, fragile, values = _eval_flip(spec, i, j, adding, cache, before)
            if blocking or ambiguous or fragile:
                yield kind, i, j, blocking, ambiguous, fragile, values


def _with_deltas(
    spec: GameSpec, kind: str, i: int, j: int, values, before: _Before, cache: EvalCache
) -> Flip:
    """The ``Flip`` of pair ij of g with both endpoints' deltas, from the
    ``values`` of its ``_scan`` entry (None for a flip decided or not
    scanned).  A numeric endpoint without values reads them from
    ``before.values``; an agent without a measure has no delta."""
    deltas = []
    for k, v in zip((i, j), values or (None, None)):
        agent = spec.agents[k]
        if not isinstance(agent, NumericAgent):
            deltas.append(None)
            continue
        b, a = v or before.values(agent, k, i, j, cache)
        if agent.measure.is_exact:
            deltas.append(Exact(a - b))
        else:  # GameSpec gives approximate measures a tolerant policy
            deltas.append(Approx(float(a) - float(b), spec.policy.tol))
    return Flip(i, j, kind, deltas[0], deltas[1])


def is_apsn(
    spec: GameSpec,
    g: Graph,
    cache: EvalCache | None = None,
    early_exit: bool = False,
) -> StabilityReport:
    """Stability verdict with the full list of blocking flips.

    With ``early_exit`` the scan aborts at the first confidently blocking
    flip (census mode).  The flips seen until then are still reported, but
    as ``Flip(i, j, kind)`` with no deltas: the verdict rests on one sign
    question per flip, so building a delta would evaluate kernels that no
    census reads.  ``stable``, ``confident_block`` and ``verdict`` are the
    full report's; ``fragile`` covers the flips scanned before the exit.
    """
    spec.bind(g)
    cache = cache or EvalCache()
    report = StabilityReport(stable=True)
    before = _Before(g)
    for kind, i, j, blocking, ambiguous, fragile, values in _scan(spec, g, cache, before):
        if fragile:
            report.fragile = True
        if not (blocking or ambiguous):
            continue
        if early_exit:
            flip = Flip(i, j, kind)
        else:
            flip = _with_deltas(spec, kind, i, j, values, before, cache)
        if ambiguous:
            report.ambiguous_flips.append(flip)
        if blocking:
            report.blocking_flips.append(flip)
            report.stable = False
            if not ambiguous:
                report.confident_block = True
                if early_exit:
                    return report
    return report


# ---------------------------------------------------------------------------
# finite-cost bridge


def _exact_flips(spec: GameSpec, g: Graph, cache: EvalCache | None) -> Iterator[Flip]:
    """Every flip of g with both deltas, in ``candidate_flips`` order."""
    spec.bind(g)
    if not all(isinstance(a, NumericAgent) and a.measure.is_exact for a in spec.agents):
        raise ContractError("finite-cost checks are defined for exact numeric agents only")
    before, cache = _Before(g), cache or EvalCache()
    return (
        _with_deltas(spec, kind, i, j, None, before, cache) for kind, i, j in candidate_flips(g)
    )


def finite_cost_check(
    spec: GameSpec, g: Graph, cost: Fraction, cache: EvalCache | None = None
) -> bool:
    """Pairwise stability at one explicit positive edge cost."""
    flips = _exact_flips(spec, g, cache)
    if cost <= 0:
        raise ParameterError("edge cost must be positive")
    for flip in flips:
        di, dj = flip.delta_i.value, flip.delta_j.value
        if flip.kind == "add":
            ui, uj = di - cost, dj - cost
            if ui >= 0 and uj >= 0 and (ui > 0 or uj > 0):
                return False
        elif di + cost > 0 or dj + cost > 0:
            return False
    return True


def epsilon_witness(spec: GameSpec, g: Graph, cache: EvalCache | None = None) -> Fraction:
    """Half the minimum positive |delta| over all flips; 1 when all deltas
    vanish (any positive cost then behaves identically)."""
    deltas = (d.value for f in _exact_flips(spec, g, cache) for d in (f.delta_i, f.delta_j))
    best = min((abs(x) for x in deltas if x), default=None)
    return Fraction(1) if best is None else best / 2


# ---------------------------------------------------------------------------
# best-response dynamics


@dataclass
class Trajectory:
    """A dynamics run: from ``start``, the ``moves`` it made, as (kind, i,
    j, values) with ``values`` the ``_scan`` entry's (None for a decided
    flip), up to ``final``.

    ``steps``, the flips taken with their deltas, is built on first read by
    replaying the moves through ``_with_deltas`` on a fresh ``EvalCache``:
    an evaluated endpoint reuses its stored values, and a kept trajectory
    keeps no caller's cache alive.
    """

    spec: GameSpec
    start: Graph
    moves: list[tuple]
    final: Graph
    converged: bool

    @functools.cached_property
    def steps(self) -> list[Flip]:
        cache = EvalCache()
        g, adj, steps = self.start, None, []
        for kind, i, j, values in self.moves:
            before = _Before(g, adj)
            steps.append(_with_deltas(self.spec, kind, i, j, values, before, cache))
            g = g.toggled(pair_index(g.n, i, j))
            adj = before.toggled(i, j)
        return steps

    def to_json(self) -> dict:
        from .graphs import to_graph6

        return {
            "steps": [f.to_json() for f in self.steps],
            "final": to_graph6(self.final),
            "converged": self.converged,
        }


def _decided_flip(rules: tuple, n: int, mask: int, adj, rng) -> tuple | None:
    """A blocking flip of g (pair mask ``mask``, adjacency ``adj``), as
    (bit, kind, i, j, None) with ``bit`` its pair bit and no values, when
    every agent is rule-typed by ``rules``, the ``GameSpec.rules`` masks:
    with ``rng``, ``rng.choice`` among g's blocking flips in
    ``candidate_flips`` order, else the first; None when g is stable.

    The flips stay the two pair masks of ``_decided_blocks``, additions
    before removals.  With ``rng`` one pass of ``_isolated`` gives the
    isolated vertices of both directions, and ``rng.randrange`` of the
    flips' count draws the index ``rng.choice`` over their list would (both
    take ``rng._randbelow`` of the length).  Without it, as in a census,
    the additions read only the vertices with no neighbour, from one
    ``functools.reduce`` of the rows that costs less than that pass, and
    the removals are read only when no addition blocks."""
    if rng is None:
        alone = (1 << n) - 1 & ~functools.reduce(operator.or_, adj)
        kind, found = "add", _decided_blocks(rules, n, mask, adj, True, alone)
        if not found:
            kind, found = "remove", _decided_blocks(rules, n, mask, adj, False, _isolated(adj)[1])
            if not found:
                return None
    else:
        alone, leaves = _isolated(adj)
        adds = _decided_blocks(rules, n, mask, adj, True, alone)
        removes = _decided_blocks(rules, n, mask, adj, False, leaves)
        added = adds.bit_count()
        total = added + removes.bit_count()
        if not total:
            return None
        k = rng.randrange(total)
        kind, found = ("add", adds) if k < added else ("remove", removes)
        for _ in range(k if k < added else k - added):
            found &= found - 1
    bit = found & -found
    i, j = pair_list(n)[bit.bit_length() - 1]
    return bit, kind, i, j, None


def _scanned_flip(spec: GameSpec, cache: EvalCache, n: int, mask: int, adj, rng) -> tuple | None:
    """``_decided_flip`` of a game with an evaluated pair, read off the
    ``_scan`` of g, ``Graph(n, mask)``, with the flip's ``_scan`` values
    last: with ``rng``, ``rng.randrange`` of the blocking flips' count
    picks one (the draw ``rng.choice`` makes), else the scan stops at the
    first."""
    g = Graph(n, mask)
    blocking = (flip for flip in _scan(spec, g, cache, _Before(g, adj)) if flip[3])
    found = list(itertools.islice(blocking, 1) if rng is None else blocking)
    if not found:
        return None
    kind, i, j, *_, values = found[0 if rng is None else rng.randrange(len(found))]
    return 1 << pair_index(n, i, j), kind, i, j, values


def best_response_dynamics(
    spec: GameSpec,
    g0: Graph,
    max_steps: int,
    seed: int,
    rule: str = "random",
    cache: EvalCache | None = None,
) -> Trajectory:
    """Apply improving flips until none exists or the step budget runs out.

    ``rule='first'`` always takes the first blocking flip in the fixed scan
    order; ``rule='random'`` draws uniformly among all blocking flips with a
    deterministic seeded generator.  The run is one loop on ints: a step
    asks ``move`` for a flip of g's pair mask and adjacency rows, then
    toggles the flip's pair bit in the one and its two rows in the other;
    only the endpoint is built as a ``Graph``.  ``move`` is picked once:
    ``_decided_flip`` when every pair is decided (every agent rule-typed,
    ``GameSpec.rules``), which draws from the pair masks with no scan and
    no cache, else ``_scanned_flip``, the scan of ``is_apsn``.  Each flip
    taken is recorded with its endpoints' values (None for a decided one);
    the trajectory builds the deltas only when its ``steps`` are read.
    """
    if rule not in ("random", "first"):
        raise ParameterError("dynamics rule must be 'random' or 'first'")
    if max_steps < 0:
        raise ParameterError(f"step budget must be >= 0 (got {max_steps})")
    spec.bind(g0)
    rng = random.Random(seed) if rule == "random" else None
    n = g0.n
    if spec.rules[0] == (1 << n) - 1:
        move = functools.partial(_decided_flip, spec.rules, n)
    else:
        move = functools.partial(_scanned_flip, spec, cache or EvalCache(), n)
    mask, adj = g0.mask, list(g0.adjacency())  # toggled in place, step by step
    moves: list[tuple] = []
    for _ in range(max_steps):
        flip = move(mask, adj, rng)
        if flip is None:
            return Trajectory(spec, g0, moves, Graph(n, mask), True)
        bit, kind, i, j, values = flip
        moves.append((kind, i, j, values))
        mask ^= bit
        adj[i] ^= 1 << j
        adj[j] ^= 1 << i
    return Trajectory(spec, g0, moves, Graph(n, mask), move(mask, adj, None) is None)
