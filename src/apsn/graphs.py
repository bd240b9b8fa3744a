"""Undirected simple graphs on 0..n-1 with bitset adjacency.

A graph is (n, mask) where bit k of ``mask`` is the k-th unordered pair in
row-major order: (0,1), (0,2), ..., (0,n-1), (1,2), ...  Graphs are frozen
and safe to share across parallel workers; every operation returns a new
value.  Vertex count is capped at 16; orbits and canonical forms, which
read one table of relabelings, at 8; class lists, and so every exhaustive
walk over the graphs on n vertices, at 7.  The caps raise
:class:`SizeGuardError` rather than crawling.

Adjacency rows are read from one table per byte of the pair mask
(``build_adjacency``): ceil(C(n, 2) / 8) tables of at most 256 rows, two
at n = 6, four at n = 8 and 15 at n = 16, memoized per n and built in
0.1-0.4 ms at n <= 8 and about 2.5 ms at n = 16 (some 800 KB).
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from operator import or_
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    DuplicateEdgeError,
    MalformedLineError,
    ParameterError,
    SelfLoopError,
    SizeGuardError,
    VertexRangeError,
)

MAX_VERTICES = 16
MAX_ORBITS = 8
MAX_CLASSES = 7


# ---------------------------------------------------------------------------
# pair indexing

_PAIR_TABLES: dict[int, tuple[dict[tuple[int, int], int], list[tuple[int, int]]]] = {}


def _pair_table(n: int):
    cached = _PAIR_TABLES.get(n)
    if cached is None:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        index = {p: k for k, p in enumerate(pairs)}
        cached = (index, pairs)
        _PAIR_TABLES[n] = cached
    return cached


def pair_index(n: int, i: int, j: int) -> int:
    if i > j:
        i, j = j, i
    return _pair_table(n)[0][(i, j)]


def pair_list(n: int) -> list[tuple[int, int]]:
    return _pair_table(n)[1]


@functools.cache
def pairs_within(n: int, vertices: int) -> int:
    """Mask of the pairs inside vertex mask ``vertices`` (2^n keys per n)."""
    return sum(1 << p for p, (i, j) in enumerate(pair_list(n)) if vertices >> i & vertices >> j & 1)


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


@functools.cache
def _byte_rows(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """One table per byte of an n-vertex pair mask: row v of table b is the
    adjacency of the graph whose pairs are the set bits of v placed at pair
    8b.  Built by doubling: the rows of v are those of v without its lowest
    bit, plus that bit's pair.  One table at n = 1, where there is no
    pair; the last table covers only the pairs left."""
    pairs = pair_list(n)
    tables = []
    for first in range(0, max(len(pairs), 1), 8):
        rows = [(0,) * n]
        for v in range(1, 1 << min(8, len(pairs) - first)):
            low = v & -v
            i, j = pairs[first + low.bit_length() - 1]
            row = list(rows[v ^ low])
            row[i] |= 1 << j
            row[j] |= 1 << i
            rows.append(tuple(row))
        tables.append(tuple(rows))
    return tuple(tables)


def build_adjacency(n: int, mask: int) -> tuple[int, ...]:
    """Per-vertex neighbor bitsets for a pair-mask graph: the rows of each
    byte of the mask, read from ``_byte_rows`` and ORed per vertex.  The
    tables hold at most ceil(C(n, 2) / 8) x 256 rows (15 tables at
    n = 16) and are built on the first call per n, in 0.1-0.4 ms at
    n <= 8 and about 2.5 ms at n = 16 on one core of a 2-vCPU Intel Xeon
    VM.  A call then takes about 0.6 us at n = 6 and 1.1 us at n = 7."""
    tables = _byte_rows(n)
    adj = tables[0][mask & 255]
    for table in tables[1:]:
        mask >>= 8
        adj = tuple(map(or_, adj, table[mask & 255]))
    return adj


def bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# Graph value


@dataclass(frozen=True)
class Graph:
    n: int
    mask: int = 0

    def __post_init__(self):
        if not 1 <= self.n <= MAX_VERTICES:
            raise SizeGuardError(f"vertex count {self.n} outside 1..{MAX_VERTICES}")
        if self.mask >> pair_count(self.n):
            raise ParameterError("adjacency mask has bits beyond the last pair")

    # -- construction -------------------------------------------------------

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        mask = 0
        for i, j in edges:
            if i == j:
                raise SelfLoopError(f"self-loop at vertex {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise VertexRangeError(f"edge ({i},{j}) outside 0..{n - 1}")
            bit = 1 << pair_index(n, i, j)
            if mask & bit:
                raise DuplicateEdgeError(f"duplicate edge ({i},{j})")
            mask |= bit
        return Graph(n, mask)

    @staticmethod
    def empty(n: int) -> "Graph":
        return Graph(n, 0)

    @staticmethod
    def complete(n: int) -> "Graph":
        return Graph(n, (1 << pair_count(n)) - 1)

    @staticmethod
    def path(n: int) -> "Graph":
        return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])

    @staticmethod
    def cycle(n: int) -> "Graph":
        if n < 3:
            raise ParameterError("cycle needs at least 3 vertices")
        return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    @staticmethod
    def complete_bipartite(a: int, b: int) -> "Graph":
        return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])

    @staticmethod
    def disjoint_union(g1: "Graph", g2: "Graph") -> "Graph":
        shift = g1.n
        edges = list(g1.edges()) + [(i + shift, j + shift) for i, j in g2.edges()]
        return Graph.from_edges(g1.n + g2.n, edges)

    # -- basic queries -------------------------------------------------------

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.mask >> pair_index(self.n, i, j) & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        pairs = pair_list(self.n)
        for k in bits(self.mask):
            yield pairs[k]

    def non_edges(self) -> Iterator[tuple[int, int]]:
        pairs = pair_list(self.n)
        for k, p in enumerate(pairs):
            if not self.mask >> k & 1:
                yield p

    def edge_count(self) -> int:
        return self.mask.bit_count()

    def adjacency(self) -> tuple[int, ...]:
        return build_adjacency(self.n, self.mask)

    def neighbors(self, i: int) -> list[int]:
        return list(bits(self.adjacency()[i]))

    def degree(self, i: int) -> int:
        return self.adjacency()[i].bit_count()

    def degrees(self) -> list[int]:
        return [a.bit_count() for a in self.adjacency()]

    def add_edge(self, i: int, j: int) -> "Graph":
        bit = 1 << pair_index(self.n, i, j)
        if self.mask & bit:
            raise ParameterError(f"edge ({i},{j}) already present")
        return Graph(self.n, self.mask | bit)

    def remove_edge(self, i: int, j: int) -> "Graph":
        bit = 1 << pair_index(self.n, i, j)
        if not self.mask & bit:
            raise ParameterError(f"edge ({i},{j}) not present")
        return Graph(self.n, self.mask ^ bit)

    def toggled(self, k: int) -> "Graph":
        """The graph with pair bit k flipped, built without validation: the
        caller guarantees 0 <= k < pair_count(n).  For the flip engine's hot
        loop, where every k comes from the pairs of this graph."""
        h = object.__new__(Graph)
        fields = h.__dict__
        fields["n"] = self.n
        fields["mask"] = self.mask ^ 1 << k
        return h

    def relabel(self, perm: tuple[int, ...]) -> "Graph":
        """Image of the graph under vertex i -> perm[i]."""
        return Graph(self.n, apply_permutation(self.n, self.mask, perm))


# ---------------------------------------------------------------------------
# reachability


def reachable_from(adj: tuple[int, ...], start_mask: int, avoid: int = 0) -> int:
    """The vertices reachable from ``start_mask`` on paths that enter no
    vertex of ``avoid``, a mask disjoint from it."""
    seen = frontier = start_mask
    seen |= avoid
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & ~seen
        seen |= frontier
    return seen & ~avoid


def component_masks(g: Graph) -> list[int]:
    adj = g.adjacency()
    remaining = (1 << g.n) - 1
    comps = []
    while remaining:
        start = remaining & -remaining
        comp = reachable_from(adj, start)
        comps.append(comp)
        remaining &= ~comp
    return comps


def component_of(g: Graph, i: int) -> int:
    return reachable_from(g.adjacency(), 1 << i)


def is_connected(g: Graph) -> bool:
    return component_of(g, 0) == (1 << g.n) - 1


def bridge_mask(adj: Sequence[int], edges: int) -> int:
    """The bridges among the edges of pair mask ``edges``.  An edge whose ends
    share a neighbour lies on a triangle, so the pairs within each vertex's
    neighbourhood are dropped first; edge ij is otherwise a bridge when j is
    not reachable from i's other neighbours on paths avoiding i."""
    n, out = len(adj), 0
    for a in adj:
        edges &= ~pairs_within(n, a)
    pairs = pair_list(n)
    while edges:
        low = edges & -edges
        edges ^= low
        i, j = pairs[low.bit_length() - 1]
        if not reachable_from(adj, adj[i] ^ 1 << j, 1 << i) >> j & 1:
            out |= low
    return out


def bridges(g: Graph) -> frozenset[tuple[int, int]]:
    """Edges (i, j), i < j, whose removal separates i from j."""
    pairs = pair_list(g.n)
    return frozenset(pairs[p] for p in bits(bridge_mask(g.adjacency(), g.mask)))


def bfs_distances(adj: tuple[int, ...], src: int) -> list[int]:
    """Distances from src; -1 marks unreachable.  Internal helper."""
    n = len(adj)
    dist = [-1] * n
    dist[src] = 0
    seen = 1 << src
    frontier = seen
    d = 0
    while frontier:
        d += 1
        nxt = 0
        for v in bits(frontier):
            nxt |= adj[v]
        nxt &= ~seen
        for v in bits(nxt):
            dist[v] = d
        seen |= nxt
        frontier = nxt
    return dist


# ---------------------------------------------------------------------------
# domination


def dominates(g: Graph, y: int, x: int) -> bool:
    """True iff every neighbor of x is y itself or a neighbor of y."""
    if x == y:
        raise ParameterError("domination is undefined on a vertex and itself")
    adj = g.adjacency()
    return adj[x] & ~(adj[y] | 1 << y) == 0


# ---------------------------------------------------------------------------
# enumeration and canonical forms


def graph_count(n: int) -> int:
    return 1 << pair_count(n)


def shard_bounds(total_graphs: int, k: int, total: int) -> tuple[int, int]:
    base, extra = divmod(total_graphs, total)
    lo = k * base + min(k, extra)
    hi = lo + base + (1 if k < extra else 0)
    return lo, hi


def apply_permutation(n: int, mask: int, perm: tuple[int, ...]) -> int:
    index, pairs = _pair_table(n)
    out = 0
    m = mask
    while m:
        low = m & -m
        i, j = pairs[low.bit_length() - 1]
        a, b = perm[i], perm[j]
        if a > b:
            a, b = b, a
        out |= 1 << index[(a, b)]
        m ^= low
    return out


def _colour_key(n: int, colours: Sequence[int] | None) -> tuple[int, ...] | None:
    """The colouring as a tuple, or None when it has at most one colour.
    Refuses n above ``MAX_ORBITS``, the relabeling table's cap, and a
    colouring whose length is not n."""
    if n > MAX_ORBITS:
        raise SizeGuardError(f"relabelings capped at n={MAX_ORBITS} (got {n})")
    if colours is not None and len(colours) != n:
        raise ParameterError(f"{len(colours)} colours for {n} vertices")
    if colours is None or len(set(colours)) < 2:
        return None
    return tuple(colours)


@functools.cache
def _relabeling_table(n: int, colours: tuple[int, ...] | None) -> np.ndarray:
    """One row per permutation p of 0..n-1 that keeps every vertex's colour:
    column k holds the pair bit ``1 << pair_index(n, p(i), p(j))`` that pair
    k = (i, j) goes to, read off an n x n matrix of pair bits.  int32, as
    the C(n, 2) <= 28 pair bits of the cap fit, so a row sum needs no wider
    type; the table is the only n! x C(n, 2) array the build makes."""
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int8)
    if colours is not None:
        key = np.array(colours)
        perms = perms[(key[perms] == key).all(axis=1)]
    pair_bit = np.zeros((n, n), dtype=np.int32)
    for k, (i, j) in enumerate(pair_list(n)):
        pair_bit[i, j] = pair_bit[j, i] = 1 << k
    i, j = np.array(pair_list(n), dtype=np.intp).reshape(-1, 2).T
    table = pair_bit[perms[:, i], perms[:, j]]
    table.flags.writeable = False  # shared by every caller through the cache
    return table


def _images(n: int, mask: int, key: tuple[int, ...] | None) -> np.ndarray:
    """The masks of the relabelings of (n, mask) that keep the colouring
    ``key`` (``_colour_key``), one per row of the relabeling table: the
    columns of the graph's pairs summed per row.  A row's entries are
    distinct powers of two, so its sum is the OR of the images.  The images
    of the complement are the complements of the images, so a graph with
    more than half of its pairs gathers its complement's columns and
    subtracts each sum from the full mask: no gather reads more than half
    the columns."""
    table = _relabeling_table(n, key)
    pairs = pair_count(n)
    if 2 * mask.bit_count() > pairs:
        full = (1 << pairs) - 1
        return full - table[:, list(bits(full ^ mask))].sum(axis=1)
    return table[:, list(bits(mask))].sum(axis=1)


def canonical_form(g: Graph, colours: Sequence[int] | None = None) -> int:
    """Minimum adjacency mask over the vertex permutations that keep every
    vertex v's colour ``colours[v]``; over all n! of them without colours.

    Two graphs are isomorphic (by a colour-preserving map) iff their
    canonical forms are equal.  The value is the smallest row sum of the
    gather ``orbit_masks`` makes from the memoized relabeling table, so a
    dense graph is read through its complement there too.  Capped at n = 8
    with the table.  On one core of a 2-vCPU Intel Xeon VM a call takes
    about 11-14 us at n = 6, 35-47 us at n = 7 and 0.43-0.45 ms at n = 8
    on random graphs.  Every relabeling fixes the empty and the complete
    graph, so their own masks are returned without the gather.
    """
    key = _colour_key(g.n, colours)
    if not g.mask or g.mask == (1 << pair_count(g.n)) - 1:
        return g.mask
    return int(_images(g.n, g.mask, key).min())


def orbit_masks(n: int, mask: int, colours: Sequence[int] | None = None) -> set[int]:
    """Masks of the relabelings of the graph that keep every vertex's colour
    (all n! without colours): its class of colour-preserving relabelings.

    One gather from a relabeling table, memoized per n and colouring.
    Capped at n = 8, whose table holds 40,320 x 28 int32s (4.5 MB), built
    on first use.
    """
    return set(_images(n, mask, _colour_key(n, colours)).tolist())


def orbit_union(n: int, classes: Sequence[int], colours: Sequence[int] | None = None) -> list[int]:
    """Ascending masks of the union of the classes' orbits (``orbit_masks``):
    their gathers concatenated, sorted in place and deduplicated once, and
    one ``tolist``.  Deduplicates by comparing neighbours, not with
    ``np.unique``, whose first call costs 10-20 ms."""
    if not classes:
        return []
    key = _colour_key(n, colours)
    masks = np.concatenate([_images(n, c, key) for c in classes])
    masks.sort()
    keep = np.empty(len(masks), dtype=bool)
    keep[0] = True
    np.not_equal(masks[1:], masks[:-1], out=keep[1:])
    return masks[keep].tolist()


_CLASSES: dict[tuple[int, tuple[int, ...] | None], tuple[int, ...]] = {(1, None): (0,)}


def graph_classes(n: int, colours: Sequence[int] | None = None) -> Sequence[int]:
    """Canonical masks (``canonical_form`` under ``colours``) of the graphs
    on n vertices up to colour-preserving relabeling, ascending: the
    isomorphism classes with one colour or none, and every mask when each
    vertex has its own colour.

    A vertex of least degree among those of vertex n-1's colour can be
    relabeled to n-1, and deleting it leaves a graph coloured by
    ``colours[:-1]``.  So the list comes from joining a new vertex n-1 to
    every subset of each class of that colouring that leaves no old vertex
    of its colour a lower degree, and keeping the distinct canonical forms:
    the simplest form of McKay's isomorph-free generation ("Isomorph-free
    exhaustive generation", 1998).  Memoized per n and colouring and capped
    at n = 7: 1,044 classes in 0.11-0.12 s with one colour and 20,364 in
    0.42 s for colours of sizes 4 and 3, on one core of a 2-vCPU Intel
    Xeon VM.
    """
    if not 1 <= n <= MAX_CLASSES:
        raise SizeGuardError(f"class lists cover n=1..{MAX_CLASSES} (got {n})")
    key = _colour_key(n, colours)  # refuses a colouring of the wrong length
    if colours is not None and len(set(colours)) == n:
        return range(graph_count(n))
    classes = _CLASSES.get((n, key))
    if classes is None:
        index = _pair_table(n)[0]
        old_bit = [1 << index[p] for p in pair_list(n - 1)]
        # (subset of the old vertices, its pair bits with the new vertex n-1)
        joins = [(0, 0)]
        for i in range(n - 1):
            bit = 1 << index[(i, n - 1)]
            joins += [(s | 1 << i, b | bit) for s, b in joins]
        peers = [u for u in range(n - 1) if key is None or key[u] == key[-1]]
        found = set()
        for parent in graph_classes(n - 1, key and key[:-1]):
            adj = build_adjacency(n - 1, parent)
            degrees = [(u, adj[u].bit_count()) for u in peers]
            base = sum(old_bit[k] for k in bits(parent))
            for s, b in joins:
                d = s.bit_count()
                # no old vertex of its colour ends with a degree below d
                if all(d <= deg + (s >> u & 1) for u, deg in degrees):
                    found.add(canonical_form(Graph(n, base | b), key))
        classes = _CLASSES[(n, key)] = tuple(sorted(found))
    return classes


def passing_masks(n: int, keep, colours: Sequence[int] | None = None) -> list[int]:
    """Ascending masks of the graphs on n vertices that pass ``keep``, a
    predicate that no colour-preserving relabeling changes, tested per class."""
    return orbit_union(n, [c for c in graph_classes(n, colours) if keep(Graph(n, c))], colours)


# ---------------------------------------------------------------------------
# I/O: edge-list text and graph6


def write_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count()}"]
    lines.extend(f"{i} {j}" for i, j in g.edges())
    return "\n".join(lines) + "\n"


def read_edge_list(text: str) -> Graph:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise MalformedLineError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise MalformedLineError(f"header must be 'n <count>', got {lines[0]!r}")
    try:
        n, count = int(head[0]), int(head[1])
    except ValueError:
        raise MalformedLineError(f"header must be 'n <count>', got {lines[0]!r}")
    if len(lines) - 1 != count:
        raise MalformedLineError(
            f"header announces {count} edges but {len(lines) - 1} lines follow"
        )
    mask = 0
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise MalformedLineError(f"edge line must be 'u v', got {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise MalformedLineError(f"edge line must be 'u v', got {ln!r}")
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise VertexRangeError(f"edge ({u},{v}) outside 0..{n - 1}")
        if u >= v:
            raise MalformedLineError(f"edge ({u},{v}) must be written with u < v")
        bit = 1 << pair_index(n, u, v)
        if mask & bit:
            raise DuplicateEdgeError(f"duplicate edge ({u},{v})")
        mask |= bit
    return Graph(n, mask)


def to_graph6(g: Graph) -> str:
    """Standard graph6 ASCII encoding (n <= 62)."""
    n = g.n
    out = [chr(n + 63)]
    # graph6 packs the upper triangle column by column: (0,1), (0,2), (1,2), ...
    bits_stream = []
    for j in range(1, n):
        for i in range(j):
            bits_stream.append(1 if g.has_edge(i, j) else 0)
    for k in range(0, len(bits_stream), 6):
        chunk = bits_stream[k : k + 6]
        chunk += [0] * (6 - len(chunk))
        val = 0
        for b in chunk:
            val = val << 1 | b
        out.append(chr(val + 63))
    return "".join(out)


def from_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise MalformedLineError("empty graph6 input")
    n = ord(s[0]) - 63
    if not 1 <= n <= 62:
        raise MalformedLineError(f"unsupported graph6 vertex count byte {s[0]!r}")
    if n > MAX_VERTICES:
        raise SizeGuardError(f"graph6 input has n={n} > {MAX_VERTICES}")
    need = (pair_count(n) + 5) // 6
    body = s[1:]
    if len(body) < need:
        raise MalformedLineError("graph6 body truncated")
    if len(body) > need:
        raise MalformedLineError(f"unexpected characters after the graph6 body: {body[need:]!r}")
    stream = []
    for ch in body:
        val = ord(ch) - 63
        if not 0 <= val < 64:
            raise MalformedLineError(f"invalid graph6 byte {ch!r}")
        stream.extend((val >> k) & 1 for k in range(5, -1, -1))
    mask = 0
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if stream[pos]:
                mask |= 1 << pair_index(n, i, j)
            pos += 1
    return Graph(n, mask)
