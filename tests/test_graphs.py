import itertools
import random

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from apsn.errors import (
    DuplicateEdgeError,
    MalformedLineError,
    ParameterError,
    SelfLoopError,
    SizeGuardError,
    VertexRangeError,
)
from apsn.graphs import (
    Graph,
    apply_permutation,
    bfs_distances,
    bridge_mask,
    bridges,
    build_adjacency,
    canonical_form,
    dominates,
    from_graph6,
    graph_classes,
    graph_count,
    is_connected,
    orbit_masks,
    orbit_union,
    pair_count,
    pair_index,
    read_edge_list,
    shard_bounds,
    to_graph6,
    write_edge_list,
)
from oracles import adjacency_by_bits, colour_patterns, enumerate_labeled_graphs, same_component


def graphs_strategy(max_n=6):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.tuples(
            st.just(n), st.integers(min_value=0, max_value=graph_count(n) - 1)
        )
    ).map(lambda t: Graph(t[0], t[1]))


def to_networkx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


# -- distances ---------------------------------------------------------------


def distance_rows(g: Graph) -> list[list[int]]:
    """All-pairs BFS distances, -1 meaning unreachable."""
    adj = g.adjacency()
    return [bfs_distances(adj, i) for i in range(g.n)]


def test_distances_path():
    d = distance_rows(Graph.path(3))
    assert d[0][2] == 2 and d[2][0] == 2


def test_distances_complete():
    d = distance_rows(Graph.complete(3))
    assert all(d[i][j] == 1 for i in range(3) for j in range(3) if i != j)


def test_distances_disconnected_marker():
    d = distance_rows(Graph.empty(2))
    assert d[0][1] == -1
    assert d[0][0] == 0


@given(graphs_strategy())
def test_distance_symmetry_and_triangle(g):
    d = distance_rows(g)
    for i in range(g.n):
        assert d[i][i] == 0
        for j in range(g.n):
            assert d[i][j] == d[j][i]
    for i, j, k in itertools.permutations(range(g.n), 3) if g.n >= 3 else []:
        dij, dik, dkj = d[i][j], d[i][k], d[k][j]
        if dik >= 0 and dkj >= 0:
            assert 0 <= dij <= dik + dkj


# -- domination ---------------------------------------------------------------


def test_dominates_star_center_over_leaf():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert dominates(g, 0, 1)


def test_dominates_c4_cases():
    g = Graph.cycle(4)
    assert dominates(g, 2, 0)  # opposite vertices share their neighborhood
    assert not dominates(g, 1, 0)


def test_dominates_rejects_equal_vertices():
    with pytest.raises(ParameterError):
        dominates(Graph.empty(2), 1, 1)


@given(graphs_strategy(max_n=6))
def test_dominates_is_transitive(g):
    for x, y, z in itertools.permutations(range(g.n), 3) if g.n >= 3 else []:
        if dominates(g, y, x) and dominates(g, z, y):
            assert dominates(g, z, x)


def test_dominates_transitive_exhaustive_n5():
    for n in (3, 4, 5):
        for g in enumerate_labeled_graphs(n):
            adj = g.adjacency()
            above = {
                x: [y for y in range(n) if y != x and adj[x] & ~(adj[y] | 1 << y) == 0]
                for x in range(n)
            }
            for x in range(n):
                for y in above[x]:
                    for z in above[y]:
                        if z != x:
                            assert z in above[x]


# -- bridges -------------------------------------------------------------------


def test_tree_edges_are_bridges():
    g = Graph.path(4)
    assert bridges(g) == set(g.edges())


def test_cycle_edges_are_not_bridges():
    assert bridges(Graph.cycle(4)) == set()


def test_bridge_addition_to_isolated_vertex():
    g = Graph.from_edges(3, [(0, 1)])
    assert not same_component(g, 0, 2)  # adding 02 joins two components
    assert bridges(g) == {(0, 1)}


def test_bridges_match_networkx_exhaustive_n5():
    for n in range(1, 6):
        for g in enumerate_labeled_graphs(n):
            expected = {tuple(sorted(e)) for e in nx.bridges(to_networkx(g))}
            assert bridges(g) == expected, g


def test_bridge_mask_matches_networkx_on_edge_subsets_exhaustive_n6():
    """Every labeled graph on 6 vertices, asked about all its edges and about
    two seeded random subsets of them, as the census and dynamics ask."""
    rnd = random.Random(6)
    for g in enumerate_labeled_graphs(6):
        adj = g.adjacency()
        expected = sum(1 << pair_index(6, *e) for e in nx.bridges(to_networkx(g)))
        for edges in (g.mask, g.mask & rnd.getrandbits(15), g.mask & rnd.getrandbits(15)):
            assert bridge_mask(adj, edges) == expected & edges, (g, edges)


# -- enumeration ----------------------------------------------------------------


@pytest.mark.parametrize("n,count", [(2, 2), (4, 64), (6, 32768)])
def test_enumeration_counts(n, count):
    masks = {g.mask for g in enumerate_labeled_graphs(n)}
    assert len(masks) == count == graph_count(n)


def test_enumeration_guard():
    with pytest.raises(SizeGuardError):
        next(enumerate_labeled_graphs(9))


def test_shards_partition_the_range():
    total = graph_count(4)
    for shards in (1, 5, 64, 100):
        slices = [shard_bounds(total, k, shards) for k in range(shards)]
        seen = [mask for lo, hi in slices for mask in range(lo, hi)]
        assert seen == list(range(total))
        sizes = {hi - lo for lo, hi in slices}
        assert max(sizes) - min(sizes) <= 1


# -- canonical forms -------------------------------------------------------------


def test_p3_labelings_share_canonical_form():
    forms = {
        canonical_form(Graph.from_edges(3, [(a, b), (b, c)]))
        for a, b, c in itertools.permutations(range(3))
    }
    assert len(forms) == 1


def test_p3_and_k3_differ():
    assert canonical_form(Graph.path(3)) != canonical_form(Graph.complete(3))


def test_canonical_form_guard():
    with pytest.raises(SizeGuardError):
        canonical_form(Graph(9, 0))


def test_empty_and_complete_graphs_are_their_own_canonical_forms():
    for n in range(1, 9):
        for g in (Graph.empty(n), Graph.complete(n)):
            assert canonical_form(g) == g.mask == min(orbit_masks(n, g.mask))
            assert canonical_form(g, [k % 2 for k in range(n)]) == g.mask
    for g in (Graph.empty(9), Graph.complete(9)):
        with pytest.raises(SizeGuardError):
            canonical_form(g)
    for g in (Graph.empty(3), Graph.complete(3)):
        with pytest.raises(ParameterError):
            canonical_form(g, (0, 1))


@given(graphs_strategy(max_n=5), st.randoms(use_true_random=False))
def test_canonical_form_is_permutation_invariant(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    assert canonical_form(g.relabel(tuple(perm))) == canonical_form(g)


def test_distance_properties_exhaustive_n4():
    for g in enumerate_labeled_graphs(4):
        d = distance_rows(g)
        for i in range(4):
            assert d[i][i] == 0
            for j in range(4):
                assert d[i][j] == d[j][i]
                for k in range(4):
                    if d[i][k] >= 0 and d[k][j] >= 0:
                        assert 0 <= d[i][j] <= d[i][k] + d[k][j]


def test_canonical_form_random_permutations_n8():
    rnd = random.Random(88)
    g = Graph(8, rnd.randrange(graph_count(8)))
    base = canonical_form(g)
    for _ in range(3):
        perm = list(range(8))
        rnd.shuffle(perm)
        assert canonical_form(g.relabel(tuple(perm))) == base


def test_canonical_equality_matches_isomorphism():
    rnd = random.Random(7)
    graphs = [Graph(5, rnd.randrange(graph_count(5))) for _ in range(40)]
    for a, b in itertools.combinations(graphs, 2):
        iso = nx.is_isomorphic(to_networkx(a), to_networkx(b))
        assert iso == (canonical_form(a) == canonical_form(b))


def permutation_minimum(g: Graph) -> int:
    """The n! definition of the canonical form, as a reference for the search."""
    return min(
        apply_permutation(g.n, g.mask, perm) for perm in itertools.permutations(range(g.n))
    )


def test_canonical_form_matches_permutation_minimum_exhaustive_n5():
    for n in range(1, 6):
        for g in enumerate_labeled_graphs(n):
            assert canonical_form(g) == permutation_minimum(g), (n, g.mask)


def test_graph_classes_counts():
    # OEIS A000088: graphs on n unlabeled vertices
    assert [len(graph_classes(n)) for n in range(1, 8)] == [1, 2, 4, 11, 34, 156, 1044]
    with pytest.raises(SizeGuardError):
        graph_classes(8)


def test_canonical_form_matches_permutation_minimum_random_n7():
    rnd = random.Random(2014)
    for _ in range(50):
        g = Graph(7, rnd.randrange(graph_count(7)))
        assert canonical_form(g) == permutation_minimum(g), g.mask


def test_canonical_forms_split_n6_into_its_156_classes():
    classes: dict[int, list[int]] = {}
    for g in enumerate_labeled_graphs(6):
        classes.setdefault(canonical_form(g), []).append(g.mask)
    assert len(classes) == 156
    assert list(graph_classes(6)) == sorted(classes)
    for key, members in classes.items():
        assert key == min(members)
        assert orbit_masks(6, key) == set(members)


SIX_VERTEX_PATTERNS = [(0, 0, 0, 1, 1, 1), (0, 1, 0, 1, 2, 2), (0, 0, 0, 0, 0, 1)]


def colour_preserving(n, colours):
    """The permutations of 0..n-1 that keep every vertex's colour, by
    definition: all n! of them without colours."""
    return [
        p for p in itertools.permutations(range(n))
        if colours is None or all(colours[v] == colours[p[v]] for v in range(n))
    ]


def test_coloured_canonical_form_is_the_colour_preserving_minimum():
    rnd = random.Random(1981)
    for n in range(1, 7):
        for _ in range(100):
            colours = tuple(rnd.randrange(3) for _ in range(n))
            mask = rnd.randrange(graph_count(n))
            keep = colour_preserving(n, colours)
            expected = min(apply_permutation(n, mask, p) for p in keep)
            assert canonical_form(Graph(n, mask), colours) == expected, (colours, mask)


def test_one_colour_is_no_colour():
    rnd = random.Random(7)
    for _ in range(50):
        g = Graph(7, rnd.randrange(graph_count(7)))
        assert canonical_form(g, (3,) * 7) == canonical_form(g)
    assert graph_classes(6, (1,) * 6) == graph_classes(6)


COLOURINGS = [
    (n, c) for n in range(1, 6) for c in colour_patterns(n)
] + [(6, c) for c in SIX_VERTEX_PATTERNS]


def test_coloured_classes_match_canonical_forms_of_every_mask():
    for n, colours in COLOURINGS:
        forms = {canonical_form(Graph(n, m), colours) for m in range(graph_count(n))}
        assert list(graph_classes(n, colours)) == sorted(forms), colours


def test_coloured_orbits_partition_the_labeled_graphs():
    # orbit-stabiliser: the orbits of the classes cover every mask once, and
    # each class is the smallest mask of its orbit
    cases = [(n, None) for n in range(1, 8)] + COLOURINGS + [(7, (0, 0, 0, 0, 1, 1, 1))]
    for n, colours in cases:
        classes = graph_classes(n, colours)
        orbits = [orbit_masks(n, c, colours) for c in classes]
        assert sum(map(len, orbits)) == graph_count(n), colours
        assert all(min(o) == c for c, o in zip(classes, orbits)), colours
        if n <= 6:
            assert set().union(*orbits) == set(range(graph_count(n))), colours


def test_orbit_masks_match_the_relabeling_oracle():
    rnd = random.Random(1998)
    cases = [(n, c) for n in range(1, 6) for c in colour_patterns(n)]
    cases += [(6, c) for c in SIX_VERTEX_PATTERNS + [None]] + [(7, None)]
    for n, colours in cases:
        keep = colour_preserving(n, colours)
        full = graph_count(n) - 1
        for mask in [0, full] + [rnd.randrange(full + 1) for _ in range(6)]:
            expected = {apply_permutation(n, mask, p) for p in keep}
            assert orbit_masks(n, mask, colours) == expected, (n, colours, mask)


def test_orbit_union_is_the_sorted_union_of_the_orbits():
    rnd = random.Random(2016)
    for n, colours in COLOURINGS + [(7, None), (7, (0, 0, 0, 0, 1, 1, 1))]:
        classes = list(graph_classes(n, colours))
        picked = sorted(rnd.sample(classes, min(len(classes), 9)))
        expected = sorted(set().union(*(orbit_masks(n, c, colours) for c in picked)))
        assert orbit_union(n, picked, colours) == expected, (n, colours)
        assert orbit_union(n, [], colours) == []


def test_orbit_guard():
    assert orbit_masks(8, graph_count(8) - 1) == {graph_count(8) - 1}
    with pytest.raises(SizeGuardError):
        orbit_masks(9, 0)


def test_distinct_colours_list_every_mask():
    for n in range(1, 8):
        assert graph_classes(n, tuple(range(n))) == range(graph_count(n))
    assert len(graph_classes(7, (0, 0, 0, 0, 1, 1, 1))) == 20364


def test_colourings_of_the_wrong_length_are_refused():
    for colours in [(0, 1), (0, 0), (0, 1, 0, 1), (0, 1, 2, 3)]:
        with pytest.raises(ParameterError):
            canonical_form(Graph.path(3), colours)
        with pytest.raises(ParameterError):
            orbit_masks(3, 1, colours)
        with pytest.raises(ParameterError):
            graph_classes(3, colours)


def cube() -> Graph:
    """Q3: vertices 0..7, joined when their labels differ in one bit."""
    return Graph.from_edges(8, [(v, v | 1 << b) for v in range(8) for b in range(3) if ~v >> b & 1])


def complement(g: Graph) -> Graph:
    return Graph(g.n, (graph_count(g.n) - 1) ^ g.mask)


@pytest.mark.parametrize(
    "g",
    [
        cube(),
        complement(cube()),
        Graph.cycle(8),
        Graph.complete_bipartite(4, 4),
        Graph.empty(8),
        Graph.complete(8),
    ],
    ids=["q3", "q3-complement", "c8", "k44", "empty", "k8"],
)
def test_canonical_form_relabeling_invariant_n8(g):
    rnd = random.Random(g.mask)
    base = canonical_form(g)
    assert base <= g.mask
    assert sorted(Graph(8, base).degrees()) == sorted(g.degrees())
    for _ in range(5):
        perm = list(range(8))
        rnd.shuffle(perm)
        assert canonical_form(g.relabel(tuple(perm))) == base


# -- edge list I/O -----------------------------------------------------------------


def test_read_edge_list_p3():
    g = read_edge_list("3 2\n0 1\n1 2\n")
    assert g == Graph.path(3)


def test_edge_list_round_trip():
    g = Graph.from_edges(5, [(0, 2), (1, 4), (2, 3)])
    assert read_edge_list(write_edge_list(g)) == g


@pytest.mark.parametrize(
    "text,exc",
    [
        ("3 1\n0 nope\n", MalformedLineError),
        ("3 1\n0 5\n", VertexRangeError),
        ("3 2\n0 1\n0 1\n", DuplicateEdgeError),
        ("3 1\n1 1\n", SelfLoopError),
        ("3 1\n2 1\n", MalformedLineError),
        ("3 2\n0 1\n", MalformedLineError),
    ],
)
def test_edge_list_errors_are_distinct(text, exc):
    with pytest.raises(exc):
        read_edge_list(text)


# -- graph6 -------------------------------------------------------------------------


def test_graph6_k3_matches_published_format():
    assert to_graph6(Graph.complete(3)) == "Bw"
    assert from_graph6("Bw") == Graph.complete(3)
    assert from_graph6(">>graph6<<Bw\n") == Graph.complete(3)


@pytest.mark.parametrize("text", ["BwGARBAGE", "Bw\nC~", "Bw C~"])
def test_graph6_rejects_trailing_input(text):
    # a file of several graphs must not read as its first graph
    with pytest.raises(MalformedLineError):
        from_graph6(text)


@given(graphs_strategy(max_n=7))
def test_graph6_round_trip(g):
    assert from_graph6(to_graph6(g)) == g


@given(graphs_strategy(max_n=7))
def test_graph6_agrees_with_networkx(g):
    ours = to_graph6(g)
    theirs = nx.to_graph6_bytes(to_networkx(g), header=False).decode().strip()
    assert ours == theirs
    assert from_graph6(theirs) == g


def test_is_connected_marks_components():
    assert is_connected(Graph.complete(4))
    assert not is_connected(Graph.from_edges(4, [(0, 1), (2, 3)]))


def test_build_adjacency_matches_the_per_bit_reference():
    for n in range(1, 7):
        for mask in range(graph_count(n)):
            assert build_adjacency(n, mask) == adjacency_by_bits(n, mask), (n, mask)
    rnd = random.Random(1961)
    for n in range(7, 17):
        full = graph_count(n) - 1
        for mask in [0, full] + [rnd.randrange(full + 1) for _ in range(200)]:
            assert build_adjacency(n, mask) == adjacency_by_bits(n, mask), (n, mask)
            assert Graph(n, mask).adjacency() == adjacency_by_bits(n, mask)


def test_pair_count():
    assert pair_count(6) == 15
