import json
import os
import random
import time
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

from apsn import census, game
from apsn.census import census_cap, conjecture_report, game_fingerprint, run_census
from apsn.centrality import (
    betweenness,
    closeness,
    decay,
    degree,
    eigenvector,
    game_theoretic,
    harmonic,
    katz,
    linear,
    pagerank,
    rw_betweenness,
    rw_closeness,
)
from apsn.errors import ParameterError, SizeGuardError
from apsn.game import (
    EvalCache,
    ExactPolicy,
    GameSpec,
    HomophilicAgent,
    HomophilyFunction,
    MonotoneAgent,
    NumericAgent,
    TolerantPolicy,
    is_apsn,
    uniform_game,
)
from apsn.graphs import Graph, canonical_form, graph_count, orbit_masks, pair_index
from oracles import (
    colour_patterns,
    delta_remove,
    expand_classes_per_class,
    labeled_census,
    two_way_eval_flip,
)


def decay_game(n):
    return uniform_game(n, NumericAgent(decay(Fraction(1, 2))))


def test_decay_census_n4_only_complete_graph(shared_cache):
    result = run_census(decay_game(4), 4, cache=shared_cache)
    assert result.stable_masks == [Graph.complete(4).mask]
    assert result.apsn_canonical[0][0] == canonical_form(Graph.complete(4))
    assert result.scanned == graph_count(4)


def test_shard_count_independence(shared_cache):
    spec = decay_game(4)
    one = run_census(spec, 4, shards=1, cache=shared_cache)
    eight = run_census(spec, 4, shards=8, cache=shared_cache)
    a, b = one.payload(), eight.payload()
    a.pop("shards"), b.pop("shards")
    assert a == b


def test_rerun_determinism(shared_cache):
    spec = decay_game(4)
    assert (
        run_census(spec, 4, cache=shared_cache).payload()
        == run_census(spec, 4, cache=shared_cache).payload()
    )


def test_parallel_jobs_match_sequential():
    spec = decay_game(4)
    seq = run_census(spec, 4, shards=4, jobs=1)
    par = run_census(spec, 4, shards=4, jobs=2)
    assert seq.payload() == par.payload()


@pytest.mark.parametrize("jobs", [0, -1])
def test_census_refuses_fewer_than_one_job(jobs):
    with pytest.raises(ParameterError, match="at least one job"):
        run_census(decay_game(3), 3, jobs=jobs)


def test_checkpoint_resume(tmp_path, shared_cache):
    spec = decay_game(4)
    ckpt = tmp_path / "census.jsonl"
    full = run_census(spec, 4, shards=4, cache=shared_cache, checkpoint=str(ckpt))
    assert ckpt.exists() and len(ckpt.read_text().splitlines()) == 4
    resumed = run_census(spec, 4, shards=4, cache=shared_cache, resume=str(ckpt))
    assert resumed.payload() == full.payload()


def betweenness_game(n):
    # a census at n = 4: four shards decide the classes 0 1 3 |
    # 7 11 12 | 13 15 30 | 31 63, and the stable ones are the empty graph
    # (0) and C4 (30, whose labelings are 30, 45 and 51)
    return uniform_game(n, NumericAgent(betweenness()))


def scan_recorder(monkeypatch, fail_on=()):
    """Patch census._scan_shard to record each shard it scans and to raise
    on the shards in ``fail_on``."""
    scan = census._scan_shard
    scanned = []

    def recorded(spec, n, shard, shards, cache=None):
        if shard in fail_on:
            raise RuntimeError(f"interrupted at shard {shard}")
        scanned.append(shard)
        return scan(spec, n, shard, shards, cache)

    monkeypatch.setattr(census, "_scan_shard", recorded)
    return scanned


def read_records(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


CHECKPOINT_ENV = "APSN_TEST_CHECKPOINT"
SCAN_SHARD = census._scan_shard


def checkpoint_shards(path):
    """Shards of the complete records in a checkpoint another process is
    still appending to."""
    text = path.read_text()
    return [json.loads(line)["shard"] for line in text[: text.rfind("\n") + 1].splitlines()]


def scan_shard_0_after_record_1(spec, n, shard, shards, cache=None):
    """The census shard scan, except that shard 0 returns only once the
    checkpoint named by $APSN_TEST_CHECKPOINT holds shard 1's record.  A
    module-level function, so pool workers can unpickle it."""
    if shard == 0:
        path = Path(os.environ[CHECKPOINT_ENV])
        deadline = time.monotonic() + 20
        while 1 not in checkpoint_shards(path):
            if time.monotonic() > deadline:
                raise TimeoutError("shard 1's record did not reach the checkpoint")
            time.sleep(0.005)
    return SCAN_SHARD(spec, n, shard, shards, cache)


def test_pool_writes_each_record_as_its_shard_finishes(tmp_path, monkeypatch):
    spec = betweenness_game(4)
    ckpt = tmp_path / "census.jsonl"
    monkeypatch.setenv(CHECKPOINT_ENV, str(ckpt))
    monkeypatch.setattr(census, "_scan_shard", scan_shard_0_after_record_1)
    pooled = run_census(spec, 4, shards=2, jobs=2, checkpoint=str(ckpt))
    assert [r["shard"] for r in read_records(ckpt)] == [1, 0]
    monkeypatch.undo()
    assert pooled.payload() == run_census(spec, 4, shards=2).payload()


def test_interrupted_census_keeps_finished_shards(tmp_path, monkeypatch, shared_cache):
    spec = betweenness_game(4)
    ckpt = tmp_path / "census.jsonl"
    scan_recorder(monkeypatch, fail_on={2})
    with pytest.raises(RuntimeError):
        run_census(spec, 4, shards=4, cache=shared_cache, checkpoint=str(ckpt))
    assert [r["shard"] for r in read_records(ckpt)] == [0, 1]
    monkeypatch.undo()
    scanned = scan_recorder(monkeypatch, fail_on={0, 1})  # kept, not rescanned
    resumed = run_census(spec, 4, shards=4, cache=shared_cache, resume=str(ckpt))
    assert scanned == [2, 3]
    monkeypatch.undo()
    fresh = run_census(spec, 4, shards=4, cache=shared_cache)
    assert resumed.payload() == fresh.payload()


def test_resume_rescans_invalid_records(tmp_path, monkeypatch, shared_cache):
    spec = betweenness_game(4)
    ckpt = tmp_path / "census.jsonl"
    fresh = run_census(spec, 4, shards=4, cache=shared_cache, checkpoint=str(ckpt))
    records = read_records(ckpt)
    records[1]["stable"].append(40)  # a mask of shard 2
    records[3]["scanned"] -= 1
    records[3]["stable"] = []
    ckpt.write_text("".join(json.dumps(r) + "\n" for r in records))
    scanned = scan_recorder(monkeypatch)
    resumed = run_census(spec, 4, shards=4, cache=shared_cache, resume=str(ckpt))
    assert scanned == [1, 3]
    assert resumed.payload() == fresh.payload()


def test_resume_rescans_foreign_masks_on_a_class_tuple(tmp_path, monkeypatch, shared_cache):
    # a uniform census's work is its tuple of classes, so a record's masks
    # are looked up in that tuple, not in a range
    spec = uniform_game(5, NumericAgent(betweenness()))
    work = census.graph_classes(5, census.colouring(spec))
    assert isinstance(work, tuple)
    ckpt = tmp_path / "census.jsonl"
    fresh = run_census(spec, 5, shards=4, cache=shared_cache, checkpoint=str(ckpt))
    scanned = scan_recorder(monkeypatch)
    run_census(spec, 5, shards=4, cache=shared_cache, resume=str(ckpt))
    assert scanned == []  # every record fits as written
    (_, hi0), (lo1, _), (lo2, hi2), _ = fresh.shard_layout
    records = read_records(ckpt)
    records[0]["stable"].append(work[hi0])  # the first class of shard 1
    records[1]["ambiguous"].append(work[lo1 - 1])  # the last class of shard 0
    between = next(m for m in range(work[lo2], work[hi2 - 1]) if m not in work)
    records[2]["fragile"].append(between)  # inside shard 2's span, but no class
    records[3]["stable"].append(str(work[-1]))  # not an int
    ckpt.write_text("".join(json.dumps(r) + "\n" for r in records))
    resumed = run_census(spec, 5, shards=4, cache=shared_cache, resume=str(ckpt))
    assert scanned == [0, 1, 2, 3]
    assert resumed.payload() == fresh.payload()


def test_checkpoint_ignores_foreign_records(tmp_path, shared_cache):
    # betweenness agents keep the empty graph and C4, not K4, so accepting
    # its records would change the decay census
    ckpt = tmp_path / "census.jsonl"
    foreign = run_census(
        uniform_game(4, NumericAgent(betweenness())),
        4,
        shards=2,
        cache=shared_cache,
        checkpoint=str(ckpt),
    )
    spec = decay_game(4)
    resumed = run_census(spec, 4, shards=2, cache=shared_cache, resume=str(ckpt))
    fresh = run_census(spec, 4, shards=2, cache=shared_cache)
    assert resumed.stable_masks == [Graph.complete(4).mask]
    assert resumed.payload() == fresh.payload()
    assert resumed.stable_masks != foreign.stable_masks


def test_stable_set_closed_under_isomorphism(rng, shared_cache):
    spec = uniform_game(4, NumericAgent(betweenness()))
    result = run_census(spec, 4, cache=shared_cache)
    for mask in result.stable_masks:
        g = Graph(4, mask)
        for _ in range(20):
            perm = list(range(4))
            rng.shuffle(perm)
            assert is_apsn(spec, g.relabel(tuple(perm)), shared_cache).stable


def test_caps_by_measure_kind():
    assert census_cap(uniform_game(3, NumericAgent(degree()))) == 7
    assert census_cap(uniform_game(3, NumericAgent(rw_closeness()))) == 7
    # a solve-kind game is capped at 6 only when graph_count(n) / prod(k!)
    # over its colour sizes k exceeds graph_count(6): 2^21 / (4! 3!) = 14,563
    # for colours 4 + 3 at n = 7, but 2^21 for seven colours
    mixed = GameSpec((NumericAgent(rw_closeness()),) * 4 + (NumericAgent(rw_betweenness()),) * 3)
    assert census_cap(mixed) == 7
    distinct = GameSpec(tuple(NumericAgent(rw_closeness(), Fraction(k, 10)) for k in range(7)))
    assert census_cap(distinct) == 6
    with pytest.raises(SizeGuardError):
        run_census(distinct, 7)
    assert (
        census_cap(uniform_game(3, NumericAgent(eigenvector()), TolerantPolicy())) == 7
    )
    spectral = GameSpec(
        (NumericAgent(eigenvector()),) * 2 + (NumericAgent(pagerank()),), TolerantPolicy()
    )
    assert census_cap(spectral) == 7
    # a linear table gives every vertex its own colour; linear is no solve kind
    table = [[0 if i == j else i + j for j in range(7)] for i in range(7)]
    assert census_cap(uniform_game(7, NumericAgent(linear(table)))) == 7
    with pytest.raises(SizeGuardError):
        run_census(uniform_game(8, NumericAgent(rw_closeness())), 8)


def test_fingerprint_distinguishes_games():
    assert game_fingerprint(decay_game(4)) != game_fingerprint(
        uniform_game(4, NumericAgent(degree()))
    )


def test_conjecture_report_structure_rwb_n3():
    report = conjecture_report("rwbetweenness", 3)
    assert report["measure"] == "rwbetweenness"
    assert report["verdict"] == "consistent with conjecture"
    assert report["stable"] == ["B?", "Bw"]  # the empty graph and K3
    assert report["counterexamples"] == []
    assert report["missing_expected"] == []
    assert report["ambiguous"] == []


def test_conjecture_report_size_guard():
    with pytest.raises(SizeGuardError):
        conjecture_report("eigenvector", 8)


def test_eigenvector_conjecture_holds_at_n6():
    report = conjecture_report("eigenvector", 6)
    assert report["verdict"] == "consistent with conjecture"
    assert report["stable"] == ["E~~w"]  # K6
    assert report["ambiguous"] == []


def test_eigenvector_conjecture_holds_at_n7():
    report = conjecture_report("eigenvector", 7)
    assert report["verdict"] == "consistent with conjecture"
    assert report["stable"] == ["F~~~w"]  # K7
    assert report["ambiguous"] == []
    assert report["census"]["scanned"] == graph_count(7)
    assert report["census"]["stable_count"] == 1


def test_conjecture_report_size_guard_rwb():
    with pytest.raises(SizeGuardError):
        conjecture_report("rwbetweenness", 8)


def test_rwbetweenness_conjecture_holds_at_n7():
    report = conjecture_report("rwbetweenness", 7)
    assert report["verdict"] == "consistent with conjecture"
    assert report["stable"] == ["F????", "F~~~w"]  # the empty graph and K7
    assert report["census"]["scanned"] == graph_count(7)
    assert report["census"]["stable_count"] == 2


def test_pagerank_conjecture_holds_at_n5_and_n7():
    report = conjecture_report("pagerank", 5)
    assert report["verdict"] == "consistent with conjecture"
    assert report["stable"] == ["D~{"]  # K5
    report = conjecture_report("pagerank", 7)
    assert report["verdict"] == "consistent with conjecture"
    assert report["stable"] == ["FJ\\{?", "F~~~w"]  # K5 + K2 and K7
    assert report["ambiguous"] == []
    assert report["census"]["stable_count"] == 22  # 21 labelings of K5 + K2, K7


def test_conjecture_report_rejects_other_measures():
    with pytest.raises(ParameterError, match="'pagerank'"):
        conjecture_report("closeness", 4)


def test_bounded_cache_evicts_oldest():
    from apsn.game import EvalCache as Cache

    cache = Cache(max_vectors=3)
    for mask in range(5):
        cache.vector(degree(), Graph(3, mask))
    assert len(cache.vectors) == 3
    # re-requesting an evicted mask recomputes without error
    assert cache.vector(degree(), Graph(3, 0)) == cache.vector(degree(), Graph(3, 0))


def test_bounded_cache_evicts_oldest_first_over_many_evictions():
    from apsn.game import EvalCache as Cache

    for bad in (0, None):
        with pytest.raises(ParameterError):
            Cache(max_vectors=bad)
    bound = 100
    cache = Cache(max_vectors=bound)
    masks = list(range(1 << 10))
    random.Random(4).shuffle(masks)
    keys = []  # memo keys in insertion order
    for step, mask in enumerate(masks, 1):
        g = Graph(5, mask)
        cache.vector(degree(), g)
        keys.append(next(reversed(cache.vectors)))
        assert len(cache.vectors) == min(step, bound)
        if step % 37 == 0 or step == len(masks):
            assert list(cache.vectors) == keys[-bound:]


def test_resume_rescans_records_of_another_mode_or_version(tmp_path, monkeypatch, shared_cache):
    spec = betweenness_game(4)
    ckpt = tmp_path / "census.jsonl"
    fresh = run_census(spec, 4, shards=4, cache=shared_cache, checkpoint=str(ckpt))
    records = read_records(ckpt)
    assert [(r["mode"], r["code_version"]) for r in records] == [
        ([0, 0, 0, 0], census.CODE_VERSION)
    ] * 4
    assert [r["stable"] for r in records] == [[0], [], [30], []]
    records[0]["mode"] = [0, 1, 2, 3]  # the colouring of a game of four agents
    records[1]["code_version"] = "0.0.0+engine-0"
    records[2]["stable"] = [45]  # a labeling of C4, not its class's mask
    ckpt.write_text("".join(json.dumps(r) + "\n" for r in records))
    scanned = scan_recorder(monkeypatch)
    resumed = run_census(spec, 4, shards=4, cache=shared_cache, resume=str(ckpt))
    assert scanned == [0, 1, 2]
    assert resumed.payload() == fresh.payload()


# ---------------------------------------------------------------------------
# one decision per isomorphism class against the labeled oracle

ORBIT_GAMES = {
    "degree": NumericAgent(degree()),
    "closeness": NumericAgent(closeness()),
    "decay": NumericAgent(decay(Fraction(1, 2))),
    "betweenness": NumericAgent(betweenness()),
    "gametheoretic": NumericAgent(game_theoretic()),
    "rwcloseness": NumericAgent(rw_closeness()),
    "rwbetweenness": NumericAgent(rw_betweenness()),
    "monotone-1": MonotoneAgent("1"),
    "monotone-1p": MonotoneAgent("1p"),
    "monotone-2": MonotoneAgent("2"),
    "monotone-2p": MonotoneAgent("2p"),
    "homophilic": HomophilicAgent(),
    "homophilic-table": HomophilicAgent(HomophilyFunction((0, 1, 3, 6, 10))),
}


def count_class_lists(monkeypatch):
    """Patch census.graph_classes to record the colouring of each call."""
    calls = []
    original = census.graph_classes

    def counted(n, colours=None):
        calls.append(colours)
        return original(n, colours)

    monkeypatch.setattr(census, "graph_classes", counted)
    return calls


@pytest.mark.parametrize("name", sorted(ORBIT_GAMES))
def test_orbit_census_matches_labeled_oracle(name, monkeypatch):
    for n in range(1, 6):
        spec = uniform_game(n, ORBIT_GAMES[name])
        calls = count_class_lists(monkeypatch)
        assert run_census(spec, n).payload() == labeled_census(spec, n)
        assert calls and set(calls) == {(0,) * n}  # one colour: isomorphism classes
        monkeypatch.undo()


# Spectral games decide one graph per class too; classes with a fragile
# verdict are decided per labeled member, so the payloads still match.
TOLERANT_AGENTS = {
    "eigenvector": NumericAgent(eigenvector()),
    "pagerank": NumericAgent(pagerank()),
    "katz": NumericAgent(katz()),
    "katz-0.1": NumericAgent(katz(0.1)),
    "truncated-eigenvector": NumericAgent(eigenvector(), Fraction(2, 5)),
}


@pytest.mark.parametrize("tol", [1e-9, 3e-5, 1e-3])
@pytest.mark.parametrize("name", sorted(TOLERANT_AGENTS))
def test_tolerant_orbit_census_matches_labeled_oracle(name, tol, monkeypatch):
    for n in range(1, 6):
        spec = uniform_game(n, TOLERANT_AGENTS[name], TolerantPolicy(tol))
        calls = count_class_lists(monkeypatch)
        assert run_census(spec, n).payload() == labeled_census(spec, n)
        assert calls and set(calls) == {(0,) * n}
        monkeypatch.undo()


def record_fragile(monkeypatch):
    """Patch census._scan_shard to collect the fragile classes it lists."""
    scan = census._scan_shard
    fragile = []

    def recorded(*args, **kwargs):
        lists = scan(*args, **kwargs)
        fragile.extend(lists[2])
        return lists

    monkeypatch.setattr(census, "_scan_shard", recorded)
    return fragile


def test_katz_deltas_on_the_band_edge_fall_back_to_labeled_members(monkeypatch):
    # Katz with its default alpha gives an edge between two isolated
    # vertices a value of 1 at each end, which is AMBIGUITY_BAND * 1e-3
    spec = uniform_game(5, NumericAgent(katz()), TolerantPolicy(1e-3))
    fragile = record_fragile(monkeypatch)
    assert run_census(spec, 5).payload() == labeled_census(spec, 5)
    assert 0 in fragile  # the empty graph


def star_tolerance_game():
    """Uniform PageRank at a tolerance equal to the loss of a star's centre
    when a leaf edge goes, which the star's labelings read in different
    last digits."""
    star = Graph.from_edges(4, [(0, 3), (1, 3), (2, 3)])
    probe = uniform_game(4, NumericAgent(pagerank()), TolerantPolicy())
    tol = abs(delta_remove(probe, star, 0, 3)[1].value)
    return star, uniform_game(4, NumericAgent(pagerank()), TolerantPolicy(tol))


def test_tolerance_equal_to_a_delta_falls_back_to_labeled_members(monkeypatch):
    star, spec = star_tolerance_game()
    fragile = record_fragile(monkeypatch)
    assert run_census(spec, 4).payload() == labeled_census(spec, 4)
    assert canonical_form(star) in fragile


def test_a_flip_a_rule_typed_end_refuses_reads_no_float(monkeypatch):
    """Leaves of type 1p refuse every edge, so each flip of the star with a
    PageRank centre is decided by a leaf and its report is not fragile,
    though the centre's delta sits on the band edge; the verdict is the one
    an evaluation of every end gives, which is fragile."""
    star, uniform = star_tolerance_game()
    spec = GameSpec((MonotoneAgent("1p"),) * 3 + (NumericAgent(pagerank()),), uniform.policy)
    report = is_apsn(spec, star)
    assert not report.fragile and report.verdict == "unstable"

    def oracle_eval_flip(spec, i, j, adding, cache, before):
        g = before.g
        return two_way_eval_flip(spec, g, g.toggled(pair_index(g.n, i, j)), i, j, adding, cache, before)

    monkeypatch.setattr(game, "_eval_flip", oracle_eval_flip)
    monkeypatch.setattr(game, "rule_of", lambda agent: None)
    evaluated = is_apsn(GameSpec(spec.agents, spec.policy), star)
    assert evaluated.fragile and evaluated.verdict == report.verdict


def test_expansion_of_the_fragile_star_matches_the_per_class_expansion():
    star, spec = star_tolerance_game()
    colours = census.colouring(spec)
    stable, ambiguous, fragile = census._scan_shard(spec, 4, 0, 1)
    assert canonical_form(star) in fragile
    args = (spec, 4, colours, stable, ambiguous, fragile)
    expanded = census._expand_classes(*args, EvalCache())
    assert expanded == expand_classes_per_class(*args, EvalCache())
    # the star's labelings split: some are ambiguous, the others unstable
    labelings = orbit_masks(4, canonical_form(star))
    assert 0 < len(labelings & set(expanded[1])) < len(labelings)


# one rule-typed agent per colour, so that fragile classes decide fast
COLOUR_AGENTS = (
    NumericAgent(closeness()), NumericAgent(degree()), MonotoneAgent("2p"),
    NumericAgent(decay(Fraction(1, 2))), MonotoneAgent("1"),
)


def test_expansion_matches_the_per_class_expansion_for_every_colouring():
    """Every colouring at n <= 5, with its classes dealt in turn to the
    stable, the ambiguous and the fragile list."""
    for n in range(1, 6):
        for colours in colour_patterns(n):
            spec = GameSpec(tuple(COLOUR_AGENTS[c] for c in colours))
            assert census.colouring(spec) == colours
            classes = list(census.graph_classes(n, colours))
            lists = (classes[0::3], classes[1::3], classes[2::3])
            args = (spec, n, colours, *lists)
            expanded = census._expand_classes(*args, EvalCache())
            assert expanded == expand_classes_per_class(*args, EvalCache()), colours


def test_resume_checks_the_fragile_lists(tmp_path, monkeypatch, shared_cache):
    spec = uniform_game(4, NumericAgent(katz()), TolerantPolicy(1e-3))
    ckpt = tmp_path / "census.jsonl"
    fresh = run_census(spec, 4, shards=2, cache=shared_cache, checkpoint=str(ckpt))
    records = read_records(ckpt)
    assert 0 in records[0]["fragile"]
    scanned = scan_recorder(monkeypatch)
    resumed = run_census(spec, 4, shards=2, cache=shared_cache, resume=str(ckpt))
    assert scanned == [] and resumed.payload() == fresh.payload()
    records[0]["fragile"].append(63)  # K4, a class of shard 1
    del records[1]["fragile"]
    ckpt.write_text("".join(json.dumps(r) + "\n" for r in records))
    resumed = run_census(spec, 4, shards=2, cache=shared_cache, resume=str(ckpt))
    assert scanned == [0, 1] and resumed.payload() == fresh.payload()


def halves(n, first, second, policy=ExactPolicy()):
    """A game whose first (n + 1) // 2 agents are ``first`` and the rest
    ``second``."""
    return GameSpec((first,) * ((n + 1) // 2) + (second,) * (n // 2), policy)


def weight_table(n):
    """A symmetric weight table whose off-diagonal weights (i+1)(j+1) - 1 all
    differ for n <= 5, so no relabeling of three to five vertices keeps it."""
    return [[0 if i == j else i + j + i * j for j in range(n)] for i in range(n)]


MIXED_GAMES = {
    "monotone": lambda n: GameSpec(
        tuple(MonotoneAgent(("1", "2p", "2", "1p")[k % 4]) for k in range(n))
    ),
    "homophilic": lambda n: halves(
        n, HomophilicAgent(), HomophilicAgent(HomophilyFunction((0, 1, 3, 6, 10)))
    ),
    "closeness-betweenness": lambda n: halves(
        n, NumericAgent(closeness()), NumericAgent(betweenness())
    ),
    "truncated": lambda n: halves(
        n, NumericAgent(decay(Fraction(1, 2)), Fraction(3, 2)), NumericAgent(decay(Fraction(1, 2)))
    ),
    "eigenvector-pagerank": lambda n: halves(
        n, NumericAgent(eigenvector()), NumericAgent(pagerank()), TolerantPolicy(1e-9)
    ),
    "katz": lambda n: halves(
        n, NumericAgent(katz()), NumericAgent(katz(0.1)), TolerantPolicy(1e-3)
    ),
    "linear": lambda n: uniform_game(n, NumericAgent(linear(weight_table(n)))),
    # a pair a monotone end refuses is decided without reading PageRank's float
    "monotone-pagerank": lambda n: halves(
        n, MonotoneAgent("2"), NumericAgent(pagerank()), TolerantPolicy(1e-9)
    ),
}


@pytest.mark.parametrize("name", sorted(MIXED_GAMES))
def test_mixed_census_matches_labeled_oracle(name, monkeypatch):
    fragile = record_fragile(monkeypatch)
    for n in range(1, 6):
        spec = MIXED_GAMES[name](n)
        assert run_census(spec, n).payload() == labeled_census(spec, n)
        if name == "linear":
            # every vertex has its own colour, so each mask is its own class
            assert census.graph_classes(n, census.colouring(spec)) == range(graph_count(n))
    if name == "katz":
        assert fragile  # the fragile fallback ran


# -- censuses of rule-typed games -------------------------------------------------


def cycled(n, agents, policy=ExactPolicy()):
    """A game whose agent k is ``agents[k % len(agents)]``."""
    return GameSpec(tuple(agents[k % len(agents)] for k in range(n)), policy)


#: (game on n agents, largest n checked) for games whose every agent is
#: rule-typed, so a census reads each class's verdict from pair masks
RULE_TYPED_GAMES = {
    **{f"uniform-{m.kind}": (partial(uniform_game, agent=NumericAgent(m)), 6)
       for m in (degree(), decay(Fraction(1, 2)), harmonic(), closeness())},
    **{f"monotone-{kind}": (partial(uniform_game, agent=MonotoneAgent(kind)), 5)
       for kind in ("1", "1p", "2", "2p")},
    "closeness-degree-monotone": (partial(cycled, agents=[
        NumericAgent(closeness()), MonotoneAgent("2p"), NumericAgent(degree()),
        MonotoneAgent("2"), MonotoneAgent("1p"),
    ]), 5),
    "tolerant-closeness": (
        partial(uniform_game, agent=NumericAgent(closeness()), policy=TolerantPolicy(1e-9)), 5
    ),
}


def forbid_evaluation(monkeypatch):
    """Make the census's ``is_apsn`` and every ``EvalCache.vector`` raise."""
    def refuse(*args, **kwargs):
        raise RuntimeError("a graph was evaluated")

    monkeypatch.setattr(census, "is_apsn", refuse)
    monkeypatch.setattr(EvalCache, "vector", refuse)


@pytest.mark.parametrize("name", sorted(RULE_TYPED_GAMES))
def test_rule_typed_census_matches_labeled_oracle_without_evaluating(name, monkeypatch):
    make, top = RULE_TYPED_GAMES[name]
    for n in range(1, top + 1):
        spec = make(n)
        assert spec.rules[0] == (1 << n) - 1
        expected = labeled_census(spec, n)
        forbid_evaluation(monkeypatch)
        assert run_census(spec, n).payload() == expected, n
        monkeypatch.undo()


def test_rule_typed_census_ignores_shards_jobs_and_resume(tmp_path, monkeypatch):
    spec = RULE_TYPED_GAMES["closeness-degree-monotone"][0](5)
    alone = run_census(spec, 5).payload()
    ckpt = tmp_path / "census.jsonl"
    pooled = run_census(spec, 5, shards=3, jobs=2, checkpoint=str(ckpt)).payload()
    records = read_records(ckpt)
    assert len(records) == 3
    assert all(r["ambiguous"] == r["fragile"] == [] for r in records)
    scanned = scan_recorder(monkeypatch)
    resumed = run_census(spec, 5, shards=3, resume=str(ckpt)).payload()
    assert scanned == [] and resumed == pooled
    assert {**pooled, "shards": 1} == alone


@pytest.mark.parametrize("measure, calls", [
    (closeness(), {6: 5, 7: 7}),
    (degree(), {6: 0, 7: 0}),
    (decay(Fraction(1, 2)), {6: 0, 7: 0}),
])
def test_rule_typed_census_reads_bridges_only_when_no_addition_blocks(measure, calls, monkeypatch):
    """A class's removals, the only flips read off bridges, are read only
    when none of its additions blocks: for closeness that is one
    ``bridge_mask`` call per class with an edge and no blocking addition,
    and a degree or decay game, whose additions block unless the graph is
    complete, reads none."""
    seen = []
    bridge_mask = game.bridge_mask

    def counted(adj, edges):
        seen.append(edges)
        return bridge_mask(adj, edges)

    monkeypatch.setattr(game, "bridge_mask", counted)
    for n, expected in calls.items():
        seen.clear()
        run_census(uniform_game(n, NumericAgent(measure)), n)
        assert len(seen) == expected, n


def test_a_game_with_an_evaluated_agent_still_asks_is_apsn(monkeypatch):
    spec = GameSpec((NumericAgent(closeness()),) * 3 + (NumericAgent(betweenness()),))
    forbid_evaluation(monkeypatch)
    with pytest.raises(RuntimeError, match="evaluated"):
        run_census(spec, 4)
