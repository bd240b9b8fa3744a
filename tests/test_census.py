import json
import random
from fractions import Fraction

import pytest

from apsn import census
from apsn.census import census_cap, conjecture_report, game_fingerprint, run_census
from apsn.centrality import (
    betweenness,
    decay,
    degree,
    eigenvector,
    rw_closeness,
)
from apsn.errors import ParameterError, SizeGuardError
from apsn.game import (
    NumericAgent,
    TolerantPolicy,
    is_apsn,
    uniform_game,
)
from apsn.graphs import Graph, canonical_form, graph_count


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


def test_checkpoint_resume(tmp_path, shared_cache):
    spec = decay_game(4)
    ckpt = tmp_path / "census.jsonl"
    full = run_census(spec, 4, shards=4, cache=shared_cache, checkpoint=str(ckpt))
    assert ckpt.exists() and len(ckpt.read_text().splitlines()) == 4
    resumed = run_census(spec, 4, shards=4, cache=shared_cache, resume=str(ckpt))
    assert resumed.payload() == full.payload()


def betweenness_game(n):
    # stable at n = 4: the empty graph (mask 0) and the C4s 30, 45 and 51,
    # one in each of four shards, so every checkpoint record carries a mask
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
    assert census_cap(uniform_game(3, NumericAgent(rw_closeness()))) == 6
    assert (
        census_cap(uniform_game(3, NumericAgent(eigenvector()), TolerantPolicy())) == 5
    )
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
        conjecture_report("eigenvector", 6)


def test_conjecture_report_size_guard_rwb():
    with pytest.raises(SizeGuardError):
        conjecture_report("rwbetweenness", 7)


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
        cache.graph_facts(g)
        keys.append(next(reversed(cache.vectors)))
        assert len(cache.vectors) == min(step, bound)
        assert len(cache.facts) == min(step, bound)
        if step % 37 == 0 or step == len(masks):
            assert list(cache.vectors) == keys[-bound:]
