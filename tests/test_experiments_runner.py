"""Runner caching and normalisation."""

import pytest

from repro.experiments import runner
from repro.experiments.scenarios import Scenario

SMALL = dict(n_nodes=48, n_jobs=60, seed=3)


@pytest.fixture(autouse=True)
def fresh_caches():
    runner.clear_caches()
    yield
    runner.clear_caches()


def test_base_workload_cached():
    sc = Scenario(**SMALL)
    a = runner.base_workload(sc)
    b = runner.base_workload(sc.with_(policy="dynamic", overestimation=0.6))
    assert a is b  # same base trace across the sweep


def test_run_cached_per_policy_and_level():
    sc = Scenario(policy="static", memory_level=75, **SMALL)
    a = runner.run(sc)
    assert runner.run(sc) is a
    b = runner.run(sc.with_(policy="dynamic"))
    assert b is not a


def test_reference_is_baseline_100():
    sc = Scenario(policy="dynamic", memory_level=50, overestimation=0.6, **SMALL)
    ref = runner.reference(sc)
    assert ref.policy == "baseline"
    assert ref.meta["scenario"].memory_level == 100
    assert ref.meta["scenario"].overestimation == 0.0


def test_normalized_reasonable_range():
    sc = Scenario(policy="dynamic", memory_level=100, **SMALL)
    val = runner.normalized(sc)
    assert val is not None
    assert 0.5 < val < 1.5


def test_normalized_mean_single_repeat_matches_normalized():
    sc = Scenario(policy="dynamic", memory_level=100, **SMALL)
    assert runner.normalized_mean(sc, repeats=1) == runner.normalized(sc)


def test_normalized_mean_averages_seeds():
    sc = Scenario(policy="dynamic", memory_level=100, **SMALL)
    mean = runner.normalized_mean(sc, repeats=2)
    a = runner.normalized(sc)
    b = runner.normalized(sc.with_(seed=runner.repeat_seed(sc.seed, 1)))
    assert mean == pytest.approx((a + b) / 2)


def test_normalized_mean_validates():
    sc = Scenario(**SMALL)
    with pytest.raises(ValueError):
        runner.normalized_mean(sc, repeats=0)


# ----------------------------------------------------------------------
# Repeat-seed derivation (stable_seed, no neighbouring-base collisions)
# ----------------------------------------------------------------------
def test_repeat_seed_rep0_is_base():
    assert runner.repeat_seed(7, 0) == 7


def test_repeat_seed_no_collision_between_neighbouring_bases():
    # The old scheme (seed + 1000 * rep) made bases 0 and 1000 share
    # streams: base 0 / rep 1 == base 1000 / rep 0.  Gone now.
    streams = {
        base: [runner.repeat_seed(base, rep) for rep in range(5)]
        for base in (0, 1000, 2000)
    }
    for base, seq in streams.items():
        assert seq[0] == base
        assert len(set(seq)) == len(seq)
    assert not set(streams[0][1:]) & set(streams[1000])
    assert not set(streams[1000][1:]) & set(streams[2000])
    assert runner.repeat_seed(0, 1) != 1000


def test_repeat_seed_deterministic_and_validated():
    assert runner.repeat_seed(3, 2) == runner.repeat_seed(3, 2)
    with pytest.raises(ValueError):
        runner.repeat_seed(0, -1)


def test_repeat_scenarios_structure():
    sc = Scenario(**SMALL)
    reps = runner.repeat_scenarios(sc, 3)
    assert [r.seed for r in reps][0] == sc.seed
    assert len({r.seed for r in reps}) == 3
    assert all(r.with_(seed=0) == sc.with_(seed=0) for r in reps)


# ----------------------------------------------------------------------
# LRU cache bounds
# ----------------------------------------------------------------------
def test_lru_cache_evicts_least_recently_used():
    cache = runner.LRUCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1          # refresh 'a'
    cache.put("c", 3)                   # evicts 'b'
    assert "b" not in cache
    assert cache.keys() == ["a", "c"]
    assert len(cache) == 2


def test_lru_cache_rejects_zero_size():
    with pytest.raises(ValueError):
        runner.LRUCache(0)


def test_result_cache_bounded_over_campaign(monkeypatch):
    monkeypatch.setattr(runner, "_workload_cache", runner.LRUCache(2))
    monkeypatch.setattr(runner, "_result_cache", runner.LRUCache(2))
    for level in (37, 50, 75, 100):
        runner.run(Scenario(memory_level=level, **SMALL))
    assert len(runner._result_cache) <= 2
    assert len(runner._workload_cache) <= 2


def test_overestimated_run_uses_scaled_requests():
    sc = Scenario(policy="static", memory_level=100, overestimation=1.0, **SMALL)
    res = runner.run(sc)
    wl = runner.base_workload(sc)
    scen_jobs = {r.jid: r for r in res.records}
    for job in wl.jobs[:10]:
        if job.jid in scen_jobs:
            assert scen_jobs[job.jid].mem_request_mb == int(
                round(job.usage.peak() * 2.0)
            )
