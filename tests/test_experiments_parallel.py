"""Deterministic parallel grid execution (repro.experiments.parallel)."""

import json

import pytest

from repro.experiments import runner
from repro.experiments.parallel import (
    make_chunks,
    raw_result,
    run_grid,
    scenario_key,
)
from repro.experiments.runner import reference_scenario
from repro.experiments.scenarios import Scenario

TINY = dict(n_nodes=48, n_jobs=50)


@pytest.fixture(autouse=True)
def fresh_caches():
    runner.clear_caches()
    yield
    runner.clear_caches()


def tiny_grid(seed=2):
    return [
        Scenario(policy=p, memory_level=lvl, seed=seed, **TINY)
        for p in ("static", "dynamic")
        for lvl in (50, 100)
    ]


# ----------------------------------------------------------------------
# Chunking
# ----------------------------------------------------------------------
def test_chunks_never_mix_base_workloads():
    grid = tiny_grid(seed=2) + tiny_grid(seed=3)
    chunks = make_chunks(grid, workers=4)
    assert len(chunks) == 4  # each workload's group split in two
    for chunk in chunks:
        assert len({sc.workload_key() for sc in chunk}) == 1
    # every scenario appears exactly once
    flat = [scenario_key(sc) for chunk in chunks for sc in chunk]
    assert sorted(flat) == sorted(scenario_key(sc) for sc in grid)


def test_chunk_size_default_scales_with_workers():
    grid = tiny_grid()
    many = make_chunks(grid, workers=4)
    assert all(chunk for chunk in many)
    one = make_chunks(grid, workers=1)
    assert len(one) == 1


# ----------------------------------------------------------------------
# Serial engine semantics
# ----------------------------------------------------------------------
def test_run_grid_serial_matches_runner():
    grid = tiny_grid()
    raw = run_grid(grid, workers=1)
    for sc in grid:
        assert raw[scenario_key(sc)]["normalized_throughput"] == (
            runner.normalized(sc)
        )
        assert raw[scenario_key(sc)]["summary"] == runner.run(sc).summary()


def test_run_grid_includes_references():
    grid = [Scenario(policy="dynamic", memory_level=50, seed=2, **TINY)]
    raw = run_grid(grid, workers=1)
    ref_key = scenario_key(reference_scenario(grid[0]))
    assert ref_key in raw
    assert raw[ref_key]["normalized_throughput"] == pytest.approx(1.0)


def test_run_grid_serial_callbacks_in_request_order():
    grid = tiny_grid()
    seen = []
    run_grid(grid, workers=1,
             progress=lambda i, n, sc: seen.append((i, n, sc.policy)))
    assert seen == [(1, 4, "static"), (2, 4, "static"),
                    (3, 4, "dynamic"), (4, 4, "dynamic")]


def test_run_grid_dedupes_requests():
    sc = Scenario(policy="static", memory_level=100, seed=2, **TINY)
    seen = []
    run_grid([sc, sc, sc], workers=1,
             on_result=lambda s, raw: seen.append(raw["key"]))
    assert seen == [scenario_key(sc)]


# ----------------------------------------------------------------------
# Parallel identity
# ----------------------------------------------------------------------
def test_parallel_identical_to_serial():
    grid = tiny_grid()
    serial = run_grid(grid, workers=1)
    runner.clear_caches()
    parallel = run_grid(grid, workers=4)
    assert set(serial) == set(parallel)
    for key in serial:
        # exact equality, not approx: records must be bit-identical
        assert serial[key] == parallel[key]
    # ... and so must their JSON serialisation
    assert (json.dumps(serial, sort_keys=True)
            == json.dumps(parallel, sort_keys=True))


def test_parallel_on_result_covers_all_requested():
    grid = tiny_grid()
    seen = []
    raw = run_grid(grid, workers=2,
                   on_result=lambda sc, r: seen.append(r["key"]),
                   progress=lambda i, n, sc: None)
    assert sorted(seen) == sorted(scenario_key(sc) for sc in grid)
    for key in seen:
        assert "normalized_throughput" in raw[key]


def test_raw_result_fields():
    sc = Scenario(policy="static", memory_level=100, seed=2, **TINY)
    raw = raw_result(sc)
    assert raw["key"] == scenario_key(sc)
    assert raw["throughput"] > 0
    assert raw["all_jobs_ran"] is True
    assert isinstance(raw["oom_kills"], int)
    assert isinstance(raw["unrunnable"], int)
    assert raw["summary"]["throughput_jobs_per_s"] == raw["throughput"]
