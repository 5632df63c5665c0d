"""Deterministic process-pool execution of scenario grids.

The Fig. 5/8 evaluation is a grid of hundreds of *independent*
simulations (~75 minutes serially at the paper's full scale).  This
module fans a scenario grid out across worker processes while keeping
every record bit-for-bit identical to serial execution:

* **Determinism** — each simulation derives its RNG streams from
  :func:`repro.core.rng.stable_seed` over the scenario alone, so a
  record does not depend on which process ran it.  Normalisation (one
  float division) happens in the parent with exactly the operand order
  of :func:`repro.experiments.runner.normalized`, so serial and
  parallel runs serialise to identical JSON.
* **Reference scheduling** — the normalisation references (baseline
  policy, 100% memory, 0% overestimation) run as a first phase, each
  exactly once; scenario workers then return raw throughputs and the
  parent divides, so no reference simulation is duplicated across
  workers.
* **Cache affinity** — chunks never mix base-workload keys, so a
  worker generates each trace at most once per chunk and reuses it
  across the policy × memory-level scenarios sharing it, mirroring the
  serial :mod:`~repro.experiments.runner` caches.  Workers hard-reset
  their caches (:func:`~repro.experiments.runner.clear_caches`) once at
  pool startup; across chunks the runner's LRU bounds keep them
  memory-safe while letting a lucky worker reuse a trace it already
  generated.  With ``REPRO_TRACE_CACHE`` set (see
  :mod:`repro.traces.cache`) workers additionally share generated
  traces on disk, so each trace is generated once per *campaign* rather
  than once per worker.

``run_grid`` is the engine behind ``campaign.run_campaign(workers=N)``,
``sweep.sweep(workers=N)`` and the Fig. 5/8 producers' ``workers=``
parameter (CLI: ``python -m repro campaign fig5 --workers N``).

```python
from repro.experiments.parallel import run_grid
raw = run_grid(scenarios, workers=4)
raw[scenario_key(sc)]["normalized_throughput"]
```
"""

from __future__ import annotations

import json
import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict
from time import perf_counter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .runner import clear_caches, normalized, reference_scenario, run
from .scenarios import Scenario

log = logging.getLogger(__name__)

ProgressFn = Callable[[int, int, Scenario], None]
ResultFn = Callable[[Scenario, Dict], None]


def scenario_key(scenario: Scenario) -> str:
    """Stable identity of a scenario within a grid/campaign file."""
    return json.dumps(asdict(scenario), sort_keys=True)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def raw_result(scenario: Scenario, collect_telemetry: bool = False) -> Dict:
    """Simulate one scenario and flatten the result to a picklable dict.

    Contains everything the campaign/sweep/figure layers need, so the
    (large) :class:`SimulationResult` never crosses the process
    boundary.  ``elapsed_s`` is the wall time of this ``run()`` call
    (zero when the result came from the runner cache) — it is volatile
    diagnostics, stripped from :func:`run_grid`'s returned map so the
    map stays deterministic; ``n_events`` is the simulation's processed
    event count (deterministic).  With ``collect_telemetry`` the
    deterministic registry dump rides along under ``"telemetry"`` and
    the provenance rows under ``"provenance"``.
    """
    t0 = perf_counter()
    res = run(scenario, collect_telemetry=collect_telemetry)
    elapsed = perf_counter() - t0
    out = {
        "key": scenario_key(scenario),
        "throughput": res.throughput(),
        "all_jobs_ran": res.all_jobs_ran(),
        "median_response_s": res.median_response_time(),
        "memory_utilization": res.memory_utilization(),
        "oom_kills": res.oom_kills,
        "unrunnable": res.n_unrunnable,
        "summary": res.summary(),
        "elapsed_s": round(elapsed, 6),
        "n_events": res.events_processed,
    }
    if collect_telemetry:
        out["telemetry"] = res.meta["telemetry_dump"]
        out["provenance"] = res.meta["provenance_dump"]
    return out


def _run_chunk(
    scenarios: List[Scenario], collect_telemetry: bool = False
) -> List[Dict]:
    """Pool-worker entry point: simulate one chunk of scenarios, in
    order, through the cached runner.

    Chunks never mix base workloads, so every scenario after the first
    reuses the worker's cached trace.
    """
    return [raw_result(sc, collect_telemetry) for sc in scenarios]


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
def _normalize(raw: Dict, ref_raw: Dict) -> Optional[float]:
    """Replicates :func:`runner.normalized` from two raw results."""
    if not raw["all_jobs_ran"]:
        return None
    t_ref = ref_raw["throughput"]
    if t_ref <= 0:
        return None
    return raw["throughput"] / t_ref


def make_chunks(
    scenarios: Sequence[Scenario], workers: int
) -> List[List[Scenario]]:
    """Split ``scenarios`` into pool tasks, never mixing base workloads.

    Scenarios are grouped by :meth:`Scenario.workload_key` (request
    order preserved); a chunk regenerates its trace when no cached copy
    survives, so a group is split only as far as load balance demands —
    into at most ``workers`` chunks, and not at all when there are
    already enough groups to occupy the pool.
    """
    groups: Dict[tuple, List[Scenario]] = {}
    for sc in scenarios:
        groups.setdefault(sc.workload_key(), []).append(sc)
    chunks: List[List[Scenario]] = []
    for group in groups.values():
        n_chunks = min(
            len(group), max(1, math.ceil(max(1, workers) / len(groups)))
        )
        size = math.ceil(len(group) / n_chunks)
        for i in range(0, len(group), size):
            chunks.append(group[i : i + size])
    return chunks


def _map_chunks(
    pool: ProcessPoolExecutor,
    scenarios: Sequence[Scenario],
    workers: int,
    collect_telemetry: bool = False,
) -> Iterator[Tuple[List[Scenario], List[Dict]]]:
    """Yield ``(chunk, raw results)`` pairs in completion order."""
    futures = {
        pool.submit(_run_chunk, chunk, collect_telemetry): chunk
        for chunk in make_chunks(scenarios, workers)
    }
    for fut in as_completed(futures):
        yield futures[fut], fut.result()


def run_grid(
    scenarios: Iterable[Scenario],
    workers: int = 1,
    progress: Optional[ProgressFn] = None,
    on_result: Optional[ResultFn] = None,
    collect_telemetry: bool = False,
) -> Dict[str, Dict]:
    """Run every unique scenario of a grid, optionally across processes.

    Returns ``{scenario key: raw result}`` (see :func:`raw_result`) with
    a ``"normalized_throughput"`` entry added to each; the map also
    contains the normalisation references, even when they were not
    requested themselves.  ``on_result(scenario, raw)`` fires once per
    unique *requested* scenario as its record becomes available —
    request order when serial, completion order when parallel — and
    ``progress(i, n, scenario)`` counts them.

    ``workers <= 1`` runs inline in this process against the shared
    runner caches (byte-identical records, zero pool overhead); workers
    receive scenario chunks, simulate against their own caches, and
    return raw metric dicts which the parent normalises and merges.

    ``collect_telemetry`` attaches each scenario's deterministic metrics
    dump to its raw result (``"telemetry"``) — identical serial or
    parallel.  The wall-clock ``elapsed_s`` field is visible to
    ``on_result`` but stripped from the returned map, which therefore
    stays bit-identical between serial and parallel execution.
    """
    unique: Dict[str, Scenario] = {}
    for sc in scenarios:
        unique.setdefault(scenario_key(sc), sc)
    n = len(unique)

    # Clamp the pool size to the machine: oversubscribed CPU-bound
    # simulation workers only add scheduling overhead.  The clamp never
    # crosses the serial/pool boundary — ``workers=4`` on a one-core box
    # still runs through the pool (one worker), so behaviour differs
    # only in degree of parallelism, never in code path.
    use_pool = workers > 1
    available = os.cpu_count() or 1
    if workers > available:
        log.warning(
            "requested workers=%d exceeds cpu_count=%d; clamping",
            workers,
            available,
        )
        workers = available

    if not use_pool:
        raw_by_key: Dict[str, Dict] = {}
        for i, (key, sc) in enumerate(unique.items()):
            raw = raw_result(sc, collect_telemetry)
            raw["normalized_throughput"] = normalized(sc)
            raw_by_key[key] = raw
            ref_key = scenario_key(reference_scenario(sc))
            if ref_key not in raw_by_key and ref_key not in unique:
                ref_raw = raw_result(reference_scenario(sc), collect_telemetry)
                ref_raw["normalized_throughput"] = normalized(
                    reference_scenario(sc)
                )
                raw_by_key[ref_key] = ref_raw
            if on_result is not None:
                on_result(sc, raw)
            if progress is not None:
                progress(i + 1, n, sc)
        return _strip_volatile(raw_by_key)

    refs: Dict[str, Scenario] = {}
    for sc in unique.values():
        ref = reference_scenario(sc)
        refs.setdefault(scenario_key(ref), ref)

    raw_by_key = {}
    completed = 0

    def finish(sc: Scenario, raw: Dict) -> None:
        nonlocal completed
        completed += 1
        ref_raw = raw_by_key[scenario_key(reference_scenario(sc))]
        raw["normalized_throughput"] = _normalize(raw, ref_raw)
        if on_result is not None:
            on_result(sc, raw)
        if progress is not None:
            progress(completed, n, sc)

    with ProcessPoolExecutor(
        max_workers=workers, initializer=clear_caches
    ) as pool:
        # Phase 1: every distinct normalisation reference, exactly once.
        for _chunk, results in _map_chunks(
            pool, list(refs.values()), workers, collect_telemetry
        ):
            for raw in results:
                raw_by_key[raw["key"]] = raw
        # References normalise against themselves (== 1.0 when runnable).
        for key in refs:
            raw = raw_by_key[key]
            raw["normalized_throughput"] = _normalize(raw, raw)
        # References that are themselves grid members are done already.
        for key, sc in unique.items():
            if key in raw_by_key:
                finish(sc, raw_by_key[key])
        # Phase 2: the remaining grid, chunked by base workload.
        rest = [sc for key, sc in unique.items() if key not in raw_by_key]
        for chunk, results in _map_chunks(
            pool, rest, workers, collect_telemetry
        ):
            for sc, raw in zip(chunk, results):
                raw_by_key[raw["key"]] = raw
                finish(sc, raw)
    return _strip_volatile(raw_by_key)


def _strip_volatile(raw_by_key: Dict[str, Dict]) -> Dict[str, Dict]:
    """Drop wall-clock fields so the grid map is deterministic."""
    for raw in raw_by_key.values():
        raw.pop("elapsed_s", None)
    return raw_by_key
