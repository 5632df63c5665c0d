"""Scenario runner with workload/result caching.

Figure producers request many runs that share generated workloads (the
overestimation sweep reuses one trace with rescaled requests — exactly
the paper's §3.2.1 procedure) and share reference runs (Fig. 5/8
normalise every bar by the baseline on the 100%-memory system).  The
module-level caches make each unique simulation run exactly once per
process.

Both caches are LRU-bounded: a full-scale campaign walks hundreds of
scenarios whose workloads hold per-job usage traces, so unbounded
memoisation would grow without limit over the run.  ``clear_caches()``
remains the hard reset (used by the :mod:`repro.experiments.parallel`
pool workers).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, List, Optional

from ..core.rng import stable_seed
from ..metrics.records import SimulationResult
from ..obs.telemetry import Telemetry
from ..scheduler.simulator import simulate
from ..traces import cache as trace_cache
from ..traces.pipeline import grizzly_workload, synthetic_workload
from ..traces.workload import Workload
from .scenarios import Scenario


class LRUCache:
    """Size-bounded mapping evicting the least-recently-used entry.

    ``get`` refreshes recency; ``put`` inserts/refreshes and evicts from
    the cold end until the bound holds.  Deliberately minimal — only
    what the runner caches need.
    """

    def __init__(self, maxsize: int):
        if maxsize < 1:
            raise ValueError(f"cache maxsize must be >= 1, got {maxsize}")
        self.maxsize = int(maxsize)
        self._data: "OrderedDict[Hashable, object]" = OrderedDict()

    def get(self, key: Hashable, default=None):
        try:
            value = self._data[key]
        except KeyError:
            return default
        self._data.move_to_end(key)
        return value

    def put(self, key: Hashable, value) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def clear(self) -> None:
        self._data.clear()

    def keys(self) -> List[Hashable]:
        """Keys from least- to most-recently used."""
        return list(self._data.keys())

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)


#: Default cache bounds.  Workloads dominate memory (per-job usage
#: traces), so they get the tighter bound; results keep the reference
#: runs of a whole figure grid resident.
WORKLOAD_CACHE_SIZE = 8
RESULT_CACHE_SIZE = 64

_workload_cache = LRUCache(WORKLOAD_CACHE_SIZE)
_result_cache = LRUCache(RESULT_CACHE_SIZE)


def clear_caches() -> None:
    _workload_cache.clear()
    _result_cache.clear()


def base_workload(scenario: Scenario) -> Workload:
    """The scenario's generated trace at 0% overestimation (cached).

    Two cache layers: the in-process LRU, and — when the
    ``REPRO_TRACE_CACHE`` directory is configured — the on-disk cache
    shared by parallel campaign workers (see :mod:`repro.traces.cache`).
    """
    key = scenario.workload_key()
    wl = _workload_cache.get(key)
    if wl is not None:
        return wl
    disk_key = trace_cache.cache_key("base_workload", *key)
    wl = trace_cache.load_workload(disk_key)
    if wl is not None:
        _workload_cache.put(key, wl)
        return wl
    seed = stable_seed(*scenario.generation_seed_key(), base=1234)
    if scenario.trace == "grizzly":
        wl = grizzly_workload(
            overestimation=0.0,
            n_system_nodes=scenario.n_nodes,
            scale_jobs=scenario.n_jobs,
            seed=seed,
        )
    else:
        wl = synthetic_workload(
            n_jobs=scenario.n_jobs,
            frac_large=scenario.frac_large,
            overestimation=0.0,
            target_utilization=scenario.target_utilization,
            n_system_nodes=scenario.n_nodes,
            max_job_nodes=scenario.effective_max_job_nodes(),
            seed=seed,
        )
    _workload_cache.put(key, wl)
    trace_cache.store_workload(disk_key, wl)
    return wl


#: Provenance ring bound for campaign-collected telemetry: per-scenario
#: dumps keep the *tail* of the causal stream (enough to bisect a run
#: that went wrong) without holding a full graph per scenario.
CAMPAIGN_PROV_ENTRIES = 4_000


def run(scenario: Scenario, collect_telemetry: bool = False) -> SimulationResult:
    """Simulate one scenario (cached on the full scenario tuple).

    With ``collect_telemetry`` the run is observed by a
    :class:`repro.obs.Telemetry` instance; the deterministic metrics
    registry dump lands in ``result.meta["telemetry_dump"]`` and the
    provenance rows in ``result.meta["provenance_dump"]``.  Telemetry
    does not change the simulation outcome, so the cache key is shared —
    but a cached result without the dumps is re-run when they are
    requested.
    """
    key = (
        scenario.workload_key(),
        scenario.policy,
        scenario.memory_level,
        round(scenario.overestimation, 6),
    )
    res = _result_cache.get(key)
    if res is not None and (
        not collect_telemetry
        or ("telemetry_dump" in res.meta and "provenance_dump" in res.meta)
    ):
        return res
    wl = base_workload(scenario)
    if scenario.overestimation > 0:
        jobs = wl.with_overestimation(scenario.overestimation).jobs
    else:
        jobs = wl.fresh_jobs()
    telemetry = (
        Telemetry(trace_spans=False, max_prov_entries=CAMPAIGN_PROV_ENTRIES)
        if collect_telemetry
        else None
    )
    res = simulate(
        jobs,
        scenario.system_config(),
        policy=scenario.policy,
        profiles=wl.profiles,
        telemetry=telemetry,
    )
    res.meta["scenario"] = scenario
    if telemetry is not None:
        res.meta["telemetry_dump"] = telemetry.registry.to_dict()
        res.meta["provenance_dump"] = telemetry.provenance.to_rows()
    _result_cache.put(key, res)
    return res


def reference_scenario(scenario: Scenario) -> Scenario:
    """The normalisation reference of ``scenario``: baseline policy,
    100% memory, 0% overestimation, same trace/mix/scale (paper Fig. 5
    caption)."""
    return scenario.with_(policy="baseline", memory_level=100, overestimation=0.0)


def reference(scenario: Scenario) -> SimulationResult:
    """The normalisation reference run (see :func:`reference_scenario`)."""
    return run(reference_scenario(scenario))


def normalized(scenario: Scenario) -> Optional[float]:
    """Normalised throughput of a scenario, or ``None`` (missing bar)."""
    res = run(scenario)
    if not res.all_jobs_ran():
        return None
    ref = reference(scenario)
    t_ref = ref.throughput()
    if t_ref <= 0:
        return None
    return res.throughput() / t_ref


def repeat_seed(base_seed: int, rep: int) -> int:
    """Trace seed of repetition ``rep`` for a scenario seeded ``base_seed``.

    Repetition 0 is the scenario's own seed; later repetitions derive
    through :func:`repro.core.rng.stable_seed` so that neighbouring base
    seeds never share repeat streams (the old ``seed + 1000 * rep``
    scheme collided: bases 0 and 1000 produced overlapping sequences).
    """
    if rep < 0:
        raise ValueError(f"repetition index must be >= 0, got {rep}")
    if rep == 0:
        return base_seed
    return stable_seed("normalized-mean-repeat", base_seed, rep)


def repeat_scenarios(scenario: Scenario, repeats: int) -> List[Scenario]:
    """The ``repeats`` independent-seed variants of ``scenario``."""
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    return [
        scenario.with_(seed=repeat_seed(scenario.seed, rep))
        for rep in range(repeats)
    ]


def normalized_mean(scenario: Scenario, repeats: int = 1) -> Optional[float]:
    """Mean normalised throughput over ``repeats`` trace seeds.

    The paper simulates seven sampled Grizzly weeks per configuration;
    this averages independent generated weeks (stable derived seeds) the
    same way.  Returns ``None`` if *any* repetition had unrunnable jobs,
    per the paper's missing-bar convention.
    """
    values = []
    for rep_scenario in repeat_scenarios(scenario, repeats):
        value = normalized(rep_scenario)
        if value is None:
            return None
        values.append(value)
    return float(sum(values) / len(values))
