"""The benchmark's four workloads and their output checks.

Every workload is a synthetic trace at memory level 50 with a quarter of
the jobs large-memory.  The run seed jitters the trace's submit times, so
each seed gives the same job mix on its own schedule.  Load is a closed
loop with one client: each simulation or query starts after the previous
one finished.

Sim workloads (``dyn1024``, ``static16k``, ``dyn16k_obs``) set up
:attr:`SimSpec.inputs` inputs, each a cold trace generation plus
``build_simulation`` (timed as set-up), run one untimed warm-up
simulation, then simulate the inputs round-robin until the measuring
time is used up (each input at least once, the first twice).  The what-if
workload (``whatif1024``) opens :data:`WHATIF_SESSIONS` ``WhatIf``
sessions forked at 0.9 x the base makespan and answers distinct
``SubmitJob`` queries round-robin.

With tracing on, units of work run under :mod:`spans`: a sim-workload
unit is one set-up plus simulation, alternating with an untraced repeat
of the same input (at least :data:`TRACED_UNITS` pairs); the what-if unit
is one session set-up plus :data:`TRACED_QUERIES` queries, followed by
untraced repeats of those queries.  The untraced repeats give
``trace.overhead_frac`` and must reproduce the traced outputs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import spans
from calibrate import SpeedProbe
from repro.core.rng import stable_seed
from repro.experiments import runner
from repro.experiments.scenarios import Scenario
from repro.jobs.job import Job
from repro.jobs.states import JobState
from repro.jobs.usage import UsageTrace
from repro.obs.export import parse_prometheus_text
from repro.obs.telemetry import Telemetry
from repro.scheduler import simulator
from repro.whatif import SubmitJob, WhatIf

#: Scenario seed of every workload's trace.  The run seed does not pick
#: the trace: it jitters the submit times (see :meth:`Bench.jobs`), so
#: every seed simulates the same job mix on a different schedule.
TRACE_SEED = 0
#: Each submit time moves by a uniform offset in +-JITTER_S seconds.
JITTER_S = 900.0
DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

#: Simulated seconds per engine slice of a timed simulation.
SLICE_S = 1800.0
#: Jobs of the untimed warm-up simulation (a prefix of the first trace).
WARMUP_JOBS = 40
#: Traced set-up + simulation units of a traced sim-workload run.
TRACED_UNITS = 2

WHATIF_SESSIONS = 2
WHATIF_FORK_FRAC = 0.9
#: Distinct queries per cycle; a run answers whole cycles (at least one,
#: so p90 has ten samples beyond it), so every run weighs the same mix.
QUERY_CYCLE = 100
#: Queries compared against a fresh simulation of the same counterfactual.
CHECKED_QUERIES = (0, 33, 51, 98)
TRACED_QUERIES = 40

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "sim_s": "s",
    "jobs_per_s": "1/s",
    "query_s_p50": "s",
    "query_s_p90": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class SimSpec:
    policy: str
    n_nodes: int
    n_jobs: int
    #: full ``Telemetry()`` plus its export, as ``repro simulate --telemetry``
    observed: bool = False
    #: distinct jittered inputs (and cold set-ups) per run
    inputs: int = 3


SIM_SPECS = {
    "dyn1024": SimSpec("dynamic", 1024, 1000),
    "static16k": SimSpec("static", 16384, 1000),
    "dyn16k_obs": SimSpec("dynamic", 16384, 300, observed=True, inputs=2),
}
WHATIF_SPEC = SIM_SPECS["dyn1024"]
WORKLOADS = tuple(SIM_SPECS) + ("whatif1024",)


class CheckFailed(Exception):
    """An operation's output did not pass its correctness check."""


# ----------------------------------------------------------------------
# Outputs and their checks
# ----------------------------------------------------------------------
def record_rows(result) -> List[tuple]:
    return [
        (r.jid, r.n_nodes, r.submit_time, r.start_time, r.finish_time,
         r.base_runtime, r.actual_runtime, r.mem_request_mb, r.peak_usage_mb,
         r.restarts, r.state.name, r.user)
        for r in result.records
    ]


def digest(result) -> str:
    """Digest of the job records plus ``summary()`` (exact float reprs)."""
    payload = repr((record_rows(result), sorted(result.unrunnable),
                    sorted(result.summary().items())))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def check_complete(result, n_jobs: int) -> None:
    """Every job ended completed or unrunnable, each exactly once."""
    done = [r.jid for r in result.records if r.state is JobState.COMPLETED]
    if len(done) != len(result.records):
        raise CheckFailed("a job ended neither completed nor unrunnable")
    ended = set(done) | set(result.unrunnable)
    if len(done) + len(result.unrunnable) != n_jobs or len(ended) != n_jobs:
        raise CheckFailed(
            f"{len(ended)} of {n_jobs} jobs ended "
            f"({len(done)} records, {len(result.unrunnable)} unrunnable)")


def check_dumps(directory: Path) -> None:
    """The exported telemetry is there and its Prometheus text parses."""
    for name in ("metrics.jsonl", "metrics.csv", "metrics.prom", "spans.jsonl",
                 "events.jsonl", "provenance.jsonl", "blame.json", "meta.json"):
        path = directory / name
        if not path.is_file() or path.stat().st_size == 0:
            raise CheckFailed(f"telemetry dump {name} missing or empty")
    try:
        samples = parse_prometheus_text((directory / "metrics.prom").read_text())
    except ValueError as exc:
        raise CheckFailed(f"metrics.prom does not parse: {exc}") from exc
    if not samples:
        raise CheckFailed("metrics.prom holds no samples")


class Digests:
    """Per-key output digests: repeats must agree, and on the seed of the
    workload's entry in ``digests.json`` they must equal the recorded ones."""

    def __init__(self, workload: str, seed: int):
        self.seen: Dict[str, str] = {}
        entry = json.loads(DIGESTS_PATH.read_text()).get(workload, {})
        self.expected = entry.get("digests", {}) if entry.get("seed") == seed else {}

    def to_record(self) -> Dict[str, str]:
        """The digests worth recording: inputs, bases, checked queries."""
        checked = {f"query{q}" for q in CHECKED_QUERIES}
        return {key: value for key, value in sorted(self.seen.items())
                if not key.startswith("query") or key in checked}

    def check(self, key: str, value: str) -> None:
        first = self.seen.setdefault(key, value)
        if value != first:
            raise CheckFailed(f"{key}: digest {value} differs from repeat {first}")
        want = self.expected.get(key)
        if want is not None and value != want:
            raise CheckFailed(f"{key}: digest {value} differs from recorded {want}")


# ----------------------------------------------------------------------
# Run bookkeeping
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """What one benchmark run measured."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: timed samples by kind: ``sim``, ``query``, ``setup`` (what-if:
    #: ``setup.generate`` + ``setup.session``), ``traced``, ``untraced``
    probe: SpeedProbe = field(default_factory=SpeedProbe)
    jobs_simulated: int = 0
    #: per traced unit: per-layer metric values and the unit's range of
    #: ``traced`` samples (which calibrate its self times)
    layers: List[Tuple[Dict[str, float], int, int]] = field(default_factory=list)
    #: span name -> [calls, total, self] summed over traced units
    spans: Dict[str, List[float]] = field(default_factory=dict)
    #: recordable output digests by key (``input0``, ``base1``, ``query51``)
    digests: Dict[str, str] = field(default_factory=dict)

    def op(self, fn: Callable, *args):
        """Run one operation; a raise or failed check counts against it."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # benchmark boundary: record and go on
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None

    def add_layers(self, rec: spans.Recorder, values: Dict[str, float],
                   n_traced: int) -> None:
        """Record a unit whose last ``n_traced`` samples were traced."""
        end = len(self.probe.raw("traced"))
        self.layers.append((values, end - n_traced, end))
        for name, row in rec.stats.items():
            acc = self.spans.setdefault(name, [0, 0.0, 0.0])
            for k in range(3):
                acc[k] += row[k]

    def setups(self) -> List[float]:
        cal = self.probe.calibrated
        if cal("setup.session"):
            return [a + b for a, b in zip(cal("setup.generate"), cal("setup.session"))]
        return cal("setup")

    def end_to_end(self, peak_rss_mb: float) -> Dict[str, float]:
        """End-to-end metrics, times in calibrated seconds."""
        sims = self.probe.calibrated("sim")
        queries = self.probe.calibrated("query") or sims
        return {
            "sim_s": statistics.median(sims),
            "jobs_per_s": self.jobs_simulated / sum(sims),
            "query_s_p50": statistics.median(queries),
            "query_s_p90": float(np.percentile(queries, 90)),
            "setup_s": statistics.median(self.setups()),
            "peak_rss_mb": peak_rss_mb,
        }

    def per_layer(self) -> Dict[str, float]:
        """Medians over units; self times calibrated like their unit's
        traced samples."""
        raw, cal = self.probe.raw("traced"), self.probe.calibrated("traced")
        units = []
        for values, start, end in self.layers:
            scale = sum(cal[start:end]) / sum(raw[start:end])
            units.append({name: value * scale if name.endswith("self_s") else value
                          for name, value in values.items()})
        values = {name: statistics.median(unit[name] for unit in units)
                  for name in units[0]}
        traced = statistics.median(cal)
        untraced = statistics.median(self.probe.calibrated("untraced"))
        values["trace.overhead_frac"] = traced / untraced - 1.0
        return values


def finish_sliced(handle, timing):
    """``handle.finish()``, advancing the engine :data:`SLICE_S` simulated
    seconds at a time so the speed probe can run between slices."""
    queue = handle.engine.queue
    until = handle.engine.now + SLICE_S
    while queue.peek_time() is not None:
        handle.run_until(until)
        timing.checkpoint()
        until += SLICE_S
    return handle.finish()


def _scenario(spec: SimSpec) -> Scenario:
    return Scenario(
        trace="synthetic", policy=spec.policy, memory_level=50,
        frac_large=0.25, overestimation=0.0, n_nodes=spec.n_nodes,
        n_jobs=spec.n_jobs, seed=TRACE_SEED,
    )


class Bench:
    """What both workload kinds share: the trace, its inputs, the tally."""

    def __init__(self, name: str, spec: SimSpec, seed: int):
        self.spec = spec
        self.seed = seed
        self.scenario = _scenario(spec)
        self.config = self.scenario.system_config()
        self.workload = None
        self.digests = Digests(name, seed)
        self.out = Outcome()

    def generate(self):
        """Cold trace generation, as a fresh user pays it."""
        runner.clear_caches()
        self.workload = runner.base_workload(self.scenario)

    def jobs(self, i: int) -> List[Job]:
        """Fresh jobs of input ``i``: the trace with seeded submit jitter."""
        rng = np.random.default_rng(stable_seed("perfbench-jitter", self.seed, i))
        offsets = rng.uniform(-JITTER_S, JITTER_S, len(self.workload.jobs))
        return [
            dataclasses.replace(job, submit_time=max(0.0, job.submit_time + float(dt)))
            for job, dt in zip(self.workload.jobs, offsets)
        ]


# ----------------------------------------------------------------------
# Sim workloads
# ----------------------------------------------------------------------
class SimBench(Bench):
    def __init__(self, name: str, seed: int, workdir: Path):
        super().__init__(name, SIM_SPECS[name], seed)
        #: where the telemetry dumps go (temporary directories)
        self.workdir = workdir

    def build(self, jobs: List[Job]):
        return simulator.build_simulation(
            jobs, self.config, policy=self.spec.policy,
            profiles=self.workload.profiles,
            telemetry=Telemetry() if self.spec.observed else None,
        )

    def setup(self, i: int):
        """Generate the trace and wire input ``i`` (timed)."""
        with self.out.probe.sample("setup"):
            self.generate()
            return self.build(self.jobs(i))

    def _dump_dir(self):
        if not self.spec.observed:
            return contextlib.nullcontext()
        return tempfile.TemporaryDirectory(prefix=".perfbench-", dir=self.workdir)

    def finish(self, handle, kind: str):
        """Drain the simulation plus the telemetry export (timed as
        ``kind``), then check the dumps."""
        with self._dump_dir() as dump:
            with self.out.probe.sample(kind) as timing:
                result = finish_sliced(handle, timing)
                if dump is not None:
                    handle.telemetry.export(dump)
            if dump is not None:
                check_dumps(Path(dump))
        return result

    def check(self, i: int, result) -> None:
        check_complete(result, self.spec.n_jobs)
        self.digests.check(f"input{i}", digest(result))

    def simulate(self, i: int, handle, kind: str) -> None:
        self.check(i, self.finish(handle, kind))
        if kind == "sim":
            self.out.jobs_simulated += self.spec.n_jobs

    def warm_up(self) -> None:
        """One untimed small simulation: imports and first calls."""
        self.finish(self.build(self.jobs(0)[:WARMUP_JOBS]), "warmup")

    def run(self, seconds: float) -> Outcome:
        inputs = self.spec.inputs
        handles = [self.setup(i) for i in range(inputs)]
        self.warm_up()
        deadline = time.perf_counter() + seconds
        n = 0
        while n <= inputs or time.perf_counter() < deadline:
            i = n % inputs
            handle = handles[i] if handles[i] is not None else self.build(self.jobs(i))
            handles[i] = None
            self.out.op(self.simulate, i, handle, "sim")
            n += 1
        return self.out

    def _traced_unit(self, i: int):
        self.generate()
        handle = self.build(self.jobs(i))
        return handle, self.finish(handle, "traced")

    def _traced_op(self, rec: spans.Recorder, i: int) -> None:
        spans.install_layers(rec)
        try:
            rec.reset()
            handle, result = rec.call("bench.unit", self._traced_unit, i)
        finally:
            rec.uninstall()
        self.check(i, result)
        self.out.add_layers(rec, spans.layer_values(rec, handle), 1)

    def run_traced(self, seconds: float) -> Outcome:
        """Traced units alternate with untraced repeats of the same input."""
        self.setup(0)
        self.warm_up()
        deadline = time.perf_counter() + seconds
        rec = spans.Recorder()
        n = 0
        while n < TRACED_UNITS or time.perf_counter() < deadline:
            i = n % self.spec.inputs
            self.out.op(self._traced_op, rec, i)
            self.out.op(self.simulate, i, self.build(self.jobs(i)), "untraced")
            n += 1
        return self.out


# ----------------------------------------------------------------------
# What-if workload
# ----------------------------------------------------------------------
def perturbation(q: int) -> SubmitJob:
    """The ``q``-th query: one extra job, distinct within a cycle."""
    p = q % QUERY_CYCLE
    return SubmitJob(n_nodes=4 + p % 13, base_runtime=1800.0 + 30.0 * p,
                     mem_request_mb=32768)


def with_submit(jobs: List[Job], at: float, pert: SubmitJob) -> List[Job]:
    """``jobs`` plus the job ``pert`` injects at ``at``: the input of the
    query answered without forks."""
    return jobs + [Job(
        jid=max(j.jid for j in jobs) + 1, submit_time=at,
        n_nodes=pert.n_nodes, base_runtime=pert.base_runtime,
        walltime_limit=pert.base_runtime * 1.5,
        mem_request_mb=pert.mem_request_mb,
        usage=UsageTrace.constant(pert.mem_request_mb),
    )]


class WhatIfBench(Bench):
    """Sessions ``s`` fork input ``s``; query ``q`` goes to session
    ``q % WHATIF_SESSIONS`` (a query's repeats in later cycles land on
    the same session, and must give the same output)."""

    def __init__(self, seed: int):
        super().__init__("whatif1024", WHATIF_SPEC, seed)
        self.sessions: List[Optional[WhatIf]] = [None] * WHATIF_SESSIONS

    def warm_up(self) -> None:
        """Untimed small session and query: imports and first calls."""
        jobs = self.jobs(0)[:WARMUP_JOBS]
        WhatIf(jobs, self.config, policy="dynamic", at=jobs[-1].submit_time,
               profiles=self.workload.profiles).query(perturbation(0), use_cache=False)

    def simulate(self, jobs: List[Job]):
        """One timed simulation of ``jobs`` (a ``sim`` sample)."""
        handle = simulator.build_simulation(jobs, self.config, policy="dynamic",
                                            profiles=self.workload.profiles)
        with self.out.probe.sample("sim") as timing:
            return finish_sliced(handle, timing)

    def base(self, s: int) -> float:
        """The base simulation of input ``s`` (timed); returns the fork time."""
        result = self.simulate(self.jobs(s))
        check_complete(result, self.spec.n_jobs)
        self.digests.check(f"base{s}", digest(result))
        self.out.jobs_simulated += self.spec.n_jobs
        return WHATIF_FORK_FRAC * result.makespan

    def open_session(self, s: int, at: float) -> WhatIf:
        jobs = self.jobs(s)
        session = WhatIf(jobs, self.config, policy="dynamic", at=at,
                         profiles=self.workload.profiles)
        self.sessions[s] = session
        return session

    def check_session(self, s: int) -> None:
        self.digests.check(f"base{s}", digest(self.sessions[s].base_report.result))

    def query(self, q: int, kind: str):
        s = q % WHATIF_SESSIONS
        with self.out.probe.sample(kind):
            report = self.sessions[s].query(perturbation(q), use_cache=False)
        check_complete(report.result, self.spec.n_jobs + 1)
        self.digests.check(f"query{q % QUERY_CYCLE}", digest(report.result))
        return report

    def fresh_check(self, q: int) -> None:
        """Record-for-record comparison of query ``q`` with a fresh run."""
        s = q % WHATIF_SESSIONS
        fresh = self.simulate(with_submit(self.jobs(s), self.sessions[s].snapshot.now,
                                          perturbation(q)))
        self.out.jobs_simulated += self.spec.n_jobs + 1
        self.digests.check(f"query{q}", digest(fresh))

    def open(self, s: int) -> None:
        """Set up session ``s``: generation plus the ``WhatIf`` (timed)."""
        with self.out.probe.sample("setup.generate"):
            self.generate()
        if s == 0:
            self.warm_up()
        at = self.out.op(self.base, s)
        if at is None:
            raise CheckFailed(f"base simulation {s} failed")
        with self.out.probe.sample("setup.session"):
            self.open_session(s, at)
        self.check_session(s)

    def run(self, seconds: float) -> Outcome:
        for s in range(WHATIF_SESSIONS):
            self.open(s)
        deadline = time.perf_counter() + seconds
        q = 0
        while q < QUERY_CYCLE or q % QUERY_CYCLE or time.perf_counter() < deadline:
            self.out.op(self.query, q, "query")
            q += 1
        for q in CHECKED_QUERIES:
            self.out.op(self.fresh_check, q)
        return self.out

    @staticmethod
    def traced_queries() -> range:
        """Queries of the traced session: those routed to session 0."""
        return range(0, TRACED_QUERIES * WHATIF_SESSIONS, WHATIF_SESSIONS)

    def _traced_session(self, at: float) -> Tuple[WhatIf, int]:
        self.generate()
        session = self.open_session(0, at)
        replayed = 0
        for q in self.traced_queries():
            report = self.out.op(self.query, q, "traced")
            replayed += report.events_replayed if report is not None else 0
        return session, replayed

    def run_traced(self, seconds: float) -> Outcome:
        with self.out.probe.sample("setup"):
            self.generate()
        self.warm_up()
        at = self.out.op(self.base, 0)
        if at is None:
            raise CheckFailed("base simulation failed")
        deadline = time.perf_counter() + seconds
        rec = spans.Recorder()
        spans.install_layers(rec)
        try:
            rec.reset()
            session, replayed = rec.call("bench.unit", self._traced_session, at)
        finally:
            rec.uninstall()
        self.check_session(0)
        stats = session.stats()
        self.out.add_layers(rec, spans.layer_values(
            rec, session.handle, stats["cow_pages_copied"],
            stats["cow_bytes_copied"], replayed), len(self.traced_queries()))
        queries = self.traced_queries()
        n = 0
        while n < len(queries) or time.perf_counter() < deadline:
            self.out.op(self.query, queries[n % len(queries)], "untraced")
            n += 1
        self.out.op(self.fresh_check, 0)
        return self.out


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    """Run workload ``name`` once; see the module docstring."""
    bench = WhatIfBench(seed) if name == "whatif1024" else SimBench(name, seed, workdir)
    outcome = bench.run_traced(seconds) if trace else bench.run(seconds)
    outcome.probe.probe()  # every sample needs a probe after it
    outcome.digests = bench.digests.to_record()
    return outcome
