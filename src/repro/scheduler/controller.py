"""The Slurm-like controller (``slurmctld`` of Fig. 1).

The controller owns the pending queue and the running set, runs the
FCFS + EASY-backfill scheduling pass on the configured 30 s cadence,
starts and finishes jobs, and drives the dynamic policy's
Monitor → Decider → Actuator → Executor loop on the 5-minute update
cadence.  All resource mutations flow through
:class:`repro.cluster.Cluster`, and every slowdown change re-prices the
affected finish events (jobs advance in work seconds; wall duration is
``remaining_work × slowdown``).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Optional, Set

from ..cluster.allocation import JobAllocation
from ..cluster.cluster import Cluster
from ..core.config import SystemConfig
from ..core.engine import Engine
from ..core.events import Event, EventKind
from ..core.state import ForkState
from ..jobs.job import Job
from ..jobs.states import JobState
from ..metrics.records import JobRecord, SimulationResult
from ..obs.blame import (
    WAIT_HOL,
    WAIT_LENDER,
    WAIT_LOCAL,
    WAIT_MEMNODE,
)
from ..obs.telemetry import NULL_TELEMETRY, Telemetry
from ..policies.base import AllocationPolicy
from ..slowdown.model import ContentionModel
from .backfill import can_backfill, shadow_time
from .queue import PendingQueue

#: Relative slowdown change below which finish events are not rescheduled.
_REPRICE_EPS = 1e-9

#: Relative tolerance treating a float time as "on" a cadence multiple.
_TICK_EPS = 1e-9


def next_tick(now: float, interval: float) -> float:
    """First cadence multiple at or after ``now``, float-noise tolerant.

    ``now % interval == 0`` misclassifies times like ``300.0000000001``
    (an accumulated-float sched pass lands a hair after the multiple and
    the naive ceil would skip a whole interval).  Times within
    ``_TICK_EPS`` (relative) of a multiple snap to it; the result is
    clamped to never schedule into the past.
    """
    k = math.floor(now / interval + _TICK_EPS)
    t = k * interval
    if t + _TICK_EPS * interval < now:
        t = (k + 1) * interval
    return max(t, now)


class Controller:
    """Central resource manager wired into an :class:`Engine`.

    The controller owns the run's object graph for a what-if fork: its
    declared objects are captured and rolled back through it.  ``policy``
    is an object, not fixed, because a fork may swap it.  Finish and
    wall-limit events are frozen, so their maps are plain copies.
    """

    fork_state = ForkState(
        values=("_last_account", "_sched_scheduled", "_mem_scheduled",
                "_dirty"),
        copies=("running", "finish_events", "wall_events"),
        objects=("engine", "cluster", "policy", "model", "telemetry",
                 "pending", "result"),
        object_maps=("jobs",),
        fixed=("config", "prov", "blame"),
    )

    def __init__(
        self,
        engine: Engine,
        cluster: Cluster,
        policy: AllocationPolicy,
        model: ContentionModel,
        config: SystemConfig,
        telemetry: Optional[Telemetry] = None,
    ):
        self.engine = engine
        self.cluster = cluster
        self.policy = policy
        self.model = model
        # Maintain the model's per-lender demand ledger against this
        # cluster (invalidated by the cluster's borrow/resize mutators).
        model.attach(cluster)
        self.config = config
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        # The policy's Decider records provenance into the same sink
        # (instance attribute shadows the class default).
        policy.obs = self.telemetry
        # Causal provenance + wait-time blame.  Everything below is
        # reached only behind `if prov.enabled:` guards, and the cluster
        # tap / demand listener / pool hook are installed only when
        # enabled, so a disabled run makes zero provenance calls.
        self.prov = self.telemetry.provenance
        self.blame = self.telemetry.blame
        if self.prov.enabled:
            cluster.set_provenance_tap(self._prov_cluster_tap)
            cluster.add_demand_listener(self._prov_demand_dirty)
            pool = getattr(policy, "pool", None)
            if pool is not None:
                pool.provenance = self.prov
        self.pending = PendingQueue()
        self.jobs: Dict[int, Job] = {}
        self.running: Dict[int, Job] = {}
        self.finish_events: Dict[int, Event] = {}
        self.result = SimulationResult(
            policy=policy.name,
            total_nodes=cluster.n_nodes,
            total_capacity_mb=cluster.total_capacity_mb(),
        )
        self._last_account = 0.0
        self._sched_scheduled = False
        self._mem_scheduled = False
        self._dirty = False

        #: wall-limit kill events, only when config.enforce_walltime
        self.wall_events: Dict[int, Event] = {}

        engine.on(EventKind.JOB_SUBMIT, self._on_submit)
        engine.on(EventKind.JOB_FINISH, self._on_finish)
        engine.on(EventKind.JOB_KILL, self._on_wall_kill)
        engine.on(EventKind.SCHED_PASS, self._on_sched)
        engine.on(EventKind.MEM_UPDATE, self._on_mem_update)
        engine.on(EventKind.TELEMETRY, self._on_telemetry)

    # ------------------------------------------------------------------
    # Workload loading
    # ------------------------------------------------------------------
    def load(self, jobs: Iterable[Job]) -> None:
        """Register jobs and schedule their submission events."""
        for job in jobs:
            if job.jid in self.jobs:
                raise ValueError(f"duplicate job id {job.jid}")
            self.jobs[job.jid] = job
            self.engine.at(job.submit_time, EventKind.JOB_SUBMIT, job)
        if self.telemetry.enabled:
            self.engine.at(0.0, EventKind.TELEMETRY, None)

    # ------------------------------------------------------------------
    # Time integrals
    # ------------------------------------------------------------------
    def _account(self, now: float) -> None:
        dt = now - self._last_account
        if dt <= 0:
            return
        self.result.node_busy_seconds += self.cluster.busy_count * dt
        self.result.mem_allocated_mb_seconds += self.cluster.total_allocated_mb() * dt
        # Lent memory == remote memory in use (conservation invariant).
        self.result.mem_remote_mb_seconds += self.cluster.lent_total * dt
        self._last_account = now

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _on_submit(self, engine: Engine, ev: Event) -> None:
        job: Job = ev.payload
        self._account(engine.now)
        self.telemetry.inc("jobs_submitted")
        prov = self.prov
        if prov.enabled:
            prov.now = engine.now
            prov.scope = prov.emit(
                "submit", jid=job.jid, parents=(),
                n_nodes=job.n_nodes, mem_request_mb=job.mem_request_mb,
            )
        if not self.policy.can_ever_run(job):
            self._mark_unrunnable(job)
            return
        self.pending.add(job)
        if self.blame is not None:
            self.blame.enqueued(job.jid, engine.now)
        self._dirty = True
        self._request_sched(engine.now)

    def _on_sched(self, engine: Engine, ev: Event) -> None:
        self._sched_scheduled = False
        if not self._dirty or not self.pending:
            return
        self._account(engine.now)
        self.telemetry.inc("sched_passes")
        prov = self.prov
        if prov.enabled:
            prov.now = engine.now
            prov.scope = prov.emit(
                "sched_pass", parents=(), queue_depth=len(self.pending)
            )
        self._sched_pass(engine.now)

    def _on_finish(self, engine: Engine, ev: Event) -> None:
        job: Job = ev.payload
        now = engine.now
        self._account(now)
        self._advance(job, now)
        prov = self.prov
        if prov.enabled:
            # Stamp before the release so the cluster tap dates its
            # mutation event correctly and chains under this handler.
            prov.now = now
            prov.scope = None
        alloc = self.cluster.release(job.jid)
        self.running.pop(job.jid, None)
        self.finish_events.pop(job.jid, None)
        self._cancel_wall_event(job)
        job.set_state(JobState.COMPLETED)
        job.finish_time = now
        self.policy.on_finish(job)
        self.telemetry.inc("jobs_finished")
        self.telemetry.observe_time("job_response_s", now - job.submit_time)
        if prov.enabled:
            prov.scope = prov.emit(
                "finish", jid=job.jid,
                response_s=now - job.submit_time,
                runtime_s=now - (job.start_time or now),
            )
        self.result.records.append(self._record_of(job, now))
        self.result.makespan = max(self.result.makespan, now)
        touched = list(alloc.nodes) + list(alloc.lender_ids())
        self._reprice(self.model.affected_jobs(self.cluster, touched), now)
        self._dirty = True
        self._request_sched(now)

    def _on_mem_update(self, engine: Engine, ev: Event) -> None:
        self._mem_scheduled = False
        now = engine.now
        self._account(now)
        tel = self.telemetry
        tel.inc("mem_update_ticks")
        prov = self.prov
        if prov.enabled:
            prov.now = now
            prov.scope = prov.emit(
                "mem_update", parents=(), running=len(self.running)
            )
        tick_scope = prov.scope
        affected: Set[int] = set()
        freed = False
        # Deterministic iteration order over running jobs.
        for jid in sorted(self.running):
            job = self.running.get(jid)
            if job is None or job.state is not JobState.RUNNING:
                continue
            if prov.enabled:
                # The policy scopes its events under its own "decide";
                # each job's loop turn restarts from the tick root.
                prov.scope = tick_scope
            self._advance(job, now)
            window = self.config.update_interval / max(job.slowdown, 1.0)
            outcome = self.policy.update(job, job.work_done, window)
            if outcome.oom:
                affected.update(self._kill(job, now))
                freed = True
                continue
            if outcome.resized:
                tel.inc("resizes")
                if outcome.freed_mb > 0:
                    tel.inc("resize_freed_mb", outcome.freed_mb)
                    tel.observe_resize(outcome.freed_mb)
                if outcome.grown_mb > 0:
                    tel.inc("resize_grown_mb", outcome.grown_mb)
                    tel.observe_resize(outcome.grown_mb)
                if prov.enabled:
                    prov.emit(
                        "resize", jid=job.jid,
                        freed_mb=outcome.freed_mb,
                        grown_mb=outcome.grown_mb,
                    )
            if outcome.touched_nodes:
                affected.update(
                    self.model.affected_jobs(self.cluster, outcome.touched_nodes)
                )
            if outcome.freed_mb > 0:
                freed = True
        # Executor: push the decided changes back into the engine by
        # repricing affected finish events (paper Fig. 1a).
        if prov.enabled:
            prov.scope = tick_scope
        self._reprice(affected, now)
        if freed:
            self._dirty = True
            self._request_sched(now)
        if self.running or self.pending:
            self._schedule_mem_update(now)

    def _on_telemetry(self, engine: Engine, ev: Event) -> None:
        """Sample the metric gauges on the telemetry cadence.

        This is the run's only periodic event chain, and its own event
        has just been popped, so any live event left in the queue is
        other work: the chain ends when the workload has drained.
        """
        now = engine.now
        self.telemetry.sample_cluster(now, self)
        if self.running or self.pending or self.engine.queue:
            self.engine.at(
                now + self.telemetry.sample_interval, EventKind.TELEMETRY, None
            )

    # ------------------------------------------------------------------
    # Scheduling pass: FCFS + EASY backfill
    # ------------------------------------------------------------------
    def _sched_pass(self, now: float) -> None:
        self._dirty = False
        consider = self.pending.head(self.config.queue_depth)
        blocked: Optional[Job] = None
        shadow = float("inf")
        backfill_seen = 0
        # Blame-enabled passes classify every planning failure.
        reasons: Optional[Dict[int, str]] = (
            {} if self.blame is not None else None
        )
        for job in consider:
            if job.state is not JobState.PENDING:
                continue
            if blocked is None:
                alloc = self._plan_for(job, reasons)
                if alloc is not None:
                    self._start(job, alloc, now)
                    continue
                if self.config.scheduling == "fcfs":
                    # Strict FCFS ablation: nothing may overtake the
                    # blocked head-of-queue job.
                    break
                blocked = job
                shadow = shadow_time(
                    job,
                    self.cluster,
                    self.running.values(),
                    now,
                    self.policy.uses_disaggregation,
                )
                if self.prov.enabled:
                    self.prov.emit(
                        "backfill_shadow", jid=job.jid,
                        shadow_t=shadow if math.isfinite(shadow) else None,
                    )
                continue
            backfill_seen += 1
            if backfill_seen > self.config.backfill_depth:
                break
            if not can_backfill(job, now, shadow):
                continue
            alloc = self._plan_for(job, reasons)
            if alloc is not None:
                self._start(job, alloc, now)
                self.telemetry.inc("backfill_starts")
        if reasons is not None:
            self._attribute_wait(now, reasons)

    def _plan_for(
        self, job: Job, reasons: Optional[Dict[int, str]]
    ) -> Optional[JobAllocation]:
        """Cheap feasibility pre-checks, then the policy's planner.

        With ``reasons`` (blame on), a failure also records its
        wait-blame class: a startable (disaggregated) or fitting-idle
        (baseline) shortfall is head-of-line blocking when too few nodes
        are idle, else the memory-node rule or a local shortfall; the
        local-DRAM totals check is a local shortfall; and a planner
        failure past the pre-checks means the pool could not assemble
        the lender set (disaggregated) or no fitting node combination
        existed (baseline).
        """
        c = self.cluster
        n = job.n_nodes
        disagg = self.policy.uses_disaggregation
        if disagg:
            short = c.startable_count < n
            if not short and n * job.mem_request_mb > c.free_local_total:
                if reasons is not None:
                    reasons[job.jid] = WAIT_LOCAL
                return None
        else:
            short = c.fitting_idle_count(job.mem_request_mb) < n
        if short:
            if reasons is not None:
                reasons[job.jid] = (
                    WAIT_HOL if c.n_idle() < n
                    else WAIT_MEMNODE if disagg else WAIT_LOCAL
                )
            return None
        alloc = self.policy.plan(job)
        if alloc is None and reasons is not None:
            reasons[job.jid] = WAIT_LENDER if disagg else WAIT_LOCAL
        return alloc

    def _attribute_wait(self, now: float, reasons: Dict[int, str]) -> None:
        """Charge each still-pending job's interval since the last pass.

        Jobs the pass examined get their classified reason; the rest
        (behind the queue-depth window or ineligible to backfill) are
        head-of-line blocked by definition.  A ``wait_blame`` provenance
        event marks each *transition* of a job's blamed cause.
        """
        blame = self.blame
        prov = self.prov
        for job in self.pending:
            if job.state is not JobState.PENDING:
                continue
            reason = reasons.get(job.jid, WAIT_HOL)
            changed = blame.attribute(job.jid, now, reason)
            if changed and prov.enabled:
                prov.emit("wait_blame", jid=job.jid, reason=reason)

    # ------------------------------------------------------------------
    # Job lifecycle
    # ------------------------------------------------------------------
    def _start(self, job: Job, alloc: JobAllocation, now: float) -> None:
        self.pending.remove(job)
        if self.blame is not None:
            # Close the wait episode: the residual interval since the
            # last sched pass goes to the job's last classified reason.
            self.blame.started(job.jid, now)
        self.cluster.apply(job.jid, alloc)
        job.set_state(JobState.RUNNING)
        job.start_time = now
        if job.first_start_time is None:
            job.first_start_time = now
        job.last_progress_time = now
        self.running[job.jid] = job
        prov = self.prov
        bd = {} if prov.enabled else None
        job.slowdown = self.model.slowdown(job, self.cluster, self.jobs, bd)
        self.telemetry.inc("jobs_started")
        self.telemetry.observe_time("job_wait_s", now - job.submit_time)
        if prov.enabled:
            start_eid = prov.emit(
                "start", jid=job.jid,
                nodes=len(alloc.nodes),
                local_mb=alloc.total_local(),
                remote_mb=alloc.total_remote(),
                slowdown=job.slowdown,
                wait_s=now - job.submit_time,
            )
            if bd and bd["rf"] > 0.0:
                prov.emit("slowdown", jid=job.jid, parents=(start_eid,), **bd)
        self._schedule_finish(job, now)
        if self.config.enforce_walltime:
            self.wall_events[job.jid] = self.engine.at(
                now + job.walltime_limit, EventKind.JOB_KILL, job
            )
        # New borrowings may add contention on shared lenders.
        touched = list(alloc.lender_ids())
        if touched:
            others = self.model.affected_jobs(self.cluster, touched)
            others.discard(job.jid)
            self._reprice(others, now)
        if self.policy.is_dynamic:
            self._schedule_mem_update(now)

    def _on_wall_kill(self, engine: Engine, ev: Event) -> None:
        """Wall-limit enforcement: terminate the job (TIMEOUT, terminal)."""
        job: Job = ev.payload
        if job.state is not JobState.RUNNING:
            return  # stale event (job finished in the same tick)
        now = engine.now
        self._account(now)
        self._advance(job, now)
        prov = self.prov
        if prov.enabled:
            prov.now = now
            prov.scope = None
        alloc = self.cluster.release(job.jid)
        self.running.pop(job.jid, None)
        fev = self.finish_events.pop(job.jid, None)
        if fev is not None:
            self.engine.cancel(fev)
        self.wall_events.pop(job.jid, None)
        job.set_state(JobState.TIMEOUT)
        self.telemetry.inc("timeouts")
        if prov.enabled:
            prov.scope = prov.emit(
                "timeout", jid=job.jid, limit_s=job.walltime_limit
            )
        job.finish_time = now
        self.policy.on_finish(job)
        self.result.timeouts += 1
        self.result.records.append(self._record_of(job, now))
        self.result.makespan = max(self.result.makespan, now)
        touched = list(alloc.nodes) + list(alloc.lender_ids())
        self._reprice(self.model.affected_jobs(self.cluster, touched), now)
        self._dirty = True
        self._request_sched(now)

    def _mark_unrunnable(self, job: Job) -> None:
        """Record a pending job that no state of the machine can start."""
        job.set_state(JobState.UNRUNNABLE)
        self.result.unrunnable.append(job.jid)
        self.telemetry.inc("jobs_unrunnable")
        if self.prov.enabled:
            self.prov.emit("unrunnable", jid=job.jid)

    def _cancel_wall_event(self, job: Job) -> None:
        ev = self.wall_events.pop(job.jid, None)
        if ev is not None:
            self.engine.cancel(ev)

    def _kill(self, job: Job, now: float) -> Set[int]:
        """OOM kill: release, requeue (F/R or C/R).  Returns affected jids."""
        alloc = self.cluster.release(job.jid)
        self.running.pop(job.jid, None)
        self._cancel_wall_event(job)
        ev = self.finish_events.pop(job.jid, None)
        if ev is not None:
            self.engine.cancel(ev)
        job.set_state(JobState.KILLED)
        self.telemetry.inc("oom_kills")
        prov = self.prov
        if prov.enabled:
            prov.emit("oom_kill", jid=job.jid, restarts=job.restarts + 1)
        self.result.oom_kills += 1
        keep = getattr(self.policy, "checkpoint_restart", False)
        boost = getattr(self.policy, "oom_priority_boost", False)
        quantum = getattr(self.policy, "checkpoint_interval", None)
        job.reset_for_restart(now, keep_checkpoint=keep, keep_priority=boost,
                              checkpoint_quantum=quantum)
        if not self.policy.can_ever_run(job):
            # The requeued job's demand (pinned at its observed peak once
            # it exhausted its OOM retries) exceeds what the machine can
            # ever serve: it would stay pending forever.  It ran, so it
            # gets a record, finished at this kill.
            self._mark_unrunnable(job)
            self.policy.on_finish(job)
            self.result.records.append(self._record_of(job, now))
        else:
            self.pending.add(job)
            if self.blame is not None:
                # A requeued job opens a fresh wait episode; its components
                # keep accumulating into the same per-job buckets.
                self.blame.enqueued(job.jid, now)
        touched = list(alloc.nodes) + list(alloc.lender_ids())
        return self.model.affected_jobs(self.cluster, touched)

    # ------------------------------------------------------------------
    # Progress and repricing
    # ------------------------------------------------------------------
    def _advance(self, job: Job, now: float) -> None:
        dt = now - job.last_progress_time
        if dt > 0:
            job.work_done = min(
                job.work_done + dt / max(job.slowdown, 1.0), job.base_runtime
            )
            job.last_progress_time = now

    def _schedule_finish(self, job: Job, now: float) -> None:
        old = self.finish_events.get(job.jid)
        if old is not None:
            self.engine.cancel(old)
        wall = job.remaining_work * max(job.slowdown, 1.0)
        self.finish_events[job.jid] = self.engine.at(
            now + wall, EventKind.JOB_FINISH, job
        )

    def _reprice(self, jids: Iterable[int], now: float) -> None:
        """Price each job once; under provenance the same walk yields
        the breakdown, emitted for the jobs whose slowdown changed."""
        prov = self.prov
        for jid in sorted(set(jids)):
            job = self.running.get(jid)
            if job is None or job.state is not JobState.RUNNING:
                continue
            self._advance(job, now)
            bd = {} if prov.enabled else None
            new_s = self.model.slowdown(job, self.cluster, self.jobs, bd)
            if abs(new_s - job.slowdown) > _REPRICE_EPS:
                if prov.enabled:
                    data = {"old": job.slowdown, "new": new_s}
                    if bd:
                        data["lenders"] = bd["lenders"]
                        data["contention"] = bd["contention"]
                        data["base_remote"] = bd["base_remote"]
                    prov.emit("slowdown", jid=jid, **data)
                job.slowdown = new_s
                self._schedule_finish(job, now)

    # ------------------------------------------------------------------
    # Provenance taps (installed only when provenance is enabled)
    # ------------------------------------------------------------------
    def _prov_cluster_tap(self, kind: str, jid: int, alloc) -> None:
        """Cluster mutator delta (whole-allocation apply/release)."""
        self.prov.emit(
            "cluster." + kind, jid=jid,
            nodes=len(alloc.nodes),
            local_mb=alloc.total_local(),
            remote_mb=alloc.total_remote(),
        )

    def _prov_demand_dirty(self, cluster, lenders) -> None:
        """PR 5 listener pub/sub: lender demand ledgers went dirty."""
        self.prov.emit(
            "demand_dirty", lenders=[int(lender) for lender in lenders]
        )

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def _request_sched(self, now: float) -> None:
        if self._sched_scheduled:
            return
        self.engine.at(next_tick(now, self.config.sched_interval),
                       EventKind.SCHED_PASS, None)
        self._sched_scheduled = True

    def _schedule_mem_update(self, now: float) -> None:
        if self._mem_scheduled or not self.policy.is_dynamic:
            return
        self.engine.at(now + self.config.update_interval, EventKind.MEM_UPDATE, None)
        self._mem_scheduled = True

    # ------------------------------------------------------------------
    def _record_of(self, job: Job, now: float) -> JobRecord:
        start = job.start_time if job.start_time is not None else now
        return JobRecord(
            jid=job.jid,
            n_nodes=job.n_nodes,
            submit_time=job.submit_time,
            start_time=job.first_start_time,
            finish_time=now,
            base_runtime=job.base_runtime,
            actual_runtime=now - start,
            mem_request_mb=job.mem_request_mb,
            peak_usage_mb=job.peak_usage_mb,
            restarts=job.restarts,
            state=job.state,
            user=job.user,
        )

    # ------------------------------------------------------------------
    def finalize(self) -> SimulationResult:
        """Close the books after the engine drains."""
        self._account(self.engine.now)
        submits = [j.submit_time for j in self.jobs.values()]
        self.result.first_submit = min(submits) if submits else 0.0
        self.result.events_processed = self.engine.events_processed
        return self.result
