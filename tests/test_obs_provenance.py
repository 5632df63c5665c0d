"""Causal provenance graph: ring buffer, linking, determinism, and the
provably-free-when-disabled guard (repro.obs.provenance)."""

import hashlib
import json

import pytest

from repro.cli import main
from repro.core.config import SystemConfig
from repro.obs.provenance import (
    NULL_PROVENANCE,
    NullProvenance,
    ProvenanceLog,
    causal_chain,
    load_provenance,
    provenance_jsonl,
    render_row,
)
from repro.obs.telemetry import NullTelemetry, Telemetry
from repro.scheduler.simulator import simulate
from repro.slowdown.model import ContentionModel
from repro.traces.pipeline import synthetic_workload

N_NODES = 48


@pytest.fixture(scope="module")
def workload():
    return synthetic_workload(n_jobs=20, n_system_nodes=N_NODES, seed=0)


def _run(workload, telemetry=None, n_nodes=N_NODES):
    cfg = SystemConfig.from_memory_level(100, n_nodes=n_nodes)
    return simulate(workload.fresh_jobs(), cfg, policy="dynamic",
                    profiles=workload.profiles, telemetry=telemetry)


# ----------------------------------------------------------------------
# ProvenanceLog unit behaviour
# ----------------------------------------------------------------------

def test_emit_links_job_chain_and_scope():
    log = ProvenanceLog()
    log.now = 10.0
    tick = log.emit("mem_update", parents=())
    log.scope = tick
    first = log.emit("decide", jid=7)
    second = log.emit("resize", jid=7)
    assert log.get(first).parents == (tick,)
    assert log.get(second).parents == (first, tick)
    assert log.get(second).t == 10.0


def test_explicit_empty_parents_makes_a_root():
    log = ProvenanceLog()
    log.scope = log.emit("sched_pass", parents=())
    root = log.emit("submit", jid=1, parents=())
    assert log.get(root).parents == ()


def test_ring_buffer_evicts_oldest_and_counts_drops():
    log = ProvenanceLog(max_entries=3)
    eids = [log.emit("e", parents=()) for _ in range(5)]
    assert len(log) == 3
    assert log.dropped == 2
    assert log.get(eids[0]) is None
    assert log.get(eids[1]) is None
    assert log.get(eids[4]).eid == eids[4]


def test_walk_back_reports_evicted_ancestors():
    log = ProvenanceLog(max_entries=2)
    a = log.emit("a", jid=1, parents=())
    b = log.emit("b", jid=1)          # parent: a
    c = log.emit("c", jid=1)          # parent: b; evicts a
    chain, missing = log.walk_back(c)
    assert [e.eid for e in chain] == [c, b]
    assert missing == 1
    # The offline walk over serialised rows agrees.
    rows = log.to_rows()
    offline, off_missing = causal_chain(rows, c)
    assert [r["eid"] for r in offline] == [c, b]
    assert off_missing == 1
    assert a not in {r["eid"] for r in offline}


def test_rows_round_trip_through_jsonl(tmp_path):
    log = ProvenanceLog()
    log.now = 5.0
    log.emit("submit", jid=3, parents=(), mem_request_mb=1024)
    log.emit("start", jid=3)
    (tmp_path / "provenance.jsonl").write_text(provenance_jsonl(log.to_rows()))
    rows = load_provenance(tmp_path)
    assert rows == log.to_rows()
    assert "submit" in render_row(rows[0])
    assert "job 3" in render_row(rows[0])


def test_load_provenance_missing_file_is_empty(tmp_path):
    assert load_provenance(tmp_path) == []


# ----------------------------------------------------------------------
# Integration: observed runs
# ----------------------------------------------------------------------

def test_observed_run_emits_causal_graph(workload):
    tel = Telemetry()
    _run(workload, telemetry=tel)
    prov = tel.provenance
    assert prov.enabled and len(prov) > 0
    kinds = {e.kind for e in prov}
    for expected in ("submit", "sched_pass", "start", "mem_update",
                     "decide", "resize", "finish", "cluster.apply",
                     "cluster.release"):
        assert expected in kinds, f"missing seam: {expected}"
    # Every non-root parent id refers to an earlier event.
    for ev in prov:
        for pid in ev.parents:
            assert pid < ev.eid


def test_provenance_dump_byte_identical_across_runs(workload):
    dumps = []
    for _ in range(2):
        tel = Telemetry()
        _run(workload, telemetry=tel)
        dumps.append(tel.provenance.to_jsonl())
    assert dumps[0] == dumps[1]


#: sha256 of ``provenance.jsonl`` from ``repro simulate`` with
#: :data:`BORROWING_RUN`: the run borrows (61 ``borrow_plan``, 56
#: ``demand_dirty`` and 12 ``borrow_split`` events), so a reordered
#: borrow plan, demand-dirty lender list or split changes the bytes.
BORROWING_RUN = ["--jobs", "60", "--nodes", "64", "--frac-large", "0.25",
                 "--memory-level", "50", "--policy", "dynamic"]
BORROWING_PROVENANCE_SHA256 = (
    "2c727d7f4928ee2a45b9c6a16255fe9efa2dbd4802971563be16152a954301b3"
)


def test_borrowing_run_provenance_bytes_are_pinned(tmp_path, capsys):
    out = tmp_path / "obs"
    assert main(["simulate", *BORROWING_RUN, "--telemetry", str(out)]) == 0
    capsys.readouterr()
    raw = (out / "provenance.jsonl").read_bytes()
    kinds = [json.loads(line)["kind"] for line in raw.splitlines()]
    for kind, count in (("borrow_plan", 61), ("demand_dirty", 56),
                        ("borrow_split", 12)):
        assert kinds.count(kind) == count, kind
    assert hashlib.sha256(raw).hexdigest() == BORROWING_PROVENANCE_SHA256


def test_observed_run_prices_each_job_in_one_walk():
    """Provenance reads its slowdown breakdowns from the pricing walk
    itself: the borrowing run makes exactly as many lender-demand reads
    observed as unobserved."""
    wl = synthetic_workload(n_jobs=60, frac_large=0.25, n_system_nodes=64,
                            seed=0)
    cfg = SystemConfig.from_memory_level(50, n_nodes=64)
    reads = []
    for telemetry in (None, Telemetry()):
        model = ContentionModel(wl.profiles, node_bw_gbps=cfg.node_bw_gbps)
        simulate(wl.fresh_jobs(), cfg, policy="dynamic", profiles=wl.profiles,
                 model=model, telemetry=telemetry)
        reads.append(model.demand_hits + model.demand_misses)
    assert reads[0] > 0
    assert reads[1] == reads[0]


def test_finish_walks_back_to_submit(workload):
    tel = Telemetry()
    _run(workload, telemetry=tel)
    prov = tel.provenance
    finish = prov.of_kind("finish")[0]
    chain, missing = prov.walk_back(finish.eid, limit=10_000)
    assert missing == 0
    kinds = [e.kind for e in chain if e.jid == finish.jid]
    assert kinds[-1] == "submit"
    assert "start" in kinds


# ----------------------------------------------------------------------
# Provably free when disabled
# ----------------------------------------------------------------------

class CountingProvenance(NullProvenance):
    """Counts every provenance call a disabled run should never make."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def emit(self, kind, jid=None, parents=None, **data):
        self.calls += 1
        return -1

    def link(self, jid=None):
        self.calls += 1
        return ()


def test_disabled_run_performs_zero_provenance_calls():
    # 128-node unobserved simulate: every emitter must guard on
    # ``prov.enabled`` so the disabled path does no work at all.
    wl = synthetic_workload(n_jobs=40, n_system_nodes=128, seed=1)
    counting = CountingProvenance()
    tel = NullTelemetry()
    assert tel.provenance is NULL_PROVENANCE
    tel.provenance = counting
    _run(wl, telemetry=tel, n_nodes=128)
    assert counting.calls == 0


def test_null_provenance_is_shared_and_inert():
    assert NULL_PROVENANCE.enabled is False
    assert NULL_PROVENANCE.emit("anything", jid=1, x=1) == -1
    assert NULL_PROVENANCE.link(1) == ()
    assert len(NULL_PROVENANCE) == 0


def test_provenance_disabled_telemetry_still_exports(workload, tmp_path):
    tel = Telemetry(provenance=False)
    _run(workload, telemetry=tel)
    tel.export(tmp_path)
    meta = json.loads((tmp_path / "meta.json").read_text())
    assert "provenance_events" not in meta
    assert not (tmp_path / "provenance.jsonl").exists()
    assert not (tmp_path / "blame.json").exists()
    # The deterministic metrics dumps are unaffected.
    assert (tmp_path / "metrics.jsonl").exists()
