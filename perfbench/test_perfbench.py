"""Self-tests of the benchmark: ``python3 -m pytest -q perfbench``."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from repro.experiments import runner  # noqa: E402
from repro.experiments.scenarios import Scenario  # noqa: E402
from repro.scheduler import simulator  # noqa: E402

SMALL = Scenario(policy="dynamic", memory_level=50, n_nodes=64, n_jobs=40, seed=3)


@pytest.fixture(scope="module")
def workload():
    return runner.base_workload(SMALL)


def small_handle(workload):
    return simulator.build_simulation(workload.fresh_jobs(), SMALL.system_config(),
                                      policy="dynamic", profiles=workload.profiles)


def traced_simulation(rec, workload):
    """One small simulation under the recorder, inside a root span."""
    def unit():
        return small_handle(workload).finish()
    return rec.call("bench.unit", unit)


def test_self_times_telescope_to_the_root():
    rec = spans.Recorder()

    def leaf():
        return sum(range(2000))

    def middle():
        return leaf() + leaf()

    class Layer:
        pass

    Layer.leaf = staticmethod(rec.timed(leaf, "leaf"))
    Layer.middle = staticmethod(rec.timed(lambda: Layer.leaf() + Layer.leaf(), "middle"))
    rec.call("root", lambda: [Layer.middle() for _ in range(50)])
    assert rec.stats["leaf"][0] == 100
    assert sum(row[2] for row in rec.stats.values()) == pytest.approx(
        rec.root_total, rel=1e-9)
    assert rec.stats["root"][1] == pytest.approx(rec.root_total)


def test_self_times_telescope_on_a_traced_simulation(workload):
    rec = spans.Recorder()
    spans.install_layers(rec)
    try:
        traced_simulation(rec, workload)
    finally:
        rec.uninstall()
    assert rec.stats["scheduler.on_submit"][0] == SMALL.n_jobs
    assert sum(row[2] for row in rec.stats.values()) == pytest.approx(
        rec.root_total, rel=1e-9)
    values = spans.layer_values(rec, small_handle(workload))
    assert values["trace.coverage"] == pytest.approx(1.0)


def test_uninstall_restores_every_original(workload):
    rec = spans.Recorder()
    spans.install_layers(rec)
    patched = [(owner, attr) for owner, attr, _ in rec.originals()]
    rec.uninstall()
    before = {(id(owner), attr): vars(owner)[attr] for owner, attr in patched}
    assert len(patched) > 30

    spans.install_layers(rec)
    try:
        handle = small_handle(workload)   # handlers registered while traced
        traced_simulation(rec, workload)
    finally:
        rec.uninstall()
    for owner, attr in patched:
        assert vars(owner)[attr] is before[(id(owner), attr)], (owner, attr)
    # The engine built while tracing runs untraced now.
    rec.reset()
    handle.finish()
    assert rec.stats == {} and rec.counts == {}


def test_digest_is_stable_and_slicing_changes_nothing(workload):
    plain = [workloads.digest(small_handle(workload).finish()) for _ in range(2)]
    probe = calibrate.SpeedProbe()
    with probe.sample("sim") as timing:
        sliced = workloads.finish_sliced(small_handle(workload), timing)
    assert plain[0] == plain[1] == workloads.digest(sliced)


def test_calibration_scales_by_the_probes_around_a_segment():
    probe = calibrate.SpeedProbe(every_s=0.0)
    probe.probe()
    with probe.sample("x"):
        sum(range(10_000))
    probe.probe()
    (raw,), (cal,) = probe.raw("x"), probe.calibrated("x")
    ((t0, t1),) = probe._samples["x"][0]
    assert cal == pytest.approx(raw * calibrate.REFERENCE_S / probe.reference(t0, t1))


def test_benchmark_json_matches_the_code():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOAD_NAMES == workloads.WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(row) for row in spans.per_layer_metrics()]
