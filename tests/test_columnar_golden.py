"""Golden-value byte-identity for the columnar cluster core.

``tests/data/golden_columnar_1024.json`` was captured at 1024 nodes
immediately *before* the struct-of-arrays refactor landed (dynamic,
static and baseline policies; 150 synthetic jobs; seed 0).  The columnar
core, the vectorised consumers built on it, and every later hot-path
optimisation must reproduce those runs **byte for byte** — same records,
same summaries, same event counts, same JSON serialisation.

The capture format is deliberately exact: re-serialising a regenerated
capture with the same ``json.dumps`` options must equal the committed
file's raw text.  Any drift — a float summation reordered, a tie broken
differently, an extra event — fails loudly here before it can silently
shift campaign results.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.experiments import runner
from repro.experiments.scenarios import Scenario
from repro.scheduler.simulator import simulate

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_columnar_1024.json"


def _capture_run(scenario_dict: dict) -> dict:
    """Re-run one golden scenario and return it in the capture format."""
    d = scenario_dict
    sc = Scenario(
        trace="synthetic",
        policy=d["policy"],
        memory_level=d["memory_level"],
        frac_large=d["frac_large"],
        overestimation=0.0,
        n_nodes=d["n_nodes"],
        n_jobs=d["n_jobs"],
        seed=d["seed"],
    )
    wl = runner.base_workload(sc)
    res = simulate(
        wl.fresh_jobs(),
        sc.system_config(),
        policy=sc.policy,
        profiles=wl.profiles,
    )
    records = [
        {k: (v.name if hasattr(v, "name") else v)
         for k, v in dataclasses.asdict(r).items()}
        for r in res.records
    ]
    return {
        "scenario": d,
        "summary": res.summary(),
        "events_processed": res.events_processed,
        "records": records,
    }


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def first_difference(runs: list, golden_runs: list) -> str:
    """The first run and record where ``runs`` leaves the golden capture.

    Walks the two captures part by part instead of diffing their text:
    a text diff of two 100 KB captures takes minutes.
    """
    if len(runs) != len(golden_runs):
        return f"{len(runs)} runs, the golden capture has {len(golden_runs)}"
    for i, (run, gold) in enumerate(zip(runs, golden_runs)):
        where = f"run {i} ({gold['scenario']['policy']})"
        for part in ("scenario", "summary", "events_processed"):
            if _dumps(run[part]) != _dumps(gold[part]):
                return (f"{where}: {part} {_dumps(run[part])} != golden "
                        f"{_dumps(gold[part])}")
        for j, (rec, want) in enumerate(zip(run["records"], gold["records"])):
            if _dumps(rec) != _dumps(want):
                fields = sorted(k for k in set(rec) | set(want)
                                if _dumps(rec.get(k)) != _dumps(want.get(k)))
                got = {k: rec.get(k) for k in fields}
                exp = {k: want.get(k) for k in fields}
                return (f"{where}: record {j} (jid {want['jid']}) "
                        f"{_dumps(got)} != golden {_dumps(exp)}")
        if len(run["records"]) != len(gold["records"]):
            return (f"{where}: {len(run['records'])} records, the golden "
                    f"capture has {len(gold['records'])}")
    return "the parts agree; the serialised texts differ"


@pytest.mark.slow
def test_1024_node_runs_byte_identical_to_pre_columnar_capture():
    golden_text = GOLDEN_PATH.read_text()
    golden = json.loads(golden_text)
    runs = [_capture_run(g["scenario"]) for g in golden["runs"]]
    regenerated = _dumps({"runs": runs}) + "\n"
    if regenerated != golden_text:
        pytest.fail(
            "columnar core diverged from the pre-refactor 1024-node "
            f"capture: {first_difference(runs, golden['runs'])}",
            pytrace=False,
        )


def test_first_difference_names_the_run_and_record():
    golden = json.loads(GOLDEN_PATH.read_text())["runs"]
    runs = json.loads(json.dumps(golden))
    assert first_difference(runs, golden).startswith("the parts agree")
    record = runs[1]["records"][7]
    record["mem_request_mb"] = float(record["mem_request_mb"])
    message = first_difference(runs, golden)
    assert message.startswith(f"run 1 (static): record 7 (jid {record['jid']})")
    assert '"mem_request_mb":' in message
    runs[0]["summary"]["makespan_s"] += 1.0
    assert first_difference(runs, golden).startswith("run 0 (dynamic): summary")


def test_golden_capture_covers_all_three_policies():
    golden = json.loads(GOLDEN_PATH.read_text())
    policies = [g["scenario"]["policy"] for g in golden["runs"]]
    assert policies == ["dynamic", "static", "baseline"]
    for g in golden["runs"]:
        assert g["scenario"]["n_nodes"] == 1024
        # the baseline policy rejects jobs that cannot fit in local DRAM,
        # so a run may record fewer jobs than were submitted
        assert 0 < len(g["records"]) <= g["scenario"]["n_jobs"]
