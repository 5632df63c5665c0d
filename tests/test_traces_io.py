"""Workload/result serialisation round-trips."""

import json

import numpy as np
import pytest

from repro.core.config import SystemConfig
from repro.core.errors import TraceError
from repro.jobs.states import JobState
from repro.scheduler.simulator import simulate
from repro.traces.io import (
    load_workload,
    result_records_csv,
    result_to_dict,
    save_result,
    save_workload,
    workload_from_dict,
    workload_to_dict,
)


def test_workload_roundtrip_plain(tmp_path, shared_workload):
    path = tmp_path / "wl.json"
    save_workload(shared_workload, path)
    back = load_workload(path)
    assert len(back) == len(shared_workload)
    assert back.meta["kind"] == "synthetic"
    for a, b in zip(shared_workload.jobs, back.jobs):
        assert a.jid == b.jid
        assert a.submit_time == b.submit_time
        assert a.mem_request_mb == b.mem_request_mb
        assert np.array_equal(a.usage.times, b.usage.times)
        assert np.array_equal(a.usage.mem_mb, b.usage.mem_mb)
    assert [p.name for p in back.profiles] == [
        p.name for p in shared_workload.profiles
    ]


def test_workload_roundtrip_gzip(tmp_path, shared_workload):
    plain = tmp_path / "wl.json"
    gz = tmp_path / "wl.json.gz"
    save_workload(shared_workload, plain)
    save_workload(shared_workload, gz)
    assert gz.stat().st_size < plain.stat().st_size
    assert len(load_workload(gz)) == len(shared_workload)


def test_loaded_workload_simulates_identically(tmp_path, shared_workload):
    path = tmp_path / "wl.json.gz"
    save_workload(shared_workload, path)
    back = load_workload(path)
    cfg = SystemConfig.from_memory_level(75, n_nodes=96)
    r1 = simulate(shared_workload.fresh_jobs(), cfg, policy="static",
                  profiles=shared_workload.profiles)
    r2 = simulate(back.fresh_jobs(), cfg, policy="static",
                  profiles=back.profiles)
    assert r1.throughput() == pytest.approx(r2.throughput())
    assert [a.finish_time for a in r1.records] == [
        b.finish_time for b in r2.records
    ]


def test_workload_schema_validation(shared_workload):
    data = workload_to_dict(shared_workload)
    bad_kind = dict(data, kind="something-else")
    with pytest.raises(TraceError):
        workload_from_dict(bad_kind)
    bad_schema = dict(data, schema=999)
    with pytest.raises(TraceError):
        workload_from_dict(bad_schema)


def test_workload_profile_index_out_of_range_rejected(shared_workload):
    # Such a workload used to load and then fail mid-run with a bare
    # IndexError once the job borrowed remote memory.
    data = workload_to_dict(shared_workload)
    n_profiles = len(data["profiles"])
    jid = data["jobs"][3]["jid"]
    data["jobs"][3]["profile"] = n_profiles
    with pytest.raises(TraceError, match=rf"job {jid}: field 'profile'"):
        workload_from_dict(data)
    data["jobs"][3]["profile"] = n_profiles - 1
    assert workload_from_dict(data).jobs[3].profile == n_profiles - 1


def test_workload_boolean_node_count_rejected(shared_workload):
    # ``True`` compared as 1 and loaded as a one-node job.
    data = workload_to_dict(shared_workload)
    jid = data["jobs"][2]["jid"]
    data["jobs"][2]["n_nodes"] = True
    with pytest.raises(TraceError, match=rf"job {jid}: field 'n_nodes'"):
        workload_from_dict(data)
    data["jobs"][2]["n_nodes"] = np.int64(3)
    assert workload_from_dict(data).jobs[2].n_nodes == 3


def test_workload_fractional_memory_request_rejected(shared_workload):
    # A fractional request used to run and leave floats in the records,
    # although memory is accounted in whole MB.
    data = workload_to_dict(shared_workload)
    jid = data["jobs"][4]["jid"]
    data["jobs"][4]["mem_request_mb"] = 1024.5
    with pytest.raises(TraceError, match=rf"job {jid}: field 'mem_request_mb'"):
        workload_from_dict(data)
    data["jobs"][4]["mem_request_mb"] = np.int64(1024)
    assert workload_from_dict(data).jobs[4].mem_request_mb == 1024


def test_workload_missing_job_key_rejected(shared_workload):
    # A missing key used to surface as a bare KeyError.
    data = workload_to_dict(shared_workload)
    jid = data["jobs"][5]["jid"]
    del data["jobs"][5]["walltime_limit"]
    with pytest.raises(TraceError,
                       match=rf"job {jid}: required key 'walltime_limit'"):
        workload_from_dict(data)
    del data["jobs"][5]["jid"]
    with pytest.raises(TraceError, match=r"job #5: required key 'jid'"):
        workload_from_dict(data)


def test_workload_infinite_submit_time_rejected(shared_workload):
    # An infinite submit time used to raise OverflowError from the engine.
    data = workload_to_dict(shared_workload)
    jid = data["jobs"][6]["jid"]
    data["jobs"][6]["submit_time"] = float("inf")
    with pytest.raises(TraceError, match=rf"job {jid}: field 'submit_time'"):
        workload_from_dict(data)


def test_workload_nan_submit_time_rejected(shared_workload):
    # A NaN submit time used to load and fail mid-run with a ValueError.
    data = workload_to_dict(shared_workload)
    jid = data["jobs"][7]["jid"]
    data["jobs"][7]["submit_time"] = float("nan")
    with pytest.raises(TraceError, match=rf"job {jid}: field 'submit_time'"):
        workload_from_dict(data)


def test_workload_string_node_count_rejected(shared_workload):
    # A string node count used to raise TypeError from a comparison.
    data = workload_to_dict(shared_workload)
    jid = data["jobs"][8]["jid"]
    data["jobs"][8]["n_nodes"] = "4"
    with pytest.raises(TraceError, match=rf"job {jid}: field 'n_nodes'"):
        workload_from_dict(data)


def test_load_workload_rejects_non_finite_usage_time(tmp_path, shared_workload):
    # Python's json reads and writes NaN, so a hand-edited or foreign
    # file can carry one; it must fail to load, not simulate wrongly.
    data = workload_to_dict(shared_workload)
    data["jobs"][0]["usage_times"] = [0.0, float("nan")]
    data["jobs"][0]["usage_mem_mb"] = [1024, 2048]
    path = tmp_path / "wl.json"
    path.write_text(json.dumps(data))
    assert "NaN" in path.read_text()
    with pytest.raises(TraceError):
        load_workload(path)


def test_result_serialisation(tmp_path, shared_workload):
    cfg = SystemConfig.from_memory_level(100, n_nodes=96)
    res = simulate(shared_workload.fresh_jobs(), cfg, policy="baseline",
                   profiles=shared_workload.profiles)
    d = result_to_dict(res)
    assert d["policy"] == "baseline"
    assert len(d["records"]) == res.n_completed
    assert d["summary"]["throughput_jobs_per_s"] == res.throughput()
    path = tmp_path / "res.json"
    save_result(res, path)
    loaded = json.loads(path.read_text())
    assert loaded["kind"] == "repro-result"
    assert loaded["records"][0]["state"] == JobState.COMPLETED.value


def test_result_csv(shared_workload):
    cfg = SystemConfig.from_memory_level(100, n_nodes=96)
    res = simulate(shared_workload.fresh_jobs(), cfg, policy="static",
                   profiles=shared_workload.profiles)
    csv_text = result_records_csv(res)
    lines = csv_text.strip().splitlines()
    assert lines[0].startswith("jid,")
    assert len(lines) == res.n_completed + 1
    assert ",completed" in lines[1]
