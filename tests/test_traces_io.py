"""Workload/result serialisation round-trips."""

import copy
import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SystemConfig
from repro.core.errors import TraceError
from repro.experiments import runner
from repro.experiments.scenarios import Scenario
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


def test_workload_negative_submit_time_rejected(shared_workload):
    # Used to load and then raise SimulationError when the run scheduled
    # the submit event before the clock's start.
    data = workload_to_dict(shared_workload)
    jid = data["jobs"][3]["jid"]
    data["jobs"][3]["submit_time"] = -1.0
    with pytest.raises(TraceError, match=rf"job {jid}: field 'submit_time'"):
        workload_from_dict(data)


def test_workload_duplicate_job_id_rejected(shared_workload):
    # Used to load and then raise ValueError when the run started.
    data = workload_to_dict(shared_workload)
    data["jobs"][3]["jid"] = data["jobs"][1]["jid"]
    with pytest.raises(TraceError, match=r"field 'jid' repeats the id of "
                                         r"job #1"):
        workload_from_dict(data)


@pytest.mark.parametrize("jid", ["3", -1, 2.0, True])
def test_workload_job_id_that_is_not_an_id_rejected(shared_workload, jid):
    # A string id used to raise ValueError at run time; -1 is the mark
    # of an idle node in the cluster's job column.
    data = workload_to_dict(shared_workload)
    data["jobs"][3]["jid"] = jid
    with pytest.raises(TraceError, match=r"field 'jid'"):
        workload_from_dict(data)


@pytest.mark.parametrize("profile", ["1", 1.5, None])
def test_workload_profile_that_is_not_an_index_rejected(shared_workload,
                                                        profile):
    # A string raised TypeError from a comparison; 1.5 loaded and ran
    # until the job borrowed and its profile was looked up.
    data = workload_to_dict(shared_workload)
    jid = data["jobs"][3]["jid"]
    data["jobs"][3]["profile"] = profile
    with pytest.raises(TraceError, match=rf"job {jid}: field 'profile'"):
        workload_from_dict(data)


def test_workload_node_scale_that_is_not_a_list_rejected(shared_workload):
    # Used to raise TypeError from ``tuple()``.
    data = workload_to_dict(shared_workload)
    jid = data["jobs"][3]["jid"]
    data["jobs"][3]["node_scale"] = "1.0"
    with pytest.raises(TraceError, match=rf"job {jid}: field 'node_scale'"):
        workload_from_dict(data)


def test_workload_usage_that_is_not_numbers_rejected(shared_workload):
    # Used to raise ValueError from the array conversion.
    data = workload_to_dict(shared_workload)
    jid = data["jobs"][3]["jid"]
    data["jobs"][3]["usage_times"] = "0,1"
    with pytest.raises(TraceError, match=rf"job {jid}: fields 'usage_times'"):
        workload_from_dict(data)


def test_workload_jobs_that_are_not_a_list_rejected(shared_workload):
    # A string raised AttributeError; a dict loaded as zero jobs.
    data = workload_to_dict(shared_workload)
    for jobs in ("x", {}, None):
        with pytest.raises(TraceError, match=r"field 'jobs'"):
            workload_from_dict(dict(data, jobs=jobs))


def test_workload_user_that_is_not_an_id_rejected(shared_workload):
    # Used to load and run, and to reach the records as a string.
    data = workload_to_dict(shared_workload)
    jid = data["jobs"][3]["jid"]
    data["jobs"][3]["user"] = "alice"
    with pytest.raises(TraceError, match=rf"job {jid}: field 'user'"):
        workload_from_dict(data)


def test_workload_profiles_that_are_not_a_list_rejected(shared_workload):
    # ``None`` raised a bare TypeError from iteration.
    data = workload_to_dict(shared_workload)
    with pytest.raises(TraceError, match=r"field 'profiles' is a NoneType"):
        workload_from_dict(dict(data, profiles=None))


def test_workload_profile_that_is_not_a_mapping_rejected(shared_workload):
    # ``AppProfile(**"x")`` raised a bare TypeError.
    data = workload_to_dict(shared_workload)
    data["profiles"][0] = "x"
    with pytest.raises(TraceError, match=r"profiles\[0\] is a str"):
        workload_from_dict(data)


def test_workload_profile_missing_field_rejected(shared_workload):
    # ``AppProfile(name="a")`` raised a bare TypeError.
    data = workload_to_dict(shared_workload)
    data["profiles"][1] = {"name": "a"}
    with pytest.raises(TraceError,
                       match=r"profiles\[1\]: required field 'bw_demand_gbps'"):
        workload_from_dict(data)


def test_workload_profile_unknown_field_rejected(shared_workload):
    data = workload_to_dict(shared_workload)
    data["profiles"][1]["colour"] = "red"
    with pytest.raises(TraceError, match=r"profiles\[1\]: unknown field 'colour'"):
        workload_from_dict(data)


def test_workload_nan_profile_sensitivity_rejected(shared_workload):
    # Loaded, then failed mid-run with "event time is NaN".
    data = workload_to_dict(shared_workload)
    data["profiles"][0]["remote_sensitivity"] = float("nan")
    with pytest.raises(TraceError,
                       match=r"profiles\[0\]: field 'remote_sensitivity'"):
        workload_from_dict(data)


def test_workload_string_profile_bandwidth_rejected(shared_workload):
    # Loaded, then failed mid-run with a TypeError.
    data = workload_to_dict(shared_workload)
    data["profiles"][0]["bw_demand_gbps"] = "5"
    with pytest.raises(TraceError,
                       match=r"profiles\[0\]: field 'bw_demand_gbps'"):
        workload_from_dict(data)


def test_workload_negative_profile_sensitivity_rejected(shared_workload):
    # Loaded and ran silently: contention lowered the slowdown.
    data = workload_to_dict(shared_workload)
    data["profiles"][0]["contention_sensitivity"] = -5
    with pytest.raises(TraceError,
                       match=r"profiles\[0\]: field 'contention_sensitivity'"):
        workload_from_dict(data)


# ----------------------------------------------------------------------
# Fuzzed workload dicts: fail at load, naming the job (or profile) and
# the field, or run to the end
# ----------------------------------------------------------------------
_FUZZ_SCENARIO = Scenario(n_nodes=32, n_jobs=30, frac_large=0.25, seed=0)
#: the intact dict runs 349 events
_FUZZ_MAX_EVENTS = 5_000
_JOB_FIELDS = ("jid", "submit_time", "n_nodes", "base_runtime",
               "walltime_limit", "mem_request_mb", "profile", "user",
               "usage_times", "usage_mem_mb", "node_scale")
_PROFILE_FIELDS = ("name", "bw_demand_gbps", "remote_sensitivity",
                   "contention_sensitivity", "read_write_ratio",
                   "typical_nodes", "typical_runtime")
_WRONG_TYPES = (None, "7", 1.5, True, [], {}, [1.0], ["a"])
_NON_FINITE = (float("nan"), float("inf"), float("-inf"))
_OUT_OF_RANGE = (-1, 0, -1e9)


@functools.lru_cache(maxsize=1)
def _fuzz_base():
    return workload_to_dict(runner.base_workload(_FUZZ_SCENARIO))


@st.composite
def _broken_workload(draw):
    """The 32-node x 30-job dict with one field broken: ``(dict, part,
    index, field)``.  ``part`` is ``"jobs"`` or ``"profiles"``, and
    ``index`` the entry broken; the field ``jobs`` or ``profiles``
    breaks the list itself."""
    data = copy.deepcopy(_fuzz_base())
    part = draw(st.sampled_from(("jobs", "profiles")))
    entries = data[part]
    i = draw(st.integers(0, len(entries) - 1))
    fields = _JOB_FIELDS if part == "jobs" else _PROFILE_FIELDS
    field = draw(st.sampled_from(fields + (part,)))
    if field == part:
        data[part] = draw(st.sampled_from(_WRONG_TYPES))
        return data, part, i, field
    how = draw(st.sampled_from(("drop", "type", "non-finite", "range")))
    if how == "drop":
        del entries[i][field]
    elif how == "type":
        entries[i][field] = draw(st.sampled_from(_WRONG_TYPES))
    elif how == "non-finite":
        entries[i][field] = draw(st.sampled_from(_NON_FINITE))
    elif field == "profile":
        entries[i][field] = draw(st.sampled_from(
            _OUT_OF_RANGE + (len(data["profiles"]),)))
    elif field == "jid":
        entries[i][field] = draw(st.sampled_from(
            _OUT_OF_RANGE + (entries[(i + 1) % len(entries)]["jid"],)))
    else:
        entries[i][field] = draw(st.sampled_from(_OUT_OF_RANGE))
    return data, part, i, field


@settings(max_examples=160, deadline=None)
@given(case=_broken_workload())
def test_broken_workload_dict_fails_at_load_or_runs_to_the_end(case):
    data, part, i, field = case
    try:
        wl = workload_from_dict(data)
    except TraceError as exc:
        message = str(exc)
        assert field in message, message
        if field == part:
            return
        if part == "profiles":
            assert f"profiles[{i}]:" in message, message
            return
        jid = data["jobs"][i].get("jid")
        assert any(name in message for name in (
            f"job {jid}:", f"job {jid!r}:", f"job #{i}:")), message
        return
    res = simulate(wl.fresh_jobs(), _FUZZ_SCENARIO.system_config(),
                   policy="dynamic", profiles=wl.profiles,
                   max_events=_FUZZ_MAX_EVENTS)
    ended = {r.jid for r in res.records if r.state is JobState.COMPLETED}
    assert ended | set(res.unrunnable) == {job.jid for job in wl.jobs}


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
