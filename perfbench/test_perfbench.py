"""Checks of the benchmark's own helpers: span arithmetic, the output gate,
seeding, and the run time limit. Each test takes well under a few seconds."""

import json
import os
import subprocess
import sys
import time

import pytest

import battery as bat
import run as bench
import tracer as tr

SRC = bench.SRC


def _dump(names, spans):
    return {"names": names, "spans": spans, "counters": {}}


def test_child_span_is_excluded_from_parent_self_time():
    # A [0, 10] holds B [2, 5], which holds C [3, 4]
    dump = _dump(["A", "B", "C"], [[0, 0, 10, -1, 1, 0], [1, 2, 5, 0, 1, 0], [2, 3, 4, 1, 1, 0]])
    s = tr.summarize(dump)
    assert s["A"]["self_s"] == pytest.approx(7e-9)
    assert s["B"]["self_s"] == pytest.approx(2e-9)
    assert s["C"]["self_s"] == pytest.approx(1e-9)
    assert s["A"]["incl_s"] == pytest.approx(10e-9)
    assert s["B"]["incl_s"] == pytest.approx(3e-9)


def test_recursion_is_not_double_counted():
    # A [0, 10] -> B [1, 9] -> A [2, 6]: inclusive A is 10, not 14
    dump = _dump(["A", "B"], [[0, 0, 10, -1, 1, 0], [1, 1, 9, 0, 1, 0], [0, 2, 6, 1, 1, 0]])
    s = tr.summarize(dump)
    assert s["A"]["calls"] == 2
    assert s["A"]["incl_s"] == pytest.approx(10e-9)
    assert s["A"]["self_s"] == pytest.approx((2 + 4) * 1e-9)
    assert s["B"]["self_s"] == pytest.approx(4e-9)


def test_tracer_records_nesting_jobs_and_exceptions():
    ticks = iter(range(100))
    t = tr.Tracer(clock=lambda: next(ticks))

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x

    w_inner = t.wrap(inner, "m.inner")
    w_job = t.wrap(lambda x: w_inner(x), tr.JOB_SPAN)
    w_job(1)
    try:
        w_job(-1)
    except ValueError:
        pass
    dump = {"names": t.names, "spans": [list(z) for z in zip(t.name_of, t.start, t.end, t.parent, t.job, t.raised)]}
    s = tr.summarize(dump)
    assert s[tr.JOB_SPAN]["calls"] == 2 and s["m.inner"]["calls"] == 2
    assert s["m.inner"]["raised"] == 1 and s[tr.JOB_SPAN]["raised"] == 1
    assert [sp[4] for sp in dump["spans"]] == [1, 1, 2, 2]
    assert [sp[3] for sp in dump["spans"]] == [-1, 0, -1, 2]


def _golden_case(workload, with_identities=False):
    golden = bat.load_golden(workload)
    for job in bat.WORKLOADS[workload].jobs:
        line = golden[bat.spec_key(job.spec)]
        if with_identities and not json.loads(line)["identities"]:
            continue
        return bat.Job(dict(job.spec, seed=0), job.mu), line, golden
    raise AssertionError("no suitable golden line")


def test_golden_line_passes_and_one_byte_drift_fails():
    job, line, golden = _golden_case("isolated_batch")
    assert bat.check_line(job, line, golden) == []
    drifted = line.replace(b'"schema_version":"1"', b'"schema_version":"2"')
    assert len(drifted) == len(line) and drifted != line
    assert bat.check_line(job, drifted, golden) == ["output differs from the golden bytes"]


def test_identity_that_does_not_hold_fails():
    job, line, golden = _golden_case("isolated_batch", with_identities=True)
    report = json.loads(line)
    report["identities"][0]["holds"] = False
    bad = json.dumps(report, separators=(",", ":")).encode()
    problems = bat.check_line(job, bad, golden)
    assert any("does not hold" in p for p in problems)


def test_closed_form_check_catches_a_wrong_milnor_number():
    job = bat.brieskorn_pham("milnor", "x,y,z", [2, 3, 4])
    assert job.mu == 6
    assert bat.closed_form_problem(job, {"result": {"mu": "6"}}) is None
    assert bat.closed_form_problem(job, {"result": {"mu": "5"}})


def test_seed_changes_seed_field_and_order_not_the_jobs():
    w = bat.WORKLOADS["affine_nonisolated"]
    a, b = bat.battery(w, 0), bat.battery(w, 1)
    assert {j.spec["seed"] for j in a} == {0}
    assert {j.spec["seed"] for j in b} == {bat.SEED_STRIDE}
    assert sorted(bat.spec_key(j.spec) for j in a) == sorted(bat.spec_key(j.spec) for j in b)
    assert [bat.spec_key(j.spec) for j in a] != [bat.spec_key(j.spec) for j in b]


def test_seed_changes_frames_but_not_results(tmp_path):
    # two cheap jobs that need a genericized frame, so the seed is used
    w = bat.WORKLOADS["affine_nonisolated"]
    picked = [j for j in w.jobs if j.spec["f"] in ("x^2*y^2", "x^3")]
    golden = bat.load_golden(w.name)
    reports = []
    for seed in (0, 7):
        jobs = [bat.Job(dict(j.spec, seed=seed), j.mu) for j in picked]
        path = tmp_path / ("jobs%d.ndjson" % seed)
        path.write_bytes(bat.job_lines(jobs))
        proc = subprocess.run(
            [sys.executable, "-m", "lecalc", "--jobs", str(path)],
            capture_output=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=120,
        )
        lines = proc.stdout.splitlines()
        assert proc.returncode == 0 and len(lines) == len(jobs)
        for job, line in zip(jobs, lines):
            assert bat.check_line(job, line, golden) == []
        reports.append([json.loads(line) for line in lines])
    for r0, r7 in zip(*reports):
        assert r0["result"] == r7["result"]
        assert r0["frame"]["matrix"] != r7["frame"]["matrix"]


def test_run_time_limit_kills_and_fails_unfinished_jobs(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "WORK", str(tmp_path))
    w = bat.WORKLOADS["affine_nonisolated"]
    jobs = bat.battery(w, 0)
    start = time.perf_counter()
    run = bench.run_battery(jobs, deadline=start + 1.0)
    assert time.perf_counter() - start < 10
    assert run.timed_out and run.exit_code is None
    failures = bench.judge(run, bat.load_golden(w.name))
    assert len(failures) == len(jobs) - len(run.lines)
    assert all("did not finish" in f for f in failures)
