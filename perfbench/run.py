"""Layered benchmark of the lecalc CLI over seeded job batteries.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-golden

Each battery is one fresh `python -u -m lecalc --jobs FIFO` process with
PYTHONPATH set to the repository's src, so module-level caches start empty
as they do for every CLI user. It is a closed loop: one client, the jobs of
a battery run one after another as batch mode runs them, one child process
at a time. The job file is a named pipe: the moment the child opens it is
the moment it can take its first job, and each report line is timestamped
as it arrives on the child's unbuffered stdout. CPU time and peak RSS come
from the child's rusage.

--trace 0 runs batteries back to back, each with the next job seed, for
--seconds and prints the end-to-end metrics. --trace 1 runs one untraced
battery and the same battery twice under perfbench/traced_cli.py, checks
that the traced output bytes equal the untraced ones and that the two
traced runs give identical counters, and prints the per-layer metrics.

Every output line is checked (see battery.py). The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import errno
import fcntl
import json
import os
import selectors
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, NamedTuple, Optional, Tuple

import battery as bat
import tracer as tr

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

# a run never outlives this, whatever --seconds says; unfinished jobs fail
RUN_LIMIT_S = 150.0
SETUP_SAMPLES = 11

# per-layer metric -> (span name, field). Times are shares of the traced
# battery's wall time, the form in which layers are compared along the
# blocking path; seconds are in the printed table and the result file.
LAYER_TIMES = {
    "kernel.normal_form_terms.self_pct": ("kernel.normal_form_terms", "self_s"),
    "groebner.saturate.incl_pct": ("groebner.saturate", "incl_s"),
    "groebner.eliminate.self_pct": ("groebner.eliminate", "self_s"),
    "groebner.dim_at_origin.incl_pct": ("groebner.dim_at_origin", "incl_s"),
    "groebner.multiplicity_at_origin.incl_pct": ("groebner.multiplicity_at_origin", "incl_s"),
    "groebner.krull_dimension.self_pct": ("groebner.krull_dimension", "self_s"),
    "conormal.conormal_variety.incl_pct": ("conormal.conormal_variety", "incl_s"),
    "conormal.le_vogel_numbers.incl_pct": ("conormal.le_vogel_numbers", "incl_s"),
    "lecycles.le_numbers_affine.incl_pct": ("lecycles.le_numbers_affine", "incl_s"),
    "oracle.milnor_via_macaulay.incl_pct": ("oracle.milnor_via_macaulay", "incl_s"),
    "oracle.chi_thom_sebastiani.incl_pct": ("oracle.chi_thom_sebastiani", "incl_s"),
    "oracle.chi_homogeneous_plane.incl_pct": ("oracle.chi_homogeneous_plane", "incl_s"),
    "polyparse.parse_polynomial.self_pct": ("polyparse.parse_polynomial", "self_s"),
    "polyparse.apply_linear_change.self_pct": ("polyparse.apply_linear_change", "self_s"),
    "cli.run_job.self_pct": ("cli.run_job", "self_s"),
    "cli.render_pct": ("cli.render", "incl_s"),
}
LAYER_CALLS = (
    "kernel.normal_form_terms",
    "groebner.saturate",
    "groebner.ideal_quotient",
    "groebner.intersect",
    "groebner.eliminate",
    "groebner.dim_at_origin",
    "groebner.multiplicity_at_origin",
    "groebner.colength",
    "groebner.krull_dimension",
    "groebner.contains",
    "conormal.conormal_variety",
    "lecycles.critical_locus",
    "oracle.milnor_via_macaulay",
    "polyparse.apply_linear_change",
)
LAYER_COUNTERS = (
    "kernel.normal_form_terms.terms_in",
    "groebner.bases_computed",
    "groebner.basis_terms_total",
    "groebner.basis_terms_max",
    "groebner.coeff_bits_max",
)


class BatteryRun(NamedTuple):
    jobs: List[bat.Job]
    lines: List[bytes]
    latencies: List[float]  # one per finished job, seconds
    setup_s: float  # spawn until the child opened the job pipe
    battery_s: float  # child ready until its last report line
    wall_s: float  # spawn until exit
    cpu_s: float
    peak_rss_mb: float
    exit_code: Optional[int]
    timed_out: bool


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def run_battery(jobs: List[bat.Job], deadline: float, spans_out: Optional[str] = None) -> BatteryRun:
    """One cold CLI process over `jobs`; killed at `deadline` (perf_counter)."""
    fifo = os.path.join(WORK, "jobs.fifo")
    if os.path.lexists(fifo):
        os.unlink(fifo)
    os.mkfifo(fifo)
    if spans_out is None:
        cmd = [sys.executable, "-u", "-m", "lecalc", "--jobs", fifo]
    else:
        cmd = [sys.executable, "-u", os.path.join(HERE, "traced_cli.py"), spans_out, "--jobs", fifo]
    payload = bat.job_lines(jobs)
    lines: List[bytes] = []
    stamps: List[float] = []
    timed_out = False
    with open(os.path.join(WORK, "child_stderr.txt"), "ab") as err:
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err
        )
    try:
        t_ready = _hand_over(fifo, payload, proc.pid, deadline)
        if t_ready is None:
            timed_out = not _exited(proc.pid)
        else:
            timed_out = _read_lines(proc, deadline, lines, stamps)
    finally:
        if not _exited(proc.pid):
            os.kill(proc.pid, signal.SIGKILL)
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        t_exit = time.perf_counter()
        os.unlink(fifo)
    latencies = []
    prev = t_ready
    for t in stamps:
        latencies.append(t - prev)
        prev = t
    return BatteryRun(
        jobs=jobs,
        lines=lines,
        latencies=latencies,
        setup_s=(t_ready - t_spawn) if t_ready is not None else float("nan"),
        battery_s=(stamps[-1] - t_ready) if stamps else 0.0,
        wall_s=t_exit - t_spawn,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        exit_code=None if timed_out else proc.returncode,
        timed_out=timed_out,
    )


def _exited(pid: int) -> bool:
    # waitid with WNOWAIT leaves the child for os.wait4, which reads its rusage
    return os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is not None


def _hand_over(fifo: str, payload: bytes, pid: int, deadline: float) -> Optional[float]:
    """Wait until the child opens the job pipe, write the jobs and close it.
    Returns the time the child became ready, or None if it never did."""
    while True:
        try:
            fd = os.open(fifo, os.O_WRONLY | os.O_NONBLOCK)
            break
        except OSError as exc:
            if exc.errno != errno.ENXIO:
                raise
        if _exited(pid) or time.perf_counter() > deadline:
            return None
        time.sleep(0.0002)
    t_ready = time.perf_counter()
    try:
        flags = fcntl.fcntl(fd, fcntl.F_GETFL)
        fcntl.fcntl(fd, fcntl.F_SETFL, flags & ~os.O_NONBLOCK)
        view = memoryview(payload)
        while view:
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)
    return t_ready


def _read_lines(proc: subprocess.Popen, deadline: float, lines: List[bytes], stamps: List[float]) -> bool:
    """Collect stdout lines with arrival times until EOF; True on timeout."""
    fd = proc.stdout.fileno()
    buf = b""
    with selectors.DefaultSelector() as sel:
        sel.register(fd, selectors.EVENT_READ)
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                return True
            if not sel.select(remaining):
                continue
            chunk = os.read(fd, 1 << 16)
            now = time.perf_counter()
            if not chunk:
                return False
            buf += chunk
            while b"\n" in buf:
                line, buf = buf.split(b"\n", 1)
                lines.append(line)
                stamps.append(now)


def judge(run: BatteryRun, golden: Dict[str, bytes]) -> List[str]:
    """One entry per failed job: 'job key: reasons'."""
    failures = []
    for i, job in enumerate(run.jobs):
        if i >= len(run.lines):
            failures.append("%s: did not finish" % bat.spec_key(job.spec))
            continue
        problems = bat.check_line(job, run.lines[i], golden)
        if problems:
            failures.append("%s: %s" % (bat.spec_key(job.spec), "; ".join(problems)))
    if len(run.lines) > len(run.jobs):
        failures.append("%d report lines for %d jobs" % (len(run.lines), len(run.jobs)))
    if run.jobs and not failures and not run.timed_out:
        want = max(bat.exit_code_of(json.loads(golden[bat.spec_key(j.spec)])) for j in run.jobs)
        if run.exit_code != want:
            # the batch exit code is the worst job code; a mismatch cannot be
            # pinned on one job, so the whole battery fails
            failures = ["batch exit code %s, expected %d" % (run.exit_code, want)] * len(run.jobs)
    return failures


def measure_setup(deadline: float) -> List[float]:
    """Cold starts on an empty job file: interpreter plus `import lecalc`
    until the CLI opens its job file. The first start only warms the
    bytecode and file caches and is dropped."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        run = run_battery([], deadline)
        if run.exit_code != 0:
            raise RuntimeError("empty battery exited with %s" % run.exit_code)
        if i:
            samples.append(run.setup_s)
    return samples


def environment(workload: str, seed: int) -> dict:
    probe = subprocess.run(
        [sys.executable, "-c", "import lecalc, sys; print(lecalc.kernel_backend); print(sys.version.split()[0])"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60, check=True,
    )
    backend, version = probe.stdout.split()
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=git_env, capture_output=True, text=True, timeout=30
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "kernel_backend": backend,
        "python": version,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload,
        "seed": seed,
        "commit": commit,
    }


def end_to_end(runs: List[BatteryRun], setup: List[float]) -> Dict[str, Tuple[float, str]]:
    latencies = [t for r in runs for t in r.latencies]
    per_job: Dict[str, List[float]] = {}
    for r in runs:
        for job, t in zip(r.jobs, r.latencies):
            per_job.setdefault(bat.spec_key(job.spec), []).append(t)
    return {
        "jobs_per_s": (statistics.median(len(r.latencies) / r.battery_s if r.battery_s else 0.0
                                         for r in runs), "1/s"),
        "job_p50_s": (statistics.median(latencies) if latencies else 0.0, "s"),
        "slowest_job_s": (max(statistics.median(v) for v in per_job.values()) if per_job else 0.0, "s"),
        "cpu_s": (statistics.median(r.cpu_s for r in runs), "s"),
        "peak_rss_mb": (statistics.median(r.peak_rss_mb for r in runs), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def per_layer(summary: dict, counters: dict, spans: int, battery_s: float,
              overhead_s: float) -> Dict[str, Tuple[float, str]]:
    empty = {"calls": 0, "raised": 0, "incl_s": 0.0, "self_s": 0.0}

    def row(name):
        return summary.get(name, empty)

    def ratio(num, den):
        return num / den if den else 0.0

    out: Dict[str, Tuple[float, str]] = {}
    for name in LAYER_CALLS:
        out[name + ".calls"] = (row(name)["calls"], "count")
    for metric, (name, field) in LAYER_TIMES.items():
        out[metric] = (100.0 * ratio(row(name)[field], battery_s), "%")
    defect_self = sum(v["self_s"] for k, v in summary.items() if k.startswith("defect."))
    out["defect.self_pct"] = (100.0 * ratio(defect_self, battery_s), "%")
    for name in LAYER_COUNTERS:
        out[name] = (counters.get(name, 0), "bits" if name.endswith("bits_max") else "count")
    kernel_calls = row("kernel.normal_form_terms")["calls"]
    out["kernel.normal_form_terms.nonzero_ratio"] = (
        ratio(counters.get("kernel.normal_form_terms.nonzero", 0), kernel_calls), "ratio")
    attempts = row("lecycles.frame_attempt")["calls"]
    out["lecycles.frame_attempts"] = (attempts, "count")
    out["lecycles.frame_yield"] = (ratio(counters.get("lecycles.frames_accepted", 0), attempts), "ratio")
    out["oracle.milnor_via_macaulay.refusals"] = (row("oracle.milnor_via_macaulay")["raised"], "count")
    out["trace.spans"] = (spans, "count")
    out["trace.battery_s"] = (battery_s, "s")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out


def layer_table(summary: dict, battery_s: float) -> List[str]:
    rows = sorted((kv for kv in summary.items() if kv[1]["calls"]), key=lambda kv: -kv[1]["incl_s"])
    out = ["  %-36s %8s %9s %9s %7s %7s" % ("span", "calls", "incl_s", "self_s", "incl%", "self%")]
    for name, r in rows:
        out.append(
            "  %-36s %8d %9.4f %9.4f %7.2f %7.2f"
            % (name, r["calls"], r["incl_s"], r["self_s"],
               100 * r["incl_s"] / battery_s, 100 * r["self_s"] / battery_s)
        )
    return out


def trace_workload(workload: bat.Workload, seed: int, golden, deadline: float, result: dict):
    """One untraced and two traced batteries over the same jobs."""
    jobs = bat.battery(workload, seed, 0)
    plain = run_battery(jobs, deadline)
    paths = [os.path.join(WORK, "spans_%s_%d.json" % (workload.name, k)) for k in (1, 2)]
    traced = [run_battery(jobs, deadline, spans_out=p) for p in paths]
    failures: List[str] = []
    for r in [plain] + traced:
        failures += judge(r, golden)
    for r in traced:
        if r.lines != plain.lines:
            failures.append("traced output bytes differ from untraced output bytes")
    dumps = []
    for p in paths:
        try:
            with open(p, encoding="utf-8") as fh:
                dumps.append(json.load(fh))
        except (OSError, ValueError):
            failures.append("a traced run wrote no spans")
            return failures, 3 * len(jobs), {}
    summaries = [tr.summarize(d) for d in dumps]
    counts = [
        ({k: (v["calls"], v["raised"]) for k, v in s.items()}, d["counters"], len(d["spans"]))
        for s, d in zip(summaries, dumps)
    ]
    if counts[0] != counts[1]:
        failures.append("two traced runs with one seed gave different counters")
    overhead = traced[0].battery_s - plain.battery_s
    print("workload %s seed %d: traced battery %.3f s, untraced %.3f s, tracing overhead %.3f s"
          % (workload.name, seed, traced[0].battery_s, plain.battery_s, overhead))
    print("\n".join(layer_table(summaries[0], traced[0].battery_s)))
    result["layers"] = summaries[0]
    metrics = per_layer(summaries[0], dumps[0]["counters"], len(dumps[0]["spans"]),
                        traced[0].battery_s, overhead)
    return failures, 3 * len(jobs), metrics


def time_workload(workload: bat.Workload, seed: int, seconds: float, golden, deadline: float, result: dict):
    """Batteries back to back, each with the next job seed, for `seconds`."""
    setup = measure_setup(deadline)
    runs: List[BatteryRun] = []
    failures: List[str] = []
    t_measure = time.perf_counter()
    while True:
        r = run_battery(bat.battery(workload, seed, len(runs)), deadline)
        runs.append(r)
        failures += judge(r, golden)
        elapsed = time.perf_counter() - t_measure
        if r.timed_out or elapsed + r.wall_s > seconds:
            break
    n = sum(len(r.latencies) for r in runs)
    print("workload %s seed %d: %d batteries, %d jobs, job seeds %d..%d"
          % (workload.name, seed, len(runs), n,
             seed * bat.SEED_STRIDE, seed * bat.SEED_STRIDE + len(runs) - 1))
    print("job_p50_s over %d job latencies; slowest_job_s is the largest per-job median; "
          "setup_s is the median of %d cold starts" % (n, len(setup)))
    result["batteries"] = [
        {"job_seed": r.jobs[0].spec["seed"], "battery_s": r.battery_s,
         "cpu_s": r.cpu_s, "peak_rss_mb": r.peak_rss_mb,
         "jobs": [{"job": bat.spec_key(j.spec), "latency_s": t} for j, t in zip(r.jobs, r.latencies)]}
        for r in runs
    ]
    result["setup_samples_s"] = setup
    return failures, sum(len(r.jobs) for r in runs), end_to_end(runs, setup)


def run_workload(args) -> int:
    workload = bat.WORKLOADS[args.workload]
    golden = bat.load_golden(workload.name)
    os.makedirs(WORK, exist_ok=True)
    deadline = time.perf_counter() + RUN_LIMIT_S
    env = environment(workload.name, args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    result: dict = {"env": env}
    if args.trace:
        failures, attempted, metrics = trace_workload(workload, args.seed, golden, deadline, result)
    else:
        failures, attempted, metrics = time_workload(
            workload, args.seed, args.seconds, golden, deadline, result)

    failed = len(failures)
    print("%-44s %16.6f %s (%d of %d jobs failed)"
          % ("failed_share", failed / attempted, "ratio", failed, attempted))
    for f in failures[:20]:
        print("FAILED " + f)
    for name, (value, unit) in metrics.items():
        print("%-44s %16.6f %s" % (name, value, unit))
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    result.update(summary)
    out = os.path.join(WORK, "BENCH_%s_seed%d_trace%d.json" % (workload.name, args.seed, args.trace))
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print(json.dumps(summary))
    return 0


def write_golden() -> int:
    """Record the default-seed output of every workload as golden bytes."""
    os.makedirs(WORK, exist_ok=True)
    os.makedirs(bat.GOLDEN_DIR, exist_ok=True)
    for workload in bat.WORKLOADS.values():
        jobs = bat.battery(workload, 0, 0)
        run = run_battery(jobs, time.perf_counter() + RUN_LIMIT_S)
        if run.timed_out or len(run.lines) != len(jobs):
            print("%s: battery did not finish" % workload.name, file=sys.stderr)
            return 1
        by_key = {bat.spec_key(j.spec): line for j, line in zip(jobs, run.lines)}
        with open(bat.golden_path(workload.name), "wb") as fh:
            for job in workload.jobs:
                fh.write(by_key[bat.spec_key(job.spec)] + b"\n")
        print("%s: %d golden lines, exit code %s" % (workload.name, len(jobs), run.exit_code))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(bat.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true", help="re-record golden bytes at seed 0")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lecalc", "__init__.py")):
        print("error: %s holds no lecalc sources to benchmark" % SRC, file=sys.stderr)
        return 2
    if args.write_golden:
        return write_golden()
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
