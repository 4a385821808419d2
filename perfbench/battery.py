"""The job batteries and their correctness gate.

A workload is a fixed list of `lecalc --jobs` job lines. The workload seed
sets every job's `seed` field and the order the jobs run in; the result of
every job is independent of the seed, only the work done to reach it is
not (frame attempts and coefficient sizes depend on the genericizing
matrices). A run may execute several batteries: battery `rep` of workload
seed `s` gives every job the seed `s * 1000 + rep`, so seed 0, battery 0 is
the default seed the golden bytes were recorded at.

A job fails when its output line differs from the golden bytes (default
seed only), its `result` or error kind differs from the golden one (every
seed), an identity reports `holds: false`, its implied exit code differs
from the expected one, a closed form for its family disagrees, or it did
not finish.
"""

from __future__ import annotations

import json
import math
import os
import random
from typing import Dict, List, NamedTuple, Optional

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
SEED_STRIDE = 1000


class Job(NamedTuple):
    spec: dict
    mu: Optional[int] = None  # closed-form Milnor number of the family, when known


class Workload(NamedTuple):
    name: str
    why: str
    jobs: List[Job]


def _job(mode: str, vars: str, f: str, X: Optional[str] = None, mu: Optional[int] = None) -> Job:
    spec = {"mode": mode, "vars": vars, "f": f}
    if X is not None:
        spec["X"] = X
    return Job(spec, mu)


def brieskorn_pham(mode: str, vars: str, exponents: List[int]) -> Job:
    """sum x_i^a_i, whose Milnor number is prod (a_i - 1)."""
    names = vars.split(",")
    f = "+".join("%s^%d" % (nm, a) for nm, a in zip(names, exponents))
    return _job(mode, vars, f, mu=math.prod(a - 1 for a in exponents))


def t_pqr(mode: str, p: int, q: int, r: int) -> Job:
    """x^p + y^q + z^r + xyz with 1/p + 1/q + 1/r <= 1: mu = p + q + r - 1."""
    return _job(mode, "x,y,z", "x^%d+y^%d+z^%d+x*y*z" % (p, q, r), mu=p + q + r - 1)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "affine_nonisolated",
            # the multi-generator saturate -> colon -> intersect -> eliminate
            # path with genericized frames and large rational coefficients;
            # the kernel, saturate and dim_at_origin do most of their work
            # here. Jobs that take several seconds (x*y*z*w 5-10 s,
            # y^2-x^3-x^2*z^2 2-6 s, x^3+y^2*z^2 0.7-1.8 s depending on the
            # seed) are left out: a run sees too few of them for a steady median
            "positive-dimensional critical loci: saturation, colon and elimination chains in genericized frames",
            [
                _job("le", "x,y,z,w", "x^2+y^2+z^2"),
                _job("le", "x,y,z", "z*(x^2-y^3)"),
                _job("le", "x,y,z", "x^2+y^2*z"),
                _job("le", "x,y,z", "x^2*y^2+z^2"),
                _job("le", "x,y", "x*y^2"),
                _job("defect", "x,y", "x^2*y^2"),
                _job("le", "x,y,z", "x*y*z"),
                _job("defect", "x,y,z", "y^2-x^2*z"),
                _job("defect", "x,y", "x^3"),
                _job("le", "x,y,z", "x^2+y^2"),
                _job("defect", "x,y,z", "x^2*y+z^2"),
                _job("le", "x,y,z", "x*y^2+z^2*x"),
            ],
        ),
        Workload(
            "isolated_batch",
            # the same engine used as many small bases: per-operation overhead
            # outweighs reduction, so a kernel-only speedup should move it
            # little; the jet oracle runs as an identity check on every job
            "short isolated singularities (ADE, Brieskorn-Pham, T_pqr): many small bases, per-operation overhead",
            [
                brieskorn_pham("milnor", "x,y", [5, 2]),
                brieskorn_pham("milnor", "x,y", [2, 7]),
                _job("milnor", "x,y", "x^2*y+y^3", mu=4),
                _job("milnor", "x,y", "x^2*y+y^4", mu=5),
                _job("defect", "x,y", "x^2*y+y^6", mu=7),
                brieskorn_pham("milnor", "x,y", [3, 4]),
                _job("milnor", "x,y", "x^3+x*y^3", mu=7),
                brieskorn_pham("milnor", "x,y", [3, 5]),
                _job("defect", "x,y", "x*y", mu=1),
                brieskorn_pham("defect", "x,y", [4, 4]),
                brieskorn_pham("milnor", "x,y", [4, 5]),
                brieskorn_pham("milnor", "x,y,z", [2, 3, 4]),
                brieskorn_pham("milnor", "x,y,z", [3, 3, 3]),
                brieskorn_pham("defect", "x,y,z", [2, 2, 5]),
                brieskorn_pham("defect", "x,y,z", [2, 3, 3]),
                brieskorn_pham("defect", "x,y,z", [3, 4, 2]),
                brieskorn_pham("milnor", "x,y,z,w", [2, 2, 2, 3]),
                brieskorn_pham("milnor", "x,y,z,w", [2, 2, 3, 4]),
                brieskorn_pham("milnor", "x,y,z,w", [2, 3, 3, 3]),
                t_pqr("milnor", 3, 3, 4),
            ],
        ),
        Workload(
            "germ_conormal",
            # the conormal construction in 2N variables with block-elimination
            # orders, and the frame-attempt loop in conormal. The Whitney
            # umbrella x^2-y^2*z (close to a minute), x*y*z with f = 0 (5-6 s)
            # and the line pair x*y;z with f = 0 (0.3-1.6 s depending on the
            # seed) are left out: a run sees too few of them for a steady median
            "functions on singular germs: conormal spaces in 2N variables and the conormal frame loop",
            [
                _job("levogel", "x,y", "0", X="x*y"),
                _job("defect", "x,y", "x", X="x*y"),
                _job("levogel", "x,y", "0", X="y^2-x^3"),
                _job("euler-check", "x,y", "x", X="y^2-x^3"),
                _job("levogel", "x,y,z", "0", X="x^2+y^2-z^2"),
                _job("euler-check", "x,y,z", "z", X="x^2+y^2-z^2"),
                _job("euler-check", "x,y,z", "x+y+z", X="x*y*z"),
                _job("defect", "x,y,z", "x+y", X="x*y;z"),
                _job("euler-check", "x,y", "x^2+y^2"),
            ],
        ),
        Workload(
            "oracle_jets",
            # the only workload where the Groebner engine does no work, so
            # every engine optimisation predicts no change here; without it
            # the oracle layer is a sliver of every run
            "oracle mode only: jet ranks, Thom-Sebastiani and one expected refusal; no Groebner bases at all",
            [
                brieskorn_pham("oracle", "x,y,z,w", [4, 4, 4, 4]),
                brieskorn_pham("oracle", "x,y,z", [5, 5, 5]),
                brieskorn_pham("oracle", "x,y", [7, 8]),
                brieskorn_pham("oracle", "x,y,z", [3, 4, 6]),
                _job("oracle", "a,b,c,d", "a*b*c*d"),
                _job("oracle", "x,y", "x^2*y^2"),
                _job("oracle", "x,y,z", "x*y+z^3", mu=2),
                _job("oracle", "x,y,z", "x^2*y+x*y^2+z^2", mu=4),
                _job("oracle", "x,y", "x^3*y-x*y^3", mu=9),
                _job("oracle", "x,y,z", "x^2*y^2+z^3"),
                t_pqr("oracle", 3, 3, 3),
            ],
        ),
    )
}


def job_key(mode: str, vars, f: str, X) -> str:
    """Seed-free identity of a job, equal for a battery entry and for the
    `job` payload of its report line."""
    if isinstance(vars, str):
        vars = [v.strip() for v in vars.split(",") if v.strip()]
    if isinstance(X, str):
        X = [p.strip() for p in X.split(";") if p.strip()]
    return json.dumps([mode, list(vars), f, X])


def spec_key(spec: dict) -> str:
    return job_key(spec["mode"], spec["vars"], spec["f"], spec.get("X"))


def battery(workload: Workload, seed: int, rep: int = 0) -> List[Job]:
    """The jobs of one battery, in run order, each with its seed field."""
    job_seed = seed * SEED_STRIDE + rep
    order = list(range(len(workload.jobs)))
    random.Random(job_seed).shuffle(order)
    out = []
    for i in order:
        job = workload.jobs[i]
        out.append(Job(dict(job.spec, seed=job_seed), job.mu))
    return out


def job_lines(jobs: List[Job]) -> bytes:
    return "".join(json.dumps(j.spec) + "\n" for j in jobs).encode()


# -- golden output and checks ---------------------------------------------------


def golden_path(workload_name: str) -> str:
    return os.path.join(GOLDEN_DIR, workload_name + ".ndjson")


def load_golden(workload_name: str) -> Dict[str, bytes]:
    """Job key -> exact report line (no newline) at the default seed."""
    out: Dict[str, bytes] = {}
    with open(golden_path(workload_name), "rb") as fh:
        for raw in fh:
            line = raw.rstrip(b"\n")
            job = json.loads(line)["job"]
            out[job_key(job["mode"], job["vars"], job["f"], job["X"])] = line
    return out


def exit_code_of(report: dict) -> int:
    """Exit code the CLI gives a job with this report."""
    error = report.get("error")
    if error is None:
        return 0
    return 2 if error["kind"] == "refusal" else 1


def closed_form_problem(job: Job, report: dict) -> Optional[str]:
    """Compare the family's closed-form Milnor number with the report."""
    if job.mu is None:
        return None
    result = report.get("result") or {}
    mode = job.spec["mode"]
    if mode == "milnor":
        got = result.get("mu")
    elif mode == "defect":
        got = (result.get("lambda") or {}).get("0")
        n = len(job.spec["vars"].split(","))
        if result.get("D") != str((-1) ** n * job.mu):
            return "D = %s, closed form gives %d" % (result.get("D"), (-1) ** n * job.mu)
    elif mode == "oracle":
        got = result.get("value")
    else:
        return None
    if got != str(job.mu):
        return "mu = %s, closed form gives %d" % (got, job.mu)
    return None


def check_line(job: Job, line: bytes, golden: Dict[str, bytes]) -> List[str]:
    """Reasons the report line for `job` is wrong; empty when it is right."""
    key = spec_key(job.spec)
    want_line = golden.get(key)
    if want_line is None:
        return ["no golden line for job %s" % key]
    try:
        report = json.loads(line)
    except ValueError:
        return ["report line is not JSON"]
    want = json.loads(want_line)
    problems = []
    echo = report.get("job") or {}
    if echo.get("seed") != str(job.spec["seed"]) or key != job_key(
        echo.get("mode"), echo.get("vars") or [], echo.get("f"), echo.get("X")
    ):
        problems.append("report belongs to another job")
    if job.spec["seed"] == 0 and line != want_line:
        problems.append("output differs from the golden bytes")
    if report.get("result") != want["result"]:
        problems.append("result differs from the expected result")
    if exit_code_of(report) != exit_code_of(want):
        problems.append("exit code %d, expected %d" % (exit_code_of(report), exit_code_of(want)))
    for ident in report.get("identities") or []:
        if ident.get("holds") is not True:
            problems.append("identity %s does not hold" % ident.get("name"))
    closed = closed_form_problem(job, report)
    if closed:
        problems.append(closed)
    return problems
