"""Benchmark the pure normal-form kernel against the compiled one.

Two levels:
  * kernel: identical reduction calls against precomputed bases, outputs
    asserted equal pair by pair;
  * pipeline: the same CLI batch run in subprocesses with and without
    LECALC_PURE=1, stdout asserted byte-identical. Each side is labelled by
    the kernel backend its child process reports; when the compiled kernel
    is not built, both would be pure and the second side is skipped.

Run from anywhere, no install needed:
    python3 benchmarks/bench_reduction.py [--repeat N]

The end-to-end benchmark of the lecalc CLI is perfbench/run.py.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

from lecalc import (  # noqa: E402
    Ideal,
    MonomialOrder,
    VariableFrame,
    groebner_basis,
    parse_polynomial,
)
from lecalc._kernel import pure as kernel_pure  # noqa: E402
from lecalc._rng import DeterministicRng  # noqa: E402

try:
    from lecalc._kernel import _speedups as kernel_fast
except ImportError:
    kernel_fast = None


def _term_list(poly, key):
    return sorted(poly.terms.items(), key=lambda t: key(t[0]), reverse=True)


def _random_terms(rng, n, count, maxdeg):
    from fractions import Fraction

    terms = {}
    for _ in range(count):
        exp = tuple(rng.uniform_int(0, maxdeg) for _ in range(n))
        terms[exp] = Fraction(rng.uniform_int(-9, 9) or 1, rng.uniform_int(1, 4))
    return terms


def bench_kernel(repeat):
    frame = VariableFrame(["x", "y", "z"])
    gens = tuple(
        parse_polynomial(s, frame)
        for s in ("x^4 + y^4 + z^4 + x*y*z", "4*x^3 + y*z", "4*y^3 + x*z", "4*z^3 + x*y")
    )
    order = MonomialOrder.degrevlex(frame)
    descriptor = order.descriptor
    key = kernel_pure.make_key(descriptor)
    basis = [_term_list(g, key) for g in groebner_basis(Ideal(frame, gens), order)]

    rng = DeterministicRng(0xBE7C4)
    targets = []
    for _ in range(60):
        terms = _random_terms(rng, 3, 12, 9)
        targets.append(sorted(terms.items(), key=lambda t: key(t[0]), reverse=True))

    def run(kernel):
        out = []
        start = time.perf_counter()
        for _ in range(repeat):
            out = [kernel.normal_form_terms(t, basis, descriptor) for t in targets]
        return time.perf_counter() - start, out

    t_pure, out_pure = run(kernel_pure)
    print("kernel pure:     %8.3f s  (%d reductions)" % (t_pure, repeat * len(targets)))
    if kernel_fast is None:
        print("kernel compiled: not built, skipping")
        return
    t_fast, out_fast = run(kernel_fast)
    print("kernel compiled: %8.3f s  (x%.1f)" % (t_fast, t_pure / t_fast if t_fast else 0.0))
    assert out_pure == out_fast, "kernels disagree"
    print("outputs identical: yes")


_JOBS = [
    {"mode": "le", "vars": "x,y", "f": "x*y^2"},
    {"mode": "le", "vars": "x,y,z", "f": "x^2 + y^2*z"},
    {"mode": "milnor", "vars": "x,y", "f": "x^5 + y^4"},
    {"mode": "levogel", "vars": "x,y", "f": "0", "X": "x^2 - y^3"},
    {"mode": "defect", "vars": "x,y", "f": "x^2*y^2"},
]


def _child_env(force_pure):
    env = dict(os.environ)
    env.pop("LECALC_PURE", None)
    if force_pure:
        env["LECALC_PURE"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def _child_backend(env):
    proc = subprocess.run(
        [sys.executable, "-c", "import lecalc; print(lecalc.kernel_backend)"],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return proc.stdout.strip()


def bench_pipeline():
    with tempfile.NamedTemporaryFile("w", suffix=".ndjson", delete=False) as fh:
        for job in _JOBS:
            fh.write(json.dumps(job) + "\n")
        path = fh.name
    runs = {}
    try:
        for force_pure in (True, False):
            env = _child_env(force_pure)
            label = _child_backend(env)
            if label in runs:
                print("pipeline %-9s not built, skipping" % "compiled:")
                continue
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "lecalc", "--jobs", path],
                capture_output=True,
                text=True,
                env=env,
                cwd=ROOT,
            )
            elapsed = time.perf_counter() - start
            if proc.returncode != 0:
                raise RuntimeError("pipeline run failed:\n" + proc.stderr)
            runs[label] = (elapsed, proc.stdout)
            print("pipeline %-9s %8.3f s  (%d jobs)" % (label + ":", elapsed, len(_JOBS)))
    finally:
        os.unlink(path)
    if len(runs) == 2:
        assert runs["pure"][1] == runs["compiled"][1], "pipeline outputs differ between backends"
        print("outputs identical: yes")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeat", type=int, default=20, help="kernel benchmark repetitions")
    args = ap.parse_args()
    bench_kernel(args.repeat)
    bench_pipeline()


if __name__ == "__main__":
    main()
