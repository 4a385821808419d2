"""Command-line front end.

One job per invocation, or a batch file of JSON jobs, one per line. Reports
are JSON with a fixed key order and every integer rendered as a decimal
string, so reruns of equal jobs are byte-identical. Exit codes: 0 success,
1 bad input, 2 mathematical refusal.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .conormal import VarietyGerm, le_vogel_numbers  # noqa: F401  (re-exported surface)
from .defect import DefectReport, defect_affine, defect_levogel
from .groebner import Ideal, dim_at_origin
from .lecycles import CoordinateFrame
from .oracle import chi_homogeneous_plane, chi_thom_sebastiani, milnor_via_macaulay
from .polyparse import (
    InputError,
    MathematicalRefusal,
    Polynomial,
    VariableFrame,
    parse_polynomial,
)

SCHEMA_VERSION = "1"
MODES = ("milnor", "le", "levogel", "defect", "euler-check", "oracle")

_X_MODES = {"levogel", "defect", "euler-check"}


class _CliInputError(Exception):
    pass


class JobSpec:
    """One unit of work, as given by the user."""

    __slots__ = ("mode", "vars", "f", "X", "seed", "budget", "order", "matrix", "format")

    def __init__(
        self,
        mode: str,
        vars: Sequence[str],
        f: str,
        X: Optional[Sequence[str]] = None,
        seed: int = 0,
        budget: int = 25,
        order: Optional[Sequence[str]] = None,
        matrix: Optional[List[List[Fraction]]] = None,
        format: str = "json",
    ):
        if mode not in MODES:
            raise _CliInputError("unknown mode %r; choose from %s" % (mode, ", ".join(MODES)))
        if not vars:
            raise _CliInputError("--vars is required")
        if f is None:
            raise _CliInputError("--f is required")
        if X is not None and mode not in _X_MODES:
            raise _CliInputError("mode %s does not accept --X" % mode)
        if (order is not None or matrix is not None) and mode not in _FRAME_MODES:
            raise _CliInputError("mode %s does not accept a frame" % mode)
        if order is not None and matrix is not None:
            raise _CliInputError("give either --order or --matrix, not both")
        if seed < 0 or budget < 0:
            raise _CliInputError("seed and budget must be nonnegative")
        if format not in ("json", "text"):
            raise _CliInputError("format must be json or text")
        self.mode = mode
        self.vars = tuple(vars)
        self.f = f
        self.X = tuple(X) if X is not None else None
        self.seed = seed
        self.budget = budget
        self.order = tuple(order) if order is not None else None
        self.matrix = matrix
        self.format = format

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        if not isinstance(data, dict):
            raise _CliInputError("job line must be a JSON object")
        known = {"mode", "vars", "f", "X", "seed", "budget", "order", "matrix", "format"}
        extra = set(data) - known
        if extra:
            raise _CliInputError("unknown job keys: %s" % ", ".join(sorted(extra)))
        return cls(
            mode=data.get("mode", ""),
            vars=_as_name_list(data.get("vars"), "vars"),
            f=data.get("f"),
            X=_as_poly_list(data.get("X")),
            seed=_as_int(data.get("seed", 0), "seed"),
            budget=_as_int(data.get("budget", 25), "budget"),
            order=_as_name_list(data.get("order"), "order") if data.get("order") is not None else None,
            matrix=_parse_matrix_value(data.get("matrix")) if data.get("matrix") is not None else None,
            format=data.get("format", "json"),
        )


def _as_int(value, label: str) -> int:
    if isinstance(value, bool):
        raise _CliInputError("%s must be an integer" % label)
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            raise _CliInputError("%s must be an integer, got %r" % (label, value))
    raise _CliInputError("%s must be an integer, got %r" % (label, value))


def _as_name_list(value, label: str) -> List[str]:
    if value is None:
        return []
    if isinstance(value, str):
        return [nm.strip() for nm in value.split(",") if nm.strip()]
    if isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value):
        return list(value)
    raise _CliInputError("%s must be a comma list or array of names" % label)


def _as_poly_list(value) -> Optional[List[str]]:
    if value is None:
        return None
    if isinstance(value, str):
        return [p.strip() for p in value.split(";") if p.strip()]
    if isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value):
        return list(value)
    raise _CliInputError("X must be a semicolon list or array of polynomial strings")


def _parse_matrix_value(value) -> List[List[Fraction]]:
    rows: List[List[Fraction]] = []
    if isinstance(value, str):
        raw_rows = [r for r in value.split(";") if r.strip()]
        cells = [[c.strip() for c in r.split(",")] for r in raw_rows]
    elif isinstance(value, (list, tuple)):
        cells = [[str(c) for c in row] for row in value]
    else:
        raise _CliInputError("matrix must be 'a,b;c,d' or an array of rows")
    for row in cells:
        out_row = []
        for cell in row:
            try:
                out_row.append(Fraction(cell))
            except (ValueError, ZeroDivisionError):
                raise _CliInputError("matrix entry %r is not a rational number" % cell)
        rows.append(out_row)
    if not rows:
        raise _CliInputError("matrix is empty")
    return rows


# -- serialization ----------------------------------------------------------------

def _istr(n: int) -> str:
    return str(int(n))


def _lambda_payload(lam: Dict[int, int]) -> Dict[str, str]:
    return {str(k): _istr(lam[k]) for k in sorted(lam)}


def _frame_payload(frame: CoordinateFrame) -> dict:
    d = frame.describe()
    return {
        "provenance": d["provenance"],
        "attempt": _istr(d["attempt"]),
        "seed": None if d["seed"] is None else _istr(d["seed"]),
        "variables": d["variables"],
        "matrix": d["matrix"],
    }


def _log_payload(log: List[dict]) -> List[dict]:
    return [
        {"stage": e["stage"], "k": _istr(e["k"]), "ok": e["ok"], "detail": e["detail"]}
        for e in log
    ]


def _stringify(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return _istr(value)
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_stringify(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _stringify(v) for k, v in value.items()}
    return value


def _job_payload(job: Optional[JobSpec]) -> Optional[dict]:
    if job is None:
        return None
    return {
        "mode": job.mode,
        "vars": list(job.vars),
        "f": job.f,
        "X": list(job.X) if job.X is not None else None,
        "seed": _istr(job.seed),
        "budget": _istr(job.budget),
        "order": list(job.order) if job.order is not None else None,
        "matrix": [[str(c) for c in row] for row in job.matrix] if job.matrix is not None else None,
        "format": job.format,
    }


def _report(
    job: Optional[JobSpec],
    result: Optional[dict],
    error: Optional[dict],
    frame: Optional[dict] = None,
    log: Optional[List[dict]] = None,
    identities: Optional[List[dict]] = None,
) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "job": _job_payload(job),
        "result": result,
        "error": error,
        "frame": frame,
        "properness_log": log,
        "identities": identities,
        "timing": None,
    }


# -- dispatch ---------------------------------------------------------------------

def _build_frame_arg(job: JobSpec, frame: VariableFrame):
    if job.order is not None:
        if set(job.order) != set(frame.names):
            raise InputError("--order must be a permutation of --vars")
        return CoordinateFrame.from_order(frame, job.order)
    if job.matrix is not None:
        return CoordinateFrame.from_matrix(frame, job.matrix)
    return None


def _build_germ(job: JobSpec, frame: VariableFrame) -> VarietyGerm:
    if job.X is None:
        return VarietyGerm.ambient(frame)
    gens = tuple(parse_polynomial(s, frame) for s in job.X)
    ideal = Ideal(frame, gens)
    d = dim_at_origin(ideal)
    if d == -1:
        raise InputError("empty germ: the equations have no solution at the origin")
    return VarietyGerm(frame, ideal, d)


def _payload_le(report: DefectReport) -> dict:
    payload = {
        "s": _istr(report.s),
        "lambda": _lambda_payload(report.lambda_numbers),
        "D": _istr(report.D),
        "chi_phi_0": _istr(report.chi_phi_0),
    }
    if report.s == 0:
        payload["mu"] = _istr(report.lambda_numbers[0])
    return payload


def _payload_levogel(report: DefectReport) -> dict:
    payload = {
        "d": _istr(report.d),
        "s": _istr(report.s),
        "lambda": _lambda_payload(report.lambda_numbers),
        "D": _istr(report.D),
        "chi_phi_0": _istr(report.chi_phi_0),
    }
    if report.mode == "affine":  # a defect job without --X
        payload["chi_fibre"] = _istr(report.chi_fibre)
    return payload


# the modes that take a frame: payload of the report, refusal message if s > 0
_FRAME_MODES = {
    "milnor": (
        lambda rep: {"mu": _istr(0 if rep.s < 0 else rep.lambda_numbers[0])},
        "non-isolated critical locus; use mode=le",
    ),
    "le": (_payload_le, None),
    "levogel": (_payload_levogel, None),
    "defect": (_payload_levogel, None),
    "euler-check": (
        lambda rep: {"defect": _istr(rep.D)},
        "degeneracy locus has dimension %(s)d at the origin; use defect mode for the full sum",
    ),
}


def _run_oracle(f: Polynomial) -> dict:
    if f.is_constant():
        raise InputError("oracle needs a nonconstant polynomial")
    attempts = []
    for fn in (milnor_via_macaulay, chi_thom_sebastiani, chi_homogeneous_plane):
        try:
            res = fn(f)
        except (MathematicalRefusal, InputError) as exc:
            attempts.append("%s: %s" % (fn.__name__, exc))
            continue
        return {
            "method": res.method,
            "value": _istr(res.value),
            "certificate": _stringify(res.certificate),
        }
    raise MathematicalRefusal("no oracle applies; " + "; ".join(attempts))


def run_job(job: JobSpec) -> Tuple[dict, int]:
    """Execute one job; returns the report dict and the exit code."""
    try:
        frame = VariableFrame(job.vars)
        f = parse_polynomial(job.f, frame)
        if job.mode == "oracle":
            return _report(job, _run_oracle(f), None), 0

        coord = _build_frame_arg(job, frame)
        if job.mode in ("milnor", "le") or (job.mode == "defect" and job.X is None):
            rep = defect_affine(f, frame=coord, seed=job.seed, budget=job.budget)
        else:
            germ = _build_germ(job, frame)
            rep = defect_levogel(germ, f, frame=coord, seed=job.seed, budget=job.budget)

        frame_payload = _frame_payload(rep.chain.frame)
        log_payload = _log_payload(rep.chain.properness_log)

        payload_of, refusal = _FRAME_MODES[job.mode]
        if refusal is not None and rep.s > 0:
            err = {"kind": "refusal", "message": refusal % {"s": rep.s}}
            return _report(job, None, err, frame_payload, log_payload, rep.identities), 2
        return _report(job, payload_of(rep), None, frame_payload, log_payload, rep.identities), 0
    except MathematicalRefusal as exc:
        return _report(job, None, {"kind": "refusal", "message": str(exc)}), 2
    except InputError as exc:
        return _report(job, None, {"kind": "input", "message": str(exc)}), 1


# -- rendering --------------------------------------------------------------------

def _render_json(report: dict, compact: bool) -> str:
    if compact:
        return json.dumps(report, separators=(",", ":"))
    return json.dumps(report, indent=2)


def _render_text(report: dict) -> str:
    lines: List[str] = []
    job = report.get("job")
    if job:
        lines.append("mode: %s" % job["mode"])
        lines.append("f: %s" % job["f"])
        lines.append("vars: %s" % ", ".join(job["vars"]))
        if job["X"] is not None:
            lines.append("X: %s" % "; ".join(job["X"]))
    err = report.get("error")
    if err is not None:
        lines.append("error (%s): %s" % (err["kind"], err["message"]))
    result = report.get("result")
    if result is not None:
        for key, val in result.items():
            if key == "lambda":
                for k in sorted(val, key=int):
                    lines.append("lambda[%s] = %s" % (k, val[k]))
            elif isinstance(val, dict):
                lines.append("%s: %s" % (key, json.dumps(val, separators=(",", ":"))))
            else:
                lines.append("%s = %s" % (key, val))
    frame = report.get("frame")
    if frame is not None:
        lines.append(
            "frame: %s (attempt %s) on (%s)"
            % (frame["provenance"], frame["attempt"], ", ".join(frame["variables"]))
        )
        lines.append("matrix: %s" % "; ".join(",".join(row) for row in frame["matrix"]))
    identities = report.get("identities")
    if identities:
        for ident in identities:
            lines.append(
                "identity %s: %s (%s)"
                % (ident["name"], "holds" if ident["holds"] else "FAILS", ident["detail"])
            )
    return "\n".join(lines)


def _emit_report(report: dict, fmt: str, compact: bool, out) -> None:
    if fmt == "text":
        out.write(_render_text(report) + "\n")
    else:
        out.write(_render_json(report, compact) + "\n")


# -- argument handling ------------------------------------------------------------

class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliInputError(message)


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="lecalc",
        description="Exact local invariants of polynomial singularities at the origin.",
        add_help=True,
    )
    parser.add_argument("mode", nargs="?", choices=MODES, help="computation to run")
    parser.add_argument("--vars", help="comma-separated variable names, e.g. x,y,z")
    parser.add_argument("--f", help="polynomial in the given variables")
    parser.add_argument("--X", help="semicolon-separated defining polynomials of the germ")
    parser.add_argument("--seed", type=int, default=0, help="seed for deterministic genericization")
    parser.add_argument("--budget", type=int, default=25, help="max coordinate frames to try")
    parser.add_argument("--order", help="comma-separated variable order to use as the frame")
    parser.add_argument("--matrix", help="frame matrix 'a,b;c,d' with rational entries")
    parser.add_argument("--format", choices=("json", "text"), default="json", help="output format")
    parser.add_argument("--jobs", help="batch file: one JSON job per line")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    out = sys.stdout
    try:
        args = _build_parser().parse_args(argv)
    except _CliInputError as exc:
        report = _report(None, None, {"kind": "input", "message": str(exc)})
        _emit_report(report, "json", False, out)
        print("error: %s" % exc, file=sys.stderr)
        return 1

    if args.jobs is not None:
        if args.mode is not None:
            message = "--jobs does not take a mode argument"
            report = _report(None, None, {"kind": "input", "message": message})
            _emit_report(report, "json", False, out)
            print("error: %s" % message, file=sys.stderr)
            return 1
        return _run_batch(args.jobs, out)

    try:
        if args.mode is None:
            raise _CliInputError("a mode is required (or use --jobs)")
        job = JobSpec(
            mode=args.mode,
            vars=_as_name_list(args.vars, "vars"),
            f=args.f,
            X=_as_poly_list(args.X),
            seed=args.seed,
            budget=args.budget,
            order=_as_name_list(args.order, "order") if args.order is not None else None,
            matrix=_parse_matrix_value(args.matrix) if args.matrix is not None else None,
            format=args.format,
        )
    except _CliInputError as exc:
        report = _report(None, None, {"kind": "input", "message": str(exc)})
        _emit_report(report, "json", False, out)
        print("error: %s" % exc, file=sys.stderr)
        return 1

    report, code = run_job(job)
    _emit_report(report, job.format, False, out)
    return code


def _run_batch(path: str, out) -> int:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        report = _report(None, None, {"kind": "input", "message": "cannot read jobs file: %s" % exc})
        _emit_report(report, "json", True, out)
        return 1
    worst = 0
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
        except ValueError as exc:
            report = _report(None, None, {"kind": "input", "message": "bad JSON job line: %s" % exc})
            _emit_report(report, "json", True, out)
            worst = max(worst, 1)
            continue
        try:
            job = JobSpec.from_dict(data)
        except _CliInputError as exc:
            report = _report(None, None, {"kind": "input", "message": str(exc)})
            _emit_report(report, "json", True, out)
            worst = max(worst, 1)
            continue
        report, code = run_job(job)
        _emit_report(report, "json", True, out)
        worst = max(worst, code)
    return worst
