"""Outside-in tracing of lecalc: spans and counters placed by patching.

Nothing under src/ knows about this module. `install` wraps the public
functions of each lecalc module (plus the few private seams the per-layer
metrics need) and rebinds the wrapper under every name in every lecalc
module that refers to the original function, because `lecycles`,
`conormal`, `defect` and `cli` bind names such as `from .groebner import
saturate` directly while calls inside `groebner` resolve through that
module's own globals.

A span is (name, start, end, parent span, job id, raised). Spans are kept in
memory and written out once, when the traced process ends; `summarize`
turns a dump into per-name calls, inclusive and self time.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# (module, attribute, span name or None for "<module>.<attribute>")
TARGETS: Tuple[Tuple[str, str, Optional[str]], ...] = (
    ("lecalc.cli", "run_job", None),
    ("lecalc.cli", "_emit_report", "cli.render"),
    ("lecalc.defect", "defect_affine", None),
    ("lecalc.defect", "defect_levogel", None),
    ("lecalc.lecycles", "le_numbers_affine", None),
    ("lecalc.lecycles", "critical_locus", None),
    # one chain per coordinate frame tried, on the affine and conormal routes
    ("lecalc.lecycles", "_run_chain", "lecycles.frame_attempt"),
    ("lecalc.conormal", "le_vogel_numbers", None),
    ("lecalc.conormal", "conormal_variety", None),
    ("lecalc.conormal", "image_of_differential", None),
    ("lecalc.oracle", "milnor_via_macaulay", None),
    ("lecalc.oracle", "chi_thom_sebastiani", None),
    ("lecalc.oracle", "chi_homogeneous_plane", None),
    ("lecalc.groebner", "saturate", None),
    ("lecalc.groebner", "ideal_quotient", None),
    ("lecalc.groebner", "intersect", None),
    ("lecalc.groebner", "eliminate", None),
    ("lecalc.groebner", "dim_at_origin", None),
    ("lecalc.groebner", "multiplicity_at_origin", None),
    ("lecalc.groebner", "colength", None),
    ("lecalc.groebner", "colength_at_origin", None),
    ("lecalc.groebner", "krull_dimension", None),
    ("lecalc.groebner", "contains", None),
    ("lecalc.groebner", "normal_form", None),
    ("lecalc.groebner", "equal_ideals", None),
    ("lecalc.groebner", "groebner_basis", None),
    ("lecalc._kernel", "normal_form_terms", "kernel.normal_form_terms"),
    ("lecalc.polyparse", "parse_polynomial", None),
    ("lecalc.polyparse", "apply_linear_change", None),
)

JOB_SPAN = "cli.run_job"


class Tracer:
    """Collects spans and counters for one traced process."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        # one entry per span, parallel lists: cheaper than objects per call
        self.name_of: List[int] = []
        self.start: List[int] = []
        self.end: List[int] = []
        self.parent: List[int] = []
        self.job: List[int] = []
        self.raised: List[int] = []
        self._stack: List[int] = []
        self._job = 0
        self.counters: Dict[str, int] = {
            "kernel.normal_form_terms.terms_in": 0,
            "kernel.normal_form_terms.nonzero": 0,
            "groebner.bases_computed": 0,
            "groebner.basis_terms_total": 0,
            "groebner.basis_terms_max": 0,
            "groebner.coeff_bits_max": 0,
            "lecycles.frames_accepted": 0,
        }

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn: Callable, name: str, on_result: Optional[Callable] = None) -> Callable:
        nid = self.name_id(name)
        is_job = name == JOB_SPAN
        clock = self.clock
        stack = self._stack
        name_of, start, end = self.name_of, self.start, self.end
        parent, job, raised = self.parent, self.job, self.raised

        def traced(*args, **kwargs):
            if is_job:
                self._job += 1
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            job.append(self._job)
            raised.append(0)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[idx] = clock()
                raised[idx] = 1
                stack.pop()
                raise
            end[idx] = clock()
            stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- counter hooks ----------------------------------------------------------

    def on_kernel(self, args, result) -> None:
        c = self.counters
        c["kernel.normal_form_terms.terms_in"] += len(args[0])
        if result:
            c["kernel.normal_form_terms.nonzero"] += 1

    def on_chain(self, args, chain) -> None:
        if chain.proper:
            self.counters["lecycles.frames_accepted"] += 1

    def on_basis(self, frame, descriptor, basis) -> None:
        c = self.counters
        terms = sum(len(t) for t in basis)
        c["groebner.bases_computed"] += 1
        c["groebner.basis_terms_total"] += terms
        if terms > c["groebner.basis_terms_max"]:
            c["groebner.basis_terms_max"] = terms
        bits = c["groebner.coeff_bits_max"]
        for termlist in basis:
            for _, coeff in termlist:
                b = max(coeff.numerator.bit_length(), coeff.denominator.bit_length())
                if b > bits:
                    bits = b
        c["groebner.coeff_bits_max"] = bits

    # -- output ---------------------------------------------------------------

    def dump(self, path: str) -> None:
        spans = [
            [n, s, e, p, j, r]
            for n, s, e, p, j, r in zip(
                self.name_of, self.start, self.end, self.parent, self.job, self.raised
            )
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": spans, "counters": self.counters}, fh)


def install(tracer: Tracer, targets: Sequence[Tuple[str, str, Optional[str]]] = TARGETS) -> None:
    """Import lecalc and rebind every target under all the names that
    refer to it, across the loaded lecalc modules."""
    importlib.import_module("lecalc")
    hooks = {
        "kernel.normal_form_terms": tracer.on_kernel,
        "lecycles.frame_attempt": tracer.on_chain,
    }
    for module_name, attr, span_name in targets:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        name = span_name or "%s.%s" % (module_name.split(".", 1)[1], attr)
        wrapper = tracer.wrap(original, name, hooks.get(name))
        rebound = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "lecalc" or mod_name.startswith("lecalc.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    rebound += 1
        if not rebound:
            raise RuntimeError("trace target %s.%s was not rebound" % (module_name, attr))
    groebner = importlib.import_module("lecalc.groebner")
    groebner.register_basis_observer(tracer.on_basis)


# -- aggregation ---------------------------------------------------------------


def summarize(dump: dict) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, raised, incl_s and self_s.

    Self time is a span's duration minus the durations of its direct
    children. Inclusive time counts only the outermost span of a name on
    each stack, so recursion is not counted twice.
    """
    names = dump["names"]
    spans = dump["spans"]
    child_time = [0] * len(spans)
    for n, s, e, p, _j, _r in spans:
        if p >= 0:
            child_time[p] += e - s
    out: Dict[str, Dict[str, float]] = {
        nm: {"calls": 0, "raised": 0, "incl_s": 0.0, "self_s": 0.0} for nm in names
    }
    for idx, (n, s, e, p, _j, r) in enumerate(spans):
        row = out[names[n]]
        dur = e - s
        row["calls"] += 1
        row["raised"] += r
        row["self_s"] += (dur - child_time[idx]) / 1e9
        anc = p
        while anc >= 0 and spans[anc][0] != n:
            anc = spans[anc][3]
        if anc < 0:
            row["incl_s"] += dur / 1e9
    return out

