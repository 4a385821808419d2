"""The benchmark's trace targets name functions that exist.

perfbench/tracer.py wraps a fixed list of (module, attribute) pairs. An
engine refactor that renames or removes one of them should fail here, in
the unit tests, rather than later in a traced benchmark run.
"""

import importlib
import importlib.util
import os

import pytest

_TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def _targets():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


@pytest.mark.parametrize(
    "module_name, attr", [(m, a) for m, a, _ in _targets()], ids=lambda v: v
)
def test_trace_target_is_a_lecalc_callable(module_name, attr):
    assert module_name.split(".")[0] == "lecalc"
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), "%s.%s" % (module_name, attr)
