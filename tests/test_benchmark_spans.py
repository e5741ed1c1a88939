"""The benchmark's traced run looks library functions up by name.

perfbench/tracer.py patches each span of its SPANS table at the module
attribute its callers use; a span whose target no longer resolves is
dropped from the run's per-layer metrics, which the benchmark then
reports as missing.  Loading the tracer by path keeps this check outside
the benchmark's own files.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("name, targets, attr",
                         [(name, targets, attr) for name, targets, attr, _ in tracer.SPANS])
def test_span_resolves(name, targets, attr):
    for target in targets:
        obj = tracer._resolve(target)
        assert obj is not None and hasattr(obj, attr), f"{name}: {target}.{attr}"


def test_error_type_resolves():
    assert tracer._resolve(tracer.ERROR_TYPE) is not None
