"""The benchmark's tracer wraps functions by name; each name must resolve."""

import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# parameters the tracer reads through ``signature.bind(...).arguments``: a
# renamed one would silently read the tracer's default
BOUND_ARGUMENTS = (
    ("suspension", "sample_poisson", "stream"),
    ("joining", "_sample_biconfig_counted", "stream"),
    ("suspension", "push_forward", "config"),
    ("suites", "collect_suspension", "mark_steps"),
)


def test_every_traced_layer_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, attr, _ in tracer.LAYERS:
        mod = importlib.import_module(f"chaconlab.{module}")
        assert callable(getattr(mod, attr)), f"{module}.{attr}"
    module, cls_name, attr, _ = tracer.KEYED_DRAW
    cls = getattr(importlib.import_module(f"chaconlab.{module}"), cls_name)
    assert callable(getattr(cls, attr))


@pytest.mark.parametrize("module, attr, name", BOUND_ARGUMENTS)
def test_every_bound_argument_exists(module, attr, name):
    fn = getattr(importlib.import_module(f"chaconlab.{module}"), attr)
    assert name in inspect.signature(fn).parameters, f"{module}.{attr}({name}=...)"
