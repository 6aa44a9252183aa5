"""The benchmark's tracer wraps functions by name; each name must resolve."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
