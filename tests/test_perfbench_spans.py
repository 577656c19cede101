"""The benchmark's tracer wraps hubbard_gf functions by name: every one must exist."""
import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_layer_resolves(monkeypatch):
    # Recorder.install looks each attribute up with getattr, so a deleted or
    # renamed function breaks `perfbench/run.py --trace 1`
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look the module up
    spec.loader.exec_module(tracing)
    assert tracing.LAYERS
    for name, layer in tracing.LAYERS.items():
        home = importlib.import_module(layer.module)
        for attr in layer.attrs:
            owner = home
            for part in attr.split("."):
                assert hasattr(owner, part), f"{name}: {layer.module}.{attr} is gone"
                owner = getattr(owner, part)
            assert callable(owner), f"{name}: {layer.module}.{attr} is not callable"
