"""The benchmark's tracer wraps hubbard_gf functions by name: every one must exist, and
the benchmark's own self-tests must pass against the package."""
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


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


def test_perfbench_selftest_passes():
    # the self-tests trace and run the CLI, so a changed signature of a traced
    # function or a changed CSV layout shows here
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")  # leave perfbench/ untouched
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
