"""The benchmark's tracer wraps hubbard_gf functions by name: every one must exist, and
the benchmark's own self-tests must pass against the package."""
import importlib
import importlib.util
import json
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


_TRACED_NOISY_RUN = """
import json, sys
src, perfbench, out = sys.argv[1:4]
sys.path[:0] = [src, perfbench]
from hubbard_gf import cli
from hubbard_gf.noise import kolkata_dimer_model
from tracing import Recorder, summarize

kolkata_dimer_model().to_json(out + "/kolkata.json")
recorder = Recorder()
recorder.install()
rc = cli.main([
    "correlator", "--steps", "2", "--shots", "256", "--seed", "42", "--pair", "y2y2",
    "--noise-model", out + "/kolkata.json", "--readout-mitigation", "--twirl", "2",
    "--zne-scales", "1", "2", "--outdir", out,
])
totals = {}
summarize(recorder.spans, totals)
with open(out + "/spans.json", "w") as f:
    json.dump({"rc": rc, **totals}, f)
"""


_TRACED_NOISELESS_RUN = """
import json, sys
src, perfbench, out = sys.argv[1:4]
sys.path[:0] = [src, perfbench]
from hubbard_gf import cli
from tracing import LAYERS, Recorder, summarize

argv = ["correlator", "--steps", "2", "--shots", "0", "--pair", "y2y2", "--outdir"]
plain = cli.main(argv + [out + "/plain"])
recorder = Recorder()
recorder.install()  # before any command has loaded the noise engine
wrapped = []
for layer in LAYERS.values():
    for attr in layer.attrs:
        owner = sys.modules[layer.module]
        for part in attr.split("."):
            owner = getattr(owner, part)
        wrapped.append(hasattr(owner, "__wrapped__"))
rc = cli.main(argv + [out + "/traced"])
totals = {}
summarize(recorder.spans, totals)
with open(out + "/spans.json", "w") as f:
    json.dump({"plain": plain, "rc": rc, "wrapped": all(wrapped), **totals}, f)
"""


def test_traced_noiseless_run_resolves_every_layer(tmp_path):
    # the tracer looks each layer's module up in sys.modules, the noise engine's too, in a
    # process whose command never runs it: every layer is wrapped and the CSV keeps its bytes
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")  # leave perfbench/ untouched
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_NOISELESS_RUN, str(ROOT / "src"), str(ROOT / "perfbench"), str(tmp_path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    totals = json.loads((tmp_path / "spans.json").read_text())
    assert (totals["plain"], totals["rc"], totals["wrapped"]) == (0, 0, True)
    assert totals["greens.dimer_suite.calls"] == 1
    assert (tmp_path / "traced" / "y2y2.csv").read_bytes() == (tmp_path / "plain" / "y2y2.csv").read_bytes()


def test_noisy_run_spans_its_point_circuits(tmp_path):
    # the noisy series builds each point with the traced direct_point_circuit,
    # so a traced noisy run counts one circuit and one estimate per time point
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")  # leave perfbench/ untouched
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_NOISY_RUN, str(ROOT / "src"), str(ROOT / "perfbench"), str(tmp_path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    totals = json.loads((tmp_path / "spans.json").read_text())
    assert totals["rc"] == 0
    assert totals["greens.direct_point_circuit.calls"] == 3
    assert totals["noise.noisy_parity_estimate.calls"] == 3
