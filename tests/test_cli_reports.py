import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hubbard_gf import cli
from hubbard_gf.circuit import TrotterPlan
from hubbard_gf.cli import main
from hubbard_gf.greens import DIMER_PAIRS
from hubbard_gf.reports import read_csv, read_measurement_csv, write_csv, write_measurement_csv


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_usage_error_exit_code(capsys):
    code, _, _ = run_cli(["correlator", "--protocol", "nonsense"], capsys)
    assert code == 2
    code, _, _ = run_cli(["vha-sweep", "--grid", "0"], capsys)
    assert code == 2


def test_vha_sweep_small_grid(tmp_path, capsys):
    code, out, _ = run_cli(
        ["vha-sweep", "--t", "1", "--u", "4", "--grid", "21", "--outdir", str(tmp_path)], capsys
    )
    assert code == 0
    assert "optimum" in out
    header, cols, rows = read_csv(tmp_path / "landscape.csv")
    assert cols == ["alpha", "beta", "energy", "stderr"]
    assert len(rows) == 21 * 21
    assert (tmp_path / "landscape.svg").exists()
    # the header names the folded optimum that stdout prints
    printed = out.split("optimum: ")[1].split(" energy")[0]
    assert printed == (
        f"alpha={float(header['optimum_alpha']):.4f} beta={float(header['optimum_beta']):.4f}"
    )
    # grid values equal the closed form in exact mode
    from hubbard_gf.vha import variational_energy_formula

    for r in rows[:40]:
        a, b, e = float(r[0]), float(r[1]), float(r[2])
        assert e == pytest.approx(variational_energy_formula(1.0, 4.0, a, b), abs=1e-10)


def test_landscape_header_names_folded_optimum(tmp_path, capsys):
    # (0.94, 2.76) is the basin member the 101-point grid picks; the header folds it
    from hubbard_gf.reports import write_landscape_csv
    from hubbard_gf.vha import LandscapePoint, LandscapeResult, canonical_angles

    best = LandscapePoint(0.9424777960769379, 2.7646015351590183, -3.2, 0.0)
    one_point = LandscapeResult(*(np.array([x]) for x in (best.alpha, best.beta)),
                                *(np.array([[x]]) for x in (best.energy, best.stderr)))
    assert one_point.best == best
    write_landscape_csv(tmp_path / "l.csv", one_point, {})
    header, _, _ = read_csv(tmp_path / "l.csv")
    alpha, beta = canonical_angles(best.alpha, best.beta)
    assert (header["optimum_alpha"], header["optimum_beta"]) == (repr(alpha), repr(beta))
    assert alpha <= 0 and -0.8 < beta <= 0.8

    # a real 101-point sweep: the SVG marker sits on the folded grid point the
    # header names, (-0.94, 0.38), not on the sweep's own unfolded (0.94, 2.76)
    code, _, _ = run_cli(["vha-sweep", "--grid", "101", "--outdir", str(tmp_path)], capsys)
    assert code == 0
    header, _, _ = read_csv(tmp_path / "landscape.csv")
    svg = (tmp_path / "landscape.svg").read_text()
    cx, cy = (float(v) for v in re.search(r'<circle cx="([\d.]+)" cy="([\d.]+)"', svg).groups())
    cell = (520 - 2 * 52) / 101  # reports.landscape_svg frame: 520 px, 52 px margins
    grid = np.linspace(-math.pi, math.pi, 101)
    j, i = int((cx - 52) // cell), int((520 - 52 - cy) // cell)
    assert (cx, cy) == pytest.approx((52 + (j + 0.5) * cell, 520 - 52 - (i + 0.5) * cell), abs=0.05)
    beta, alpha = grid[j], grid[i]
    assert alpha == pytest.approx(float(header["optimum_alpha"]), abs=1e-12)
    assert beta == pytest.approx(float(header["optimum_beta"]), abs=1e-12)
    assert (round(alpha, 2), round(beta, 2)) == (-0.94, 0.38)


@pytest.mark.parametrize("grid", [11, 25, 100])
def test_landscape_marker_sits_on_nearest_grid_cell(tmp_path, capsys, grid):
    # the folded optimum lies off the grid when pi/2 is no multiple of the step;
    # at grid 25 the insertion point is one cell off on both axes
    code, _, _ = run_cli(["vha-sweep", "--grid", str(grid), "--outdir", str(tmp_path)], capsys)
    assert code == 0
    header, _, _ = read_csv(tmp_path / "landscape.csv")
    svg = (tmp_path / "landscape.svg").read_text()
    cx, cy = (float(v) for v in re.search(r'<circle cx="([\d.]+)" cy="([\d.]+)"', svg).groups())
    cell = (520 - 2 * 52) / grid
    axis = np.linspace(-math.pi, math.pi, grid)
    j, i = int((cx - 52) // cell), int((520 - 52 - cy) // cell)
    # the circle sits at the centre of the cell, not on a corner shared by four cells
    assert (cx, cy) == pytest.approx((52 + (j + 0.5) * cell, 520 - 52 - (i + 0.5) * cell), abs=0.05)
    for drawn, optimum in ((j, float(header["optimum_beta"])), (i, float(header["optimum_alpha"]))):
        assert abs(axis[drawn] - optimum) == np.min(np.abs(axis - optimum))


def test_closed_form_optimum_at_hoppings_where_8t_overflows(tmp_path, capsys):
    # -2 atan(U / 8t) at t=3e307, U=1e308 is -0.7896, though 8t is past the float range
    args = ["--t", "3e307", "--u", "1e308"]
    code, out, _ = run_cli(["vha-sweep", "--grid", "3", "--outdir", str(tmp_path)] + args, capsys)
    assert code == 0
    assert "closed-form optimum alpha=-0.7896 beta=0.3927" in out
    code, out, _ = run_cli(["dump-circuit", "--which", "vha"] + args, capsys)
    assert code == 0
    assert "RZ(-0.3947911197) 2" in out  # the interaction block turns by alpha / 2


def test_vha_sweep_requires_seed_for_shots(tmp_path, capsys):
    code, _, err = run_cli(
        ["vha-sweep", "--grid", "3", "--shots", "16", "--outdir", str(tmp_path)], capsys
    )
    assert code == 2
    assert "seed" in err


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize(
    "command, flag",
    [("correlator", flag) for flag in ("t", "u", "dtau", "phi")]
    + [("vha-sweep", flag) for flag in ("t", "u")]
    + [("dump-circuit", "theta")],
)
def test_non_finite_physics_flags_are_refused(tmp_path, capsys, command, flag, value):
    out = tmp_path / "out"
    argv = {
        "correlator": ["correlator", "--steps", "2", "--shots", "0", "--pair", "y2y2", "--outdir", str(out)],
        "vha-sweep": ["vha-sweep", "--grid", "5", "--outdir", str(out)],
        "dump-circuit": ["dump-circuit", "--which", "repulsion"],  # writes no files
    }[command]
    code, _, err = run_cli(argv + [f"--{flag}={value}"], capsys)
    assert code == 2
    assert f"--{flag} must be finite" in err
    assert not out.exists()  # refused before any output directory or CSV


@pytest.mark.parametrize("kind", ["retarded", "keldysh"])
@pytest.mark.parametrize("protocol", ["direct", "hadamard", "advanced-hadamard"])
def test_correlator_exact_run_and_compare_pass(tmp_path, capsys, protocol, kind):
    args = [
        "correlator", "--t", "1", "--u", "4", "--dtau", "0.314", "--steps", "6",
        "--phi", "1.5707963267948966", "--kind", kind, "--shots", "0",
        "--protocol", protocol, "--pair", "all", "--outdir", str(tmp_path),
    ]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    paths = [str(tmp_path / f"{name}.csv") for name in ("y2y2", "y3y3", "x3y2")]
    for name in ("y2y2", "y3y3", "x3y2"):
        assert (tmp_path / f"{name}.csv").exists() and (tmp_path / f"{name}.svg").exists()
        header, _, rows = read_csv(tmp_path / f"{name}.csv")
        assert header["protocol"] == protocol.replace("-", "_")
        assert {r[4] for r in rows} == {header["protocol"]}
        assert {r[5] for r in rows} == {header["phi"]}
    code, out, _ = run_cli(["compare", "--csv", *paths], capsys)
    assert code == 0
    report = json.loads(out)
    assert [r["status"] for r in report["reports"]] == ["PASS"] * 3


def test_noisy_branch_honours_kind_and_refuses_hadamard(tmp_path, capsys):
    from hubbard_gf.circuit import TrotterPlan
    from hubbard_gf.greens import dimer_suite
    from hubbard_gf.noise import NoiseModel

    model = tmp_path / "zero.json"
    NoiseModel(5).to_json(model)
    base = ["correlator", "--steps", "3", "--shots", "4096", "--seed", "5", "--pair", "x3y2",
            "--noise-model", str(model)]
    code, _, err = run_cli(base + ["--kind", "keldysh", "--outdir", str(tmp_path / "k")], capsys)
    assert code == 0, err
    header, _, rows = read_csv(tmp_path / "k" / "x3y2_noisy.csv")
    assert header["kind"] == "keldysh"
    noisy = [float(r[1]) for r in rows]
    keldysh = dimer_suite(1.0, 4.0, TrotterPlan(0.314, 3), 1.5707963267948966, 0, 0, kind="keldysh")
    retarded = dimer_suite(1.0, 4.0, TrotterPlan(0.314, 3), 1.5707963267948966, 0, 0)
    # 4096-shot parity noise is at most 2/64 on the doubled estimate; 4 sigma of it
    assert max(abs(a - b) for a, b in zip(noisy, keldysh["x3y2"].estimates)) < 0.125
    assert max(abs(a - b) for a, b in zip(noisy, retarded["x3y2"].estimates)) > 0.25
    for protocol in ("hadamard", "advanced-hadamard"):
        out = tmp_path / protocol
        code, _, err = run_cli(base + ["--protocol", protocol, "--outdir", str(out)], capsys)
        assert code == 2
        assert "direct" in err
        assert not out.exists()


_CORRELATOR = ["correlator", "--steps", "2", "--pair", "y2y2"]
_NOISELESS = _CORRELATOR + ["--shots", "0"]
_NOISY = _CORRELATOR + ["--shots", "64", "--seed", "5", "--noise-model", "MODEL"]
_SWEEP = ["vha-sweep", "--grid", "5"]


@pytest.mark.parametrize(
    "flags, message",
    [
        pytest.param(_NOISY + ["--twirl", "0"], "twirl", id="0"),
        pytest.param(_NOISY + ["--twirl", "-1"], "twirl", id="-1"),
        pytest.param(_NOISELESS + ["--twirl", "0"], "twirl", id="noiseless-0"),
        pytest.param(_NOISELESS + ["--twirl", "-1"], "twirl", id="noiseless--1"),
        pytest.param(_NOISELESS + ["--twirl", "0", "--zne-scales", "3", "1"], "twirl",
                     id="noiseless-0-zne-unsorted"),
        pytest.param(_NOISELESS + ["--zne-scales", "3", "1"], "sorted",
                     id="noiseless-zne-unsorted"),
        pytest.param(_NOISY + ["--zne-scales", "1", "inf"], "finite", id="zne-inf"),
        pytest.param(_NOISY + ["--zne-scales", "1", "nan"], "finite", id="zne-nan"),
        pytest.param(_NOISY + ["--zne-order", "-1", "--zne-scales", "1", "2"], "order",
                     id="zne-order--1"),
        # a fit needs order + 1 distinct factors: repeated ones are refused before any evolution
        pytest.param(_NOISY + ["--zne-scales", "1", "1", "--zne-order", "1"],
                     "polynomial order must be below the number of distinct factors", id="zne-repeated-factors"),
        pytest.param(_NOISELESS + ["--zne-scales", "1", "inf"], "finite", id="noiseless-zne-inf"),
        pytest.param(_NOISELESS + ["--zne-scales", "1", "2", "nan"], "finite",
                     id="noiseless-zne-nan"),
        pytest.param(_NOISELESS + ["--zne-order", "-1", "--zne-scales", "1", "2"], "order",
                     id="noiseless-zne-order--1"),
        # valid mitigation flags without a noise model would be dropped: each is refused
        pytest.param(_NOISELESS + ["--readout-mitigation"], "mitigation flags need --noise-model",
                     id="noiseless-readout-mitigation"),
        pytest.param(_NOISELESS + ["--twirl", "4"], "mitigation flags need --noise-model", id="noiseless-twirl-4"),
        pytest.param(_NOISELESS + ["--dd", "XX"], "mitigation flags need --noise-model", id="noiseless-dd-XX"),
        pytest.param(_NOISELESS + ["--zne-scales", "1", "2"], "mitigation flags need --noise-model",
                     id="noiseless-zne-scales-1-2"),
        pytest.param(_NOISELESS + ["--zne-order", "2"], "mitigation flags need --noise-model",
                     id="noiseless-zne-order-2"),
        # a refused run leaves no output directory behind
        pytest.param(_NOISELESS + ["--steps", "0"], "steps", id="steps-0"),
        pytest.param(_NOISELESS + ["--dtau", "-1"], "dtau", id="dtau--1"),
        pytest.param(_CORRELATOR + ["--shots", "-5", "--seed", "5"], "shots", id="shots--5"),
        pytest.param(_CORRELATOR + ["--protocol", "hadamard", "--shots", "-5", "--seed", "5"],
                     "shots must be >= 0", id="hadamard-shots--5"),
        pytest.param(_CORRELATOR + ["--protocol", "advanced-hadamard", "--shots", "-5"],
                     "shots must be >= 0", id="advanced-hadamard-shots--5"),
        pytest.param(_NOISELESS + ["--phi", "0"], "Phi", id="noiseless-phi-0"),
        pytest.param(_NOISY + ["--phi", "0"], "Phi", id="phi-0"),
        pytest.param(_NOISY + ["--phi", "3.141592653589793"], "Phi", id="phi-pi"),
        pytest.param(_NOISY + ["--shots", "0"], "shots", id="shots-0"),
        pytest.param(_SWEEP + ["--grid", "0"], "grid", id="sweep-grid-0"),
        pytest.param(_SWEEP + ["--grid", "-1"], "--grid must be >= 1", id="sweep-grid--1"),
        pytest.param(_SWEEP + ["--shots", "-1", "--seed", "3"], "shots must be >= 0", id="sweep-shots--1"),
        # a negative count is named as the fault before the seed is asked for or drawn from
        pytest.param(_SWEEP + ["--shots", "-5"], "shots must be >= 0", id="sweep-shots--5-unseeded"),
        pytest.param(_SWEEP + ["--shots", "-5", "--seed", "3"], "shots must be >= 0", id="sweep-shots--5"),
        # the run seed roots every seed tree, drawn from or not
        pytest.param(_NOISELESS + ["--seed", "-3"], "--seed must be >= 0, got -3", id="exact-seed--3"),
        pytest.param(_CORRELATOR + ["--shots", "64", "--seed", "-3"], "--seed must be >= 0, got -3",
                     id="seed--3"),
        pytest.param(_NOISY + ["--seed", "-1"], "--seed must be >= 0, got -1", id="noisy-seed--1"),
        pytest.param(_SWEEP + ["--shots", "64", "--seed", "-1"], "--seed must be >= 0, got -1",
                     id="sweep-seed--1"),
        # numpy draws int64 counts; main checks --shots for both commands, before their own checks
        pytest.param(_CORRELATOR + ["--shots", "99999999999999999999", "--seed", "1"],
                     "shots must be <= 2**63 - 1, got 99999999999999999999", id="shots-past-int64"),
        pytest.param(_SWEEP + ["--shots", "99999999999999999999", "--seed", "1"],
                     "shots must be <= 2**63 - 1, got 99999999999999999999", id="sweep-shots-past-int64"),
        pytest.param(_CORRELATOR + ["--shots", "9223372036854775808"], "shots must be <= 2**63 - 1",
                     id="shots-2**63-unseeded"),
        pytest.param(_CORRELATOR + ["--t", "0", "--shots", "-5"], "shots must be >= 0", id="t-0-and-shots--5"),
        # a singular confusion is refused where its inverse is first taken, before any evolution
        pytest.param(_NOISY[:-1] + ["SINGULAR", "--readout-mitigation"], "confusion matrix is singular",
                     id="readout-singular"),
        pytest.param(_NOISY[:-1] + ["NEAR_SINGULAR", "--readout-mitigation"], "confusion matrix is singular",
                     id="readout-near-singular"),
        pytest.param(["zne-demo", "--order", "-1"], "polynomial order must be >= 0, got -1", id="zne-demo-order--1"),
        # a path the OS refuses is a usage error naming it, like a missing one
        pytest.param(["compare", "--csv", "DIR"], "Is a directory: '{DIR}'", id="compare-csv-directory"),
        pytest.param(_NOISELESS + ["--outdir", "/dev/null/x"], "Not a directory: '/dev/null/x'",
                     id="outdir-under-a-file"),
        pytest.param(_NOISELESS + ["--outdir", "MODEL"], "File exists: '{MODEL}'", id="outdir-is-a-file"),
        # finite flags whose closed-form phase, gate angle U * dtau or time grid is not
        pytest.param(_NOISELESS + ["--u", "1e154", "--dtau", "1e300", "--steps", "1", "--protocol",
                                   "advanced-hadamard", "--kind", "keldysh"],
                     "the dimer closed forms overflow at t=1.0, U=1e+154 up to tau=1e+300", id="phase-overflow"),
        pytest.param(_NOISELESS + ["--u", "1e154", "--dtau", "5e154", "--steps", "1", "--protocol",
                                   "advanced-hadamard", "--kind", "keldysh"], "angle must be finite, got inf",
                     id="angle-overflow"),
        pytest.param(_NOISELESS + ["--t", "1e-10", "--u", "1e-10", "--dtau", "1e308"],
                     "steps * dtau must be finite, got 2 * 1e+308", id="time-grid-overflow"),
        # the closed forms of every overlay need a positive hopping
        pytest.param(_NOISELESS + ["--t", "0"], "--t must be positive, got 0.0", id="t-0"),
        pytest.param(_NOISELESS + ["--t", "-1"], "--t must be positive, got -1.0", id="t--1"),
    ],
)
def test_noisy_twirl_below_one_is_refused(tmp_path, capsys, flags, message):
    # flags are validated on every run, noiseless ones too, before anything is written
    from hubbard_gf.noise import NoiseModel, confusion

    paths = {"MODEL": str(tmp_path / "zero.json"), "DIR": str(tmp_path)}
    NoiseModel(5).to_json(paths["MODEL"])
    for name, p10 in (("SINGULAR", 0.5), ("NEAR_SINGULAR", 0.5 - 1e-13)):  # y2y2 reads qubits 2 and 4
        paths[name] = str(tmp_path / f"{name}.json")
        NoiseModel(5, readout={2: confusion(0.5, p10)}).to_json(paths[name])
    out = tmp_path / "out"
    argv = [paths.get(a, a) for a in flags]
    # compare and zne-demo write no files; elsewhere an --outdir among the flags comes later and wins
    if argv[0] not in ("compare", "zne-demo"):
        argv[1:1] = ["--outdir", str(out)]
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert message.format(**paths) in err
    assert not out.exists()


_CAPPED_MAIN = """
import resource, sys
cap = 512 << 20  # a refused run and the README noisy example need under half of it
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
sys.path.insert(0, sys.argv[1])
from hubbard_gf import cli
sys.exit(cli.main(sys.argv[2:]))
"""


@pytest.mark.parametrize(
    "flags, message",
    [
        pytest.param(_NOISY + ["--zne-scales", "1e308", "--zne-order", "0"],
                     "scale factors must be <= 2**24, got 1e+308", id="zne-scale-1e308"),
        pytest.param(_NOISY + ["--zne-scales", "1", "1000001"],
                     "folding 52 gates to scale 1e+06 exceeds 2**24 gates", id="zne-fold-past-budget"),
        pytest.param(_NOISY + ["--twirl", "1000000000000"],
                     "twirl variants x scale factors must be <= 2**24, got 1000000000000 x 1", id="twirl-1e12"),
        pytest.param(_NOISY + ["--twirl", "1000000"],
                     "1000000 twirl variants of 52 gates exceed 2**24 gates", id="twirl-past-budget"),
        pytest.param(_NOISELESS + ["--steps", "1000000000000"], "steps must be < 2**24, got 1000000000000",
                     id="steps-1e12"),
        # a CSV that claims more points than its body holds sizes no time grid from the claim
        pytest.param(["compare", "--csv", "LIE=1000000000000"], "steps must be < 2**24, got 1000000000000",
                     id="compare-steps-1e12"),
        pytest.param(["compare", "--csv", "LIE=16777215"],
                     "taus are not the 16777216 points of the dtau=0.314 time grid", id="compare-steps-2**24-1"),
        # a model's width sizes nothing: its pair keys are checked one by one
        pytest.param(_NOISY[:-1] + ["WIDE"], "model covers 1000000 qubits, circuit has 5", id="model-n_qubits-1e6"),
    ],
)
def test_size_flags_are_refused_before_allocating(tmp_path, capsys, flags, message):
    # each would allocate from the flag (or header) alone; a capped address space turns that
    # into an exit code rather than a starved host
    from hubbard_gf.noise import NoiseModel

    model, wide, out = tmp_path / "zero.json", tmp_path / "wide.json", tmp_path / "out"
    NoiseModel(5).to_json(model)
    wide.write_text('{"n_qubits": 1000000}')
    argv = [{"MODEL": str(model), "WIDE": str(wide)}.get(a, a) for a in flags]
    if argv[0] == "compare":  # a 2-step CSV whose header claims LIE=<steps>
        code, _, _ = run_cli(_NOISELESS + ["--outdir", str(tmp_path)], capsys)
        assert code == 0
        lie = tmp_path / "lie.csv"
        lie.write_text((tmp_path / "y2y2.csv").read_text().replace("# steps=2\n", f"# steps={argv[2][4:]}\n"))
        argv[2], message = str(lie), f"{lie}: {message}"
    else:
        argv[1:1] = ["--outdir", str(out)]
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", _CAPPED_MAIN, str(src), *argv],
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("[]", "not a JSON object"),
        ("{}", "missing key n_qubits"),
        ('{"n_qubits": 5, "single_qubit": {"0": 0.1}}', "invalid single_qubit"),
        ('{"n_qubits": 5, "two_qubit": {"1,0": {"error": 0.01}}}', "two_qubit key (1, 0) is not a pair"),
        ('{"n_qubits": 5, "two_qubit": {"0": {"error": 0.01}}}', "two_qubit key (0,) is not a pair"),
        ('{"n_qubits": 5, "single_qubit": {"9": {"error": 0.01}}}', "single_qubit qubit 9 is not one of the 5"),
        ('{"n_qubits": 5, "readout": {"7": [[1, 0], [0, 1]]}}', "readout qubit 7 is not one of the 5"),
        ('{"n_qubits": 5, "durations": {"X": -1.0}}', "duration of X must be finite and >= 0, got -1.0"),
        # y2y2 reads qubits 2 and 4
        ('{"n_qubits": 5, "readout": {"0": [[NaN, 0], [0, 1]]}}',
         "readout confusion for qubit 0 is not a finite row-stochastic matrix"),
        ('{"n_qubits": 5, "readout": {"4": [[1, 0], [NaN, NaN]]}}',
         "readout confusion for qubit 4 is not a finite row-stochastic matrix"),
        ('{"n_qubits": 5, "idle_rate": {"2": NaN}}', "idle_rate of qubit 2 must be finite, got nan"),
        ('{"n_qubits": 5, "idle_rate": {"1": -Infinity}}', "idle_rate of qubit 1 must be finite, got -inf"),
        # JSON values are read as written: no float, string or boolean stands in for another type
        ('{"n_qubits": 5.9}', "invalid n_qubits (TypeError: 5.9 is not an integer)"),
        ('{"n_qubits": true}', "invalid n_qubits (TypeError: True is not an integer)"),
        ('{"n_qubits": "5"}', "invalid n_qubits (TypeError: '5' is not an integer)"),
        ('{"n_qubits": 5, "single_qubit": {"0": {"error": true}}}',
         "invalid single_qubit (TypeError: True is not a number)"),
        ('{"n_qubits": 5, "two_qubit": {"0,1": {"error": "0.01"}}}',
         "invalid two_qubit (TypeError: '0.01' is not a number)"),
        ('{"n_qubits": 5, "durations": {"X": "3.56e-8"}}', "invalid durations (TypeError: '3.56e-8' is not a number)"),
        ('{"n_qubits": 5, "idle_rate": {"0": false}}', "invalid idle_rate (TypeError: False is not a number)"),
        ('{"n_qubits": 5, "readout": {"0": [["1", 0], [0, 1]]}}', "invalid readout (TypeError: '1' is not a number)"),
        # every key is one to_json writes, spelled as it writes it: none is coerced or ignored
        ('{"n_qubits": 5, "single_qubit": {"+3": {"error": 0.01}}}', "unknown key 'single_qubit/+3'"),
        ('{"n_qubits": 5, "single_qubit": {"0_1": {"error": 0.01}}}', "unknown key 'single_qubit/0_1'"),
        ('{"n_qubits": 5, "two_qubit": {" 0 , 1": {"error": 0.01}}}', "unknown key 'two_qubit/ 0 , 1'"),
        ('{"n_qubits": 5, "singel_qubit": {"0": {"error": 0.01}}}', "unknown key 'singel_qubit'"),
        ('{"n_qubits": 5, "single_qubit": {"0": {"error": 0.01, "eror": 0.5}}}',
         "unknown key 'single_qubit/0/eror'"),
        ('{"n_qubits": 5, "durations": {"X": 1152921504606846977}}',
         "key 'durations/X' holds 1152921504606846977, which to_json writes as 1.152921504606847e+18"),
    ],
    ids=["list", "no-n_qubits", "bare-error-rate", "pair-reversed", "pair-one-qubit", "single-qubit-9",
         "readout-qubit-7", "negative-duration", "readout-nan-unmeasured", "readout-nan-measured",
         "idle-rate-nan", "idle-rate-inf", "n_qubits-float", "n_qubits-bool", "n_qubits-string",
         "error-bool", "error-string", "duration-string", "idle-rate-bool", "readout-string",
         "qubit-plus-sign", "qubit-underscore", "pair-spaces", "field-misspelled", "error-extra-key",
         "duration-past-float"],
)
def test_malformed_noise_model_is_a_usage_error(tmp_path, capsys, text, message):
    model = tmp_path / "model.json"
    model.write_text(text)
    out = tmp_path / "out"
    argv = [str(model) if a == "MODEL" else a for a in _NOISY]
    code, _, err = run_cli(argv + ["--outdir", str(out)], capsys)
    assert code == 2
    assert f"noise model {model}: {message}" in err
    assert not out.exists()


def test_unreadable_config_file_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    code, _, err = run_cli(["--config", str(missing), "correlator", "--outdir", str(tmp_path / "out")], capsys)
    assert code == 2
    assert f"--config {missing}:" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["vha-sweep", "--grid", "5"],
        ["vha-sweep", "--grid", "5", "--shots", "64", "--seed", "3"],
        ["correlator", "--steps", "2", "--pair", "y2y2", "--shots", "0"],
        ["correlator", "--steps", "2", "--pair", "y2y2", "--protocol", "hadamard",
         "--shots", "64", "--seed", "3"],
        ["correlator", "--steps", "2", "--pair", "y2y2", "--shots", "64", "--seed", "3",
         "--noise-model", "MODEL"],
    ],
    ids=["vha-exact", "vha-shots", "direct-exact", "hadamard-shots", "noisy"],
)
def test_every_cli_csv_cell_parses_as_float(tmp_path, capsys, argv):
    from hubbard_gf.noise import kolkata_dimer_model

    model = tmp_path / "model.json"
    kolkata_dimer_model().to_json(model)
    argv = [str(model) if a == "MODEL" else a for a in argv]
    code, _, err = run_cli(argv + ["--outdir", str(tmp_path / "out")], capsys)
    assert code == 0, err
    paths = sorted((tmp_path / "out").glob("*.csv"))
    assert paths
    for path in paths:
        _, columns, rows = read_csv(path)
        assert rows
        for row in rows:
            for col, cell in zip(columns, row):
                if col != "protocol":
                    float(cell)


def test_correlator_byte_reproducible(tmp_path, capsys):
    args = [
        "correlator", "--steps", "4", "--shots", "256", "--seed", "11",
        "--pair", "y3y3", "--outdir",
    ]
    code, _, _ = run_cli(args + [str(tmp_path / "a")], capsys)
    assert code == 0
    code, _, _ = run_cli(args + [str(tmp_path / "b")], capsys)
    assert code == 0
    a = (tmp_path / "a" / "y3y3.csv").read_bytes()
    b = (tmp_path / "b" / "y3y3.csv").read_bytes()
    assert a == b


_FRESH_MAIN = """
import sys, types
sys.path.insert(0, sys.argv[1])
from hubbard_gf import cli
code = cli.main(sys.argv[2:])
# the noise engine is bound lazily: its module is a plain module once its body has run
print(code, "numpy.random" in sys.modules, type(sys.modules["hubbard_gf.noise"]) is types.ModuleType)
"""


@pytest.mark.parametrize(
    "argv, loads, engine",
    [
        (["compare", "--csv", "CSV"], False, False),
        (["vha-sweep", "--grid", "5", "--shots", "0"], False, False),
        (["correlator", "--protocol", "hadamard", "--shots", "0", "--steps", "2"], False, False),
        (["correlator", "--shots", "0", "--seed", "1", "--steps", "2"], False, False),
        (["correlator", "--shots", "64", "--seed", "1", "--steps", "2"], True, False),
        (["vha-sweep", "--grid", "5", "--shots", "64", "--seed", "1"], True, False),
        (["dump-circuit", "--which", "trotter-step"], False, False),
        (["correlator", "--shots", "64", "--seed", "1", "--steps", "2", "--pair", "y2y2",
          "--noise-model", "MODEL"], True, True),
        (["zne-demo"], False, True),
    ],
    ids=["compare", "vha-sweep-exact", "hadamard-exact", "direct-exact", "direct-shots", "vha-sweep-shots",
         "dump-circuit", "noisy", "zne-demo"],
)
def test_only_shot_runs_load_numpy_random(tmp_path, capsys, argv, loads, engine):
    # a fresh interpreter, since this one already holds numpy.random: shot-free
    # runs derive no seeds, so they never import it; and only a noisy run and
    # zne-demo run the body of the noise engine
    from hubbard_gf.noise import NoiseModel

    code, _, _ = run_cli(
        ["correlator", "--steps", "2", "--shots", "0", "--pair", "y2y2", "--outdir", str(tmp_path)], capsys
    )
    assert code == 0
    NoiseModel(5).to_json(tmp_path / "zero.json")
    paths = {"CSV": str(tmp_path / "y2y2.csv"), "MODEL": str(tmp_path / "zero.json")}
    argv = [paths.get(a, a) for a in argv]
    outdir = [] if argv[0] in ("compare", "dump-circuit", "zne-demo") else ["--outdir", str(tmp_path / "out")]
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_MAIN, str(src), *argv, *outdir],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"0 {loads} {engine}"


_NOISE_BINDING = """
import json, sys, types
sys.path.insert(0, sys.argv[1])
runs = []  # the noise module's body runs through exec, which raises this audit event
sys.addaudithook(lambda event, args: runs.append(1) if event == "exec" and
                 getattr(args[0], "co_filename", "").endswith("noise.py") else None)
if sys.argv[2] == "noise-first":
    from hubbard_gf import noise as first
import hubbard_gf.cli
lazy = type(sys.modules["hubbard_gf.noise"]) is not types.ModuleType
import hubbard_gf.noise
from hubbard_gf import noise
same = [hubbard_gf.noise is noise, hubbard_gf.cli.noise is noise, sys.modules["hubbard_gf.noise"] is noise]
if sys.argv[2] == "noise-first":
    same.append(first is noise)
print(json.dumps([lazy, all(same), noise.MitigationConfig().zne_order, len(runs)]))
"""


@pytest.mark.parametrize("order, lazy", [("cli-first", True), ("noise-first", False)])
def test_the_lazy_noise_binding_acts_like_an_import(order, lazy):
    # cli binds the engine unloaded; importing it either way then gives that one module,
    # bound on the package, whose body runs once; a noise module imported before cli is reused
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", _NOISE_BINDING, src, order],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [lazy, True, 1, 1]


_PACKAGE_LOADED = """
import json, sys
sys.path.insert(0, sys.argv[1])
from hubbard_gf import cli
cli.noise.NoiseModel  # the engine's body runs on first use, as a noisy correlator or zne-demo runs it
print(json.dumps(sorted(name for name in sys.modules if name.partition(".")[0] == "hubbard_gf")))
"""


def test_every_package_module_is_loaded_by_the_cli():
    # the package ships only what its commands run: the CLI, with the engine it loads on
    # first use, loads every module under src/, so a module no command runs lives in tests/
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", _PACKAGE_LOADED, str(src)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    stems = {p.stem for p in (src / "hubbard_gf").glob("*.py")}
    assert set(json.loads(proc.stdout)) == {"hubbard_gf"} | {f"hubbard_gf.{s}" for s in stems - {"__init__"}}


def test_the_no_mitigation_defaults_agree():
    # a correlator loads the engine only when its mitigation flags differ from cli._NO_MITIGATION,
    # so that must be both the flags' defaults and MitigationConfig()'s, which mitigate nothing
    from dataclasses import asdict

    from hubbard_gf.noise import MitigationConfig

    parser = cli.build_parser()[1]["correlator"]
    dests = {"readout": "readout_mitigation", "twirl_variants": "twirl", "dd_sequence": "dd",
             "zne_scales": "zne_scales", "zne_order": "zne_order"}
    flags = {field: parser.get_default(dest) for field, dest in dests.items()}
    flags["zne_scales"] = tuple(flags["zne_scales"])  # cmd_correlator's conversion
    assert flags == asdict(MitigationConfig()) == cli._NO_MITIGATION
    assert flags == {
        "readout": False, "twirl_variants": 1, "dd_sequence": "none", "zne_scales": (), "zne_order": 1
    }


_FRESH_IMPORT = """
import gc, json, os, sys
sys.path.insert(0, sys.argv[1])
exec(sys.argv[2])
before = dict(os.environ)
import hubbard_gf.cli
changed = sorted(k for k in set(before) | set(os.environ) if before.get(k) != os.environ.get(k))
threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
print(json.dumps([gc.isenabled(), gc.get_freeze_count() > 0, changed, os.environ.get("OPENBLAS_NUM_THREADS"), threads]))
"""


def test_cli_import_freezes_the_import_graph():
    # a command is one short process: what the imports built is frozen once, so no
    # collection scans it again, and the collector is put back as the user left it;
    # OpenBLAS starts no worker pool unless the user sets its variable, and the
    # environment is left alone when numpy was loaded first (too late to matter)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    cases = [  # user's variable, code run first, then (collector on, frozen, changed keys, value)
        ({}, "", [True, True, ["OPENBLAS_NUM_THREADS"], "1"]),
        ({"OPENBLAS_NUM_THREADS": "3"}, "", [True, True, [], "3"]),
        ({}, "import numpy", [True, True, [], None]),
        ({}, "gc.disable()", [False, True, ["OPENBLAS_NUM_THREADS"], "1"]),
    ]
    for user, first, expected in cases:
        proc = subprocess.run([sys.executable, "-c", _FRESH_IMPORT, src, first], env=env | user,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        *got, threads = json.loads(proc.stdout)
        assert got == expected, (user, first)
        if expected[3] == "1" and threads is not None:  # Linux lists the process's threads
            assert threads == 1


_MAIN_EACH = """
import json, sys
sys.path.insert(0, sys.argv[1])
from hubbard_gf import cli
sys.exit(max(cli.main(argv) for argv in json.loads(sys.argv[2])))
"""


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the CLI starts OpenBLAS single-threaded unless the user sets its variable; a
    # user who does must get the same bytes, noisy engine and VHA batches included
    from hubbard_gf.noise import kolkata_dimer_model

    kolkata_dimer_model().to_json(tmp_path / "model.json")
    runs = [
        ["correlator", "--steps", "4", "--shots", "0"],
        ["correlator", "--steps", "2", "--shots", "256", "--seed", "42", "--pair", "y2y2",
         "--noise-model", str(tmp_path / "model.json"), "--readout-mitigation", "--twirl", "2",
         "--zne-scales", "1", "2"],
        ["vha-sweep", "--grid", "5"],
        ["vha-sweep", "--grid", "5", "--shots", "64", "--seed", "3"],
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    for threads in ("1", "2"):
        argvs = [argv + ["--outdir", str(tmp_path / threads / str(i))] for i, argv in enumerate(runs)]
        proc = subprocess.run(
            [sys.executable, "-c", _MAIN_EACH, src, json.dumps(argvs)],
            env=os.environ | {"OPENBLAS_NUM_THREADS": threads}, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
    files = sorted(p.relative_to(tmp_path / "1") for p in (tmp_path / "1").rglob("*") if p.is_file())
    assert len(files) == 2 * (len(DIMER_PAIRS) + 3)  # a CSV and an SVG per pair, noisy run and sweep
    assert files == sorted(p.relative_to(tmp_path / "2") for p in (tmp_path / "2").rglob("*") if p.is_file())
    for name in files:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name


@pytest.mark.parametrize(
    "longer, shorter",
    [
        (["correlator", "--steps", "6", "--shots", "0"], ["correlator", "--steps", "2", "--shots", "0"]),
        (["vha-sweep", "--grid", "9"], ["vha-sweep", "--grid", "3"]),
    ],
    ids=["correlator", "vha-sweep"],
)
def test_a_shorter_rerun_into_one_outdir_writes_its_own_bytes(tmp_path, capsys, longer, shorter):
    # outputs are rewritten in place and cut to length after the write, not emptied at
    # open: every CSV and SVG a shorter re-run rewrites keeps its inode and holds
    # exactly what a run into a new outdir writes
    inodes = {}
    for argv, out in ((longer, "same"), (shorter, "same"), (shorter, "fresh")):
        code, _, err = run_cli(argv + ["--outdir", str(tmp_path / out)], capsys)
        assert code == 0, err
        inodes.setdefault(out, {p.name: p.stat().st_ino for p in (tmp_path / out).iterdir()})
    fresh = sorted(p.name for p in (tmp_path / "fresh").iterdir())
    assert fresh == sorted(p.name for p in (tmp_path / "same").iterdir())
    for name in fresh:
        assert (tmp_path / "same" / name).stat().st_ino == inodes["same"][name]
        assert (tmp_path / "same" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes(), name


def test_single_pair_run_writes_its_full_run_bytes(tmp_path, capsys):
    args = ["correlator", "--steps", "6", "--shots", "4096", "--seed", "7", "--outdir"]
    code, _, _ = run_cli(args + [str(tmp_path / "all"), "--pair", "all"], capsys)
    assert code == 0
    code, _, _ = run_cli(args + [str(tmp_path / "one"), "--pair", "x3y2"], capsys)
    assert code == 0
    assert sorted(p.name for p in (tmp_path / "one").iterdir()) == ["x3y2.csv", "x3y2.svg"]
    assert (tmp_path / "one" / "x3y2.csv").read_bytes() == (tmp_path / "all" / "x3y2.csv").read_bytes()


def _generator_seeds(argv) -> tuple[list[int], list[int]]:
    """(twirl seeds, draw seeds) of a quiet CLI run: the seed of every numpy generator it
    builds, in call order, split by whether noise.pauli_twirl built it."""
    from hubbard_gf import noise

    twirls, draws, twirling = [], [], []
    default_rng, pauli_twirl = np.random.default_rng, noise.pauli_twirl

    def rng(seed):
        (twirls if twirling else draws).append(seed)
        return default_rng(seed)

    def twirl(*args):
        twirling.append(True)
        try:
            return pauli_twirl(*args)
        finally:
            twirling.pop()

    with mock.patch.object(np.random, "default_rng", rng), mock.patch.object(noise, "pauli_twirl", twirl):
        assert _run_quietly(argv) == 0
    return twirls, draws


@settings(max_examples=16, deadline=None)
@given(
    protocol=st.sampled_from(["direct", "hadamard", "advanced-hadamard", "noisy"]),
    seed=st.integers(0, 2**32 - 1),
    steps=st.integers(1, 2),
    shots=st.sampled_from([1, 64]),
)
def test_every_pair_draws_from_its_own_branch_of_the_seed_tree(protocol, seed, steps, shots):
    # run -> pair -> point: a pair's CSV does not depend on which other pairs run, no two
    # pairs share a generator seed, and a noisy point's twirl seed is none of its draw seeds
    from hubbard_gf.noise import kolkata_dimer_model

    stem = "{}_noisy.csv" if protocol == "noisy" else "{}.csv"
    with tempfile.TemporaryDirectory() as tmp:
        kolkata_dimer_model().to_json(f"{tmp}/model.json")
        extra = (["--noise-model", f"{tmp}/model.json", "--twirl", "2", "--zne-scales", "1", "2"]
                 if protocol == "noisy" else ["--protocol", protocol])
        argv = ["correlator", *extra, "--steps", str(steps), "--shots", str(shots), "--seed", str(seed)]
        twirls, draws = _generator_seeds(argv + ["--pair", "all", "--outdir", f"{tmp}/all"])
        for name in DIMER_PAIRS:
            _generator_seeds(argv + ["--pair", name, "--outdir", f"{tmp}/{name}"])
            one, every = (Path(tmp, d, stem.format(name)).read_bytes() for d in (name, "all"))
            assert one == every
    # the pairs run one after another in DIMER_PAIRS order, each drawing as often
    assert len(draws) == 3 * (steps + 1) * (4 if protocol == "noisy" else 1)
    per_pair = len(draws) // 3
    branches = [set(draws[i * per_pair : (i + 1) * per_pair]) for i in range(3)]
    assert len(set.union(*branches)) == sum(map(len, branches))
    assert len(twirls) == (3 * (steps + 1) if protocol == "noisy" else 0)
    assert not set(twirls) & set(draws)


def test_compare_detects_wrong_dtau(tmp_path, capsys):
    args = [
        "correlator", "--steps", "5", "--shots", "0", "--pair", "y2y2",
        "--outdir", str(tmp_path),
    ]
    run_cli(args, capsys)
    # tamper: claim the data was taken at a different dtau so the curves disagree
    path = tmp_path / "y2y2.csv"
    text = path.read_text().replace("# dtau=0.314", "# dtau=0.5")
    # taus in rows must pretend to be on the 0.5 grid
    lines = text.splitlines()
    out_lines = []
    for line in lines:
        if line and not line.startswith("#") and not line.startswith("tau"):
            parts = line.split(",")
            parts[0] = repr(float(parts[0]) / 0.314 * 0.5)
            out_lines.append(",".join(parts))
        else:
            out_lines.append(line)
    path.write_text("\n".join(out_lines) + "\n")
    code, out, _ = run_cli(["compare", "--csv", str(path)], capsys)
    assert code == 3
    report = json.loads(out)
    assert report["reports"][0]["status"] == "FAIL"
    assert report["reports"][0]["max_dev"] > 0


def test_compare_writes_strict_json_for_non_finite_deviations(tmp_path, capsys):
    # a nan estimate cell, written by hand, and an infinite tolerance
    code, _, _ = run_cli(
        ["correlator", "--steps", "2", "--shots", "0", "--pair", "y2y2",
         "--outdir", str(tmp_path)], capsys
    )
    assert code == 0
    path = tmp_path / "y2y2.csv"
    lines = path.read_text().splitlines()
    row = next(i for i, line in enumerate(lines) if line and line[0].isdigit())
    cells = lines[row].split(",")
    cells[1] = "nan"  # the estimate column
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(["compare", "--csv", str(path), "--tol-exact", "inf"], capsys)
    assert code == 3

    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    report = json.loads(out, parse_constant=refuse)["reports"][0]
    assert report["status"] == "FAIL"
    assert report["max_dev"] is None and report["mean_dev"] is None and report["tol"] is None


@pytest.mark.parametrize(
    "line, bad, message",
    [
        ("# u=4.0", "# u=inf", "invalid header u=inf"),
        ("# t=1.0", "# t=nan", "invalid header t=nan"),
        ("# dtau=0.314", "# dtau=-inf", "invalid header dtau=-inf"),
        ("# dtau=0.314", "# dtau=0.0", "dtau must be positive"),
        ("# steps=2", "# steps=2.5", "invalid header steps=2.5"),
        ("# steps=2", "# steps=0", "steps must be >= 1"),
        pytest.param("# steps=2", "# steps=1" + "0" * 400, "steps must be < 2**24, got 1" + "0" * 400,
                     id="steps-past-the-float-range"),
        ("# kind=retarded", "# kind=advanced", "invalid header kind=advanced"),
        ("# correlator=y2y2", "# correlator=zz", "invalid header correlator=zz"),
        ("# protocol=direct", "# protocol=hadamrd", "invalid header protocol=hadamrd"),
        ("# shots=0", "# shots=nan", "invalid header shots=nan"),
        ("# shots=0", "# shots=-1", "invalid header shots=-1"),
        # on a Keldysh CSV: a kind that is not assumed, a lambda that is not ignored
        ("# kind=keldysh", None, "invalid header kind=None"),
        ("# lambda=0.0", "# lambda=1.5707963267948966", "invalid header lambda=1.5707963267948966"),
    ],
)
def test_compare_refuses_headers_it_cannot_judge(tmp_path, capsys, line, bad, message):
    # the line is edited (or deleted, for bad=None) in the first CSV holding it, retarded then Keldysh
    for kind in ("retarded", "keldysh"):
        argv = ["correlator", "--steps", "2", "--shots", "0", "--pair", "y2y2", "--kind", kind]
        code, _, _ = run_cli(argv + ["--outdir", str(tmp_path / kind)], capsys)
        assert code == 0
    paths = (tmp_path / kind / "y2y2.csv" for kind in ("retarded", "keldysh"))
    path = next(p for p in paths if line + "\n" in p.read_text())
    text = path.read_text()
    path.write_text(text.replace(line + "\n", "" if bad is None else bad + "\n", 1))
    code, out, err = run_cli(["compare", "--csv", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert f"error: {path}: {message}" in err


def _retau(rows, k, tau):
    return rows[:k] + [[tau] + rows[k][1:]] + rows[k + 1 :]


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda cols, rows: (cols, rows[:-1]), "taus are not the 4 points"),
        (lambda cols, rows: (cols, rows[:1] + [rows[1][:1]] + rows[2:]), "data row 2 has 1 cells for 7 columns"),
        (lambda cols, rows: (["err" if c == "stderr" else c for c in cols], rows), "missing column stderr"),
        (lambda cols, rows: (cols, [rows[0][:1] + ["abc"] + rows[0][2:]] + rows[1:]),
         "data row 1: could not convert string to float: 'abc'"),
        (lambda cols, rows: (cols, []), "taus are not the 4 points"),
        (lambda cols, rows: (cols, _retau(rows, 2, "9.0")), "taus are not the 4 points"),
    ],
    ids=["last-row-dropped", "short-row", "stderr-renamed", "estimate-abc", "no-rows", "tau-off-grid"],
)
def test_compare_refuses_bodies_it_cannot_judge(tmp_path, capsys, edit, message):
    code, _, _ = run_cli(
        ["correlator", "--steps", "3", "--shots", "64", "--seed", "1", "--pair", "y2y2", "--outdir", str(tmp_path)],
        capsys,
    )
    assert code == 0
    path = tmp_path / "y2y2.csv"
    header = [line for line in path.read_text().splitlines() if line.startswith("# ")]
    cols, rows = edit(*read_csv(path)[1:])
    path.write_text("\n".join(header + [",".join(cols)] + [",".join(r) for r in rows]) + "\n")
    code, out, err = run_cli(["compare", "--csv", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert f"error: {path}: {message}" in err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--sigma", "-1"], "--sigma must be >= 0"),
        (["--sigma", "nan"], "--sigma must be >= 0"),
        (["--tol-exact", "-1"], "--tol-exact must be >= 0"),
        (["--tol-exact", "nan"], "--tol-exact must be >= 0"),
        (["--coverage", "0"], "--coverage must be in (0, 1]"),
        (["--coverage", "2"], "--coverage must be in (0, 1]"),
        (["--coverage", "nan"], "--coverage must be in (0, 1]"),
    ],
)
@pytest.mark.parametrize("shots", [["--shots", "0"], ["--shots", "256", "--seed", "1"]], ids=["exact", "shots"])
def test_compare_refuses_flags_it_cannot_judge_with(tmp_path, capsys, shots, flags, message):
    # refused whether or not the CSV's kind of run uses the flag
    code, _, _ = run_cli(_CORRELATOR + shots + ["--outdir", str(tmp_path)], capsys)
    assert code == 0
    code, out, err = run_cli(["compare", "--csv", str(tmp_path / "y2y2.csv"), *flags], capsys)
    assert code == 2
    assert out == ""
    assert f"error: {message}" in err


def test_compare_shot_mode_band(tmp_path, capsys):
    args = [
        "correlator", "--steps", "6", "--shots", "4096", "--seed", "3",
        "--pair", "x3y2", "--outdir", str(tmp_path),
    ]
    run_cli(args, capsys)
    code, out, _ = run_cli(["compare", "--csv", str(tmp_path / "x3y2.csv")], capsys)
    assert code == 0
    rep = json.loads(out)["reports"][0]
    assert rep["in_band_fraction"] >= 0.95


def test_zne_demo(capsys):
    code, out, _ = run_cli(["zne-demo"], capsys)
    assert code == 0
    assert "zero-noise estimate=1.0" in out


def test_dump_circuit(capsys):
    code, out, _ = run_cli(["dump-circuit", "--which", "slater"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "H 0"
    code, out, _ = run_cli(["dump-circuit", "--which", "trotter-step", "--dtau", "0.1"], capsys)
    assert code == 0
    assert any(line.startswith("CNOT") for line in out.splitlines())


@pytest.mark.parametrize(
    "which, sha256",
    [
        ("slater", "cc04b06fcea2c03305c381f0b87816016569a02cf59bc8c4bea20ba1393fcd06"),
        ("vha", "2916df5a29df9c44c2afcfbc757b76a98c99e4781efa85b3957e84fa84e78c1a"),
        ("trotter-step", "bec4bdccb0982fd64b834a77eeaedabc245aefa832765c51409d70be017970ce"),
        ("hopping", "9a2ed868c6cb6790c377c29d1509babadd249af4acce912fa0b182fb68088a2c"),
        ("repulsion", "e27d83e7d9b21c4bb0ed472b37466196ff48f19f4acb456f390a50ab40c939b0"),
    ],
)
def test_dump_circuit_text_is_pinned(capsys, which, sha256):
    # digests of each builder's gate text at its default flags
    code, out, _ = run_cli(["dump-circuit", "--which", which], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_config_file_defaults_flags_win(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    # one file serves every command: vha-sweep's grid rides along on a correlator run
    cfg.write_text(json.dumps({"steps": 3, "shots": 0, "pair": "y2y2", "grid": 5, "outdir": str(tmp_path)}))
    code, _, _ = run_cli(["--config", str(cfg), "correlator", "--pair", "y3y3"], capsys)
    assert code == 0
    assert (tmp_path / "y3y3.csv").exists()  # flag overrode the config pair
    header, _, rows = read_csv(tmp_path / "y3y3.csv")
    assert header["steps"] == "3"  # config default applied


@pytest.mark.parametrize(
    "config, argv, message",
    [
        ({"pair": "zz"}, ["correlator", "--steps", "2", "--shots", "0"], "argument --pair: invalid choice: 'zz'"),
        ({"grid": 3.5}, ["vha-sweep"], "argument --grid: invalid int value: '3.5'"),
        ({"shot": 10}, ["correlator", "--steps", "2", "--shots", "0"], "no command takes shot"),
        ({"steps": [2, 3]}, ["correlator", "--shots", "0"], "argument --steps: invalid int value: '[2, 3]'"),
        ({"zne_scales": ["two"]}, ["correlator", "--steps", "2"], "argument --zne-scales: invalid float value: 'two'"),
        ({"readout-mitigation": "yes"}, ["correlator", "--steps", "2"], "argument --readout-mitigation: --config value must be true or false"),
        ({"seed": -3}, ["correlator", "--steps", "2", "--shots", "0"], "--seed must be >= 0, got -3"),
        ({"seed": -1}, ["vha-sweep", "--grid", "3", "--shots", "16"], "--seed must be >= 0, got -1"),
        ({"readout-mitigation": True}, ["correlator", "--steps", "2", "--shots", "0"],
         "mitigation flags need --noise-model"),
    ],
)
def test_config_values_are_checked_like_flags(tmp_path, capsys, config, argv, message):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    code, _, err = run_cli(["--config", str(cfg), *argv, "--outdir", str(out)], capsys)
    assert code == 2
    assert message in err
    assert not out.exists()


def test_outdir_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HUBBARD_GF_OUTDIR", str(tmp_path / "envout"))
    code, _, _ = run_cli(["correlator", "--steps", "2", "--shots", "0", "--pair", "y2y2"], capsys)
    assert code == 0
    assert (tmp_path / "envout" / "y2y2.csv").exists()


def test_csv_round_trip(tmp_path):
    write_csv(tmp_path / "x.csv", {"a": 1, "b": 0.25}, ["u", "v"], [(1.0, 2.0), (3.0, 4.5)])
    header, cols, rows = read_csv(tmp_path / "x.csv")
    assert header == {"a": "1", "b": "0.25"}
    assert cols == ["u", "v"]
    assert rows == [["1.0", "2.0"], ["3.0", "4.5"]]


@pytest.mark.parametrize(
    "argv, csv_sha256, svg_sha256",
    [
        (["--grid", "13", "--shots", "256", "--seed", "17"],
         "aae9841a190c9ce0444f94ecfb733c25a4d66c7ea6072f404881e656554ebfac",
         "0a70f486e733d57abd3a2e1f491909ea6583c347769fdc6511e13052ae83391a"),
        (["--grid", "21"],
         "af506ed775e856d2fd0b9d361291966a5ed544caa130d6a3e21cf9a4146bef12",
         "6d71c9f749d23695ce642f34a503e84f06e03b6b1479b12c3d2d95d90400d4a0"),
    ],
)
def test_landscape_files_are_pinned(tmp_path, capsys, argv, csv_sha256, svg_sha256):
    # digests of the files the per-point sweep wrote before the sweep ran on whole-grid arrays
    code, _, _ = run_cli(["vha-sweep", *argv, "--outdir", str(tmp_path)], capsys)
    assert code == 0
    assert hashlib.sha256((tmp_path / "landscape.csv").read_bytes()).hexdigest() == csv_sha256
    assert hashlib.sha256((tmp_path / "landscape.svg").read_bytes()).hexdigest() == svg_sha256


@pytest.mark.parametrize(
    "argv, name, csv_sha256",
    [
        (["--shots", "0"], "y2y2",
         "b2c6b0b9822c610f1005bf1a7d04e1964a33f3abee74c24f0ba40e3394a12f99"),
        (["--shots", "4096", "--seed", "7"], "y2y2",
         "05ffbcaae82a6cd0bf9ab5e0cd2211f73a7e21c6a08376fdbe3e69098ff7b3fa"),
        (["--shots", "4096", "--seed", "7", "--protocol", "hadamard"], "y2y2",
         "547d6c27e8434d61981eb9b3cd09622f1e4e6811faeb1580b987b9fb7d919a3d"),
        (["--shots", "0", "--protocol", "advanced-hadamard", "--kind", "keldysh"], "x3y2",
         "da814fb3625320465847f6251cf0150e8265c37f6bea8915deed4b68f4468538"),
        (["--shots", "0", "--kind", "keldysh", "--pair", "x3y2"], "x3y2",
         "f840b6eeae90b0c4fff6cfd49fb9b2811e32630b5fe15ed209e30d21e3bfa8ef"),
    ],
)
def test_correlator_files_are_pinned(tmp_path, capsys, argv, name, csv_sha256):
    # identical configs must give identical CSV bytes; the shot runs' digests predate
    # the protocols measuring on their plan's time grid, except the Hadamard shot run's,
    # which each pair draws from its own child of the run seed; the exact advanced-Hadamard
    # run's was taken when each noiseless Trotter step became one fused unitary, and the
    # exact direct runs' when expectation_pauli became one einsum (last-ulp moves each)
    code, _, _ = run_cli(["correlator", "--steps", "6", *argv, "--outdir", str(tmp_path)], capsys)
    assert code == 0
    assert hashlib.sha256((tmp_path / f"{name}.csv").read_bytes()).hexdigest() == csv_sha256


def test_noisy_drift_run_is_pinned(tmp_path, capsys, monkeypatch):
    # idle drift under XX decoupling, twirl, ZNE and readout mitigation: the schedule,
    # the drift gates and the fused runs behind them keep their bytes (digest taken
    # when the draws moved to the seed tree of statevector.child_seeds)
    from hubbard_gf.noise import kolkata_dimer_model

    monkeypatch.chdir(tmp_path)  # the CSV header names the model path as given
    replace(kolkata_dimer_model(), idle_rate=dict.fromkeys(range(5), 2e5)).to_json("model.json")
    code, _, _ = run_cli(
        ["correlator", "--steps", "4", "--shots", "4096", "--seed", "5", "--pair", "y2y2",
         "--noise-model", "model.json", "--dd", "XX", "--readout-mitigation", "--twirl", "4",
         "--zne-scales", "1.0", "1.5", "2.0", "--outdir", "out"],
        capsys,
    )
    assert code == 0
    assert hashlib.sha256(Path("out/y2y2_noisy.csv").read_bytes()).hexdigest() == (
        "4f0f6b328b3c0ee3b4da14bf5dcb57f8503076a270fcd5b15065455efbd407c7"
    )


def test_vha_sweep_refuses_grids_past_dense_capacity(tmp_path, capsys, monkeypatch):
    # grid^2 points of 2^4 amplitudes each may not pass statevector's 2^24 amplitudes
    def sweep(*args, **kwargs):
        raise ValueError("the sweep ran")

    monkeypatch.setattr(cli, "landscape_sweep", sweep)
    out = tmp_path / "out"
    code, _, err = run_cli(["vha-sweep", "--grid", "1025", "--outdir", str(out)], capsys)
    assert code == 2
    assert "dense capacity" in err
    assert not out.exists()
    code, _, err = run_cli(["vha-sweep", "--grid", "1024", "--outdir", str(out)], capsys)
    assert code == 2 and "the sweep ran" in err  # the largest grid that fits reaches the sweep


def test_vha_sweep_refuses_negative_shots_before_the_sweep(tmp_path, capsys, monkeypatch):
    # with or without a seed, a negative count is the fault named, and no grid point is seeded
    def sweep(*args, **kwargs):
        raise ValueError("the sweep ran")

    monkeypatch.setattr(cli, "landscape_sweep", sweep)
    for seed in ([], ["--seed", "3"]):
        out = tmp_path / "out"
        code, _, err = run_cli(["vha-sweep", "--grid", "3", "--shots", "-5", *seed, "--outdir", str(out)], capsys)
        assert code == 2
        assert "shots must be >= 0" in err
        assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["--u", "1e160", "--dtau", "1e-3"],  # U^2 overflows in the closed forms
        ["--t", "1e155", "--dtau", "1e-160"],  # so does t^2
        ["--phi", "1e-9"],  # round-off scaled by 1 / sin Phi, far above it at pi/2
    ],
    ids=["u-1e160", "t-1e155", "phi-1e-9"],
)
def test_compare_passes_its_own_exact_output_at_extreme_settings(tmp_path, capsys, flags):
    code, _, err = run_cli(["correlator", "--steps", "3", "--shots", "0", *flags, "--outdir", str(tmp_path)], capsys)
    assert code == 0, err
    code, out, _ = run_cli(["compare", "--csv", *map(str, sorted(tmp_path.glob("*.csv")))], capsys)
    assert code == 0, out
    assert [r["status"] for r in json.loads(out)["reports"]] == ["PASS"] * 3


def test_weak_kick_refusal_names_the_kick(tmp_path, capsys):
    # the exact direct estimate divides the parity by sin Phi, round-off included: a run
    # past the norm bound is refused, and the message names the kick as the cause
    argv = ["correlator", "--phi", "1e-7", "--steps", "3", "--shots", "0", "--outdir", str(tmp_path / "out")]
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert not (tmp_path / "out").exists()
    assert "at the kick phi=1e-07, 1/sin(phi) = 1e+07 scales the round-off" in err


def _run_quietly(argv) -> int:
    """cli.main with its output discarded (hypothesis examples cannot take capsys)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(max_examples=24, deadline=None)
@given(
    protocol=st.sampled_from(["direct", "hadamard", "advanced-hadamard", "noisy"]),
    kind=st.sampled_from(["retarded", "keldysh"]),
    shots=st.sampled_from([0, 64]),
    pair=st.sampled_from(sorted(DIMER_PAIRS)),
    t=st.floats(0.05, 5.0),
    u=st.floats(-10.0, 10.0),
    dtau=st.floats(1e-3, 1.0),
    phi=st.floats(0.05, math.pi - 0.05),
    steps=st.integers(1, 3),
)
def test_measurement_csv_round_trip(protocol, kind, shots, pair, t, u, dtau, phi, steps):
    # what the CLI hands the writer, read_measurement_csv returns: settings equal, columns bit for bit
    from hubbard_gf.noise import kolkata_dimer_model

    shots = 64 if protocol == "noisy" else shots  # a noisy run draws shots
    written = []

    def spy(*args):
        written.append(args)
        write_measurement_csv(*args)

    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "write_measurement_csv", spy):
        kolkata_dimer_model().to_json(f"{tmp}/model.json")
        extra = ["--noise-model", f"{tmp}/model.json"] if protocol == "noisy" else ["--protocol", protocol]
        argv = ["correlator", *extra, "--kind", kind, "--shots", str(shots), "--seed", "5", "--pair", pair,
                f"--t={t}", f"--u={u}", f"--dtau={dtau}", f"--phi={phi}", "--steps", str(steps), "--outdir", tmp]
        assert _run_quietly(argv) == 0
        [(path, name, record, t_, u_, plan, kind_, _seed, _model)] = written
        csv = read_measurement_csv(path)
        _, columns, rows = read_csv(path)
    # the Hadamard CSVs hold their protocol's native half of the full value the record holds
    factor = 0.5 if record.protocol in ("hadamard", "advanced_hadamard") else 1.0
    for column, values in (("estimate", record.estimates), ("stderr", record.stderrs)):
        cells = [float(row[columns.index(column)]) for row in rows]
        assert np.array(cells).tobytes() == (factor * np.array(values, dtype=float)).tobytes()
    assert (csv.correlator, csv.kind, csv.protocol, csv.shots, csv.phi) == (
        name, kind_, record.protocol, record.shots, record.phi
    )
    assert (csv.t, csv.u, csv.plan) == (t_, u_, plan) == (t, u, TrotterPlan(dtau, steps))
    for column, values in ((csv.taus, record.taus), (csv.estimates, record.estimates), (csv.stderrs, record.stderrs)):
        assert column.tobytes() == np.array(values, dtype=float).tobytes()


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)  # t and dtau, mostly
_TYPICAL = st.sampled_from([1.0, 4.0, 0.314, 1.5707963267948966])


@settings(max_examples=200, deadline=None)
@given(
    values=st.fixed_dictionaries(
        {"t": st.one_of(_POSITIVE, _FINITE, _TYPICAL), "u": st.one_of(_FINITE, _TYPICAL),
         "dtau": st.one_of(_POSITIVE, _FINITE, _TYPICAL), "phi": st.one_of(_FINITE, _TYPICAL)}
    ),
    steps=st.integers(1, 3),
    kind=st.sampled_from(["retarded", "keldysh"]),
    protocol=st.sampled_from(["direct", "hadamard", "advanced-hadamard"]),
    pair=st.sampled_from(sorted(DIMER_PAIRS) + ["all"]),
    shots=st.sampled_from([0, 64]),
    in_config=st.sets(st.sampled_from(["t", "u", "dtau", "phi", "steps", "kind", "protocol", "pair", "shots"])),
)
def test_every_finite_correlator_config_runs_or_is_refused(values, steps, kind, protocol, pair, shots, in_config):
    # exit 0 or 2; a refused run leaves no directory, a finished one finite cells that compare
    # passes when the run is exact (a shot verdict is a statistical one, so it is not asserted)
    settings_ = {**values, "steps": steps, "kind": kind, "protocol": protocol, "pair": pair, "shots": shots}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        config = Path(tmp) / "run.json"
        config.write_text(json.dumps({k: v for k, v in settings_.items() if k in in_config}))
        flags = [f"--{k}={v}" for k, v in settings_.items() if k not in in_config]
        code = _run_quietly(["--config", str(config), "correlator", "--seed", "3", *flags, "--outdir", str(out)])
        assert code in (0, 2)
        if code == 2:
            assert not out.exists()
            return
        paths = sorted(map(str, out.glob("*.csv")))
        for path in paths:
            _, columns, rows = read_csv(path)
            assert all(math.isfinite(float(cell)) for row in rows for c, cell in zip(columns, row) if c != "protocol")
        if shots == 0:
            assert _run_quietly(["compare", "--csv", *paths]) == 0


@settings(max_examples=100, deadline=None)
@given(t=st.one_of(_FINITE, _TYPICAL), u=st.one_of(_FINITE, _TYPICAL), grid=st.integers(1, 5),
       shots=st.sampled_from([0, 64]))
@example(t=3e307, u=1e308, grid=3, shots=0)  # an optimum energy of -8.5e307
def test_every_finite_vha_sweep_config_runs_or_is_refused(t, u, grid, shots):
    # exit 0 or 2 with no numpy warning; a refused sweep leaves no directory, a finished
    # one finite cells, a finite optimum, a colour in 0-255 for every grid cell and a
    # readable optimum line
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out, stdout = Path(tmp) / "out", io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main(["vha-sweep", f"--t={t}", f"--u={u}", "--grid", str(grid), "--shots", str(shots),
                         "--seed", "3", "--outdir", str(out)])
        assert code in (0, 2)
        if code == 2:
            assert not out.exists()
            return
        optimum = stdout.getvalue().splitlines()[0]
        assert optimum.startswith("optimum: ") and len(optimum) < 200, optimum
        meta, _, rows = read_csv(str(out / "landscape.csv"))
        assert all(math.isfinite(float(cell)) for row in rows for cell in row)
        assert all(math.isfinite(float(meta[k])) for k in ("optimum_alpha", "optimum_beta", "optimum_energy"))
        colours = re.findall(r'fill="rgb\((-?\d+),60,(-?\d+)\)"', (out / "landscape.svg").read_text())
        assert len(colours) == grid * grid
        assert all(0 <= int(c) <= 255 for pair in colours for c in pair)
