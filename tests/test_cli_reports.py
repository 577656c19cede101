import hashlib
import json
import math
import re

import numpy as np
import pytest

from hubbard_gf import cli
from hubbard_gf.cli import main
from hubbard_gf.reports import read_csv, write_csv


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
    write_landscape_csv(tmp_path / "l.csv", one_point)
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
    + [("vha-sweep", flag) for flag in ("t", "u")],
)
def test_non_finite_physics_flags_are_refused(tmp_path, capsys, command, flag, value):
    argv = {
        "correlator": ["correlator", "--steps", "2", "--shots", "0", "--pair", "y2y2"],
        "vha-sweep": ["vha-sweep", "--grid", "5"],
    }[command]
    out = tmp_path / "out"
    code, _, err = run_cli(argv + [f"--{flag}={value}", "--outdir", str(out)], capsys)
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
    NoiseModel.zero(5).to_json(model)
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
        pytest.param(_NOISELESS + ["--zne-scales", "1", "inf"], "finite", id="noiseless-zne-inf"),
        pytest.param(_NOISELESS + ["--zne-scales", "1", "2", "nan"], "finite",
                     id="noiseless-zne-nan"),
        pytest.param(_NOISELESS + ["--zne-order", "-1", "--zne-scales", "1", "2"], "order",
                     id="noiseless-zne-order--1"),
        # a refused run leaves no output directory behind
        pytest.param(_NOISELESS + ["--steps", "0"], "steps", id="steps-0"),
        pytest.param(_NOISELESS + ["--dtau", "-1"], "dtau", id="dtau--1"),
        pytest.param(_CORRELATOR + ["--shots", "-5", "--seed", "5"], "shots", id="shots--5"),
        pytest.param(_CORRELATOR + ["--protocol", "hadamard", "--shots", "-5", "--seed", "5"],
                     "shots must be >= 1", id="hadamard-shots--5"),
        pytest.param(_CORRELATOR + ["--protocol", "advanced-hadamard", "--shots", "-5"],
                     "shots must be >= 1", id="advanced-hadamard-shots--5"),
        pytest.param(_NOISELESS + ["--phi", "0"], "Phi", id="noiseless-phi-0"),
        pytest.param(_NOISY + ["--phi", "0"], "Phi", id="phi-0"),
        pytest.param(_NOISY + ["--phi", "3.141592653589793"], "Phi", id="phi-pi"),
        pytest.param(_NOISY + ["--shots", "0"], "shots", id="shots-0"),
        pytest.param(_SWEEP + ["--grid", "0"], "grid", id="sweep-grid-0"),
        pytest.param(_SWEEP + ["--shots", "-1", "--seed", "3"], "shots", id="sweep-shots--1"),
    ],
)
def test_noisy_twirl_below_one_is_refused(tmp_path, capsys, flags, message):
    # flags are validated on every run, noiseless ones too, before anything is written
    from hubbard_gf.noise import NoiseModel

    model = tmp_path / "zero.json"
    NoiseModel.zero(5).to_json(model)
    out = tmp_path / "out"
    argv = [str(model) if a == "MODEL" else a for a in flags]
    code, _, err = run_cli(argv + ["--outdir", str(out)], capsys)
    assert code == 2
    assert message in err
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


def test_single_pair_run_writes_its_full_run_bytes(tmp_path, capsys):
    args = ["correlator", "--steps", "6", "--shots", "4096", "--seed", "7", "--outdir"]
    code, _, _ = run_cli(args + [str(tmp_path / "all"), "--pair", "all"], capsys)
    assert code == 0
    code, _, _ = run_cli(args + [str(tmp_path / "one"), "--pair", "x3y2"], capsys)
    assert code == 0
    assert sorted(p.name for p in (tmp_path / "one").iterdir()) == ["x3y2.csv", "x3y2.svg"]
    assert (tmp_path / "one" / "x3y2.csv").read_bytes() == (tmp_path / "all" / "x3y2.csv").read_bytes()


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
        ("# kind=retarded", "# kind=advanced", "invalid header kind=advanced"),
        ("# correlator=y2y2", "# correlator=zz", "invalid header correlator=zz"),
    ],
)
def test_compare_refuses_headers_it_cannot_judge(tmp_path, capsys, line, bad, message):
    code, _, _ = run_cli(
        ["correlator", "--steps", "2", "--shots", "0", "--pair", "y2y2", "--outdir", str(tmp_path)], capsys
    )
    assert code == 0
    path = tmp_path / "y2y2.csv"
    text = path.read_text()
    assert line + "\n" in text
    path.write_text(text.replace(line + "\n", bad + "\n", 1))
    code, out, err = run_cli(["compare", "--csv", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert f"error: {path}: {message}" in err


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
