"""Output checks: references computed here, independently of the code paths the CLI runs.

Correlator references are Trotterized matrix powers: the dense unitary of one
dimer Trotter step, applied to the ground state and to the source Majorana
times the ground state, overlapped through the probe Majorana.  That is
<psi| U^-j P U^j S |psi>; the direct protocol reports twice its real part
(retarded) or imaginary part (keldysh), the Hadamard protocols report the part
itself.  Landscape references are the closed-form single-layer energy.

Every check returns (ok, detail).  CSVs are parsed here, not with
`hubbard_gf.reports.read_csv`, so a reader defect cannot hide a writer defect.
"""
from __future__ import annotations

import math

import numpy as np

from hubbard_gf.circuit import circuit_unitary, dimer_trotter_step
from hubbard_gf.greens import DIMER_PAIRS, dimer_ground_circuit
from hubbard_gf.model import FermionHamiltonian
from hubbard_gf.oracle import majorana_operator
from hubbard_gf.vha import variational_energy_formula

EXACT_TOL = 1e-9
LANDSCAPE_TOL = 1e-10
SIGMAS = 4.0
SHOT_COVERAGE = 0.95
MITIGATION_WINS = 0.8


def read_table(path) -> tuple[dict, dict[str, list[str]]]:
    """'# key=value' header lines, one column-name line, then comma-separated rows."""
    header, names, rows = {}, None, []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("# ") and "=" in line:
                key, value = line[2:].split("=", 1)
                header[key] = value
            elif names is None:
                names = line.split(",")
            elif line:
                rows.append(line.split(","))
    if names is None:
        raise ValueError(f"{path} has no column line")
    return header, {name: [r[i] for r in rows] for i, name in enumerate(names)}


def data_rows(path) -> int:
    _, columns = read_table(path)
    return len(next(iter(columns.values()), []))


def overlap_series(t: float, u: float, dtau: float, steps: int, pair: str) -> np.ndarray:
    """<psi| U^-j P U^j S |psi> for j = 0..steps, U one Trotter step of length dtau."""
    h = FermionHamiltonian.dimer(t, u)
    source, probe = DIMER_PAIRS[pair]
    s = majorana_operator(h, source.site, source.spin, source.flavor).to_matrix()
    p = majorana_operator(h, probe.site, probe.spin, probe.flavor).to_matrix()
    step = circuit_unitary(dimer_trotter_step(t, u, dtau))
    psi = circuit_unitary(dimer_ground_circuit(t, u))[:, 0]
    ket, bra = s @ psi, psi
    out = []
    for _ in range(steps + 1):
        out.append(np.vdot(bra, p @ ket))
        ket, bra = step @ ket, step @ bra
    return np.array(out)


def anticommutator_series(t, u, dtau, steps, pair, kind) -> np.ndarray:
    """What the direct protocol estimates: 2 Re (retarded) or 2 Im (keldysh) of the overlap."""
    z = overlap_series(t, u, dtau, steps, pair)
    return 2 * (z.real if kind == "retarded" else z.imag)


def _series(path, dtau, steps, scale):
    _, cols = read_table(path)
    taus = np.array([float(v) for v in cols["tau"]])
    if len(taus) != steps + 1 or np.max(np.abs(taus - dtau * np.arange(steps + 1))) > 1e-12:
        raise ValueError(f"time grid is not {steps + 1} multiples of {dtau}")
    est = scale * np.array([float(v) for v in cols["estimate"]])
    err = scale * np.array([float(v) for v in cols["stderr"]])
    return est, err


def check_exact(path, ref, dtau, steps, scale) -> tuple[bool, str]:
    """Shot-free series equals the reference within EXACT_TOL at every point."""
    try:
        est, _ = _series(path, dtau, steps, scale)
    except (KeyError, ValueError) as e:
        return False, f"unreadable: {e}"
    dev = float(np.max(np.abs(est - ref)))
    return dev <= EXACT_TOL, f"max_dev={dev:.3e} tol={EXACT_TOL:g}"


def check_shots(path, ref, dtau, steps, scale) -> tuple[bool, str]:
    """Shot series within SIGMAS stderrs of the reference at >= SHOT_COVERAGE of points."""
    try:
        est, err = _series(path, dtau, steps, scale)
    except (KeyError, ValueError) as e:
        return False, f"unreadable: {e}"
    frac = float(np.mean(np.abs(est - ref) <= SIGMAS * err + EXACT_TOL))
    return frac >= SHOT_COVERAGE, f"in_band={frac:.3f} need={SHOT_COVERAGE}"


def check_mitigation(mitigated, unmitigated, ref) -> tuple[bool, str]:
    """Mitigated deviation from the noiseless series beats unmitigated at >= MITIGATION_WINS of points.

    Only the estimate column is read: the tau column of noisy CSVs is a known
    defect and is judged by `compare`.
    """
    try:
        mit = np.array([float(v) for v in read_table(mitigated)[1]["estimate"]])
        unmit = np.array([float(v) for v in read_table(unmitigated)[1]["estimate"]])
    except (KeyError, ValueError) as e:
        return False, f"unreadable: {e}"
    if not len(mit) == len(unmit) == len(ref):
        return False, f"lengths {len(mit)}/{len(unmit)} != {len(ref)}"
    wins = np.abs(mit - ref) < np.abs(unmit - ref)
    frac = float(np.mean(wins))
    return frac >= MITIGATION_WINS, f"wins={int(wins.sum())}/{len(wins)} need={MITIGATION_WINS}"


def check_landscape(path, t, u, grid, shots) -> tuple[bool, str]:
    """Every grid point present; exact energies equal the closed form, shot ones sit in its band."""
    try:
        _, cols = read_table(path)
        alpha = np.array([float(v) for v in cols["alpha"]])
        beta = np.array([float(v) for v in cols["beta"]])
        energy = np.array([float(v) for v in cols["energy"]])
        err = np.array([float(v) for v in cols["stderr"]])
    except (KeyError, ValueError) as e:
        return False, f"unreadable: {e}"
    axis = np.linspace(-math.pi, math.pi, grid)
    if len(alpha) != grid * grid or np.any(alpha != np.repeat(axis, grid)) or np.any(
        beta != np.tile(axis, grid)
    ):
        return False, f"grid is not the {grid}x{grid} row-major angle grid"
    ref = np.array([variational_energy_formula(t, u, a, b) for a, b in zip(alpha, beta)])
    dev = np.abs(energy - ref)
    if shots == 0:
        return float(dev.max()) <= LANDSCAPE_TOL, f"max_dev={dev.max():.3e} tol={LANDSCAPE_TOL:g}"
    frac = float(np.mean(dev <= SIGMAS * err + LANDSCAPE_TOL))
    return frac >= SHOT_COVERAGE, f"in_band={frac:.3f} need={SHOT_COVERAGE}"
