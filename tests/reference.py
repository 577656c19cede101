"""Exact references the tests check the package against; no command runs them.

The dense Hamiltonian matrix, dense ground states and ground-state Lehmann
correlators from it, the direct protocol carried by the exact step
exp(-i H dtau), the dimer's closed-form ground-state energies, and an exact
search of the single-layer VHA angles.  The tests import them as
`from reference import ...`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from hubbard_gf import vha
from hubbard_gf.circuit import TrotterPlan, simulate
from hubbard_gf.greens import MeasurementRecord, _direct_pieces, direct_estimate, kind_lambda, time_grid
from hubbard_gf.model import FermionHamiltonian
from hubbard_gf.oracle import SpectralData, diagonalize, hamiltonian_pauli_terms
from hubbard_gf.pauli import MajoranaIndex, PauliString
from hubbard_gf.statevector import apply_matrix_inplace, expectation_pauli
from hubbard_gf.vha import TWO_PI, VhaParams, canonical_angles, vha_circuit

MAX_MATRIX_QUBITS = 12


def build_matrix(h: FermionHamiltonian) -> np.ndarray:
    """Dense Hermitian matrix assembled from the Jordan-Wigner Pauli terms."""
    if h.n_modes > MAX_MATRIX_QUBITS:
        raise ValueError(f"{h.n_modes} qubits exceeds dense oracle capacity {MAX_MATRIX_QUBITS}")
    dim = 1 << h.n_modes
    out = np.zeros((dim, dim), dtype=complex)
    for coef, p in hamiltonian_pauli_terms(h):
        out += coef * p.to_matrix()
    herm_defect = np.max(np.abs(out - out.conj().T))
    if herm_defect > 1e-12:
        raise AssertionError(f"assembled matrix not Hermitian (defect {herm_defect})")
    return out


def ground_state(m: np.ndarray) -> tuple[float, np.ndarray]:
    """(energy, vector) of the lowest eigenpair of a Hermitian matrix, by oracle.diagonalize."""
    spec = diagonalize(m)
    return float(spec.eigenvalues[0]), np.asarray(spec.eigenvectors[:, 0], dtype=complex)


def lehmann_correlator(
    opA: PauliString,
    opB: PauliString,
    h: FermionHamiltonian,
    tau,
    spectral: SpectralData | None = None,
):
    """<psi| A(tau) B |psi> in the ground state psi, via the eigenstate decomposition of
    the propagator.

    A(tau) = e^{iHt} A e^{-iHt}.  `tau` may be a scalar or an array; the return matches.
    """
    if opA.width != opB.width:
        raise ValueError("operator widths differ")
    if spectral is None:
        spectral = diagonalize(build_matrix(h))
    if opA.width != int(np.log2(len(spectral.eigenvalues))):
        raise ValueError("operator width does not match the Hamiltonian")
    v = spectral.eigenvectors
    psi = v[:, 0]  # eigenvalues ascend: column 0 is the ground state
    wb = v.conj().T @ (opB.to_matrix() @ psi)
    u_psi = v.conj().T @ psi
    a_eig = v.conj().T @ opA.to_matrix() @ v
    taus = np.atleast_1d(np.asarray(tau, dtype=float))
    # <psi| e^{iHt} A e^{-iHt} B |psi> = (e^{-iHt} psi)^dag A (e^{-iHt} B psi), in eigenbasis
    phases = np.exp(-1j * np.outer(taus, spectral.eigenvalues))
    out = np.einsum("tm,mk,tk->t", np.conj(phases * u_psi[None, :]), a_eig, phases * wb[None, :])
    return complex(out[0]) if np.ndim(tau) == 0 else out


def dimer_ground_energy(t: float, u: float) -> float:
    return -0.25 * (u + np.sqrt(u * u + 64 * t * t))


def dimer_sector_energies(t: float, u: float) -> tuple[float, float]:
    """Ground-state expectations of the hopping and interaction parts."""
    u2 = np.sqrt(u * u + 64 * t * t)
    e_hop = -16 * t * t / u2
    e_int = -(u / 4) * (1 + u / u2)
    return float(e_hop), float(e_int)


def dimer_spectral(t: float, u: float) -> tuple[FermionHamiltonian, SpectralData]:
    h = FermionHamiltonian.dimer(t, u)
    return h, diagonalize(build_matrix(h))


def exact_direct_measurement(
    source: MajoranaIndex, probe: MajoranaIndex, t: float, u: float, plan: TrotterPlan, phi: float, kind: str
) -> MeasurementRecord:
    """greens.direct_measurement at shots=0 with the exact step exp(-i H dtau) in place of
    the Trotter step: the same pieces, ancilla phase and estimator, carried one exact step
    per grid point, so the series is the full (anti)commutator at any Phi."""
    lam = kind_lambda(kind)
    pieces = _direct_pieces(source, probe, t, u, plan.dtau, phi, lam)
    point = simulate(pieces.head)
    _, spect = dimer_spectral(t, u)
    v = spect.eigenvectors
    step = (v * np.exp(-1j * spect.eigenvalues * plan.dtau)) @ v.conj().T
    taus = time_grid(plan)
    estimates = []
    for k in range(len(taus)):
        if k:
            apply_matrix_inplace(point, step, tuple(range(pieces.step.n_qubits)), pieces.head.n_qubits)
        estimates.append(direct_estimate(1.0, expectation_pauli(point, pieces.observable), 0.0, phi)[0])
    return MeasurementRecord(taus, tuple(estimates), (0.0,) * len(taus), 0, "direct", phi, lam)


@dataclass(frozen=True)
class OptimizeResult:
    params: VhaParams
    energy: float
    trace: tuple[float, ...]
    evaluations: int


def optimize(t: float, u: float, budget: int = 400) -> OptimizeResult:
    """Exact search from (0, 0): a coarse grid, then coordinate descent.

    Best-so-far is returned when the evaluation budget runs out; the recorded
    best-energy trace is monotone non-increasing by construction.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    h = FermionHamiltonian.dimer(t, u)
    evals = 0
    trace: list[float] = []

    def energy(a: float, b: float) -> float:
        nonlocal evals
        evals += 1
        return vha.measure_energy(vha_circuit(VhaParams(a, b)), h, 0).value  # looked up per call, as tests spy on it

    best_a, best_b = 0.0, 0.0
    best_e = energy(best_a, best_b)
    trace.append(best_e)

    # coarse 7x7 grid around the full angle range
    coarse = np.linspace(-math.pi, math.pi, 7)
    for a in coarse:
        for b in coarse:
            if evals >= budget:
                break
            e = energy(float(a), float(b))
            if e < best_e:
                best_a, best_b, best_e = float(a), float(b), e
            trace.append(best_e)

    # coordinate descent with shrinking bracket
    step = math.pi / 6
    while evals + 2 <= budget and step > 1e-8:
        improved = False
        for da, db in ((step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step)):
            if evals >= budget:
                break
            a2 = _wrap_angle(best_a + da)
            b2 = _wrap_angle(best_b + db)
            e = energy(a2, b2)
            if e < best_e - 1e-15:
                best_a, best_b, best_e = a2, b2, e
                improved = True
            trace.append(best_e)
        if not improved:
            step /= 2
    best_a, best_b = canonical_angles(best_a, best_b)
    return OptimizeResult(VhaParams(best_a, best_b), best_e, tuple(trace), evals)


def _wrap_angle(a: float) -> float:
    while a <= -TWO_PI:
        a += 2 * TWO_PI
    while a > TWO_PI:
        a -= 2 * TWO_PI
    return a
