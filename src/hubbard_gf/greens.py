"""Green's-function measurement protocols: Hadamard tests and the direct (response) scheme.

Sites here are 0-based and resolve to qubits through the Hamiltonian's mode order
(the dimer: c_up, b_up, c_dn, b_dn on qubits 0-3, ancilla d-mode on qubit 4).

The direct protocol prepares the ancilla occupied, kicks the system with
exp(Phi/2 * sigma_src x_d), evolves system and ancilla (the ancilla picks up the
phase lambda = eps_d * tau as one Z^dag rotation), measures the two-qubit-reduced
bilinear i sigma_probe x_d and scales it by 2 / sin Phi.  lambda = pi/2 selects the
retarded (anticommutator) combination, lambda = 0 the Keldysh (commutator) one,
exactly at any Phi.  Every protocol returns the full value: <{probe(tau), source}>
(retarded) or -i<[probe(tau), source]> (Keldysh).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import (
    Circuit,
    TrotterPlan,
    circuit_unitary,
    dimer_trotter_step,
    letter_basis_gates,
    pauli_rotation_gates,
    simulate,
)
from .model import FermionHamiltonian
from .pauli import MajoranaIndex, PauliString, jw_mode, jw_string_remover
from .statevector import (
    GateOp,
    apply_gate,
    apply_matrix_inplace,
    apply_pauli,
    expectation_pauli,
    child_seeds,
    parity_expectation,
    sample_counts,
    shot_stderr,
)
from .vha import VhaParams, optimal_angles, vha_circuit

LAMBDA_BY_KIND = {"retarded": math.pi / 2, "keldysh": 0.0}


def kind_lambda(kind: str) -> float:
    """The ancilla phase lambda that selects a correlator kind; ValueError for any other kind."""
    if kind not in LAMBDA_BY_KIND:
        raise ValueError(f"kind must be retarded or keldysh, got {kind!r}")
    return LAMBDA_BY_KIND[kind]


@dataclass(frozen=True)
class MeasurementRecord:
    """Per-time-point full-value estimates with shot statistics and full provenance."""

    taus: tuple[float, ...]
    estimates: tuple[float, ...]
    stderrs: tuple[float, ...]
    shots: int
    protocol: str
    phi: float
    lam: float

    def __post_init__(self):
        if self.shots == 0:  # a shot estimate divided by sin Phi may exceed the bound
            for v in self.estimates:
                if abs(v) > 2 + 1e-9:
                    cause = "" if self.protocol != "direct" else (  # the estimator divides by sin Phi
                        f": at the kick phi={self.phi:g}, 1/sin(phi) = {1 / abs(math.sin(self.phi)):.3g}"
                        " scales the round-off of the exact parity; use a larger phi"
                    )
                    raise ValueError(f"estimate {v} violates the Majorana norm bound{cause}")
        for s in self.stderrs:
            if s < 0:
                raise ValueError("stderr must be nonnegative")


def time_grid(plan: TrotterPlan) -> tuple[float, ...]:
    return tuple(k * plan.dtau for k in range(plan.steps + 1))


def _mode_pauli(m: MajoranaIndex, h: FermionHamiltonian, width: int) -> PauliString:
    return jw_mode(h.mode_of(m.site, m.spin), width, m.flavor)


# -- Hadamard-test family ------------------------------------------------------------


def _hadamard_family(
    source: MajoranaIndex, probe: MajoranaIndex, t: float, u: float, plan: TrotterPlan,
    shots: int, seed: int, kind: str, protocol: str,
) -> MeasurementRecord:
    """<psi| U^-j P U^j S |psi> = <U^j psi| P |U^j S psi> at each grid point j.

    psi and S psi are carried forward together, as one two-row batch, one step
    per grid point, so no backward evolution is simulated; both variants read
    this overlap, and the record holds twice it.  The step's 16x16 unitary is
    built once and applied as one kernel call per grid point.
    """
    lam = kind_lambda(kind)
    h = FermionHamiltonian.dimer(t, u)
    width = h.n_modes
    prb = _mode_pauli(probe, h, width)
    step = circuit_unitary(dimer_trotter_step(t, u, plan.dtau))
    psi = simulate(dimer_ground_circuit(t, u))
    pair = np.stack([psi, apply_pauli(psi, _mode_pauli(source, h, width))])
    taus = time_grid(plan)
    seeds = child_seeds(seed, len(taus)) if shots else None

    estimates, stderrs = [], []
    for k in range(len(taus)):
        if k:
            apply_matrix_inplace(pair, step, tuple(range(width)), width)
        overlap = complex(np.vdot(pair[0], apply_pauli(pair[1], prb)))
        value = overlap.imag if kind == "keldysh" else overlap.real
        if shots == 0:
            estimates.append(2 * float(value))
            stderrs.append(0.0)
        else:
            p0 = min(1.0, max(0.0, (1 + value) / 2))
            ones = int(np.random.default_rng(seeds[k]).binomial(shots, 1 - p0))
            est = (shots - 2 * ones) / shots
            estimates.append(2 * est)
            stderrs.append(2 * shot_stderr(est, shots))
    return MeasurementRecord(taus, tuple(estimates), tuple(stderrs), shots, protocol, 0.0, lam)


def hadamard_test(
    source: MajoranaIndex, probe: MajoranaIndex, t: float, u: float, plan: TrotterPlan,
    shots: int, seed: int, kind: str = "retarded",
) -> MeasurementRecord:
    """Ancilla-interferometric estimate of 2 Re <probe(tau) source> on the plan's time grid
    (2 Im for kind="keldysh").

    The printed form applies controlled forward and backward evolution blocks;
    on a noiseless simulator they act as U^j on both interferometer branches,
    whose overlap through the probe sets the ancilla statistics.
    """
    return _hadamard_family(source, probe, t, u, plan, shots, seed, kind, "hadamard")


def advanced_hadamard_test(
    source: MajoranaIndex, probe: MajoranaIndex, t: float, u: float, plan: TrotterPlan,
    shots: int, seed: int, kind: str = "retarded",
) -> MeasurementRecord:
    """Same estimand with a single uncontrolled forward evolution.

    Requires controlled single-Majorana insertions, which only the plain JW
    mapping provides; local encodings expose even products only.
    """
    return _hadamard_family(source, probe, t, u, plan, shots, seed, kind, "advanced_hadamard")


# -- direct (linear-response) measurement ----------------------------------------------


@dataclass(frozen=True)
class _DirectPieces:
    """What a direct-protocol point is built from; callers add the ancilla phase lambda."""

    prep: Circuit  # widened ground circuit, then X on the ancilla
    kick: Circuit  # exp(Phi/2 sigma_src x_d)
    step: Circuit  # one Trotter step on the system qubits, below the ancilla
    observable: PauliString  # i sigma_probe x_d
    basis: Circuit  # turns the observable into the parity of meas_qubits
    meas_qubits: tuple[int, int]
    sign: float  # direct_estimate's sign
    anc: int


def _direct_pieces(
    source: MajoranaIndex, probe: MajoranaIndex, t: float, u: float, dtau: float, phi: float
) -> _DirectPieces:
    if abs(math.sin(phi)) < 1e-12:
        raise ValueError("Phi must not be a multiple of pi (zero response)")
    h = FermionHamiltonian.dimer(t, u)
    anc = h.n_modes
    width = anc + 1
    xd = jw_mode(anc, width, "x")
    pert_gen = (_mode_pauli(source, h, width) * xd).times_i()
    observable = (_mode_pauli(probe, h, width) * xd).times_i()
    if not (pert_gen.is_hermitian and observable.is_hermitian):
        raise AssertionError("bilinears must be Hermitian")
    m, n = observable.support[0], observable.support[-1]
    return _DirectPieces(
        prep=dimer_ground_circuit(t, u).widened(width) + Circuit(width, (GateOp("X", (anc,)),)),
        kick=Circuit(width, tuple(pauli_rotation_gates(pert_gen, phi))),
        step=dimer_trotter_step(t, u, dtau),
        observable=observable,
        # strip the Z string between the endpoints, then rotate their letters onto Z
        basis=Circuit(width, tuple(jw_string_remover(m, n) + letter_basis_gates(observable)[0])),
        meas_qubits=(m, n),
        sign=1.0 if observable.phase_exp == 0 else -1.0,
        anc=anc,
    )


def direct_measurement(
    source: MajoranaIndex,
    probe: MajoranaIndex,
    t: float,
    u: float,
    plan: TrotterPlan,
    phi: float,
    shots: int,
    seed: int,
    kind: str = "retarded",
) -> MeasurementRecord:
    """Kubo-style estimate of the probe-source correlator on the plan's time grid, exact at any Phi.

    Occupy the ancilla and kick once with exp(Phi/2 sigma_src x_d), then give
    the kicked state the ancilla Z^dag phase lambda (the step never touches the
    ancilla, so the phase commutes with every step).  Carry it one Trotter step
    per grid point, as one kernel call with the step's 16x16 unitary.  At each
    point i sigma_probe x_d is reduced to a two-qubit parity, estimated and
    scaled by 2 / sin Phi.  Shot point k draws from child k of the seed
    (statevector.child_seeds); a shot-free run derives no seeds.
    """
    lam = kind_lambda(kind)
    pieces = _direct_pieces(source, probe, t, u, plan.dtau, phi)
    point = apply_gate(simulate(pieces.kick, simulate(pieces.prep)), GateOp("RZ", (pieces.anc,), -lam))
    step = circuit_unitary(pieces.step)
    system = tuple(range(pieces.anc))
    taus = time_grid(plan)
    seeds = child_seeds(seed, len(taus)) if shots else None

    estimates, stderrs = [], []
    for k in range(len(taus)):
        if k:
            apply_matrix_inplace(point, step, system, pieces.anc + 1)
        if shots == 0:  # the observable carries the sign
            val, err = direct_estimate(1.0, expectation_pauli(point, pieces.observable), 0.0, phi)
        else:
            rotated = simulate(pieces.basis, point)
            counts = sample_counts(rotated, pieces.meas_qubits, shots, seeds[k])
            parity = parity_expectation(counts, shots)
            val, err = direct_estimate(pieces.sign, parity, shot_stderr(parity, shots), phi)
        estimates.append(val)
        stderrs.append(err)
    return MeasurementRecord(taus, tuple(estimates), tuple(stderrs), shots, "direct", phi, lam)


def direct_estimate(sign: float, parity: float, stderr: float, phi: float) -> tuple[float, float]:
    """The full-value (estimate, stderr) of one point from its measured parity: 2 sign * parity / sin Phi."""
    return 2 * sign * parity / math.sin(phi), 2 * stderr / abs(math.sin(phi))


def direct_point_circuit(
    source: MajoranaIndex,
    probe: MajoranaIndex,
    t: float,
    u: float,
    plan: TrotterPlan,
    n_steps: int,
    phi: float,
    lam: float,
) -> tuple[Circuit, tuple[int, int], float]:
    """Fully gate-level 5-qubit circuit for one direct-protocol time point.

    Returns (circuit, parity qubits, estimator sign) for direct_estimate.  The
    circuit is the prep, the kick, n_steps times the step and its share of the
    ancilla phase (one Z^dag rotation per step), then the basis.  Used by the
    noisy pipeline; the noiseless runner applies the same pieces with the phase
    as a single rotation.
    """
    p = _direct_pieces(source, probe, t, u, plan.dtau, phi)
    if n_steps == 0:
        evolution = (GateOp("RZ", (p.anc,), -lam),)
    else:
        evolution = (p.step.gates + (GateOp("RZ", (p.anc,), -lam / n_steps),)) * n_steps
    return Circuit(p.anc + 1, p.prep.gates + p.kick.gates + evolution + p.basis.gates), p.meas_qubits, p.sign


# -- the dimer experiment ---------------------------------------------------------------


DIMER_PAIRS = {
    "y2y2": (MajoranaIndex(0, "down", "y"), MajoranaIndex(0, "down", "y")),
    "y3y3": (MajoranaIndex(1, "down", "y"), MajoranaIndex(1, "down", "y")),
    "x3y2": (MajoranaIndex(0, "down", "y"), MajoranaIndex(1, "down", "x")),
}

DIMER_ANALYTIC_REF = {"y2y2": "xx_0", "y3y3": "xx_1", "x3y2": "xy_01"}


def dimer_ground_circuit(t: float, u: float) -> Circuit:
    return vha_circuit(VhaParams(*optimal_angles(t, u)))


def dimer_suite(
    t: float, u: float, plan: TrotterPlan, phi: float, shots: int, seed: int, kind: str = "retarded",
    pairs: tuple[str, ...] = tuple(DIMER_PAIRS),
) -> dict[str, MeasurementRecord]:
    """The listed dimer series (all three by default) exactly as in the experiment pipeline.

    Retarded values are the full anticommutators <{probe(tau), source}> = 2 Re
    of the analytic correlators, Keldysh ones -i<[probe(tau), source]> = 2 Im.
    Each pair draws from its pair_seeds entry, so a series does not depend on
    which others run.
    """
    seeds = pair_seeds(seed, shots)
    return {
        name: direct_measurement(*DIMER_PAIRS[name], t, u, plan, phi, shots, seeds[name], kind) for name in pairs
    }


def pair_seeds(seed: int, shots: int) -> dict[str, int]:
    """Each pair's seed: the run seed's child at its DIMER_PAIRS index, for every protocol.

    A shot-free run draws nothing, so it derives no seeds and passes the run seed on.
    """
    return dict(zip(DIMER_PAIRS, child_seeds(seed, len(DIMER_PAIRS)) if shots else [seed] * len(DIMER_PAIRS)))
