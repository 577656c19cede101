"""Green's-function measurement protocols: Hadamard tests and the direct (response) scheme.

Sites here are 0-based and resolve to qubits through the Hamiltonian's mode order
(the dimer: c_up, b_up, c_dn, b_dn on qubits 0-3, ancilla d-mode on qubit 4).

The direct protocol prepares the ancilla occupied, kicks the system with
exp(Phi/2 * sigma_src x_d), evolves system and ancilla (the ancilla picks up the
phase lambda = eps_d * tau as one Z^dag rotation), measures the two-qubit-reduced
bilinear i sigma_probe x_d and divides by sin Phi.  lambda = pi/2 selects the
retarded (anticommutator) combination, lambda = 0 the Keldysh (commutator) one,
exactly at any Phi.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .circuit import (
    Circuit,
    TrotterPlan,
    _letter_basis_gates,
    _string_remover_gates,
    dimer_trotter_step,
    pauli_rotation_gates,
    simulate,
)
from .model import FermionHamiltonian
from .oracle import build_matrix, diagonalize
from .pauli import MajoranaIndex, PauliString, jw_mode
from .statevector import (
    GateOp,
    StateVector,
    apply_gate,
    apply_pauli,
    expectation_pauli,
    parity_expectation,
    sample_counts,
    shot_stderr,
)
from .vha import VhaParams, optimal_angles, vha_circuit

LAMBDA_BY_KIND = {"retarded": math.pi / 2, "keldysh": 0.0}


@dataclass(frozen=True)
class CorrelatorSpec:
    """Which two Majoranas to correlate, on which time grid, with which protocol."""

    source: MajoranaIndex  # acts at time 0 (the perturbation side)
    probe: MajoranaIndex   # measured at time tau
    taus: tuple[float, ...]
    kind: str = "retarded"
    protocol: str = "direct"

    def __post_init__(self):
        if self.kind not in LAMBDA_BY_KIND:
            raise ValueError(f"kind must be retarded or keldysh, got {self.kind!r}")
        if self.protocol not in ("hadamard", "advanced_hadamard", "direct"):
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if len(self.taus) == 0 or self.taus[0] != 0.0:
            raise ValueError("time grid must start at 0")
        if any(b <= a for a, b in zip(self.taus, self.taus[1:])):
            raise ValueError("time grid must be strictly increasing")

    @property
    def lam(self) -> float:
        return LAMBDA_BY_KIND[self.kind]


@dataclass(frozen=True)
class MeasurementRecord:
    """Per-time-point estimates with shot statistics and full provenance."""

    taus: tuple[float, ...]
    estimates: tuple[float, ...]
    stderrs: tuple[float, ...]
    shots: int
    seed: int
    protocol: str
    phi: float
    lam: float

    def __post_init__(self):
        if self.shots == 0:  # a shot estimate divided by sin Phi may exceed the bound
            for v in self.estimates:
                if abs(v) > 2 + 1e-9:
                    raise ValueError(f"estimate {v} violates the Majorana norm bound")
        for s in self.stderrs:
            if s < 0:
                raise ValueError("stderr must be nonnegative")


def time_grid(plan: TrotterPlan) -> tuple[float, ...]:
    return tuple(k * plan.dtau for k in range(plan.steps + 1))


def dimer_majorana(site: int, spin: str, flavor: str) -> MajoranaIndex:
    return MajoranaIndex(site, spin, flavor)


def _mode_pauli(m: MajoranaIndex, h: FermionHamiltonian, width: int) -> PauliString:
    return jw_mode(h.mode_of(m.site, m.spin), width, m.flavor)


def _steps_for(tau: float, plan: TrotterPlan) -> int:
    j = int(round(tau / plan.dtau))
    if abs(j * plan.dtau - tau) > 1e-9:
        raise ValueError(f"tau {tau} is not a multiple of dtau {plan.dtau}")
    return j


# -- Hadamard-test family ------------------------------------------------------------


def _hadamard_family(
    spec: CorrelatorSpec, t: float, u: float, plan: TrotterPlan, shots: int, seed: int,
    protocol: str,
) -> MeasurementRecord:
    """<psi| U^-j P U^j S |psi> = <U^j psi| P |U^j S psi> per time point.

    psi and S psi are carried forward together along the time grid, so no
    backward evolution is simulated; both variants read this overlap.
    """
    h = FermionHamiltonian.dimer(t, u)
    width = h.n_modes
    prb = _mode_pauli(spec.probe, h, width)
    step = dimer_trotter_step(t, u, plan.dtau)
    bra = simulate(dimer_ground_circuit(t, u))
    ket = apply_pauli(bra, _mode_pauli(spec.source, h, width))
    imag_part = spec.kind == "keldysh"
    seeds = np.random.SeedSequence(seed).generate_state(len(spec.taus))

    estimates, stderrs = [], []
    done = 0
    for k, tau in enumerate(spec.taus):
        j = _steps_for(tau, plan)
        for _ in range(j - done):
            bra = simulate(step, bra)
            ket = simulate(step, ket)
        done = j
        overlap = complex(np.vdot(bra.amps, apply_pauli(ket, prb).amps))
        value = overlap.imag if imag_part else overlap.real
        if shots == 0:
            estimates.append(float(value))
            stderrs.append(0.0)
        else:
            p0 = min(1.0, max(0.0, (1 + value) / 2))
            rng = np.random.default_rng(int(seeds[k]))
            ones = int(rng.binomial(shots, 1 - p0))
            est = (shots - 2 * ones) / shots
            estimates.append(est)
            stderrs.append(shot_stderr(est, shots))
    return MeasurementRecord(
        tuple(spec.taus),
        tuple(estimates),
        tuple(stderrs),
        shots,
        seed,
        protocol,
        0.0,
        spec.lam,
    )


def hadamard_test(
    spec: CorrelatorSpec, t: float, u: float, plan: TrotterPlan, shots: int, seed: int
) -> MeasurementRecord:
    """Ancilla-interferometric estimate of Re <probe(tau) source> per time point.

    The printed form applies controlled forward and backward evolution blocks;
    on a noiseless simulator they act as U^j on both interferometer branches,
    whose overlap through the probe sets the ancilla statistics.
    """
    if spec.protocol != "hadamard":
        raise ValueError(f"spec requests protocol {spec.protocol!r}")
    return _hadamard_family(spec, t, u, plan, shots, seed, "hadamard")


def advanced_hadamard_test(
    spec: CorrelatorSpec, t: float, u: float, plan: TrotterPlan, shots: int, seed: int
) -> MeasurementRecord:
    """Same estimand with a single uncontrolled forward evolution.

    Requires controlled single-Majorana insertions, which only the plain JW
    mapping provides; local encodings expose even products only.
    """
    if spec.protocol != "advanced_hadamard":
        raise ValueError(f"spec requests protocol {spec.protocol!r}")
    return _hadamard_family(spec, t, u, plan, shots, seed, "advanced_hadamard")


# -- direct (linear-response) measurement ----------------------------------------------


@dataclass(frozen=True)
class _DirectPieces:
    """What a direct-protocol point is built from; callers add the ancilla phase lambda."""

    prep: Circuit  # widened ground circuit, then X on the ancilla
    kick: Circuit  # exp(Phi/2 sigma_src x_d)
    step: Circuit  # one Trotter step on the widened register
    observable: PauliString  # i sigma_probe x_d
    basis: Circuit  # turns the observable into the parity of meas_qubits
    meas_qubits: tuple[int, int]
    sign: float  # estimate = sign * parity / sin(Phi)
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
        step=dimer_trotter_step(t, u, dtau).widened(width),
        observable=observable,
        # strip the Z string between the endpoints, then rotate their letters onto Z
        basis=Circuit(width, tuple(_string_remover_gates(m, n) + _letter_basis_gates(observable)[0])),
        meas_qubits=(m, n),
        sign=1.0 if observable.phase_exp == 0 else -1.0,
        anc=anc,
    )


def direct_measurement(
    spec: CorrelatorSpec,
    t: float,
    u: float,
    plan: TrotterPlan,
    phi: float,
    shots: int,
    seed: int,
    evolution: str = "trotter",
) -> MeasurementRecord:
    """Kubo-style estimate of the probe-source correlator, exact at any Phi.

    Occupy the ancilla and kick once with exp(Phi/2 sigma_src x_d), then carry
    the state along the time grid (Trotterized) or evolve it densely to each
    point (exact).  Per time point a copy gets the ancilla Z^dag phase lambda
    (the step never touches the ancilla, so the two commute), i sigma_probe x_d
    is reduced to a two-qubit parity, estimated and divided by sin Phi.
    """
    if spec.protocol != "direct":
        raise ValueError(f"spec requests protocol {spec.protocol!r}")
    if evolution not in ("trotter", "exact"):
        raise ValueError(f"unknown evolution mode {evolution!r}")
    pieces = _direct_pieces(spec.source, spec.probe, t, u, plan.dtau, phi)
    kicked = simulate(pieces.kick, simulate(pieces.prep))
    if evolution == "exact":
        spect = diagonalize(build_matrix(FermionHamiltonian.dimer(t, u)))
    phase = GateOp("RZ", (pieces.anc,), -spec.lam)
    seeds = np.random.SeedSequence(seed).generate_state(len(spec.taus))

    estimates, stderrs = [], []
    state, done = kicked, 0
    for k, tau in enumerate(spec.taus):
        if evolution == "trotter":
            j = _steps_for(tau, plan)
            for _ in range(j - done):
                state = simulate(pieces.step, state)
            done = j
            point = apply_gate(state, phase)
        else:
            point = apply_gate(_exact_evolve(kicked, spect, tau, pieces.anc), phase)
        if shots == 0:
            val = expectation_pauli(point, pieces.observable) / math.sin(phi)
            estimates.append(float(val))
            stderrs.append(0.0)
        else:
            rotated = simulate(pieces.basis, point)
            counts = sample_counts(rotated, pieces.meas_qubits, shots, int(seeds[k]))
            parity = parity_expectation(counts, shots)
            estimates.append(pieces.sign * parity / math.sin(phi))
            stderrs.append(shot_stderr(parity, shots) / abs(math.sin(phi)))
    return MeasurementRecord(
        tuple(spec.taus),
        tuple(estimates),
        tuple(stderrs),
        shots,
        seed,
        "direct",
        phi,
        spec.lam,
    )


def _exact_evolve(state: StateVector, spect, tau: float, n_sys: int) -> StateVector:
    """Dense exp(-i H tau) on the system factor, identity on the ancilla."""
    dim = 1 << n_sys
    v = spect.eigenvectors
    amps = state.amps.reshape(2, dim).T  # columns: ancilla 0/1 blocks
    phases = np.exp(-1j * spect.eigenvalues * tau)
    evolved = v @ (phases[:, None] * (v.conj().T @ amps))
    return StateVector(evolved.T.reshape(-1).copy(), state.n)


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

    Returns (circuit, parity qubits, estimator sign); the estimate is
    sign * parity / sin(phi).  The ancilla phase is spread as one Z^dag rotation
    per Trotter step.  Used by the noisy pipeline; the noiseless runner applies
    the same pieces with the phase as a single rotation.
    """
    p = _direct_pieces(source, probe, t, u, plan.dtau, phi)
    return _point_circuit(p, n_steps, lam), p.meas_qubits, p.sign


def direct_series_circuits(
    source: MajoranaIndex,
    probe: MajoranaIndex,
    t: float,
    u: float,
    plan: TrotterPlan,
    phi: float,
    lam: float,
) -> tuple[tuple[Circuit, ...], tuple[int, int], float]:
    """direct_point_circuit at steps 0..plan.steps, all built from one set of pieces."""
    p = _direct_pieces(source, probe, t, u, plan.dtau, phi)
    circuits = tuple(_point_circuit(p, k, lam) for k in range(plan.steps + 1))
    return circuits, p.meas_qubits, p.sign


def _point_circuit(p: _DirectPieces, n_steps: int, lam: float) -> Circuit:
    if n_steps == 0:
        evolution = (GateOp("RZ", (p.anc,), -lam),)
    else:
        evolution = (p.step.gates + (GateOp("RZ", (p.anc,), -lam / n_steps),)) * n_steps
    kicked = len(p.prep) + len(p.kick)
    gates = p.prep.gates + p.kick.gates + evolution + p.basis.gates
    barriers = p.prep.barriers + (
        (len(p.prep), "perturbation"),
        (kicked, "evolution"),
        (kicked + len(evolution), "measurement"),
    )
    return Circuit(p.prep.n_qubits, gates, barriers)


# -- correlator assembly ------------------------------------------------------------


UNITARY_M = np.array([[1, 1], [1j, -1j]], dtype=complex) / np.sqrt(2)


def assemble_complex_green(entries: dict, fill_symmetric: bool = True) -> np.ndarray:
    """Rebuild the complex fermion block G = (1/2) M^dag g M from measured parts.

    `entries` maps flavor pairs 'xx', 'xy', 'yx', 'yy' to (retarded, keldysh)
    series; retarded = Re and keldysh = Im of <sigma_a(tau) sigma_b>.  Missing
    'yy' is filled from 'xx' and missing 'yx' from -'xy' (the dimer symmetries).
    Returns an array of shape (T, 2, 2).
    """
    data = dict(entries)
    if fill_symmetric:
        if "yy" not in data and "xx" in data:
            data["yy"] = data["xx"]
        if "yx" not in data and "xy" in data:
            ret, kel = data["xy"]
            data["yx"] = (-np.asarray(ret), -np.asarray(kel))
    missing = {"xx", "xy", "yx", "yy"} - set(data)
    if missing:
        raise ValueError(f"missing correlator entries: {sorted(missing)}")
    series = {}
    length = None
    for key, (ret, kel) in data.items():
        ret, kel = np.asarray(ret, dtype=float), np.asarray(kel, dtype=float)
        if ret.shape != kel.shape:
            raise ValueError("retarded/keldysh grids differ")
        if length is None:
            length = len(ret)
        elif len(ret) != length:
            raise ValueError("correlator series share no common time grid")
        series[key] = ret + 1j * kel
    out = np.empty((length, 2, 2), dtype=complex)
    for k in range(length):
        g = np.array(
            [[series["xx"][k], series["xy"][k]], [series["yx"][k], series["yy"][k]]]
        ) / 1j
        out[k] = 0.5 * UNITARY_M.conj().T @ g @ UNITARY_M
    return out


# -- the dimer experiment ---------------------------------------------------------------


DIMER_PAIRS = {
    "y2y2": (dimer_majorana(0, "down", "y"), dimer_majorana(0, "down", "y")),
    "y3y3": (dimer_majorana(1, "down", "y"), dimer_majorana(1, "down", "y")),
    "x3y2": (dimer_majorana(0, "down", "y"), dimer_majorana(1, "down", "x")),
}

DIMER_ANALYTIC_REF = {"y2y2": "xx_0", "y3y3": "xx_1", "x3y2": "xy_01"}


def dimer_ground_circuit(t: float, u: float) -> Circuit:
    return vha_circuit(VhaParams.single(*optimal_angles(t, u)))


def dimer_suite(
    t: float,
    u: float,
    plan: TrotterPlan,
    phi: float,
    shots: int,
    seed: int,
    evolution: str = "trotter",
    kind: str = "retarded",
    pairs: tuple[str, ...] = tuple(DIMER_PAIRS),
) -> dict[str, MeasurementRecord]:
    """The listed dimer series (all three by default) exactly as in the experiment pipeline.

    Retarded values are the full anticommutators <{probe(tau), source}> = 2 Re
    of the analytic correlators, Keldysh ones -i<[probe(tau), source]> = 2 Im
    (the protocol-native estimate is half of either).  Each pair draws from the
    seed at its DIMER_PAIRS index, so a series does not depend on which others run.
    """
    taus = time_grid(plan)
    out = {}
    seeds = dict(zip(DIMER_PAIRS, np.random.SeedSequence(seed).generate_state(len(DIMER_PAIRS))))
    for name in pairs:
        source, probe = DIMER_PAIRS[name]
        spec = CorrelatorSpec(source, probe, taus, kind=kind, protocol="direct")
        rec = direct_measurement(spec, t, u, plan, phi, shots, int(seeds[name]), evolution)
        out[name] = replace(
            rec,
            estimates=tuple(2 * v for v in rec.estimates),
            stderrs=tuple(2 * s for s in rec.stderrs),
        )
    return out
