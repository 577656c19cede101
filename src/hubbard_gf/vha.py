"""Variational Hamiltonian ansatz for the dimer: state prep, energy measurement, optimization.

The single-layer ansatz applies the interaction block with angle alpha first, then
the hopping blocks with angle beta, on top of a Slater-determinant trial state.
That order is what makes the closed-form variational energy
E(alpha, beta) = -2t cos(alpha/2) - (U/4)(1 - sin(alpha/2) sin(4 beta)) come out.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import (
    Circuit,
    dimer_interaction_step,
    hopping_pair_block,
    horizontal_hop_value,
    measurement_basis_circuit,
    simulate,
)
from .model import FermionHamiltonian
from .oracle import hamiltonian_pauli_terms, split_pauli_terms
from .statevector import (
    GateOp,
    StateVector,
    expectation_pauli,
    parity_expectation,
    sample_counts,
    shot_stderr,
)

TWO_PI = 2 * math.pi


@dataclass(frozen=True)
class VhaParams:
    """Per-layer (alpha, beta) pairs; the dimer needs a single layer."""

    layers: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.layers) < 1:
            raise ValueError("need at least one layer")
        for a, b in self.layers:
            if not (-TWO_PI < a <= TWO_PI and -TWO_PI < b <= TWO_PI):
                raise ValueError(f"angles must lie in (-2pi, 2pi], got {(a, b)}")

    @classmethod
    def single(cls, alpha: float, beta: float) -> "VhaParams":
        return cls(((alpha, beta),))

    @property
    def p(self) -> int:
        return len(self.layers)


@dataclass(frozen=True)
class EnergyEstimate:
    """Measured energy with its shot-noise error and hopping/interaction split."""

    value: float
    stderr: float
    shots: int
    hopping: float
    interaction: float

    def __post_init__(self):
        if self.stderr < 0:
            raise ValueError("stderr must be nonnegative")
        if abs(self.hopping + self.interaction - self.value) > 1e-9:
            raise ValueError("breakdown does not sum to the total")


def slater_prep_circuit() -> Circuit:
    """Dimer trial state: the filled bonding orbital for each spin.

    Per spin pair (m, n) the gates H_m, CNOT(m->n), X_n take |00> to
    (|01> + |10>)/sqrt(2), which is the Jordan-Wigner image of the bonding-mode
    creation operator acting on the vacuum (up to a global sign).
    """
    gates = []
    for m, n in ((0, 1), (2, 3)):
        gates += [GateOp("H", (m,)), GateOp("CNOT", (m, n)), GateOp("X", (n,))]
    return Circuit(4, tuple(gates)).with_barrier("slater")


def vha_circuit(params: VhaParams) -> Circuit:
    """Slater prep followed by p layers of interaction(alpha) then hopping(beta)."""
    circ = slater_prep_circuit()
    for alpha, beta in params.layers:
        circ = circ + dimer_interaction_step(alpha)
        circ = circ + hopping_pair_block(0, 1, beta, 4)
        circ = circ + hopping_pair_block(2, 3, beta, 4)
        circ = circ.with_barrier("layer")
    return circ


def vha_state(params: VhaParams) -> StateVector:
    return simulate(vha_circuit(params))


def variational_energy_formula(t: float, u: float, alpha: float, beta: float) -> float:
    """Closed-form single-layer dimer energy."""
    return -2 * t * math.cos(alpha / 2) - (u / 4) * (1 - math.sin(alpha / 2) * math.sin(4 * beta))


def optimal_angles(t: float, u: float) -> tuple[float, float]:
    """Minimizer of the closed form: alpha* = -2 atan(U / 8t), beta* = pi/8."""
    return -2 * math.atan2(u, 8 * t), math.pi / 8


def canonical_angles(alpha: float, beta: float) -> tuple[float, float]:
    """Fold (alpha, beta) into the representative basin alpha <= 0, beta in (-pi/4, pi/4].

    The landscape is invariant under beta -> beta + pi/2 and under the joint flip
    (alpha, beta) -> (-alpha, -beta); every member of an optimum family prepares
    the same state, so reports use this canonical member.
    """
    if alpha > 0:
        alpha, beta = -alpha, -beta
    beta = beta - math.pi / 2 * math.floor((beta + math.pi / 4) / (math.pi / 2))
    if beta <= -math.pi / 4:  # guard the half-open interval against rounding
        beta += math.pi / 2
    return alpha, beta


# -- energy measurement schedules ------------------------------------------------


def _pauli_sum(state: StateVector, terms) -> float:
    """Exact sum of c * <P> over weighted Pauli terms."""
    return sum(c * expectation_pauli(state, p) for c, p in terms)


def measure_energy(circuit: Circuit, h: FermionHamiltonian, shots: int, seed: int = 0) -> EnergyEstimate:
    """Energy of the circuit's output state under h, via measurement schedules.

    shots = 0 evaluates exact expectations.  Otherwise one computational-basis run
    covers every repulsion (the |11> population of each site's qubit pair) and
    chemical shift; each hopping bond runs the two-qubit diagonalization circuit
    when its modes are JW-adjacent and the two string-removed parity bases when
    they are not.  Each run uses `shots` samples with a seed derived per run.
    """
    if shots < 0:
        raise ValueError("shots must be >= 0")
    state = simulate(circuit)
    if shots == 0:
        hop_terms, int_terms = split_pauli_terms(h)
        e_hop, e_int = _pauli_sum(state, hop_terms), _pauli_sum(state, int_terms)
        return EnergyEstimate(e_hop + e_int, 0.0, 0, e_hop, e_int)

    seeds = np.random.SeedSequence(seed).generate_state(1 + 2 * 2 * len(h.hoppings))
    run = 0

    # run 0: computational basis for repulsions and shifts
    counts = sample_counts(state, tuple(range(h.n_modes)), shots, int(seeds[run]))
    run += 1
    e_int = 0.0
    var_int = 0.0
    for rep in h.repulsions:
        a, b = h.mode_of(rep.site, "up"), h.mode_of(rep.site, "down")
        p11 = sum(c for key, c in counts.items() if key[a] == "1" and key[b] == "1") / shots
        e_int += rep.strength * p11
        var_int += (rep.strength * shot_stderr(p11, shots, p11)) ** 2
    for sh in h.shifts:
        for spin in ("up", "down"):
            q = h.mode_of(sh.site, spin)
            p1 = sum(c for key, c in counts.items() if key[q] == "1") / shots
            e_int += sh.value * p1
            var_int += (sh.value * shot_stderr(p1, shots, p1)) ** 2

    e_hop = 0.0
    var_hop = 0.0
    for hop in h.hoppings:
        for spin in ("up", "down"):
            m, n = sorted((h.mode_of(hop.i, spin), h.mode_of(hop.j, spin)))
            if n == m + 1:
                basis = measurement_basis_circuit("horizontal_hop", m, n, h.n_modes)
                rotated = simulate(basis, state)
                c2 = sample_counts(rotated, (m, n), shots, int(seeds[run]))
                run += 1
                mean, err = horizontal_hop_value(c2)
                e_hop += hop.amplitude * mean
                var_hop += (hop.amplitude * err) ** 2
            else:
                mean = 0.0
                var = 0.0
                for kind in ("yx_pair", "xy_pair"):
                    basis = measurement_basis_circuit(kind, m, n, h.n_modes)
                    rotated = simulate(basis, state)
                    c2 = sample_counts(rotated, (m, n), shots, int(seeds[run]))
                    run += 1
                    parity = parity_expectation(c2, shots)
                    mean += 0.5 * parity
                    var += 0.25 * shot_stderr(parity, shots) ** 2
                e_hop += hop.amplitude * mean
                var_hop += (hop.amplitude ** 2) * var

    return EnergyEstimate(
        e_hop + e_int, math.sqrt(var_hop + var_int), shots, e_hop, e_int
    )


def measure_dimer_energy(params: VhaParams, t: float, u: float, shots: int, seed: int = 0) -> EnergyEstimate:
    return measure_energy(vha_circuit(params), FermionHamiltonian.dimer(t, u), shots, seed)


# -- landscape and optimization ----------------------------------------------------


@dataclass(frozen=True)
class LandscapePoint:
    alpha: float
    beta: float
    energy: float
    stderr: float


@dataclass(frozen=True)
class LandscapeResult:
    points: tuple[LandscapePoint, ...]
    best: LandscapePoint

    def as_rows(self):
        return [(p.alpha, p.beta, p.energy, p.stderr) for p in self.points]


def landscape_sweep(
    t: float,
    u: float,
    alphas,
    betas,
    shots: int = 0,
    seed: int = 0,
) -> LandscapeResult:
    """Energy at every (alpha, beta) grid point, row-major over alphas x betas."""
    alphas = np.asarray(alphas, dtype=float)
    betas = np.asarray(betas, dtype=float)
    if alphas.size == 0 or betas.size == 0:
        raise ValueError("empty grid")
    h = FermionHamiltonian.dimer(t, u)
    hop_terms, int_terms = split_pauli_terms(h)
    points = []
    best = None
    seeds = np.random.SeedSequence(seed).generate_state(alphas.size * betas.size)
    k = 0
    for a in alphas:
        for b in betas:
            if shots == 0:
                state = vha_state(VhaParams.single(float(a), float(b)))
                energy = _pauli_sum(state, hop_terms) + _pauli_sum(state, int_terms)
                pt = LandscapePoint(float(a), float(b), energy, 0.0)
            else:
                est = measure_dimer_energy(VhaParams.single(float(a), float(b)), t, u, shots, int(seeds[k]))
                pt = LandscapePoint(float(a), float(b), est.value, est.stderr)
            k += 1
            points.append(pt)
            if best is None or pt.energy < best.energy:
                best = pt
    return LandscapeResult(tuple(points), best)


@dataclass(frozen=True)
class OptimizeResult:
    params: VhaParams
    energy: float
    trace: tuple[float, ...]
    evaluations: int


def optimize(
    t: float,
    u: float,
    initial: VhaParams | None = None,
    budget: int = 400,
    shots: int = 0,
    seed: int = 0,
) -> OptimizeResult:
    """Coarse grid seed then coordinate descent; deterministic for a given seed.

    Best-so-far is returned when the evaluation budget runs out; the recorded
    best-energy trace is monotone non-increasing by construction.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    seeds = iter(np.random.SeedSequence(seed).generate_state(max(budget, 1)))
    terms = hamiltonian_pauli_terms(FermionHamiltonian.dimer(t, u))
    evals = 0
    trace: list[float] = []

    def energy(a: float, b: float) -> float:
        nonlocal evals
        evals += 1
        if shots:
            return measure_dimer_energy(VhaParams.single(a, b), t, u, shots, int(next(seeds))).value
        return _pauli_sum(vha_state(VhaParams.single(a, b)), terms)

    best_a, best_b = (initial.layers[0] if initial is not None else (0.0, 0.0))
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
    return OptimizeResult(VhaParams.single(best_a, best_b), best_e, tuple(trace), evals)


def _wrap_angle(a: float) -> float:
    while a <= -TWO_PI:
        a += 2 * TWO_PI
    while a > TWO_PI:
        a -= 2 * TWO_PI
    return a
