"""Variational Hamiltonian ansatz for the dimer: state prep, energy measurement, optimization.

The single-layer ansatz applies the interaction block with angle alpha first, then
the hopping blocks with angle beta, on top of a Slater-determinant trial state.
That order is what makes the closed-form variational energy
E(alpha, beta) = -2t cos(alpha/2) - (U/4)(1 - sin(alpha/2) sin(4 beta)) come out.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .circuit import (
    Circuit,
    circuit_unitary,
    dimer_hopping_layer,
    dimer_interaction_step,
    horizontal_hop_value,
    measurement_basis_circuit,
    simulate,
)
from .model import FermionHamiltonian
from .oracle import hamiltonian_pauli_terms, split_pauli_terms
from .statevector import (
    GateOp,
    StateVector,
    _pauli_action,  # shared kernel plumbing
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


@dataclass(frozen=True, slots=True)  # a landscape sweep builds one per grid point
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
        circ = (circ + dimer_interaction_step(alpha) + dimer_hopping_layer(beta)).with_barrier("layer")
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


_BLOCK_ROWS = 1024  # bounds the temporaries _pauli_sum allocates per term


def _pauli_sum(amps: np.ndarray, terms) -> np.ndarray:
    """Exact sum of c * <P> over weighted Pauli terms, for every row of a state batch.

    Each row gets expectation_pauli's checks: the strings must be Hermitian and
    an imaginary residue above 1e-10 is an error.
    """
    total = np.zeros(len(amps))
    vals = np.empty(len(amps), dtype=complex)
    for c, p in terms:
        if not p.is_hermitian:
            raise ValueError(f"expectation needs a Hermitian string, got {p.label}")
        if amps.shape[-1] != 1 << p.width:
            raise ValueError(f"width mismatch: string {p.width}, state {amps.shape[-1]} amplitudes")
        perm, coef = _pauli_action(p)  # (P s)[perm] = coef * s
        for lo in range(0, len(amps), _BLOCK_ROWS):
            rows = amps[lo : lo + _BLOCK_ROWS]
            vals[lo : lo + _BLOCK_ROWS] = np.einsum("bi,i,bi->b", rows[:, perm].conj(), coef, rows)
        bad = np.abs(vals.imag) > 1e-10
        if bad.any():
            raise ValueError(f"expectation came out complex: {vals[bad][0]}")
        total += c * vals.real
    return total


def _hop_bases(h: FermionHamiltonian):
    """(amplitude, m, n, basis kinds) per hopping bond and spin, in measurement order.

    A bond whose mode qubits are JW-adjacent runs the two-qubit diagonalization
    circuit; otherwise it runs the two string-removed parity bases.
    """
    for hop in h.hoppings:
        for spin in ("up", "down"):
            m, n = sorted((h.mode_of(hop.i, spin), h.mode_of(hop.j, spin)))
            kinds = ("horizontal_hop",) if n == m + 1 else ("yx_pair", "xy_pair")
            yield hop.amplitude, m, n, kinds


def _shot_estimate(h: FermionHamiltonian, counts, shots: int) -> EnergyEstimate:
    """Energy from one state's run histograms, given in measurement order."""
    counts = iter(counts)
    comp = next(counts).tolist()  # computational basis: repulsions and shifts
    e_int = 0.0
    var_int = 0.0
    for rep in h.repulsions:
        a, b = h.mode_of(rep.site, "up"), h.mode_of(rep.site, "down")
        p11 = sum(c for j, c in enumerate(comp) if (j >> a) & (j >> b) & 1) / shots
        e_int += rep.strength * p11
        var_int += (rep.strength * shot_stderr(p11, shots, p11)) ** 2
    for sh in h.shifts:
        for spin in ("up", "down"):
            q = h.mode_of(sh.site, spin)
            p1 = sum(c for j, c in enumerate(comp) if (j >> q) & 1) / shots
            e_int += sh.value * p1
            var_int += (sh.value * shot_stderr(p1, shots, p1)) ** 2

    e_hop = 0.0
    var_hop = 0.0
    for amplitude, _, _, kinds in _hop_bases(h):
        if kinds == ("horizontal_hop",):
            mean, err = horizontal_hop_value(next(counts))
            e_hop += amplitude * mean
            var_hop += (amplitude * err) ** 2
        else:
            mean = 0.0
            var = 0.0
            for _ in kinds:
                parity = parity_expectation(next(counts), shots)
                mean += 0.5 * parity
                var += 0.25 * shot_stderr(parity, shots) ** 2
            e_hop += amplitude * mean
            var_hop += (amplitude ** 2) * var

    return EnergyEstimate(
        e_hop + e_int, math.sqrt(var_hop + var_int), shots, e_hop, e_int
    )


def _energy_estimates(amps: np.ndarray, h: FermionHamiltonian, shots: int, seeds) -> list[EnergyEstimate]:
    """Energy of every row of a (batch, 2^n) state array under h.

    shots = 0 evaluates exact expectations.  Otherwise each measurement basis
    rotates the whole batch once, and row k draws `shots` samples per run, its
    run seeds derived from SeedSequence(seeds[k]).
    """
    if shots < 0:
        raise ValueError("shots must be >= 0")
    if shots == 0:
        hop_terms, int_terms = split_pauli_terms(h)
        e_hop, e_int = _pauli_sum(amps, hop_terms), _pauli_sum(amps, int_terms)
        return [EnergyEstimate(a + b, 0.0, 0, a, b) for a, b in zip(e_hop.tolist(), e_int.tolist())]
    n = h.n_modes
    runs = [(amps, tuple(range(n)))]
    for _, a, b, kinds in _hop_bases(h):
        for kind in kinds:
            basis = measurement_basis_circuit(kind, a, b, n)
            runs.append((simulate(basis, StateVector(amps, n)).amps, (a, b)))
    estimates = []
    for k, seed in enumerate(seeds):
        run_seeds = np.random.SeedSequence(int(seed)).generate_state(len(runs))
        counts = [
            sample_counts(StateVector(batch[k], n), qubits, shots, int(s))
            for (batch, qubits), s in zip(runs, run_seeds)
        ]
        estimates.append(_shot_estimate(h, counts, shots))
    return estimates


def measure_energy(circuit: Circuit, h: FermionHamiltonian, shots: int, seed: int = 0) -> EnergyEstimate:
    """Energy of the circuit's output state under h, via measurement schedules.

    shots = 0 evaluates exact expectations.  Otherwise one computational-basis run
    covers every repulsion (the |11> population of each site's qubit pair) and
    chemical shift; each hopping bond runs the two-qubit diagonalization circuit
    when its modes are JW-adjacent and the two string-removed parity bases when
    they are not.  Each run uses `shots` samples with a seed derived per run.
    """
    return _energy_estimates(simulate(circuit).amps[None], h, shots, (seed,))[0]


def measure_dimer_energy(params: VhaParams, t: float, u: float, shots: int, seed: int = 0) -> EnergyEstimate:
    return measure_energy(vha_circuit(params), FermionHamiltonian.dimer(t, u), shots, seed)


# -- landscape and optimization ----------------------------------------------------


@dataclass(frozen=True, slots=True)  # a landscape holds one per grid point
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
    """Energy at every (alpha, beta) grid point, row-major over alphas x betas.

    The grid is one state batch: each alpha's prefix (Slater prep, interaction
    block) is simulated once, each beta's hopping layer is fused into one dense
    unitary, and a single einsum applies every layer to every prefix.  Shot-mode
    point k draws from the k-th seed of SeedSequence(seed).
    """
    alphas = np.asarray(alphas, dtype=float)
    betas = np.asarray(betas, dtype=float)
    if alphas.size == 0 or betas.size == 0:
        raise ValueError("empty grid")
    prefixes = np.array(
        [simulate(slater_prep_circuit() + dimer_interaction_step(float(a))).amps for a in alphas]
    )
    layers = np.array([circuit_unitary(dimer_hopping_layer(float(b))) for b in betas])
    seeds = np.random.SeedSequence(seed).generate_state(alphas.size * betas.size)
    # the state batch is freed once the estimates exist, before the points are built
    estimates = _energy_estimates(
        np.einsum("bij,aj->abi", layers, prefixes).reshape(len(seeds), -1),
        FermionHamiltonian.dimer(t, u), shots, seeds,
    )
    points = tuple(
        LandscapePoint(a, b, est.value, est.stderr)
        for (a, b), est in zip(itertools.product(alphas.tolist(), betas.tolist()), estimates)
    )
    return LandscapeResult(points, min(points, key=lambda p: p.energy))


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
        return float(_pauli_sum(vha_state(VhaParams.single(a, b)).amps[None], terms)[0])

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
