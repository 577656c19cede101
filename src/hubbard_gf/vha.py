"""Variational Hamiltonian ansatz for the dimer: state prep, energy measurement, landscape sweep.

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
    dimer_hopping_layer,
    dimer_interaction_step,
    hop_basis_circuit,
    horizontal_hop_value,
    simulate,
)
from .model import FermionHamiltonian
from .oracle import split_pauli_terms
from .statevector import (
    MAX_QUBITS,
    GateOp,
    apply_matrix_inplace,
    child_seeds,
    expectation_pauli,
    gate_matrix,
    marginal_probs,
    multinomial_counts,
    shot_stderr,
)

TWO_PI = 2 * math.pi


@dataclass(frozen=True)
class VhaParams:
    """The dimer ansatz's one angle pair: interaction angle alpha, hopping angle beta."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (-TWO_PI < self.alpha <= TWO_PI and -TWO_PI < self.beta <= TWO_PI):
            raise ValueError(f"angles must lie in (-2pi, 2pi], got {(self.alpha, self.beta)}")


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
    return Circuit(4, tuple(gates))


def vha_layer(params: VhaParams) -> Circuit:
    """The ansatz layer: interaction(alpha), then hopping(beta)."""
    return dimer_interaction_step(params.alpha) + dimer_hopping_layer(params.beta)


def vha_circuit(params: VhaParams) -> Circuit:
    """Slater prep followed by the layer."""
    return slater_prep_circuit() + vha_layer(params)


def vha_state(params: VhaParams) -> np.ndarray:
    return simulate(vha_circuit(params))


def variational_energy_formula(t: float, u: float, alpha: float, beta: float) -> float:
    """Closed-form single-layer dimer energy."""
    return -2 * t * math.cos(alpha / 2) - (u / 4) * (1 - math.sin(alpha / 2) * math.sin(4 * beta))


def optimal_angles(t: float, u: float) -> tuple[float, float]:
    """Minimizer of the closed form: alpha* = -2 atan(U / 8t), beta* = pi/8.

    atan2(u / 8, t) rather than atan2(u, 8 t): 8 t overflows for |t| above 2.2e307.
    """
    return -2 * math.atan2(u / 8, t), math.pi / 8


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
    """Exact sum of c * <P> over weighted Pauli terms, for every row of a state batch."""
    total = np.zeros(len(amps))
    for c, p in terms:
        for lo in range(0, len(amps), _BLOCK_ROWS):
            total[lo : lo + _BLOCK_ROWS] += c * expectation_pauli(amps[lo : lo + _BLOCK_ROWS], p)
    return total


def _hop_pairs(h: FermionHamiltonian) -> list[tuple[float, int, int]]:
    """(amplitude, m, n) per hopping bond and spin, in measurement order, m < n.

    Each bond runs the two-qubit diagonalization circuit, so its mode qubits must
    be JW-adjacent; any other bond is refused, whether or not shots are drawn.
    """
    pairs = []
    for hop in h.hoppings:
        for spin in ("up", "down"):
            m, n = sorted((h.mode_of(hop.i, spin), h.mode_of(hop.j, spin)))
            if n != m + 1:
                raise ValueError(f"hopping bond ({hop.i}, {hop.j}) maps to non-adjacent modes {m} and {n}")
            pairs.append((hop.amplitude, m, n))
    return pairs


def _energy_estimates(amps: np.ndarray, h: FermionHamiltonian, shots: int, seeds):
    """Arrays (value, stderr, hopping, interaction) over the rows of a (batch, 2^n) state array.

    shots = 0 evaluates exact expectations.  Otherwise one computational-basis
    run covers every repulsion (the |11> population of each site's qubit pair)
    and chemical shift, and each hopping bond runs the two-qubit diagonalization
    circuit.  Each run rotates and marginalizes the batch once; row k draws
    `shots` samples per run, one multinomial each, run r seeded by child r of
    seeds[k] (statevector.child_seeds).  The estimators are array arithmetic in
    a one-row batch's operation order.  A bond whose modes are not JW-adjacent
    is refused in either mode.
    """
    if shots < 0:
        raise ValueError("shots must be >= 0")
    pairs = _hop_pairs(h)
    if shots == 0:
        e_hop, e_int = (_pauli_sum(amps, terms) for terms in split_pauli_terms(h))
        return e_hop + e_int, np.zeros(len(amps)), e_hop, e_int
    n = h.n_modes
    runs = [(amps, tuple(range(n)))]
    runs += [(simulate(hop_basis_circuit(a, b, n), amps), (a, b)) for _, a, b in pairs]
    probs = [marginal_probs(batch, qubits) for batch, qubits in runs]
    probs = [p / p.sum(axis=1, keepdims=True) for p in probs]
    counts = [np.empty(p.shape, dtype=np.int64) for p in probs]
    for k, seed in enumerate(seeds):
        for c, p, s in zip(counts, probs, child_seeds(seed, len(probs))):
            c[k] = multinomial_counts(p[k], shots, s)
    # float_power is libm pow, as float ** 2 is on one point; ndarray ** 2 is
    # x * x, which rounds differently about once in a thousand squares
    e_int, var_int, e_hop, var_hop = (np.zeros(len(amps)) for _ in range(4))
    j = np.arange(1 << n)  # computational outcomes: site pairs in |11>, occupied modes
    occupied = [(r.strength, j >> h.mode_of(r.site, "up") & j >> h.mode_of(r.site, "down"))
                for r in h.repulsions]
    occupied += [(sh.value, j >> h.mode_of(sh.site, spin)) for sh in h.shifts for spin in ("up", "down")]
    for weight, bits in occupied:
        p1 = counts[0][:, bits & 1 == 1].sum(axis=1) / shots
        e_int += weight * p1
        var_int += np.float_power(weight * shot_stderr(p1, shots, p1), 2)
    for (amplitude, _, _), hop_counts in zip(pairs, counts[1:]):
        mean, err = horizontal_hop_value(hop_counts)
        e_hop += amplitude * mean
        var_hop += np.float_power(amplitude * err, 2)
    return e_hop + e_int, np.sqrt(var_hop + var_int), e_hop, e_int


def measure_energy(circuit: Circuit, h: FermionHamiltonian, shots: int, seed: int = 0) -> EnergyEstimate:
    """Energy of the circuit's output state under h: the one-row batch of _energy_estimates."""
    _hop_pairs(h)  # a bond the schedule cannot measure is refused before the circuit runs
    state = simulate(circuit)[None]
    value, stderr, hopping, interaction = (float(x[0]) for x in _energy_estimates(state, h, shots, (seed,)))
    return EnergyEstimate(value, stderr, shots, hopping, interaction)


# -- landscape --------------------------------------------------------------------


@dataclass(frozen=True)
class LandscapePoint:
    alpha: float
    beta: float
    energy: float
    stderr: float


@dataclass(frozen=True, eq=False)
class LandscapeResult:
    """Energies and stderrs on the alphas x betas grid, arrays of shape (len(alphas), len(betas))."""

    alphas: np.ndarray
    betas: np.ndarray
    energies: np.ndarray
    stderrs: np.ndarray

    @property
    def best(self) -> LandscapePoint:
        """The first grid point, row-major, with the lowest energy."""
        i, j = np.unravel_index(np.argmin(self.energies), self.energies.shape)
        values = (self.alphas[i], self.betas[j], self.energies[i, j], self.stderrs[i, j])
        return LandscapePoint(*map(float, values))


MAX_GRID_POINTS = (1 << MAX_QUBITS) >> 4  # a sweep's state batch holds 2^4 amplitudes per point


def _run_per_angle(circuits: list[Circuit], amps: np.ndarray) -> None:
    """Run circuits[k] on amps[k] for every k at once, in place.

    The circuits share one gate sequence and differ only in angles; each gate
    is applied once, as the stack of its per-circuit matrices (phases, for GPHASE).
    """
    n = circuits[0].n_qubits
    for gates in zip(*(c.gates for c in circuits)):
        if gates[0].kind == "GPHASE":
            amps *= np.exp(1j * np.array([g.angle for g in gates])).reshape((-1,) + (1,) * (amps.ndim - 1))
        else:
            apply_matrix_inplace(amps, np.array([gate_matrix(g) for g in gates]), gates[0].targets, n)


def landscape_sweep(t: float, u: float, alphas, betas, shots: int = 0, seed: int = 0) -> LandscapeResult:
    """Energy at every (alpha, beta) grid point, as arrays over alphas x betas.

    The grid is one state batch: the Slater state is simulated once, every
    alpha's interaction block and every beta's 16x16 hopping-layer unitary are
    built gate by gate on the whole stack of angles, and one einsum applies
    every layer to every prefix.  Shot-mode point k (row-major) draws from child k
    of the seed (statevector.child_seeds); an exact sweep derives no seeds.  Grids
    past MAX_GRID_POINTS are refused, and so are t and U whose energies, energy
    range or stderrs overflow the float range.
    """
    alphas = np.asarray(alphas, dtype=float)
    betas = np.asarray(betas, dtype=float)
    if alphas.size == 0 or betas.size == 0:
        raise ValueError("empty grid")
    n_points = alphas.size * betas.size
    if n_points > MAX_GRID_POINTS:
        raise ValueError(f"{n_points} grid points exceed dense capacity {MAX_GRID_POINTS}")
    prefixes = np.repeat(simulate(slater_prep_circuit())[None], alphas.size, axis=0)
    _run_per_angle([dimer_interaction_step(a) for a in alphas.tolist()], prefixes)
    layers = np.repeat(np.eye(16, dtype=complex)[None], betas.size, axis=0)
    _run_per_angle([dimer_hopping_layer(b) for b in betas.tolist()], layers.transpose(0, 2, 1))
    seeds = child_seeds(seed, n_points) if shots else ()
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        energies, stderrs, _, _ = _energy_estimates(
            np.einsum("bij,aj->abi", layers, prefixes).reshape(n_points, -1),
            FermionHamiltonian.dimer(t, u), shots, seeds,
        )
        span = energies.max() - energies.min()
    if not (np.isfinite(span) and np.isfinite(stderrs).all()):
        raise ValueError(f"the energies at t={t}, U={u} overflow the float range")
    shape = (alphas.size, betas.size)
    return LandscapeResult(alphas, betas, energies.reshape(shape), stderrs.reshape(shape))
