"""Circuit container and builders for Hubbard Trotter steps and measurement bases.

Builders are phase-exact: every composed unitary equals the matrix exponential of
its generator (a GPHASE bookkeeping gate absorbs what would otherwise be a global
phase), which keeps the dense oracles in the tests strict.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pauli import PauliString, jw_string_remover
from .statevector import MAX_QUBITS, GateOp, apply_gate_inplace, basis_state, shot_stderr


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list on a register of n_qubits."""

    n_qubits: int
    gates: tuple[GateOp, ...] = ()

    def __post_init__(self):
        for g in self.gates:
            for t in g.targets:
                if not 0 <= t < self.n_qubits:
                    raise ValueError(f"gate {g.kind}{g.targets} exceeds {self.n_qubits} qubits")

    def __add__(self, other: "Circuit") -> "Circuit":
        if other.n_qubits != self.n_qubits:
            raise ValueError("cannot concatenate circuits of different widths")
        return Circuit(self.n_qubits, self.gates + other.gates)

    def text_dump(self) -> str:
        """One gate per line: NAME[(angle)] targets."""
        lines = []
        for g in self.gates:
            ang = f"({g.angle:.12g})" if g.angle is not None else ""
            tgt = (" " + " ".join(str(t) for t in g.targets)) if g.targets else ""
            lines.append(f"{g.kind}{ang}{tgt}")
        return "\n".join(lines) + "\n"


def simulate(circuit: Circuit, initial: np.ndarray | None = None) -> np.ndarray:
    """Run the circuit on |0...0> or on a copy of the given amplitudes; leading axes
    of initial are a batch, each row run as it would be alone."""
    state = basis_state(circuit.n_qubits) if initial is None else np.array(initial, dtype=complex)
    if state.shape[-1] != 1 << circuit.n_qubits:
        raise ValueError("initial state width does not match circuit")
    for g in circuit.gates:
        apply_gate_inplace(state, g, circuit.n_qubits)
    return state


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Dense unitary of the whole circuit (<= 10 qubits): the noiseless Trotter step's
    fused matrix, and oracle use."""
    if circuit.n_qubits > 10:
        raise ValueError("circuit_unitary limited to 10 qubits")
    dim = 1 << circuit.n_qubits
    cols = np.eye(dim, dtype=complex)
    for g in circuit.gates:
        apply_gate_inplace(cols.T, g, circuit.n_qubits)  # trailing axis = state index
    return cols


@dataclass(frozen=True)
class TrotterPlan:
    """First-order splitting: `steps` slices of duration dtau, interaction before hopping."""

    dtau: float
    steps: int

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.steps >= 1 << MAX_QUBITS:  # the time grid's steps + 1 points stay in the dense budget
            raise ValueError(f"steps must be < 2**{MAX_QUBITS}, got {self.steps}")
        if not self.dtau > 0:
            raise ValueError("dtau must be positive")
        if not math.isfinite(self.steps * self.dtau):
            raise ValueError(f"steps * dtau must be finite, got {self.steps} * {self.dtau}")


# -- elementary blocks ---------------------------------------------------------


def _zz_rotation(m: int, n: int, theta: float) -> list[GateOp]:
    # exp(-i theta/2 Z_m Z_n), exactly
    return [GateOp("CNOT", (m, n)), GateOp("RZ", (n,), theta), GateOp("CNOT", (m, n))]


def hopping_pair_block(m: int, n: int, theta: float, n_qubits: int) -> Circuit:
    """exp(-i theta (X_m X_n + Y_m Y_n)/2) for string-free qubit pairs."""
    gates = [GateOp("H", (m,)), GateOp("H", (n,))]
    gates += _zz_rotation(m, n, theta)
    gates += [GateOp("H", (m,)), GateOp("H", (n,))]
    gates += [GateOp("XHALF", (m,)), GateOp("XHALF", (n,))]
    gates += _zz_rotation(m, n, theta)
    gates += [GateOp("XHALF_DG", (m,)), GateOp("XHALF_DG", (n,))]
    return Circuit(n_qubits, tuple(gates))


def hopping_step(i: int, j: int, sigma: str, theta: float, n_sites: int) -> Circuit:
    """One Trotter slice exp(-i theta h) of the hopping term h = c^dag_i c_j + h.c.

    Site-major Jordan-Wigner ordering (1-based sites); the Z string between the
    two mode qubits is removed by the CZ-fan similarity transform, then the XX
    and YY halves run as basis-changed ZZ rotations with the full angle theta.
    """
    if i == j:
        raise ValueError("hopping needs two distinct sites")
    for s in (i, j):
        if not 1 <= s <= n_sites:
            raise ValueError(f"site {s} out of range for {n_sites} sites")
    off = 0 if sigma == "up" else 1
    m, n = sorted((2 * (i - 1) + off, 2 * (j - 1) + off))
    remover = tuple(jw_string_remover(m, n))
    return Circuit(2 * n_sites, remover + hopping_pair_block(m, n, theta, 2 * n_sites).gates + remover)


def repulsion_step(i: int, theta: float, n_sites: int) -> Circuit:
    """exp(-i theta n_up n_dn) on site i (1-based), site-major ordering."""
    if not 1 <= i <= n_sites:
        raise ValueError(f"site {i} out of range for {n_sites} sites")
    a, b = 2 * (i - 1), 2 * i - 1
    gates = [
        GateOp("GPHASE", (), -theta / 4),
        GateOp("RZ", (a,), -theta / 2),
        GateOp("RZ", (b,), -theta / 2),
        *_zz_rotation(a, b, theta / 2),
    ]
    return Circuit(2 * n_sites, tuple(gates))


DIMER_QUBITS = {"c_up": 0, "b_up": 1, "c_dn": 2, "b_dn": 3}


def dimer_interaction_step(theta: float) -> Circuit:
    """exp(-i theta/4 (Z_0 Z_2 - 1)): the (U/2)(n_c^2 - 2 n_c) slice with theta = U dtau.

    Printed as the phase theta/4 (GPHASE) and the CNOT-conjugated rotation
    exp(-i theta/4 Z_0 Z_2).
    """
    a, b = DIMER_QUBITS["c_up"], DIMER_QUBITS["c_dn"]
    return Circuit(4, (GateOp("GPHASE", (), theta / 4), *_zz_rotation(a, b, theta / 2)))


def dimer_hopping_layer(beta: float) -> Circuit:
    """Both spins' hopping pair blocks with angle beta: the hopping half of a dimer layer."""
    return hopping_pair_block(0, 1, beta, 4) + hopping_pair_block(2, 3, beta, 4)


def dimer_trotter_step(t: float, u: float, dtau: float) -> Circuit:
    """One dimer Trotter slice: interaction with angle U*dtau, then both hopping
    pairs with angle -t*dtau (the variational layer reused as an evolution step)."""
    return dimer_interaction_step(u * dtau) + dimer_hopping_layer(-t * dtau)


# -- measurement bases ----------------------------------------------------------


def hop_basis_circuit(m: int, n: int, n_qubits: int) -> Circuit:
    """Pre-measurement unitary that diagonalizes (X_m X_n + Y_m Y_n)/2 for JW-adjacent
    modes m < n into the difference of the |m=1,n=0> and |m=0,n=1> populations; see
    horizontal_hop_value."""
    if m >= n:
        raise ValueError(f"need m < n, got ({m}, {n})")
    return Circuit(n_qubits, (GateOp("CNOT", (n, m)), GateOp("H", (n,)), GateOp("CNOT", (n, m))))


def horizontal_hop_value(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Estimate of (X_m X_n + Y_m Y_n)/2 and its stderr from counts sampled over qubits (m, n).

    Entries follow sample_counts: bit 0 of the outcome index is qubit m, bit 1 is n.
    Value is P(m=1, n=0) - P(m=0, n=1); the 00 and 11 outcomes carry weight zero.
    The histogram is the trailing axis of counts; leading axes are a batch.
    """
    shots = counts.sum(axis=-1)
    p_plus = counts[..., 1] / shots
    p_minus = counts[..., 2] / shots
    mean = p_plus - p_minus
    return mean, shot_stderr(mean, shots, p_plus + p_minus)


# -- Pauli-string gadgets --------------------------------------------------------


def letter_basis_gates(p: PauliString) -> tuple[list[GateOp], list[GateOp]]:
    """(pre, post): the gates that turn each letter of p into Z (H for X, XHALF for Y), and back."""
    pre, post = [], []
    for q in p.support:
        letter = p.letter_at(q)
        if letter == "X":
            pre.append(GateOp("H", (q,)))
            post.append(GateOp("H", (q,)))
        elif letter == "Y":
            pre.append(GateOp("XHALF", (q,)))
            post.append(GateOp("XHALF_DG", (q,)))
    return pre, post


def pauli_rotation_gates(p: PauliString, theta: float) -> list[GateOp]:
    """Gate-level exp(-i theta/2 P): basis changes, CNOT chain, one Z rotation.

    The string's +-1 phase is folded into the rotation angle (imaginary phases
    are not rotations and are rejected).
    """
    if not p.is_hermitian:
        raise ValueError(f"rotation generator must be Hermitian, got {p.label}")
    support = p.support
    if not support:
        return [GateOp("GPHASE", (), -theta / 2 * (1 if p.phase_exp == 0 else -1))]
    angle = theta if p.phase_exp == 0 else -theta
    pre, post = letter_basis_gates(p)
    chain = [GateOp("CNOT", (a, b)) for a, b in zip(support, support[1:])]
    return pre + chain + [GateOp("RZ", (support[-1],), angle)] + chain[::-1] + post

