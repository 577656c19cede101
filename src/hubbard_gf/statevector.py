"""Dense statevector simulation: gate kernels, Pauli rotations, expectations, sampling.

Amplitudes are indexed so that bit q of the basis index is the value of qubit q
(qubit 0 = least significant).  Gate kernels operate on a trailing axis of
length 2^n, so a leading batch axis broadcasts (the VHA landscape is such a
batch), and they keep the array's dtype.  `apply_matrix_inplace` multiplies a
dense matrix into any set of bits of one vector; the noise module runs its
vectorized density matrices through it.  Capacity is dense double precision up
to 24 qubits.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .pauli import PauliString

MAX_QUBITS = 24


# -- gate matrices (paper-table conventions) ---------------------------------

_SQ2 = 1.0 / np.sqrt(2.0)

_FIXED_1Q = {
    "H": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "XHALF": np.array([[_SQ2, -1j * _SQ2], [-1j * _SQ2, _SQ2]], dtype=complex),
    "XHALF_DG": np.array([[_SQ2, 1j * _SQ2], [1j * _SQ2, _SQ2]], dtype=complex),
}

ONE_QUBIT_KINDS = tuple(_FIXED_1Q) + ("RZ", "PHASE", "U1", "DELAY")
TWO_QUBIT_KINDS = ("CNOT", "CZ", "CY", "CPHASE", "U2")
ZERO_QUBIT_KINDS = ("GPHASE",)  # bookkeeping gate so builders are phase-exact


@dataclass(frozen=True)
class GateOp:
    """One gate application: named kind, target qubits, optional angle or raw matrix."""

    kind: str
    targets: tuple[int, ...]
    angle: float | None = None
    matrix: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.kind in ONE_QUBIT_KINDS:
            n_targets = 1
        elif self.kind in TWO_QUBIT_KINDS:
            n_targets = 2
        elif self.kind in ZERO_QUBIT_KINDS:
            n_targets = 0
        else:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if len(self.targets) != n_targets:
            raise ValueError(f"{self.kind} takes {n_targets} target(s), got {self.targets}")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError(f"duplicate targets in {self.kind}{self.targets}")
        if self.kind in ("RZ", "PHASE", "CPHASE", "GPHASE", "DELAY") and self.angle is None:
            raise ValueError(f"{self.kind} needs an angle")
        if self.kind in ("U1", "U2") and self.matrix is None:
            raise ValueError(f"{self.kind} needs a matrix")


def gate_matrix(g: GateOp) -> np.ndarray:
    """Dense matrix of the gate on its own targets (bit 0 of the index = first target)."""
    if g.kind in _FIXED_1Q:
        return _FIXED_1Q[g.kind]
    if g.kind == "GPHASE":
        return np.array([[np.exp(1j * g.angle)]], dtype=complex)
    if g.kind == "DELAY":  # identity placeholder; the angle is a duration in seconds
        return np.eye(2, dtype=complex)
    if g.kind == "RZ":
        return np.diag([np.exp(-1j * g.angle / 2), np.exp(1j * g.angle / 2)]).astype(complex)
    if g.kind == "PHASE":
        return np.diag([1.0, np.exp(1j * g.angle)]).astype(complex)
    if g.kind == "U1":
        return np.asarray(g.matrix, dtype=complex)
    # two-qubit: index bit0 = targets[0] (control where applicable), bit1 = targets[1]
    if g.kind == "CNOT":
        m = np.eye(4, dtype=complex)
        m[[1, 3]] = m[[3, 1]]
        return m
    if g.kind == "CZ":
        return np.diag([1, 1, 1, -1]).astype(complex)
    if g.kind == "CY":
        m = np.eye(4, dtype=complex)
        m[1, 1] = m[3, 3] = 0
        m[3, 1] = 1j
        m[1, 3] = -1j
        return m
    if g.kind == "CPHASE":
        return np.diag([1, 1, 1, np.exp(1j * g.angle)]).astype(complex)
    return np.asarray(g.matrix, dtype=complex)


def inverse_gate(g: GateOp) -> GateOp:
    """Gate with the inverse unitary (used for circuit folding and uncomputation)."""
    if g.kind in ("H", "X", "Y", "Z", "CNOT", "CZ", "CY", "DELAY"):
        return g
    if g.kind == "XHALF":
        return GateOp("XHALF_DG", g.targets)
    if g.kind == "XHALF_DG":
        return GateOp("XHALF", g.targets)
    if g.kind in ("RZ", "PHASE", "CPHASE", "GPHASE"):
        return GateOp(g.kind, g.targets, -g.angle)
    return GateOp(g.kind, g.targets, matrix=np.asarray(g.matrix).conj().T)


# -- state container ----------------------------------------------------------


@dataclass
class StateVector:
    """Normalized complex amplitudes over 2^n basis states."""

    amps: np.ndarray
    n: int

    @classmethod
    def zero(cls, n: int) -> "StateVector":
        return cls.basis(n, 0)

    @classmethod
    def basis(cls, n: int, index: int) -> "StateVector":
        if n > MAX_QUBITS:
            raise ValueError(f"{n} qubits exceeds dense capacity {MAX_QUBITS}")
        amps = np.zeros(1 << n, dtype=complex)
        amps[index] = 1.0
        return cls(amps, n)

    @classmethod
    def from_amps(cls, amps: np.ndarray) -> "StateVector":
        amps = np.asarray(amps, dtype=complex)
        n = int(np.log2(len(amps)))
        if 1 << n != len(amps):
            raise ValueError("amplitude array length must be a power of two")
        return cls(amps, n)

    def copy(self) -> "StateVector":
        return StateVector(self.amps.copy(), self.n)

    def norm_error(self) -> float:
        return abs(float(np.linalg.norm(self.amps)) - 1.0)

    def fidelity(self, other: "StateVector") -> float:
        return abs(np.vdot(self.amps, other.amps)) ** 2

    def dump_binary(self, path) -> None:
        """Little-endian debug dump: int64 qubit count, then 2^n complex128 amplitudes."""
        with open(path, "wb") as f:
            f.write(struct.pack("<q", self.n))
            f.write(self.amps.astype("<c16").tobytes())

    @classmethod
    def load_binary(cls, path) -> "StateVector":
        with open(path, "rb") as f:
            (n,) = struct.unpack("<q", f.read(8))
            amps = np.frombuffer(f.read(), dtype="<c16").astype(complex)
        if len(amps) != 1 << n:
            raise ValueError("truncated state dump")
        return cls(amps, n)


# -- kernels ------------------------------------------------------------------


def _axis_views(arr: np.ndarray, n: int, qubits: tuple[int, ...]):
    """Reshape so the listed qubits become explicit axes; returns (view, axes)."""
    view = arr.reshape(arr.shape[:-1] + (2,) * n)
    lead = arr.ndim - 1
    axes = tuple(lead + (n - 1 - q) for q in qubits)  # axis of qubit q after reshape
    return view, axes


def _slice(view, axes, values):
    idx = [slice(None)] * view.ndim
    for ax, v in zip(axes, values):
        idx[ax] = slice(v, v + 1)  # keep dims so the result is always a view
    return tuple(idx)


def apply_gate_inplace(arr: np.ndarray, g: GateOp, n: int) -> None:
    """Apply one gate to amplitudes with a trailing 2^n axis, mutating in place.

    Phases and matrices are cast to the array's dtype, so a complex64 batch
    stays complex64 throughout.
    """
    for t in g.targets:
        if not 0 <= t < n:
            raise ValueError(f"target {t} out of range for {n} qubits")
    dt = arr.dtype.type
    if g.kind == "GPHASE":
        arr *= dt(np.exp(1j * g.angle))
        return
    if g.kind == "DELAY":
        return
    if g.kind in ("Z", "RZ", "PHASE"):  # diagonal, stride-free
        view, axes = _axis_views(arr, n, g.targets)
        hi = view[_slice(view, axes, (1,))]
        if g.kind == "Z":
            hi *= -1
        elif g.kind == "RZ":
            view[_slice(view, axes, (0,))] *= dt(np.exp(-1j * g.angle / 2))
            hi *= dt(np.exp(1j * g.angle / 2))
        else:
            hi *= dt(np.exp(1j * g.angle))
        return
    if g.kind == "CZ":
        view, axes = _axis_views(arr, n, g.targets)
        view[_slice(view, axes, (1, 1))] *= -1
        return
    if g.kind == "CPHASE":
        view, axes = _axis_views(arr, n, g.targets)
        view[_slice(view, axes, (1, 1))] *= dt(np.exp(1j * g.angle))
        return
    if g.kind in ("X", "CNOT"):  # swap two half-blocks (control set for CNOT)
        view, axes = _axis_views(arr, n, g.targets)
        ctrl = (1,) if g.kind == "CNOT" else ()
        i0 = _slice(view, axes, ctrl + (0,))
        i1 = _slice(view, axes, ctrl + (1,))
        tmp = view[i0].copy(order="K")
        view[i0] = view[i1]
        view[i1] = tmp
        return
    if g.kind == "CY":
        view, axes = _axis_views(arr, n, g.targets)
        i10 = _slice(view, axes, (1, 0))
        i11 = _slice(view, axes, (1, 1))
        tmp = view[i10].copy(order="K")
        view[i10] = -1j * view[i11]
        view[i11] = 1j * tmp
        return
    m = gate_matrix(g).astype(arr.dtype, copy=False)
    if len(g.targets) == 1:
        view, axes = _axis_views(arr, n, g.targets)
        a0 = view[_slice(view, axes, (0,))]
        a1 = view[_slice(view, axes, (1,))]
        # m00*a0 + m01*a1 and m10*a0 + m11*a1 with the matrix entry first in every
        # product (numpy rounds array*scalar and scalar*array differently)
        new0 = m[0, 0] * a0
        new0 += m[0, 1] * a1
        np.multiply(m[1, 1], a1, out=a1)
        a1 += m[1, 0] * a0
        a0[...] = new0
        return
    view, axes = _axis_views(arr, n, g.targets)
    blocks = [
        view[_slice(view, axes, ((k >> 0) & 1, (k >> 1) & 1))].copy(order="K") for k in range(4)
    ]
    for out_k in range(4):
        acc = m[out_k, 0] * blocks[0]
        for in_k in range(1, 4):
            if m[out_k, in_k] != 0:
                acc = acc + m[out_k, in_k] * blocks[in_k]
        view[_slice(view, axes, ((out_k >> 0) & 1, (out_k >> 1) & 1))] = acc


_GATHER_CACHE: dict[tuple[tuple[int, ...], int], np.ndarray] = {}
_GATHER_CACHE_ELEMENTS = 1 << 24  # cached index entries, summed over keys


def _gather_index(bits: tuple[int, ...], n: int) -> np.ndarray:
    """(2^m, 2^(n-m)) indices into a 2^n vector: row l sets the listed bits to l
    (bit i of l = bits[i]), column c runs over the values of the other bits."""
    key = (bits, n)
    idx = _GATHER_CACHE.get(key)
    if idx is None:
        full = np.arange(1 << n, dtype=np.int64)
        rest = full[(full & sum(1 << b for b in bits)) == 0]
        local = np.arange(1 << len(bits), dtype=np.int64)
        offsets = sum(((local >> i) & 1) << b for i, b in enumerate(bits))
        idx = offsets[:, None] + rest[None, :]
        if sum(a.size for a in _GATHER_CACHE.values()) + idx.size > _GATHER_CACHE_ELEMENTS:
            _GATHER_CACHE.clear()
        _GATHER_CACHE[key] = idx
    return idx


def apply_matrix_inplace(vec: np.ndarray, m: np.ndarray, bits: tuple[int, ...], n: int) -> None:
    """Multiply a dense 2^k x 2^k matrix into k bits of a 2^n vector, in place.

    Bit i of the matrix index is bit bits[i] of the vector index.
    """
    if len(set(bits)) != len(bits) or min(bits) < 0 or max(bits) >= n:
        raise ValueError(f"bits {bits} invalid for a {n}-bit vector")
    idx = _gather_index(tuple(bits), n)
    vec[idx] = m @ vec[idx]


def apply_gate(s: StateVector, g: GateOp) -> StateVector:
    """Pure gate application; returns a new state."""
    out = s.copy()
    apply_gate_inplace(out.amps, g, s.n)
    return out


# -- Pauli application, rotation, expectation ---------------------------------


def _parity(v: np.ndarray) -> np.ndarray:
    v = v.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        v ^= v >> shift
    return v & 1


_PAULI_CACHE: dict[tuple, tuple] = {}


def _pauli_action(p: PauliString) -> tuple[np.ndarray, np.ndarray]:
    """(source index permutation, coefficient array) so that (P s)[perm] = coef * s."""
    key = (p.width, p.xbits, p.zbits, p.phase_exp)
    hit = _PAULI_CACHE.get(key)
    if hit is not None:
        return hit
    dim = 1 << p.width
    idx = np.arange(dim, dtype=np.int64)
    signs = 1.0 - 2.0 * _parity(idx & np.int64(p.zbits))
    canon = (p.phase_exp + (p.xbits & p.zbits).bit_count()) % 4
    coef = (1j ** canon) * signs
    perm = idx ^ np.int64(p.xbits)
    if len(_PAULI_CACHE) > 256:
        _PAULI_CACHE.clear()
    _PAULI_CACHE[key] = (perm, coef)
    return perm, coef


def apply_pauli(s: StateVector, p: PauliString) -> StateVector:
    """Exact application of a Pauli string operator to the state."""
    if p.width != s.n:
        raise ValueError(f"width mismatch: string {p.width}, state {s.n}")
    perm, coef = _pauli_action(p)
    out = np.empty_like(s.amps)
    out[perm] = coef * s.amps
    return StateVector(out, s.n)


def apply_pauli_rotation(s: StateVector, p: PauliString, theta: float) -> StateVector:
    """exp(-i theta/2 P) |s> as a fused kernel; P must be Hermitian."""
    if not p.is_hermitian:
        raise ValueError(f"rotation generator must be Hermitian, got {p.label}")
    if p.width != s.n:
        raise ValueError(f"width mismatch: string {p.width}, state {s.n}")
    ps = apply_pauli(s, p)
    amps = np.cos(theta / 2) * s.amps - 1j * np.sin(theta / 2) * ps.amps
    return StateVector(amps, s.n)


def expectation_pauli(s: StateVector, p: PauliString) -> float:
    """<s|P|s> for Hermitian P; the imaginary residue is checked and discarded."""
    if not p.is_hermitian:
        raise ValueError(f"expectation needs a Hermitian string, got {p.label}")
    val = complex(np.vdot(s.amps, apply_pauli(s, p).amps))
    if abs(val.imag) > 1e-10:
        raise ValueError(f"expectation came out complex: {val}")
    return val.real


# -- measurement --------------------------------------------------------------


def marginal_probs(s: StateVector, qubits: tuple[int, ...]) -> np.ndarray:
    """Born probabilities of the listed qubits; bit i of the result index = qubits[i]."""
    return marginalize(np.abs(s.amps) ** 2, s.n, qubits)


def marginalize(probs: np.ndarray, n: int, qubits: tuple[int, ...]) -> np.ndarray:
    """Marginal of a distribution over n qubits; bit i of the result index = qubits[i]."""
    if not qubits:
        raise ValueError("need at least one qubit to measure")
    view = probs.reshape((2,) * n)
    keep_axes = [n - 1 - q for q in qubits]
    other = tuple(ax for ax in range(n) if ax not in keep_axes)
    marg = view.sum(axis=other) if other else view
    # after summing, remaining axes are sorted by original axis id; permute to qubit order
    remaining = sorted(keep_axes)
    order = [remaining.index(ax) for ax in keep_axes]
    marg = np.transpose(marg, order)
    # axis i now corresponds to qubits[i]; flatten so bit i of the index = qubits[i]
    marg = np.transpose(marg, tuple(range(len(qubits) - 1, -1, -1))).reshape(-1)
    return marg


def sample_counts(s: StateVector, qubits: tuple[int, ...], shots: int, seed: int) -> dict[str, int]:
    """Multinomial draw from the marginal Born distribution; deterministic per seed.

    Keys are bitstrings whose i-th character is the outcome of qubits[i].
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    probs = marginal_probs(s, tuple(qubits))
    return multinomial_counts(probs / probs.sum(), shots, seed)


def multinomial_counts(probs: np.ndarray, shots: int, seed: int) -> dict[str, int]:
    """One seeded multinomial draw over a normalized distribution of k bits.

    Keys are bitstrings whose i-th character is bit i of the outcome index, in
    index order; outcomes drawn zero times are left out.
    """
    counts = np.random.default_rng(seed).multinomial(shots, probs)
    k = len(probs).bit_length() - 1
    out = {}
    for index, c in enumerate(counts):
        if c:
            key = "".join(str((index >> i) & 1) for i in range(k))
            out[key] = int(c)
    return out


def parity_expectation(weights: dict[str, float], total: float = 1.0) -> float:
    """Mean of (-1)^(sum of bits) over a histogram (total = shots) or a probability table."""
    return sum(w * (1 - 2 * (key.count("1") % 2)) for key, w in weights.items()) / total


def shot_stderr(mean: float, shots: int, second_moment: float = 1.0) -> float:
    """Standard error of a sample mean over `shots` draws: sqrt((<x^2> - <x>^2) / shots).

    second_moment defaults to 1 for +-1 outcomes; a 0/1 indicator has <x^2> = <x>.
    """
    return math.sqrt(max(0.0, second_moment - mean * mean) / shots)
