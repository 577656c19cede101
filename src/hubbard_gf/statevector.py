"""Dense statevector simulation: gate kernels, Pauli strings, expectations, sampling.

Amplitudes are indexed so that bit q of the basis index is the value of qubit q
(qubit 0 = least significant).  There is one gate kernel: `apply_matrix_inplace`
gathers the amplitudes of the target bits and multiplies a dense 2^k x 2^k
matrix into them.  Every gate runs as its `gate_matrix` through it (DELAY is a
no-op, GPHASE a scalar), and the noise module runs its vectorized density
matrices through it.  A state is its complex amplitude array, with no class
around it: the functions here and `circuit.simulate` take and return arrays
whose trailing axis holds the 2^n amplitudes.  The kernel acts on that axis,
so leading axes are a batch (the VHA landscape, psi and S psi of a Hadamard
test, and the columns of `circuit_unitary` are such batches).  Capacity is
dense double precision up to 24 qubits.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pauli builds its Clifford tables from gate_matrix
    from .pauli import PauliString

MAX_QUBITS = 24


# -- gate matrices (paper-table conventions) ---------------------------------

_SQ2 = 1.0 / np.sqrt(2.0)

FIXED_MATRICES = {
    "H": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "XHALF": np.array([[_SQ2, -1j * _SQ2], [-1j * _SQ2, _SQ2]], dtype=complex),
    "XHALF_DG": np.array([[_SQ2, 1j * _SQ2], [1j * _SQ2, _SQ2]], dtype=complex),
    # two-qubit: index bit0 = targets[0] (control where applicable), bit1 = targets[1]
    "CNOT": np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex),
    "CZ": np.diag([1, 1, 1, -1]).astype(complex),
}

ONE_QUBIT_KINDS = ("H", "X", "Y", "Z", "XHALF", "XHALF_DG", "RZ", "DELAY")
TWO_QUBIT_KINDS = ("CNOT", "CZ")
ZERO_QUBIT_KINDS = ("GPHASE",)  # bookkeeping gate so builders are phase-exact
_ARITY = {k: n for n, kinds in enumerate((ZERO_QUBIT_KINDS, ONE_QUBIT_KINDS, TWO_QUBIT_KINDS)) for k in kinds}


@dataclass(frozen=True)
class GateOp:
    """One gate application: named kind, target qubits, and the angle of an RZ, GPHASE
    or DELAY (the fixed-matrix kinds take none)."""

    kind: str
    targets: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        n_targets = _ARITY.get(self.kind)
        if n_targets is None:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if len(self.targets) != n_targets:
            raise ValueError(f"{self.kind} takes {n_targets} target(s), got {self.targets}")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError(f"duplicate targets in {self.kind}{self.targets}")
        if self.kind in FIXED_MATRICES:
            if self.angle is not None:
                raise ValueError(f"{self.kind} takes no angle, got {self.angle}")
        elif self.angle is None:
            raise ValueError(f"{self.kind} needs an angle")
        if self.angle is not None and not math.isfinite(self.angle):
            raise ValueError(f"{self.kind} angle must be finite, got {self.angle}")


def gate_matrix(g: GateOp) -> np.ndarray:
    """Dense matrix of the gate on its own targets (bit 0 of the index = first target)."""
    if g.kind in FIXED_MATRICES:
        return FIXED_MATRICES[g.kind]
    if g.kind == "GPHASE":
        return np.array([[np.exp(1j * g.angle)]], dtype=complex)
    if g.kind == "DELAY":  # identity placeholder; the angle is a duration in seconds
        return np.eye(2, dtype=complex)
    return np.array([[np.exp(-1j * g.angle / 2), 0], [0, np.exp(1j * g.angle / 2)]])  # RZ


def inverse_gate(g: GateOp) -> GateOp:
    """Gate with the inverse unitary (used for circuit folding and uncomputation)."""
    if g.kind in ("XHALF", "XHALF_DG"):
        return GateOp("XHALF_DG" if g.kind == "XHALF" else "XHALF", g.targets)
    if g.kind in FIXED_MATRICES or g.kind == "DELAY":  # every other fixed kind undoes itself, as a wait does
        return g
    return GateOp(g.kind, g.targets, -g.angle)  # RZ, GPHASE


# -- states and kernels -------------------------------------------------------


def basis_state(n: int) -> np.ndarray:
    """The amplitudes of |0...0> over n qubits."""
    if n > MAX_QUBITS:
        raise ValueError(f"{n} qubits exceeds dense capacity {MAX_QUBITS}")
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = 1.0
    return amps


# bounded by index entries, not by keys: one key's array holds 2^n entries
# (128 MiB for a one-qubit gate at 24 qubits), so a key count bounds no memory
_GATHER_CACHE: dict[tuple[tuple[int, ...], int], np.ndarray] = {}
_GATHER_CACHE_ELEMENTS = 1 << 24  # cached index entries, summed over keys


def _gather_index(bits: tuple[int, ...], n: int) -> np.ndarray:
    """(2^m, 2^(n-m)) indices into a 2^n vector: row l sets the listed bits to l
    (bit i of l = bits[i]), column c runs over the values of the other bits."""
    key = (bits, n)
    idx = _GATHER_CACHE.get(key)
    if idx is None:  # only valid keys are cached, so a hit needs no check
        if not bits or len(set(bits)) != len(bits) or min(bits) < 0 or max(bits) >= n:
            raise ValueError(f"bits {bits} invalid for a {n}-bit vector")
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
    """Multiply a dense 2^k x 2^k matrix into k bits of a trailing 2^n axis, in place.

    Bit i of the matrix index is bit bits[i] of the vector index; leading axes
    of vec are a batch.  A stack m of shape (K, 2^k, 2^k) multiplies m[j] into
    vec[j] for each j < K = len(vec), as one product over all of vec[j].
    """
    idx = _gather_index(tuple(bits), n)
    if m.ndim == 2:
        vec[..., idx] = np.matmul(m, vec[..., idx])
        return
    x = np.moveaxis(vec[..., idx], -2, 1)  # (K, 2^k, ..., 2^(n-k))
    y = np.matmul(m, x.reshape(len(x), len(idx), -1)).reshape(x.shape)
    vec[..., idx] = np.moveaxis(y, 1, -2)


def apply_gate_inplace(arr: np.ndarray, g: GateOp, n: int) -> None:
    """Apply one gate to amplitudes with a trailing 2^n axis, mutating in place."""
    if g.kind == "DELAY":
        return
    if g.kind == "GPHASE":
        arr *= np.exp(1j * g.angle)
        return
    apply_matrix_inplace(arr, gate_matrix(g), g.targets, n)


# -- Pauli application and expectation ---------------------------------------


@functools.lru_cache(maxsize=256)
def pauli_action(p: PauliString) -> tuple[np.ndarray, np.ndarray]:
    """(source index permutation, coefficient array) so that (P s)[perm] = coef * s,
    read-only because the cache shares them."""
    dim = 1 << p.width
    idx = np.arange(dim, dtype=np.int64)
    signs = 1.0 - 2.0 * (np.bitwise_count(idx & np.int64(p.zbits)) & 1)
    canon = (p.phase_exp + (p.xbits & p.zbits).bit_count()) % 4
    coef = (1j ** canon) * signs
    perm = idx ^ np.int64(p.xbits)
    perm.flags.writeable = coef.flags.writeable = False
    return perm, coef


def apply_pauli(amps: np.ndarray, p: PauliString) -> np.ndarray:
    """Exact application of a Pauli string operator to the amplitudes."""
    if amps.shape[-1] != 1 << p.width:
        raise ValueError(f"width mismatch: string {p.width}, state {amps.shape[-1]} amplitudes")
    perm, coef = pauli_action(p)
    out = np.empty_like(amps)
    out[..., perm] = coef * amps
    return out


def expectation_pauli(amps: np.ndarray, p: PauliString) -> np.ndarray | float:
    """<s|P|s> for Hermitian P over the trailing axis: an array over the leading (batch)
    axes, a float for one state.  An imaginary residue above 1e-10 is an error."""
    if not p.is_hermitian:
        raise ValueError(f"expectation needs a Hermitian string, got {p.label}")
    if amps.shape[-1] != 1 << p.width:
        raise ValueError(f"width mismatch: string {p.width}, state {amps.shape[-1]} amplitudes")
    perm, coef = pauli_action(p)  # (P s)[perm] = coef * s
    vals = np.einsum("...i,i,...i->...", amps[..., perm].conj(), coef, amps)
    bad = np.abs(vals.imag) > 1e-10
    if bad.any():
        raise ValueError(f"expectation came out complex: {vals[bad][0]}")
    return vals.real if vals.ndim else float(vals.real)


# -- measurement --------------------------------------------------------------


def marginal_probs(amps: np.ndarray, qubits: tuple[int, ...]) -> np.ndarray:
    """Born probabilities of the listed qubits; bit i of the result index = qubits[i].

    Leading axes of amps are a batch, as in marginalize.
    """
    return marginalize(np.abs(amps) ** 2, amps.shape[-1].bit_length() - 1, qubits)


def marginalize(probs: np.ndarray, n: int, qubits: tuple[int, ...]) -> np.ndarray:
    """Marginal of a distribution over n qubits; bit i of the result index = qubits[i].

    The distribution is the trailing axis of probs; leading axes are a batch.
    """
    if not qubits:
        raise ValueError("need at least one qubit to measure")
    lead = probs.ndim - 1
    view = probs.reshape(probs.shape[:-1] + (2,) * n)
    keep_axes = [lead + n - 1 - q for q in qubits]
    other = tuple(ax for ax in range(lead, lead + n) if ax not in keep_axes)
    marg = view.sum(axis=other) if other else view
    # after summing, the kept axes are sorted by original axis id; reversing the
    # qubit order onto them makes bit i of the flattened index qubits[i]
    remaining = sorted(keep_axes)
    order = [lead + remaining.index(ax) for ax in reversed(keep_axes)]
    return np.transpose(marg, tuple(range(lead)) + tuple(order)).reshape(probs.shape[:-1] + (-1,))


def sample_counts(amps: np.ndarray, qubits: tuple[int, ...], shots: int, seed: int) -> np.ndarray:
    """Multinomial draw from the marginal Born distribution; deterministic per seed.

    Entry j counts outcome j, whose bit i is the outcome of qubits[i].
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    probs = marginal_probs(amps, tuple(qubits))
    return multinomial_counts(probs / probs.sum(), shots, seed)


def multinomial_counts(probs: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """One seeded multinomial draw over a normalized distribution: entry j counts outcome j."""
    return np.random.default_rng(seed).multinomial(shots, probs)


def child_seeds(seed: int, n: int) -> list[int]:
    """Children 0..n-1 of a seed: child i is SeedSequence(seed).generate_state(n)[i], for any n > i.

    The one rule by which every draw's seed comes down from the run seed: run ->
    pair (greens.pair_seeds) -> time point -> a noisy point's twirl (child 0) and
    draws, or run -> VHA grid point -> measurement run.  Only shot runs call it.
    """
    return np.random.SeedSequence(seed).generate_state(n).tolist()


@functools.cache
def parity_signs(length: int) -> np.ndarray:
    """(-1)^popcount(j) for j < length, as a read-only int array cached per length."""
    signs = np.where(np.bitwise_count(np.arange(length)) & 1, -1, 1)
    signs.flags.writeable = False
    return signs


def parity_expectation(weights: np.ndarray, total: float = 1.0) -> float:
    """Mean of (-1)^popcount(j) over outcomes j of a histogram (total = shots) or distribution."""
    return float(np.sum(weights * parity_signs(len(weights)))) / total


def shot_stderr(mean, shots, second_moment=1.0):
    """Standard error of a sample mean over `shots` draws: sqrt((<x^2> - <x>^2) / shots).

    second_moment defaults to 1 for +-1 outcomes; a 0/1 indicator has <x^2> = <x>.
    Works elementwise on arrays of means, shot counts or second moments.
    """
    return np.sqrt(np.maximum(0.0, second_moment - mean * mean) / shots)
