"""Pauli noise with device-table parameters, plus the four mitigation tools.

Noisy circuits run on an exact density matrix, held as one complex vector over
2n qubits (ket qubit q at bit q, bra qubit q at bit n + q), so widths stop at
MAX_QUBITS // 2 = 12.  Every non-virtual gate is followed by a depolarizing
channel on its targets.  Each maximal run of consecutive gates and idle drifts
on at most two qubits acts on rho as one fused superoperator: the product of
its per-gate superoperators embedded in the run's bit order.  A bounded
process-wide cache holds the per-gate factors; the run products live only as
long as the one twirl variant whose gates they fuse.  Z-axis rotations (RZ,
Z, GPHASE) are virtual: no error, no duration.  Idle qubits accumulate a
deterministic Z-phase drift at a per-qubit rate, which is what an XX
decoupling sequence refocuses; T1/T2 from the device tables ride along as
metadata only.  Readout confusion multiplies the measured marginal,
and the counts are one seeded multinomial draw from the result.

Global folding G -> G (G^dag G)^k keeps G as the head of every folded circuit,
so noisy_parity_estimate evolves rho through each twirl variant once and
copies it for every ZNE scale; each scale then gets exactly the distribution
(and the draw) of its whole folded circuit.  Each estimate carries a stderr
propagated through readout inversion, the twirl mean and the linear ZNE fit.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .circuit import Circuit
from .greens import MeasurementRecord, direct_estimate, direct_point_circuit, kind_lambda, time_grid
from .pauli import MajoranaIndex, PauliString, clifford_conjugate
from .reports import write_text
from .statevector import (
    MAX_QUBITS,
    TWO_QUBIT_KINDS,
    GateOp,
    apply_matrix_inplace,
    child_seeds,
    gate_matrix,
    inverse_gate,
    marginalize,
    multinomial_counts,
    parity_expectation,
    parity_signs,
    shot_stderr,
)

_INERT_KINDS = ("GPHASE", "DELAY")  # a global phase or a wait changes no outcome
VIRTUAL_KINDS = {"RZ", "Z", *_INERT_KINDS}
# the dense budget 2^MAX_QUBITS, counted in gates (of one folded circuit or of all
# twirl variants) and in draws per point: larger requests are refused before allocating
MAX_GATES = 1 << MAX_QUBITS


@dataclass(frozen=True)
class NoiseModel:
    """Per-qubit / per-pair depolarizing rates, readout confusion, idle drift."""

    n_qubits: int
    p1: dict = field(default_factory=dict)          # qubit -> probability
    p2: dict = field(default_factory=dict)          # (min, max) pair -> probability
    readout: dict = field(default_factory=dict)     # qubit -> 2x2 row-stochastic matrix
    idle_rate: dict = field(default_factory=dict)   # qubit -> rad/s coherent Z drift
    durations: dict = field(default_factory=dict)   # gate kind -> seconds ("measure" too)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        n = self.n_qubits
        for key, rates in (("single_qubit", self.p1), ("readout", self.readout), ("idle_rate", self.idle_rate)):
            for q in rates:
                if q not in range(n):
                    raise ValueError(f"{key} qubit {q!r} is not one of the {n} qubits")
        for pair in self.p2:  # a key equal to some (a, b) with 0 <= a < b < n, checked without listing them
            if not (isinstance(pair, tuple) and len(pair) == 2 and pair[0] in range(n)
                    and pair[1] in range(n) and pair[0] < pair[1]):
                raise ValueError(f"two_qubit key {pair!r} is not a pair (a, b) with 0 <= a < b < {n}")
        for kind, d in self.durations.items():
            if not (math.isfinite(d) and d >= 0):
                raise ValueError(f"duration of {kind} must be finite and >= 0, got {d}")
        for p in list(self.p1.values()) + list(self.p2.values()):
            if not 0 <= p <= 1:
                raise ValueError(f"probability {p} outside [0, 1]")
        for q, c in self.readout.items():
            c = np.asarray(c, dtype=float)
            finite = c.shape == (2, 2) and np.isfinite(c).all()
            if not finite or np.any(c < -1e-12) or np.max(np.abs(c.sum(axis=1) - 1)) > 1e-9:
                raise ValueError(f"readout confusion for qubit {q} is not a finite row-stochastic matrix")
        for q, rate in self.idle_rate.items():
            if not math.isfinite(rate):
                raise ValueError(f"idle_rate of qubit {q} must be finite, got {rate}")

    def pair_p(self, a: int, b: int) -> float:
        return self.p2.get((a, b) if a < b else (b, a), 0.0)

    def duration(self, g: GateOp) -> float:
        if g.kind == "DELAY":
            return float(g.angle)
        if g.kind in VIRTUAL_KINDS:
            return 0.0
        return float(self.durations.get(g.kind, self.durations.get("default", 0.0)))

    def _payload(self) -> dict:
        """The JSON object to_json writes."""
        return {
            "n_qubits": self.n_qubits,
            "single_qubit": {str(q): {"error": p} for q, p in self.p1.items()},
            "two_qubit": {f"{a},{b}": {"error": p} for (a, b), p in self.p2.items()},
            "readout": {str(q): np.asarray(c).tolist() for q, c in self.readout.items()},
            "idle_rate": {str(q): r for q, r in self.idle_rate.items()},
            "durations": self.durations,
            "metadata": self.metadata,
        }

    def to_json(self, path) -> None:
        write_text(path, json.dumps(self._payload(), indent=2, sort_keys=True))

    @classmethod
    def from_json(cls, path) -> "NoiseModel":
        """Read a to_json file; a ValueError names the path and the first key not as to_json writes it."""
        with open(path, encoding="utf-8") as f:
            d = json.load(f)
        if not isinstance(d, dict) or "n_qubits" not in d:
            what = "missing key n_qubits" if isinstance(d, dict) else "not a JSON object"
            raise ValueError(f"noise model {path}: {what}")
        fields = {"metadata": d.get("metadata", {})}
        for key, (name, read) in _JSON_FIELDS.items():
            try:
                if key in d:
                    fields[name] = read(d[key])
            except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as e:
                raise ValueError(f"noise model {path}: invalid {key} ({type(e).__name__}: {e})") from None
        try:
            model = cls(**fields)
            _check_written(d, model._payload(), "")
        except ValueError as e:
            raise ValueError(f"noise model {path}: {e}") from None
        return model


def _check_written(held: dict, written: dict, where: str) -> None:
    """ValueError at the first key of held that the object written lacks or holds another value under."""
    for k, v in held.items():
        if k not in written:
            raise ValueError(f"unknown key {where + k!r}")
        if v != written[k]:  # containers compare items by identity first, so a shared NaN is equal
            if isinstance(v, dict) and isinstance(written[k], dict):
                _check_written(v, written[k], f"{where}{k}/")
            raise ValueError(f"key {where + k!r} holds {v!r}, which to_json writes as {written[k]!r}")


def _json_integer(x) -> int:
    """A JSON integer as read; TypeError for anything else (a float, a string or a boolean)."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"{x!r} is not an integer")
    return x


def _json_float(x) -> float:
    """A JSON number as a float; TypeError for anything else (a string or a boolean)."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise TypeError(f"{x!r} is not a number")
    return float(x)


_JSON_FIELDS = {  # to_json key -> (NoiseModel field, reader)
    "n_qubits": ("n_qubits", _json_integer),
    "single_qubit": ("p1", lambda v: {int(q): _json_float(e["error"]) for q, e in v.items()}),
    "two_qubit": ("p2", lambda v: {tuple(map(int, k.split(","))): _json_float(e["error"]) for k, e in v.items()}),
    "readout": ("readout", lambda v: {
        int(q): np.array([[_json_float(x) for x in row] for row in c]) for q, c in v.items()
    }),
    "idle_rate": ("idle_rate", lambda v: {int(q): _json_float(r) for q, r in v.items()}),
    "durations": ("durations", lambda v: {k: _json_float(x) for k, x in v.items()}),
}


def confusion(p01: float, p10: float) -> np.ndarray:
    """Row-stochastic readout matrix: p01 = P(read 1 | true 0), p10 = P(read 0 | true 1)."""
    return np.array([[1 - p01, p01], [p10, 1 - p10]], dtype=float)


def kolkata_dimer_model() -> NoiseModel:
    """Five-qubit model parameterized from the device calibration tables, without idle drift."""
    single = [1.98e-4, 4.22e-4, 2.59e-4, 1.73e-4, 1.65e-4]
    meas = [7.4e-3, 6.1e-3, 6.8e-3, 7.9e-3, 5.3e-3]
    cx = {(0, 1): 1.62e-2, (1, 2): 8.77e-3, (2, 3): 5.39e-3, (3, 4): 5.34e-3}
    cx_dur = {(0, 1): 5.05e-7, (1, 2): 4.91e-7, (2, 3): 3.63e-7, (3, 4): 2.84e-7}
    t1 = [10.93e-5, 9.08e-5, 10.13e-5, 8.45e-5, 11.41e-5]
    t2 = [6.99e-5, 3.53e-5, 10.98e-5, 10.78e-5, 2.61e-5]
    freq = [5.09e9, 5.24e9, 5.27e9, 5.14e9, 5.0e9]
    two = {pair: err for pair, err in cx.items()}
    # non-neighbor pairs fall back to the worst listed error
    worst = max(cx.values())
    for a in range(5):
        for b in range(a + 1, 5):
            two.setdefault((a, b), worst)
    return NoiseModel(
        n_qubits=5,
        p1={q: single[q] for q in range(5)},
        p2=two,
        readout={q: confusion(meas[q], meas[q]) for q in range(5)},
        idle_rate=dict.fromkeys(range(5), 0.0),
        durations={
            "H": 3.56e-8,
            "X": 3.56e-8,
            "Y": 3.56e-8,
            "XHALF": 3.56e-8,
            "XHALF_DG": 3.56e-8,
            "CNOT": 5.05e-7,
            "CZ": 5.05e-7,
            "CPHASE": 5.05e-7,  # the device table's entry; no circuit here uses the gate
            "measure": 6.76e-7,
            "default": 3.56e-8,
        },
        metadata={
            "pair_durations": {f"{a},{b}": d for (a, b), d in cx_dur.items()},
            "T1": t1,
            "T2": t2,
            "frequency": freq,
        },
    )


# -- scheduling ----------------------------------------------------------------


def _schedule(gates, model: NoiseModel, ready: list[float]):
    """ASAP-schedule gates after the per-qubit ready times, which advance in place:
    each gate paired with the (qubit, seconds) idle time its targets accumulated
    before it.  A prefix's schedule does not depend on what follows it."""
    out = []
    for g in gates:
        if not g.targets:
            out.append((g, ()))
            continue
        start = max(ready[t] for t in g.targets)
        gaps = tuple((t, start - ready[t]) for t in g.targets if start - ready[t] > 0)
        dur = model.duration(g)
        for t in g.targets:
            ready[t] = start + dur
        out.append((g, gaps))
    return out


def _idle_tail(ready: list[float]):
    """Each qubit's idle time from its last gate to the end of the schedule."""
    end = max(ready) if ready else 0.0
    return tuple((q, end - r) for q, r in enumerate(ready) if end - r > 0)


def idle_windows(circuit: Circuit, model: NoiseModel) -> dict[int, list[tuple[int, float]]]:
    """Per qubit: (gate index before which the window sits, window seconds).

    These are the schedule's idle gaps on qubits that some earlier gate already used.
    """
    used: set[int] = set()
    windows: dict[int, list[tuple[int, float]]] = {q: [] for q in range(circuit.n_qubits)}
    for i, (g, gaps) in enumerate(_schedule(circuit.gates, model, [0.0] * circuit.n_qubits)):
        for q, dt in gaps:
            if q in used:
                windows[q].append((i, dt))
        used.update(g.targets)
    return windows


# -- density-matrix simulation -----------------------------------------------------


def _drift_gates(gaps, model: NoiseModel) -> list[GateOp]:
    """RZ gates for the coherent Z drift each (qubit, seconds) idle gap accumulates."""
    return [
        GateOp("RZ", (q,), 2 * model.idle_rate[q] * dt)
        for q, dt in gaps
        if model.idle_rate.get(q, 0.0) and dt > 0
    ]


def _acting_gates(gates, model: NoiseModel, ready: list[float] | None) -> list[GateOp]:
    """The gates that act on rho, in order: each gate after the drift of the idle
    gaps before it, with the inert kinds (GPHASE, DELAY) dropped.  ready is None
    when no qubit drifts: then no gap yields a gate, so nothing is scheduled."""
    if ready is None:
        return [g for g in gates if g.kind not in _INERT_KINDS]
    out: list[GateOp] = []
    for g, gaps in _schedule(gates, model, ready):
        out += _drift_gates(gaps, model)
        if g.kind not in _INERT_KINDS:
            out.append(g)
    return out


def _error_prob(g: GateOp, model: NoiseModel) -> float:
    """Depolarizing probability that follows the gate (0 for virtual gates)."""
    if g.kind in VIRTUAL_KINDS:
        return 0.0
    if len(g.targets) == 1:
        return model.p1.get(g.targets[0], 0.0)
    return model.pair_p(*g.targets)


def _superoperator(g: GateOp, p: float) -> np.ndarray:
    """The gate, then k-qubit depolarizing with probability p, on the vectorized rho
    of its targets: ket bits low, bra bits high, so the gate acts as kron(conj U, U).

    Depolarizing is (1 - lam) rho + lam Tr_S(rho) (x) I/2^k with lam = 4^k p/(4^k - 1):
    each of the 4^k - 1 non-identity Paulis with probability p/(4^k - 1).
    """
    u = gate_matrix(g)
    s = np.kron(u.conj(), u)
    if p > 0:
        dim = len(u)
        lam = dim * dim * p / (dim * dim - 1)
        trace = np.eye(dim).reshape(-1)  # vectorized identity: picks the diagonal
        s = (1 - lam) * s + (lam / dim) * np.outer(trace, trace @ s)
    return s


# a process-wide cache of 16x16 (or 4x4) complex matrices, 4 KiB each at most
@functools.lru_cache(maxsize=1024)
def _block_superoperator(key: tuple, block: tuple[int, ...]) -> np.ndarray:
    """_superoperator of the gate key (kind, targets, angle, error probability)
    on the vectorized rho of the block qubits (bit i = ket of block[i], bit k + i
    = its bra), read-only because the cache shares it."""
    kind, targets, angle, p = key
    k = len(block)
    local = tuple(block.index(t) for t in targets)
    s = np.eye(4**k, dtype=complex)  # row j becomes the image of basis vector j
    bits = local + tuple(k + i for i in local)
    apply_matrix_inplace(s, _superoperator(GateOp(kind, targets, angle), p), bits, 2 * k)
    s = s.T.copy()
    s.flags.writeable = False
    return s


def _keys(gates, model: NoiseModel) -> list[tuple]:
    """Each gate as its key (kind, targets, angle, error probability): what fixes its superoperator."""
    return [(g.kind, g.targets, g.angle, _error_prob(g, model)) for g in gates]


def _two_qubit_runs(stream):
    """Maximal runs of consecutive gate keys whose joint support is at most two
    qubits, as (support in first-touch order, the run's keys as a tuple).  The
    split restarts at every run boundary, so the runs of a stream that begins
    with a run's first gate are the runs from there on."""
    block: tuple[int, ...] = ()
    run: list[tuple] = []
    for key in stream:
        new = [t for t in key[1] if t not in block]
        if len(block) + len(new) > 2:
            yield block, tuple(run)
            block, run = key[1], [key]
            continue
        if new:
            block += tuple(new)
        run.append(key)
    if run:
        yield block, tuple(run)


def _apply_runs(rho: np.ndarray, runs, products: dict, n: int) -> np.ndarray:
    """Apply each fused run's superoperator to the vectorized rho, in place.  The
    product of a run's block superoperators (later gates multiply from the left)
    is kept in products under the run's keys, which fix its block too."""
    for block, run in runs:
        fused = products.get(run)
        if fused is None:
            s = None
            for key in run:
                e = _block_superoperator(key, block)
                s = e if s is None else e @ s
            fused = products[run] = (block + tuple(n + t for t in block), s)
        apply_matrix_inplace(rho, fused[1], fused[0], 2 * n)
    return rho


def _readout(p_true: np.ndarray, measure_qubits, model: NoiseModel) -> np.ndarray:
    """Observed distribution under the tensor-product readout confusion
    (the model mitigate_readout inverts), clipped at 0 and normalized."""
    confusions = [np.asarray(model.readout.get(q, np.eye(2)), dtype=float) for q in measure_qubits]
    p = np.clip(_per_bit(p_true, [c.T for c in confusions]), 0.0, None)
    return p / p.sum()


def _distributions(
    circuit: Circuit, tails, model: NoiseModel, measure_qubits: tuple[int, ...]
) -> list[np.ndarray]:
    """Exact read-out distribution of circuit.gates + tail for each tail (a gate
    sequence) under the model; bit i of the index = measure_qubits[i].

    The state after the circuit's shared part is computed once and copied for
    every tail.  On rho that part is every fused run of the circuit but its last,
    which each tail re-runs with its own gates: runs split as they would over the
    whole stream, and with drift on each tail's schedule continues from the
    circuit's ready times, so every distribution is the one of the whole circuit.
    Run products are computed once per call and dropped with it.
    """
    if circuit.n_qubits != model.n_qubits:
        raise ValueError(
            f"model covers {model.n_qubits} qubits, circuit has {circuit.n_qubits}"
        )
    n = circuit.n_qubits
    if n > MAX_QUBITS // 2:
        raise ValueError(f"{n} qubits exceed the density-matrix capacity {MAX_QUBITS // 2}")
    # rho as one vector over 2n qubits: ket qubit q at bit q, bra qubit q at bit n + q
    rho = np.zeros(1 << (2 * n), dtype=complex)
    rho[0] = 1.0
    ready = [0.0] * n if any(model.idle_rate.values()) else None
    products: dict[tuple, tuple] = {}
    runs = list(_two_qubit_runs(_keys(_acting_gates(circuit.gates, model, ready), model)))
    last = list(runs.pop()[1]) if runs else []
    _apply_runs(rho, runs, products, n)
    out = []
    for tail in tails:
        tail_ready = None if ready is None else list(ready)
        gates = _acting_gates(tail, model, tail_ready)
        if tail_ready is not None:
            gates += _drift_gates(_idle_tail(tail_ready), model)
        point = _apply_runs(rho.copy(), _two_qubit_runs(last + _keys(gates, model)), products, n)
        diag = point[:: (1 << n) + 1].real  # rho[i, i] sits at i + (i << n)
        out.append(_readout(marginalize(diag, n, measure_qubits), measure_qubits, model))
    return out


def run_noisy(
    circuit: Circuit,
    model: NoiseModel,
    shots: int,
    seed: int,
    measure_qubits: tuple[int, ...] | None = None,
) -> np.ndarray:
    """Counts of measure_qubits (default: all) from one multinomial draw over the
    exact noisy distribution.

    The density matrix is exact: every non-virtual gate is followed by its
    depolarizing channel, idle gaps add coherent Z drift and the readout
    confusion multiplies the measured marginal.  Circuits wider than
    MAX_QUBITS // 2 = 12 qubits are refused (rho holds 4^n values).  The
    draw is multinomial_counts at the seed itself, so with no gate noise and no
    drift the distribution is the noiseless one up to rounding, and the draw
    that of sample_counts at that seed (readout confusion still applies).  Entry
    j counts outcome j, whose bit i is measure_qubits[i], as in sample_counts.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if measure_qubits is None:
        measure_qubits = tuple(range(circuit.n_qubits))
    return multinomial_counts(_distributions(circuit, ((),), model, tuple(measure_qubits))[0], shots, seed)


# -- readout mitigation -----------------------------------------------------------


def _per_bit(p: np.ndarray, mats: list) -> np.ndarray:
    """Apply mats[i] (2x2) to bit i of the index of a distribution over len(mats) bits."""
    k = len(mats)
    t = p.reshape((2,) * k)  # axis 0 = bit k-1, ..., axis k-1 = bit 0
    for i, m in enumerate(mats):
        axis = k - 1 - i  # axis of character/bit i
        t = np.moveaxis(np.tensordot(m, t, axes=([1], [axis])), 0, axis)
    return t.reshape(-1)


@dataclass(frozen=True)
class MitigatedDistribution:
    probs: np.ndarray
    clipped_mass: float


def _inverse_confusions(confusions: list) -> list[np.ndarray]:
    """The inverse of each 2x2 confusion matrix; ValueError for a singular one."""
    invs = []
    for c in confusions:
        c = np.asarray(c, dtype=float)
        if abs(np.linalg.det(c)) < 1e-12:
            raise ValueError("confusion matrix is singular")
        invs.append(np.linalg.inv(c))
    return invs


def mitigate_readout(counts: np.ndarray, confusions: list) -> MitigatedDistribution:
    """Invert the tensor-product confusion; clip negatives and renormalize.

    `confusions[i]` belongs to the qubit behind bit i of the outcome index.
    """
    p_obs = counts / counts.sum()
    invs = _inverse_confusions(confusions)
    # p_obs = (tensor C)^T p_true
    p_true = _per_bit(p_obs, [inv.T for inv in invs])
    clipped = float(-p_true[p_true < 0].sum())
    p_true = np.clip(p_true, 0.0, None)
    total = p_true.sum()
    if total <= 0:
        raise ValueError("mitigated distribution vanished")
    p_true /= total
    return MitigatedDistribution(p_true, clipped)


# -- Pauli twirling -----------------------------------------------------------------


_PAULIS = ("I", "X", "Y", "Z")


@functools.cache
def _twirl_table() -> dict[tuple[str, str, str], tuple[str, str, bool]]:
    """(kind, pre letter on the first target, on the second) -> (post letters,
    sign flip): conjugating the pre pair by the gate gives the post pair, negated
    when the flag is set.  All 32 entries come from clifford_conjugate."""
    table = {}
    for kind, la, lb in itertools.product(TWO_QUBIT_KINDS, _PAULIS, _PAULIS):
        post = clifford_conjugate((GateOp(kind, (0, 1)),), PauliString.from_letter_map(2, {0: la, 1: lb}))
        table[kind, la, lb] = (post.letter_at(0), post.letter_at(1), post.phase_exp == 2)
    return table


@functools.cache
def _pauli_gate(letter: str, q: int) -> GateOp:
    """One shared (immutable) GateOp per letter and qubit: twirling builds thousands."""
    return GateOp(letter, (q,))


def pauli_twirl(circuit: Circuit, n_variants: int, seed: int) -> list[Circuit]:
    """Sandwich every CX/CZ between random Pauli pairs that leave the gate invariant.

    Each variant's unitary equals the original exactly (a GPHASE absorbs the
    sandwich sign), so the twirled ensemble average is unbiased by construction.
    The pre pairs of all variants come from one draw of uniform letter indices,
    which yields the same letters as one two-letter draw per gate.
    """
    if n_variants < 1:
        raise ValueError("n_variants must be >= 1")
    if n_variants * len(circuit.gates) > MAX_GATES:
        raise ValueError(f"{n_variants} twirl variants of {len(circuit.gates)} gates exceed 2**{MAX_QUBITS} gates")
    table = _twirl_table()
    n_twirled = sum(g.kind in TWO_QUBIT_KINDS for g in circuit.gates)
    draws = np.random.default_rng(seed).choice(len(_PAULIS), size=(n_variants, n_twirled, 2))
    variants = []
    for pre_pairs in draws.tolist():
        pre_pairs = iter(pre_pairs)
        gates: list[GateOp] = []
        for g in circuit.gates:
            if g.kind not in TWO_QUBIT_KINDS:
                gates.append(g)
                continue
            a, b = g.targets
            i, j = next(pre_pairs)
            la, lb = _PAULIS[i], _PAULIS[j]
            post_a, post_b, flip = table[g.kind, la, lb]
            gates += [_pauli_gate(x, q) for x, q in ((la, a), (lb, b)) if x != "I"]
            gates.append(g)
            gates += [_pauli_gate(x, q) for x, q in ((post_a, a), (post_b, b)) if x != "I"]
            if flip:
                gates.append(GateOp("GPHASE", (), math.pi))
        variants.append(Circuit(circuit.n_qubits, tuple(gates)))
    return variants


# -- dynamical decoupling --------------------------------------------------------------


def dynamical_decoupling(circuit: Circuit, model: NoiseModel) -> Circuit:
    """Insert X pairs (split by delays) into idle windows large enough to hold them.

    The pair flips the sign of the coherent idle drift halfway through the window,
    refocusing it; the composed unitary is unchanged.  A pair goes in front of
    the gate that ends its window.
    """
    x_dur = model.durations.get("X", model.durations.get("default", 0.0))
    windows = idle_windows(circuit, model)
    insertions: dict[int, list[GateOp]] = {}
    for q, wins in windows.items():
        for gate_idx, width in wins:
            if width < 2 * x_dur or width <= 0:
                continue
            pad = (width - 2 * x_dur) / 2
            seq = []
            if pad > 0:
                seq.append(GateOp("DELAY", (q,), pad))
            seq.append(GateOp("X", (q,)))
            if pad > 0:
                seq.append(GateOp("DELAY", (q,), pad))
            seq.append(GateOp("X", (q,)))
            insertions.setdefault(gate_idx, []).extend(seq)
    if not insertions:
        return circuit
    gates: list[GateOp] = []
    for i, g in enumerate(circuit.gates):
        gates.extend(insertions.get(i, ()))
        gates.append(g)
    return Circuit(circuit.n_qubits, tuple(gates))


# -- zero-noise extrapolation -----------------------------------------------------------


def fold_circuit(circuit: Circuit, scale: float) -> tuple[Circuit, float]:
    """Global unitary folding G -> G (G^dag G)^k with a partial suffix fold for
    fractional factors; returns the folded circuit and the realized scale
    (counted over noisy gates only)."""
    if not math.isfinite(scale):
        raise ValueError("scale must be finite")
    if scale < 1:
        raise ValueError("scale must be >= 1")
    noisy_idx = [i for i, g in enumerate(circuit.gates) if g.kind not in VIRTUAL_KINDS]
    n_noisy = len(noisy_idx)
    if n_noisy == 0 or scale == 1:
        return circuit, 1.0
    k_full = int((scale - 1) // 2)
    remainder = (scale - 1) / 2 - k_full
    m = int(round(remainder * n_noisy))
    suffix_start = noisy_idx[n_noisy - m] if m > 0 else len(circuit.gates)
    if len(circuit.gates) * (1 + 2 * k_full) + 2 * (len(circuit.gates) - suffix_start) > MAX_GATES:
        raise ValueError(f"folding {len(circuit.gates)} gates to scale {scale:g} exceeds 2**{MAX_QUBITS} gates")
    gates = list(circuit.gates)
    if k_full:
        inv_all = [inverse_gate(g) for g in reversed(circuit.gates)]
        for _ in range(k_full):
            gates += inv_all + list(circuit.gates)
    if m > 0:
        suffix = list(circuit.gates[suffix_start:])
        gates += [inverse_gate(g) for g in reversed(suffix)] + suffix
    folded = Circuit(circuit.n_qubits, tuple(gates))
    realized = (n_noisy * (1 + 2 * k_full) + 2 * m) / n_noisy
    return folded, realized


@dataclass(frozen=True)
class ZneResult:
    value: float
    residual: float
    scales: tuple[float, ...]
    samples: tuple[float, ...]
    weights: tuple[float, ...]  # value = weights . samples


def zne(scales, samples, order: int) -> ZneResult:
    """Least-squares polynomial fit of samples against their noise scales
    (realized, where folding granularity moves them), evaluated at scale zero.
    The value is linear in the samples: value = weights . samples.
    """
    xs = tuple(float(s) for s in scales)
    ys = tuple(float(v) for v in samples)
    if not all(map(math.isfinite, xs + ys)):  # the fit would warn or fail inside LAPACK
        raise ValueError("scales and samples must be finite")
    if sorted(xs) != list(xs) or any(s < 1 for s in xs):
        raise ValueError("scales must be sorted and >= 1")
    if len(ys) != len(xs):
        raise ValueError(f"need one sample per scale, got {len(ys)} for {len(xs)} scales")
    if order < 0:
        raise ValueError(f"polynomial order must be >= 0, got {order}")
    if len(xs) <= order:
        raise ValueError("need more scale points than the polynomial order")
    if len(set(xs)) <= order:
        raise ValueError("degenerate fit: too few distinct realized scales")
    poly = np.poly1d(np.polyfit(xs, ys, deg=order))
    residual = float(np.sqrt(np.mean((poly(xs) - np.asarray(ys)) ** 2)))
    weights = np.polyfit(xs, np.eye(len(xs)), deg=order)[-1]
    return ZneResult(float(poly(0.0)), residual, xs, ys, tuple(weights.tolist()))


# -- mitigation harness for the dimer experiment -------------------------------------------


@dataclass(frozen=True)
class MitigationConfig:
    """What noisy_parity_estimate applies; the defaults, like the CLI's, mitigate nothing."""

    readout: bool = False
    twirl_variants: int = 1
    dd_sequence: str = "none"  # none | XX
    zne_scales: tuple[float, ...] = ()
    zne_order: int = 1

    def __post_init__(self):
        if self.twirl_variants < 1:
            raise ValueError(f"twirl variants must be >= 1, got {self.twirl_variants}")
        v, s = self.twirl_variants, max(1, len(self.zne_scales))
        if v * s > MAX_GATES:  # a point draws (and derives a seed) per variant and scale
            raise ValueError(f"twirl variants x scale factors must be <= 2**{MAX_QUBITS}, got {v} x {s}")
        if self.dd_sequence not in ("none", "XX"):
            raise ValueError(f"dd sequence must be none or XX, got {self.dd_sequence!r}")
        if self.zne_order < 0:
            raise ValueError(f"polynomial order must be >= 0, got {self.zne_order}")
        if self.zne_scales:
            if not all(math.isfinite(s) for s in self.zne_scales):
                raise ValueError("scale factors must be finite")
            if list(self.zne_scales) != sorted(self.zne_scales) or self.zne_scales[0] < 1:
                raise ValueError("scale factors must be sorted and >= 1")
            if self.zne_scales[-1] > MAX_GATES:  # a one-gate circuit folded that far passes the budget
                raise ValueError(f"scale factors must be <= 2**{MAX_QUBITS}, got {self.zne_scales[-1]:g}")
            # folding can still merge distinct factors into one realized scale: zne refuses that fit
            if self.zne_order >= len(set(self.zne_scales)):
                raise ValueError("polynomial order must be below the number of distinct factors")


def noisy_parity_estimate(
    circuit: Circuit,
    meas_qubits: tuple[int, ...],
    model: NoiseModel,
    shots: int,
    seed: int,
    config: MitigationConfig,
) -> tuple[float, float]:
    """(parity, stderr) of meas_qubits under the noise model with the configured mitigation.

    Every folded circuit begins with its twirl variant, so each variant's
    density matrix is evolved once and shared by all ZNE scales.  The seed's
    child 0 seeds pauli_twirl, and variant vi at scale si draws exactly what
    run_noisy(fold_circuit(variant, scale)) draws at child 1 + vi * len(scales)
    + si (statevector.child_seeds).

    The stderr is the delta method through readout inversion: a draw's parity
    is c . counts / shots, c the parity signs through the inverse confusions
    (the signs alone without readout mitigation); the variant mean at a scale
    carries sum(var) / V^2 and ZNE sum w_i^2 var_i (Giurgica-Tiron et al.
    2020).  mitigate_readout clips, so this is the unclipped estimator's stderr.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    base = dynamical_decoupling(circuit, model) if config.dd_sequence == "XX" else circuit
    scale_list = tuple(config.zne_scales) or (1.0,)
    twirl_seed, *draw_seeds = child_seeds(seed, 1 + config.twirl_variants * len(scale_list))
    variants = pauli_twirl(base, config.twirl_variants, twirl_seed) if config.twirl_variants > 1 else [base]
    confusions = [model.readout.get(q, np.eye(2)) for q in meas_qubits]
    coeffs = parity_signs(1 << len(meas_qubits))
    if config.readout:  # a singular confusion is refused here, before any evolution
        coeffs = _per_bit(coeffs, _inverse_confusions(confusions))
    vals = np.zeros((len(scale_list), len(variants)))
    realized = np.zeros_like(vals)  # variants differ in noisy-gate count, so average
    variances = np.zeros_like(vals)
    for vi, var in enumerate(variants):
        folds = [fold_circuit(var, s) for s in scale_list]
        tails = [folded.gates[len(var.gates):] for folded, _ in folds]
        dists = _distributions(var, tails, model, meas_qubits)
        for si, (probs, (_, r)) in enumerate(zip(dists, folds)):
            counts = multinomial_counts(probs, shots, draw_seeds[vi * len(scale_list) + si])
            freqs = counts / shots
            dist = mitigate_readout(counts, confusions).probs if config.readout else freqs
            vals[si, vi] = parity_expectation(dist)
            realized[si, vi] = r
            variances[si, vi] = shot_stderr(coeffs @ freqs, shots, (coeffs * coeffs) @ freqs) ** 2
    means = vals.mean(axis=1)
    mean_vars = variances.sum(axis=1) / len(variants) ** 2
    if not config.zne_scales:
        return float(means[0]), float(np.sqrt(mean_vars[0]))
    fit = zne(realized.mean(axis=1), means, config.zne_order)
    return fit.value, float(np.sqrt(np.square(fit.weights) @ mean_vars))


def noisy_dimer_series(
    source: MajoranaIndex, probe: MajoranaIndex, t: float, u: float, plan, phi: float, shots: int, seed: int,
    model: NoiseModel, config: MitigationConfig, kind: str = "retarded",
) -> MeasurementRecord:
    """The direct protocol's probe-source series under noise, as full values (kind as in dimer_suite).

    Per time point the full gate-level direct_point_circuit runs through the
    configured mitigation stack at child k of the seed (statevector.child_seeds),
    and direct_estimate scales its parity.
    """
    lam = kind_lambda(kind)
    taus = time_grid(plan)
    seeds = child_seeds(seed, len(taus))
    estimates, stderrs = [], []
    for k in range(len(taus)):
        circuit, meas_qubits, sign = direct_point_circuit(source, probe, t, u, plan, k, phi, lam)
        parity, parity_err = noisy_parity_estimate(circuit, meas_qubits, model, shots, seeds[k], config)
        val, err = direct_estimate(sign, parity, parity_err, phi)
        estimates.append(val)
        stderrs.append(err)
    return MeasurementRecord(taus, tuple(estimates), tuple(stderrs), shots, "direct", phi, lam)
