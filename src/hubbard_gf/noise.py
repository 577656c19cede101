"""Pauli noise with device-table parameters, plus the four mitigation tools.

Noisy circuits run on an exact density matrix, held as one complex vector over
2n qubits (ket qubit q at bit q, bra qubit q at bit n + q), so widths stop at
MAX_QUBITS // 2 = 12.  Every non-virtual gate is followed by a depolarizing
channel on its targets.  Each maximal run of consecutive gates and idle drifts
on at most two qubits acts on rho as one fused superoperator: the product of
its per-gate superoperators embedded in the run's bit order.  Two bounded
process-wide caches hold the per-gate factors and the run products.  Z-axis
rotations (RZ, PHASE, Z, GPHASE) are virtual: no error, no duration.  Idle
qubits accumulate a deterministic Z-phase drift at a per-qubit rate, which is
what an XX decoupling sequence refocuses; T1/T2 from the device tables ride
along as metadata only.  Readout confusion multiplies the measured marginal,
and the counts are one seeded multinomial draw from the result (seed schedule
in run_noisy).

Global folding G -> G (G^dag G)^k keeps G as the head of every folded circuit,
so noisy_parity_estimate evolves rho through each twirl variant once and
copies it for every ZNE scale; each scale then gets exactly the distribution
(and the draw) of its whole folded circuit.  Each estimate carries a stderr
propagated through readout inversion, the twirl mean and the linear ZNE fit.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .circuit import Circuit, simulate
from .greens import DIMER_PAIRS, LAMBDA_BY_KIND, MeasurementRecord, direct_series_circuits, time_grid
from .pauli import CliffordCircuit, PauliString, clifford_conjugate
from .statevector import (
    MAX_QUBITS,
    GateOp,
    apply_matrix_inplace,
    gate_matrix,
    inverse_gate,
    marginal_probs,
    marginalize,
    multinomial_counts,
    parity_expectation,
    parity_signs,
    shot_stderr,
)

VIRTUAL_KINDS = {"RZ", "PHASE", "Z", "GPHASE", "DELAY"}


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
        for p in list(self.p1.values()) + list(self.p2.values()):
            if not 0 <= p <= 1:
                raise ValueError(f"probability {p} outside [0, 1]")
        for q, c in self.readout.items():
            c = np.asarray(c, dtype=float)
            if c.shape != (2, 2) or np.any(c < -1e-12) or np.max(np.abs(c.sum(axis=1) - 1)) > 1e-9:
                raise ValueError(f"readout confusion for qubit {q} is not row-stochastic")

    def pair_p(self, a: int, b: int) -> float:
        return self.p2.get((a, b) if a < b else (b, a), 0.0)

    def duration(self, g: GateOp) -> float:
        if g.kind == "DELAY":
            return float(g.angle)
        if g.kind in VIRTUAL_KINDS:
            return 0.0
        return float(self.durations.get(g.kind, self.durations.get("default", 0.0)))

    @classmethod
    def zero(cls, n_qubits: int) -> "NoiseModel":
        return cls(n_qubits)

    def to_json(self, path) -> None:
        payload = {
            "n_qubits": self.n_qubits,
            "single_qubit": {str(q): {"error": p} for q, p in self.p1.items()},
            "two_qubit": {f"{a},{b}": {"error": p} for (a, b), p in self.p2.items()},
            "readout": {str(q): np.asarray(c).tolist() for q, c in self.readout.items()},
            "idle_rate": {str(q): r for q, r in self.idle_rate.items()},
            "durations": self.durations,
            "metadata": self.metadata,
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, path) -> "NoiseModel":
        with open(path, encoding="utf-8") as f:
            d = json.load(f)
        return cls(
            n_qubits=int(d["n_qubits"]),
            p1={int(q): float(v["error"]) for q, v in d.get("single_qubit", {}).items()},
            p2={
                tuple(int(x) for x in k.split(",")): float(v["error"])
                for k, v in d.get("two_qubit", {}).items()
            },
            readout={int(q): np.asarray(c, dtype=float) for q, c in d.get("readout", {}).items()},
            idle_rate={int(q): float(r) for q, r in d.get("idle_rate", {}).items()},
            durations={k: float(v) for k, v in d.get("durations", {}).items()},
            metadata=d.get("metadata", {}),
        )


def confusion(p01: float, p10: float) -> np.ndarray:
    """Row-stochastic readout matrix: p01 = P(read 1 | true 0), p10 = P(read 0 | true 1)."""
    return np.array([[1 - p01, p01], [p10, 1 - p10]], dtype=float)


def kolkata_dimer_model(idle_rate: float = 0.0) -> NoiseModel:
    """Five-qubit model parameterized from the device calibration tables."""
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
        idle_rate={q: idle_rate for q in range(5)},
        durations={
            "H": 3.56e-8,
            "X": 3.56e-8,
            "Y": 3.56e-8,
            "XHALF": 3.56e-8,
            "XHALF_DG": 3.56e-8,
            "CNOT": 5.05e-7,
            "CZ": 5.05e-7,
            "CPHASE": 5.05e-7,
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


def schedule_ops(circuit: Circuit, model: NoiseModel):
    """ASAP schedule as (ops, tail): ops pairs each gate with the (qubit, seconds)
    idle time each target accumulated before it, tail lists each qubit's idle
    time from its last gate to the end of the circuit."""
    ready = [0.0] * circuit.n_qubits
    ops = _schedule(circuit.gates, model, ready)
    return ops, _idle_tail(ready)


def idle_windows(circuit: Circuit, model: NoiseModel) -> dict[int, list[tuple[int, float]]]:
    """Per qubit: (gate index before which the window sits, window seconds).

    These are the schedule's idle gaps on qubits that some earlier gate already used.
    """
    ops, _ = schedule_ops(circuit, model)
    used: set[int] = set()
    windows: dict[int, list[tuple[int, float]]] = {q: [] for q in range(circuit.n_qubits)}
    for i, (g, gaps) in enumerate(ops):
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
    gaps before it, with GPHASE and DELAY dropped (a global phase or a wait changes
    no outcome).  ready is None when no qubit drifts: then no gap yields a gate, so
    nothing is scheduled."""
    if ready is None:
        return [g for g in gates if g.kind not in ("GPHASE", "DELAY")]
    out: list[GateOp] = []
    for g, gaps in _schedule(gates, model, ready):
        out += _drift_gates(gaps, model)
        if g.kind not in ("GPHASE", "DELAY"):
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


def _gate_key(g: GateOp, model: NoiseModel) -> tuple:
    """What fixes the gate's superoperator, its error probability last."""
    return (g.kind, g.targets, g.angle, _error_prob(g, model))


def _cache_put(cache: dict, key, value: np.ndarray, entries: int) -> np.ndarray:
    """Store a read-only value; a full cache is emptied first."""
    value.flags.writeable = False
    if len(cache) >= entries:
        cache.clear()
    cache[key] = value
    return value


# process-wide caches of 16x16 (or 4x4) complex matrices, 4 KiB each at most
_SUPEROP_CACHE: dict[tuple, np.ndarray] = {}  # per gate and block
_SUPEROP_CACHE_ENTRIES = 1024
_RUN_CACHE: dict[tuple, np.ndarray] = {}  # per fused run
_RUN_CACHE_ENTRIES = 128


def _block_superoperator(g: GateOp, key: tuple, block: tuple[int, ...]) -> np.ndarray:
    """_superoperator of the gate and its error probability (key[-1]) on the
    vectorized rho of the block qubits (bit i = ket of block[i], bit k + i = its
    bra), cached under (key, block)."""
    s = _SUPEROP_CACHE.get((key, block))
    if s is None:
        k = len(block)
        local = tuple(block.index(t) for t in g.targets)
        s = np.eye(4**k, dtype=complex)  # row j becomes the image of basis vector j
        bits = local + tuple(k + i for i in local)
        apply_matrix_inplace(s, _superoperator(g, key[-1]), bits, 2 * k)
        s = _cache_put(_SUPEROP_CACHE, (key, block), s.T.copy(), _SUPEROP_CACHE_ENTRIES)
    return s


def _run_superoperator(block: tuple[int, ...], run, model: NoiseModel) -> np.ndarray:
    """Product of the run's block superoperators (later gates multiply from the
    left), cached under the block and its gates' keys."""
    keys = tuple(_gate_key(g, model) for g in run)
    s = _RUN_CACHE.get((block, keys))
    if s is None:
        for g, key in zip(run, keys):
            e = _block_superoperator(g, key, block)
            s = e if s is None else e @ s
        s = _cache_put(_RUN_CACHE, (block, keys), s, _RUN_CACHE_ENTRIES)
    return s


def _two_qubit_runs(gates):
    """Maximal runs of consecutive gates whose joint support is at most two
    qubits, as (support in first-touch order, gates of the run).  The split
    restarts at every run boundary, so the runs of a stream that begins with a
    run's first gate are the runs from there on."""
    block: tuple[int, ...] = ()
    run: list[GateOp] = []
    for g in gates:
        new = [t for t in g.targets if t not in block]
        if len(block) + len(new) > 2:
            yield block, run
            block, run = g.targets, [g]
            continue
        if new:
            block += tuple(new)
        run.append(g)
    if run:
        yield block, run


def _apply_runs(rho: np.ndarray, runs, model: NoiseModel, n: int) -> np.ndarray:
    """Apply each fused run's superoperator to the vectorized rho, in place."""
    for block, run in runs:
        bits = block + tuple(n + t for t in block)
        apply_matrix_inplace(rho, _run_superoperator(block, run, model), bits, 2 * n)
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
    """
    if circuit.n_qubits != model.n_qubits:
        raise ValueError(
            f"model covers {model.n_qubits} qubits, circuit has {circuit.n_qubits}"
        )
    n = circuit.n_qubits
    if n > MAX_QUBITS // 2:
        raise ValueError(f"{n} qubits exceed the density-matrix capacity {MAX_QUBITS // 2}")
    drift = any(model.idle_rate.values())
    if not (drift or any(model.p1.values()) or any(model.p2.values())):
        # gate-exact statevector path; bit-identical to noiseless sampling
        state = simulate(circuit)
        return [
            _readout(marginal_probs(simulate(Circuit(n, tuple(tail)), state), measure_qubits),
                     measure_qubits, model)
            for tail in tails
        ]
    # rho as one vector over 2n qubits: ket qubit q at bit q, bra qubit q at bit n + q
    rho = np.zeros(1 << (2 * n), dtype=complex)
    rho[0] = 1.0
    ready = [0.0] * n if drift else None
    runs = list(_two_qubit_runs(_acting_gates(circuit.gates, model, ready)))
    last = runs.pop()[1] if runs else []
    _apply_runs(rho, runs, model, n)
    out = []
    for tail in tails:
        tail_ready = None if ready is None else list(ready)
        gates = last + _acting_gates(tail, model, tail_ready)
        if tail_ready is not None:
            gates += _drift_gates(_idle_tail(tail_ready), model)
        point = _apply_runs(rho.copy(), _two_qubit_runs(gates), model, n)
        diag = point[:: (1 << n) + 1].real  # rho[i, i] sits at i + (i << n)
        out.append(_readout(marginalize(diag, n, measure_qubits), measure_qubits, model))
    return out


def noisy_distribution(
    circuit: Circuit, model: NoiseModel, measure_qubits: tuple[int, ...]
) -> np.ndarray:
    """Exact distribution of the read-out bits of measure_qubits (bit i of the
    index = measure_qubits[i]) under the model: what run_noisy draws from."""
    return _distributions(circuit, ((),), model, measure_qubits)[0]


def _draw(probs: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """The counts run_noisy draws at this seed: one multinomial with the integer
    derived from SeedSequence([seed, 0])."""
    sample_seed = int(np.random.SeedSequence([seed, 0]).generate_state(1)[0])
    return multinomial_counts(probs, shots, sample_seed)


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
    MAX_QUBITS // 2 = 12 qubits are refused (rho holds 4^n values).  Seed
    schedule: the draw uses the integer derived from SeedSequence([seed, 0]).
    With no gate noise and no drift the state is the noiseless statevector, so
    the draw is bit for bit noiseless sample_counts with that integer (readout
    confusion still applies).  Entry j counts outcome j, whose bit i is
    measure_qubits[i], as in sample_counts.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if measure_qubits is None:
        measure_qubits = tuple(range(circuit.n_qubits))
    return _draw(noisy_distribution(circuit, model, tuple(measure_qubits)), shots, seed)


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


def mitigate_readout(counts: np.ndarray, confusions: list) -> MitigatedDistribution:
    """Invert the tensor-product confusion; clip negatives and renormalize.

    `confusions[i]` belongs to the qubit behind bit i of the outcome index.
    """
    p_obs = counts / counts.sum()
    invs = []
    for c in confusions:
        c = np.asarray(c, dtype=float)
        if abs(np.linalg.det(c)) < 1e-12:
            raise ValueError("confusion matrix is singular")
        invs.append(np.linalg.inv(c))
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


_TWIRL_KINDS = ("CNOT", "CZ")
_PAULIS = ("I", "X", "Y", "Z")


@functools.cache
def _twirl_table() -> dict[tuple[str, str, str], tuple[str, str, bool]]:
    """(kind, pre letter on the first target, on the second) -> (post letters,
    sign flip): conjugating the pre pair by the gate gives the post pair, negated
    when the flag is set.  All 32 entries come from clifford_conjugate."""
    table = {}
    for kind in _TWIRL_KINDS:
        gate = CliffordCircuit(((kind, (0, 1)),))
        for la in _PAULIS:
            for lb in _PAULIS:
                post = clifford_conjugate(gate, PauliString.from_letter_map(2, {0: la, 1: lb}))
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
    which yields the same letters as one two-letter draw per gate.  A sandwich
    stays in the barrier stage of the gate it wraps.
    """
    if n_variants < 1:
        raise ValueError("n_variants must be >= 1")
    table = _twirl_table()
    n_twirled = sum(g.kind in _TWIRL_KINDS for g in circuit.gates)
    draws = np.random.default_rng(seed).choice(len(_PAULIS), size=(n_variants, n_twirled, 2))
    variants = []
    for pre_pairs in draws.tolist():
        pre_pairs = iter(pre_pairs)
        gates: list[GateOp] = []
        starts = []
        for g in circuit.gates:
            starts.append(len(gates))
            if g.kind not in _TWIRL_KINDS:
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
        variants.append(_with_insertions(circuit, gates, starts))
    return variants


def _with_insertions(circuit: Circuit, gates: list[GateOp], starts: list[int]) -> Circuit:
    """The circuit rebuilt from gates, whose run for its gate i (insertions first) begins
    at starts[i]; each barrier moves to the start of the run of the gate it stood before."""
    ends = starts + [len(gates)]
    return Circuit(circuit.n_qubits, tuple(gates), tuple((ends[i], label) for i, label in circuit.barriers))


# -- dynamical decoupling --------------------------------------------------------------


def dynamical_decoupling(circuit: Circuit, model: NoiseModel, sequence: str = "XX") -> Circuit:
    """Insert X pairs (split by delays) into idle windows large enough to hold them.

    The pair flips the sign of the coherent idle drift halfway through the window,
    refocusing it; the composed unitary is unchanged.  A pair goes in front of
    the gate that ends its window, in that gate's barrier stage.
    """
    if sequence != "XX":
        raise ValueError(f"unsupported sequence {sequence!r}")
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
    starts = []
    for i, g in enumerate(circuit.gates):
        starts.append(len(gates))
        gates.extend(insertions.get(i, ()))
        gates.append(g)
    return _with_insertions(circuit, gates, starts)


# -- zero-noise extrapolation -----------------------------------------------------------


def fold_circuit(circuit: Circuit, scale: float) -> tuple[Circuit, float]:
    """Global unitary folding G -> G (G^dag G)^k with a partial suffix fold for
    fractional factors; returns the folded circuit and the realized scale
    (counted over noisy gates only)."""
    if scale < 1:
        raise ValueError("scale must be >= 1")
    noisy_idx = [i for i, g in enumerate(circuit.gates) if g.kind not in VIRTUAL_KINDS]
    n_noisy = len(noisy_idx)
    if n_noisy == 0 or scale == 1:
        return circuit, 1.0
    k_full = int((scale - 1) // 2)
    remainder = (scale - 1) / 2 - k_full
    m = int(round(remainder * n_noisy))
    gates = list(circuit.gates)
    if k_full:
        inv_all = [inverse_gate(g) for g in reversed(circuit.gates)]
        for _ in range(k_full):
            gates += inv_all + list(circuit.gates)
    if m > 0:
        suffix_start = noisy_idx[n_noisy - m]
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
    if sorted(xs) != list(xs) or any(s < 1 for s in xs):
        raise ValueError("scales must be sorted and >= 1")
    if len(ys) != len(xs):
        raise ValueError(f"need one sample per scale, got {len(ys)} for {len(xs)} scales")
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
    readout: bool = True
    twirl_variants: int = 4
    dd_sequence: str = "none"  # none | XX
    zne_scales: tuple[float, ...] = (1.0, 1.5, 2.0, 2.5, 3.0)
    zne_order: int = 2

    def __post_init__(self):
        if self.twirl_variants < 1:
            raise ValueError(f"twirl variants must be >= 1, got {self.twirl_variants}")
        if self.zne_order < 0:
            raise ValueError(f"polynomial order must be >= 0, got {self.zne_order}")
        if self.zne_scales:
            if not all(math.isfinite(s) for s in self.zne_scales):
                raise ValueError("scale factors must be finite")
            if list(self.zne_scales) != sorted(self.zne_scales) or self.zne_scales[0] < 1:
                raise ValueError("scale factors must be sorted and >= 1")
            if self.zne_order >= len(self.zne_scales):
                raise ValueError("polynomial order must be below the number of factors")


NO_MITIGATION = MitigationConfig(readout=False, twirl_variants=1, dd_sequence="none", zne_scales=())


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
    density matrix is evolved once and shared by all ZNE scales.  Variant vi at
    scale si draws exactly what run_noisy(fold_circuit(variant, scale)) draws
    with seed entry vi * len(scales) + si of SeedSequence(seed).

    The stderr is the delta method through readout inversion: a draw's parity
    is c . counts / shots, c the parity signs through the inverse confusions
    (the signs alone without readout mitigation); the variant mean at a scale
    carries sum(var) / V^2 and ZNE sum w_i^2 var_i (Giurgica-Tiron et al.
    2020).  mitigate_readout clips, so this is the unclipped estimator's stderr.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    base = circuit
    if config.dd_sequence == "XX":
        base = dynamical_decoupling(base, model)
    variants = (
        pauli_twirl(base, config.twirl_variants, seed)
        if config.twirl_variants > 1
        else [base]
    )
    confusions = [model.readout.get(q, np.eye(2)) for q in meas_qubits]
    coeffs = parity_signs(1 << len(meas_qubits))
    if config.readout:
        coeffs = _per_bit(coeffs, [np.linalg.inv(c) for c in confusions])
    scale_list = tuple(config.zne_scales) or (1.0,)
    seeds = np.random.SeedSequence(seed).generate_state(len(variants) * len(scale_list))
    vals = np.zeros((len(scale_list), len(variants)))
    realized = np.zeros_like(vals)  # variants differ in noisy-gate count, so average
    variances = np.zeros_like(vals)
    for vi, var in enumerate(variants):
        folds = [fold_circuit(var, s) for s in scale_list]
        tails = [folded.gates[len(var.gates):] for folded, _ in folds]
        dists = _distributions(var, tails, model, meas_qubits)
        for si, (probs, (_, r)) in enumerate(zip(dists, folds)):
            counts = _draw(probs, shots, int(seeds[vi * len(scale_list) + si]))
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
    name: str,
    t: float,
    u: float,
    plan,
    phi: float,
    shots: int,
    seed: int,
    model: NoiseModel,
    config: MitigationConfig,
    kind: str = "retarded",
) -> MeasurementRecord:
    """Full (anti)commutator series for one dimer pair under noise (kind as in dimer_suite).

    Per time point the full gate-level point circuit runs through the configured
    mitigation stack; estimates and stderrs carry the 2/sin(phi) estimator scaling.
    """
    source, probe = DIMER_PAIRS[name]
    lam = LAMBDA_BY_KIND[kind]
    circuits, meas_qubits, sign = direct_series_circuits(source, probe, t, u, plan, phi, lam)
    taus = time_grid(plan)
    seeds = np.random.SeedSequence(seed).generate_state(len(taus))
    estimates, stderrs = [], []
    for k, circuit in enumerate(circuits):
        parity, err = noisy_parity_estimate(circuit, meas_qubits, model, shots, int(seeds[k]), config)
        estimates.append(2.0 * sign * parity / math.sin(phi))
        stderrs.append(2.0 * err / abs(math.sin(phi)))
    return MeasurementRecord(taus, tuple(estimates), tuple(stderrs), shots, seed, "direct", phi, lam)
