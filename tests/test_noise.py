import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hubbard_gf.circuit import Circuit, circuit_unitary, simulate
from hubbard_gf.noise import (
    VIRTUAL_KINDS,
    MitigationConfig,
    NO_MITIGATION,
    NoiseModel,
    confusion,
    dynamical_decoupling,
    fold_circuit,
    kolkata_dimer_model,
    mitigate_readout,
    noisy_distribution,
    noisy_parity_estimate,
    pauli_twirl,
    run_noisy,
    zne,
)
from hubbard_gf.statevector import (
    ONE_QUBIT_KINDS,
    TWO_QUBIT_KINDS,
    ZERO_QUBIT_KINDS,
    GateOp,
    apply_gate_inplace,
    apply_matrix_inplace,
    StateVector,
    marginalize,
    parity_expectation,
    sample_counts,
)


def bell_circuit(n=2):
    return Circuit(n, (GateOp("H", (0,)), GateOp("CNOT", (0, 1))))


def test_model_validation_and_json_round_trip(tmp_path):
    with pytest.raises(ValueError):
        NoiseModel(2, p1={0: 1.5})
    with pytest.raises(ValueError):
        NoiseModel(2, readout={0: np.array([[0.9, 0.2], [0.1, 0.9]])})
    model = kolkata_dimer_model(idle_rate=1e4)
    path = tmp_path / "model.json"
    model.to_json(path)
    back = NoiseModel.from_json(path)
    assert back.p1 == model.p1
    assert back.p2 == model.p2
    assert back.durations == model.durations
    np.testing.assert_allclose(back.readout[3], model.readout[3])
    assert back.metadata["T1"] == model.metadata["T1"]


def test_zero_noise_bit_identical_to_noiseless_sampling():
    c = bell_circuit()
    model = NoiseModel.zero(2)
    got = run_noisy(c, model, shots=500, seed=11)
    state = simulate(c)
    sample_seed = int(np.random.SeedSequence([11, 0]).generate_state(1)[0])
    want = sample_counts(state, (0, 1), 500, sample_seed)
    assert got.tolist() == want.tolist()


@st.composite
def basis_readouts(draw):
    """A basis state j of 1-5 qubits, an ordered subset of them to read, and shots."""
    n = draw(st.integers(1, 5))
    j = draw(st.integers(0, (1 << n) - 1))
    order = draw(st.permutations(range(n)))
    qubits = tuple(order[: draw(st.integers(1, n))])
    return n, j, qubits, draw(st.integers(1, 10_000))


@settings(max_examples=50, deadline=None)
@given(basis_readouts())
def test_outcome_index_convention(case):
    # one histogram format everywhere: entry k counts outcome k, bit i of k is qubits[i]
    n, j, qubits, shots = case
    outcome = sum(((j >> q) & 1) << i for i, q in enumerate(qubits))
    want = [0] * (1 << len(qubits))
    want[outcome] = shots
    counts = sample_counts(StateVector.basis(n, j), qubits, shots, seed=0)
    assert counts.tolist() == want
    prep = Circuit(n, tuple(GateOp("X", (q,)) for q in range(n) if (j >> q) & 1))
    assert run_noisy(prep, NoiseModel.zero(n), shots, 0, qubits).tolist() == want
    assert parity_expectation(counts, shots) == (-1) ** bin(outcome).count("1")
    identity = [np.eye(2)] * len(qubits)
    assert mitigate_readout(counts, identity).probs.tolist() == (counts / shots).tolist()


def test_run_noisy_seeded_counts_are_pinned():
    # the seed contract: an engine change that draws the shots anew fails here
    from hubbard_gf.circuit import TrotterPlan
    from hubbard_gf.greens import DIMER_PAIRS, direct_point_circuit

    source, probe = DIMER_PAIRS["y2y2"]
    circuit, meas_qubits, _ = direct_point_circuit(
        source, probe, 1.0, 4.0, TrotterPlan(0.314, 6), 3, math.pi / 2, math.pi / 2
    )
    counts = run_noisy(circuit, kolkata_dimer_model(), 2048, 11, meas_qubits)
    # entry j counts outcome j (bit i = meas_qubits[i])
    assert counts.tolist() == [524, 463, 517, 544]


def test_run_noisy_width_mismatch():
    with pytest.raises(ValueError):
        run_noisy(bell_circuit(), NoiseModel.zero(3), 10, 0)


def test_run_noisy_refuses_width_beyond_density_matrix_capacity():
    # rho at 13 qubits would hold 4^13 complex values (1 GiB); refused before any allocation
    c = Circuit(13, (GateOp("H", (0,)), GateOp("CNOT", (0, 12))))
    model = NoiseModel(13, p1={0: 1e-3})
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="capacity"):
            run_noisy(c, model, 10, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _random_gate(rng, kind, targets):
    if kind == "DELAY":
        return GateOp(kind, targets, float(rng.uniform(0, 1e-6)))
    if kind in ("RZ", "PHASE", "CPHASE", "GPHASE"):
        return GateOp(kind, targets, float(rng.uniform(-math.pi, math.pi)))
    return GateOp(kind, targets)


def _random_model(rng, n):
    return NoiseModel(
        n,
        p1={q: float(rng.uniform(0, 0.3)) for q in range(n)},
        p2={(a, b): float(rng.uniform(0, 0.3)) for a in range(n) for b in range(a + 1, n)},
        readout={q: confusion(*rng.uniform(0, 0.2, size=2)) for q in range(n)},
        idle_rate={q: float(rng.uniform(1e5, 1e7)) for q in range(n)},
        durations=kolkata_dimer_model().durations,
    )


_ALL_KINDS = ONE_QUBIT_KINDS + TWO_QUBIT_KINDS + ZERO_QUBIT_KINDS


def _n_targets(kind):
    return 1 if kind in ONE_QUBIT_KINDS else 2 if kind in TWO_QUBIT_KINDS else 0


@st.composite
def noisy_cases(draw):
    n = draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gates = []
    for kind in draw(st.lists(st.sampled_from(_ALL_KINDS), min_size=1, max_size=6)):
        targets = tuple(int(q) for q in rng.permutation(n)[: _n_targets(kind)])
        gates.append(_random_gate(rng, kind, targets))
    measured = tuple(int(q) for q in rng.permutation(n)[: draw(st.integers(1, n))])
    return Circuit(n, tuple(gates)), _random_model(rng, n), measured


def branch_sum_distribution(circuit, model, measured):
    """Readout distribution as the explicit sum over every Pauli error branch:
    one pure state per combination of errors, weighted by its probability."""
    from hubbard_gf.noise import _drift_gates, _error_prob, schedule_ops

    n = circuit.n_qubits
    states = np.zeros((1, 1 << n), dtype=complex)
    states[0, 0] = 1.0
    weights = np.ones(1)
    ops, tail = schedule_ops(circuit, model)
    for g, gaps in ops:
        for drift in _drift_gates(gaps, model):
            apply_gate_inplace(states, drift, n)
        apply_gate_inplace(states, g, n)
        p = _error_prob(g, model)
        if p > 0:
            k = len(g.targets)
            branch_states, branch_weights = [states], [weights * (1 - p)]
            for combo in range(1, 4**k):
                s = states.copy()
                for pos, q in enumerate(g.targets):
                    letter = "IXYZ"[(combo >> (2 * pos)) & 3]
                    if letter != "I":
                        apply_gate_inplace(s, GateOp(letter, (q,)), n)
                branch_states.append(s)
                branch_weights.append(weights * p / (4**k - 1))
            states, weights = np.concatenate(branch_states), np.concatenate(branch_weights)
    for drift in _drift_gates(tail, model):
        apply_gate_inplace(states, drift, n)
    probs = weights @ (np.abs(states) ** 2)
    observed = np.zeros(1 << len(measured))
    for index, p in enumerate(probs):
        true_bits = [(index >> q) & 1 for q in measured]
        for out in range(1 << len(measured)):
            weight = p
            for i, (q, b) in enumerate(zip(measured, true_bits)):
                weight *= model.readout[q][b, (out >> i) & 1]
            observed[out] += weight
    return observed / observed.sum()


@settings(max_examples=100, deadline=None)
@given(noisy_cases())
def test_density_matrix_equals_sum_over_pauli_error_branches(case):
    circuit, model, measured = case
    branches = math.prod(
        4 ** len(g.targets) for g in circuit.gates if len(g.targets) and g.kind not in VIRTUAL_KINDS
    )
    assume(branches <= 4096)
    got = noisy_distribution(circuit, model, measured)
    want = branch_sum_distribution(circuit, model, measured)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@st.composite
def fusable_cases(draw):
    """Up to 40 gates of every kind on 2-5 qubits, most of them reusing the
    previous gate's qubits in either order, so runs grow long and then flush."""
    n = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gates, last = [], tuple(int(q) for q in rng.permutation(n)[:2])
    for kind in draw(st.lists(st.sampled_from(_ALL_KINDS), min_size=1, max_size=40)):
        pool = rng.permutation(last) if rng.random() < 0.7 else rng.permutation(n)
        gates.append(_random_gate(rng, kind, tuple(int(q) for q in pool[: _n_targets(kind)])))
        if len(gates[-1].targets) == 2:
            last = gates[-1].targets
    measured = tuple(int(q) for q in rng.permutation(n)[: draw(st.integers(1, n))])
    return Circuit(n, tuple(gates)), _random_model(rng, n), measured


def per_gate_distribution(circuit, model, measured):
    """Unfused reference: one _superoperator per gate and idle drift, applied to rho in order."""
    from hubbard_gf.noise import _drift_gates, _error_prob, _readout, _superoperator, schedule_ops

    n = circuit.n_qubits
    rho = np.zeros(1 << (2 * n), dtype=complex)
    rho[0] = 1.0

    def apply(g):
        s = _superoperator(g, _error_prob(g, model))
        apply_matrix_inplace(rho, s, g.targets + tuple(n + t for t in g.targets), 2 * n)

    ops, tail = schedule_ops(circuit, model)
    for g, gaps in ops:
        for drift in _drift_gates(gaps, model):
            apply(drift)
        if g.kind not in ("GPHASE", "DELAY"):
            apply(g)
    for drift in _drift_gates(tail, model):
        apply(drift)
    return _readout(marginalize(rho[:: (1 << n) + 1].real, n, measured), measured, model)


@settings(max_examples=60, deadline=None)
@given(fusable_cases())
def test_fused_runs_equal_per_gate_superoperators(case):
    circuit, model, measured = case
    got = noisy_distribution(circuit, model, measured)
    want = per_gate_distribution(circuit, model, measured)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def test_fusion_cuts_density_matrix_passes(monkeypatch):
    # a README dimer point circuit, twirled and folded to scale 2.0
    import hubbard_gf.noise as noise
    from hubbard_gf.circuit import TrotterPlan
    from hubbard_gf.greens import DIMER_PAIRS, direct_point_circuit

    source, probe = DIMER_PAIRS["y2y2"]
    circuit, meas_qubits, _ = direct_point_circuit(
        source, probe, 1.0, 4.0, TrotterPlan(0.314, 6), 6, math.pi / 2, math.pi / 2
    )
    folded, _ = fold_circuit(pauli_twirl(circuit, 4, 42)[1], 2.0)
    passes = []
    kernel = noise.apply_matrix_inplace

    def counting(vec, m, bits, n):
        if vec.ndim == 1:  # rho itself, not a cached superoperator being embedded
            passes.append(bits)
        kernel(vec, m, bits, n)

    monkeypatch.setattr(noise, "apply_matrix_inplace", counting)
    noisy_distribution(folded, kolkata_dimer_model(), meas_qubits)
    assert 5 * len(passes) <= len(folded.gates)
    assert all(len(bits) in (2, 4) for bits in passes)


def _folded_one_by_one(circuit, meas_qubits, model, shots, seed, config):
    """noisy_parity_estimate as a run_noisy call per twirl variant and folded circuit."""
    base = dynamical_decoupling(circuit, model) if config.dd_sequence == "XX" else circuit
    variants = (
        pauli_twirl(base, config.twirl_variants, seed) if config.twirl_variants > 1 else [base]
    )
    confusions = [model.readout.get(q, np.eye(2)) for q in meas_qubits]
    scales = tuple(config.zne_scales) or (1.0,)
    seeds = np.random.SeedSequence(seed).generate_state(len(variants) * len(scales))

    def eval_at(scale):
        si = scales.index(scale)
        vals, realized = [], []
        for vi, var in enumerate(variants):
            folded, r = fold_circuit(var, scale)
            counts = run_noisy(folded, model, shots, int(seeds[vi * len(scales) + si]), meas_qubits)
            dist = mitigate_readout(counts, confusions).probs if config.readout else counts / shots
            vals.append(parity_expectation(dist))
            realized.append(r)
        return float(np.mean(vals)), float(np.mean(realized))

    if config.zne_scales:
        means, realized = zip(*map(eval_at, config.zne_scales))
        return zne(realized, means, config.zne_order).value
    return eval_at(1.0)[0]


@st.composite
def mitigated_cases(draw):
    circuit, model, measured = draw(fusable_cases())
    if not draw(st.booleans()):  # drift off: the schedule is skipped
        model = NoiseModel(model.n_qubits, model.p1, model.p2, model.readout,
                           durations=model.durations)
    scales = sorted(set(draw(st.lists(st.floats(1.0, 3.5), min_size=0, max_size=4))))
    config = MitigationConfig(
        readout=draw(st.booleans()),
        twirl_variants=draw(st.integers(1, 3)),
        dd_sequence=draw(st.sampled_from(("none", "XX"))),
        zne_scales=tuple(scales),
        zne_order=draw(st.integers(0, max(0, len(scales) - 1))),
    )
    return circuit, model, measured, config, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(mitigated_cases())
def test_shared_prefix_equals_each_folded_circuit(case):
    # rho after a variant's shared part is copied for every ZNE scale; each copy
    # must end exactly where the whole folded circuit does, and so must the estimate
    from hubbard_gf.noise import _distributions

    circuit, model, measured, config, seed = case
    base = dynamical_decoupling(circuit, model) if config.dd_sequence == "XX" else circuit
    scales = config.zne_scales or (1.0,)
    for var in pauli_twirl(base, config.twirl_variants, seed):
        folds = [fold_circuit(var, s)[0] for s in scales]
        shared = _distributions(var, [f.gates[len(var.gates):] for f in folds], model, measured)
        for got, folded in zip(shared, folds):
            assert np.array_equal(got, noisy_distribution(folded, model, measured))
    try:
        want = _folded_one_by_one(circuit, measured, model, 64, seed, config)
    except ValueError as e:  # too few distinct realized scales for the fit
        with pytest.raises(ValueError, match=str(e)):
            noisy_parity_estimate(circuit, measured, model, 64, seed, config)
        return
    assert noisy_parity_estimate(circuit, measured, model, 64, seed, config)[0] == want


def _readme_point(k=6):
    from hubbard_gf.circuit import TrotterPlan
    from hubbard_gf.greens import DIMER_PAIRS, direct_point_circuit

    source, probe = DIMER_PAIRS["y2y2"]
    circuit, meas_qubits, _ = direct_point_circuit(
        source, probe, 1.0, 4.0, TrotterPlan(0.314, 6), k, math.pi / 2, math.pi / 2
    )
    return circuit, meas_qubits


def test_shared_prefix_cuts_density_matrix_passes(monkeypatch):
    # at scales 1, 1.5 and 2 each variant's circuit G is evolved once, not three
    # times: the passes over rho drop from about 4.5 |G| worth to about 2.5 |G|
    import hubbard_gf.noise as noise

    circuit, meas_qubits = _readme_point()
    model = kolkata_dimer_model()
    config = MitigationConfig(twirl_variants=4, zne_scales=(1.0, 1.5, 2.0), zne_order=1)
    passes = []
    kernel = noise.apply_matrix_inplace

    def counting(vec, m, bits, n):
        if vec.ndim == 1:  # rho itself, not a cached superoperator being embedded
            passes.append(bits)
        kernel(vec, m, bits, n)

    monkeypatch.setattr(noise, "apply_matrix_inplace", counting)
    shared, _ = noisy_parity_estimate(circuit, meas_qubits, model, 4096, 42, config)
    shared_passes = len(passes)
    passes.clear()
    one_by_one = _folded_one_by_one(circuit, meas_qubits, model, 4096, 42, config)
    assert shared == one_by_one
    assert shared_passes <= 2.5 / 4.5 * len(passes)


def test_twirl_table_matches_clifford_conjugation():
    from hubbard_gf.noise import _twirl_table
    from hubbard_gf.pauli import LETTER_MATRICES, CliffordCircuit, PauliString, clifford_conjugate
    from hubbard_gf.statevector import gate_matrix

    table = _twirl_table()
    assert len(table) == 32
    for (kind, la, lb), (post_a, post_b, flip) in table.items():
        pre = PauliString.from_letter_map(2, {0: la, 1: lb})
        post = clifford_conjugate(CliffordCircuit(((kind, (0, 1)),)), pre)
        assert (post.letter_at(0), post.letter_at(1), post.phase_exp == 2) == (post_a, post_b, flip)
        assert post.phase_exp in (0, 2)
        # the sandwich leaves the gate invariant: U P_pre = sign P_post U (bit 0 = first target)
        u = gate_matrix(GateOp(kind, (0, 1)))
        p_pre = np.kron(LETTER_MATRICES[lb], LETTER_MATRICES[la])
        p_post = np.kron(LETTER_MATRICES[post_b], LETTER_MATRICES[post_a])
        np.testing.assert_allclose(p_post @ u @ p_pre, (-1 if flip else 1) * u, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(fusable_cases(), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_twirl_draws_one_pauli_pair_per_gate(case, n_variants, seed):
    # the table and the one batched draw give the circuits of one two-letter
    # draw and one Clifford conjugation per CX/CZ
    from hubbard_gf.pauli import CliffordCircuit, PauliString, clifford_conjugate

    circuit = case[0]
    rng = np.random.default_rng(seed)
    for var in pauli_twirl(circuit, n_variants, seed):
        gates = []
        for g in circuit.gates:
            if g.kind not in ("CNOT", "CZ"):
                gates.append(g)
                continue
            la, lb = (str(x) for x in rng.choice(("I", "X", "Y", "Z"), size=2))
            post = clifford_conjugate(
                CliffordCircuit(((g.kind, (0, 1)),)), PauliString.from_letter_map(2, {0: la, 1: lb})
            )
            gates += [GateOp(x, (q,)) for x, q in zip((la, lb), g.targets) if x != "I"]
            gates.append(g)
            gates += [GateOp(post.letter_at(i), (q,)) for i, q in enumerate(g.targets)
                      if post.letter_at(i) != "I"]
            if post.phase_exp == 2:
                gates.append(GateOp("GPHASE", (), math.pi))
        assert var.gates == tuple(gates)


def test_readme_mitigated_series_is_pinned():
    # README noisy example: y2y2, 6 steps, 4096 shots, seed 42, readout
    # mitigation, twirl 4, ZNE 1/1.5/2 at order 1
    from hubbard_gf.circuit import TrotterPlan
    from hubbard_gf.noise import noisy_dimer_series

    config = MitigationConfig(readout=True, twirl_variants=4, zne_scales=(1.0, 1.5, 2.0),
                              zne_order=1)
    rec = noisy_dimer_series("y2y2", 1.0, 4.0, TrotterPlan(0.314, 6), math.pi / 2, 4096,
                             42, kolkata_dimer_model(), config)
    assert rec.estimates == (
        2.0440025551982726,
        1.6215511234788758,
        0.6362004552814589,
        0.1281858455119542,
        0.2537670341888566,
        0.48503327130561114,
        0.2795774713548312,
    )
    assert rec.stderrs == (
        0.012360782438772566,
        0.026701417443376122,
        0.033959198981290156,
        0.0351939622449518,
        0.0351091423310974,
        0.03494523168913878,
        0.035161577345586045,
    )


def test_single_cnot_depolarizing_rate():
    # two-qubit depolarizing with p = 1.62e-2: 12 of the 15 Paulis disturb |00>
    p = 1.62e-2
    model = NoiseModel(2, p2={(0, 1): p})
    c = Circuit(2, (GateOp("CNOT", (0, 1)),))
    shots = 100_000
    counts = run_noisy(c, model, shots, seed=5)
    frac = 1 - counts[0] / shots
    expect = p * 12 / 15
    sigma = math.sqrt(expect * (1 - expect) / shots)
    assert abs(frac - expect) < 4 * sigma


def test_readout_only_model_flip_rate():
    model = NoiseModel(1, readout={0: confusion(7.4e-3, 7.4e-3)})
    c = Circuit(1, (GateOp("X", (0,)), GateOp("X", (0,))))  # stays |0>
    shots = 100_000
    counts = run_noisy(c, model, shots, seed=6)
    frac = counts[1] / shots
    sigma = math.sqrt(7.4e-3 * (1 - 7.4e-3) / shots)
    assert abs(frac - 7.4e-3) < 4 * sigma


def test_virtual_gates_carry_no_noise():
    # a circuit of RZ/Z gates only cannot diverge even at p = 1
    model = NoiseModel(1, p1={0: 1.0})
    c = Circuit(1, (GateOp("RZ", (0,), 0.3), GateOp("Z", (0,))))
    counts = run_noisy(c, model, 100, seed=0)
    assert counts.tolist() == [100, 0]


def test_readout_mitigation_identity_and_round_trip():
    c_id = [np.eye(2), np.eye(2)]
    counts = np.array([700, 0, 0, 300])
    out = mitigate_readout(counts, c_id)
    assert out.probs.tolist() == [0.7, 0.0, 0.0, 0.3]
    assert out.clipped_mass == 0.0
    # forward-apply a known confusion on exact distributions, then invert exactly
    c0, c1 = confusion(0.08, 0.03), confusion(0.02, 0.12)
    p_true = [0.55, 0.25, 0.12, 0.08]  # index b0 + 2 * b1
    p_obs = np.zeros(4)
    for b, p in enumerate(p_true):
        b0, b1 = b & 1, b >> 1
        for o0 in (0, 1):
            for o1 in (0, 1):
                p_obs[o0 + 2 * o1] += p * c0[b0, o0] * c1[b1, o1]
    counts = np.array([int(p_obs[o] * 10**8) for o in range(4)])
    out = mitigate_readout(counts, [c0, c1])
    for b, p in enumerate(p_true):
        assert out.probs[b] == pytest.approx(p, abs=1e-6)


def test_readout_mitigation_sampled_round_trip():
    model = NoiseModel(2, readout={0: confusion(0.05, 0.02), 1: confusion(0.01, 0.04)})
    c = bell_circuit()
    shots = 200_000
    counts = run_noisy(c, model, shots, seed=9)
    out = mitigate_readout(counts, [model.readout[0], model.readout[1]])
    for outcome in (0, 3):
        assert out.probs[outcome] == pytest.approx(0.5, abs=4 * math.sqrt(0.25 / shots) + 5e-3)


def test_readout_mitigation_singular():
    with pytest.raises(ValueError):
        mitigate_readout(np.array([10, 0]), [np.array([[0.5, 0.5], [0.5, 0.5]])])


def test_twirl_variants_unitarily_equivalent():
    rng = np.random.default_rng(0)
    base = Circuit(
        3,
        (
            GateOp("H", (0,)),
            GateOp("CNOT", (0, 1)),
            GateOp("RZ", (1,), 0.37),
            GateOp("CZ", (1, 2)),
            GateOp("XHALF", (2,)),
        ),
    )
    ref = circuit_unitary(base)
    variants = pauli_twirl(base, 100, seed=3)  # the experiment's repetition count
    assert len(variants) == 100
    for var in variants:
        got = circuit_unitary(var)
        np.testing.assert_allclose(got, ref, atol=1e-12)  # exact, sign carried by GPHASE


def test_twirl_identity_sandwich_possible():
    base = Circuit(2, (GateOp("CNOT", (0, 1)),))
    variants = pauli_twirl(base, 40, seed=1)
    assert any(len(v.gates) == 1 for v in variants)
    with pytest.raises(ValueError):
        pauli_twirl(base, 0, seed=1)


def test_dd_no_idle_leaves_circuit_unchanged():
    model = kolkata_dimer_model()
    c = Circuit(2, (GateOp("H", (0,)), GateOp("H", (1,))))
    assert dynamical_decoupling(c, model) is c


def ramsey_circuit():
    # qubit 0 sits in |+> while qubits 1,2 run slow gates; the CNOT(1->0) blocks
    # the closing Hadamard so the idle window is mid-circuit (control stays |0>,
    # so the blocker acts as the identity)
    gates = [GateOp("H", (0,))]
    gates += [GateOp("CNOT", (1, 2))] * 8
    gates += [GateOp("CNOT", (1, 0)), GateOp("H", (0,))]
    return Circuit(3, tuple(gates))


def test_dd_inserts_pairs_and_preserves_unitary():
    model = kolkata_dimer_model()
    c = ramsey_circuit()
    dressed = dynamical_decoupling(c, model)
    x_count = sum(1 for g in dressed.gates if g.kind == "X")
    assert x_count % 2 == 0 and x_count > 0
    ref = circuit_unitary(c)
    got = circuit_unitary(dressed)
    np.testing.assert_allclose(got, ref, atol=1e-12)


def test_dd_refocuses_coherent_idle_drift():
    # Ramsey-style: drift during the mid-circuit idle hurts, the XX pair restores
    model = kolkata_dimer_model(idle_rate=2e5)
    c = ramsey_circuit()
    plain = run_noisy_fidelity(c, model)
    dressed = dynamical_decoupling(c, model)
    dd = run_noisy_fidelity(dressed, model)
    assert dd >= plain
    assert dd > 0.999
    assert plain < 0.9


def _stage_counts(circuit, original):
    """(label, number of the original's gates in the stage) per barrier of circuit.

    The original's gates are found in order by identity: twirling and DD insert
    new GateOp objects and keep the original ones.
    """
    positions, j = [], 0
    for k, g in enumerate(circuit.gates):
        if j < len(original.gates) and g is original.gates[j]:
            positions.append(k)
            j += 1
    assert j == len(original.gates)
    bounds = [pos for pos, _ in circuit.barriers] + [len(circuit.gates)]
    return [
        (label, sum(lo <= k < hi for k in positions))
        for (lo, label), hi in zip(circuit.barriers, bounds[1:])
    ]


def test_twirl_and_dd_keep_every_gate_in_its_barrier_stage():
    from hubbard_gf.circuit import TrotterPlan
    from hubbard_gf.greens import DIMER_PAIRS, direct_point_circuit

    source, probe = DIMER_PAIRS["y2y2"]
    circuit, _, _ = direct_point_circuit(
        source, probe, 1.0, 4.0, TrotterPlan(0.314, 6), 2, math.pi / 2, math.pi / 2
    )
    labels = [label for _, label in circuit.barriers]
    assert {"perturbation", "evolution", "measurement"} <= set(labels)
    want = _stage_counts(circuit, circuit)
    dressed = [*pauli_twirl(circuit, 4, 42), dynamical_decoupling(circuit, kolkata_dimer_model(idle_rate=2e5))]
    for c in dressed:
        assert len(c.gates) > len(circuit.gates)  # something was inserted
        assert _stage_counts(c, circuit) == want
        np.testing.assert_allclose(circuit_unitary(c), circuit_unitary(circuit), atol=1e-10)


def run_noisy_fidelity(circuit, model):
    # deterministic coherent part only: one statevector, no sampling
    from hubbard_gf.noise import _drift_gates, schedule_ops
    from hubbard_gf.statevector import apply_gate_inplace

    n = circuit.n_qubits
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = 1.0
    ops, tail = schedule_ops(circuit, model)
    for g, gaps in ops:
        for drift in _drift_gates(gaps, model):
            apply_gate_inplace(amps, drift, n)
        apply_gate_inplace(amps, g, n)
    for drift in _drift_gates(tail, model):
        apply_gate_inplace(amps, drift, n)
    ideal = simulate(Circuit(n, tuple(g for g in circuit.gates if g.kind != "DELAY")))
    return abs(np.vdot(ideal.amps, amps)) ** 2


def test_fold_circuit_counts_and_unitary():
    c = bell_circuit()
    for scale in (1.0, 1.5, 2.0, 3.0):
        folded, realized = fold_circuit(c, scale)
        np.testing.assert_allclose(circuit_unitary(folded), circuit_unitary(c), atol=1e-12)
        assert realized == pytest.approx(scale, abs=0.5)
    folded, realized = fold_circuit(c, 3.0)
    assert sum(1 for g in folded.gates if g.kind in ("H", "CNOT")) == 6
    assert realized == 3.0
    with pytest.raises(ValueError):
        fold_circuit(c, 0.5)


def test_zne_polynomial_recovery():
    scales = [1.0, 1.5, 2.0, 2.5, 3.0]
    res = zne(scales, [1 - 0.1 * s - 0.02 * s * s for s in scales], order=2)
    assert res.value == pytest.approx(1.0, abs=1e-10)
    assert res.residual < 1e-12


def test_zne_constant_runner_and_validation():
    res = zne([1.0, 1.5, 2.0], [0.625] * 3, order=1)
    assert res.value == pytest.approx(0.625, abs=1e-12)
    with pytest.raises(ValueError):
        zne([2.0, 1.0], [2.0, 1.0], order=1)
    with pytest.raises(ValueError):
        zne([1.0, 2.0], [1.0, 2.0], order=2)
    with pytest.raises(ValueError):
        zne([1.0, 1.0, 1.0], [1.0] * 3, order=1)  # degenerate realized scales


def test_zne_uses_realized_abscissa():
    # runner reports realized scales shifted from the requested ones
    def runner(s):
        realized = 1 + round((s - 1) * 4) / 4
        return 2.0 - 0.5 * realized, realized

    values, realized = zip(*map(runner, [1.0, 1.4, 2.2]))
    res = zne(realized, values, order=1)
    assert res.value == pytest.approx(2.0, abs=1e-10)
    assert res.scales[1] == pytest.approx(1.5)


def test_mitigation_config_validation():
    with pytest.raises(ValueError):
        MitigationConfig(zne_scales=(2.0, 1.0))
    with pytest.raises(ValueError):
        MitigationConfig(zne_scales=(1.0, 2.0), zne_order=2)
    assert NO_MITIGATION.twirl_variants == 1


def test_noisy_parity_estimate_zero_model_matches_exact():
    from hubbard_gf.statevector import GateOp as G

    c = Circuit(2, (G("H", (0,)), G("CNOT", (0, 1))))
    model = NoiseModel.zero(2)
    est, _ = noisy_parity_estimate(c, (0, 1), model, 4096, 3, NO_MITIGATION)
    assert est == pytest.approx(1.0, abs=0.05)  # Bell pair parity +1


def _skewed_pair():
    """A 2-qubit circuit whose outcomes all have probability >= 0.05, under CNOT
    noise and strong, asymmetric readout error (no 1-qubit gate noise, so every
    twirl variant has the same distribution)."""
    c = Circuit(2, (GateOp("XHALF", (0,)), GateOp("RZ", (0,), 0.7), GateOp("XHALF", (0,)),
                    GateOp("CNOT", (0, 1)), GateOp("XHALF", (1,))))
    model = NoiseModel(2, p2={(0, 1): 0.05},
                       readout={0: confusion(0.1, 0.08), 1: confusion(0.12, 0.1)})
    return c, model


def test_propagated_stderr_identities():
    from hubbard_gf.statevector import shot_stderr

    c, model = _skewed_pair()
    # no mitigation: the stderr of one draw's parity
    value, err = noisy_parity_estimate(c, (0, 1), model, 1024, 5, NO_MITIGATION)
    assert err == pytest.approx(float(shot_stderr(value, 1024)), rel=1e-12)
    # an identity confusion inverts to the signs themselves: readout on changes nothing
    exact = NoiseModel(2, p2=model.p2, readout={0: np.eye(2), 1: np.eye(2)})
    config = MitigationConfig(readout=False, twirl_variants=2, zne_scales=(1.0, 2.0, 3.0),
                              zne_order=1)
    off = noisy_parity_estimate(c, (0, 1), exact, 1024, 5, config)
    on = noisy_parity_estimate(c, (0, 1), exact, 1024, 5, replace(config, readout=True))
    assert on == pytest.approx(off, rel=1e-12)
    # the ZNE value is the weighted sum of its samples
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        scales = np.sort(rng.uniform(1.0, 4.0, n))
        samples = rng.uniform(-1.0, 1.0, n)
        res = zne(scales, samples, order=int(rng.integers(0, n)))
        assert sum(res.weights) == pytest.approx(1.0, abs=1e-12)
        assert float(np.dot(res.weights, samples)) == pytest.approx(res.value, abs=1e-12)
    with pytest.raises(ValueError, match="one sample per scale"):
        zne([1.0, 2.0, 3.0], [1.0, 2.0], order=1)


def test_propagated_stderr_matches_empirical_spread():
    # readout inversion, two twirl variants and ZNE at scales 1 and 3 (weights
    # 1.5 and -0.5): over 120 seeds the mean propagated stderr of the value is
    # within 20% of its empirical standard deviation
    c, model = _skewed_pair()
    config = MitigationConfig(readout=True, twirl_variants=2, zne_scales=(1.0, 3.0), zne_order=1)
    out = np.array([noisy_parity_estimate(c, (0, 1), model, 1024, s, config) for s in range(120)])
    assert np.mean(out[:, 1]) == pytest.approx(np.std(out[:, 0], ddof=1), rel=0.2)
