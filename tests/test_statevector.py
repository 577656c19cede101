import numpy as np
import pytest
from scipy.linalg import expm

from hubbard_gf.circuit import Circuit, pauli_rotation_gates, simulate
from hubbard_gf.pauli import PauliString
from hubbard_gf.statevector import (
    ONE_QUBIT_KINDS,
    TWO_QUBIT_KINDS,
    ZERO_QUBIT_KINDS,
    GateOp,
    apply_gate,
    apply_gate_inplace,
    apply_matrix_inplace,
    apply_pauli,
    basis_state,
    expectation_pauli,
    gate_matrix,
    inverse_gate,
    marginal_probs,
    marginalize,
    parity_expectation,
    parity_signs,
    sample_counts,
)


def dense_on(n, g):
    return embed(n, gate_matrix(g), g.targets)


def embed(n, m, targets):
    """Full 2^n matrix of m acting on targets (bit i of m's index = targets[i])."""
    dim = 2 ** n
    full = np.zeros((dim, dim), dtype=complex)
    for b in range(dim):
        sub = 0
        for pos, q in enumerate(targets):
            sub |= ((b >> q) & 1) << pos
        base = b
        for q in targets:
            base &= ~(1 << q)
        for sub_out in range(2 ** len(targets)):
            amp = m[sub_out, sub]
            if amp:
                b_out = base
                for pos, q in enumerate(targets):
                    b_out |= ((sub_out >> pos) & 1) << q
                full[b_out, b] += amp
    return full


def test_hadamard_on_zero():
    s = apply_gate(basis_state(1), GateOp("H", (0,)))
    np.testing.assert_allclose(s, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-15)


def test_rz_phase_convention():
    # diag(e^{-i theta/2}, e^{i theta/2})
    theta = 0.731
    s = apply_gate(np.eye(2, dtype=complex)[1], GateOp("RZ", (0,), theta))
    np.testing.assert_allclose(s[1], np.exp(1j * theta / 2), atol=1e-15)


def test_xhalf_convention():
    s = apply_gate(basis_state(1), GateOp("XHALF", (0,)))
    np.testing.assert_allclose(s, [1 / np.sqrt(2), -1j / np.sqrt(2)], atol=1e-15)


def test_cnot_and_cz_match_dense():
    rng = np.random.default_rng(0)
    for kind in ("CNOT", "CZ"):
        for targets in [(0, 2), (2, 0), (1, 2)]:
            g = GateOp(kind, targets)
            amps = rng.normal(size=8) + 1j * rng.normal(size=8)
            amps /= np.linalg.norm(amps)
            got = apply_gate(amps, g)
            np.testing.assert_allclose(got, dense_on(3, g) @ amps, atol=1e-12)


def test_all_gates_match_dense_embedding():
    rng = np.random.default_rng(1)
    gates = [
        GateOp("H", (1,)),
        GateOp("X", (0,)),
        GateOp("Y", (2,)),
        GateOp("Z", (1,)),
        GateOp("XHALF", (2,)),
        GateOp("XHALF_DG", (0,)),
        GateOp("RZ", (1,), 1.234),
        GateOp("GPHASE", (), 0.61),
        GateOp("DELAY", (1,), 3e-7),
    ]
    for g in gates:
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        got = apply_gate(amps, g)
        np.testing.assert_allclose(got, dense_on(3, g) @ amps, atol=1e-12)
    # the kernel under every gate, on unitaries no gate kind names
    raw = [
        (expm(1j * np.array([[0.3, 0.1 - 0.2j], [0.1 + 0.2j, -0.4]])), (1,)),
        (_random_unitary(rng, 4), (2, 0)),
    ]
    for m, bits in raw:
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        got = amps.copy()
        apply_matrix_inplace(got, m, bits, 3)
        np.testing.assert_allclose(got, embed(3, m, bits) @ amps, atol=1e-12)


def test_gate_op_refuses_raw_matrix_kinds():
    # the vocabulary is what the builders emit: no raw-matrix U1/U2 and no CY
    for kind, targets in (("U1", (0,)), ("U2", (0, 1)), ("CY", (0, 1))):
        with pytest.raises(ValueError, match="unknown gate kind"):
            GateOp(kind, targets)


def test_dense_matrix_kernel_matches_dense_embedding():
    # any bit order, 1 to 4 bits, on a 4-bit vector; bit i of the matrix index = bits[i]
    rng = np.random.default_rng(2)
    for bits in [(2,), (0, 3), (3, 1), (2, 0, 3), (1, 3, 0, 2)]:
        dim = 2 ** len(bits)
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        vec = rng.normal(size=16) + 1j * rng.normal(size=16)
        got = vec.copy()
        apply_matrix_inplace(got, m, bits, 4)
        want = embed(4, m, bits) @ vec
        np.testing.assert_allclose(got, want, atol=1e-12)
        # leading axes are a batch: here the columns of a (16, 3) block, seen as rows
        block = rng.normal(size=(16, 3)) + 1j * rng.normal(size=(16, 3))
        got = block.copy()
        apply_matrix_inplace(got.T, m, bits, 4)
        np.testing.assert_allclose(got, embed(4, m, bits) @ block, atol=1e-12)
    for bad in [(0, 0), (4,), (-1,)]:
        with pytest.raises(ValueError):
            apply_matrix_inplace(np.zeros(16, dtype=complex), np.eye(2 ** len(bad)), bad, 4)


def test_gate_validation():
    with pytest.raises(ValueError):
        GateOp("H", (0, 1))
    with pytest.raises(ValueError):
        GateOp("CNOT", (1, 1))
    with pytest.raises(ValueError):
        GateOp("RZ", (0,))
    with pytest.raises(ValueError):
        apply_gate(basis_state(1), GateOp("H", (3,)))
    for angle in (np.inf, -np.inf, np.nan):  # e.g. an overflowed U * dtau
        with pytest.raises(ValueError, match="angle must be finite"):
            GateOp("RZ", (0,), angle)


def test_inverse_gate_round_trip():
    rng = np.random.default_rng(2)
    for g in [GateOp("H", (0,)), GateOp("XHALF", (1,)), GateOp("RZ", (0,), 0.9),
              GateOp("CNOT", (1, 0))]:
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        amps /= np.linalg.norm(amps)
        back = apply_gate(apply_gate(amps, g), inverse_gate(g))
        np.testing.assert_allclose(back, amps, atol=1e-12)


def test_pauli_application_matches_dense():
    rng = np.random.default_rng(3)
    for _ in range(30):
        w = int(rng.integers(1, 6))
        p = PauliString(w, int(rng.integers(0, 1 << w)), int(rng.integers(0, 1 << w)),
                        int(rng.integers(0, 4)))
        amps = rng.normal(size=1 << w) + 1j * rng.normal(size=1 << w)
        amps /= np.linalg.norm(amps)
        got = apply_pauli(amps, p)
        np.testing.assert_allclose(got, p.to_matrix() @ amps, atol=1e-12)


def test_pauli_rotation_identity_and_periodicity():
    s = np.eye(4, dtype=complex)[2]
    z0 = PauliString.from_letter_map(2, {0: "Z"})
    assert np.allclose(simulate(Circuit(2, tuple(pauli_rotation_gates(z0, 0.0))), s), s)
    full = simulate(Circuit(2, tuple(pauli_rotation_gates(z0, 2 * np.pi))), s)
    np.testing.assert_allclose(full, -s, atol=1e-12)
    np.testing.assert_allclose(np.abs(full) ** 2, np.abs(s) ** 2, atol=1e-12)


def test_pauli_rotation_matches_expm():
    # random Hermitian strings of width 1-4, then the 4-qubit strings XZZX, YIIZ,
    # ZZII, XYZX and -XZYI (qubit 3 first)
    rng = np.random.default_rng(4)
    strings = [
        PauliString(w, int(rng.integers(0, 1 << w)), int(rng.integers(0, 1 << w)), int(rng.integers(0, 2)) * 2)
        for w in rng.integers(1, 5, size=20).tolist()
    ]
    strings += [
        PauliString.from_letter_map(4, {3: "X", 2: "Z", 1: "Z", 0: "X"}),
        PauliString.from_letter_map(4, {3: "Y", 0: "Z"}),
        PauliString.from_letter_map(4, {3: "Z", 2: "Z"}),
        PauliString.from_letter_map(4, {3: "X", 2: "Y", 1: "Z", 0: "X"}),
        PauliString.from_letter_map(4, {3: "X", 2: "Z", 1: "Y"}, phase_exp=2),
    ]
    for p in strings:
        theta = float(rng.uniform(-3, 3))
        amps = rng.normal(size=1 << p.width) + 1j * rng.normal(size=1 << p.width)
        amps /= np.linalg.norm(amps)
        got = simulate(Circuit(p.width, tuple(pauli_rotation_gates(p, theta))), amps)
        ref = expm(-1j * theta / 2 * p.to_matrix()) @ amps
        np.testing.assert_allclose(got, ref, atol=1e-12)


def test_pauli_rotation_rejects_non_hermitian():
    with pytest.raises(ValueError):
        pauli_rotation_gates(PauliString.from_letter_map(1, {0: "X"}, phase_exp=1), 0.3)


def test_rotation_uncomputes():
    rng = np.random.default_rng(5)
    p = PauliString.from_letter_map(4, {3: "X", 2: "Z", 1: "Y", 0: "X"})
    amps = rng.normal(size=16) + 1j * rng.normal(size=16)
    amps /= np.linalg.norm(amps)
    out = simulate(Circuit(4, tuple(pauli_rotation_gates(p, 0.813) + pauli_rotation_gates(p, -0.813))), amps)
    assert np.max(np.abs(out - amps)) < 1e-12


def test_expectation_basics():
    s = basis_state(3)
    assert expectation_pauli(s, PauliString.from_letter_map(3, {0: "Z"})) == pytest.approx(1.0)
    plus = apply_gate(basis_state(1), GateOp("H", (0,)))
    assert expectation_pauli(plus, PauliString.from_letter_map(1, {0: "Z"})) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        expectation_pauli(s, PauliString.from_letter_map(3, {0: "Z"}, phase_exp=1))


def test_expectation_bounded_for_pm1_spectrum():
    rng = np.random.default_rng(6)
    for _ in range(20):
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        p = PauliString(3, int(rng.integers(0, 8)), int(rng.integers(0, 8)), 0)
        assert expectation_pauli(amps, p) ** 2 <= 1 + 1e-12


def test_norm_drift_over_many_gates():
    rng = np.random.default_rng(7)
    s = basis_state(4)
    kinds = ["H", "X", "Z", "XHALF", "RZ", "CNOT", "CZ"]
    for _ in range(10_000):
        kind = str(rng.choice(kinds))
        if kind in ("CNOT", "CZ"):
            a, b = rng.choice(4, size=2, replace=False)
            g = GateOp(kind, (int(a), int(b)))
        elif kind == "RZ":
            g = GateOp(kind, (int(rng.integers(0, 4)),), float(rng.uniform(-np.pi, np.pi)))
        else:
            g = GateOp(kind, (int(rng.integers(0, 4)),))
        apply_gate_inplace(s, g, 4)
    assert abs(np.linalg.norm(s) - 1) < 1e-9


def test_marginals_and_sampling():
    # Bell pair on qubits (0, 1): only 00 and 11
    s = apply_gate(basis_state(2), GateOp("H", (0,)))
    s = apply_gate(s, GateOp("CNOT", (0, 1)))
    probs = marginal_probs(s, (0, 1))
    np.testing.assert_allclose(probs, [0.5, 0, 0, 0.5], atol=1e-12)
    counts = sample_counts(s, (0, 1), 1000, seed=9)
    assert np.flatnonzero(counts).tolist() == [0, 3]
    assert counts.sum() == 1000


def test_sampling_determinism_and_binomial_bound():
    plus = apply_gate(basis_state(1), GateOp("H", (0,)))
    c1 = sample_counts(plus, (0,), 4096, seed=42)
    c2 = sample_counts(plus, (0,), 4096, seed=42)
    assert c1.tolist() == c2.tolist()
    # both outcomes within 5 sigma of 2048 (sigma = sqrt(4096*0.25) = 32)
    assert abs(c1[0] - 2048) < 5 * 32
    assert abs(c1[1] - 2048) < 5 * 32


def test_sampling_and_marginal_qubit_order():
    # state |q1 q0> = |10>: qubit1 = 1, qubit0 = 0
    s = np.eye(4, dtype=complex)[2]
    # entry j counts outcome j, whose bit i is qubits[i]
    assert sample_counts(s, (0, 1), 10, seed=0).tolist() == [0, 0, 10, 0]
    assert sample_counts(s, (1, 0), 10, seed=0).tolist() == [0, 10, 0, 0]
    assert sample_counts(s, (1,), 5, seed=0).tolist() == [0, 5]


def test_empty_qubit_list_rejected():
    with pytest.raises(ValueError):
        sample_counts(basis_state(1), (), 10, seed=0)


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=60, deadline=None)
@given(
    xbits=st.integers(0, 15),
    zbits=st.integers(0, 15),
    negate=st.booleans(),
    theta=st.floats(-6.0, 6.0, allow_nan=False),
    seed=st.integers(0, 2**16),
)
def test_rotation_inverse_property(xbits, zbits, negate, theta, seed):
    # exp(-i t/2 P) then exp(+i t/2 P) restores any state for any Hermitian P
    p = PauliString(4, xbits, zbits, 2 if negate else 0)
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=16) + 1j * rng.normal(size=16)
    amps /= np.linalg.norm(amps)
    out = simulate(Circuit(4, tuple(pauli_rotation_gates(p, theta) + pauli_rotation_gates(p, -theta))), amps)
    assert np.max(np.abs(out - amps)) < 1e-12
    assert abs(np.linalg.norm(out) - 1) < 1e-12


_ANGLE_KINDS = ("RZ", "GPHASE", "DELAY")


def _random_unitary(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


_RAW = ("raw1", "raw2")  # a random unitary on 1 or 2 bits, run by the kernel itself


def _apply_op(arr, op, n):
    if isinstance(op, GateOp):
        apply_gate_inplace(arr, op, n)
    else:
        apply_matrix_inplace(arr, *op, n)


@st.composite
def _gate_sequences(draw):
    n = draw(st.integers(1, 5))
    kinds = ONE_QUBIT_KINDS + ZERO_QUBIT_KINDS + _RAW[:n] + (TWO_QUBIT_KINDS if n > 1 else ())
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    ops = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=12)):
        if kind in _RAW:
            width = _RAW.index(kind) + 1
            ops.append((_random_unitary(rng, 1 << width), tuple(draw(st.permutations(range(n)))[:width])))
            continue
        width = 0 if kind in ZERO_QUBIT_KINDS else 1 if kind in ONE_QUBIT_KINDS else 2
        targets = tuple(draw(st.permutations(range(n)))[:width])
        angle = draw(st.floats(-6.0, 6.0, allow_nan=False)) if kind in _ANGLE_KINDS else None
        ops.append(GateOp(kind, targets, angle))
    return n, tuple(ops), draw(st.integers(1, 6)), draw(st.integers(0, 2**16))


@settings(max_examples=100, deadline=None)
@given(_gate_sequences())
def test_state_major_batch_matches_per_row_simulate(case):
    # a state-major batch: a (rows, 2^n) view of a C-ordered (2^n, rows) array
    n, ops, rows, seed = case
    rng = np.random.default_rng(seed)
    init = rng.normal(size=(rows, 1 << n)) + 1j * rng.normal(size=(rows, 1 << n))
    init /= np.linalg.norm(init, axis=1, keepdims=True)
    expected = init.copy()
    for row in expected:  # one state at a time; simulate runs each gate the same way
        for op in ops:
            _apply_op(row, op, n)
    gates = tuple(op for op in ops if isinstance(op, GateOp))
    if len(gates) == len(ops):
        assert np.array_equal(expected, [simulate(Circuit(n, gates), row) for row in init])
        # the whole batch in one call, and its marginals, equal the rows taken one at a time
        whole = simulate(Circuit(n, gates), init)
        assert np.array_equal(whole, expected)
        qubits = tuple(range(n))[::-2]  # a subset, out of order
        assert np.array_equal(marginal_probs(whole, qubits), [marginal_probs(row, qubits) for row in whole])
    for dtype in (np.complex128, np.complex64):
        batch = np.array(init.T, dtype=dtype, order="C").T  # a copy, state-major
        for op in ops:
            _apply_op(batch, op, n)
        assert batch.dtype == dtype
        if dtype is np.complex128:  # exact in double precision at every width
            np.testing.assert_array_equal(batch, expected)
        else:
            assert np.max(np.abs(batch - expected)) < 1e-5


@pytest.mark.parametrize("qubits", [(0, 1, 2, 3), (2, 3), (3, 1), (0,), (2, 0, 3)])
def test_batched_marginal_rows_equal_single_marginals(qubits):
    rng = np.random.default_rng(5)
    probs = rng.random((7, 16))
    probs /= probs.sum(axis=1, keepdims=True)
    batched = marginalize(probs, 4, qubits)
    assert np.array_equal(batched, np.array([marginalize(p, 4, qubits) for p in probs]))
    assert np.array_equal(marginalize(probs.reshape(7, 1, 16), 4, qubits)[:, 0], batched)


def test_parity_signs_are_cached_read_only():
    signs = parity_signs(8)
    assert signs is parity_signs(8)
    assert signs.tolist() == [(-1) ** bin(j).count("1") for j in range(8)]
    with pytest.raises(ValueError):
        signs[0] = 5
    weights = np.arange(8.0)
    assert parity_expectation(weights, 2.0) == float(np.sum(weights * signs)) / 2.0


@st.composite
def _expectation_batches(draw):
    """A (rows, 2^n) batch of random states, n from 1 to 5, and a Hermitian string on n qubits."""
    n = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    shape = (draw(st.integers(1, 6)), 1 << n)
    batch = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    batch /= np.linalg.norm(batch, axis=1, keepdims=True)
    bits = st.integers(0, (1 << n) - 1)
    return batch, PauliString(n, draw(bits), draw(bits), draw(st.sampled_from((0, 2))))


def _refusal(amps, p) -> str:
    with pytest.raises(ValueError) as e:
        expectation_pauli(amps, p)
    return str(e.value)


@settings(max_examples=100, deadline=None)
@given(_expectation_batches())
def test_batched_expectation_rows_equal_single_expectations(case):
    # leading axes are a batch, as for every other statevector function; one state gives a float
    batch, p = case
    singles = [expectation_pauli(row, p) for row in batch]
    assert all(type(v) is float for v in singles)
    got = expectation_pauli(batch, p)
    assert got.shape == (len(batch),)
    assert got.tobytes() == np.array(singles).tobytes()  # bit for bit
    # a batch is refused as one state is, with the same message
    for bad in (p.times_i(), PauliString(p.width + 1, p.xbits, p.zbits, p.phase_exp)):
        assert _refusal(batch, bad) == _refusal(batch[0], bad)
