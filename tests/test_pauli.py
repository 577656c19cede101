import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hubbard_gf.pauli import (
    CliffordCircuit,
    MajoranaIndex,
    PauliString,
    clifford_conjugate,
    commutes,
    jw_majorana,
    jw_mode,
    jw_string_remover,
    multiply,
)
from hubbard_gf.statevector import GateOp, gate_matrix

LETTERS = "IXYZ"


def random_pauli(rng, width):
    return PauliString(
        width,
        int(rng.integers(0, 1 << width)),
        int(rng.integers(0, 1 << width)),
        int(rng.integers(0, 4)),
    )


def paulis(max_width=16):
    return st.integers(1, max_width).flatmap(
        lambda w: st.tuples(
            st.just(w),
            st.integers(0, (1 << w) - 1),
            st.integers(0, (1 << w) - 1),
            st.integers(0, 3),
        )
    ).map(lambda t: PauliString(*t))


def test_single_qubit_products():
    x = PauliString.from_label("X")
    y = PauliString.from_label("Y")
    z = PauliString.from_label("Z")
    assert (x * y).label == "+iZ"
    assert (y * x).label == "-iZ"
    assert (y * z).label == "+iX"
    assert (z * x).label == "+iY"
    for p in (x, y, z):
        assert (p * p).label == "+I"


def test_label_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(100):
        p = random_pauli(rng, int(rng.integers(1, 9)))
        assert PauliString.from_label(p.label) == p


def test_multiply_matches_dense():
    rng = np.random.default_rng(7)
    for _ in range(60):
        w = int(rng.integers(1, 6))
        a, b = random_pauli(rng, w), random_pauli(rng, w)
        np.testing.assert_allclose((a * b).to_matrix(), a.to_matrix() @ b.to_matrix(), atol=1e-12)


def test_width_mismatch_raises():
    with pytest.raises(ValueError):
        multiply(PauliString.identity(2), PauliString.identity(3))
    with pytest.raises(ValueError):
        commutes(PauliString.identity(2), PauliString.identity(3))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_group_properties(data):
    w = data.draw(st.integers(1, 16))
    mk = lambda: PauliString(
        w,
        data.draw(st.integers(0, (1 << w) - 1)),
        data.draw(st.integers(0, (1 << w) - 1)),
        data.draw(st.integers(0, 3)),
    )
    a, b, c = mk(), mk(), mk()
    assert (a * b) * c == a * (b * c)
    assert (a * b).phase_exp in (0, 1, 2, 3)
    # commutes(a, b) <=> a*b == b*a
    assert commutes(a, b) == (a * b == b * a)


def test_is_hermitian_matches_dense():
    rng = np.random.default_rng(11)
    for _ in range(60):
        p = random_pauli(rng, int(rng.integers(1, 5)))
        m = p.to_matrix()
        assert p.is_hermitian == np.allclose(m, m.conj().T, atol=1e-12)


def test_commutes_parity_rule():
    assert commutes(PauliString.from_label("XX"), PauliString.from_label("ZZ"))
    assert commutes(PauliString.from_label("XI"), PauliString.from_label("IZ"))
    assert not commutes(PauliString.from_label("X"), PauliString.from_label("Z"))


# -- Jordan-Wigner -----------------------------------------------------------


def test_jw_four_cases_nc2():
    # site-major ordering, spin up before down, site 1 on the lowest qubits
    assert jw_majorana(MajoranaIndex(1, "up", "x"), 2).label == "+IIIX"
    assert jw_majorana(MajoranaIndex(1, "down", "y"), 2).label == "-IIYZ"
    assert jw_majorana(MajoranaIndex(2, "up", "x"), 2).label == "+IXZZ"
    assert jw_majorana(MajoranaIndex(2, "down", "y"), 2).label == "-YZZZ"


def test_jw_rejects_auxiliary_and_bad_site():
    with pytest.raises(ValueError):
        jw_majorana(MajoranaIndex(1, "up", "x", register="auxiliary"), 2)
    with pytest.raises(ValueError):
        jw_majorana(MajoranaIndex(3, "up", "x"), 2)


def test_jw_anticommutation_relations_nc3():
    # {x_i, x_j} = 2 delta_ij, {x_i, y_j} = 0, checked symbolically via multiply
    n_sites = 3
    modes = [
        jw_majorana(MajoranaIndex(s, sp, fl), n_sites)
        for s in (1, 2, 3)
        for sp in ("up", "down")
        for fl in ("x", "y")
    ]
    ident = PauliString.identity(2 * n_sites)
    for i, a in enumerate(modes):
        for j, b in enumerate(modes):
            anti_ab = a * b
            anti_ba = b * a
            if i == j:
                assert anti_ab == ident and anti_ba == ident
            else:
                # {a, b} = ab + ba = 0: same letters, opposite phase
                assert anti_ab.same_letters(anti_ba)
                assert (anti_ab.phase_exp - anti_ba.phase_exp) % 4 == 2


def test_jw_product_matches_dense_16():
    a = jw_majorana(MajoranaIndex(1, "up", "x"), 2)
    b = jw_majorana(MajoranaIndex(1, "up", "y"), 2)
    np.testing.assert_allclose((a * b).to_matrix(), a.to_matrix() @ b.to_matrix(), atol=1e-12)


def test_jw_mode_range():
    with pytest.raises(ValueError):
        jw_mode(4, 4, "x")


# -- Clifford conjugation ----------------------------------------------------


def dense_conjugate(circ, width):
    dim = 2 ** width
    U = np.eye(dim, dtype=complex)
    for name, targets in circ.gates:
        g = gate_matrix(GateOp(name, tuple(range(len(targets)))))
        full = _embed(g, targets, width)
        U = full @ U
    return U


def _embed(g, targets, width):
    dim = 2 ** width
    full = np.zeros((dim, dim), dtype=complex)
    k = len(targets)
    for b in range(dim):
        sub = 0
        for pos, q in enumerate(targets):
            sub |= ((b >> q) & 1) << pos
        base = b
        for pos, q in enumerate(targets):
            base &= ~(1 << q)
        for sub_out in range(2 ** k):
            amp = g[sub_out, sub]
            if amp == 0:
                continue
            b_out = base
            for pos, q in enumerate(targets):
                b_out |= ((sub_out >> pos) & 1) << q
            full[b_out, b] += amp
    return full


def test_clifford_conjugate_matches_dense():
    rng = np.random.default_rng(5)
    gates1 = ["H", "Y", "X", "Z", "XHALF"]
    for _ in range(40):
        w = int(rng.integers(2, 5))
        n_gates = int(rng.integers(1, 6))
        gl = []
        for _ in range(n_gates):
            if rng.random() < 0.5:
                gl.append((str(rng.choice(gates1)), (int(rng.integers(0, w)),)))
            else:
                a, b = rng.choice(w, size=2, replace=False)
                gl.append((str(rng.choice(["CNOT", "CZ"])), (int(a), int(b))))
        circ = CliffordCircuit(tuple(gl))
        p = random_pauli(rng, w)
        got = clifford_conjugate(circ, p)
        U = dense_conjugate(circ, w)
        np.testing.assert_allclose(got.to_matrix(), U.conj().T @ p.to_matrix() @ U, atol=1e-10)


def test_hadamard_exchanges_x_z():
    circ = CliffordCircuit((("H", (0,)),))
    assert clifford_conjugate(circ, PauliString.from_label("Z")).label == "+X"
    assert clifford_conjugate(circ, PauliString.from_label("X")).label == "+Z"


def test_cnot_zz_collapse():
    # conjugating Z_c Z_t by CNOT(c->t) leaves Z on the target qubit
    circ = CliffordCircuit((("CNOT", (0, 1)),))
    assert clifford_conjugate(circ, PauliString.from_label("ZZ")).label == "+ZI"
    circ = CliffordCircuit((("CNOT", (1, 0)),))
    assert clifford_conjugate(circ, PauliString.from_label("ZZ")).label == "+IZ"


def test_unsupported_gate():
    with pytest.raises(ValueError):
        clifford_conjugate(CliffordCircuit((("T", (0,)),)), PauliString.identity(1))


# -- Jordan-Wigner string remover ---------------------------------------------


def test_string_remover_adjacent_is_identity():
    assert len(jw_string_remover(3, 4)) == 0


def test_string_remover_rejects_bad_order():
    with pytest.raises(ValueError):
        jw_string_remover(2, 2)


@pytest.mark.parametrize("label", ["XZZX", "YZZY", "YZZX", "XZZY"])
def test_string_remover_strips_string(label):
    s = jw_string_remover(0, 3)
    start = PauliString.from_label(label)
    out = clifford_conjugate(s, start)
    assert out.letters == label[0] + "II" + label[3]
    assert out.phase_exp == start.phase_exp
    # and dense agreement
    U = dense_conjugate(s, 4)
    np.testing.assert_allclose(out.to_matrix(), U.conj().T @ start.to_matrix() @ U, atol=1e-12)


def test_string_remover_realizes_hopping_identity():
    # h = (XX + YY)/2 * Zstring == S^dag ((XX + YY)/2) S, checked per term
    for m, n in [(0, 2), (0, 3), (1, 4)]:
        width = n + 1
        s = jw_string_remover(m, n)
        for letter in "XY":
            bare = PauliString.from_letter_map(width, {m: letter, n: letter})
            strung = PauliString.from_letter_map(
                width, {m: letter, n: letter} | {k: "Z" for k in range(m + 1, n)}
            )
            assert clifford_conjugate(s, bare) == strung


def test_jw_commutes_exhaustive_four_sites():
    # distinct Majoranas always anticommute: every x-y pair fails commutes, and
    # an x-x pair commutes exactly when it is the same mode squaring to identity;
    # exhaustive over all mode pairs up to N_c = 4
    n_sites = 4
    labels = [(s, sp) for s in range(1, n_sites + 1) for sp in ("up", "down")]
    for a in labels:
        for b in labels:
            x_a = jw_majorana(MajoranaIndex(a[0], a[1], "x"), n_sites)
            x_b = jw_majorana(MajoranaIndex(b[0], b[1], "x"), n_sites)
            y_b = jw_majorana(MajoranaIndex(b[0], b[1], "y"), n_sites)
            assert not commutes(x_a, y_b)
            assert commutes(x_a, x_b) == (a == b)
