import numpy as np
import pytest
from scipy.linalg import expm

from hubbard_gf.circuit import (
    Circuit,
    TrotterPlan,
    circuit_unitary,
    dimer_interaction_step,
    dimer_trotter_step,
    hopping_pair_block,
    hopping_step,
    hop_basis_circuit,
    horizontal_hop_value,
    repulsion_step,
    simulate,
)
from hubbard_gf.model import FermionHamiltonian
from hubbard_gf.pauli import PauliString
from hubbard_gf.statevector import GateOp, sample_counts
from reference import build_matrix


def pauli_sum_matrix(terms, width):
    dim = 1 << width
    out = np.zeros((dim, dim), dtype=complex)
    for coef, p in terms:
        out += coef * p.to_matrix()
    return out


def test_concat_is_associative():
    a = Circuit(2, (GateOp("H", (0,)),))
    b = Circuit(2, (GateOp("CNOT", (0, 1)),))
    c = Circuit(2, (GateOp("Z", (1,)), GateOp("RZ", (0,), 0.5)))
    assert (a + b) + c == a + (b + c) == Circuit(2, a.gates + b.gates + c.gates)
    assert a + Circuit(2) == Circuit(2) + a == a
    with pytest.raises(ValueError):
        a + Circuit(3)


def test_text_dump():
    c = Circuit(2, (GateOp("H", (0,)), GateOp("RZ", (1,), 0.25), GateOp("CNOT", (0, 1))))
    assert c.text_dump() == "H 0\nRZ(0.25) 1\nCNOT 0 1\n"


def test_unitary_of_known_circuit():
    c = Circuit(2, (GateOp("H", (0,)), GateOp("CNOT", (0, 1))))
    u = circuit_unitary(c)
    bell = u @ np.array([1, 0, 0, 0], dtype=complex)
    np.testing.assert_allclose(bell, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)], atol=1e-12)


def test_hopping_pair_block_matches_expm():
    theta = 0.437
    h = (
        np.kron(np.eye(2), pauli_xx()) + np.kron(np.eye(2), pauli_yy())
    ) / 2  # qubits 0,1 of 3
    u = circuit_unitary(hopping_pair_block(0, 1, theta, 3))
    np.testing.assert_allclose(u, expm(-1j * theta * h), atol=1e-12)


def pauli_xx():
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    return np.kron(X, X)


def pauli_yy():
    Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    return np.kron(Y, Y)


def test_hopping_step_matches_expm_of_generator():
    # dimer-sized cluster, generator from the Jordan-Wigner Pauli terms
    from hubbard_gf.oracle import hopping_pauli_terms

    theta = 0.3
    for (i, j, sigma) in [(1, 2, "up"), (1, 2, "down")]:
        n_sites = 2
        off = 0 if sigma == "up" else 1
        m, n = 2 * (i - 1) + off, 2 * (j - 1) + off
        gen = pauli_sum_matrix(hopping_pauli_terms(m, n, 4), 4)
        u = circuit_unitary(hopping_step(i, j, sigma, theta, n_sites))
        np.testing.assert_allclose(u, expm(-1j * theta * gen), atol=1e-12)


def test_hopping_step_nonadjacent_sites_has_string_remover():
    # sites (1, 3) of a 3-site cluster: string spans two qubits, CZ fan expected
    c = hopping_step(1, 3, "up", 0.2, 3)
    assert any(g.kind == "CZ" for g in c.gates)
    gen = pauli_sum_matrix(
        __import__("hubbard_gf.oracle", fromlist=["hopping_pauli_terms"]).hopping_pauli_terms(0, 4, 6),
        6,
    )
    np.testing.assert_allclose(circuit_unitary(c), expm(-1j * 0.2 * gen), atol=1e-11)


def test_hopping_step_adjacent_qubits_no_remover():
    c = hopping_step(1, 2, "up", 0.2, 2)  # dimer-style adjacency in interleaved order? qubits 0,2
    # sites 1,2 spin up sit on qubits 0 and 2 in site-major order: one interior qubit
    assert sum(1 for g in c.gates if g.kind == "CZ") == 2  # remover emitted twice
    c2 = dimer_trotter_step(1.0, 0.0, 0.1)
    assert not any(g.kind == "CZ" for g in c2.gates)


def test_hopping_theta_zero_is_identity():
    u = circuit_unitary(hopping_step(1, 2, "up", 0.0, 2))
    np.testing.assert_allclose(u, np.eye(16), atol=1e-12)


def test_repulsion_step_matches_expm():
    theta = 0.81
    n_up_n_dn = np.diag([0, 0, 0, 1]).astype(complex)  # qubits 0(up),1(dn) of site 1
    gen = np.kron(np.eye(4), n_up_n_dn)
    u = circuit_unitary(repulsion_step(1, theta, 2))
    np.testing.assert_allclose(u, expm(-1j * theta * gen), atol=1e-12)


def test_repulsion_phases():
    theta = 0.5
    c = repulsion_step(1, theta, 1)
    basis = np.eye(4, dtype=complex)
    s = simulate(c, basis[3])  # |11>
    ref = simulate(c, basis[0])  # |00>
    rel = (s[3] / ref[0])
    np.testing.assert_allclose(rel, np.exp(-1j * theta), atol=1e-12)
    for idx in (1, 2):  # single occupancy: no phase relative to |00>
        s1 = simulate(c, basis[idx])
        np.testing.assert_allclose(s1[idx] / ref[0], 1.0, atol=1e-12)


def test_dimer_interaction_matches_generator():
    z = np.diag([1.0, -1.0]).astype(complex)
    eye = np.eye(2)
    z0z2 = np.kron(eye, np.kron(z, np.kron(eye, z)))  # qubits 3,2,1,0
    for theta in (0.1, 1.0, np.pi):
        gen = 0.25 * (z0z2 - np.eye(16))
        u = circuit_unitary(dimer_interaction_step(theta))
        np.testing.assert_allclose(u, expm(-1j * theta * gen), atol=1e-12)


def test_dimer_trotter_step_equals_term_product():
    t, u, dtau = 1.0, 4.0, 0.314
    h = FermionHamiltonian.dimer(t, u)
    hop, inter = [], []
    from hubbard_gf.oracle import split_pauli_terms

    hop, inter = split_pauli_terms(h)
    h0 = pauli_sum_matrix(hop, 4)
    hu = pauli_sum_matrix(inter, 4)
    ref = expm(-1j * dtau * h0) @ expm(-1j * dtau * hu)  # interaction applied first
    u_step = circuit_unitary(dimer_trotter_step(t, u, dtau))
    np.testing.assert_allclose(u_step, ref, atol=1e-12)


def test_trotter_first_order_error():
    # first-order splitting: error ~ (tau*dtau/2)*||[H_U, H_0]||, measured 6.98e-3
    # at dtau=0.01 over tau=1 and halving exactly with dtau
    t, u = 1.0, 4.0
    ref = expm(-1j * build_matrix(FermionHamiltonian.dimer(t, u)) * 1.0)
    dist = {}
    for steps in (100, 200):
        step = circuit_unitary(dimer_trotter_step(t, u, 1.0 / steps))
        dist[steps] = np.max(np.abs(np.linalg.matrix_power(step, steps) - ref))
    assert dist[100] < 8e-3
    assert dist[100] / dist[200] > 1.9


def test_trotter_continuity_small_dtau():
    step = circuit_unitary(dimer_trotter_step(1.0, 4.0, 1e-4))
    assert np.max(np.abs(step - np.eye(16))) < 5e-3


def test_trotter_plan_validation():
    with pytest.raises(ValueError):
        TrotterPlan(0.1, 0)
    with pytest.raises(ValueError):
        TrotterPlan(-0.1, 2)
    with pytest.raises(ValueError, match="steps \\* dtau must be finite"):
        TrotterPlan(1e308, 2)  # each dtau is finite, the last grid point is not


def test_measurement_basis_horizontal():
    c = hop_basis_circuit(1, 2, 4)
    u = circuit_unitary(c)
    target = pauli_sum_matrix(
        __import__("hubbard_gf.oracle", fromlist=["hopping_pauli_terms"]).hopping_pauli_terms(1, 2, 4), 4
    )
    # observable after the basis change: P(m=1,n=0) - P(m=0,n=1)
    z1 = PauliString.from_letter_map(4, {1: "Z"}).to_matrix()
    z2 = PauliString.from_letter_map(4, {2: "Z"}).to_matrix()
    obs = (z2 - z1) / 2
    np.testing.assert_allclose(u.conj().T @ obs @ u, target, atol=1e-11)


def test_horizontal_hop_value_readout():
    # eigenstate (|01> + |10>)/sqrt(2) of the hop on qubits (0,1) has value +1
    amps = np.zeros(4, dtype=complex)
    amps[1] = amps[2] = 1 / np.sqrt(2)
    c = hop_basis_circuit(0, 1, 2)
    out = simulate(c, amps)
    counts = sample_counts(out, (0, 1), 500, seed=1)
    mean, err = horizontal_hop_value(counts)
    assert mean == pytest.approx(1.0)
    # and on |00>, |11> the value is 0
    for idx in (0, 3):
        out = simulate(c, np.eye(4, dtype=complex)[idx])
        counts = sample_counts(out, (0, 1), 500, seed=2)
        mean, _ = horizontal_hop_value(counts)
        assert mean == pytest.approx(0.0)


def test_measurement_basis_validation():
    with pytest.raises(ValueError):
        hop_basis_circuit(2, 1, 3)


def test_hopping_gate_count_constant_in_cluster_size():
    # once the two mode qubits are fixed, widening the cluster adds no gates
    lengths = set()
    for n_sites in (2, 4, 6):
        lengths.add(len(hopping_step(1, 2, "up", 0.3, n_sites).gates))
    assert len(lengths) == 1
