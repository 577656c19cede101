import numpy as np
import pytest

from hubbard_gf.model import FermionHamiltonian
from hubbard_gf.oracle import (
    diagonalize,
    dimer_analytic,
    majorana_operator,
)
from hubbard_gf.statevector import MAX_QUBITS, basis_state
from reference import (
    build_matrix,
    dimer_ground_energy,
    dimer_sector_energies,
    dimer_spectral,
    ground_state,
    lehmann_correlator,
)


def fermion_ops(h):
    """Annihilation matrices for every (site, spin) in the Hamiltonian's mode order."""
    ops = {}
    for site, spin in h.mode_order:
        x = majorana_operator(h, site, spin, "x").to_matrix()
        y = majorana_operator(h, site, spin, "y").to_matrix()
        ops[(site, spin)] = (x - 1j * y) / 2
    return ops


def test_dimer_matrix_reproduces_half_filling_block():
    t, u = 1.0, 4.0
    h = FermionHamiltonian.dimer(t, u)
    hm = build_matrix(h)
    c = fermion_ops(h)
    vac = np.zeros(16, dtype=complex)
    vac[0] = 1.0
    cd = {k: v.conj().T for k, v in c.items()}
    # half-filling basis reconstructed so the printed 6x6 matrix comes out
    states = [
        cd[(0, "down")] @ cd[(0, "up")] @ vac,   # both on the interacting site
        cd[(1, "up")] @ cd[(0, "down")] @ vac,   # up on bath, down on site
        cd[(1, "down")] @ cd[(1, "up")] @ vac,   # both on bath
        cd[(1, "down")] @ cd[(0, "up")] @ vac,   # down on bath, up on site
        cd[(1, "up")] @ cd[(0, "up")] @ vac,     # two up
        cd[(1, "down")] @ cd[(0, "down")] @ vac, # two down
    ]
    basis = np.stack(states, axis=1)
    block = basis.conj().T @ hm @ basis
    printed = -np.array(
        [
            [0, -t, 0, t, 0, 0],
            [-t, u / 2, -t, 0, 0, 0],
            [0, -t, 0, t, 0, 0],
            [t, 0, t, u / 2, 0, 0],
            [0, 0, 0, 0, u / 2, 0],
            [0, 0, 0, 0, 0, u / 2],
        ],
        dtype=complex,
    )
    np.testing.assert_allclose(block, printed, atol=1e-12)


def test_free_dimer_spectrum_symmetric():
    h = FermionHamiltonian.dimer(1.0, 0.0)
    evals = np.sort(np.linalg.eigvalsh(build_matrix(h)))
    np.testing.assert_allclose(evals, -evals[::-1], atol=1e-12)


def test_single_free_site():
    h = FermionHamiltonian(n_sites=1)
    evals = np.linalg.eigvalsh(build_matrix(h))
    np.testing.assert_allclose(evals, np.zeros(4), atol=1e-12)


def test_size_guard():
    with pytest.raises(ValueError, match="14 qubits exceeds dense oracle capacity"):
        build_matrix(FermionHamiltonian(n_sites=7))
    # the statevector's own guard, before 2^25 amplitudes are allocated
    with pytest.raises(ValueError, match=f"{MAX_QUBITS + 1} qubits exceeds dense capacity {MAX_QUBITS}"):
        basis_state(MAX_QUBITS + 1)


@pytest.mark.parametrize("t,u", [(1.0, 0.0), (1.0, 4.0), (1.0, 8.0)])
def test_ground_state_energy_closed_form(t, u):
    e0, vec = ground_state(build_matrix(FermionHamiltonian.dimer(t, u)))
    assert abs(e0 - dimer_ground_energy(t, u)) < 1e-10
    assert abs(np.linalg.norm(vec) - 1) < 1e-12


def test_ground_state_amplitude_ratio():
    # ratio between the doubly-occupied and singly-occupied half-filling components
    t, u = 1.0, 4.0
    h = FermionHamiltonian.dimer(t, u)
    _, vec = ground_state(build_matrix(h))
    c_ratio = (np.sqrt(u * u + 64 * t * t) - u) / (8 * t)
    amps = np.abs(vec)
    # doubly-occupied-site components: |0101> (both on site) and |1010> (both on bath)
    # singly-occupied: |0110>, |1001>
    assert amps[0b0101] == pytest.approx(amps[0b1010], abs=1e-12)
    assert amps[0b0110] == pytest.approx(amps[0b1001], abs=1e-12)
    assert amps[0b0101] / amps[0b0110] == pytest.approx(c_ratio, abs=1e-10)


def test_ground_state_u_zero_is_slater():
    h = FermionHamiltonian.dimer(1.0, 0.0)
    e0, vec = ground_state(build_matrix(h))
    assert e0 == pytest.approx(-2.0, abs=1e-12)
    c = fermion_ops(h)
    cd = {k: v.conj().T for k, v in c.items()}
    vac = np.zeros(16, dtype=complex)
    vac[0] = 1.0
    f_up = (cd[(0, "up")] + cd[(1, "up")]) / np.sqrt(2)
    f_dn = (cd[(0, "down")] + cd[(1, "down")]) / np.sqrt(2)
    slater = f_dn @ (f_up @ vac)
    assert abs(np.vdot(slater, vec)) ** 2 == pytest.approx(1.0, abs=1e-10)


def test_non_hermitian_rejected():
    with pytest.raises(ValueError):
        diagonalize(np.array([[0, 1], [0, 0]], dtype=complex))


def test_lehmann_tau_zero_involution():
    h, spec = dimer_spectral(1.0, 4.0)
    x0 = majorana_operator(h, 0, "up", "x")
    val = lehmann_correlator(x0, x0, h, 0.0, spectral=spec)
    assert val == pytest.approx(1.0 + 0j, abs=1e-12)


@pytest.mark.parametrize("tau", [0.5, 1.0, 2.0])
def test_lehmann_matches_analytic(tau):
    t, u = 1.0, 4.0
    h, spec = dimer_spectral(t, u)
    x0 = majorana_operator(h, 0, "up", "x")
    x1 = majorana_operator(h, 1, "up", "x")
    y1 = majorana_operator(h, 1, "up", "y")
    assert abs(lehmann_correlator(x0, x0, h, tau, spec) - dimer_analytic("xx_0", t, u, tau)) < 1e-10
    assert abs(lehmann_correlator(x1, x1, h, tau, spec) - dimer_analytic("xx_1", t, u, tau)) < 1e-10
    assert abs(lehmann_correlator(x0, y1, h, tau, spec) - dimer_analytic("xy_01", t, u, tau)) < 1e-10


def test_correlator_symmetries():
    t, u = 1.0, 4.0
    h, spec = dimer_spectral(t, u)
    taus = np.linspace(0.0, 4.0, 9)
    for site in (0, 1):
        x = majorana_operator(h, site, "up", "x")
        y = majorana_operator(h, site, "up", "y")
        np.testing.assert_allclose(
            lehmann_correlator(x, x, h, taus, spec),
            lehmann_correlator(y, y, h, taus, spec),
            atol=1e-10,
        )
    x0 = majorana_operator(h, 0, "up", "x")
    y0 = majorana_operator(h, 0, "up", "y")
    x1 = majorana_operator(h, 1, "up", "x")
    y1 = majorana_operator(h, 1, "up", "y")
    np.testing.assert_allclose(
        lehmann_correlator(x0, y1, h, taus, spec),
        lehmann_correlator(x1, y0, h, taus, spec),
        atol=1e-10,
    )
    # spin blocks mutually equal
    x0d = majorana_operator(h, 0, "down", "x")
    np.testing.assert_allclose(
        lehmann_correlator(x0, x0, h, taus, spec),
        lehmann_correlator(x0d, x0d, h, taus, spec),
        atol=1e-10,
    )


def test_conjugate_symmetry():
    h, spec = dimer_spectral(1.0, 4.0)
    a = majorana_operator(h, 0, "up", "x")
    b = majorana_operator(h, 1, "up", "y")
    for tau in (0.4, 1.3):
        fwd = lehmann_correlator(a, b, h, tau, spec)
        rev = lehmann_correlator(b, a, h, -tau, spec)  # <B A(tau)> = <B(-tau) A>
        assert abs(np.conj(fwd) - rev) < 1e-10


def test_retarded_combination_at_tau_zero():
    h, spec = dimer_spectral(1.0, 4.0)
    x0 = majorana_operator(h, 0, "up", "x")
    y1 = majorana_operator(h, 1, "up", "y")
    # distinct Majoranas anticommute: 2 Re <x0 y1> = 0 at tau = 0
    assert abs(2 * np.real(lehmann_correlator(x0, y1, h, 0.0, spec))) < 1e-10
    assert abs(2 * np.real(lehmann_correlator(x0, x0, h, 0.0, spec)) - 2.0) < 1e-10


def test_dimer_analytic_edge_values():
    t, u = 1.0, 4.0
    assert dimer_analytic("xx_0", t, u, 0.0) == pytest.approx(1.0 + 0j)
    u2 = np.sqrt(u * u + 64 * t * t)
    got = dimer_analytic("xy_01", t, u, 0.0)
    assert got == pytest.approx(8j * t / u2, abs=1e-12)
    with pytest.raises(ValueError):
        dimer_analytic("zz", t, u, 0.0)
    with pytest.raises(ValueError):
        dimer_analytic("xx_0", 0.0, u, 0.0)


@pytest.mark.parametrize("t, u", [(1.0, 4.0), (1.0, -4.0), (3.0, 0.5)])
@pytest.mark.parametrize("which", ["xx_0", "xx_1", "xy_01"])
def test_dimer_analytic_scales_past_squares_that_overflow(t, u, which):
    # G(tau; t, U) = G(tau / s; s t, s U): at s = 2^520 (~3e156) U^2 and t^2 overflow
    s = 2.0**520
    taus = np.linspace(0.0, 3.0, 7)
    np.testing.assert_allclose(
        dimer_analytic(which, s * t, s * u, taus / s), dimer_analytic(which, t, u, taus), rtol=0, atol=1e-12
    )


def test_sector_energies():
    e_hop, e_int = dimer_sector_energies(1.0, 4.0)
    assert e_hop == pytest.approx(-1.78885438, abs=1e-7)
    assert e_int == pytest.approx(-1.44721360, abs=1e-7)
    assert e_hop + e_int == pytest.approx(dimer_ground_energy(1.0, 4.0), abs=1e-12)
    assert dimer_sector_energies(1.0, 0.0) == (pytest.approx(-2.0), pytest.approx(0.0))
    e_hop, e_int = dimer_sector_energies(1e-6, 4.0)
    assert e_hop == pytest.approx(0.0, abs=1e-6)
    assert e_int == pytest.approx(-2.0, abs=1e-6)


def test_full_space_vs_half_filling_block():
    # spectral sum over all 16 states reproduces block results when the state
    # lies in the half-filling sector (the ground state does)
    t, u = 1.0, 4.0
    h, spec = dimer_spectral(t, u)
    gs = spec.eigenvectors[:, 0]
    num = np.zeros((16, 16), dtype=complex)
    for s in (0, 1):
        for sp in ("up", "down"):
            x = majorana_operator(h, s, sp, "x").to_matrix()
            y = majorana_operator(h, s, sp, "y").to_matrix()
            c = (x - 1j * y) / 2
            num += c.conj().T @ c
    assert np.real(gs.conj() @ num @ gs) == pytest.approx(2.0, abs=1e-10)
