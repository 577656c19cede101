import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hubbard_gf.circuit import TrotterPlan, dimer_trotter_step, circuit_unitary
from hubbard_gf.greens import (
    CorrelatorSpec,
    DIMER_ANALYTIC_REF,
    DIMER_PAIRS,
    MeasurementRecord,
    UNITARY_M,
    advanced_hadamard_test,
    assemble_complex_green,
    dimer_ground_circuit,
    dimer_majorana,
    dimer_suite,
    direct_measurement,
    hadamard_test,
    time_grid,
)
from hubbard_gf.oracle import (
    dimer_analytic,
    dimer_spectral,
    lehmann_correlator,
    majorana_operator,
)

T, U = 1.0, 4.0
PLAN = TrotterPlan(0.314, 25)
SHORT = TrotterPlan(0.25, 6)


def spec_for(pair, taus, kind="retarded", protocol="direct"):
    src, prb = pair
    return CorrelatorSpec(src, prb, taus, kind=kind, protocol=protocol)


x0 = dimer_majorana(0, "up", "x")
y0 = dimer_majorana(0, "up", "y")
x1 = dimer_majorana(1, "up", "x")
y1 = dimer_majorana(1, "up", "y")


def test_spec_validation():
    with pytest.raises(ValueError):
        CorrelatorSpec(x0, x0, (0.1, 0.2))  # does not start at 0
    with pytest.raises(ValueError):
        CorrelatorSpec(x0, x0, (0.0, 0.2, 0.2))
    with pytest.raises(ValueError):
        CorrelatorSpec(x0, x0, (0.0,), kind="advanced")
    with pytest.raises(ValueError):
        CorrelatorSpec(x0, x0, (0.0,), protocol="other")


def test_record_validation():
    with pytest.raises(ValueError):
        MeasurementRecord((0.0,), (2.5,), (0.0,), 0, 0, "direct", 1.0, 0.0)
    with pytest.raises(ValueError):
        MeasurementRecord((0.0,), (1.0,), (-0.1,), 0, 0, "direct", 1.0, 0.0)


def test_direct_tau_zero_same_majorana():
    spec = spec_for((x0, x0), (0.0,))
    rec = direct_measurement(spec, T, U, PLAN, math.pi / 2, shots=0, seed=0)
    assert rec.estimates[0] == pytest.approx(1.0, abs=1e-10)


def test_direct_phi_validation():
    spec = spec_for((x0, x0), (0.0,))
    with pytest.raises(ValueError):
        direct_measurement(spec, T, U, PLAN, math.pi, 0, 0)
    with pytest.raises(ValueError):
        direct_measurement(spec, T, U, PLAN, 0.0, 0, 0)


def test_direct_exact_mode_phi_independent_and_matches_oracle():
    # Appendix-level exactness: dense evolution, any Phi, both kinds
    h, spect = dimer_spectral(T, U)
    taus = (0.0, 0.5, 1.5)
    a = majorana_operator(h, 0, "up", "x")
    b = majorana_operator(h, 1, "up", "y")
    ref = lehmann_correlator(a, b, h, np.array(taus), spect)
    spec_r = spec_for((y1, x0), taus, kind="retarded")
    spec_k = spec_for((y1, x0), taus, kind="keldysh")
    vals = {}
    for phi in (0.3, 0.8, math.pi / 2):
        rec = direct_measurement(spec_r, T, U, PLAN, phi, 0, 0, evolution="exact")
        np.testing.assert_allclose(rec.estimates, ref.real, atol=1e-10)
        vals[phi] = rec.estimates
        rec_k = direct_measurement(spec_k, T, U, PLAN, phi, 0, 0, evolution="exact")
        np.testing.assert_allclose(rec_k.estimates, ref.imag, atol=1e-10)
    a_vals = np.array(list(vals.values()))
    assert np.max(np.abs(a_vals - a_vals[0])) < 1e-10


def test_direct_trotter_matches_trotterized_oracle():
    taus = time_grid(SHORT)
    spec = spec_for((y1, x0), taus)
    rec = direct_measurement(spec, T, U, SHORT, 0.8, 0, 0, evolution="trotter")
    h, spect = dimer_spectral(T, U)
    from hubbard_gf.circuit import simulate

    psi = simulate(dimer_ground_circuit(T, U)).amps
    step_u = circuit_unitary(dimer_trotter_step(T, U, SHORT.dtau))
    a_m = majorana_operator(h, 0, "up", "x").to_matrix()
    b_m = majorana_operator(h, 1, "up", "y").to_matrix()
    for k, tau in enumerate(taus):
        u_t = np.linalg.matrix_power(step_u, k)
        ref = (u_t @ psi).conj() @ (a_m @ (u_t @ (b_m @ psi)))
        assert rec.estimates[k] == pytest.approx(ref.real, abs=1e-10)


def test_dimer_suite_weak_kick_shot_mode_within_4_sigma():
    # dividing by sin(0.02) scales shot noise by ~50, so shot estimates leave the
    # exact-value norm bound |v| <= 2; the record must accept them
    exact = dimer_suite(T, U, PLAN, 0.02, shots=0, seed=0)
    sampled = dimer_suite(T, U, PLAN, 0.02, shots=4096, seed=7)
    for name, rec in sampled.items():
        for e, s, err in zip(exact[name].estimates, rec.estimates, rec.stderrs):
            assert abs(e - s) <= 4 * err
    assert max(abs(v) for rec in sampled.values() for v in rec.estimates) > 2


def test_dimer_suite_single_pair_equals_its_full_suite_series():
    full = dimer_suite(T, U, PLAN, math.pi / 2, shots=4096, seed=7)
    for name in DIMER_PAIRS:
        assert dimer_suite(T, U, PLAN, math.pi / 2, shots=4096, seed=7, pairs=(name,)) == {name: full[name]}


def test_direct_shot_mode_within_4_sigma():
    taus = time_grid(SHORT)
    spec = spec_for((x0, x0), taus)
    exact = direct_measurement(spec, T, U, SHORT, math.pi / 2, 0, 0)
    sampled = direct_measurement(spec, T, U, SHORT, math.pi / 2, 4096, 7)
    for e, s, err in zip(exact.estimates, sampled.estimates, sampled.stderrs):
        assert abs(e - s) <= 4 * max(err, 1e-9)


def test_hadamard_tau_zero_and_validation():
    spec = spec_for((x0, x0), (0.0,), protocol="hadamard")
    rec = hadamard_test(spec, T, U, PLAN, 0, 0)
    assert rec.estimates[0] == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        hadamard_test(spec_for((x0, x0), (0.0,)), T, U, PLAN, 0, 0)


def test_advanced_hadamard_matches_hadamard():
    taus = time_grid(SHORT)
    spec_a = spec_for((x0, x0), taus, protocol="advanced_hadamard")
    rec_a = advanced_hadamard_test(spec_a, T, U, SHORT, 0, 0)
    spec_h = spec_for((x0, x0), taus, protocol="hadamard")
    rec_h = hadamard_test(spec_h, T, U, SHORT, 0, 0)
    np.testing.assert_allclose(rec_a.estimates, rec_h.estimates, atol=1e-12)
    assert rec_a.estimates[0] == pytest.approx(1.0, abs=1e-12)


def test_protocol_equivalence_exact_mode():
    # Hadamard test and direct measurement share the Trotterized propagator and
    # must agree to 1e-10 in exact-expectation mode (retarded x0-x0)
    taus = time_grid(SHORT)
    rec_h = hadamard_test(spec_for((x0, x0), taus, protocol="hadamard"), T, U, SHORT, 0, 0)
    rec_d = direct_measurement(spec_for((x0, x0), taus), T, U, SHORT, math.pi / 2, 0, 0)
    np.testing.assert_allclose(rec_h.estimates, rec_d.estimates, atol=1e-10)


def test_hadamard_shot_mode():
    taus = (0.0, 0.25, 0.5)
    spec = spec_for((x0, x0), taus, protocol="hadamard")
    exact = hadamard_test(spec, T, U, SHORT, 0, 0)
    rec = hadamard_test(spec, T, U, SHORT, 4096, 3)
    for e, s, err in zip(exact.estimates, rec.estimates, rec.stderrs):
        assert abs(e - s) <= 4 * max(err, 1e-9)
    rec2 = hadamard_test(spec, T, U, SHORT, 4096, 3)
    assert rec.estimates == rec2.estimates  # deterministic per seed


def test_keldysh_cross_check_lehmann():
    h, spect = dimer_spectral(T, U)
    taus = (0.0, 0.5, 1.0)
    spec = spec_for((x0, x0), taus, kind="keldysh")
    rec = direct_measurement(spec, T, U, PLAN, math.pi / 2, 0, 0, evolution="exact")
    a = majorana_operator(h, 0, "up", "x")
    ref = lehmann_correlator(a, a, h, np.array(taus), spect)
    # -(i/2)<[x(tau), x]> = Im <x(tau) x>
    np.testing.assert_allclose(rec.estimates, ref.imag, atol=1e-10)


def test_dimer_suite_tau_zero_and_analytic_tracking():
    plan = TrotterPlan(0.314, 8)
    suite = dimer_suite(T, U, plan, math.pi / 2, shots=0, seed=0)
    assert suite["y2y2"].estimates[0] == pytest.approx(2.0, abs=1e-10)
    assert suite["y3y3"].estimates[0] == pytest.approx(2.0, abs=1e-10)
    assert suite["x3y2"].estimates[0] == pytest.approx(0.0, abs=1e-10)
    taus = np.array(suite["y2y2"].taus)
    for name, rec in suite.items():
        analytic = 2 * np.real(dimer_analytic(DIMER_ANALYTIC_REF[name], T, U, taus))
        # first-order Trotter error at dtau=0.314 reaches ~0.22 by tau~2.5
        assert np.max(np.abs(np.array(rec.estimates) - analytic)) < 0.35


def test_dimer_suite_exact_evolution_matches_analytic():
    plan = TrotterPlan(0.314, 6)
    suite = dimer_suite(T, U, plan, math.pi / 2, shots=0, seed=0, evolution="exact")
    taus = np.array(suite["y2y2"].taus)
    for name, rec in suite.items():
        analytic = 2 * np.real(dimer_analytic(DIMER_ANALYTIC_REF[name], T, U, taus))
        np.testing.assert_allclose(rec.estimates, analytic, atol=1e-10)


def test_assemble_complex_green():
    h, spect = dimer_spectral(T, U)
    taus = np.linspace(0.0, 2.0, 5)
    ops = {
        "x": majorana_operator(h, 0, "up", "x"),
        "y": majorana_operator(h, 0, "up", "y"),
    }
    entries = {}
    for a in "xy":
        for b in "xy":
            series = lehmann_correlator(ops[a], ops[b], h, taus, spect)
            entries[a + b] = (series.real, series.imag)
    G = assemble_complex_green(entries, fill_symmetric=False)
    # M is unitary
    np.testing.assert_allclose(UNITARY_M.conj().T @ UNITARY_M, np.eye(2), atol=1e-15)
    # tau = 0: i(G_00 + G_11) = <c c^dag> + <c^dag c> = 1
    assert (1j * (G[0, 0, 0] + G[0, 1, 1])).real == pytest.approx(1.0, abs=1e-10)
    # reconstructed <c(tau) c^dag> matches the Lehmann oracle directly
    x, y = ops["x"].to_matrix(), ops["y"].to_matrix()
    c = (x - 1j * y) / 2
    cd = c.conj().T
    v = spect.eigenvectors
    gs = spect.ground_vector
    for k, tau in enumerate(taus):
        u_t = v @ np.diag(np.exp(-1j * spect.eigenvalues * tau)) @ v.conj().T
        ref = (u_t @ gs).conj() @ (c @ (u_t @ (cd @ gs)))
        assert 1j * G[k, 0, 0] == pytest.approx(ref, abs=1e-10)
    # symmetric fill reproduces the full assembly for the dimer
    partial = {"xx": entries["xx"], "xy": entries["xy"]}
    G2 = assemble_complex_green(partial, fill_symmetric=True)
    np.testing.assert_allclose(G2, G, atol=1e-12)
    with pytest.raises(ValueError):
        assemble_complex_green({"xx": entries["xx"]}, fill_symmetric=False)


def test_grid_mismatch_rejected():
    with pytest.raises(ValueError):
        assemble_complex_green(
            {
                "xx": ([0.0, 1.0], [0.0, 0.0]),
                "xy": ([0.0], [0.0]),
                "yx": ([0.0], [0.0]),
                "yy": ([0.0, 1.0], [0.0, 0.0]),
            },
            fill_symmetric=False,
        )


def test_dimer_suite_keldysh_kind():
    plan = TrotterPlan(0.314, 5)
    suite = dimer_suite(T, U, plan, math.pi / 2, shots=0, seed=0, evolution="exact", kind="keldysh")
    taus = np.array(suite["y2y2"].taus)
    for name, rec in suite.items():
        analytic = 2 * np.imag(dimer_analytic(DIMER_ANALYTIC_REF[name], T, U, taus))
        np.testing.assert_allclose(rec.estimates, analytic, atol=1e-10)
        assert rec.lam == 0.0


def test_advanced_and_plain_hadamard_shot_mode_agree_within_errors():
    taus = time_grid(SHORT)
    rec_h = hadamard_test(spec_for((x0, x0), taus, protocol="hadamard"), T, U, SHORT, 4096, 5)
    rec_a = advanced_hadamard_test(
        spec_for((x0, x0), taus, protocol="advanced_hadamard"), T, U, SHORT, 4096, 6
    )
    for vh, va, eh, ea in zip(rec_h.estimates, rec_a.estimates, rec_h.stderrs, rec_a.stderrs):
        combined = math.sqrt(eh * eh + ea * ea)
        assert abs(vh - va) <= 5 * max(combined, 1e-9)


def test_direct_point_circuit_matches_runner():
    # the fully gate-level circuit (used by the noisy pipeline) reproduces the
    # noiseless runner's exact expectations at every time point
    from hubbard_gf.greens import DIMER_PAIRS, direct_point_circuit
    from hubbard_gf.pauli import PauliString
    from hubbard_gf.statevector import expectation_pauli
    from hubbard_gf.circuit import simulate

    plan = TrotterPlan(0.314, 5)
    phi = 0.9
    for name in ("y2y2", "x3y2"):
        source, probe = DIMER_PAIRS[name]
        taus = time_grid(plan)
        rec = direct_measurement(CorrelatorSpec(source, probe, taus), T, U, plan, phi, 0, 0)
        for k in range(len(taus)):
            circ, mq, sign = direct_point_circuit(source, probe, T, U, plan, k, phi, math.pi / 2)
            state = simulate(circ)
            zz = PauliString.from_letter_map(5, {mq[0]: "Z", mq[1]: "Z"})
            val = sign * expectation_pauli(state, zz) / math.sin(phi)
            assert val == pytest.approx(rec.estimates[k], abs=1e-10)


def test_direct_series_circuits_equal_point_circuits():
    # one set of pieces serves the whole series
    from hubbard_gf.greens import DIMER_PAIRS, direct_point_circuit, direct_series_circuits

    plan = TrotterPlan(0.314, 4)
    for name, lam in (("y2y2", math.pi / 2), ("x3y2", 0.0)):
        source, probe = DIMER_PAIRS[name]
        circuits, mq, sign = direct_series_circuits(source, probe, T, U, plan, 0.7, lam)
        assert len(circuits) == plan.steps + 1
        for k, circ in enumerate(circuits):
            assert (circ, mq, sign) == direct_point_circuit(source, probe, T, U, plan, k, 0.7, lam)


@settings(max_examples=25, deadline=None)
@given(
    t=st.floats(0.2, 3.0),
    u=st.floats(0.0, 8.0),
    phi=st.floats(0.1, math.pi - 0.1),
    kind=st.sampled_from(("retarded", "keldysh")),
    pair=st.sampled_from(sorted(DIMER_PAIRS)),
)
def test_protocols_follow_t_and_u(t, u, phi, kind, pair):
    # every protocol builds its dimer from (t, U) alone, never from the t=1, U=4 defaults
    source, probe = DIMER_PAIRS[pair]
    plan = TrotterPlan(0.3, 4)
    taus = time_grid(plan)
    spec = CorrelatorSpec(source, probe, taus, kind=kind)
    h, spect = dimer_spectral(t, u)
    ref = lehmann_correlator(
        majorana_operator(h, probe.site, probe.spin, probe.flavor),
        majorana_operator(h, source.site, source.spin, source.flavor),
        h, np.array(taus), spect,
    )
    exact = direct_measurement(spec, t, u, plan, phi, 0, 0, evolution="exact")
    np.testing.assert_allclose(
        exact.estimates, ref.real if kind == "retarded" else ref.imag, rtol=0, atol=1e-10
    )
    trotter = direct_measurement(spec, t, u, plan, phi, 0, 0)
    hadamard = hadamard_test(replace(spec, protocol="hadamard"), t, u, plan, 0, 0)
    np.testing.assert_allclose(trotter.estimates, hadamard.estimates, rtol=0, atol=1e-10)
