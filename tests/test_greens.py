import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hubbard_gf.circuit import TrotterPlan, dimer_trotter_step, circuit_unitary
from hubbard_gf.greens import (
    DIMER_ANALYTIC_REF,
    DIMER_PAIRS,
    MeasurementRecord,
    advanced_hadamard_test,
    dimer_ground_circuit,
    dimer_suite,
    direct_measurement,
    hadamard_test,
    time_grid,
)
from hubbard_gf.oracle import (
    dimer_analytic,
    majorana_operator,
)
from hubbard_gf.noise import MitigationConfig, NoiseModel, noisy_dimer_series
from hubbard_gf.pauli import MajoranaIndex
from reference import dimer_spectral, exact_direct_measurement, lehmann_correlator

T, U = 1.0, 4.0
PLAN = TrotterPlan(0.314, 25)
SHORT = TrotterPlan(0.25, 6)
ONE_STEP = TrotterPlan(0.314, 1)  # for checks that read tau = 0 only

x0 = MajoranaIndex(0, "up", "x")
y1 = MajoranaIndex(1, "up", "y")


EVERY_RUNNER = pytest.mark.parametrize(  # each measures a Majorana paired with itself
    "run",
    [
        lambda kind: direct_measurement(x0, x0, T, U, ONE_STEP, math.pi / 2, 0, 0, kind),
        lambda kind: hadamard_test(x0, x0, T, U, ONE_STEP, 0, 0, kind),
        lambda kind: advanced_hadamard_test(x0, x0, T, U, ONE_STEP, 0, 0, kind),
        lambda kind: noisy_dimer_series(
            *DIMER_PAIRS["y2y2"], T, U, ONE_STEP, math.pi / 2, 16, 0, NoiseModel(5), MitigationConfig(), kind
        ),
    ],
    ids=["direct_measurement", "hadamard_test", "advanced_hadamard_test", "noisy_dimer_series"],
)


@EVERY_RUNNER
def test_unknown_kind_is_refused(run):
    with pytest.raises(ValueError, match="kind must be retarded or keldysh, got 'advanced'"):
        run("advanced")


@EVERY_RUNNER
def test_every_runner_returns_the_full_anticommutator(run):
    # one convention: {gamma, gamma} = 2 at tau = 0, whichever protocol reads it; the
    # noiseless runners read it to the round-off of the prepared state's norm (~1e-14)
    assert run("retarded").estimates[0] == pytest.approx(2.0, abs=1e-12)


def test_record_validation():
    with pytest.raises(ValueError):
        MeasurementRecord((0.0,), (2.5,), (0.0,), 0, "direct", 1.0, 0.0)
    with pytest.raises(ValueError):
        MeasurementRecord((0.0,), (1.0,), (-0.1,), 0, "direct", 1.0, 0.0)


def test_direct_tau_zero_same_majorana():
    rec = direct_measurement(x0, x0, T, U, ONE_STEP, math.pi / 2, shots=0, seed=0)
    assert rec.estimates[0] == pytest.approx(2.0, abs=1e-10)


def test_direct_phi_validation():
    with pytest.raises(ValueError):
        direct_measurement(x0, x0, T, U, ONE_STEP, math.pi, 0, 0)
    with pytest.raises(ValueError):
        direct_measurement(x0, x0, T, U, ONE_STEP, 0.0, 0, 0)


@pytest.mark.parametrize(
    "plan", [TrotterPlan(0.5, 3), TrotterPlan(0.157, 50)], ids=["3-steps", "50-steps"]
)
def test_direct_exact_mode_phi_independent_and_matches_oracle(plan):
    # Appendix-level exactness at any Phi, both kinds: the exact step is carried point
    # to point, so its round-off accumulates over the 50-step grid too
    h, spect = dimer_spectral(T, U)
    a = majorana_operator(h, 0, "up", "x")
    b = majorana_operator(h, 1, "up", "y")
    ref = lehmann_correlator(a, b, h, np.array(time_grid(plan)), spect)
    vals = {}
    for phi in (0.3, 0.8, math.pi / 2):
        rec = exact_direct_measurement(y1, x0, T, U, plan, phi, "retarded")
        np.testing.assert_allclose(np.array(rec.estimates) / 2, ref.real, atol=1e-10)
        vals[phi] = np.array(rec.estimates) / 2
        rec_k = exact_direct_measurement(y1, x0, T, U, plan, phi, "keldysh")
        np.testing.assert_allclose(np.array(rec_k.estimates) / 2, ref.imag, atol=1e-10)
    a_vals = np.array(list(vals.values()))
    assert np.max(np.abs(a_vals - a_vals[0])) < 1e-10


@pytest.mark.parametrize("kind", ["retarded", "keldysh"])
@pytest.mark.parametrize("phi", [0.3, 0.8, math.pi / 2], ids=["0.3", "0.8", "pi-half"])
def test_direct_trotter_matches_trotterized_oracle(phi, kind):
    # the product runner is exact at any kick: 2 Re (retarded) or 2 Im (keldysh) of the
    # correlator under the Trotterized propagator, at criterion 4's kicks
    taus = time_grid(SHORT)
    rec = direct_measurement(y1, x0, T, U, SHORT, phi, 0, 0, kind)
    h, spect = dimer_spectral(T, U)
    from hubbard_gf.circuit import simulate

    psi = simulate(dimer_ground_circuit(T, U))
    step_u = circuit_unitary(dimer_trotter_step(T, U, SHORT.dtau))
    a_m = majorana_operator(h, 0, "up", "x").to_matrix()
    b_m = majorana_operator(h, 1, "up", "y").to_matrix()
    for k, tau in enumerate(taus):
        u_t = np.linalg.matrix_power(step_u, k)
        ref = (u_t @ psi).conj() @ (a_m @ (u_t @ (b_m @ psi)))
        assert rec.estimates[k] / 2 == pytest.approx(ref.real if kind == "retarded" else ref.imag, abs=1e-10)


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
    exact = direct_measurement(x0, x0, T, U, SHORT, math.pi / 2, 0, 0)
    sampled = direct_measurement(x0, x0, T, U, SHORT, math.pi / 2, 4096, 7)
    for e, s, err in zip(exact.estimates, sampled.estimates, sampled.stderrs):
        assert abs(e - s) <= 4 * max(err, 1e-9)


def test_hadamard_tau_zero():
    rec = hadamard_test(x0, x0, T, U, ONE_STEP, 0, 0)
    assert rec.estimates[0] == pytest.approx(2.0, abs=1e-12)


def test_advanced_hadamard_matches_hadamard():
    rec_a = advanced_hadamard_test(x0, x0, T, U, SHORT, 0, 0)
    rec_h = hadamard_test(x0, x0, T, U, SHORT, 0, 0)
    np.testing.assert_allclose(rec_a.estimates, rec_h.estimates, atol=1e-12)
    assert rec_a.estimates[0] == pytest.approx(2.0, abs=1e-12)


def test_protocol_equivalence_exact_mode():
    # Hadamard test and direct measurement share the Trotterized propagator and
    # must agree to 1e-10 in exact-expectation mode (retarded x0-x0)
    rec_h = hadamard_test(x0, x0, T, U, SHORT, 0, 0)
    rec_d = direct_measurement(x0, x0, T, U, SHORT, math.pi / 2, 0, 0)
    np.testing.assert_allclose(rec_h.estimates, rec_d.estimates, atol=1e-10)


def test_hadamard_shot_mode():
    plan = TrotterPlan(0.25, 2)
    exact = hadamard_test(x0, x0, T, U, plan, 0, 0)
    rec = hadamard_test(x0, x0, T, U, plan, 4096, 3)
    for e, s, err in zip(exact.estimates, rec.estimates, rec.stderrs):
        assert abs(e - s) <= 4 * max(err, 1e-9)
    rec2 = hadamard_test(x0, x0, T, U, plan, 4096, 3)
    assert rec.estimates == rec2.estimates  # deterministic per seed


def test_keldysh_cross_check_lehmann():
    h, spect = dimer_spectral(T, U)
    plan = TrotterPlan(0.5, 2)
    rec = exact_direct_measurement(x0, x0, T, U, plan, math.pi / 2, "keldysh")
    a = majorana_operator(h, 0, "up", "x")
    ref = lehmann_correlator(a, a, h, np.array(time_grid(plan)), spect)
    # -i<[x(tau), x]> = 2 Im <x(tau) x>
    np.testing.assert_allclose(np.array(rec.estimates) / 2, ref.imag, atol=1e-10)


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
    suite = {
        name: exact_direct_measurement(*DIMER_PAIRS[name], T, U, plan, math.pi / 2, "retarded")
        for name in DIMER_PAIRS
    }
    taus = np.array(suite["y2y2"].taus)
    for name, rec in suite.items():
        analytic = 2 * np.real(dimer_analytic(DIMER_ANALYTIC_REF[name], T, U, taus))
        np.testing.assert_allclose(rec.estimates, analytic, atol=1e-10)


def test_dimer_suite_keldysh_kind():
    plan = TrotterPlan(0.314, 5)
    suite = {
        name: exact_direct_measurement(*DIMER_PAIRS[name], T, U, plan, math.pi / 2, "keldysh")
        for name in DIMER_PAIRS
    }
    taus = np.array(suite["y2y2"].taus)
    for name, rec in suite.items():
        analytic = 2 * np.imag(dimer_analytic(DIMER_ANALYTIC_REF[name], T, U, taus))
        np.testing.assert_allclose(rec.estimates, analytic, atol=1e-10)
        assert rec.lam == 0.0


def test_advanced_and_plain_hadamard_shot_mode_agree_within_errors():
    rec_h = hadamard_test(x0, x0, T, U, SHORT, 4096, 5)
    rec_a = advanced_hadamard_test(x0, x0, T, U, SHORT, 4096, 6)
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
        rec = direct_measurement(source, probe, T, U, plan, phi, 0, 0)
        for k in range(len(taus)):
            circ, mq, sign = direct_point_circuit(source, probe, T, U, plan, k, phi, math.pi / 2)
            state = simulate(circ)
            zz = PauliString.from_letter_map(5, {mq[0]: "Z", mq[1]: "Z"})
            val = sign * expectation_pauli(state, zz) / math.sin(phi)
            assert val == pytest.approx(rec.estimates[k] / 2, abs=1e-10)


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
    h, spect = dimer_spectral(t, u)
    ref = lehmann_correlator(
        majorana_operator(h, probe.site, probe.spin, probe.flavor),
        majorana_operator(h, source.site, source.spin, source.flavor),
        h, np.array(taus), spect,
    )
    exact = exact_direct_measurement(source, probe, t, u, plan, phi, kind)
    np.testing.assert_allclose(
        np.array(exact.estimates) / 2, ref.real if kind == "retarded" else ref.imag, rtol=0, atol=1e-10
    )
    trotter = direct_measurement(source, probe, t, u, plan, phi, 0, 0, kind)
    hadamard = hadamard_test(source, probe, t, u, plan, 0, 0, kind)
    np.testing.assert_allclose(trotter.estimates, hadamard.estimates, rtol=0, atol=1e-10)


def _replayed_series(protocol, source, probe, t, u, plan, phi, kind):
    """Half a noiseless protocol's full-value series, each Trotter step replayed gate by gate
    through simulate: the direct one from every point's gate-level circuit, the Hadamard
    one by carrying psi and S psi through dimer_trotter_step."""
    from hubbard_gf.circuit import simulate
    from hubbard_gf.greens import direct_point_circuit, kind_lambda
    from hubbard_gf.model import FermionHamiltonian
    from hubbard_gf.pauli import PauliString, jw_mode
    from hubbard_gf.statevector import apply_pauli, expectation_pauli

    if protocol == "direct":
        out = []
        for k in range(plan.steps + 1):
            circ, mq, sign = direct_point_circuit(source, probe, t, u, plan, k, phi, kind_lambda(kind))
            zz = PauliString.from_letter_map(5, {mq[0]: "Z", mq[1]: "Z"})
            out.append(sign * expectation_pauli(simulate(circ), zz) / math.sin(phi))
        return out
    h = FermionHamiltonian.dimer(t, u)
    src, prb = (jw_mode(h.mode_of(m.site, m.spin), h.n_modes, m.flavor) for m in (source, probe))
    psi = simulate(dimer_ground_circuit(t, u))
    pair = np.stack([psi, apply_pauli(psi, src)])
    step = dimer_trotter_step(t, u, plan.dtau)
    out = []
    for k in range(plan.steps + 1):
        if k:
            pair = simulate(step, pair)
        overlap = complex(np.vdot(pair[0], apply_pauli(pair[1], prb)))
        out.append(overlap.imag if kind == "keldysh" else overlap.real)
    return out


@settings(max_examples=30, deadline=None)
@given(
    t=st.floats(0.05, 3.0),
    u=st.floats(-8.0, 8.0),
    dtau=st.floats(0.01, 1.0),
    steps=st.integers(1, 8),
    phi=st.floats(0.3, math.pi - 0.3),
    kind=st.sampled_from(("retarded", "keldysh")),
    protocol=st.sampled_from(("direct", "hadamard", "advanced_hadamard")),
    pair=st.sampled_from(sorted(DIMER_PAIRS)),
)
def test_fused_step_equals_gate_by_gate_replay(t, u, dtau, steps, phi, kind, protocol, pair):
    # the noiseless protocols apply each step as its fused 16x16 unitary; the series
    # equal a replay of the step's gates to round-off
    source, probe = DIMER_PAIRS[pair]
    plan = TrotterPlan(dtau, steps)
    if protocol == "direct":
        rec = direct_measurement(source, probe, t, u, plan, phi, 0, 0, kind)
    else:
        runner = hadamard_test if protocol == "hadamard" else advanced_hadamard_test
        rec = runner(source, probe, t, u, plan, 0, 0, kind)
    want = _replayed_series(protocol, source, probe, t, u, plan, phi, kind)
    np.testing.assert_allclose(np.array(rec.estimates) / 2, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("protocol", ["direct", "hadamard"])
def test_fused_step_is_one_kernel_call_per_grid_point(monkeypatch, protocol):
    # a gate-by-gate replay costs one kernel call per step gate (32 per grid point);
    # the fused step costs one per grid point past tau = 0, on top of a fixed cost:
    # the prep, the kick and the step's unitary, each built once
    import hubbard_gf.greens as greens
    import hubbard_gf.statevector as statevector

    calls = []
    kernel = statevector.apply_matrix_inplace

    def counting(vec, m, bits, n):
        calls.append(bits)
        kernel(vec, m, bits, n)

    monkeypatch.setattr(statevector, "apply_matrix_inplace", counting)  # every gate, via apply_gate_inplace
    monkeypatch.setattr(greens, "apply_matrix_inplace", counting)  # the fused steps
    source, probe = DIMER_PAIRS["y2y2"]
    counts = {}
    for steps in (5, 25):
        calls.clear()
        plan = TrotterPlan(0.314, steps)
        if protocol == "direct":
            direct_measurement(source, probe, T, U, plan, math.pi / 2, 0, 0)
        else:
            hadamard_test(source, probe, T, U, plan, 0, 0)
        counts[steps] = len(calls)
    assert counts[25] - counts[5] == 20
    assert counts[25] <= 25 + 80
