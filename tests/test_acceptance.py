"""Acceptance suite: every criterion checked at its stated tolerance, one
pass/fail line printed per criterion (run with pytest -s to see them live)."""
import functools
import itertools
import math
import operator
import time

import numpy as np
import pytest
from scipy.linalg import expm

from hubbard_gf.circuit import (
    TrotterPlan,
    circuit_unitary,
    dimer_interaction_step,
    dimer_trotter_step,
    hopping_step,
    repulsion_step,
    simulate,
)
from hubbard_gf.greens import (
    DIMER_ANALYTIC_REF,
    DIMER_PAIRS,
    dimer_ground_circuit,
    dimer_suite,
    direct_measurement,
    hadamard_test,
    time_grid,
)
from hubbard_gf.model import FermionHamiltonian
from hubbard_gf.noise import (
    MitigationConfig,
    confusion,
    kolkata_dimer_model,
    mitigate_readout,
    noisy_dimer_series,
    pauli_twirl,
    zne,
)
from hubbard_gf.oracle import (
    dimer_analytic,
    hopping_pauli_terms,
    majorana_operator,
)
from hubbard_gf.pauli import MajoranaIndex
from hubbard_gf.statevector import GateOp, apply_gate_inplace, basis_state
from hubbard_gf.vha import (
    VhaParams,
    landscape_sweep,
    measure_energy,
    optimal_angles,
    variational_energy_formula,
    vha_circuit,
)
from local_mapping import LatticeLayout, build_measurement_reducer
from reference import (
    build_matrix,
    dimer_ground_energy,
    dimer_spectral,
    exact_direct_measurement,
    ground_state,
    lehmann_correlator,
    optimize,
)


def criterion(num, ok, desc):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {desc}"
    print(line, flush=True)
    assert ok, line


def test_criterion_1_ground_state_closed_forms():
    t0 = time.perf_counter()
    worst = 0.0
    for t, u in [(1.0, 0.0), (1.0, 4.0), (1.0, 8.0)]:
        e_ref = dimer_ground_energy(t, u)
        h = FermionHamiltonian.dimer(t, u)
        e_ed, _ = ground_state(build_matrix(h))
        e_vha = measure_energy(vha_circuit(VhaParams(*optimal_angles(t, u))), h, shots=0).value
        worst = max(worst, abs(e_ed - e_ref), abs(e_vha - e_ref))
    elapsed = time.perf_counter() - t0
    criterion(1, worst < 1e-10 and elapsed < 1.0,
              f"ED and VHA energies match closed form (max err {worst:.2e}, {elapsed:.2f}s < 1s)")
    res = optimize(1.0, 4.0, budget=300)
    a, b = res.params.alpha, res.params.beta
    ok = abs(a - (-0.92)) < 0.02 and abs(b - 0.39) < 0.02
    criterion(1, ok, f"optimal angles ({a:.4f}, {b:.4f}) within 0.02 of (-0.92, 0.39)")


def test_criterion_2_landscape_identity():
    t0 = time.perf_counter()
    grid = np.linspace(-math.pi, math.pi, 101)
    res = landscape_sweep(1.0, 4.0, grid, grid, shots=0)
    worst = max(
        abs(res.energies[i, j] - variational_energy_formula(1.0, 4.0, a, b))
        for i, a in enumerate(grid.tolist()) for j, b in enumerate(grid.tolist())
    )
    elapsed = time.perf_counter() - t0
    criterion(2, worst < 1e-10 and elapsed < 30.0,
              f"101x101 exact-mode energies equal the closed form (max err {worst:.2e}, {elapsed:.1f}s < 30s)")


def test_criterion_3_analytic_oracle_agreement():
    t, u = 1.0, 4.0
    h, spect = dimer_spectral(t, u)
    taus = np.linspace(0.0, 7.85, 50)
    ops = {
        (s, fl): majorana_operator(h, s, "up", fl) for s in (0, 1) for fl in ("x", "y")
    }
    worst = 0.0
    for which, (a, b) in [("xx_0", ((0, "x"), (0, "x"))),
                          ("xx_1", ((1, "x"), (1, "x"))),
                          ("xy_01", ((0, "x"), (1, "y")))]:
        got = lehmann_correlator(ops[a], ops[b], h, taus, spect)
        worst = max(worst, float(np.max(np.abs(got - dimer_analytic(which, t, u, taus)))))
    sym = 0.0
    for s in (0, 1):
        sym = max(sym, float(np.max(np.abs(
            lehmann_correlator(ops[(s, "x")], ops[(s, "x")], h, taus, spect)
            - lehmann_correlator(ops[(s, "y")], ops[(s, "y")], h, taus, spect)))))
    sym = max(sym, float(np.max(np.abs(
        lehmann_correlator(ops[(0, "x")], ops[(1, "y")], h, taus, spect)
        - lehmann_correlator(ops[(1, "x")], ops[(0, "y")], h, taus, spect)))))
    criterion(3, worst < 1e-10 and sym < 1e-10,
              f"Lehmann matches closed forms over 50 points (err {worst:.2e}), symmetries hold ({sym:.2e})")


def test_criterion_4_direct_measurement_exactness():
    t, u = 1.0, 4.0
    h, spect = dimer_spectral(t, u)
    plan = TrotterPlan(0.5, 6)
    taus = time_grid(plan)
    x0 = MajoranaIndex(0, "up", "x")
    y1 = MajoranaIndex(1, "up", "y")
    ref = lehmann_correlator(
        majorana_operator(h, 0, "up", "x"), majorana_operator(h, 1, "up", "y"),
        h, np.array(taus), spect,
    )
    worst_r = worst_k = spread = 0.0
    per_phi = []
    for phi in (0.3, 0.8, math.pi / 2):
        rec_r = exact_direct_measurement(y1, x0, t, u, plan, phi, "retarded")
        rec_k = exact_direct_measurement(y1, x0, t, u, plan, phi, "keldysh")
        worst_r = max(worst_r, float(np.max(np.abs(np.array(rec_r.estimates) - 2 * ref.real))))
        worst_k = max(worst_k, float(np.max(np.abs(np.array(rec_k.estimates) - 2 * ref.imag))))
        per_phi.append(rec_r.estimates)
    arr = np.array(per_phi)
    spread = float(np.max(np.abs(arr - arr[0])))
    criterion(4, worst_r < 1e-10 and worst_k < 1e-10 and spread < 1e-10,
              "direct measurement with exact evolution equals the full (anti)commutators "
              f"and is Phi-independent (retarded {worst_r:.2e}, keldysh {worst_k:.2e}, spread {spread:.2e})")


def trotterized_reference(t, u, plan, name):
    """Independent Trotterized-propagator correlator via matrix powers."""
    h, _ = dimer_spectral(t, u)
    psi = simulate(dimer_ground_circuit(t, u))
    step_u = circuit_unitary(dimer_trotter_step(t, u, plan.dtau))
    source, probe = DIMER_PAIRS[name]
    a_m = majorana_operator(h, probe.site, probe.spin, probe.flavor).to_matrix()
    b_m = majorana_operator(h, source.site, source.spin, source.flavor).to_matrix()
    out = []
    u_t = np.eye(16, dtype=complex)
    for k, tau in enumerate(time_grid(plan)):
        if k:
            u_t = step_u @ u_t
        out.append(2 * np.real((u_t @ psi).conj() @ (a_m @ (u_t @ (b_m @ psi)))))
    return np.array(out)


def test_criterion_5_paper_experiment_noiseless():
    t, u, phi = 1.0, 4.0, math.pi / 2
    t0 = time.perf_counter()
    plan = TrotterPlan(0.314, 25)
    suite = dimer_suite(t, u, plan, phi, shots=0, seed=0)
    max_dev = bound = 0.0
    for name, rec in suite.items():
        taus = np.array(rec.taus)
        analytic = 2 * np.real(dimer_analytic(DIMER_ANALYTIC_REF[name], t, u, taus))
        dev = float(np.max(np.abs(np.array(rec.estimates) - analytic)))
        tbound = float(np.max(np.abs(trotterized_reference(t, u, plan, name) - analytic)))
        max_dev = max(max_dev, dev)
        bound = max(bound, tbound)
        criterion(5, dev <= tbound + 1e-9,
                  f"{name}: max deviation {dev:.4f} within the measured Trotter error {tbound:.4f}")

    half = TrotterPlan(0.157, 50)
    suite_half = dimer_suite(t, u, half, phi, shots=0, seed=0)
    dev_half = max(
        float(np.max(np.abs(
            np.array(rec.estimates)
            - 2 * np.real(dimer_analytic(DIMER_ANALYTIC_REF[name], t, u, np.array(rec.taus)))
        )))
        for name, rec in suite_half.items()
    )
    ratio = max_dev / dev_half
    criterion(5, ratio >= 1.8, f"halving dtau reduces max deviation by {ratio:.2f}x >= 1.8x")

    shot_suite = dimer_suite(t, u, plan, phi, shots=4096, seed=7)
    in_band = total = 0
    for name, rec in shot_suite.items():
        exact = np.array(suite[name].estimates)
        est = np.array(rec.estimates)
        err = np.maximum(np.array(rec.stderrs), 1e-12)
        in_band += int(np.sum(np.abs(est - exact) <= 4 * err))
        total += len(est)
    frac = in_band / total
    elapsed = time.perf_counter() - t0
    criterion(5, frac >= 0.95 and elapsed < 120,
              f"4096-shot estimates within 4 sigma at {frac*100:.1f}% of points (>=95%), {elapsed:.0f}s < 120s")


def test_criterion_6_protocol_equivalence():
    t, u = 1.0, 4.0
    plan = TrotterPlan(0.314, 25)
    x0 = MajoranaIndex(0, "up", "x")
    rec_h = hadamard_test(x0, x0, t, u, plan, 0, 0)
    rec_d = direct_measurement(x0, x0, t, u, plan, math.pi / 2, 0, 0)
    worst = float(np.max(np.abs(np.array(rec_h.estimates) - np.array(rec_d.estimates))))
    criterion(6, worst < 1e-10,
              f"Hadamard test and direct measurement agree on retarded x0-x0 to {worst:.2e}")


def test_criterion_7_mapping_algebra(inventory):
    from hubbard_gf.pauli import commutes

    mismatches = checked = 0
    for L in (1, 2):
        lay = LatticeLayout(L)
        ops = inventory(lay)
        for (m1, r1), (m2, r2) in itertools.combinations(ops, 2):
            checked += 1
            if commutes(m1, m2) != commutes(r1, r2):
                mismatches += 1
    criterion(7, mismatches == 0,
              f"Li-Po vs JW-reference commutation identical over {checked} pairs (L<=2), 0 mismatches")
    lay3 = LatticeLayout(3)
    count_ok = all(
        sum(g.kind == "CNOT" for g in build_measurement_reducer((0, b), (a, 0), lay3)) == 4 * a + 2 * b
        for a, b in itertools.product((1, 2, 3), repeat=2)
    )
    criterion(7, count_ok, "measurement-reducer CNOT count equals 4a+2b for (a,b) in [1,3]^2")


def _relations(strings) -> list[int]:
    """A GF(2) basis of the subsets of strings (bitmasks over their indices) whose x|z masks
    XOR to zero: each string is reduced against the pivots of those before it."""
    pivots: dict[int, tuple[int, int]] = {}  # leading bit -> (mask, subset)
    relations = []
    for k, p in enumerate(strings):
        mask, subset = p.xbits << p.width | p.zbits, 1 << k
        while mask:
            top = mask.bit_length() - 1
            if top not in pivots:
                pivots[top] = (mask, subset)
                break
            mask ^= pivots[top][0]
            subset ^= pivots[top][1]
        else:
            relations.append(subset)
    return relations


def _ordered_product(strings, subset: int):
    return functools.reduce(operator.mul, (p for k, p in enumerate(strings) if subset >> k & 1))


_SIGN_FLIPS = "ROADMAP item 15: some relations among the mapped strings have the opposite sign of their JW images"


@pytest.mark.parametrize("L", [
    1, 2,
    pytest.param(3, marks=pytest.mark.xfail(strict=True, reason=_SIGN_FLIPS)),
    pytest.param(4, marks=pytest.mark.xfail(strict=True, reason=_SIGN_FLIPS)),
])
def test_criterion_7_relation_signs(inventory, L):
    # commutation fixes the mapped algebra only up to signs: every product of mapped strings
    # that is a multiple of I must carry the phase of the same product of the JW references
    mapped, references = zip(*inventory(LatticeLayout(L)))
    relations = _relations(mapped)
    wrong = 0
    for subset in relations:
        m, r = _ordered_product(mapped, subset), _ordered_product(references, subset)
        assert m.xbits == m.zbits == r.xbits == r.zbits == 0
        wrong += m.phase_exp != r.phase_exp
    criterion(7, wrong == 0, f"L={L}: {len(relations)} relations among {len(mapped)} mapped strings, "
                             f"{wrong} with the opposite sign of their JW references")


def test_criterion_8_mitigation_properties():
    # readout round-trip on exact distributions
    c0, c1 = confusion(0.074, 0.052), confusion(0.031, 0.06)
    p_true = [0.5, 0.2, 0.18, 0.12]  # index b0 + 2 * b1
    p_obs = np.zeros(4)
    for b, p in enumerate(p_true):
        for o0 in (0, 1):
            for o1 in (0, 1):
                p_obs[o0 + 2 * o1] += p * c0[b & 1, o0] * c1[b >> 1, o1]
    scale = 10 ** 9
    counts = np.array([int(round(p_obs[o] * scale)) for o in range(4)])
    out = mitigate_readout(counts, [c0, c1])
    worst = max(abs(out.probs[b] - v) for b, v in enumerate(p_true))
    criterion(8, worst < 1e-7, f"readout round-trip recovers exact distributions (err {worst:.2e})")

    # twirl equivalence on a 5-qubit circuit
    from hubbard_gf.greens import direct_point_circuit

    plan = TrotterPlan(0.314, 4)
    src, prb = DIMER_PAIRS["y2y2"]
    circ, _, _ = direct_point_circuit(src, prb, 1.0, 4.0, plan, 2, math.pi / 2, math.pi / 2)
    ref = circuit_unitary(circ)
    variants = pauli_twirl(circ, 10, seed=5)
    worst = max(float(np.max(np.abs(circuit_unitary(v) - ref))) for v in variants)
    criterion(8, worst < 1e-10,
              f"every twirl variant unitarily equivalent on 5 qubits (max elementwise {worst:.2e})")

    scales = (1.0, 1.5, 2.0, 2.5, 3.0)
    res = zne(scales, [1 - 0.1 * s - 0.02 * s * s for s in scales], 2)
    err = abs(res.value - 1.0)
    criterion(8, err < 1e-10, f"ZNE recovers the exact degree-2 polynomial at the stated scales (err {err:.2e})")

    # end-to-end A/B under the device-parameterized model: per time point the
    # worst-correlator deviation of the mitigated pipeline beats unmitigated
    t, u, phi = 1.0, 4.0, math.pi / 2
    plan = TrotterPlan(0.314, 6)
    model = kolkata_dimer_model()
    config = MitigationConfig(readout=True, twirl_variants=4, dd_sequence="none",
                              zne_scales=(1.0, 1.5, 2.0), zne_order=1)
    ideal = {n: np.array(r.estimates) for n, r in dimer_suite(t, u, plan, phi, 0, 0).items()}
    dm, du = [], []
    for name in ideal:
        pair = DIMER_PAIRS[name]
        mit = noisy_dimer_series(*pair, t, u, plan, phi, 4096, 42, model, config).estimates
        unmit = noisy_dimer_series(*pair, t, u, plan, phi, 4096, 42, model, MitigationConfig()).estimates
        dm.append(np.abs(np.array(mit) - ideal[name]))
        du.append(np.abs(np.array(unmit) - ideal[name]))
    frac = float(np.mean(np.max(dm, axis=0) < np.max(du, axis=0)))
    criterion(8, frac >= 0.8,
              f"mitigated beats unmitigated in max deviation at {frac*100:.0f}% of time points (>=80%)")


def test_criterion_9_simulator_oracles():
    worst = 0.0

    def check(circ, generator):
        nonlocal worst
        u_c = circuit_unitary(circ)
        worst = max(worst, float(np.max(np.abs(u_c - expm(-1j * generator)))))

    theta = 0.437
    for (i, j, sigma) in [(1, 2, "up"), (1, 3, "down")]:
        n_sites = 3
        off = 0 if sigma == "up" else 1
        m, n = 2 * (i - 1) + off, 2 * (j - 1) + off
        gen = sum(c * p.to_matrix() for c, p in hopping_pauli_terms(m, n, 6))
        check(hopping_step(i, j, sigma, theta, n_sites), theta * gen)
    n_up_dn = np.diag([0, 0, 0, 1]).astype(complex)
    check(repulsion_step(1, theta, 2), theta * np.kron(np.eye(4), n_up_dn))
    z = np.diag([1.0, -1.0]).astype(complex)
    z0z2 = np.kron(np.kron(np.eye(2), z), np.kron(np.eye(2), z))
    check(dimer_interaction_step(theta), theta / 4 * (z0z2 - np.eye(16)))
    h = FermionHamiltonian.dimer(1.0, 4.0)
    hop = sum(
        c * p.to_matrix()
        for c, p in __import__("hubbard_gf.oracle", fromlist=["split_pauli_terms"]).split_pauli_terms(h)[0]
    )
    inter = sum(
        c * p.to_matrix()
        for c, p in __import__("hubbard_gf.oracle", fromlist=["split_pauli_terms"]).split_pauli_terms(h)[1]
    )
    step = circuit_unitary(dimer_trotter_step(1.0, 4.0, 0.314))
    ref = expm(-1j * 0.314 * hop) @ expm(-1j * 0.314 * inter)
    worst = max(worst, float(np.max(np.abs(step - ref))))
    criterion(9, worst < 1e-10,
              f"builder unitaries equal matrix exponentials on <=6 qubits (max err {worst:.2e})")

    rng = np.random.default_rng(1)
    state = basis_state(4)
    kinds = ["H", "X", "Z", "XHALF", "RZ", "CNOT", "CZ"]
    for _ in range(10_000):
        kind = str(rng.choice(kinds))
        if kind in ("CNOT", "CZ"):
            a, b = rng.choice(4, size=2, replace=False)
            g = GateOp(kind, (int(a), int(b)))
        elif kind == "RZ":
            g = GateOp(kind, (int(rng.integers(0, 4)),), float(rng.uniform(-math.pi, math.pi)))
        else:
            g = GateOp(kind, (int(rng.integers(0, 4)),))
        apply_gate_inplace(state, g, 4)
    drift = abs(float(np.linalg.norm(state)) - 1.0)
    criterion(9, drift < 1e-9, f"norm drift over 10^4 gates is {drift:.2e} < 1e-9")
