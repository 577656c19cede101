import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hubbard_gf.model import FermionHamiltonian, Hopping, Repulsion
from hubbard_gf.pauli import PauliString
from hubbard_gf.statevector import expectation_pauli
from hubbard_gf.vha import (
    MAX_GRID_POINTS,
    canonical_angles,
    EnergyEstimate,
    LandscapePoint,
    LandscapeResult,
    VhaParams,
    _energy_estimates,
    _hop_pairs,
    _run_per_angle,
    landscape_sweep,
    measure_energy,
    optimal_angles,
    slater_prep_circuit,
    variational_energy_formula,
    vha_circuit,
    vha_state,
)
from hubbard_gf.circuit import (
    Circuit,
    circuit_unitary,
    dimer_hopping_layer,
    dimer_interaction_step,
    hop_basis_circuit,
    simulate,
)
from hubbard_gf.statevector import GateOp, sample_counts
from reference import build_matrix, dimer_ground_energy, dimer_sector_energies, ground_state, optimize


def test_params_validation():
    with pytest.raises(ValueError):
        VhaParams(7.0, 0.0)
    params = VhaParams(0.1, 0.2)
    assert (params.alpha, params.beta) == (0.1, 0.2)


def test_slater_state_particle_number_and_fidelity():
    state = simulate(slater_prep_circuit())
    # two fermions: total-Z parity +1 and <N> = 2
    n_total = 0.0
    for q in range(4):
        z = PauliString.from_letter_map(4, {q: "Z"})
        n_total += 0.5 * (1 - expectation_pauli(state, z))
    assert n_total == pytest.approx(2.0, abs=1e-12)
    e0, gs = ground_state(build_matrix(FermionHamiltonian.dimer(1.0, 0.0)))
    assert abs(np.vdot(state, gs)) ** 2 == pytest.approx(1.0, abs=1e-10)


def test_slater_hopping_energy():
    est = measure_energy(slater_prep_circuit(), FermionHamiltonian.dimer(1.0, 0.0), shots=0)
    assert est.hopping == pytest.approx(-2.0, abs=1e-12)
    assert est.interaction == pytest.approx(0.0, abs=1e-12)


def test_vha_zero_angles_is_slater():
    s1 = vha_state(VhaParams(0.0, 0.0))
    s2 = simulate(slater_prep_circuit())
    assert abs(np.vdot(s1, s2)) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_vha_energy_matches_closed_form_random_angles():
    rng = np.random.default_rng(0)
    t, u = 1.0, 4.0
    h = FermionHamiltonian.dimer(t, u)
    for _ in range(25):
        a, b = rng.uniform(-math.pi, math.pi, size=2)
        est = measure_energy(vha_circuit(VhaParams(float(a), float(b))), h, shots=0)
        assert est.value == pytest.approx(variational_energy_formula(t, u, a, b), abs=1e-12)


def test_vha_energy_at_printed_values():
    t, u = 1.0, 4.0
    assert variational_energy_formula(t, u, 0.0, 0.0) == pytest.approx(-3.0)
    h = FermionHamiltonian.dimer(t, u)
    est = measure_energy(vha_circuit(VhaParams(0.0, 0.0)), h, shots=0)
    assert est.value == pytest.approx(-3.0, abs=1e-12)
    est = measure_energy(vha_circuit(VhaParams(-0.92, 0.39)), h, shots=0)
    assert est.value == pytest.approx(-3.2360, abs=1e-3)


def test_optimal_angles_reach_ground_energy_and_fidelity():
    for t, u in [(1.0, 0.0), (1.0, 4.0), (1.0, 8.0)]:
        a, b = optimal_angles(t, u)
        h = FermionHamiltonian.dimer(t, u)
        est = measure_energy(vha_circuit(VhaParams(a, b)), h, shots=0)
        assert est.value == pytest.approx(dimer_ground_energy(t, u), abs=1e-10)
        _, gs = ground_state(build_matrix(h))
        assert abs(np.vdot(vha_state(VhaParams(a, b)), gs)) ** 2 >= 1 - 1e-8


def test_optimal_angles_match_figure_values():
    a, b = optimal_angles(1.0, 4.0)
    assert a == pytest.approx(-0.92, abs=0.02)
    assert b == pytest.approx(0.39, abs=0.02)


@settings(max_examples=200, deadline=None)
@given(t=st.floats(-1e300, 1e300), u=st.floats(-1e300, 1e300))
def test_optimal_alpha_keeps_its_bits_wherever_8t_is_finite(t, u):
    # atan2(U / 8, t) is atan2(U, 8t) exactly unless 8t overflows or U / 8 loses bits
    assume(u == 0 or abs(u) >= 8 * sys.float_info.min)
    assert optimal_angles(t, u)[0] == -2 * math.atan2(u, 8 * t)


def test_energy_breakdown_matches_sector_energies():
    t, u = 1.0, 4.0
    circuit = vha_circuit(VhaParams(*optimal_angles(t, u)))
    est = measure_energy(circuit, FermionHamiltonian.dimer(t, u), shots=0)
    e_hop, e_int = dimer_sector_energies(t, u)
    assert est.hopping == pytest.approx(e_hop, abs=1e-10)
    assert est.interaction == pytest.approx(e_int, abs=1e-10)


def test_estimate_validation():
    with pytest.raises(ValueError):
        EnergyEstimate(1.0, -0.1, 10, 0.5, 0.5)
    with pytest.raises(ValueError):
        EnergyEstimate(1.0, 0.1, 10, 0.5, 0.1)


def test_repulsion_estimator_exact_on_computational_state():
    # |11> on the interacting site's qubits (0 and 2): repulsion reads U exactly
    prep = Circuit(4, (GateOp("X", (0,)), GateOp("X", (2,))))
    est = measure_energy(prep, FermionHamiltonian.dimer(1.0, 4.0), shots=64, seed=5)
    assert est.interaction == pytest.approx(4.0 * 1.0 - 4.0, abs=1e-12)  # U*P11 - (U/2)*(n_up+n_dn)
    # hopping estimate vanishes in expectation here but retains shot noise
    assert est.shots == 64


def test_shot_mode_converges_to_exact():
    t, u = 1.0, 4.0
    circuit, h = vha_circuit(VhaParams(*optimal_angles(t, u))), FermionHamiltonian.dimer(t, u)
    exact = measure_energy(circuit, h, shots=0).value
    errs = []
    for shots in (256, 4096, 65536):
        est = measure_energy(circuit, h, shots=shots, seed=11)
        errs.append(abs(est.value - exact))
        # within 5 sigma of the exact value
        assert abs(est.value - exact) < 5 * max(est.stderr, 1e-12)
    assert errs[-1] < errs[0] + 1e-3  # tighter with more shots (allow noise slack)


def test_stderr_scaling():
    circuit, h = vha_circuit(VhaParams(-0.9, 0.4)), FermionHamiltonian.dimer(1.0, 4.0)
    est1 = measure_energy(circuit, h, shots=256, seed=3)
    est2 = measure_energy(circuit, h, shots=256 * 16, seed=3)
    assert est2.stderr == pytest.approx(est1.stderr / 4, rel=0.3)


def test_4096_shot_estimate_within_4_sigma():
    t, u = 1.0, 4.0
    est = measure_energy(vha_circuit(VhaParams(*optimal_angles(t, u))), FermionHamiltonian.dimer(t, u),
                         shots=4096, seed=7)
    assert abs(est.value - (-3.23607)) <= 4 * est.stderr + 1e-6


def test_landscape_grid_and_argmin():
    t, u = 1.0, 4.0
    alphas = np.linspace(-math.pi, math.pi, 21)
    betas = np.linspace(-math.pi, math.pi, 21)
    res = landscape_sweep(t, u, alphas, betas)
    for k in range(50):
        i, j = divmod(k, len(betas))
        assert res.energies[i, j] == pytest.approx(
            variational_energy_formula(t, u, alphas[i], betas[j]), abs=1e-12
        )
    a_star, b_star = optimal_angles(t, u)
    da = alphas[1] - alphas[0]
    a_best, b_best = canonical_angles(res.best.alpha, res.best.beta)
    assert abs(a_best - a_star) <= da
    assert abs(b_best - b_star) <= da


_angles = st.lists(st.floats(-math.pi, math.pi), min_size=1, max_size=4)


@settings(max_examples=40, deadline=None)
@given(
    alphas=_angles,
    betas=_angles,
    t=st.floats(0.05, 3.0),
    u=st.floats(0.0, 8.0),
)
def test_exact_landscape_equals_closed_form_and_per_point_energy(alphas, betas, t, u):
    res = landscape_sweep(t, u, alphas, betas)
    assert (res.alphas.tolist(), res.betas.tolist()) == (alphas, betas)
    assert res.energies.shape == res.stderrs.shape == (len(alphas), len(betas))
    assert not res.stderrs.any()
    h = FermionHamiltonian.dimer(t, u)
    for (i, a), (j, b) in itertools.product(enumerate(alphas), enumerate(betas)):
        assert abs(res.energies[i, j] - variational_energy_formula(t, u, a, b)) < 1e-12
        single = measure_energy(vha_circuit(VhaParams(a, b)), h, shots=0)
        assert abs(res.energies[i, j] - single.value) < 1e-12
    # the first grid point, row-major, with the lowest energy
    low = res.energies.min()
    first = list(itertools.product(alphas, betas))[res.energies.ravel().tolist().index(low)]
    assert res.best == LandscapePoint(*first, low, 0.0)


def test_shot_landscape_seeded_and_within_4_sigma():
    t, u = 1.0, 4.0
    grid = np.linspace(-math.pi, math.pi, 13)
    res = landscape_sweep(t, u, grid, grid, shots=256, seed=17)
    again = landscape_sweep(t, u, grid, grid, shots=256, seed=17)
    other = landscape_sweep(t, u, grid, grid, shots=256, seed=18)
    assert np.array_equal(res.energies, again.energies) and np.array_equal(res.stderrs, again.stderrs)
    assert not np.array_equal(res.energies, other.energies)
    closed = np.array([[variational_energy_formula(t, u, a, b) for b in grid] for a in grid])
    assert np.mean(np.abs(res.energies - closed) <= 4 * res.stderrs) >= 0.95


@pytest.mark.parametrize("shots", [0, 4096])
def test_a_bond_between_non_adjacent_modes_is_refused_before_evolving(shots, monkeypatch):
    # site-major ordering puts the chain's bond two qubits apart: no two-qubit basis measures it
    from hubbard_gf import vha

    h = FermionHamiltonian(2, hoppings=(Hopping(0, 1, 1.0),), repulsions=(Repulsion(0, 4.0), Repulsion(1, 4.0)))
    monkeypatch.setattr(vha, "simulate", None)  # nothing is evolved before the refusal
    with pytest.raises(ValueError, match="non-adjacent modes 0 and 2"):
        measure_energy(slater_prep_circuit(), h, shots, seed=2)
    with pytest.raises(ValueError, match="non-adjacent modes 0 and 2"):
        _energy_estimates(simulate(slater_prep_circuit())[None], h, shots, (2,))


def test_landscape_periodicity():
    t, u = 1.0, 4.0
    e1 = variational_energy_formula(t, u, -0.9, 0.4)
    e2 = variational_energy_formula(t, u, -0.9, 0.4 + math.pi / 2)
    assert e1 == pytest.approx(e2, abs=1e-12)


def test_landscape_empty_grid():
    with pytest.raises(ValueError):
        landscape_sweep(1.0, 4.0, [], [0.1])


def test_optimize_exact_converges():
    res = optimize(1.0, 4.0, budget=300)
    assert res.energy == pytest.approx(dimer_ground_energy(1.0, 4.0), abs=1e-6)
    # monotone non-increasing trace
    assert all(b <= a + 1e-15 for a, b in zip(res.trace, res.trace[1:]))


def test_exact_optimize_measures_through_measure_energy(monkeypatch):
    # an exact optimization evaluates each angle pair as measure_energy does, and draws nothing
    from hubbard_gf import vha

    circuits = []
    real = vha.measure_energy

    def recorded(circuit, h, shots, seed=0):
        circuits.append(circuit)
        assert (shots, seed) == (0, 0)
        return real(circuit, h, shots, seed)

    monkeypatch.setattr(vha, "measure_energy", recorded)
    monkeypatch.setattr(vha, "child_seeds", None)  # a shot-free run derives no seeds
    res = optimize(1.0, 4.0, budget=300)
    h = FermionHamiltonian.dimer(1.0, 4.0)
    energies = [real(circuit, h, shots=0).value for circuit in circuits]
    assert len(energies) == len(res.trace) == res.evaluations == 206
    # the trace holds the best energy so far, each one of measure_energy's values bit for bit
    assert res.trace[0] == energies[0] and set(res.trace) <= set(energies)
    assert all(best <= e + 1e-15 for best, e in zip(res.trace, energies))  # descent takes gains > 1e-15
    assert (res.params.alpha, res.params.beta) == (-0.9272952249739105, 0.3926990816987235)
    assert res.energy == -3.2360679774997787


def test_optimize_u_zero_alpha_irrelevant():
    res = optimize(1.0, 0.0, budget=200)
    assert res.energy == pytest.approx(-2.0, abs=1e-8)


def test_optimize_budget_and_improvement():
    start = VhaParams(0.0, 0.0)  # the search's one starting point
    res = optimize(1.0, 4.0, budget=40)
    start_e = measure_energy(vha_circuit(start), FermionHamiltonian.dimer(1.0, 4.0), shots=0).value
    assert res.energy <= start_e
    assert res.evaluations <= 40
    with pytest.raises(ValueError):
        optimize(1.0, 4.0, budget=0)


# -- batched estimators against the per-point loop they replaced ---------------------


def _per_point_reference(amps, h, shots, seeds):
    """(value, stderr, hopping, interaction) per row, drawn and estimated one point at a
    time: each row rotated by its own simulate call, sample_counts per run, then Python
    float arithmetic on that point's histograms."""
    n = h.n_modes
    runs = [(Circuit(n), tuple(range(n)))]
    runs += [(hop_basis_circuit(a, b, n), (a, b)) for _, a, b in _hop_pairs(h)]

    def stderr(mean, second):
        return math.sqrt(max(0.0, second - mean * mean) / shots)

    out = []
    for k, seed in enumerate(seeds):
        run_seeds = np.random.SeedSequence(int(seed)).generate_state(len(runs))
        counts = iter([sample_counts(simulate(basis, amps[k]), qubits, shots, int(s))
                       for (basis, qubits), s in zip(runs, run_seeds)])
        comp = next(counts).tolist()
        e_int = var_int = 0.0
        for rep in h.repulsions:
            a, b = h.mode_of(rep.site, "up"), h.mode_of(rep.site, "down")
            p11 = sum(c for j, c in enumerate(comp) if (j >> a) & (j >> b) & 1) / shots
            e_int += rep.strength * p11
            var_int += (rep.strength * stderr(p11, p11)) ** 2
        for sh in h.shifts:
            for spin in ("up", "down"):
                q = h.mode_of(sh.site, spin)
                p1 = sum(c for j, c in enumerate(comp) if (j >> q) & 1) / shots
                e_int += sh.value * p1
                var_int += (sh.value * stderr(p1, p1)) ** 2
        e_hop = var_hop = 0.0
        for amplitude, _, _ in _hop_pairs(h):
            _, plus, minus, _ = next(counts).tolist()
            mean = plus / shots - minus / shots
            e_hop += amplitude * mean
            var_hop += (amplitude * stderr(mean, plus / shots + minus / shots)) ** 2
        out.append((e_hop + e_int, math.sqrt(var_hop + var_int), e_hop, e_int))
    return out


_axis = st.lists(st.floats(-math.pi, math.pi), min_size=1, max_size=5)


@settings(max_examples=60, deadline=None)
@given(
    alphas=_axis,
    betas=_axis,
    t=st.floats(0.05, 3.0),
    u=st.floats(0.0, 8.0),
    shots=st.sampled_from((1, 7, 256)),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_estimates_equal_per_point_loop(alphas, betas, t, u, shots, seed):
    h = FermionHamiltonian.dimer(t, u)
    amps = np.array([vha_state(VhaParams(a, b)) for a in alphas for b in betas])
    seeds = np.random.SeedSequence(seed).generate_state(len(amps))
    batched = _energy_estimates(amps, h, shots, seeds)
    assert list(zip(*(x.tolist() for x in batched))) == _per_point_reference(amps, h, shots, seeds)
    # exact mode: each row is the one-row batch of that state
    value, stderr, hop, inter = _energy_estimates(amps, h, 0, seeds)
    assert stderr.tolist() == [0.0] * len(amps)
    for k in range(len(amps)):
        row = [x[0] for x in _energy_estimates(amps[k : k + 1], h, 0, seeds[k : k + 1])]
        assert row == [value[k], 0.0, hop[k], inter[k]]
        assert value[k] == hop[k] + inter[k]


def test_batched_estimates_equal_per_point_loop_on_a_13x13_grid():
    # numpy squares an array as x * x and Python a float with libm pow; they differ
    # about once in a thousand squares, which small hypothesis batches rarely show
    h = FermionHamiltonian.dimer(1.0, 4.0)
    axis = np.linspace(-math.pi, math.pi, 13).tolist()
    amps = np.array([vha_state(VhaParams(a, b)) for a in axis for b in axis])
    seeds = np.random.SeedSequence(17).generate_state(len(amps))
    batched = _energy_estimates(amps, h, 256, seeds)
    assert list(zip(*(x.tolist() for x in batched))) == _per_point_reference(amps, h, 256, seeds)


@pytest.mark.parametrize("shots, seed", [(0, 0), (7, 3), (256, 11)])
def test_measure_energy_is_the_batch_of_one(shots, seed):
    circuit = vha_circuit(VhaParams(-0.7, 0.3))
    h = FermionHamiltonian.dimer(1.0, 4.0)
    est = measure_energy(circuit, h, shots, seed)
    row = [float(x[0]) for x in _energy_estimates(simulate(circuit)[None], h, shots, (seed,))]
    assert [est.value, est.stderr, est.hopping, est.interaction] == row
    assert est.shots == shots


@settings(max_examples=30, deadline=None)
@given(angles=st.lists(st.floats(-2 * math.pi, 2 * math.pi), min_size=1, max_size=6))
def test_angle_stacks_equal_per_angle_circuits(angles):
    layers = np.repeat(np.eye(16, dtype=complex)[None], len(angles), axis=0)
    _run_per_angle([dimer_hopping_layer(b) for b in angles], layers.transpose(0, 2, 1))
    assert np.array_equal(layers, np.array([circuit_unitary(dimer_hopping_layer(b)) for b in angles]))
    prefixes = np.repeat(simulate(slater_prep_circuit())[None], len(angles), axis=0)
    _run_per_angle([dimer_interaction_step(a) for a in angles], prefixes)
    singles = [simulate(slater_prep_circuit() + dimer_interaction_step(a)) for a in angles]
    assert np.array_equal(prefixes, np.array(singles))


def test_landscape_best_is_the_first_minimum():
    res = LandscapeResult(np.array([0.1, 0.2]), np.array([0.3, 0.4, 0.5]),
                          np.array([[1.0, -2.0, 0.0], [-2.0, -2.0, 3.0]]), np.zeros((2, 3)))
    # the row-major first of the three -2.0 entries: (0.1, 0.4), not (0.2, 0.3)
    assert res.best == LandscapePoint(0.1, 0.4, -2.0, 0.0)


def test_landscape_refuses_grids_past_dense_capacity():
    with pytest.raises(ValueError, match="dense capacity"):
        landscape_sweep(1.0, 4.0, np.zeros(MAX_GRID_POINTS + 1), [0.0])
