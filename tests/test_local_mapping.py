import itertools

import pytest

from hubbard_gf.pauli import PauliString, clifford_conjugate, commutes
from local_mapping import (
    BilinearOp,
    LatticeLayout,
    build_measurement_reducer,
    build_measurement_string,
    hopping_bilinears,
    jw_reference_bilinear,
    map_elementary_bilinear,
    map_hopping,
    measurement_bilinear,
    measurement_prep_rotations,
    reduced_target,
    source_bilinear,
    source_operator,
)


def q(layout, cell, spin, reg, which):
    m = layout.majorana(cell, spin, "x", reg)
    return layout.qubits(m)[which - 1]


def expect(layout, letters, sign_exp):
    return PauliString.from_letter_map(layout.n_qubits, letters, sign_exp)


@pytest.fixture
def lay():
    return LatticeLayout(2)


# -- elementary link tables ----------------------------------------------------


def test_x_axis_table_spin_up(lay):
    r = (0, 0)
    cases = {
        ("x", "x"): ("X", "Y", 2),
        ("x", "y"): ("X", "X", 2),
        ("y", "x"): ("Y", "Y", 0),
        ("y", "y"): ("Y", "X", 0),
    }
    for (f1, f2), (a, b, sign) in cases.items():
        op = BilinearOp(
            lay.majorana(r, "up", f1), lay.majorana(r, "up", f2, "auxiliary")
        )
        got = map_elementary_bilinear(op, lay)
        want = expect(
            lay,
            {
                q(lay, r, "up", "physical", 1): a,
                q(lay, r, "up", "auxiliary", 1): b,
                q(lay, r, "up", "auxiliary", 2): "Z",
            },
            sign,
        )
        assert got == want, (f1, f2)


def test_x_axis_spin_down_swapped_ordering(lay):
    # the spin-down row orders auxiliary before physical
    r = (0, 0)
    op = BilinearOp(
        lay.majorana(r, "down", "x", "auxiliary"), lay.majorana(r, "down", "x")
    )
    got = map_elementary_bilinear(op, lay)
    want = expect(
        lay,
        {
            q(lay, r, "down", "auxiliary", 1): "X",
            q(lay, r, "down", "physical", 1): "Y",
            q(lay, r, "down", "physical", 2): "Z",
        },
        2,
    )
    assert got == want


def test_y_axis_tables(lay):
    r = (0, 0)
    # physical up with auxiliary down (same cell, vertical)
    cases = {
        ("x", "x"): ("Y", "Y"),
        ("x", "y"): ("Y", "X"),
        ("y", "x"): ("X", "Y"),
        ("y", "y"): ("X", "X"),
    }
    for (f1, f2), (a, b) in cases.items():
        op = BilinearOp(
            lay.majorana(r, "up", f1), lay.majorana(r, "down", f2, "auxiliary")
        )
        got = map_elementary_bilinear(op, lay)
        want = expect(
            lay,
            {
                q(lay, r, "up", "physical", 1): a,
                q(lay, r, "down", "auxiliary", 1): b,
                q(lay, r, "up", "physical", 2): "Y",
                q(lay, r, "down", "auxiliary", 2): "X",
            },
            2,
        )
        assert got == want, (f1, f2)
    # auxiliary up with physical down (other vertical link family)
    op = BilinearOp(
        lay.majorana(r, "up", "x", "auxiliary"), lay.majorana(r, "down", "x")
    )
    got = map_elementary_bilinear(op, lay)
    want = expect(
        lay,
        {
            q(lay, r, "up", "auxiliary", 1): "Y",
            q(lay, r, "down", "physical", 1): "Y",
            q(lay, r, "up", "auxiliary", 2): "Y",
            q(lay, r, "down", "physical", 2): "X",
        },
        2,
    )
    assert got == want


def test_source_operator_matches_printed_form(lay):
    r = (1, 1)
    got = source_operator(r, lay, "up")
    want = expect(
        lay,
        {
            q(lay, r, "up", "physical", 1): "X",
            q(lay, r, "down", "auxiliary", 1): "Y",
            q(lay, r, "up", "physical", 2): "Y",
            q(lay, r, "down", "auxiliary", 2): "X",
        },
        2,
    )
    assert got == want


def test_mapped_bilinears_hermitian_involutory(lay):
    ident = PauliString.identity(lay.n_qubits)
    ops = [
        map_elementary_bilinear(
            BilinearOp(lay.majorana((0, 0), "up", "y"), lay.majorana((0, 0), "up", "x", "auxiliary")),
            lay,
        ),
        source_operator((0, 1), lay, "down"),
        *map_hopping((0, 0), "up", "x", lay),
        *map_hopping((1, 0), "down", "y", lay),
        build_measurement_string((0, 1), (1, 0), lay),
    ]
    for p in ops:
        assert p.is_hermitian
        assert p * p == ident


def test_elementary_rejects_non_links(lay):
    with pytest.raises(ValueError):
        map_elementary_bilinear(
            BilinearOp(lay.majorana((0, 0), "up", "x"), lay.majorana((1, 1), "up", "x", "auxiliary")),
            lay,
        )
    with pytest.raises(ValueError):  # two physical modes
        map_elementary_bilinear(
            BilinearOp(lay.majorana((0, 0), "up", "x"), lay.majorana((0, 0), "down", "x")), lay
        )


def test_orientation_flip_negates(lay):
    a = lay.majorana((0, 0), "up", "y")
    b = lay.majorana((0, 0), "up", "x", "auxiliary")
    fwd = map_elementary_bilinear(BilinearOp(a, b), lay)
    rev = map_elementary_bilinear(BilinearOp(b, a), lay)
    assert fwd == -rev


# -- hoppings --------------------------------------------------------------------


def test_hopping_x_matches_printed_strings(lay):
    r, d = (0, 0), (1, 0)
    xzx, yzy = map_hopping(r, "up", "x", lay)
    trail = {
        q(lay, r, "up", "auxiliary", 2): "Z",
        q(lay, d, "up", "physical", 2): "Z",
    }
    assert xzx == expect(
        lay,
        {
            q(lay, r, "up", "physical", 1): "X",
            q(lay, r, "up", "auxiliary", 1): "Z",
            q(lay, d, "up", "physical", 1): "X",
            **trail,
        },
        0,
    )
    assert yzy == expect(
        lay,
        {
            q(lay, r, "up", "physical", 1): "Y",
            q(lay, r, "up", "auxiliary", 1): "Z",
            q(lay, d, "up", "physical", 1): "Y",
            **trail,
        },
        0,
    )


def test_hopping_y_matches_printed_strings(lay):
    r, d = (0, 0), (0, 1)
    xy_neg, yx = map_hopping(r, "up", "y", lay)
    trail = {
        q(lay, r, "up", "physical", 2): "Y",
        q(lay, r, "down", "auxiliary", 2): "Z",
        q(lay, d, "up", "physical", 2): "X",
    }
    assert yx == expect(
        lay,
        {q(lay, r, "up", "physical", 1): "X", q(lay, d, "up", "physical", 1): "Y", **trail},
        0,
    )
    assert xy_neg == expect(
        lay,
        {q(lay, r, "up", "physical", 1): "Y", q(lay, d, "up", "physical", 1): "X", **trail},
        2,
    )


def test_hopping_y_spin_down_substitution(lay):
    # spins reverted except the string qubit, which moves to the destination cell's
    # spin-up auxiliary
    r, d = (1, 0), (1, 1)
    xy_neg, yx = map_hopping(r, "down", "y", lay)
    trail = {
        q(lay, r, "down", "physical", 2): "Y",
        q(lay, d, "up", "auxiliary", 2): "Z",
        q(lay, d, "down", "physical", 2): "X",
    }
    assert yx == expect(
        lay,
        {q(lay, r, "down", "physical", 1): "X", q(lay, d, "down", "physical", 1): "Y", **trail},
        0,
    )
    want = expect(
        lay,
        {q(lay, r, "down", "physical", 1): "Y", q(lay, d, "down", "physical", 1): "X", **trail},
        2,
    )
    assert (xy_neg.xbits, xy_neg.zbits) == (want.xbits, want.zbits)


def test_hopping_summands_commute_and_are_local(lay):
    for direction, r in (("x", (0, 1)), ("y", (1, 0))):
        for sigma in ("up", "down"):
            s1, s2 = map_hopping(r, sigma, direction, lay)
            assert commutes(s1, s2)
            assert len(s1.support) == 5 and len(s2.support) == 5  # five neighboring qubits
            # beyond the two register-1 endpoint letters, the string part is
            # always three letters long, independent of the cluster size
            n_modes = lay.n_modes
            endpoints = [q for q in s1.support if q < n_modes and s1.letter_at(q) in "XY"]
            assert len(endpoints) == 2 and len(s1.support) - 2 == 3


def test_hopping_boundary_violation(lay):
    with pytest.raises(ValueError):
        map_hopping((1, 0), "up", "x", lay)  # destination leaves the physical cluster
    with pytest.raises(ValueError, match="direction must be x or y"):
        map_hopping((0, 0), "up", "z", lay)


def test_hopping_anticommutes_with_partner_bilinears(lay):
    # each summand's commutation with same-cell partner bilinears matches the
    # fermionic algebra through the JW reference
    r = (0, 0)
    s_xy_neg, s_yx = map_hopping(r, "up", "x", lay)
    pairs = hopping_bilinears(r, "up", "x", lay)
    partner = source_bilinear(r, lay, "up")
    partner_mapped = source_operator(r, lay, "up")
    for (coef, bil), mapped in zip(pairs, (s_xy_neg, s_yx)):
        assert commutes(mapped, partner_mapped) == commutes(
            jw_reference_bilinear(bil, lay), jw_reference_bilinear(partner, lay)
        )


# -- measurement string -------------------------------------------------------------


def expected_measurement_string(lay, r, r_prime):
    a = r_prime[0] - r[0]
    b = r[1] - r_prime[1]
    corner = (r[0] + a, r[1])
    letters = {q(lay, r, "down", "physical", 1): "X"}
    for n in range(1, a):
        cell = (r[0] + n, r[1])
        for reg in ("auxiliary", "physical"):
            letters[q(lay, cell, "down", reg, 1)] = "Z"
            letters[q(lay, cell, "down", reg, 2)] = "Z"
    letters[q(lay, corner, "down", "auxiliary", 2)] = "Y"
    for n in range(b):
        letters[q(lay, (corner[0], corner[1] - n), "up", "physical", 2)] = "Z"
    for n in range(1, b):
        letters[q(lay, (corner[0], corner[1] - n), "down", "auxiliary", 2)] = "Z"
    letters[q(lay, r_prime, "down", "auxiliary", 1)] = "Y"
    letters[q(lay, r_prime, "down", "auxiliary", 2)] = "Y"
    # chaining the printed elementary links gives +1 for every (a, b); the corner
    # Z*X product contributes the i that cancels the leg signs
    return expect(lay, letters, 0)


@pytest.mark.parametrize("r,r_prime", [((0, 1), (1, 0)), ((0, 2), (2, 0)), ((0, 2), (1, 0))])
def test_measurement_string_letters(lay, r, r_prime):
    got = build_measurement_string(r, r_prime, lay)
    assert got == expected_measurement_string(lay, r, r_prime)


def test_measurement_string_product_identity(lay):
    # independent route: split at the corner into the horizontal and vertical legs
    from local_mapping import _chain

    r, r_prime = (0, 2), (2, 0)
    corner = (2, 2)
    # horizontal leg: x_r^dn ... a-x_corner^dn
    hseq = [lay.majorana(r, "down", "x")]
    for n in range(1, 2):
        cell = (r[0] + n, r[1])
        hseq += [lay.majorana(cell, "down", "x", "auxiliary"), lay.majorana(cell, "down", "x")]
    hseq.append(lay.majorana(corner, "down", "x", "auxiliary"))
    h_leg = _chain(hseq, lay)
    # vertical leg from r' up to the corner: a-x_{r'} ... a-x_corner
    vseq = [lay.majorana(r_prime, "down", "x", "auxiliary")]
    for n in range(2, 0, -1):
        cell_above = (corner[0], corner[1] - n + 1)
        vseq.append(lay.majorana(cell_above, "up", "x"))
        vseq.append(lay.majorana((corner[0], corner[1] - n + 1), "down", "x", "auxiliary"))
    v_leg = _chain(vseq, lay)
    # i x_r a-x_{r'} = i * (i x_r a-x_c) (i a-x_{r'} a-x_c)
    assert build_measurement_string(r, r_prime, lay) == (h_leg * v_leg).times_i()


def test_measurement_rejects_degenerate_paths(lay):
    with pytest.raises(ValueError):
        build_measurement_string((0, 1), (0, 0), lay)  # a = 0
    with pytest.raises(ValueError):
        build_measurement_string((0, 1), (1, 1), lay)  # b = 0
    with pytest.raises(ValueError):
        build_measurement_string((0, 1), (9, 0), lay)  # corner out of cluster


# -- reducer ---------------------------------------------------------------------------


@pytest.mark.parametrize("r,r_prime", [((0, 1), (1, 0)), ((0, 2), (1, 0)), ((0, 2), (2, 1)), ((0, 2), (2, 0))])
def test_reducer_conjugation_identity(lay, r, r_prime):
    reducer = build_measurement_reducer(r, r_prime, lay)
    meas = lay.majorana(r_prime, "down", "x", "auxiliary")
    q1, q2 = lay.qubits(meas)
    parity = PauliString.from_letter_map(lay.n_qubits, {q1: "Z", q2: "Z"})
    assert clifford_conjugate(reducer, parity) == reduced_target(r, r_prime, lay)
    # composing the endpoint rotations in front recovers the raw string
    prep = measurement_prep_rotations(r, r_prime, lay)
    full = prep + reducer
    assert clifford_conjugate(full, parity) == build_measurement_string(r, r_prime, lay)


def test_reducer_cnot_count():
    lay3 = LatticeLayout(3)
    for a, b in itertools.product((1, 2, 3), repeat=2):
        r = (0, b)
        r_prime = (a, 0)
        reducer = build_measurement_reducer(r, r_prime, lay3)
        assert sum(g.kind == "CNOT" for g in reducer) == 4 * a + 2 * b, (a, b)


def test_reducer_leaves_off_path_qubits_untouched(lay):
    r, r_prime = (0, 1), (1, 0)
    reducer = build_measurement_reducer(r, r_prime, lay)
    meas = lay.majorana(r_prime, "down", "x", "auxiliary")
    q1, q2 = lay.qubits(meas)
    parity = PauliString.from_letter_map(lay.n_qubits, {q1: "Z", q2: "Z"})
    out = clifford_conjugate(reducer, parity)
    target = reduced_target(r, r_prime, lay)
    assert set(out.support) == set(target.support)
    # reducer gates only touch path-cell qubits
    path_cells = {(0, 1), (1, 1), (1, 0)}
    path_qubits = set()
    for cell in path_cells:
        for spin in ("up", "down"):
            for reg in ("physical", "auxiliary"):
                path_qubits.update(lay.qubits(lay.majorana(cell, spin, "x", reg)))
    assert {t for g in reducer for t in g.targets} <= path_qubits


# -- algebra fidelity against the JW reference --------------------------------------


def test_commutation_matches_jw_reference_l1(inventory):
    lay = LatticeLayout(1)
    ops = inventory(lay)
    for (m1, ref1), (m2, ref2) in itertools.combinations(ops, 2):
        assert commutes(m1, m2) == commutes(ref1, ref2)
