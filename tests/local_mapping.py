"""Locality-preserving fermion encoding: doubled qubits, bosonized bilinears, long strings.

Geometry.  A physical L x L cluster of spinful sites embeds into an extended
(L+1) x (L+1) grid of unit cells; each cell holds two physical modes (c, spins up
and down) and two auxiliary modes (a).  Inside cell r = (rx, ry) the four modes sit
on a 2 x 2 patch of the site grid:

        a_dn (2rx, 2ry+1)    c_dn (2rx+1, 2ry+1)
        c_up (2rx, 2ry)      a_up (2rx+1, 2ry)

so rows alternate physical/auxiliary and every grid-adjacent pair couples one
physical to one auxiliary mode.  Every mode owns two qubits: register 1 holds the
site's own Pauli letters, register 2 carries the link structure.  Qubits are
numbered row-major over the site grid, the full register-1 block before the
register-2 block, which keeps the long measurement strings contiguous.

All verification here is symbolic (Pauli-string level): commutation of mapped
bilinears is checked against a plain Jordan-Wigner reference encoding of the same
extended lattice, which is what the measurement protocol relies on.  No command
runs the encoding: criterion 7 and test_local_mapping check it, and import it as
`from local_mapping import ...`.
"""
from __future__ import annotations

from dataclasses import dataclass

from hubbard_gf.pauli import MajoranaIndex, PauliString, clifford_conjugate, jw_mode
from hubbard_gf.statevector import GateOp, inverse_gate

# (spin, register) -> offset inside the 2x2 cell patch
_CELL_OFFSETS = {
    ("up", "physical"): (0, 0),
    ("up", "auxiliary"): (1, 0),
    ("down", "auxiliary"): (0, 1),
    ("down", "physical"): (1, 1),
}


@dataclass(frozen=True)
class ModeIndex(MajoranaIndex):
    """One Majorana mode of the extended cluster: a site's mode, or its auxiliary partner."""

    register: str = "physical"

    def __post_init__(self):
        super().__post_init__()
        if self.register not in ("physical", "auxiliary"):
            raise ValueError("register must be 'physical' or 'auxiliary'")


@dataclass(frozen=True)
class BilinearOp:
    """i * first * second for two distinct Majorana modes (Hermitian as written)."""

    first: ModeIndex
    second: ModeIndex

    def __post_init__(self):
        if (self.first.site, self.first.spin, self.first.register) == (
            self.second.site,
            self.second.spin,
            self.second.register,
        ):
            raise ValueError("bilinear needs two distinct modes")


@dataclass(frozen=True)
class LatticeLayout:
    """Extended-cluster bookkeeping for a physical L x L cluster."""

    L: int

    def __post_init__(self):
        if self.L < 1:
            raise ValueError("cluster side must be >= 1")

    @property
    def side_cells(self) -> int:
        return self.L + 1

    @property
    def side_sites(self) -> int:
        return 2 * self.L + 2

    @property
    def n_modes(self) -> int:
        return self.side_sites ** 2

    @property
    def n_qubits(self) -> int:
        return 2 * self.n_modes

    def cell_index(self, cell: tuple[int, int]) -> int:
        rx, ry = cell
        if not (0 <= rx < self.side_cells and 0 <= ry < self.side_cells):
            raise ValueError(f"cell {cell} outside the extended cluster")
        return ry * self.side_cells + rx

    def cell_of(self, index: int) -> tuple[int, int]:
        return index % self.side_cells, index // self.side_cells

    def is_physical_cell(self, cell: tuple[int, int]) -> bool:
        rx, ry = cell
        return 0 <= rx < self.L and 0 <= ry < self.L

    def majorana(
        self, cell: tuple[int, int], spin: str, flavor: str, register: str = "physical"
    ) -> ModeIndex:
        return ModeIndex(self.cell_index(cell), spin, flavor, register)

    def grid_pos(self, m: ModeIndex) -> tuple[int, int]:
        rx, ry = self.cell_of(m.site)
        dx, dy = _CELL_OFFSETS[(m.spin, m.register)]
        return 2 * rx + dx, 2 * ry + dy

    def mode_index(self, m: ModeIndex) -> int:
        sx, sy = self.grid_pos(m)
        return sy * self.side_sites + sx

    def qubits(self, m: ModeIndex) -> tuple[int, int]:
        """(register-1 qubit, register-2 qubit) of the mode."""
        idx = self.mode_index(m)
        return idx, self.n_modes + idx

    def jw_reference(self, m: ModeIndex) -> PauliString:
        """Plain Jordan-Wigner image of the same mode, width n_modes (oracle side)."""
        return jw_mode(self.mode_index(m), self.n_modes, m.flavor)


def jw_reference_bilinear(b: BilinearOp, layout: LatticeLayout) -> PauliString:
    """i * first * second through the plain JW reference encoding."""
    return (layout.jw_reference(b.first) * layout.jw_reference(b.second)).times_i()


# -- elementary links -------------------------------------------------------------


def _oriented(b: BilinearOp, layout: LatticeLayout):
    """Resolve the link orientation; returns (lead, trail, axis, sign_exp).

    lead is the left (horizontal) or bottom (vertical) mode; swapping the
    operator order flips the bilinear's sign.
    """
    p1, p2 = layout.grid_pos(b.first), layout.grid_pos(b.second)
    dx, dy = p2[0] - p1[0], p2[1] - p1[1]
    if (dx, dy) == (1, 0):
        return b.first, b.second, "x", 0
    if (dx, dy) == (-1, 0):
        return b.second, b.first, "x", 2
    if (dx, dy) == (0, 1):
        return b.first, b.second, "y", 0
    if (dx, dy) == (0, -1):
        return b.second, b.first, "y", 2
    raise ValueError(f"modes at {p1} and {p2} are not an elementary link")


def map_elementary_bilinear(b: BilinearOp, layout: LatticeLayout) -> PauliString:
    """Qubit image of i * first * second for one grid link (one physical, one auxiliary).

    Horizontal link (left mode l, right mode r):
        i x_l s_r -> - X_l^(1) [letter] ...,  i y_l s_r -> + Y_l^(1) [letter] ...
        with the right mode contributing Y^(1) for x, X^(1) for y, and a trailing
        Z on the right mode's register-2 qubit.
    Vertical link (bottom b, top t): overall minus sign, letters Y^(1) for x and
        X^(1) for y on both, with the trailing pair Y_b^(2) X_t^(2).
    """
    if b.first.register == b.second.register:
        raise ValueError("elementary links pair one physical with one auxiliary mode")
    lead, trail, axis, swap_exp = _oriented(b, layout)
    lead_q1, lead_q2 = layout.qubits(lead)
    trail_q1, trail_q2 = layout.qubits(trail)
    if axis == "x":
        sign_exp = 2 if lead.flavor == "x" else 0
        letters = {
            lead_q1: "X" if lead.flavor == "x" else "Y",
            trail_q1: "Y" if trail.flavor == "x" else "X",
            trail_q2: "Z",
        }
    else:
        sign_exp = 2
        letters = {
            lead_q1: "Y" if lead.flavor == "x" else "X",
            trail_q1: "Y" if trail.flavor == "x" else "X",
            lead_q2: "Y",
            trail_q2: "X",
        }
    return PauliString.from_letter_map(layout.n_qubits, letters, sign_exp + swap_exp)


def _chain(path: list[ModeIndex], layout: LatticeLayout) -> PauliString:
    """Image of i * sigma_0 ... sigma_k along a grid-adjacent mode path.

    Intermediate squares collapse; the product of the k mapped links carries an
    extra i^(1-k) from pulling the i out of each factor.
    """
    if len(path) < 2:
        raise ValueError("path needs at least two modes")
    prod = None
    for m1, m2 in zip(path, path[1:]):
        link = map_elementary_bilinear(BilinearOp(m1, m2), layout)
        prod = link if prod is None else prod * link
    k = len(path) - 1
    out = PauliString(prod.width, prod.xbits, prod.zbits, prod.phase_exp + (1 - k))
    if not out.is_hermitian:
        raise AssertionError("chained bilinear came out non-Hermitian")
    return out


# -- hopping compilers --------------------------------------------------------------


def _hopping_paths(r: tuple[int, int], sigma: str, direction: str, layout: LatticeLayout):
    rx, ry = r
    if direction == "x":
        dest = (rx + 1, ry)
        if sigma == "up":
            mid = layout.majorana(r, "up", "x", "auxiliary")
        else:
            mid = layout.majorana(dest, "down", "x", "auxiliary")
    elif direction == "y":
        dest = (rx, ry + 1)
        if sigma == "up":
            mid = layout.majorana(r, "down", "x", "auxiliary")
        else:
            mid = layout.majorana(dest, "up", "x", "auxiliary")
    else:
        raise ValueError(f"direction must be x or y, got {direction!r}")
    if not (layout.is_physical_cell(r) and layout.is_physical_cell(dest)):
        raise ValueError(f"hopping {r}->{dest} leaves the physical cluster")
    return dest, mid


def map_hopping(
    r: tuple[int, int], sigma: str, direction: str, layout: LatticeLayout
) -> tuple[PauliString, PauliString]:
    """The two commuting summands of the hopping from r in direction x or y; their mean is T."""
    dest, mid = _hopping_paths(r, sigma, direction, layout)
    y_first = _chain(
        [layout.majorana(r, sigma, "y"), mid, layout.majorana(dest, sigma, "x")], layout
    )
    x_first = _chain(
        [layout.majorana(r, sigma, "x"), mid, layout.majorana(dest, sigma, "y")], layout
    )
    # T = (i/2)(y_r x_dest - x_r y_dest) = (sum of the two returned strings) / 2
    return -x_first, y_first


def hopping_bilinears(r, sigma, direction, layout) -> list[tuple[float, BilinearOp]]:
    """Fermionic decomposition T = sum_k coef_k * (i * pair_k), for oracle checks."""
    dest, _ = _hopping_paths(r, sigma, direction, layout)
    return [
        (-0.5, BilinearOp(layout.majorana(r, sigma, "x"), layout.majorana(dest, sigma, "y"))),
        (0.5, BilinearOp(layout.majorana(r, sigma, "y"), layout.majorana(dest, sigma, "x"))),
    ]


def source_operator(r: tuple[int, int], layout: LatticeLayout, spin: str = "up") -> PauliString:
    """The local source bilinear i y_r^spin a-x_r^(other spin); its half is the
    perturbation generator used by the measurement protocol."""
    return map_elementary_bilinear(source_bilinear(r, layout, spin), layout)


def source_bilinear(r, layout, spin="up") -> BilinearOp:
    other = "down" if spin == "up" else "up"
    return BilinearOp(
        layout.majorana(r, spin, "y"), layout.majorana(r, other, "x", "auxiliary")
    )


# -- long-range measurement string ---------------------------------------------------


def _measurement_geometry(r, r_prime, layout):
    a = r_prime[0] - r[0]
    b = r[1] - r_prime[1]
    if a < 1 or b < 1:
        raise ValueError(
            f"path from {r} to {r_prime} must go right and down (a={a}, b={b}); "
            "degenerate straight-line paths are not defined"
        )
    corner = (r[0] + a, r[1])
    for cell in (r, r_prime, corner):
        layout.cell_index(cell)  # bounds check
    return a, b, corner


def measurement_path(r, r_prime, layout) -> list[ModeIndex]:
    """Mode path of the probe bilinear i x_r^dn a-x_{r'}^dn: right along the
    spin-down row to the corner cell's auxiliary, then down to r'."""
    a, b, corner = _measurement_geometry(r, r_prime, layout)
    path = [layout.majorana(r, "down", "x")]
    for n in range(1, a):
        cell = (r[0] + n, r[1])
        path.append(layout.majorana(cell, "down", "x", "auxiliary"))
        path.append(layout.majorana(cell, "down", "x"))
    path.append(layout.majorana(corner, "down", "x", "auxiliary"))
    for n in range(b):
        path.append(layout.majorana((corner[0], corner[1] - n), "up", "x"))
        path.append(layout.majorana((corner[0], corner[1] - n - 1), "down", "x", "auxiliary"))
    return path


def measurement_bilinear(r, r_prime, layout) -> BilinearOp:
    return BilinearOp(
        layout.majorana(r, "down", "x"), layout.majorana(r_prime, "down", "x", "auxiliary")
    )


def build_measurement_string(r, r_prime, layout: LatticeLayout) -> PauliString:
    """Pauli image of i x_r^dn a-x_{r'}^dn; its half is the measured bilinear."""
    out = _chain(measurement_path(r, r_prime, layout), layout)
    if out * out != PauliString.identity(out.width):
        raise AssertionError("measurement string is not involutory")
    return out


def measurement_prep_rotations(r, r_prime, layout: LatticeLayout) -> tuple[GateOp, ...]:
    """The two single-qubit rotations that turn the string's endpoint letters into Zs
    (applied to the state before the reducer)."""
    a, b, corner = _measurement_geometry(r, r_prime, layout)
    q1_start, _ = layout.qubits(layout.majorana(r, "down", "x"))
    _, q2_corner = layout.qubits(layout.majorana(corner, "down", "x", "auxiliary"))
    return GateOp("H", (q1_start,)), GateOp("XHALF", (q2_corner,))


def build_measurement_reducer(r, r_prime, layout: LatticeLayout) -> tuple[GateOp, ...]:
    """Clifford that maps the two-qubit parity of r' back onto the rotated string.

    Structure: a three-CNOT junction block at the corner cell, a CNOT chain along
    the horizontal leg (4 per cell), a CNOT chain down the vertical leg (2 per
    cell) and the final X half-turns on the two measured qubits; CNOT count is
    exactly 4a + 2b.  Conjugating Zbar1_{r'} Zbar2_{r'} through it reproduces the
    rotated measurement string.
    """
    a, b, corner = _measurement_geometry(r, r_prime, layout)
    n = layout.n_qubits

    def q(cell, spin, reg):
        return layout.qubits(layout.majorana(cell, spin, "x", reg))

    corner_q1a, corner_q2a = q(corner, "down", "auxiliary")
    corner_q1c, corner_q2c = q(corner, "down", "physical")

    # junction block: conjugation-neutral alignment CNOTs inside the corner cell
    gates = [
        GateOp("CNOT", (corner_q2a, corner_q1a)),
        GateOp("CNOT", (corner_q2a, corner_q1c)),
        GateOp("CNOT", (corner_q2a, corner_q2c)),
    ]
    # horizontal leg: chain from the starting register-1 qubit through every
    # interior cell's four string qubits into the corner's register-2 qubit
    x_chain = [q(r, "down", "physical")[0]]
    for k in range(1, a):
        cell = (r[0] + k, r[1])
        qa1, qa2 = q(cell, "down", "auxiliary")
        qc1, qc2 = q(cell, "down", "physical")
        x_chain += [qa1, qa2, qc1, qc2]
    x_chain.append(corner_q2a)
    gates += [GateOp("CNOT", (u, v)) for u, v in zip(x_chain, x_chain[1:])]
    # vertical leg: corner register-2 pair chain down to the measured qubit
    y_chain = [corner_q2a]
    for k in range(b):
        cell_up = (corner[0], corner[1] - k)
        y_chain.append(q(cell_up, "up", "physical")[1])
        if k < b - 1:
            y_chain.append(q((corner[0], corner[1] - k - 1), "down", "auxiliary")[1])
    meas_q1, meas_q2 = q(r_prime, "down", "auxiliary")
    y_chain.append(meas_q2)
    gates += [GateOp("CNOT", (u, v)) for u, v in zip(y_chain, y_chain[1:])]
    gates += [GateOp("XHALF", (meas_q1,)), GateOp("XHALF", (meas_q2,))]

    # fix the overall sign against the rotated string, flipping with a Z if needed
    target = reduced_target(r, r_prime, layout)
    parity = PauliString.from_letter_map(n, {meas_q1: "Z", meas_q2: "Z"})
    got = clifford_conjugate(gates, parity)
    if got == target:
        return tuple(gates)
    if (got.xbits, got.zbits) == (target.xbits, target.zbits):
        return (GateOp("Z", (meas_q1,)), *gates)
    raise AssertionError("reducer conjugation does not reproduce the measurement string")


def reduced_target(r, r_prime, layout: LatticeLayout) -> PauliString:
    """The measurement string after the endpoint rotations (what the reducer must hit):
    rotated = prep * string * prep^dag."""
    string = build_measurement_string(r, r_prime, layout)
    prep = measurement_prep_rotations(r, r_prime, layout)
    return clifford_conjugate([inverse_gate(g) for g in reversed(prep)], string)
