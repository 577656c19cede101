"""Phase-tracked Pauli strings, Jordan-Wigner Majorana operators, Clifford conjugation.

A Pauli string is stored as a pair of bitmasks (X component, Z component) plus an
exact phase, so products and commutation checks are word-parallel and no floating
point ever touches a sign.  The phase convention is the *letter* phase: the stored
exponent k means  i^k * (P_{w-1} x ... x P_0)  with P_q the literal letter at
qubit q and Y meaning the usual [[0,-i],[i,0]].

Qubit 0 is the least-significant / rightmost tensor factor throughout.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .statevector import FIXED_MATRICES, GateOp, gate_matrix

PHASE_LABELS = {0: "+", 1: "+i", 2: "-", 3: "-i"}
_LETTER_TO_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_TO_LETTER = {v: k for k, v in _LETTER_TO_BITS.items()}

LETTER_MATRICES = {"I": np.eye(2, dtype=complex)} | {
    letter: gate_matrix(GateOp(letter, (0,))) for letter in "XYZ"
}


@dataclass(frozen=True)
class PauliString:
    """Immutable width-`width` Pauli string with phase i^phase_exp times its letters."""

    width: int
    xbits: int
    zbits: int
    phase_exp: int = 0

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("width must be >= 1")
        mask = (1 << self.width) - 1
        object.__setattr__(self, "xbits", self.xbits & mask)
        object.__setattr__(self, "zbits", self.zbits & mask)
        object.__setattr__(self, "phase_exp", self.phase_exp % 4)

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, width: int) -> "PauliString":
        return cls(width, 0, 0, 0)

    @classmethod
    def from_letter_map(cls, width: int, letters: dict[int, str], phase_exp: int = 0) -> "PauliString":
        """Build from {qubit: letter}; unlisted qubits are identity."""
        xbits = zbits = 0
        for q, ch in letters.items():
            if not 0 <= q < width:
                raise ValueError(f"qubit {q} out of range for width {width}")
            x, z = _LETTER_TO_BITS[ch]
            xbits |= x << q
            zbits |= z << q
        return cls(width, xbits, zbits, phase_exp)

    # -- inspection --------------------------------------------------------

    def letter_at(self, q: int) -> str:
        return _BITS_TO_LETTER[((self.xbits >> q) & 1, (self.zbits >> q) & 1)]

    @property
    def letters(self) -> str:
        """Letters with qubit width-1 leftmost."""
        return "".join(self.letter_at(q) for q in range(self.width - 1, -1, -1))

    @property
    def label(self) -> str:
        return PHASE_LABELS[self.phase_exp] + self.letters

    @property
    def phase(self) -> complex:
        return 1j ** self.phase_exp

    @property
    def support(self) -> tuple[int, ...]:
        bits = self.xbits | self.zbits
        return tuple(q for q in range(self.width) if (bits >> q) & 1)

    @property
    def is_hermitian(self) -> bool:
        """True iff the operator is Hermitian, i.e. the letter phase is +-1."""
        return self.phase_exp % 2 == 0

    def __str__(self) -> str:
        return self.label

    def to_matrix(self) -> np.ndarray:
        """Dense matrix; guarded to small widths (meant for oracles and tests)."""
        if self.width > 14:
            raise ValueError(f"to_matrix refuses width {self.width} > 14")
        out = np.array([[self.phase]], dtype=complex)
        for q in range(self.width - 1, -1, -1):
            out = np.kron(out, LETTER_MATRICES[self.letter_at(q)])
        return out

    # -- algebra -----------------------------------------------------------

    def __mul__(self, other: "PauliString") -> "PauliString":
        return multiply(self, other)

    def __neg__(self) -> "PauliString":
        return PauliString(self.width, self.xbits, self.zbits, self.phase_exp + 2)

    def times_i(self) -> "PauliString":
        return PauliString(self.width, self.xbits, self.zbits, self.phase_exp + 1)


def _canonical_exp(p: PauliString) -> int:
    # exponent of i when writing the string as i^e * Xhat(x) * Zhat(z); Y = i*X*Z per qubit
    return (p.phase_exp + (p.xbits & p.zbits).bit_count()) % 4


def multiply(a: PauliString, b: PauliString) -> PauliString:
    """Group product a*b with exact phase."""
    if a.width != b.width:
        raise ValueError(f"width mismatch: {a.width} != {b.width}")
    ea, eb = _canonical_exp(a), _canonical_exp(b)
    # commuting Zhat(z_a) through Xhat(x_b) costs (-1)^{|z_a & x_b|}
    e = ea + eb + 2 * (a.zbits & b.xbits).bit_count()
    x = a.xbits ^ b.xbits
    z = a.zbits ^ b.zbits
    return PauliString(a.width, x, z, e - (x & z).bit_count())


def commutes(a: PauliString, b: PauliString) -> bool:
    """True iff a*b == b*a (even number of anticommuting positions)."""
    if a.width != b.width:
        raise ValueError(f"width mismatch: {a.width} != {b.width}")
    return ((a.zbits & b.xbits).bit_count() + (a.xbits & b.zbits).bit_count()) % 2 == 0


# -- Majorana operators under Jordan-Wigner ---------------------------------

SPINS = ("up", "down")
FLAVORS = ("x", "y")


@dataclass(frozen=True)
class MajoranaIndex:
    """One Majorana mode: lattice site, spin, x/y flavor."""

    site: int
    spin: str
    flavor: str

    def __post_init__(self):
        if self.spin not in SPINS:
            raise ValueError(f"spin must be one of {SPINS}")
        if self.flavor not in FLAVORS:
            raise ValueError(f"flavor must be one of {FLAVORS}")


def jw_mode(mode: int, n_modes: int, flavor: str) -> PauliString:
    """Majorana of linear fermion mode `mode` (qubit = mode index).

    x-flavor: X on the mode's qubit behind a Z string on all lower qubits;
    y-flavor: the same with Y and an overall minus sign.
    """
    if not 0 <= mode < n_modes:
        raise ValueError(f"mode {mode} out of range for {n_modes} modes")
    letters = {q: "Z" for q in range(mode)}
    if flavor == "x":
        letters[mode] = "X"
        return PauliString.from_letter_map(n_modes, letters, 0)
    if flavor == "y":
        letters[mode] = "Y"
        return PauliString.from_letter_map(n_modes, letters, 2)
    raise ValueError(f"flavor must be 'x' or 'y', got {flavor!r}")


# -- symbolic Clifford conjugation of GateOp sequences ------------------------

@lru_cache(maxsize=None)
def _pauli_matrices(n: int) -> tuple[tuple[str, np.ndarray], ...]:
    """Every n-letter Pauli string (letters lsb-first) with its dense matrix."""
    out = []
    for combo in range(4 ** n):
        letters = []
        mm = np.array([[1.0 + 0j]])
        c = combo
        for _ in range(n):
            ch = "IXYZ"[c % 4]
            letters.append(ch)
            mm = np.kron(LETTER_MATRICES[ch], mm)  # later qubits to the left
            c //= 4
        mm.flags.writeable = False  # shared by every caller
        out.append(("".join(letters), mm))
    return tuple(out)


def _match_pauli(m: np.ndarray, n: int) -> tuple[str, int]:
    """Identify m as sign * (tensor of letters); returns (letters lsb-first, phase_exp).

    Pauli strings are orthogonal, so only the string with the largest overlap
    Tr(P^dag m) can match; its phase is checked against all four.
    """
    letters, mm = max(_pauli_matrices(n), key=lambda pair: abs(np.vdot(pair[1], m)))
    for exp in range(4):
        if np.allclose(m, (1j ** exp) * mm, atol=1e-12):
            return letters, exp
    raise ValueError("matrix is not a Pauli string")


@lru_cache(maxsize=None)
def _conjugation_table(kind: str, n: int) -> dict:
    """Map (input letters, lsb-first) -> (output letters, phase_exp) for g^dag P g,
    with g the statevector matrix of the n-qubit gate on targets 0 (and 1)."""
    g = gate_matrix(GateOp(kind, tuple(range(n))))
    return {letters: _match_pauli(g.conj().T @ mm @ g, n) for letters, mm in _pauli_matrices(n)}


def _conjugate_one_gate(g: GateOp, p: PauliString) -> PauliString:
    if g.kind not in FIXED_MATRICES:  # the Clifford kinds; before the width, as a GPHASE has no targets
        raise ValueError(f"unsupported Clifford gate {g.kind}{g.targets}")
    if max(g.targets) >= p.width:
        raise ValueError(f"gate {g.kind} targets {g.targets} exceed width {p.width}")
    table = _conjugation_table(g.kind, len(g.targets))
    out_letters, extra = table["".join(p.letter_at(q) for q in g.targets)]
    xbits, zbits = p.xbits, p.zbits
    for q, ch in zip(g.targets, out_letters):
        x, z = _LETTER_TO_BITS[ch]
        xbits = (xbits & ~(1 << q)) | (x << q)
        zbits = (zbits & ~(1 << q)) | (z << q)
    return PauliString(p.width, xbits, zbits, p.phase_exp + extra)


def clifford_conjugate(gates: Sequence[GateOp], p: PauliString) -> PauliString:
    """Symbolic c^dag * p * c, c the circuit of these gates; gates applied first conjugate last."""
    for g in reversed(gates):
        p = _conjugate_one_gate(g, p)
    return p


def jw_string_remover(m: int, n: int) -> list[GateOp]:
    """Clifford S_mn killing the Z string strictly between qubits m and n.

    Built as a fan of CZ gates from each interior qubit onto the endpoint n, so
    conjugating (L_m L_n) Z_{m+1}..Z_{n-1} with L in {X, Y} strips the string.
    Identity for n == m + 1.
    """
    if m >= n:
        raise ValueError(f"need m < n, got ({m}, {n})")
    return [GateOp("CZ", (k, n)) for k in range(m + 1, n)]
