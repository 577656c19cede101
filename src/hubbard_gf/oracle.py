"""Classical ground truth: Pauli forms of the Hamiltonian, dense diagonalization, dimer closed forms."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import FermionHamiltonian
from .pauli import PauliString, jw_mode


def majorana_operator(h: FermionHamiltonian, site: int, spin: str, flavor: str) -> PauliString:
    """Jordan-Wigner image of the (site, spin) Majorana in this Hamiltonian's mode order."""
    return jw_mode(h.mode_of(site, spin), h.n_modes, flavor)


def hopping_pauli_terms(m: int, n: int, width: int) -> list[tuple[float, PauliString]]:
    """c^dag_m c_n + h.c. as (i/2) y_m x_n - (i/2) x_m y_n, each summand Hermitian."""
    ym_xn = (jw_mode(m, width, "y") * jw_mode(n, width, "x")).times_i()
    xm_yn = (jw_mode(m, width, "x") * jw_mode(n, width, "y")).times_i()
    return [(0.5, ym_xn), (-0.5, xm_yn)]


def number_pauli_terms(q: int, width: int) -> list[tuple[float, PauliString]]:
    """n_q = (1 - Z_q)/2."""
    return [
        (0.5, PauliString.identity(width)),
        (-0.5, PauliString.from_letter_map(width, {q: "Z"})),
    ]


def hamiltonian_pauli_terms(h: FermionHamiltonian) -> list[tuple[float, PauliString]]:
    """The full Hamiltonian as a weighted list of Hermitian Pauli strings."""
    width = h.n_modes
    terms: list[tuple[float, PauliString]] = []
    for hop in h.hoppings:
        for spin in ("up", "down"):
            m, n = h.mode_of(hop.i, spin), h.mode_of(hop.j, spin)
            terms += [(hop.amplitude * c, p) for c, p in hopping_pauli_terms(m, n, width)]
    for rep in h.repulsions:
        a, b = h.mode_of(rep.site, "up"), h.mode_of(rep.site, "down")
        u = rep.strength
        terms += [
            (u / 4, PauliString.identity(width)),
            (-u / 4, PauliString.from_letter_map(width, {a: "Z"})),
            (-u / 4, PauliString.from_letter_map(width, {b: "Z"})),
            (u / 4, PauliString.from_letter_map(width, {a: "Z", b: "Z"})),
        ]
    for sh in h.shifts:
        for spin in ("up", "down"):
            q = h.mode_of(sh.site, spin)
            terms += [(sh.value * c, p) for c, p in number_pauli_terms(q, width)]
    return terms


def split_pauli_terms(h: FermionHamiltonian) -> tuple[list, list]:
    """(hopping terms, interaction terms incl. shifts) as weighted Pauli lists."""
    hop = FermionHamiltonian(h.n_sites, hoppings=h.hoppings, mode_order=h.mode_order)
    inter = FermionHamiltonian(
        h.n_sites, repulsions=h.repulsions, shifts=h.shifts, mode_order=h.mode_order
    )
    return hamiltonian_pauli_terms(hop), hamiltonian_pauli_terms(inter)


@dataclass(frozen=True)
class SpectralData:
    """Eigendecomposition with deterministic eigenvector phases; eigenvalues ascend,
    so the ground state is column 0."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _fix_phases(vecs: np.ndarray) -> np.ndarray:
    out = vecs.copy()
    for k in range(out.shape[1]):
        v = out[:, k]
        idx = int(np.argmax(np.abs(v) > 1e-9))
        ph = v[idx] / abs(v[idx])
        out[:, k] = v * np.conj(ph)
    return out


def diagonalize(m: np.ndarray) -> SpectralData:
    """Full Hermitian eigendecomposition; first nonzero component of each vector
    is made real positive so goldens are reproducible."""
    if np.max(np.abs(m - m.conj().T)) > 1e-10:
        raise ValueError("input is not Hermitian")
    evals, evecs = np.linalg.eigh(m)
    evecs = _fix_phases(evecs)
    resid = np.max(np.abs(m @ evecs - evecs * evals[None, :]))
    if resid > 1e-9:
        raise AssertionError(f"eigenpair residual too large: {resid}")
    return SpectralData(evals, evecs)


def dimer_analytic(which: str, t: float, u: float, tau):
    """Closed-form dimer correlators; `which` is xx_0, xx_1 or xy_01.

    The frequencies e1 = sqrt(U^2 + 16 t^2) / 4 and e2 = sqrt(U^2 + 64 t^2) / 4 enter
    by hypot and ratios, so no square overflows; ValueError where a phase e2 tau would.
    """
    if not t > 0:
        raise ValueError("t must be positive")
    e1, e2 = math.hypot(u / 4, t), math.hypot(u / 4, 2 * t)
    taus = np.asarray(tau, dtype=float)
    if not math.isfinite(e2 * float(np.max(np.abs(taus), initial=0.0))):
        raise ValueError(f"the dimer closed forms overflow at t={t}, U={u} up to tau={np.max(np.abs(taus))}")
    envelope = np.exp(-1j * taus * e2)
    c, s = np.cos(taus * e1), np.sin(taus * e1)
    if which == "xx_0":  # (U^2 - 32 t^2) / (16 e1 e2)
        out = envelope * (c - 1j * ((u / 4 / e1) * (u / 4 / e2) - 2 * (t / e1) * (t / e2)) * s)
    elif which == "xx_1":
        out = envelope * (c + 1j * ((u / 4 / e1) * (u / 4 / e2) + 2 * (t / e1) * (t / e2)) * s)
    elif which == "xy_01":
        out = envelope * (2j * t / e2 * c - t / e1 * s)
    else:
        raise ValueError(f"unknown correlator {which!r}")
    return complex(out) if np.ndim(tau) == 0 else out
