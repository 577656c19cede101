"""Fermionic Hamiltonians as symbolic term lists, before any circuit or matrix is built.

A ``FermionHamiltonian`` fixes the linear ordering of fermion modes (the qubit
assignment under Jordan-Wigner): ``mode_order`` lists (site, spin) pairs, entry k
living on qubit k.  Sites are 0-based here.  The default is site-major with spin
up before down; the half-filling dimer uses its own order (c_up, b_up, c_dn, b_dn)
so that both hopping bonds act on adjacent qubits.
"""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Hopping:
    """amplitude * (c^dag_{i,s} c_{j,s} + h.c.) for each listed spin."""

    i: int
    j: int
    amplitude: float


@dataclass(frozen=True)
class Repulsion:
    """strength * n_{site,up} n_{site,dn}."""

    site: int
    strength: float


@dataclass(frozen=True)
class Shift:
    """value * (n_{site,up} + n_{site,dn}); chemical-potential style diagonal term."""

    site: int
    value: float


def dimer_order() -> tuple[tuple[int, str], ...]:
    # site 0 = the interacting site, site 1 = the bath site
    return ((0, "up"), (1, "up"), (0, "down"), (1, "down"))


@dataclass(frozen=True)
class FermionHamiltonian:
    """Hermitian-by-construction term list over n_sites spinful sites."""

    n_sites: int
    hoppings: tuple[Hopping, ...] = ()
    repulsions: tuple[Repulsion, ...] = ()
    shifts: tuple[Shift, ...] = ()
    mode_order: tuple[tuple[int, str], ...] = field(default=())

    def __post_init__(self):
        order = self.mode_order or ((s, spin) for s in range(self.n_sites) for spin in ("up", "down"))
        object.__setattr__(self, "mode_order", tuple(order))
        if len(self.mode_order) != 2 * self.n_sites:
            raise ValueError("mode_order must list every (site, spin) pair once")
        for h in self.hoppings:
            if h.i == h.j:
                raise ValueError("hopping needs distinct sites")
        for t in self.hoppings + self.repulsions + self.shifts:
            sites = (t.i, t.j) if isinstance(t, Hopping) else (t.site,)
            for s in sites:
                if not 0 <= s < self.n_sites:
                    raise ValueError(f"site {s} out of range")

    @property
    def n_modes(self) -> int:
        return 2 * self.n_sites

    def mode_of(self, site: int, spin: str) -> int:
        return self.mode_order.index((site, spin))

    @classmethod
    def dimer(cls, t: float, u: float) -> "FermionHamiltonian":
        """Half-filling dimer: -t sum_s (c^dag_s b_s + h.c.) + (U/2)(n_c^2 - 2 n_c).

        The interaction expands to U n_up n_dn - (U/2)(n_up + n_dn) on the
        interacting site, the shift coming from the chemical potential mu = U.
        """
        return cls(
            n_sites=2,
            hoppings=(Hopping(0, 1, -t),),
            repulsions=(Repulsion(0, u),),
            shifts=(Shift(0, -u / 2),),
            mode_order=dimer_order(),
        )
