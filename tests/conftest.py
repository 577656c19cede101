import itertools

import pytest
from hypothesis import settings

from local_mapping import (
    build_measurement_string,
    hopping_bilinears,
    jw_reference_bilinear,
    map_hopping,
    measurement_bilinear,
    source_bilinear,
    source_operator,
)

# Property tests draw the same examples on every run; each test keeps its own
# max_examples, which the profile leaves alone.
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


def mapping_inventory(lay):
    """Every mapped bilinear paired with its fermionic (JW reference) image:
    all in-cluster hoppings (both summands), all sources, and every L-shaped
    measurement string that fits the extended cluster."""
    out = []
    for r in itertools.product(range(lay.L), repeat=2):
        for sigma in ("up", "down"):
            for direction in ("x", "y"):
                rx, ry = r
                dest = (rx + 1, ry) if direction == "x" else (rx, ry + 1)
                if not lay.is_physical_cell(dest):
                    continue
                mapped = map_hopping(r, sigma, direction, lay)
                for (coef, bil), m in zip(hopping_bilinears(r, sigma, direction, lay), mapped):
                    out.append((m, jw_reference_bilinear(bil, lay)))
            out.append(
                (source_operator(r, lay, sigma), jw_reference_bilinear(source_bilinear(r, lay, sigma), lay))
            )
    side = lay.side_cells
    for r in itertools.product(range(side), repeat=2):
        for r_prime in itertools.product(range(side), repeat=2):
            if r_prime[0] > r[0] and r_prime[1] < r[1]:
                out.append(
                    (
                        build_measurement_string(r, r_prime, lay),
                        jw_reference_bilinear(measurement_bilinear(r, r_prime, lay), lay),
                    )
                )
    return out


@pytest.fixture
def inventory():
    return mapping_inventory
