#!/usr/bin/env python3
"""Print discriminant data and modular S/T tables for the bundled lattices.

Usage: python scripts/modular_tables.py [name ...]
Names default to all bundled lattices (a1, a2, d4, e8).
"""

import sys

import numpy as np

from latticecft.blocks import fusion_rules, genus1_mcg_rep
from latticecft.lattices import (
    BUNDLED_GRAMS,
    discriminant_group,
    gauss_sum,
    validate_even_lattice,
)


def show(name: str) -> None:
    gram = BUNDLED_GRAMS[name]
    lat = validate_even_lattice(gram)
    disc = discriminant_group(lat)
    print(f"== {name}: gram {gram}")
    print(f"   rank {lat.rank}, det {lat.det}, level {lat.level_ell}, "
          f"A = Z/{' x Z/'.join(map(str, disc.invariant_factors)) or '1'}")
    g = gauss_sum(disc)
    print(f"   gauss sum {g:.6f}")
    rep = genus1_mcg_rep(disc)
    print(f"   sigma mod 8 = {rep.signature}, "
          f"central charge exponent = {lat.level_ell * lat.rank}")
    with np.printoptions(precision=4, suppress=True):
        print("   S =")
        for row in rep.S:
            print("     ", np.array2string(row))
        print("   T diag =", np.array2string(np.diag(rep.T)))
    print(f"   S^4 dev {rep.s4_deviation:.2e}, (ST)^3 anomaly dev "
          f"{rep.st3_deviation:.2e}, S^2 = C dev "
          f"{rep.s2_is_charge_conjugation:.2e}")
    n = fusion_rules(disc)
    nontrivial = int(n.sum())
    print(f"   fusion tensor: {nontrivial} nonzero entries "
          f"(group law of order {disc.order})")
    print()


def main() -> None:
    names = sys.argv[1:] or list(BUNDLED_GRAMS)
    for name in names:
        show(name)


if __name__ == "__main__":
    main()
