"""Desk-scale computations for abelian lattice conformal field theory.

Modules: lattices (discriminant forms), surfaces (homology and gluing),
heisenberg (finite Heisenberg groups and their irreps), blocks
(conformal-block dimensions, modular S/T data, Verlinde sums), theta
(numerical theta functions), fock (truncated loop-group characters),
acceptance (the verification suite), cli (the command line).
"""

from .lattices import (
    DiscriminantGroup,
    EvenLattice,
    GroupElement,
    discriminant_group,
    gauss_sum,
    signature_mod8,
    smith_normal_form,
    validate_even_lattice,
)
from .surfaces import (
    BlockLabel,
    IntersectionForm,
    Surface,
    delta_obstruction,
    glue,
    h1_rank,
)

__all__ = [
    "BlockLabel",
    "DiscriminantGroup",
    "EvenLattice",
    "GroupElement",
    "IntersectionForm",
    "Surface",
    "delta_obstruction",
    "discriminant_group",
    "gauss_sum",
    "glue",
    "h1_rank",
    "signature_mod8",
    "smith_normal_form",
    "validate_even_lattice",
]

__version__ = "0.1.0"
