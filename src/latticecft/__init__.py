"""Desk-scale computations for abelian lattice conformal field theory.

Modules: lattices (discriminant forms), surfaces (homology and gluing),
heisenberg (finite Heisenberg groups and their irreps), blocks
(conformal-block dimensions, modular S/T data, Verlinde sums), theta
(numerical theta functions), fock (truncated loop-group characters),
acceptance (the verification suite), cli (the command line).  The
package root re-exports nothing: import the module that holds a name.
"""

__version__ = "0.1.0"
