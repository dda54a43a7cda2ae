"""Exception types raised by the library.

Every error the CLI can surface maps to one of these classes; the CLI
reports ``type(exc).__name__`` as the machine-readable error kind.
"""

from __future__ import annotations


class LatticeCftError(Exception):
    """Base class for all library errors."""


# lattice validation

class NotSymmetric(LatticeCftError):
    pass


class OddDiagonal(LatticeCftError):
    """Gram matrix has an odd diagonal entry; odd levels need spin data and
    are rejected rather than silently supported."""


class NotPositiveDefinite(LatticeCftError):
    pass


# surfaces and labels

class MissingLabel(LatticeCftError):
    pass


class OrientationMismatch(LatticeCftError):
    pass


class UnknownCircle(LatticeCftError):
    pass


class InvalidSplit(LatticeCftError):
    pass


# finite Heisenberg groups

class DimensionMismatch(LatticeCftError):
    pass


class GroupTooLarge(LatticeCftError):
    pass


class NotIsotropic(LatticeCftError):
    pass


class NotASplitting(LatticeCftError):
    pass


# theta numerics

class TruncationOverflow(LatticeCftError):
    pass


class RankDeficient(LatticeCftError):
    pass


# loop-group truncations

class NonIntegralEnergy(LatticeCftError):
    pass


class NotContractive(LatticeCftError):
    pass
