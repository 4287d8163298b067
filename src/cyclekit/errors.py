"""Exception and warning taxonomy shared across the package."""

from __future__ import annotations


class CycleKitError(Exception):
    """Base class for domain errors raised by cyclekit operations."""


class ZeroDivisor(CycleKitError):
    """Inverse of an element whose modulus x^2 - sign*y^2 vanishes."""


class ExactModeError(CycleKitError):
    """Exact mode needs a rational square root that does not exist.

    Re-running the computation with float scalars makes the operation
    available at floating-point precision.
    """


class NotAKOrbit(CycleKitError):
    """Cycle cannot be moved onto a rotation orbit by a shift and a dilation."""


class ShapeError(CycleKitError):
    """Matrix does not have the cycle-matrix shape."""


class LineHasNoRadius(CycleKitError):
    """radius_sq called on a quadruple with k = 0."""


class FocusUndefined(CycleKitError):
    """Focus needs k != 0 and n != 0."""


class NoRealAxisIntersection(CycleKitError):
    """k = l = 0 with m != 0: the real-axis restriction has no solution."""


class EverywhereZero(CycleKitError):
    """The real-axis restriction of the quadruple vanishes identically."""


class Degenerate(CycleKitError):
    """Quadruple (0,0,0,m) has no locus; geometric operations reject it."""


class UnderDetermined(CycleKitError):
    """Constraint system leaves a solution family of positive dimension."""


class Inconsistent(CycleKitError):
    """Constraint system has no solution."""


class DegenerateReflection(CycleKitError):
    """Matrix reflection collapsed to zero or is unavailable for this sign."""


class DegenerateFocalPoint(CycleKitError):
    """Focal length from a real-axis point: every such cycle is zero-radius."""


class BranchInstability(CycleKitError):
    """Length branch appears or vanishes inside the probing neighbourhood."""


class UsageError(CycleKitError):
    """Malformed command-line input."""


class DocumentError(ValueError):
    """A cycle document that breaks the JSON schema; the message names the entry."""


class DegenerateRelationWarning(UserWarning):
    """Relation is identically true in the parabolic cycle space."""


class ExperimentalRegimeWarning(UserWarning):
    """Variational distance outside the e/e and h/h regimes: in general not ``distance_sq``."""
