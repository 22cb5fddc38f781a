"""Exception types shared by the toolkit.

Every failure mode a caller is expected to handle gets its own class; all of
them derive from BundleCertError so the CLI can map them to exit codes.
"""


class BundleCertError(Exception):
    pass


# --- polynomial core ---------------------------------------------------------

class PolySyntaxError(BundleCertError):
    """Input text does not match the polynomial grammar."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownVariableError(BundleCertError):
    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown variable {name!r} (at offset {offset})")
        self.name = name
        self.offset = offset


class AmbientMismatchError(BundleCertError):
    pass


class HomogeneityError(BundleCertError):
    """A matrix entry is not homogeneous of the required multidegree."""

    def __init__(self, row: int, col: int, message: str = ""):
        super().__init__(f"entry ({row},{col}) inhomogeneous{': ' + message if message else ''}")
        self.row = row
        self.col = col


# --- monads / cohomology -----------------------------------------------------

class ValidationError(BundleCertError):
    pass


class InvalidPointError(BundleCertError):
    pass


class IndexOutOfRangeError(BundleCertError):
    pass


class UnsupportedCokernelRankError(BundleCertError):
    pass


class UnsupportedOperationError(BundleCertError):
    pass


class FiberNotVanishingError(BundleCertError):
    """Fiber restriction has sections; the tail rule hypothesis fails at this point."""

    def __init__(self, point, detail):
        super().__init__(f"fiber h0 does not vanish at point {point}: {detail}")
        self.point = point
        self.detail = detail


class NoTerminalBoundError(BundleCertError):
    pass


# --- stability ---------------------------------------------------------------

class ZeroRankError(BundleCertError):
    pass


class UnsupportedPolarizationError(BundleCertError):
    pass


# --- lattices / quartic pipeline --------------------------------------------

class LatticeMismatchError(BundleCertError):
    pass


class OddSquareError(BundleCertError):
    pass


class GramMatrixError(BundleCertError):
    """A Gram matrix that is not square of the basis size, or not symmetric."""


class UnsupportedLatticeError(BundleCertError):
    """Curve-class candidates are enumerated on rank-2 lattices of signature (1,1) only."""


class NonPositivePolarizationError(BundleCertError):
    """A polarization class H with H^2 <= 0."""


class BasepointFailureError(BundleCertError):
    pass


# --- finite fields / zeta ----------------------------------------------------

class NotPrimeError(BundleCertError):
    pass


class TooLargeError(BundleCertError):
    pass


class ExtensionDegreeError(BundleCertError):
    """A field F_(p^n) asked for with extension degree n < 1."""


class EvenCharacteristicError(BundleCertError):
    pass


class InsufficientCountsError(BundleCertError):
    pass


class NoConsistentCandidateError(BundleCertError):
    pass


class NoCandidateError(BundleCertError):
    pass


class ThreadCountError(BundleCertError):
    """A point count asked for more or fewer than one process."""


# --- documents / CLI ---------------------------------------------------------

class DocumentError(BundleCertError):
    pass
