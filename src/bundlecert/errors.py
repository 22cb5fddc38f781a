"""Exception types shared by the toolkit.

Every failure raises BundleCertError, which the CLI prints and maps to exit
code 1; the message says what went wrong.  A subclass exists only where code
catches it by name: `cohom.tail_vanish` and `stability.certify` catch the two
below, and `certify` records the class name in an Inconclusive certificate.
"""


class BundleCertError(Exception):
    pass


class UnsupportedOperationError(BundleCertError):
    pass


class FiberNotVanishingError(BundleCertError):
    """Fiber restriction has sections; the tail rule hypothesis fails at this point."""

    def __init__(self, point, detail):
        super().__init__(f"fiber h0 does not vanish at point {point}: {detail}")
        self.detail = detail
