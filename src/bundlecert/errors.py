"""Exception types shared by the toolkit.

Every refusal raises BundleCertError, from the one function that owns its
precondition; `cli.main` catches nothing else, prints it as one `error:` line
and exits 1.  Any other exception is a bug.  A subclass exists only where code
catches it by name.  `stability.certify` catches both below and records the
class name and message in an Inconclusive certificate; its band search also
catches FiberNotVanishingError from `cohom.tail_vanish` to try the next tail
bound, and raises one naming the fiber point once no bound is left.
"""


class BundleCertError(Exception):
    pass


class UnsupportedOperationError(BundleCertError):
    pass


class FiberNotVanishingError(BundleCertError):
    """A tail bound fails: the fiber restriction has sections, or the bound
    leaves h^0 of a source twist nonzero (the h^1(A) obstruction)."""
