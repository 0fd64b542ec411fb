"""Exception types shared across the package."""


class ShaboundError(Exception):
    """Base class for all package errors."""


class SingularModel(ShaboundError):
    """Raised when a Weierstrass model has discriminant zero."""


class IncompleteFactorization(ShaboundError):
    """A factorization left a cofactor unresolved; carries the partial result.

    The cofactor resisted the rho budget, or is at or above 2^128, where
    no primality test is declared; there it may be a prime.
    """

    def __init__(self, partial):
        self.partial = partial
        super().__init__(f"unresolved cofactor {partial.cofactor}")


class ClassifierDisagreement(ShaboundError):
    """The two independent S1/S2 classifiers disagree; indicates a bug."""


class UnreachableCusp(ShaboundError):
    """A forced congruence has no solution (factor polynomial has no root mod l)."""


class DegenerateFiber(ShaboundError):
    """A family parameter value lands on a singular fiber."""


class InputError(ShaboundError):
    """Invalid user-supplied input (CLI exit code 2)."""
