"""Exception types shared across the package.

The command-line front end exits 1 on a ValueError or OSError (bad
input) or a NumericalError (the numbers went wrong on valid input).
"""


class InstanceFormatError(ValueError):
    """An instance file or document violates the textual format."""


class PolicyCapExceeded(ValueError):
    """The policy space is larger than the enumeration cap."""


class CertificateError(ValueError):
    """A transience certificate does not fit the instance it was applied to.

    Raised when the certificate inequality fails, or when a transformed
    transition probability comes out below -1e-12 (which can only happen
    with an invalid or stale certificate).
    """


class NumericalError(RuntimeError):
    """A computation on valid input failed numerically: a singular system,
    an exhausted iteration budget, a broken solver invariant, or an ACOE
    cross-check that disagrees with the discounted reduction."""


class NotConvergedWithinBudget(NumericalError):
    """An iterative method exhausted its iteration budget before converging."""


class SingularSystemError(NumericalError):
    """A linear system that should be nonsingular under the caller's
    preconditions turned out singular."""


class NonTransientPolicyError(NumericalError):
    """A brute-force evaluation hit a non-transient policy although the
    caller claimed Assumption-T-style boundedness was certified."""


class AcoeResidualError(ValueError):
    """The average-cost optimality equation fails at the requested tolerance.

    Carries ``max_residual`` and the per-state ``residuals`` so callers can
    report how bad the failure is.
    """

    def __init__(self, max_residual, residuals):
        super().__init__(
            f"average-cost optimality equation violated: max residual {max_residual:.6g}"
        )
        self.max_residual = max_residual
        self.residuals = residuals
