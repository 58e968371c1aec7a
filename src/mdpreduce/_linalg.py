"""Dense linear-system helpers used throughout the package.

Every policy's system (I - beta P) x = b goes through :func:`solve_policy`,
and everything through LU with partial pivoting.  A factorization is
treated as singular when its smallest pivot falls below 1e-12 times the
largest row 1-norm of the input matrix; this keeps singularity decisions
reproducible across platforms.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .errors import SingularSystemError

PIVOT_RTOL = 1e-12


def factorize(a: np.ndarray):
    """LU-factorize ``a``; return ``None`` when numerically singular."""
    a = np.asarray(a, dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # LAPACK warns on exact zero pivots
        lu, piv = lu_factor(a, check_finite=False)
    scale = max(float(np.abs(a).sum(axis=1).max()), 1.0)
    if float(np.abs(np.diag(lu)).min()) <= PIVOT_RTOL * scale:
        return None
    return lu, piv


def try_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Solve ``a x = b`` with one LU; return ``None`` when ``a`` is singular."""
    fac = factorize(a)
    return None if fac is None else lu_solve(fac, np.asarray(b, dtype=float), check_finite=False)


def solve(a: np.ndarray, b: np.ndarray, context: str = "") -> np.ndarray:
    """Solve ``a x = b``, raising SingularSystemError on a singular matrix."""
    x = try_solve(a, b)
    if x is None:
        raise SingularSystemError("singular linear system" + (f": {context}" if context else ""))
    return x


def solve_policy(P, b: np.ndarray, beta: float = 1.0, context: str | None = None):
    """Solve (I - beta P) x = b, ``P`` the n x n sparse rows of a policy, by
    one LU of the dense matrix.  When it is singular, return None like
    :func:`try_solve`, or raise like :func:`solve` if ``context`` is given."""
    a = np.eye(P.shape[0]) - beta * P.toarray()
    return try_solve(a, b) if context is None else solve(a, b, context)
