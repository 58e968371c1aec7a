"""Linear-system helpers used throughout the package.

Every policy's system (I - beta P) x = b goes through :func:`solve_policy`;
only the occupation measure's transposed system does not (see below).

* A discounted system (beta < 1) with one right-hand side and more than
  ``DENSE_MAX_N`` states is solved by BiCGSTAB, which applies I - beta P
  through the sparse ``P`` alone, so no n x n array is built.  Its answer
  is kept only when it comes with an a posteriori bound: when
  ||beta P||_inf < 1,
  ||x - x*||_inf <= ||b - (I - beta P) x||_inf / (1 - ||beta P||_inf),
  and for a policy's stochastic rows ||beta P||_inf = beta.  The bound must
  be at most 1e-12 max(1, ||x||_inf).  A breakdown, a non-finite answer or
  a missed bound falls back to dense LU.
* Everything else goes through dense LU with partial pivoting, so every
  system with at most ``DENSE_MAX_N`` states keeps the LU's bits.  Lifetime systems (beta = 1) always stay on LU, since there a
  singular factorization is the verdict, and a Krylov failure must never
  read as one.  ``solve.occupation_measure`` factorizes its transposed
  system z (I - beta P) = 1 itself: its right-hand side 1 is a left
  eigenvector of I - beta P^T, and BiCGSTAB, whose shadow residual is
  that right-hand side, breaks down there at its second step.

A factorization is treated as singular when its smallest pivot falls below
1e-12 times the largest row 1-norm of the input matrix; this keeps
singularity decisions reproducible across platforms.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .errors import SingularSystemError

PIVOT_RTOL = 1e-12

#: Discounted policy systems with more states than this go to BiCGSTAB.
#: One evaluation (2-core x86-64 VM, BLAS on one thread): at n = 129 LU took
#: 0.3 ms and BiCGSTAB 0.8-1.0 ms; at n = 301 LU took 1.8-3.5 ms and
#: BiCGSTAB 1.2 ms.
DENSE_MAX_N = 256


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
    """Solve (I - beta P) x = b, ``P`` the n x n sparse rows of a policy.  A
    large discounted system goes to :func:`_krylov` first; otherwise, or
    when that finds no bounded answer, one LU of the dense matrix.  When
    that is singular, return None like :func:`try_solve`, or raise like
    :func:`solve` if ``context`` is given."""
    n = P.shape[0]
    if beta < 1.0 and np.ndim(b) == 1 and n > DENSE_MAX_N:
        x = _krylov(P, b, beta)
        if x is not None:
            return x
    a = np.eye(n) - beta * P.toarray()
    return try_solve(a, b) if context is None else solve(a, b, context)


def _krylov(P, b: np.ndarray, beta: float) -> np.ndarray | None:
    """BiCGSTAB from a cold start on (I - beta P) x = b, applied through
    ``P`` alone; return ``x`` only when the module docstring's a posteriori
    bound holds."""
    # loaded by the first large solve, so small workloads never pay for it
    from scipy.sparse.linalg import LinearOperator, bicgstab

    def apply(v):
        return v - beta * (P @ v)

    gain = beta * float(np.max(P @ np.ones(P.shape[0])))  # ||beta P||_inf, as P >= 0
    with np.errstate(all="ignore"):
        a = LinearOperator(P.shape, matvec=apply, dtype=float)
        x, info = bicgstab(a, b, rtol=1e-14, atol=0.0)
        if info != 0 or gain >= 1.0 or not np.all(np.isfinite(x)):
            return None
        bound = np.max(np.abs(b - apply(x))) / (1.0 - gain)
    return x if bound <= 1e-12 * max(1.0, float(np.max(np.abs(x)))) else None
