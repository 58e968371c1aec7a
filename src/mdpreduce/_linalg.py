"""Linear-system helpers used throughout the package.

Every policy's system (I - beta P) x = b goes through :func:`solve_policy`;
only the occupation measure's transposed system does not (see below).

Each system gathers its policy's rows from the packed table once
(``PackedMdp.gather``), as CSR arrays.  A system with one right-hand side
and more than ``DENSE_MAX_N`` states is first run through BiCGSTAB, at
most ``KRYLOV_MAXITER`` iterations from a cold start, which applies
I - beta P through those rows alone (scipy's ``csr_matvec``, called
directly), so no n x n array and no scipy matrix is built.  The loop is
this module's own :func:`_bicgstab`, which repeats scipy's
unpreconditioned ``bicgstab`` step for step and so gives its bits,
without its operator and preconditioner layers.  Its
answer x must be finite and must come with an a posteriori bound, else the
system falls back to dense LU:

* Discounted (beta < 1): when ||beta P||_inf < 1,
  ||x - x*||_inf <= ||b - (I - beta P) x||_inf / (1 - ||beta P||_inf),
  and for a policy's stochastic rows ||beta P||_inf = beta.  The bound must
  be at most 1e-12 max(1, ||x||_inf).
* Lifetime (beta = 1, P = Q >= 0, b > 0): x must be positive and the
  relative residual s = max_i |b - (I - Q) x|_i / b_i at most
  ``LIFETIME_RTOL``.  Then Q x = x - b + r <= x - (1 - s) b < x, so
  rho(Q) < 1 by Collatz-Wielandt, and (I - Q)^-1 = sum_n Q^n >= 0 gives
  |x - tau| <= (I - Q)^-1 |r| <= s (I - Q)^-1 b = s tau entry by entry.
  A missed test proves nothing either way, so only the LU, whose singular
  factorization or non-positive tau is the verdict, can say "not
  transient".

Everything else, and every system with at most ``DENSE_MAX_N`` states, goes
through dense LU with partial pivoting: the same gathered rows written into
zeros by scipy's ``csr_todense`` (``CsrRows.dense``), then LAPACK's
``dgetrf`` and ``dgetrs``, which scipy's LU functions wrap, called directly
for their bits.
``solve.occupation_measure`` factorizes its transposed system
z (I - beta P) = 1 itself: its right-hand side 1 is a left eigenvector of
I - beta P^T, and BiCGSTAB, whose shadow residual is that right-hand side,
breaks down there at its second step.

A factorization is treated as singular when its smallest pivot falls below
1e-12 times the largest row 1-norm of the input matrix; this keeps
singularity decisions reproducible across platforms.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

from .errors import SingularSystemError

PIVOT_RTOL = 1e-12

#: Policy systems with more states than this go to BiCGSTAB first.  One
#: discounted evaluation of a total-dense policy (2-core x86-64 VM, BLAS on
#: one thread, median of 300): the dense gather and LU took 0.16 ms at n = 129
#: and 1.2 ms at n = 301, the BiCGSTAB loop 0.25 and 0.66 ms.  The pinned
#: runs and golden digests depend on which path each size takes.
DENSE_MAX_N = 256

#: BiCGSTAB gives up after this many iterations and leaves the system to LU.
#: The benchmark's systems converge in 0-24.  On a 300-state cycle that
#: stalls, a lifetime solve took 4.2 ms with this cap and 23-24 ms with a
#: cap of 10 n (scipy's default), against 1.8 ms for the LU alone.
KRYLOV_MAXITER = 100

#: Largest relative residual at which a lifetime answer is kept: the error
#: in each tau(x) is then at most this fraction of it.  It must stay below
#: transience.IMPROVE_TOL = 1e-12, else the error could flip a tie in the
#: greedy improvement and make lifetime policy iteration cycle.
LIFETIME_RTOL = 1e-13

#: scipy's rho and omega breakdown threshold, eps squared (its comment
#: suspects sqrt was meant; kept for the same bits).
_BREAKDOWN_TOL = np.finfo(float).eps ** 2


def try_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Solve ``a x = b`` with one raw LAPACK LU; ``None`` when ``a`` is singular."""
    a = np.asarray(a, dtype=float)
    lu, piv, _ = dgetrf(a)
    scale = max(float(np.abs(a).sum(axis=1).max()), 1.0)
    if float(np.abs(np.diag(lu)).min()) <= PIVOT_RTOL * scale:
        return None
    return dgetrs(lu, piv, np.asarray(b, dtype=float))[0]


def solve(a: np.ndarray, b: np.ndarray, context: str = "") -> np.ndarray:
    """Solve ``a x = b``, raising SingularSystemError on a singular matrix."""
    x = try_solve(a, b)
    if x is None:
        raise SingularSystemError("singular linear system" + (f": {context}" if context else ""))
    return x


def solve_policy(table, rows: np.ndarray, b: np.ndarray, beta: float = 1.0):
    """Solve (I - beta P) x = b, ``P`` the rows ``rows`` of the packed
    ``table``, one per state, gathered once as CSR arrays.  A large system
    with one right-hand side goes to :func:`_krylov` on them first;
    otherwise, or when that finds no bounded answer, one LU of the same
    gather made dense, by :func:`try_solve`: None when it is singular."""
    n = len(rows)
    P = table.gather(rows)
    if n > DENSE_MAX_N and np.ndim(b) == 1:
        x = _krylov(P, b, beta)
        if x is not None:
            return x
    return try_solve(np.eye(n) - beta * P.dense(), b)


def _krylov(P, b: np.ndarray, beta: float) -> np.ndarray | None:
    """BiCGSTAB from a cold start on (I - beta P) x = b, applied through
    the gathered rows ``P`` alone, one ``P.matvec`` per product; return
    ``x`` only when the module docstring's a posteriori test for its kind
    of system holds."""

    def apply(v):
        return v - beta * P.matvec(v)

    with np.errstate(all="ignore"):
        x = _bicgstab(apply, b)
        if x is None or not np.all(np.isfinite(x)):
            return None
        r = np.abs(b - apply(x))
        if beta < 1.0:
            gain = beta * float(np.max(P.matvec(np.ones(P.n_cols))))  # ||beta P||_inf, as P >= 0
            scale = max(1.0, float(np.max(np.abs(x))))
            ok = gain < 1.0 and np.max(r) / (1.0 - gain) <= 1e-12 * scale
        else:  # Collatz-Wielandt
            ok = np.all(b > 0.0) and np.all(x > 0.0) and np.all(r <= LIFETIME_RTOL * b)
    return x if ok else None


def _bicgstab(apply, b: np.ndarray) -> np.ndarray | None:
    """Unpreconditioned BiCGSTAB (van der Vorst, 1992) on A x = b from
    x = 0, with ``apply(v) = A v``: step for step scipy 1.17's
    ``bicgstab(A, b, rtol=1e-14, atol=0.0, maxiter=KRYLOV_MAXITER)``, and
    so its bits, without its operator layers.  Returns ``x`` once
    ||r||_2 < 1e-14 ||b||_2, or None on a breakdown or after
    ``KRYLOV_MAXITER`` iterations.  The norms are sqrt(r . r), as
    ``np.linalg.norm`` computes them; the scalars stay numpy floats, so a
    zero ``t . t`` divides to inf or NaN, as in scipy, and raises nothing."""
    r = np.array(b, dtype=float)
    rtilde = r.copy()
    bnorm = math.sqrt(r.dot(r))
    if bnorm == 0.0:
        return r
    atol = 1e-14 * bnorm
    x = np.zeros_like(r)
    for iteration in range(KRYLOV_MAXITER):
        if math.sqrt(r.dot(r)) < atol:
            return x
        rho = rtilde.dot(r)
        if abs(rho) < _BREAKDOWN_TOL:
            return None
        if iteration:
            if abs(omega) < _BREAKDOWN_TOL:
                return None
            p -= omega * v
            p *= (rho / rho_prev) * (alpha / omega)
            p += r
        else:
            p = r.copy()
        v = apply(p)
        rv = rtilde.dot(v)
        if rv == 0:
            return None
        alpha = rho / rv
        r -= alpha * v
        if math.sqrt(r.dot(r)) < atol:
            x += alpha * p
            return x
        # scipy copies r into s here; every use of s comes before r moves
        t = apply(r)
        omega = t.dot(r) / t.dot(t)
        x += alpha * p
        x += omega * r
        r -= omega * t
        rho_prev = rho
    return None
