"""Transience checking and lifetime maximization.

An instance is *transient* when the expected-lifetime matrices
``sum_n Q_phi^n`` are uniformly bounded over stationary policies.  The
checker here is policy iteration on the lifetime-maximization problem.
Each evaluated policy costs one solve of (I - Q_phi) tau = 1, by BiCGSTAB
under a Collatz-Wielandt test or else by LU, and it is transient exactly
when tau > 0 (see :func:`evaluate_lifetime`).  The terminal lifetime
vector ``mu`` is a certificate that covers *all* policies, since it
satisfies

    mu(x) >= 1 + sum_y q(y | x, a) mu(y)    for every (x, a).

The same machinery run on a truncated instance (all rates into one state
``ell`` removed) checks the bounded-hitting-time condition used by the
average-cost reduction.

The policy iteration is ``model._policy_iteration``, the loop of the
discounted solvers: Howard's method with cost -1 and beta = 1, whose
evaluation may return a witness and whose improvement test is relative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _linalg
from .errors import NotConvergedWithinBudget
from .model import PackedMdp, RateMdp, StationaryPolicy, from_packed
from .model import _check_budget, _policy_iteration

#: Slack allowed when re-checking certificate inequalities.  Above
#: K = CERT_SLACK / CLAMP_TOL the slack is CLAMP_TOL * K instead, since the
#: round-off in 1 + R mu - mu grows with K.
CERT_SLACK = 1e-9

#: Transformed probabilities in [-1e-12, 0) are treated as round-off,
#: clamped to zero, and the row renormalized.  Anything more negative is a
#: hard error: the certificate cannot be valid.  A certificate violation of
#: CLAMP_TOL * K is the most the transform can absorb this way.
CLAMP_TOL = 1e-12

#: Strict-improvement threshold for lifetime policy iteration, relative
#: to the incumbent's lifetime.
IMPROVE_TOL = 1e-12


@dataclass(frozen=True)
class SingularSystem:
    """I - Q_phi was numerically singular."""


@dataclass(frozen=True)
class NegativeInverseEntry:
    """The solved lifetime tau(``state``) is not positive.  Row ``state`` of
    (I - Q_phi)^-1 sums to tau(``state``) <= 0 and is nonzero, so it holds a
    negative entry."""

    state: int


@dataclass(frozen=True)
class NonTransienceWitness:
    """A policy whose lifetime matrix is unbounded, with the evidence that
    convicted it.  The witness policy's Q_phi has spectral radius >= 1 - 1e-9,
    re-checkable via :func:`policy_spectral_radius`.
    """

    policy: StationaryPolicy
    evidence: SingularSystem | NegativeInverseEntry


@dataclass(frozen=True, eq=False)
class TransienceCertificate:
    """Bounding vector mu (the optimal expected lifetime) and K = max mu.

    Invariants: mu(x) >= 1 + sum_y q(y|x,a) mu(y) within
    max(1e-9, 1e-12 K) for every (x, a), and 1 <= mu(x) <= K.
    """

    mu: np.ndarray
    K: float
    method: str

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        mu.flags.writeable = False
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "K", float(self.K))


@dataclass(frozen=True, eq=False)
class HtCertificate:
    """Certificate that every policy reaches ``ell`` fast: mu bounds the
    lifetime of the instance truncated at ``ell`` and K* = max mu.

    Invariants: mu(x) >= 1 + sum_{y != ell} q(y|x,a) mu(y) within
    max(1e-9, 1e-12 K*), and 1 <= mu(x) <= K*.
    """

    ell: int
    K_star: float
    mu: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        mu.flags.writeable = False
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "K_star", float(self.K_star))


@dataclass(frozen=True, eq=False)
class MuIterationResult:
    mu_approx: np.ndarray
    iterations: int


def policy_spectral_radius(mdp: RateMdp, phi: StationaryPolicy) -> float:
    """Spectral radius of Q_phi; used to re-check a NonTransienceWitness."""
    table = mdp.packed
    return float(np.abs(np.linalg.eigvals(table.dense_rows(table.rows(phi)))).max())


def certificate_residual(
    mdp: RateMdp, mu: np.ndarray, exclude: int | None = None
) -> float:
    """Worst violation of mu(x) >= 1 + sum q(y|x,a) mu(y) over all (x, a).

    Positive values are violations.  With ``exclude`` set, transitions into
    that state are left out of the sum (the truncated inequality).
    """
    table = mdp.packed
    mu = np.asarray(mu, dtype=float)
    # a product with +0.0 leaves the in-order row sums as without the column
    x = mu if exclude is None else np.where(np.arange(len(mu)) == exclude, 0.0, mu)
    return float(np.max(1.0 + table.R @ x - mu[table.owner]))


def _evaluate(table: PackedMdp, rows: np.ndarray):
    """Lifetime of the policy whose packed rows are ``rows``, or its
    witness, the only StationaryPolicy built here."""
    tau = _linalg.solve_policy(table, rows, np.ones(len(rows)))
    if tau is None:
        evidence = SingularSystem()
    else:
        failed = np.flatnonzero(~(tau > 0.0))  # NaN fails too
        if not failed.size:
            return tau
        evidence = NegativeInverseEntry(state=int(failed[0]))
    return NonTransienceWitness(StationaryPolicy(table.local[rows].tolist()), evidence)


def evaluate_lifetime(mdp: RateMdp, phi: StationaryPolicy):
    """Expected lifetime tau of ``phi``: the solution of (I - Q_phi) tau = 1.

    One solve decides transience, since Q_phi >= 0:

    - if tau > 0, then Q tau = tau - 1 <= (1 - 1/max tau) tau, so by
      Collatz-Wielandt rho(Q) <= 1 - 1/max tau < 1;
    - if rho(Q) < 1, then tau = sum_n Q^n 1 >= 1.

    Above ``_linalg.DENSE_MAX_N`` states BiCGSTAB's answer x is kept only
    when x > 0 and s = max |1 - (I - Q) x| <= ``_linalg.LIFETIME_RTOL``.
    Then Q x <= x - (1 - s) < x, so rho(Q) < 1 by the same argument, and
    |x - tau| <= (I - Q)^-1 |r| <= s tau: every entry is right to 1e-13
    relative, below the 1e-12 of the greedy improvement.  Otherwise the
    system goes to one dense LU, which alone returns a witness.

    Returns the tau vector, or a NonTransienceWitness: SingularSystem when
    I - Q_phi is numerically singular, else NegativeInverseEntry at the
    first state with tau <= 0.
    """
    table = mdp.packed
    return _evaluate(table, table.rows(phi))


def _greedy_lifetime_improvement(table: PackedMdp, rows: np.ndarray, tau):
    """One round of greedy improvement on 1 + sum q(y|x,a) tau(y), on the
    packed rows of a policy: a state moves to its first maximizing action
    when that beats tau(x) by more than 1e-12 tau(x), and otherwise keeps
    its row.  Returns the new rows, or None when none changed.  The test is
    relative because the round-off in 1 + R tau grows with tau: at K = 1e6
    it is a few ulps of 1e6, about 1e-9, which no absolute 1e-12 can
    absorb."""
    low, best = table.state_argmin(-(1.0 + table.R @ tau))
    better = np.where(-low > tau * (1.0 + IMPROVE_TOL), table.first[:-1] + best, rows)
    return better if np.any(better != rows) else None


def _maximize_lifetime(table: PackedMdp):
    # each switch moves to a new policy, so there are fewer switches than policies
    rounds = math.prod(np.diff(table.first).tolist())
    tau, _, _ = _policy_iteration(
        table, None, lambda rows: _evaluate(table, rows),
        lambda tau, rows: _greedy_lifetime_improvement(table, rows, tau), rounds - 1,
        lambda: f"lifetime policy iteration still improving after {rounds} rounds, "
        "as many as there are policies",
    )
    if isinstance(tau, NonTransienceWitness):
        return tau
    return TransienceCertificate(mu=tau, K=float(tau.max()), method="exact-policy-iteration")


def maximize_lifetime(mdp: RateMdp):
    """Exact mu = sup over policies of the expected lifetime, by policy
    iteration; doubles as the transience checker.

    Any evaluated policy whose lifetime tau is not positive aborts with its
    NonTransienceWitness (the instance is then not transient, since the
    lifetime sup is infinite).  On success the returned certificate's mu is
    a fixed point of the lifetime operator and bounds every policy.  Raises
    NotConvergedWithinBudget if the policy still changes after as many
    rounds as there are policies, which only round-off could cause.
    """
    return _maximize_lifetime(mdp.packed)


def mu_value_iteration(
    mdp: RateMdp, tol: float = 1e-10, max_iter: int = 100_000
) -> MuIterationResult:
    """Monotone iteration of U u(x) = max_a [1 + sum q(y|x,a) u(y)] from 0.

    Stops when the sup-norm increment drops below ``tol``; raises
    NotConvergedWithinBudget when the budget runs out first, which signals
    possible non-transience (run :func:`maximize_lifetime` to get an exact
    verdict either way).  A bad ``tol`` or ``max_iter`` raises ValueError.
    """
    _check_budget(tol, max_iter)
    table = mdp.packed
    u = np.zeros(mdp.n_states)
    delta = np.inf
    for iteration in range(1, max_iter + 1):
        nxt = np.maximum.reduceat(1.0 + table.R @ u, table.first[:-1])
        if not np.all(nxt >= u):
            raise RuntimeError("lifetime iterates must be nondecreasing")
        delta = float(np.max(nxt - u))
        u = nxt
        if delta < tol:
            return MuIterationResult(mu_approx=u, iterations=iteration)
    raise NotConvergedWithinBudget(
        f"lifetime value iteration still moving by {delta:.3g} after "
        f"{max_iter} iterations (possible non-transience)"
    )


def vi_certificate(
    mdp: RateMdp, tol: float = 1e-10, max_iter: int = 100_000
) -> TransienceCertificate:
    """Approximate certificate from value iteration, cross-checkable against
    the exact one from :func:`maximize_lifetime`."""
    result = mu_value_iteration(mdp, tol=tol, max_iter=max_iter)
    mu = result.mu_approx
    violation = certificate_residual(mdp, mu)
    if violation > max(CERT_SLACK, CLAMP_TOL * mu.max()):
        raise NotConvergedWithinBudget(
            f"value-iteration mu violates the certificate inequality by "
            f"{violation:.3g}; tighten tol"
        )
    return TransienceCertificate(
        mu=mu, K=float(mu.max()), method=f"value-iteration(tol={tol:g})"
    )


def truncate_at_state(mdp: RateMdp, ell: int) -> RateMdp:
    """Copy of the instance with every transition *into* ``ell`` removed."""
    if not 0 <= ell < mdp.n_states:
        raise ValueError(f"state index {ell} out of range")
    return from_packed(mdp.packed.without_column(ell), mdp.row_names(), mdp.state_labels)


def check_ht(mdp: RateMdp, ell: int):
    """Check the bounded-hitting-time condition at ``ell``.

    Runs :func:`maximize_lifetime` on the instance truncated at ``ell``.
    Returns an HtCertificate (mu of the truncated problem, K* = max mu) or
    the NonTransienceWitness of a policy that avoids ``ell`` forever.
    """
    if not 0 <= ell < mdp.n_states:
        raise ValueError(f"state index {ell} out of range")
    result = _maximize_lifetime(mdp.packed.without_column(ell))
    if isinstance(result, NonTransienceWitness):
        return result
    return HtCertificate(ell=ell, K_star=result.K, mu=result.mu)


def find_ht_states(mdp: RateMdp) -> list[tuple[int, float]]:
    """All states at which the bounded-hitting-time condition holds, with
    their K*, sorted by K* (ties by state index)."""
    hits = []
    for ell in range(mdp.n_states):
        result = check_ht(mdp, ell)
        if isinstance(result, HtCertificate):
            hits.append((ell, result.K_star))
    hits.sort(key=lambda pair: (pair[1], pair[0]))
    return hits
