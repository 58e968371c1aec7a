"""Reduction of an average-cost MDP to a discounted MDP.

Requires a distinguished state ``ell`` with uniformly bounded expected
hitting time (certified by :func:`mdpreduce.transience.check_ht`).  The
construction rescales by the truncated-lifetime vector mu, reroutes the
lifetime-surplus mass into ``ell``, and sends the rest to a cost-free
absorbing sink:

    c'(x, a)    = c(x, a) / mu(x)
    p'(y | x, a) = q(y | x, a) mu(y) / (beta mu(x))                y != ell
    p'(ell|x, a) = [mu(x) - 1 - sum_{y != ell} q(y|x,a) mu(y)] / (beta mu(x))
    p'(sink|x,a) = 1 - [mu(x) - 1] / (beta mu(x))

with beta in [(K* - 1)/K*, 1).  For stochastic instances the optimal
discounted value at ``ell`` is the optimal average cost, and
h(x) = mu(x) [dv(x) - dv(ell)] solves the average-cost optimality
equation (ACOE)

    w + h(x) = min_a [ c(x, a) + sum_y q(y | x, a) h(y) ].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AcoeResidualError
from .hv import DiscountedMdp, _without_sink, admissible_beta, rescale
from .model import RateClass, RateMdp, classify_rates
from .transience import HtCertificate, check_ht


@dataclass(frozen=True, eq=False)
class AverageSolution:
    """Optimal average cost ``w`` plus the relative-value function ``h``,
    normalized so h(ell) = 0 (the ACOE only pins h up to a constant)."""

    w: float
    h: np.ndarray
    ell: int

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        h.flags.writeable = False
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "w", float(self.w))


@dataclass(frozen=True, eq=False)
class AcoeReport:
    """Residuals of the ACOE and the per-state optimal-action sets."""

    max_residual: float
    residuals: np.ndarray
    optimal_actions: tuple[tuple[int, ...], ...]


def build_hvag(
    mdp: RateMdp, cert: HtCertificate, beta: float | None = None
) -> DiscountedMdp:
    """Build the discounted reduction of an average-cost instance.

    ``beta`` defaults to (K* - 1)/K*.  K* = 1 means ``ell`` is absorbing
    under every policy; then beta = 0 and every action is wired straight
    into the sink, whose kernel a 0-discount solver never consults.

    ``cert`` is normally the minimal mu from check_ht (it minimizes K* and
    hence beta), but any vector satisfying the truncated inequality is
    accepted, e.g. the constant 1/alpha when every action carries
    probability >= alpha into ``ell``.
    """
    mu = np.asarray(cert.mu, dtype=float)
    beta = admissible_beta(mdp, mu, cert.K_star, beta, ell=cert.ell)
    return rescale(mdp, mu, beta, ell=cert.ell)


def extract_average_solution(dv: np.ndarray, cert: HtCertificate) -> AverageSolution:
    """Map optimal discounted values of the reduction back to the
    average-cost solution: w = dv(ell), h(x) = mu(x) [dv(x) - dv(ell)].

    ``dv`` runs over the augmented state space with the absorbing state
    last; its value there must be zero.
    """
    v = _without_sink(dv, cert.mu)
    w = float(v[cert.ell])
    return AverageSolution(w=w, h=cert.mu * (v - w), ell=cert.ell)


def acoe_residuals(mdp: RateMdp, sol: AverageSolution) -> np.ndarray:
    """Per-state residuals w + h(x) - min_a [c(x,a) + sum q(y|x,a) h(y)]."""
    table = mdp.packed
    return sol.w + sol.h - table.state_min(table.c + table.R @ sol.h)


def average_optimal_actions(mdp: RateMdp, sol: AverageSolution, tol: float):
    """Per-state sets {a : |w + h(x) - c(x,a) - sum q(y|x,a) h(y)| <= tol}."""
    table = mdp.packed
    return table.action_sets(sol.w + sol.h[table.owner] - table.c - table.R @ sol.h, tol)


def verify_acoe(
    mdp: RateMdp, sol: AverageSolution, tol: float, cross_check: bool = True
) -> AcoeReport:
    """Check that (w, h) solves the ACOE within ``tol``.

    Returns the residuals and the optimal-action sets; raises
    AcoeResidualError (carrying the residuals) when the worst residual
    exceeds ``tol``.  With ``cross_check`` the per-state sets are also
    asserted to coincide with the optimal-action sets of the discounted
    reduction, which requires re-running the reduction pipeline.

    Only meaningful for stochastic instances (the average-cost criterion
    needs probabilities), which is enforced.
    """
    if classify_rates(mdp) is not RateClass.STOCHASTIC:
        raise ValueError("the average-cost criterion requires stochastic rates")
    residuals = acoe_residuals(mdp, sol)
    max_residual = float(np.max(np.abs(residuals)))
    if max_residual > tol:
        raise AcoeResidualError(max_residual, residuals)
    sets = average_optimal_actions(mdp, sol, tol)
    if any(not members for members in sets):
        raise AcoeResidualError(max_residual, residuals)
    if cross_check:
        from .solve import howard_pi, optimal_actions

        cert = check_ht(mdp, sol.ell)
        if not isinstance(cert, HtCertificate):
            raise ValueError(
                f"bounded hitting time to state {sol.ell} no longer certifiable"
            )
        dmdp = build_hvag(mdp, cert)
        report = howard_pi(dmdp)
        discounted_sets = optimal_actions(dmdp, report.values, tol)
        if list(discounted_sets[: mdp.n_states]) != list(sets):
            raise AssertionError(
                "ACOE optimal-action sets disagree with the discounted "
                f"reduction's: {sets} vs {discounted_sets[: mdp.n_states]}"
            )
    return AcoeReport(
        max_residual=max_residual,
        residuals=residuals,
        optimal_actions=tuple(sets),
    )


def lemma2_identity(
    mdp: RateMdp,
    cert: HtCertificate,
    dmdp: DiscountedMdp,
    f: np.ndarray,
    x: int,
    a: int,
) -> tuple[float, float]:
    """Evaluate both sides of the one-step correspondence identity for a
    bounded f on the augmented state space with f(sink) = 0:

        lhs = c'(x,a) + beta sum_y p'(y|x,a) f(y)
        rhs = [c(x,a) + sum_y q(y|x,a) mu(y) (f(y) - f(ell))
                      + (mu(x) - 1) f(ell)] / mu(x)

    Both numbers are returned for comparison; they agree to round-off for
    any valid certificate.
    """
    f = np.asarray(f, dtype=float)
    if len(f) != mdp.n_states + 1:
        raise ValueError(f"expected {mdp.n_states + 1} entries, got {len(f)}")
    if f[-1] != 0.0:
        raise ValueError(f"f must vanish at the absorbing state, got {f[-1]!r}")

    table, dtable = mdp.packed, dmdp.base.packed
    r, dr = table.row(x, a), dtable.row(x, a)
    lhs = dtable.c[dr] + dmdp.beta * (dtable.R[dr] @ f)[0]

    mu, ell = cert.mu, cert.ell
    moved = (table.R[r] @ (mu * (f[:-1] - f[ell])))[0]
    rhs = (table.c[r] + (mu[x] - 1.0) * f[ell] + moved) / mu[x]
    return float(lhs), float(rhs)
