"""End-to-end pipelines: check assumptions, transform, solve, map back.

These wire the per-module operations together the way the command-line
front end (and most library users) want them: the relevant assumption is
always re-checked first, failures surface as witnesses rather than bad
numbers, and solved values are mapped back to the original criterion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hv import DiscountedMdp, build_hv, lift_total_value, total_optimal_actions
from .hvag import (
    AcoeReport,
    AverageSolution,
    build_hvag,
    extract_average_solution,
    verify_acoe,
)
from .model import RateClass, RateMdp, StationaryPolicy, classify_rates
from .solve import SolveReport, solve
from .transience import (
    HtCertificate,
    NonTransienceWitness,
    TransienceCertificate,
    check_ht,
    maximize_lifetime,
)


@dataclass(frozen=True, eq=False)
class TotalCostSolution:
    """Everything the total-cost pipeline produces."""

    certificate: TransienceCertificate
    discounted: DiscountedMdp
    report: SolveReport
    values: np.ndarray
    policy: StationaryPolicy
    optimal_actions: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class AverageCostSolution:
    """Everything the average-cost pipeline produces."""

    certificate: HtCertificate
    discounted: DiscountedMdp
    report: SolveReport
    solution: AverageSolution
    acoe: AcoeReport


def solve_total_cost(
    mdp: RateMdp,
    method: str = "howard",
    beta: float | None = None,
    **solver_kwargs,
):
    """Check transience, reduce to a discounted instance, solve it, and lift
    the solution back.  Returns a TotalCostSolution, or the
    NonTransienceWitness when the instance is not transient.  A total-cost
    gap is ``mu(x)`` times the discounted one, so the total-cost sets are cut
    at ``mu`` times the solver's bound."""
    cert = maximize_lifetime(mdp)
    if isinstance(cert, NonTransienceWitness):
        return cert
    dmdp = build_hv(mdp, cert, beta=beta)
    report = solve(dmdp, method=method, **solver_kwargs)
    values = lift_total_value(report.values, cert.mu)
    cut = mdp.packed.cut(values, values, 1.0, cert.mu * (1.0 + dmdp.beta) * report.error_bound)
    return TotalCostSolution(
        certificate=cert,
        discounted=dmdp,
        report=report,
        values=values,
        policy=StationaryPolicy(tuple(report.policy)[: mdp.n_states]),
        optimal_actions=tuple(total_optimal_actions(mdp, values, cut)),
    )


def solve_average_cost(
    mdp: RateMdp,
    ell: int,
    method: str = "howard",
    beta: float | None = None,
    **solver_kwargs,
):
    """Check the bounded-hitting-time condition at ``ell``, reduce, solve,
    extract (w, h), and verify the average-cost optimality equation.
    Returns an AverageCostSolution, or the NonTransienceWitness when some
    policy avoids ``ell``.

    Requires stochastic rates (the average-cost correspondence needs
    probabilities).  An ACOE gap is ``mu(x)`` times the discounted one, so
    the ACOE is checked at ``mu`` times the solver's bound.
    """
    if classify_rates(mdp) is not RateClass.STOCHASTIC:
        raise ValueError("the average-cost pipeline requires stochastic rates")
    cert = check_ht(mdp, ell)
    if isinstance(cert, NonTransienceWitness):
        return cert
    dmdp = build_hvag(mdp, cert, beta=beta)
    report = solve(dmdp, method=method, **solver_kwargs)
    solution = extract_average_solution(report.values, cert)
    bound = cert.mu * (1.0 + dmdp.beta) * report.error_bound
    cut = mdp.packed.cut(solution.w + solution.h, solution.h, 1.0, bound)
    acoe = verify_acoe(mdp, solution, tol=cut)
    return AverageCostSolution(
        certificate=cert,
        discounted=dmdp,
        report=report,
        solution=solution,
        acoe=acoe,
    )
