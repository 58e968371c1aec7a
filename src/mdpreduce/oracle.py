"""Brute-force baselines for small instances.

Everything here enumerates the full policy space and evaluates each policy
by direct linear algebra, independently of the reduction pipeline; these
are the ground truths the transforms are tested against.  Caps keep the
enumeration cheap: at most 6 states and 3 actions per state, so at most
3^6 = 729 policies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _linalg
from .errors import NonTransientPolicyError, SingularSystemError
from .model import RateClass, RateMdp, StationaryPolicy, classify_rates, enumerate_policies

#: A policy counts as optimal when it attains the optimal value everywhere
#: within this tolerance.
VALUE_TOL = 1e-10

MAX_STATES = 6
MAX_ACTIONS = 3


@dataclass(frozen=True, eq=False)
class OracleResult:
    """Exhaustive-enumeration result: the optimal value, every optimal
    policy, and the value vector of every policy."""

    optimal_value: np.ndarray
    optimal_policies: tuple[StationaryPolicy, ...]
    per_policy_values: dict[StationaryPolicy, np.ndarray]


def _check_caps(mdp: RateMdp) -> None:
    if mdp.n_states > MAX_STATES:
        raise ValueError(
            f"{mdp.n_states} states exceed the oracle cap of {MAX_STATES}"
        )
    worst = max(mdp.n_actions(x) for x in range(mdp.n_states))
    if worst > MAX_ACTIONS:
        raise ValueError(
            f"{worst} actions at one state exceed the oracle cap of {MAX_ACTIONS}"
        )


def brute_force_total(mdp: RateMdp) -> OracleResult:
    """Total-cost optimum by policy enumeration: v_phi = (I - Q_phi)^-1 c_phi
    for every policy, minimized pointwise.

    Each policy costs one LU of I - Q_phi and one solve for the lifetime
    tau and v_phi together; the policy is transient exactly when tau > 0,
    the test of :func:`~mdpreduce.transience.evaluate_lifetime`.  Requires
    transience to be certified beforehand; hitting a policy that fails
    the test is therefore a hard error, not a witness.
    """
    _check_caps(mdp)
    table = mdp.packed
    per_policy: dict[StationaryPolicy, np.ndarray] = {}
    for phi in enumerate_policies(mdp):
        rows = table.rows(phi)
        b = np.column_stack((np.ones(len(rows)), table.c[rows]))
        solved = _linalg.solve_policy(table, rows, b)
        if solved is None or not np.all(solved[:, 0] > 0.0):
            raise NonTransientPolicyError(
                f"policy {tuple(phi)} is not transient although transience "
                f"was supposedly certified"
            )
        per_policy[phi] = solved[:, 1]
    optimal_value = np.min(np.stack(list(per_policy.values())), axis=0)
    optimal = tuple(
        phi
        for phi, v in per_policy.items()
        if np.all(v <= optimal_value + VALUE_TOL)
    )
    return OracleResult(
        optimal_value=optimal_value,
        optimal_policies=optimal,
        per_policy_values=per_policy,
    )


def stationary_distribution(mdp: RateMdp, phi: StationaryPolicy) -> np.ndarray:
    """Unique stationary distribution of the chain induced by ``phi``.

    Solves pi (I - P_phi) = 0 with the last balance equation replaced by
    the normalization row (deterministic pivoting keeps this reproducible).
    A singular system beyond the replaced constraint means the chain is not
    unichain, i.e. a bounded-hitting-time certificate was violated.
    """
    n = mdp.n_states
    table = mdp.packed
    A = (np.eye(n) - table.dense_rows(table.rows(phi))).T
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    pi = _linalg.try_solve(A, b)
    if pi is None:
        raise SingularSystemError(
            f"stationary-distribution system singular for policy "
            f"{tuple(phi)}: the chain is not unichain"
        )
    return pi


def average_cost_of_policy(mdp: RateMdp, phi: StationaryPolicy) -> float:
    """Long-run average cost of ``phi`` via its stationary distribution."""
    pi = stationary_distribution(mdp, phi)
    return float(pi @ mdp.packed.policy(phi)[1])


def brute_force_average(mdp: RateMdp, ell: int) -> OracleResult:
    """Average-cost optimum by policy enumeration.

    Requires stochastic rates and a bounded-hitting-time certificate at
    ``ell`` (so every policy's chain has a single recurrent class and the
    average cost w_phi = pi_phi . c_phi is independent of the start state).
    Values are reported as constant vectors for uniformity with the
    total-cost oracle.
    """
    _check_caps(mdp)
    if classify_rates(mdp) is not RateClass.STOCHASTIC:
        raise ValueError("the average-cost oracle requires stochastic rates")
    if not 0 <= ell < mdp.n_states:
        raise ValueError(f"state index {ell} out of range")
    n = mdp.n_states
    per_policy: dict[StationaryPolicy, np.ndarray] = {}
    for phi in enumerate_policies(mdp):
        w = average_cost_of_policy(mdp, phi)
        per_policy[phi] = np.full(n, w)
    best = min(v[0] for v in per_policy.values())
    optimal_value = np.full(n, best)
    optimal = tuple(
        phi for phi, v in per_policy.items() if v[0] <= best + VALUE_TOL
    )
    return OracleResult(
        optimal_value=optimal_value,
        optimal_policies=optimal,
        per_policy_values=per_policy,
    )


def cesaro_check(mdp: RateMdp, phi: StationaryPolicy, N: int) -> np.ndarray:
    """Direct Cesaro average (1/N) sum_{n < N} Q_phi^n c_phi, a second,
    linear-algebra-free oracle for the average cost (accurate to O(1/N))."""
    if N < 1:
        raise ValueError("N must be at least 1")
    P, c = mdp.packed.policy(phi)
    term = c
    total = c.copy()
    for _ in range(1, N):
        term = P @ term
        total += term
    return total / N
