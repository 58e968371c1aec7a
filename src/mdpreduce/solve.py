"""Solvers for discounted MDPs with stochastic transitions.

Three routes to the same fixed point: value iteration (contraction
mapping), Howard policy iteration (all-state greedy improvement, the
block-pivoting simplex on the occupation-measure LP), and simple policy
iteration with Dantzig's rule (one most-negative-reduced-cost switch per
round).  The LP itself is emitted as text for external verification; the
policy-iteration algorithms *are* its simplex methods, so no general LP
solver is embedded.

Tie-breaking is deterministic everywhere: prefer the incumbent action,
then the lowest index.  Howard and Dantzig share one loop with the
lifetime checker, ``model._policy_iteration``: evaluate the policy,
carried as the int array of its packed rows, then improve it, until no
row switches.  Each solver gives only those two steps.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import _linalg
from .errors import NotConvergedWithinBudget, SingularSystemError
from .hv import DiscountedMdp
from .model import StationaryPolicy, _check_budget, _policy_iteration

#: Strict-improvement threshold for policy iteration; avoids cycling under
#: floating-point ties.
IMPROVE_TOL = 1e-12

#: Membership tolerance for reported optimal-action sets.
ACTION_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Result of one solver run on one discounted instance."""

    values: np.ndarray
    policy: StationaryPolicy
    optimal_actions: tuple[tuple[int, ...], ...]
    iterations: int
    bellman_residual: float
    method: str
    elapsed_s: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


@dataclass(frozen=True, eq=False)
class OccupationMeasure:
    """LP variables z (m,): the discounted expected visits of each packed row."""

    z: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float)
        z.flags.writeable = False
        object.__setattr__(self, "z", z)

    def objective(self, dmdp: DiscountedMdp) -> float:
        return float(dmdp.base.packed.c @ self.z)

    def constraint_residuals(self, dmdp: DiscountedMdp) -> np.ndarray:
        """Per-state violation of
        sum_a z(x,a) - beta sum_{y,a} p(x|y,a) z(y,a) = 1."""
        table = dmdp.base.packed
        inflow = table.R.T @ self.z
        return np.bincount(table.owner, self.z, dmdp.n_states) - 1.0 - dmdp.beta * inflow


def _evaluate(dmdp: DiscountedMdp, rows: np.ndarray) -> np.ndarray:
    """Discounted value of the policy whose packed rows are ``rows``."""
    table = dmdp.base.packed
    c = table.c[rows]
    if dmdp.beta == 0.0:
        return c
    v = _linalg.solve_policy(table, rows, c, dmdp.beta)
    if v is None:
        raise SingularSystemError("singular linear system: discounted policy evaluation")
    return v


def policy_evaluate(dmdp: DiscountedMdp, phi: StationaryPolicy) -> np.ndarray:
    """Discounted value of ``phi``: the solution of (I - beta P_phi) v = c_phi.

    The system is nonsingular for beta < 1 because P_phi is stochastic
    (strict diagonal dominance).  At beta = 0 the value is just c_phi.
    """
    return _evaluate(dmdp, dmdp.base.packed.rows(phi))


def optimal_actions(dmdp: DiscountedMdp, v: np.ndarray, tol: float):
    """Per-state sets {a : |v(x) - c(x,a) - beta sum_y p(y|x,a) v(y)| <= tol}.

    An empty set at some state means ``v`` does not solve the optimality
    equation at this tolerance, which is an error.
    """
    table = dmdp.base.packed
    v = np.asarray(v, dtype=float)
    gap = v[table.owner] - table.c - dmdp.beta * (table.R @ v)
    return table.action_sets(gap, tol, "optimality equation")


def _finish(dmdp, table, v, rows, iterations, method, started):
    """The report of a run that stopped at values ``v`` with the policy
    whose packed rows are ``rows``: the one place a solver builds its
    StationaryPolicy."""
    tv = table.state_min(table.c + dmdp.beta * (table.R @ v))
    residual = float(np.max(np.abs(tv - v)))
    sets = tuple(optimal_actions(dmdp, v, ACTION_TOL))
    choice = table.local[rows].tolist()
    if not all(a in members for a, members in zip(choice, sets)):
        raise RuntimeError("returned policy must lie in the reported optimal-action sets")
    return SolveReport(
        values=v,
        policy=StationaryPolicy(choice),
        optimal_actions=sets,
        iterations=iterations,
        bellman_residual=residual,
        method=method,
        elapsed_s=time.perf_counter() - started,
    )


def value_iteration(
    dmdp: DiscountedMdp,
    tol: float = 1e-10,
    max_iter: int = 1_000_000,
    v0: np.ndarray | None = None,
) -> SolveReport:
    """Iterate the optimality operator until the sup-norm increment drops
    below tol (1 - beta) / (2 beta), which guarantees the returned values
    are within ``tol`` of the fixed point.  At beta = 0 one application is
    exact.  Successive increments must shrink by a factor of beta
    (contraction), which is checked each iteration, up to round-off of
    1e-15 max(1, |v|).  Only the last sweep takes the greedy actions, from
    the same q as its minimum.  A bad ``tol``, ``max_iter`` or ``v0`` raises
    ValueError.
    """
    started = time.perf_counter()
    _check_budget(tol, max_iter)
    beta = dmdp.beta
    table = dmdp.base.packed
    v = np.zeros(dmdp.n_states) if v0 is None else np.asarray(v0, dtype=float)
    if v.shape != (dmdp.n_states,) or not np.all(np.isfinite(v)):
        raise ValueError(f"v0 must be a finite vector of {dmdp.n_states} values")
    threshold = np.inf if beta == 0.0 else tol * (1.0 - beta) / (2.0 * beta)
    previous_delta = None
    for iteration in range(1, max_iter + 1):
        q = table.c + beta * (table.R @ v)
        tv = table.state_min(q)
        delta = float(np.max(np.abs(tv - v)))
        # the second test, for |v| > 1, runs only when the first fails
        if previous_delta is not None and not (
            delta <= beta * previous_delta * (1.0 + 1e-9) + 1e-15
            or delta <= beta * previous_delta * (1.0 + 1e-9) + 1e-15 * float(np.max(np.abs(tv)))
        ):
            raise RuntimeError("optimality operator failed to contract")
        v, previous_delta = tv, delta
        if delta <= threshold:
            _, greedy = table.state_argmin(q)
            rows = table.first[:-1] + greedy
            return _finish(dmdp, table, v, rows, iteration, "value-iteration", started)
    raise NotConvergedWithinBudget(
        f"value iteration still moving by {previous_delta:.3g} after {max_iter} iterations"
    )


def howard_pi(dmdp: DiscountedMdp, phi0: StationaryPolicy | None = None) -> SolveReport:
    """Howard policy iteration: evaluate, then switch every state to its
    greedy action (ties to the incumbent, then the lowest index); stop when
    no state improves by more than 1e-12.  Values are nonincreasing
    entrywise across rounds, which is checked.

    Hansen, Miltersen and Zwick (J. ACM 60(1), 2013) bound the rounds by
    O(m K log(n K)), K = 1/(1 - beta); past 100 + 10 m K log(n K)
    rounds, far above that, the improvement must be cycling and
    NotConvergedWithinBudget is raised.
    """
    started = time.perf_counter()
    beta = dmdp.beta
    table = dmdp.base.packed
    K = 1.0 / (1.0 - beta)
    cap = 100 + math.ceil(10 * len(table.c) * K * math.log(dmdp.n_states * K))
    last = None

    def improve(v, rows):
        nonlocal last
        if last is not None and not np.all(v <= last + 1e-9):
            raise RuntimeError("policy iteration must not increase values")
        last = v
        q = table.c + beta * (table.R @ v)
        low, best = table.state_argmin(q)
        switch = low < q[rows] - IMPROVE_TOL
        return np.where(switch, table.first[:-1] + best, rows) if switch.any() else None

    v, rows, rounds = _policy_iteration(
        table, phi0, lambda rows: _evaluate(dmdp, rows), improve, cap,
        lambda: f"Howard policy iteration exceeded {cap} rounds (improvement cycle?)",
    )
    return _finish(dmdp, table, v, rows, rounds, "howard-pi", started)


def dantzig_pi(dmdp: DiscountedMdp, phi0: StationaryPolicy | None = None) -> SolveReport:
    """Simple policy iteration with Dantzig's rule: per round, switch the
    single state-action pair with the most negative reduced cost
    c(x,a) + beta sum p(y|x,a) v(y) - v(x) (ties: lowest state, then lowest
    action); stop when all reduced costs are >= -1e-12.  The iteration
    count is the number of switches, at most 10,000 + 100 m^2.
    """
    started = time.perf_counter()
    beta = dmdp.beta
    table = dmdp.base.packed
    cap = 10_000 + 100 * len(table.c) ** 2

    def improve(v, rows):
        reduced = table.c + beta * (table.R @ v) - v[table.owner]
        row = int(np.argmin(reduced))
        if not reduced[row] < -IMPROVE_TOL:
            return None
        rows = rows.copy()  # the default start is a view of table.first
        rows[table.owner[row]] = row
        return rows

    v, rows, steps = _policy_iteration(
        table, phi0, lambda rows: _evaluate(dmdp, rows), improve, cap,
        lambda: f"Dantzig policy iteration exceeded {cap} switches (degeneracy cycle?)",
    )
    return _finish(dmdp, table, v, rows, steps - 1, "dantzig-pi", started)


METHODS = {
    "vi": value_iteration,
    "howard": howard_pi,
    "dantzig": dantzig_pi,
}


def solve(dmdp: DiscountedMdp, method: str = "howard", **kwargs) -> SolveReport:
    """Dispatch to one of the three solvers by name (vi | howard | dantzig)."""
    try:
        solver = METHODS[method]
    except KeyError:
        raise ValueError(
            f"unknown method {method!r}; expected one of {sorted(METHODS)}"
        ) from None
    return solver(dmdp, **kwargs)


def occupation_measure(dmdp: DiscountedMdp, phi: StationaryPolicy) -> OccupationMeasure:
    """The feasible point of the occupation-measure LP induced by ``phi``:
    z on the rows of ``phi`` solves z (I - beta P_phi) = 1, and z is zero
    on every other row.

    Its objective equals the summed policy values sum_x v_phi(x).
    """
    table = dmdp.base.packed
    rows = table.rows(phi)
    z = np.zeros(len(table.c))
    # dense LU at every size: BiCGSTAB breaks down on this system (see _linalg)
    a = np.eye(dmdp.n_states) - dmdp.beta * table.dense_rows(rows).T
    z[rows] = _linalg.solve(a, np.ones(dmdp.n_states), "occupation measure")
    return OccupationMeasure(z=z)


# ---------------------------------------------------------------------------
# LP emission (standard textual LP file format).
# ---------------------------------------------------------------------------


def _format_terms(terms) -> list[str]:
    """Render (coefficient, variable) pairs as LP-format tokens."""
    rendered = []
    for i, (coef, var) in enumerate(terms):
        magnitude = f"{abs(coef):.17g} {var}"
        if i == 0:
            rendered.append(f"-{magnitude}" if coef < 0 else magnitude)
        else:
            rendered.append(f"{'-' if coef < 0 else '+'} {magnitude}")
    return rendered


def _wrap(tokens: list[str], prefix: str) -> list[str]:
    lines = []
    current = prefix
    for token in tokens:
        if len(current) + len(token) + 1 > 200:
            lines.append(current)
            current = "   " + token
        else:
            current = f"{current} {token}"
    lines.append(current)
    return lines


def emit_lp(dmdp: DiscountedMdp) -> str:
    """Emit the occupation-measure LP of the instance:

        minimize sum c(x,a) z_{x,a}
        s.t.     sum_a z(x,a) - beta sum_{y,a} p(x|y,a) z(y,a) = 1   for all x
                 z >= 0

    Variables are named z_<state>_<action>; ordering is state-major,
    action-minor; coefficients carry 17 significant digits.  Output is
    deterministic byte-for-byte.
    """
    table = dmdp.base.packed
    beta = dmdp.beta
    n, m = len(table.first) - 1, len(table.c)
    names = [f"z_{x}_{a}" for x, a in zip(table.owner.tolist(), table.local.tolist())]
    lines = [f"\\ occupation-measure LP (beta = {beta:.17g})"]

    lines.append("Minimize")
    lines.extend(_wrap(_format_terms(zip(table.c.tolist(), names)), " obj:"))

    lines.append("Subject To")
    # row x of I_owner - beta R^T, zero coefficients dropped
    owned = sparse.csr_matrix((np.ones(m), np.arange(m), table.first), shape=(n, m))
    flow = (owned - beta * table.R.T).tocsr()
    coefs, rows, bounds = flow.data.tolist(), flow.indices.tolist(), flow.indptr.tolist()
    for x in range(n):
        terms = [(coefs[k], names[rows[k]]) for k in range(bounds[x], bounds[x + 1])]
        lines.extend(_wrap(_format_terms(terms) + ["=", "1"], f" flow_{x}:"))

    lines.append("Bounds")
    lines.extend(f" {name} >= 0" for name in names)
    lines.append("End")
    return "\n".join(lines) + "\n"


def format_report(report: SolveReport) -> str:
    """Serialize a SolveReport as structured text (12 significant digits)."""
    lines = [
        f"method: {report.method}",
        f"iterations: {report.iterations}",
        f"bellman_residual: {report.bellman_residual:.12g}",
        f"elapsed_s: {report.elapsed_s:.6g}",
        "values: " + " ".join(f"{v:.12g}" for v in report.values),
        "policy: " + " ".join(str(a) for a in report.policy),
        "optimal_actions: "
        + " ".join(
            f"{x}:{','.join(str(a) for a in acts)}"
            for x, acts in enumerate(report.optimal_actions)
        ),
    ]
    return "\n".join(lines) + "\n"
