"""Correctness checks for the benchmark's operations.

Each check recomputes its reference with plain numpy (or the standard
``json`` module) from the instance the benchmark generated, and none of
them calls into mdpreduce.  A check returns ``None`` when the answer
passes and a one-line reason when it does not.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

#: Values agree when they differ by at most this share of max(1, |v|_inf).
#: Value iteration stops within 1e-10 of the discounted fixed point and the
#: lift multiplies by mu <= K, so exact answers sit far below it, while a
#: perturbed answer (a nudged value, a flipped action) sits far above it.
VALUE_TOL = 1e-7

#: Slack of the certificate inequality mu >= 1 + Q mu, per unit of K.
CERT_TOL = 1e-9

#: Relative tolerance of an emitted LP coefficient (printed with 17
#: significant digits, so it parses back exactly).
LP_TOL = 1e-14


@dataclass(frozen=True)
class Tables:
    """Dense state-action tables of one instance: rates ``R[j, y]``, costs
    ``c[j]``, the owning state ``owner[j]`` and each state's first row."""

    R: np.ndarray
    c: np.ndarray
    owner: np.ndarray
    first: np.ndarray

    @property
    def n(self) -> int:
        return len(self.first)


def tables(mdp) -> Tables:
    """Assemble the tables from the instance's per-action transition lists."""
    rows, costs, owner, first = [], [], [], []
    for x, acts in enumerate(mdp.actions):
        first.append(len(rows))
        for act in acts:
            row = np.zeros(mdp.n_states)
            for y, rate in act.transitions:
                row[y] += rate
            rows.append(row)
            costs.append(act.cost)
            owner.append(x)
    return Tables(
        R=np.array(rows), c=np.array(costs), owner=np.array(owner), first=np.array(first)
    )


def _scale(v) -> float:
    return max(1.0, float(np.max(np.abs(v))))


def _segment_min(tab: Tables, q: np.ndarray) -> np.ndarray:
    return np.minimum.reduceat(q, tab.first)


def _policy_rows(tab: Tables, policy) -> np.ndarray:
    choice = np.asarray(tuple(policy)[: tab.n], dtype=int)
    counts = np.diff(np.append(tab.first, len(tab.c)))
    if np.any(choice < 0) or np.any(choice >= counts):
        raise IndexError("policy action out of range")
    return tab.first + choice


def check_total(tab: Tables, mu, v, policy) -> str | None:
    """Total-cost answer: the certificate inequality mu >= 1 + Q mu on every
    row, the optimality equation v = min_a (c + Q v), and v equal to the
    value of ``policy`` from a direct solve of (I - Q_phi) v = c_phi."""
    mu = np.asarray(mu, dtype=float)
    v = np.asarray(v, dtype=float)
    if mu.shape != (tab.n,) or v.shape != (tab.n,):
        return f"expected {tab.n} entries of mu and v"
    K = float(mu.max())
    slack = CERT_TOL * max(1.0, K)
    if mu.min() < 1.0 - slack:
        return f"mu below 1: {mu.min()!r}"
    gap = float(np.max(1.0 + tab.R @ mu - mu[tab.owner]))
    if gap > slack:
        return f"certificate inequality violated by {gap:.3g}"
    tol = VALUE_TOL * _scale(v)
    residual = float(np.max(np.abs(v - _segment_min(tab, tab.c + tab.R @ v))))
    if residual > tol:
        return f"total-cost optimality residual {residual:.3g}"
    rows = _policy_rows(tab, policy)
    v_phi = np.linalg.solve(np.eye(tab.n) - tab.R[rows], tab.c[rows])
    deviation = float(np.max(np.abs(v - v_phi)))
    if deviation > tol:
        return f"policy value differs from v by {deviation:.3g}"
    return None


def stationary(P: np.ndarray) -> np.ndarray:
    """Stationary distribution of the stochastic matrix ``P`` (unichain)."""
    n = len(P)
    A = (np.eye(n) - P).T
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    return np.linalg.solve(A, b)


def check_average(tab: Tables, ell: int, w: float, h, policy) -> str | None:
    """Average-cost answer: the ACOE residual w + h(x) - min_a (c + Q h),
    h(ell) = 0, and w = pi . c_phi for the stationary distribution pi of
    the chain of ``policy``."""
    h = np.asarray(h, dtype=float)
    if h.shape != (tab.n,):
        return f"expected {tab.n} entries of h"
    tol = VALUE_TOL * max(_scale(h), abs(w))
    residual = float(np.max(np.abs(w + h - _segment_min(tab, tab.c + tab.R @ h))))
    if residual > tol:
        return f"ACOE residual {residual:.3g}"
    if abs(h[ell]) > tol:
        return f"h(ell) = {h[ell]!r}, not 0"
    rows = _policy_rows(tab, policy)
    w_phi = float(stationary(tab.R[rows]) @ tab.c[rows])
    if abs(w - w_phi) > tol:
        return f"w = {w!r} but the policy's average cost is {w_phi!r}"
    return None


def check_close(label: str, got, want) -> str | None:
    """``got`` and ``want`` agree within VALUE_TOL (used for the agreement
    of the three methods and for the brute-force optimum)."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return f"{label}: shape {got.shape} against {want.shape}"
    deviation = float(np.max(np.abs(got - want)))
    if deviation > VALUE_TOL * _scale(want):
        return f"{label}: deviation {deviation:.3g}"
    return None


# ---------------------------------------------------------------------------
# Files: the instance format and the occupation-measure LP.
# ---------------------------------------------------------------------------


def instance_obj(mdp) -> dict:
    """The JSON object the instance format prescribes for ``mdp``."""
    actions = []
    for acts in mdp.actions:
        entry = []
        for act in acts:
            record = {} if act.name is None else {"name": act.name}
            record["cost"] = act.cost
            record["transitions"] = [{"to": y, "rate": r} for y, r in act.transitions]
            entry.append(record)
        actions.append(entry)
    states = mdp.n_states if mdp.state_labels is None else list(mdp.state_labels)
    return {"states": states, "actions": actions}


def hv_discounted_obj(dmdp) -> dict:
    """The JSON object of a discounted instance from the total-cost
    reduction (origin kind "hv")."""
    obj = instance_obj(dmdp.base)
    obj["discounted"] = {
        "beta": dmdp.beta,
        "absorbing_state": dmdp.absorbing_state,
        "origin": {"kind": "hv", "mu": [float(m) for m in dmdp.origin.mu]},
    }
    return obj


def check_text(label: str, text: str, want: dict) -> str | None:
    """``text`` decodes with the standard json module to ``want``."""
    if json.loads(text) != want:
        return f"{label} does not decode to the instance's structure"
    return None


def same_discounted(got, want) -> str | None:
    """Structural equality of two discounted instances."""
    if got.base != want.base:
        return "discounted round trip changed the instance"
    if (got.beta, got.absorbing_state) != (want.beta, want.absorbing_state):
        return "discounted round trip changed beta or the absorbing state"
    if type(got.origin) is not type(want.origin) or not np.array_equal(
        got.origin.mu, want.origin.mu
    ):
        return "discounted round trip changed the origin"
    return None


def parse_lp(text: str):
    """Parse the objective and the flow rows of an emitted LP.

    Returns ``(objective, rows)``: ``objective`` maps a variable name to its
    coefficient and ``rows`` maps a state index to ``(terms, rhs)``.
    """
    objective: dict[str, float] = {}
    rows: dict[int, tuple[dict[str, float], str]] = {}
    section, current, tokens = None, None, []

    def flush():
        if current is None:
            return
        terms, rhs, sign = {}, None, 1.0
        i = 0
        while i < len(tokens):
            tok = tokens[i]
            if tok == "=":
                rhs = tokens[i + 1]
                break
            if tok in "+-":
                sign = -1.0 if tok == "-" else 1.0
                i += 1
                tok = tokens[i]
            terms[tokens[i + 1]] = sign * float(tok)
            sign = 1.0
            i += 2
        if current == "obj":
            objective.update(terms)
        else:
            rows[current] = (terms, rhs)

    for line in text.splitlines():
        if line in ("Minimize", "Subject To", "Bounds", "End"):
            flush()
            section, current, tokens = line, None, []
            continue
        if line.startswith("   "):  # continuation of a wrapped row
            tokens.extend(line.split())
            continue
        if section == "Minimize" and line.startswith(" obj:"):
            current, tokens = "obj", line.split()[1:]
        elif section == "Subject To" and line.startswith(" flow_"):
            flush()
            head, *rest = line.split()
            current, tokens = int(head[len("flow_"):-1]), rest
    return objective, rows


def check_lp(text: str, dtab: Tables, beta: float) -> str | None:
    """Every flow row of the LP equals the row of I - beta P^T (over the
    state-action columns z_<x>_<a>) that the benchmark assembles from the
    discounted instance, with right-hand side 1, and the objective carries
    the costs."""
    objective, rows = parse_lp(text)
    names = [
        f"z_{x}_{j - dtab.first[x]}" for j, x in enumerate(dtab.owner)
    ]
    expected = -beta * dtab.R.T
    expected[dtab.owner, np.arange(len(names))] += 1.0
    if sorted(rows) != list(range(dtab.n)):
        return f"LP has flow rows for {len(rows)} of {dtab.n} states"
    for x in range(dtab.n):
        terms, rhs = rows[x]
        if rhs != "1":
            return f"flow_{x} has right-hand side {rhs!r}"
        got = np.array([terms.pop(name, 0.0) for name in names])
        if terms:
            return f"flow_{x} names unknown variables {sorted(terms)[:3]}"
        if not np.allclose(got, expected[x], rtol=LP_TOL, atol=0.0):
            j = int(np.argmax(np.abs(got - expected[x])))
            return f"flow_{x} coefficient of {names[j]} is {got[j]!r}, not {expected[x][j]!r}"
    got = np.array([objective.get(name, 0.0) for name in names])
    if len(objective) > len(names) or not np.allclose(got, dtab.c, rtol=LP_TOL, atol=0.0):
        return "LP objective differs from the costs"
    return None
