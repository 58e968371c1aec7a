"""Seeded random-instance generators for property tests and benchmarks.

All generators are pure functions of the GenSpec (the seed fully
determines the output).  Two families come with a-priori guarantees:

* ``gen_transient``: substochastic instances whose row sums stay below
  1 - delta, which bounds the optimal lifetime by 1/delta for every
  policy.
* ``gen_ht``: stochastic instances where every action carries probability
  at least alpha into a designated state ``ell`` (minorization), which
  bounds the expected hitting time by 1/alpha.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import ActionData, RateMdp
from .transience import HtCertificate, check_ht

#: Draws ``gen_ht`` makes without minorization before it gives up.
HT_ATTEMPTS = 1000


@dataclass(frozen=True)
class Stochastic:
    """Rows sum to exactly 1."""


@dataclass(frozen=True)
class Substochastic:
    """Rows sum to 1 - kill, kill drawn from ``kill_prob_range`` in (0, 1]."""

    kill_prob_range: tuple[float, float]

    def __post_init__(self):
        lo, hi = self.kill_prob_range
        if not (0.0 < lo <= hi <= 1.0):
            raise ValueError(
                f"kill_prob_range must lie inside (0, 1], got {self.kill_prob_range}"
            )


@dataclass(frozen=True)
class GenSpec:
    """Parameters of a random instance family."""

    n_states: int
    max_actions: int
    rate_class: Stochastic | Substochastic = field(default_factory=Stochastic)
    cost_range: tuple[float, float] = (-1.0, 1.0)
    density: float = 0.6
    seed: int = 0

    def __post_init__(self):
        if self.n_states < 1 or self.max_actions < 1:
            raise ValueError("n_states and max_actions must be positive")
        lo, hi = self.cost_range
        if lo > hi:
            raise ValueError(f"cost_range must be nonempty, got {self.cost_range}")
        if not 0.0 < self.density <= 1.0:
            raise ValueError(f"density must lie in (0, 1], got {self.density}")


def _pick_targets(rng, n: int, density: float) -> list[int]:
    # one draw of n doubles: the same stream as n scalar draws
    return np.flatnonzero(rng.random(n) < density).tolist()


def gen_transient(spec: GenSpec) -> RateMdp:
    """Random substochastic instance with every row sum at most 1 - delta,
    delta being the low end of the kill range.  This forces transience with
    K <= 1/delta for every policy."""
    if not isinstance(spec.rate_class, Substochastic):
        raise ValueError("gen_transient requires the Substochastic rate class")
    rng = np.random.default_rng(spec.seed)
    kill_lo, kill_hi = spec.rate_class.kill_prob_range
    actions = []
    for _ in range(spec.n_states):
        k = int(rng.integers(1, spec.max_actions + 1))
        entry = []
        for _ in range(k):
            cost = float(rng.uniform(*spec.cost_range))
            targets = _pick_targets(rng, spec.n_states, spec.density)
            kill = float(rng.uniform(kill_lo, kill_hi))
            transitions = ()
            if targets:
                weights = rng.random(len(targets))
                weights *= (1.0 - kill) / weights.sum()
                transitions = tuple(
                    (y, float(w)) for y, w in zip(targets, weights)
                )
            entry.append(ActionData(cost=cost, transitions=transitions))
        actions.append(tuple(entry))
    return RateMdp(n_states=spec.n_states, actions=tuple(actions))


def _minorized_action(rng, spec: GenSpec, ell: int, alpha: float) -> ActionData:
    n = spec.n_states
    cost = float(rng.uniform(*spec.cost_range))
    others = [y for y in _pick_targets(rng, n, spec.density) if y != ell]
    transitions = []
    mass = 0.0
    if others:
        weights = rng.random(len(others))
        weights *= (1.0 - alpha) / weights.sum()
        for y, w in zip(others, weights):
            if w != 0.0:
                transitions.append((y, float(w)))
                mass += float(w)
    # remainder construction keeps the row sum at exactly 1 and the
    # probability into ell at >= alpha up to round-off
    transitions.append((ell, 1.0 - mass))
    return ActionData(cost=cost, transitions=tuple(transitions))


def _plain_stochastic_action(rng, spec: GenSpec) -> ActionData:
    n = spec.n_states
    cost = float(rng.uniform(*spec.cost_range))
    targets = _pick_targets(rng, n, spec.density)
    if not targets:
        targets = [int(rng.integers(0, n))]
    weights = rng.random(len(targets))
    weights /= weights.sum()
    head = [(y, float(w)) for y, w in zip(targets[:-1], weights[:-1])]
    tail_mass = 1.0 - sum(w for _, w in head)
    return ActionData(
        cost=cost, transitions=tuple(head + [(targets[-1], tail_mass)])
    )


def gen_ht(
    spec: GenSpec,
    ell: int,
    alpha: float = 0.2,
    minorize: bool = True,
) -> RateMdp:
    """Random stochastic instance whose expected hitting time to ``ell`` is
    bounded for every policy.

    With ``minorize`` (the default) every action carries probability at
    least alpha into ``ell``, giving the a-priori bound K* <= 1/alpha.
    Otherwise stochastic instances are drawn and rejection-sampled until
    the hitting-time checker certifies ``ell``.
    """
    if not isinstance(spec.rate_class, Stochastic):
        raise ValueError("gen_ht requires the Stochastic rate class")
    if not 0 <= ell < spec.n_states:
        raise ValueError(f"state index {ell} out of range")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    rng = np.random.default_rng(spec.seed)
    for _ in range(HT_ATTEMPTS):
        actions = []
        for _ in range(spec.n_states):
            k = int(rng.integers(1, spec.max_actions + 1))
            if minorize:
                entry = tuple(
                    _minorized_action(rng, spec, ell, alpha) for _ in range(k)
                )
            else:
                entry = tuple(
                    _plain_stochastic_action(rng, spec) for _ in range(k)
                )
            actions.append(entry)
        mdp = RateMdp(n_states=spec.n_states, actions=tuple(actions))
        if minorize or isinstance(check_ht(mdp, ell), HtCertificate):
            return mdp
    raise RuntimeError(
        f"no instance certifying state {ell} found in {HT_ATTEMPTS} attempts"
    )
