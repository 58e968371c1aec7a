"""Pinned runs of the policy-iteration loops and of value iteration.

Each pin holds a run's rounds, policy, optimal-action sets and values (or
lifetime vector) to the bit, on seeded instances below
``_linalg.DENSE_MAX_N`` states, where every policy system goes to LU, and
above it, where they go to BiCGSTAB.  The pins come from an implementation
that carried a StationaryPolicy from round to round, so they hold the
loops on packed row indices to the same tie-breaks and round-off.
"""

import functools
import hashlib

import numpy as np
import pytest

from mdpreduce import (
    GenSpec,
    Stochastic,
    Substochastic,
    _linalg,
    build_hv,
    build_hvag,
    check_ht,
    gen_ht,
    gen_transient,
    maximize_lifetime,
)
from mdpreduce.solve import dantzig_pi, howard_pi, value_iteration


def digest(data) -> str:
    """The first 16 hex digits of the SHA-256 of an array's bytes or of
    any other value's repr."""
    raw = data.tobytes() if isinstance(data, np.ndarray) else repr(data).encode()
    return hashlib.sha256(raw).hexdigest()[:16]


def _total(n, seed, density=0.6, kill=(0.1, 0.3)):
    spec = GenSpec(n, 4, Substochastic(kill), density=density, seed=seed)
    return gen_transient(spec)


def _average(n, seed, density=0.6, minorize=True):
    spec = GenSpec(n, 4, Stochastic(), density=density, seed=seed)
    return gen_ht(spec, ell=0, alpha=0.1, minorize=minorize)


#: name -> (criterion, instance maker)
INSTANCES = {
    "total-12": ("total", lambda: _total(12, 1)),
    "total-30": ("total", lambda: _total(30, 2, kill=(0.01, 0.5))),
    "total-300": ("total", lambda: _total(300, 3)),
    "total-400-sparse": ("total", lambda: _total(400, 4, 10 / 400, (0.01, 0.5))),
    "average-12": ("average", lambda: _average(12, 2, minorize=False)),
    "average-30": ("average", lambda: _average(30, 6)),
    "average-300-sparse": ("average", lambda: _average(300, 2, 10 / 300, minorize=False)),
    "average-600-sparse": ("average", lambda: _average(600, 7, 10 / 600)),
}

SOLVERS = {"vi": value_iteration, "howard": howard_pi, "dantzig": dantzig_pi}


@functools.lru_cache(maxsize=None)
def instance(name):
    return INSTANCES[name][1]()


def certify(name):
    """The certificate of the instance: maximize_lifetime's for a total-cost
    instance, check_ht's at state 0 for an average-cost one."""
    criterion, _ = INSTANCES[name]
    mdp = instance(name)
    return maximize_lifetime(mdp) if criterion == "total" else check_ht(mdp, 0)


@functools.lru_cache(maxsize=None)
def reduction(name):
    criterion, _ = INSTANCES[name]
    build = build_hv if criterion == "total" else build_hvag
    return build(instance(name), certify(name))


def solver_run(name, method):
    report = SOLVERS[method](reduction(name))
    return (
        report.iterations,
        digest(report.policy.choice),
        digest(report.optimal_actions),
        digest(report.values),
    )


def lifetime_run(name, monkeypatch):
    """The number of lifetime policies evaluated, and the certificate."""
    instance(name)  # gen_ht without minorization runs check_ht itself
    rounds = []
    solve_policy = _linalg.solve_policy

    def counted(*args, **kwargs):
        rounds.append(1)
        return solve_policy(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(_linalg, "solve_policy", counted)
        cert = certify(name)
    mu = np.asarray(cert.mu)
    return len(rounds), digest(mu), float(mu.max())


#: (instance, method) -> (iterations, policy, optimal actions, values)
SOLVER_PINS = {
    ('average-12', 'dantzig'): (5, 'd0612fe2a9462c18', '2bdd0dc3112b0376', '091c343c25d94356'),
    ('average-12', 'howard'): (3, 'd0612fe2a9462c18', '2bdd0dc3112b0376', '091c343c25d94356'),
    ('average-12', 'vi'): (934, 'd0612fe2a9462c18', '2bdd0dc3112b0376', '7397cf056114343a'),
    ('average-30', 'dantzig'): (9, '7bf942b58d1ae571', 'e3dadcf7ab33e1c9', 'cf815ec8d3785df7'),
    ('average-30', 'howard'): (3, '7bf942b58d1ae571', 'e3dadcf7ab33e1c9', 'cf815ec8d3785df7'),
    ('average-30', 'vi'): (216, '7bf942b58d1ae571', 'e3dadcf7ab33e1c9', 'b4721fe4b466fbae'),
    ('average-300-sparse', 'howard'): (4, 'e6379feecd122257', '522b7427155de168', '83b1001c94abf6f1'),
    ('average-600-sparse', 'howard'): (6, '87da871bf25a493b', '1d15f5cbbe009cc9', '3462c31454678911'),
    ('total-12', 'dantzig'): (6, 'a9bcc6f3ca790794', '896a809891582c07', 'cd704283a7d6d24a'),
    ('total-12', 'howard'): (3, 'a9bcc6f3ca790794', '896a809891582c07', 'cd704283a7d6d24a'),
    ('total-12', 'vi'): (101, 'a9bcc6f3ca790794', '896a809891582c07', '2a626bec6d48ab50'),
    ('total-30', 'dantzig'): (14, '0d07e3cbe38fd847', '77cd1a43184f8871', '3e4df0c02dc8dbeb'),
    ('total-30', 'howard'): (3, '0d07e3cbe38fd847', '77cd1a43184f8871', '3e4df0c02dc8dbeb'),
    ('total-30', 'vi'): (91, '0d07e3cbe38fd847', '77cd1a43184f8871', '4455dcc78fce732e'),
    ('total-300', 'howard'): (3, 'f0fc8ae83bae7a44', '90b9a47db618d542', '0f0d53e60e0d1e17'),
    ('total-400-sparse', 'howard'): (4, '003f23036a498f68', '812d7691d159a380', 'a5238b8bdd8674c2'),
}

#: instance -> (lifetime policies evaluated, mu, K or K*)
LIFETIME_PINS = {
    'average-12': (4, 'c396a5da64d49aab', 44.15247880462185),
    'average-30': (1, 'e4448d52aea8a3aa', 10.000000000000009),
    'average-300-sparse': (6, 'f572840869b52c74', 29075.24709473321),
    'average-600-sparse': (1, '83110c6044cee285', 10.0),
    'total-12': (3, 'fcfb904029c580fd', 6.239165455951462),
    'total-30': (3, '8bf81ba1336e44b1', 7.880510479378469),
    'total-300': (3, 'b5ef7cd42eac21bf', 6.370552527464387),
    'total-400-sparse': (4, '4f934c1642283b2d', 7.417601955276475),
}


@pytest.mark.parametrize("name, method", sorted(SOLVER_PINS))
def test_solver_runs_as_pinned(name, method):
    assert solver_run(name, method) == SOLVER_PINS[name, method]


@pytest.mark.parametrize("name", sorted(LIFETIME_PINS))
def test_lifetime_policy_iteration_runs_as_pinned(name, monkeypatch):
    assert lifetime_run(name, monkeypatch) == LIFETIME_PINS[name]


def test_pins_cover_both_sides_of_the_dense_cap():
    sizes = {name: instance(name).n_states for name in INSTANCES}
    for pins in (SOLVER_PINS, LIFETIME_PINS):
        names = {key[0] if isinstance(key, tuple) else key for key in pins}
        assert min(sizes[name] for name in names) <= _linalg.DENSE_MAX_N
        assert max(sizes[name] for name in names) > _linalg.DENSE_MAX_N
