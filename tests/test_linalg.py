"""``_linalg._bicgstab`` against scipy's ``bicgstab`` and ``_linalg.try_solve``
against scipy's ``lu_factor`` and ``lu_solve``, bit for bit."""

import warnings

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve
from scipy.sparse.linalg import LinearOperator, bicgstab

from mdpreduce import (
    ActionData,
    GenSpec,
    RateMdp,
    StationaryPolicy,
    Stochastic,
    Substochastic,
    _linalg,
    build_hv,
    build_hvag,
    check_ht,
    gen_ht,
    gen_transient,
    maximize_lifetime,
    truncate_at_state,
)


def scipy_answer(apply, b):
    """scipy's ``(x, info)`` with the settings ``_bicgstab`` repeats."""
    a = LinearOperator((len(b), len(b)), matvec=apply, dtype=float)
    with np.errstate(all="ignore"):
        return bicgstab(a, b, rtol=1e-14, atol=0.0, maxiter=_linalg.KRYLOV_MAXITER)


def same_answer_info(apply, b):
    """scipy's ``info``, after checking that ``_bicgstab`` gives scipy's bits
    where it converges (info 0) and None exactly where it does not."""
    expected, info = scipy_answer(apply, b)
    with np.errstate(all="ignore"):
        got = _linalg._bicgstab(apply, b)
    if info != 0:
        assert got is None
    else:
        assert got is not None and got.tobytes() == expected.tobytes()
    return info


def systems(mdp, beta, rhs, seed, count=8):
    """``count`` seeded policies of ``mdp``: each policy's operator
    v - beta P v and the right-hand sides ``rhs(rows)`` gives for it."""
    table, rng = mdp.packed, np.random.default_rng(seed)
    for _ in range(count):
        phi = StationaryPolicy(tuple(int(rng.integers(mdp.n_actions(x))) for x in range(mdp.n_states)))
        rows = table.rows(phi)
        P = table.R[rows]
        for b in rhs(rows, rng):
            yield (lambda v, P=P: v - beta * (P @ v)), b


@pytest.fixture(scope="module")
def total_dense():
    """The benchmark's total-dense family: n = 300, dense rows."""
    return gen_transient(GenSpec(n_states=300, max_actions=5, density=0.6,
                                 rate_class=Substochastic((0.1, 0.3)), seed=5))


@pytest.fixture(scope="module")
def average_sparse():
    """The benchmark's average-sparse family: n = 600, about 10 targets per
    row, unequal mass into ell = 0."""
    return gen_ht(GenSpec(n_states=600, max_actions=5, density=10 / 600,
                          rate_class=Stochastic(), seed=5), 0, alpha=0.1, alpha_max=0.3)


class TestBicgstabParity:
    @pytest.mark.parametrize("family", ["total_dense", "average_sparse"])
    def test_lifetime_systems(self, request, family):
        mdp = request.getfixturevalue(family)
        if family == "average_sparse":
            mdp = truncate_at_state(mdp, 0)

        def rhs(rows, rng):
            return np.ones(len(rows)), rng.random(len(rows)) + 0.5

        infos = [same_answer_info(apply, b) for apply, b in systems(mdp, 1.0, rhs, seed=1)]
        assert infos == [0] * 16

    @pytest.mark.parametrize("family", ["total_dense", "average_sparse"])
    def test_discounted_systems(self, request, family):
        mdp = request.getfixturevalue(family)
        if family == "average_sparse":
            dmdp = build_hvag(mdp, check_ht(mdp, 0))
        else:
            dmdp = build_hv(mdp, maximize_lifetime(mdp))
        c = dmdp.base.packed.c

        def rhs(rows, rng):
            return c[rows], rng.standard_normal(len(rows))

        infos = [same_answer_info(apply, b)
                 for apply, b in systems(dmdp.base, dmdp.beta, rhs, seed=2)]
        assert infos == [0] * 16

    def test_breakdown_on_the_occupation_measure_system(self, total_dense):
        # 1 is a left eigenvector of I - beta P^T, and the shadow residual is 1
        dmdp = build_hv(total_dense, maximize_lifetime(total_dense))
        P, _ = dmdp.base.packed.policy(StationaryPolicy((0,) * dmdp.n_states))
        PT = P.T.tocsr()

        def apply(v):
            return v - dmdp.beta * (PT @ v)

        assert same_answer_info(apply, np.ones(dmdp.n_states)) < 0

    def test_stall_on_a_slow_cycle(self):
        # the slow cycle of tests/test_transience.py: no convergence in the cap
        rates = np.linspace(0.9, 0.999, 300).tolist()
        mdp = RateMdp(300, tuple((ActionData(1.0, (((x + 1) % 300, rate),)),)
                                 for x, rate in enumerate(rates)))
        P, _ = mdp.packed.policy(StationaryPolicy((0,) * 300))

        def apply(v):
            return v - P @ v

        assert same_answer_info(apply, np.ones(300)) == _linalg.KRYLOV_MAXITER

    def test_zero_right_hand_side_returns_it(self):
        b = np.array([0.0, -0.0, 0.0])
        x = _linalg._bicgstab(lambda v: 2.0 * v, b)
        expected, info = scipy_answer(lambda v: 2.0 * v, b)
        assert info == 0 and x is not b and x.tobytes() == expected.tobytes()


def lu_reference(a, b):
    """``try_solve`` as it was on scipy's ``lu_factor`` and ``lu_solve``."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # lu_factor warns on exact zero pivots
        lu, piv = lu_factor(a, check_finite=False)
    scale = max(float(np.abs(a).sum(axis=1).max()), 1.0)
    if float(np.abs(np.diag(lu)).min()) <= _linalg.PIVOT_RTOL * scale:
        return None
    return lu_solve((lu, piv), b, check_finite=False)


def dense_systems():
    """Seeded dense systems: discounted and lifetime policy systems of
    generated instances, and general matrices."""
    rng = np.random.default_rng(7)
    for seed, n in enumerate((3, 6, 15, 31, 64)):
        spec = dict(seed=seed, n_states=n, max_actions=3, density=0.6)
        mdp = gen_transient(GenSpec(rate_class=Substochastic((0.2, 0.4)), **spec))
        dmdp = build_hv(mdp, maximize_lifetime(mdp))
        for table, beta in ((mdp.packed, 1.0), (dmdp.base.packed, dmdp.beta)):
            for _ in range(5):
                counts = np.diff(table.first)
                rows = table.first[:-1] + rng.integers(counts)
                yield np.eye(len(rows)) - beta * table.R[rows].toarray()
    for n in range(1, 11):
        yield rng.standard_normal((n, n))


class TestRawLapackParity:
    def test_same_bytes_as_the_scipy_wrappers(self):
        rng = np.random.default_rng(3)
        count = 0
        for a in dense_systems():
            n = len(a)
            for b in (rng.standard_normal(n), rng.standard_normal((n, 1)),
                      rng.standard_normal((n, 2))):
                expected, got = lu_reference(a, b), _linalg.try_solve(a, b)
                assert expected is not None and got is not None
                assert got.shape == expected.shape
                assert got.tobytes() == expected.tobytes()
            count += 1
        assert count >= 50

    @pytest.mark.parametrize("scale", [0.0, 0.5, 1 - 1e-9, 1.0, 1 + 1e-9, 2.0])
    def test_singular_exactly_where_the_wrappers_were(self, scale):
        # a last pivot of scale times the floor: exactly on the diagonal one;
        # the other swaps its rows and reaches it by elimination, to within
        # round-off (its row-norm scale is 1.5, its pivot d / 2)
        floor, b = _linalg.PIVOT_RTOL, np.ones(2)
        d = 3.0 * scale * floor
        for a, exact in ((np.diag([1.0, scale * floor]), True),
                         (np.array([[0.5, 0.25], [1.0, 0.5 + d]]), False)):
            expected, got = lu_reference(a, b), _linalg.try_solve(a, b)
            assert (got is None) == (expected is None)
            if exact or abs(scale - 1.0) > 1e-3:
                assert (got is None) == (scale <= 1.0)
            if got is not None:
                assert got.tobytes() == expected.tobytes()

    def test_no_warning_on_an_exactly_singular_matrix(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a in (np.zeros((3, 3)), np.ones((2, 2))):
                assert _linalg.try_solve(a, np.ones(len(a))) is None
                assert lu_reference(a, np.ones(len(a))) is None
