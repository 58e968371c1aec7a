import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdpreduce import (
    ActionData,
    GenSpec,
    NonTransientPolicyError,
    RateMdp,
    SingularSystemError,
    StationaryPolicy,
    Stochastic,
    Substochastic,
    brute_force_average,
    brute_force_total,
    cesaro_check,
    check_ht,
    gen_ht,
    gen_transient,
    similarity_transform,
    solve_average_cost,
    solve_total_cost,
    stationary_distribution,
)


class TestBruteForceTotal:
    def test_single_policy(self, geometric):
        result = brute_force_total(geometric)
        assert result.optimal_value == pytest.approx([2.0], abs=1e-12)
        assert result.optimal_policies == (StationaryPolicy((0,)),)

    def test_one_step_choice(self, mk):
        result = brute_force_total(mk([[(1.0, []), (5.0, [])]]))
        assert result.optimal_value.tolist() == [1.0]
        assert result.optimal_policies == (StationaryPolicy((0,)),)

    def test_shorter_lifetime_wins_at_equal_cost(self, mk):
        mdp = mk([[(1.0, [(0, 0.5)]), (1.0, [(0, 0.9)])]])
        result = brute_force_total(mdp)
        assert result.optimal_value == pytest.approx([2.0], abs=1e-12)
        assert result.optimal_policies == (StationaryPolicy((0,)),)
        assert result.per_policy_values[StationaryPolicy((1,))] == pytest.approx(
            [10.0], abs=1e-9
        )

    def test_non_transient_policy_is_a_hard_error(self, mk):
        mdp = mk([[(1.0, [(0, 0.5)]), (1.0, [(0, 1.0)])]])
        with pytest.raises(NonTransientPolicyError):
            brute_force_total(mdp)

    def test_caps_enforced(self, mk):
        wide = mk([[(0.0, [])] * 4])
        with pytest.raises(ValueError, match="actions at one state exceed"):
            brute_force_total(wide)
        tall = mk([[(0.0, [])] for _ in range(7)])
        with pytest.raises(ValueError, match="states exceed"):
            brute_force_total(tall)

    def test_every_listed_policy_attains_the_optimum(self, mk):
        # duplicate action: two optimal policies
        mdp = mk([[(1.0, []), (1.0, [])]])
        result = brute_force_total(mdp)
        assert len(result.optimal_policies) == 2
        for phi in result.optimal_policies:
            assert np.all(
                result.per_policy_values[phi] <= result.optimal_value + 1e-10
            )


class TestBruteForceAverage:
    def test_cycle(self, two_cycle):
        result = brute_force_average(two_cycle, 0)
        assert result.optimal_value == pytest.approx([1.0, 1.0], abs=1e-12)

    def test_constant_costs(self, mk):
        kappa = 4.5
        mdp = mk(
            [
                [(kappa, [(0, 0.5), (1, 0.5)]), (kappa, [(1, 1.0)])],
                [(kappa, [(0, 1.0)])],
            ]
        )
        result = brute_force_average(mdp, 0)
        assert result.optimal_value == pytest.approx([kappa, kappa], abs=1e-12)
        assert len(result.optimal_policies) == 2

    def test_single_state_self_loop(self, mk):
        result = brute_force_average(mk([[(7.0, [(0, 1.0)])]]), 0)
        assert result.optimal_value.tolist() == [7.0]

    def test_two_recurrent_classes_are_named(self, mk):
        mdp = mk([[(1.0, [(0, 1.0)])], [(2.0, [(1, 1.0)])]])
        with pytest.raises(SingularSystemError, match=r"policy \(0, 0\): the chain is not unichain$"):
            stationary_distribution(mdp, StationaryPolicy((0, 0)))

    def test_requires_stochastic(self, geometric):
        with pytest.raises(ValueError, match="stochastic"):
            brute_force_average(geometric, 0)


class TestCesaroCheck:
    def test_n_one_returns_costs(self, two_cycle):
        assert cesaro_check(two_cycle, StationaryPolicy((0, 0)), 1).tolist() == [0.0, 2.0]

    def test_cycle_partial_average(self, two_cycle):
        average = cesaro_check(two_cycle, StationaryPolicy((0, 0)), 1000)
        assert np.all(np.abs(average - 1.0) <= 2.0 / 1000.0)

    def test_constant_costs_exact_for_all_n(self, mk):
        mdp = mk([[(3.0, [(1, 1.0)])], [(3.0, [(0, 1.0)])]])
        for N in (1, 10, 137):
            assert cesaro_check(mdp, StationaryPolicy((0, 0)), N) == pytest.approx(
                [3.0, 3.0], abs=1e-12
            )

    def test_converges_at_rate_one_over_n(self):
        # the partial average differs from pi.c by at most 2 max|h| / N,
        # and |h| <= 2 K*^2 max|c| under the hitting-time bound
        spec = GenSpec(n_states=4, max_actions=2, rate_class=Stochastic(), seed=9)
        mdp = gen_ht(spec, 0, alpha=0.25)
        cert = check_ht(mdp, 0)
        max_cost = max(abs(a.cost) for acts in mdp.actions for a in acts)
        constant = 4.0 * cert.K_star**2 * max_cost
        phi = StationaryPolicy((0,) * 4)
        w = float(stationary_distribution(mdp, phi) @ mdp.packed.policy(phi)[1])
        for N in (100, 1000, 10_000):
            err = float(np.max(np.abs(cesaro_check(mdp, phi, N) - w)))
            assert err <= constant / N


@st.composite
def oracle_cases(draw, rate_class):
    """A GenSpec the oracle can enumerate, a permutation of its states and
    a state ``ell``."""
    n = draw(st.integers(1, 6))
    spec = GenSpec(
        n_states=n,
        max_actions=draw(st.integers(1, 3)),
        rate_class=rate_class,
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return spec, np.array(draw(st.permutations(range(n)))), draw(st.integers(0, n - 1))


def relabel(mdp, perm):
    """The instance with each state x renamed perm[x]."""
    actions = [None] * mdp.n_states
    for x, acts in enumerate(mdp.actions):
        actions[perm[x]] = tuple(
            ActionData(act.cost, tuple((int(perm[y]), r) for y, r in act.transitions))
            for act in acts
        )
    return RateMdp(mdp.n_states, tuple(actions))


class TestSolversMatchTheOracle:
    @settings(max_examples=25, deadline=None)
    @given(oracle_cases(Substochastic((0.25, 0.6))))
    def test_total_cost_values_and_relabelling(self, case):
        spec, perm, _ = case
        mdp = gen_transient(spec)
        truth = brute_force_total(mdp).optimal_value
        twin = relabel(mdp, perm)
        for method in ("vi", "howard", "dantzig"):
            v = solve_total_cost(mdp, method=method).values
            assert np.max(np.abs(v - truth)) <= 1e-9
            assert np.max(np.abs(solve_total_cost(twin, method=method).values[perm] - v)) <= 1e-9

    @settings(max_examples=25, deadline=None)
    @given(oracle_cases(Stochastic()))
    def test_average_cost_w_and_relabelling(self, case):
        spec, perm, ell = case
        mdp = gen_ht(spec, ell)
        w = brute_force_average(mdp, ell).optimal_value[0]
        twin = relabel(mdp, perm)
        for method in ("vi", "howard", "dantzig"):
            sol = solve_average_cost(mdp, ell, method=method).solution
            assert abs(sol.w - w) <= 1e-9
            moved = solve_average_cost(twin, int(perm[ell]), method=method).solution
            assert abs(moved.w - sol.w) <= 1e-9
            assert np.max(np.abs(moved.h[perm] - sol.h)) <= 1e-9


def rebuilt(mdp, scale=1.0, extra=None):
    """The instance with every cost multiplied by ``scale`` and, if
    ``extra = (x, a, d)``, a copy of action a appended at state x with its
    cost raised by d."""
    actions = []
    for x, acts in enumerate(mdp.actions):
        row = [ActionData(scale * act.cost, act.transitions) for act in acts]
        if extra is not None and extra[0] == x:
            _, a, d = extra
            row.append(ActionData(row[a].cost + d, row[a].transitions))
        actions.append(tuple(row))
    return RateMdp(mdp.n_states, tuple(actions))


def dominated_copy(draw, mdp):
    """Draw (x, a, d): copy action a of state x at a cost d > 0 higher."""
    x = draw(st.integers(0, mdp.n_states - 1))
    a = draw(st.integers(0, len(mdp.actions[x]) - 1))
    return x, a, draw(st.floats(0.01, 1.0))


SCALES = st.floats(0.01, 100.0)


class TestSolverInvariances:
    """Each solver's answer scales with the costs, ignores an inserted
    dominated action, and follows a positive diagonal similarity (n <= 6,
    A <= 3)."""

    @settings(max_examples=25, deadline=None)
    @given(oracle_cases(Substochastic((0.25, 0.6))), SCALES, st.data())
    def test_total_cost(self, case, s, data):
        mdp = gen_transient(case[0])
        scaled = rebuilt(mdp, scale=s)
        padded = rebuilt(mdp, extra=dominated_copy(data.draw, mdp))
        for method in ("vi", "howard", "dantzig"):
            sol = solve_total_cost(mdp, method=method)
            other = solve_total_cost(scaled, method=method)
            assert np.max(np.abs(other.values - s * sol.values)) <= 1e-9 * max(1.0, s)
            assert other.optimal_actions == sol.optimal_actions
            other = solve_total_cost(padded, method=method)
            assert np.max(np.abs(other.values - sol.values)) <= 1e-9
            assert other.optimal_actions == sol.optimal_actions

    @settings(max_examples=25, deadline=None)
    @given(oracle_cases(Substochastic((0.25, 0.6))), st.data())
    def test_total_cost_under_similarity(self, case, data):
        # c' = b(x) c and q' = b(x) q / b(y) turn v = c + Q v into v' = b v
        mdp = gen_transient(case[0])
        n = mdp.n_states
        b = np.array(data.draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n)))
        similar = similarity_transform(mdp, b)
        for method in ("howard", "dantzig"):
            sol = solve_total_cost(mdp, method=method)
            other = solve_total_cost(similar, method=method)
            assert np.max(np.abs(other.values - b * sol.values)) <= 1e-9 * max(1.0, b.max())
            assert other.optimal_actions == sol.optimal_actions

    @settings(max_examples=25, deadline=None)
    @given(oracle_cases(Stochastic()), SCALES, st.data())
    def test_average_cost(self, case, s, data):
        spec, _, ell = case
        mdp = gen_ht(spec, ell)
        scaled = rebuilt(mdp, scale=s)
        padded = rebuilt(mdp, extra=dominated_copy(data.draw, mdp))
        for method in ("vi", "howard", "dantzig"):
            sol = solve_average_cost(mdp, ell, method=method)
            other = solve_average_cost(scaled, ell, method=method)
            assert abs(other.solution.w - s * sol.solution.w) <= 1e-9 * max(1.0, s)
            assert np.max(np.abs(other.solution.h - s * sol.solution.h)) <= 1e-9 * max(1.0, s)
            assert other.acoe.optimal_actions == sol.acoe.optimal_actions
            other = solve_average_cost(padded, ell, method=method)
            assert abs(other.solution.w - sol.solution.w) <= 1e-9
            assert np.max(np.abs(other.solution.h - sol.solution.h)) <= 1e-9
            assert other.acoe.optimal_actions == sol.acoe.optimal_actions
