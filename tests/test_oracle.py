import numpy as np
import pytest

from mdpreduce import (
    GenSpec,
    NonTransientPolicyError,
    StationaryPolicy,
    Stochastic,
    brute_force_average,
    brute_force_total,
    cesaro_check,
    check_ht,
    gen_ht,
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
