import dataclasses
import re

import numpy as np
import pytest

from mdpreduce import (
    CertificateError,
    DiscountedMdp,
    GenSpec,
    ReductionOrigin,
    StationaryPolicy,
    Substochastic,
    TransienceCertificate,
    brute_force_total,
    build_hv,
    check_discounted,
    classify_rates,
    dumps_discounted,
    enumerate_policies,
    gen_transient,
    howard_pi,
    lift_total_value,
    loads_discounted,
    maximize_lifetime,
    occupation_measure,
    optimal_actions,
    policy_evaluate,
    similarity_transform,
    solve_total_cost,
    total_optimal_actions,
    value_iteration,
)
from mdpreduce._linalg import solve as lu_solve
from mdpreduce.model import RateClass
from mdpreduce.transience import CLAMP_TOL
from conftest import build_mdp


def random_transient(seed, n=4, max_actions=3, kill=(0.25, 0.6)):
    return gen_transient(
        GenSpec(
            n_states=n,
            max_actions=max_actions,
            rate_class=Substochastic(kill_prob_range=kill),
            seed=seed,
        )
    )


def extend(phi, n_extra=1):
    """Extend a policy of the original instance to the augmented one."""
    return StationaryPolicy(tuple(phi) + (0,) * n_extra)


BROKEN_INVARIANTS = {
    "beta above 1": ({"beta": 1.5}, "discount factor 1.5 outside [0, 1)"),
    "beta nan": ({"beta": float("nan")}, "discount factor nan outside [0, 1)"),
    "beta below 0": ({"beta": -0.5}, "discount factor -0.5 outside [0, 1)"),
    "sink out of range": ({"absorbing_state": 2}, "absorbing state 2 out of range"),
    "mu too long": (
        {"origin": ReductionOrigin([2.0, 2.0])}, "origin mu has 2 entries for 1 states"
    ),
    "mu below 1": ({"origin": ReductionOrigin([0.5])}, "origin mu must be finite and at least 1"),
    "ell at the sink": ({"origin": ReductionOrigin([2.0], ell=1)}, "origin state 1 out of range"),
    "row sums to 2": (
        {"base": build_mdp([[(1.0, [(0, 2.0)])], [(0.0, [(1, 1.0)])]])},
        "row (0, a0) sums to 2.0, not 1",
    ),
    "sink with a cost": (
        {"base": build_mdp([[(1.0, [(1, 1.0)])], [(1.0, [(1, 1.0)])]])},
        "absorbing state must have exactly one cost-free action",
    ),
    "sink leaving itself": (
        {"base": build_mdp([[(1.0, [(1, 1.0)])], [(0.0, [(0, 1.0)])]])},
        "absorbing state must transition to itself with probability 1",
    ),
    "reduction's sink not last": (
        {"absorbing_state": 0}, "a reduction's absorbing state must be its last state, 1"
    ),
}


class TestValidByConstruction:
    @pytest.mark.parametrize("broken, message", BROKEN_INVARIANTS.values(), ids=BROKEN_INVARIANTS)
    def test_constructor_and_replace_raise_the_check_message(self, geometric, broken, message):
        dmdp = build_hv(geometric, maximize_lifetime(geometric))
        exact = f"^{re.escape(message)}$"
        with pytest.raises(ValueError, match=exact):
            DiscountedMdp(**{**vars(dmdp), **broken})
        with pytest.raises(ValueError, match=exact):
            dataclasses.replace(dmdp, **broken)


class TestResultTypes:
    def test_compare_and_hash_without_raising(self):
        mdp = random_transient(0)
        dmdp = build_hv(mdp, maximize_lifetime(mdp))
        text = dumps_discounted(dmdp)
        phi = StationaryPolicy((0,) * dmdp.n_states)
        makers = (
            lambda: maximize_lifetime(mdp),
            lambda: howard_pi(dmdp),
            lambda: loads_discounted(text),
            lambda: occupation_measure(dmdp, phi),
        )
        for make in makers:
            x = make()
            assert isinstance(x == make(), bool)
            assert x == x
            hash(x)


class TestBuildHv:
    def test_geometric_hand_evaluation(self, geometric):
        cert = maximize_lifetime(geometric)
        dmdp = build_hv(geometric, cert)
        assert dmdp.beta == 0.5
        assert dmdp.absorbing_state == 1
        act = dmdp.base.actions[0][0]
        assert act.cost == 0.5
        R, row = dmdp.base.packed.R, dmdp.base.packed.row(0, 0)
        assert R[row, 0] == 1.0
        assert R[row, 1] == 0.0

    def test_k_equals_one_sends_all_mass_to_sink(self, mk):
        mdp = mk([[(3.0, []), (1.0, [])], [(2.0, [])]])
        cert = maximize_lifetime(mdp)
        assert cert.K == 1.0
        dmdp = build_hv(mdp, cert)
        assert dmdp.beta == 0.0
        for x in range(2):
            for act in dmdp.base.actions[x]:
                assert act.transitions == ((2, 1.0),)

    def test_beta_below_interval_rejected(self, geometric):
        cert = maximize_lifetime(geometric)
        with pytest.raises(ValueError, match=r"admissible interval \[0.5, 1\)"):
            build_hv(geometric, cert, beta=0.3)

    def test_beta_of_one_rejected(self, geometric):
        cert = maximize_lifetime(geometric)
        with pytest.raises(ValueError):
            build_hv(geometric, cert, beta=1.0)

    def test_nan_beta_rejected_with_the_admissible_interval(self, geometric):
        cert = maximize_lifetime(geometric)
        with pytest.raises(ValueError, match=r"^discount factor nan outside the admissible"):
            build_hv(geometric, cert, beta=float("nan"))

    @pytest.mark.parametrize(
        "mu, K, message",
        [
            ([2.0, 2.0], 2.0, "certificate has 2 entries for 1 states"),
            ([0.5], 2.0, "certificate mu outside [1, K]"),
            ([2.0], 1.5, "certificate mu outside [1, K]"),
        ],
    )
    def test_certificate_that_does_not_fit_rejected(self, geometric, mu, K, message):
        cert = TransienceCertificate(mu=mu, K=K, method="hand")
        with pytest.raises(CertificateError, match=f"^{re.escape(message)}$"):
            build_hv(geometric, cert)

    def test_stale_certificate_rejected(self, geometric, mk):
        other = mk([[(1.0, [(0, 0.9)])]])
        cert = maximize_lifetime(geometric)
        with pytest.raises(CertificateError):
            build_hv(other, cert)

    def test_round_off_negative_sink_mass_is_clamped(self, geometric):
        # mu = 2 - 1e-13 sits just below the exact lifetime 2, so the sink's
        # mass 1 - 0.5 mu / (beta mu) comes out near -5e-14, in the clamp band
        m = 2.0 - 1e-13
        beta = (m - 1.0) / m
        assert -CLAMP_TOL <= 1.0 - 0.5 * m / (beta * m) < 0.0
        dmdp = build_hv(geometric, TransienceCertificate(mu=[m], K=m, method="hand"))
        assert dmdp.base.actions[0][0].transitions == ((0, 1.0),)

    def test_genuinely_negative_sink_mass_raises(self, geometric):
        m = 2.0 - 1e-10
        message = "transformed probability -5.000e-11 at (0, a0) is genuinely negative; "
        with pytest.raises(CertificateError, match=re.escape(message)):
            build_hv(geometric, TransienceCertificate(mu=[m], K=m, method="hand"))

    def test_rows_stochastic_across_beta_grid(self):
        for seed in range(10):
            mdp = random_transient(seed)
            cert = maximize_lifetime(mdp)
            low = (cert.K - 1.0) / cert.K
            for i in range(5):
                beta = low + i * (1.0 - low) / 5.0
                dmdp = build_hv(mdp, cert, beta=beta)
                check_discounted(dmdp)
                assert classify_rates(dmdp.base) is RateClass.STOCHASTIC

    @pytest.mark.parametrize("method", ["howard", "dantzig"])
    def test_lifted_values_invariant_across_beta_grid(self, method):
        # the paper's claim: every beta in [(K - 1)/K, 1) lifts to the
        # same total-cost values
        for seed in range(10):
            mdp = random_transient(seed, n=8)
            default = solve_total_cost(mdp, method=method)
            low = (default.certificate.K - 1.0) / default.certificate.K
            for i in range(5):
                beta = low + i * (1.0 - low) / 5.0
                values = solve_total_cost(mdp, method=method, beta=beta).values
                assert np.max(np.abs(values - default.values)) <= 1e-9, (seed, beta)


class TestLiftTotalValue:
    def test_geometric(self):
        assert lift_total_value([1.0, 0.0], [2.0]).tolist() == [2.0]

    def test_zero_maps_to_zero(self):
        assert lift_total_value([0.0, 0.0, 0.0], [3.0, 7.0]).tolist() == [0.0, 0.0]

    def test_nonzero_sink_value_rejected(self):
        with pytest.raises(ValueError, match="absorbing-state value"):
            lift_total_value([1.0, 0.5], [2.0])


class TestTotalOptimalActions:
    def test_one_step_problem(self, mk):
        mdp = mk([[(1.0, []), (5.0, [])]])
        assert total_optimal_actions(mdp, [1.0], 1e-9) == [(0,)]

    def test_duplicate_actions_tie(self, mk):
        mdp = mk([[(1.0, [(0, 0.5)]), (1.0, [(0, 0.5)])]])
        assert total_optimal_actions(mdp, [2.0], 1e-9) == [(0, 1)]

    def test_empty_set_raises(self, mk):
        mdp = mk([[(1.0, [])]])
        with pytest.raises(ValueError, match="no action within"):
            total_optimal_actions(mdp, [17.0], 1e-9)

    def test_coincides_with_discounted_sets(self):
        # the reduction preserves optimal-action sets state by state
        for seed in range(25):
            mdp = random_transient(seed)
            cert = maximize_lifetime(mdp)
            dmdp = build_hv(mdp, cert)
            report = howard_pi(dmdp)
            total_v = lift_total_value(report.values, cert.mu)
            total_sets = total_optimal_actions(mdp, total_v, 1e-8)
            discounted_sets = optimal_actions(dmdp, report.values, 1e-8)
            assert list(discounted_sets[: mdp.n_states]) == list(total_sets)


class TestPolicyCorrespondence:
    def test_policy_values_scale_by_mu(self):
        # v_phi(x) = mu(x) * dv_phi(x) for every policy
        for seed in range(25):
            mdp = random_transient(seed)
            cert = maximize_lifetime(mdp)
            dmdp = build_hv(mdp, cert)
            n = mdp.n_states
            for phi in enumerate_policies(mdp):
                P, c = mdp.packed.policy(phi)
                v = lu_solve(np.eye(n) - P.toarray(), c)
                dv = policy_evaluate(dmdp, extend(phi))
                assert np.max(np.abs(v - cert.mu * dv[:n])) <= 1e-9

    def test_optimal_value_unique_across_starts(self, mk):
        mdp = random_transient(7)
        cert = maximize_lifetime(mdp)
        dmdp = build_hv(mdp, cert)
        tol = 1e-10
        from_zero = value_iteration(dmdp, tol=tol)
        from_high = value_iteration(dmdp, tol=tol, v0=np.full(dmdp.n_states, 100.0))
        assert np.max(np.abs(from_zero.values - from_high.values)) <= 2 * tol

    def test_total_cost_equation_has_unique_bounded_solution(self):
        # iterating v -> min_a [c + Q v] directly on the rates converges to
        # the same fixed point from any bounded start (transience makes the
        # operator a weighted-norm contraction)
        def total_bellman(mdp, v):
            out = np.empty(mdp.n_states)
            for x, acts in enumerate(mdp.actions):
                out[x] = min(
                    act.cost + sum(r * v[y] for y, r in act.transitions)
                    for act in acts
                )
            return out

        for seed in range(5):
            mdp = random_transient(seed)
            limits = []
            for start in (0.0, 100.0, -40.0):
                v = np.full(mdp.n_states, start)
                for _ in range(3000):
                    nxt = total_bellman(mdp, v)
                    if np.max(np.abs(nxt - v)) < 1e-13:
                        v = nxt
                        break
                    v = nxt
                limits.append(v)
            for v in limits[1:]:
                assert np.max(np.abs(v - limits[0])) <= 1e-8
            # and the common fixed point is the pipeline's lifted value
            cert = maximize_lifetime(mdp)
            report = howard_pi(build_hv(mdp, cert))
            lifted = lift_total_value(report.values, cert.mu)
            assert np.max(np.abs(limits[0] - lifted)) <= 1e-8


class TestSimilarityTransform:
    def test_identity_vector(self, geometric):
        assert similarity_transform(geometric, [1.0]) == geometric

    def test_self_loops_fixed_by_diagonal_similarity(self, mk):
        mdp = mk([[(1.0, [(0, 0.5)])]])
        out = similarity_transform(mdp, [2.0])
        assert out.actions[0][0].cost == 2.0
        assert out.actions[0][0].transitions == ((0, 0.5),)

    def test_nonpositive_vector_rejected(self, geometric):
        with pytest.raises(ValueError, match="positive"):
            similarity_transform(geometric, [0.0])

    @pytest.mark.parametrize("entry", [float("nan"), float("inf")])
    def test_non_finite_vector_is_blamed_not_the_instance(self, geometric, entry):
        # NaN passes a b <= 0 test, and inf makes a NaN rate out of 0.5 inf / inf
        with pytest.raises(ValueError, match="^similarity vector must be entrywise finite and positive$"):
            similarity_transform(geometric, [entry])

    def test_inverse_mu_contracts_row_sums(self):
        for seed in range(10):
            mdp = random_transient(seed)
            cert = maximize_lifetime(mdp)
            bound = (cert.K - 1.0) / cert.K
            out = similarity_transform(mdp, 1.0 / cert.mu)
            for acts in out.actions:
                for act in acts:
                    assert act.row_sum() <= bound + 1e-12

    def test_optimal_policy_set_invariant(self):
        rng = np.random.default_rng(42)
        mdp = random_transient(11, n=3, max_actions=2)
        baseline = set(brute_force_total(mdp).optimal_policies)
        for _ in range(10):
            b = rng.uniform(0.1, 10.0, size=mdp.n_states)
            transformed = similarity_transform(mdp, b)
            assert set(brute_force_total(transformed).optimal_policies) == baseline


class TestDiscountedSerialization:
    def test_round_trip_with_origin(self, geometric):
        cert = maximize_lifetime(geometric)
        dmdp = build_hv(geometric, cert)
        again = loads_discounted(dumps_discounted(dmdp))
        assert again.beta == dmdp.beta
        assert again.absorbing_state == dmdp.absorbing_state
        assert again.base == dmdp.base
        assert np.array_equal(again.origin.mu, dmdp.origin.mu)

    def test_labeled_instance_gets_sink_label(self, mk):
        mdp = mk([[(1.0, [(0, 0.5)])]], labels=("only",))
        cert = maximize_lifetime(mdp)
        dmdp = build_hv(mdp, cert)
        assert dmdp.base.state_labels == ("only", "sink")

    def test_header_required(self):
        with pytest.raises(Exception, match="discounted"):
            loads_discounted('{"states": 1, "actions": [[{"cost": 0, "transitions": []}]]}')
