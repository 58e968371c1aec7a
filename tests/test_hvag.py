import dataclasses

import numpy as np
import pytest

from mdpreduce import (
    AcoeResidualError,
    AverageSolution,
    GenSpec,
    HtCertificate,
    NumericalError,
    StationaryPolicy,
    Stochastic,
    Substochastic,
    brute_force_average,
    build_hvag,
    check_discounted,
    check_ht,
    enumerate_policies,
    extract_average_solution,
    gen_ht,
    gen_transient,
    howard_pi,
    lemma2_identity,
    policy_evaluate,
    solve_average_cost,
    stationary_distribution,
    verify_acoe,
)
from mdpreduce import dump_instance, solve
from mdpreduce.cli import main

from conftest import build_mdp


def random_ht(seed, n=4, max_actions=3, alpha=0.25, ell=0):
    spec = GenSpec(n_states=n, max_actions=max_actions, rate_class=Stochastic(), seed=seed)
    return gen_ht(spec, ell, alpha=alpha)


def extend(phi):
    return StationaryPolicy(tuple(phi) + (0,))


def policy_h(mdp, cert, dmdp, phi):
    """h_phi(x) = mu(x) [dv_phi(x) - dv_phi(ell)] for one policy."""
    dv = policy_evaluate(dmdp, extend(phi))
    return dv, cert.mu * (dv[: mdp.n_states] - dv[cert.ell])


class TestBuildHvag:
    def test_cycle_hand_evaluation(self, two_cycle):
        cert = check_ht(two_cycle, 0)
        dmdp = build_hvag(two_cycle, cert)
        assert dmdp.beta == 0.5
        a0 = dmdp.base.actions[0][0]
        a1 = dmdp.base.actions[1][0]
        assert a0.cost == 0.0 and a1.cost == 2.0
        R, r0, r1 = dmdp.base.packed.R, dmdp.base.packed.row(0, 0), dmdp.base.packed.row(1, 0)
        assert R[r0, 1] == 1.0 and R[r0, 0] == 0.0 and R[r0, 2] == 0.0
        assert R[r1, 0] == 0.0 and R[r1, 2] == 1.0
        check_discounted(dmdp)

    def test_ross_special_case(self):
        # when every action carries probability >= alpha into ell, the
        # constant certificate mu = 1/alpha reproduces the classical
        # transformation p'(y|x,a) = (q(y|x,a) - alpha 1{y=ell}) / (1-alpha)
        # with costs scaled by alpha
        alpha = 0.4
        mdp = random_ht(5, alpha=alpha)
        n, ell = mdp.n_states, 0
        cert = HtCertificate(ell=ell, K_star=1.0 / alpha, mu=np.full(n, 1.0 / alpha))
        dmdp = build_hvag(mdp, cert)
        assert dmdp.beta == pytest.approx(1.0 - alpha, abs=1e-15)
        R, dR = mdp.packed.R, dmdp.base.packed.R
        for x, acts in enumerate(mdp.actions):
            for a, act in enumerate(acts):
                r, dr = mdp.packed.row(x, a), dmdp.base.packed.row(x, a)
                new = dmdp.base.actions[x][a]
                assert new.cost == pytest.approx(alpha * act.cost, abs=1e-15)
                for y in range(n):
                    expected = R[r, y] - (alpha if y == ell else 0.0)
                    expected /= 1.0 - alpha
                    assert dR[dr, y] == pytest.approx(expected, abs=1e-12)
                assert dR[dr, n] == pytest.approx(0.0, abs=1e-12)

    def test_k_star_one_sends_all_mass_to_sink(self, mk):
        # every action jumps straight to ell = 0
        mdp = mk([[(1.0, [(0, 1.0)]), (4.0, [(0, 1.0)])], [(2.0, [(0, 1.0)])]])
        cert = check_ht(mdp, 0)
        assert cert.K_star == 1.0
        dmdp = build_hvag(mdp, cert)
        assert dmdp.beta == 0.0
        for x in range(2):
            for act in dmdp.base.actions[x]:
                assert act.transitions == ((2, 1.0),)

    def test_beta_range_enforced(self, two_cycle):
        cert = check_ht(two_cycle, 0)
        with pytest.raises(ValueError, match="admissible interval"):
            build_hvag(two_cycle, cert, beta=0.25)

    def test_rows_stochastic_on_random_instances(self):
        from mdpreduce import classify_rates
        from mdpreduce.model import RateClass

        for seed in range(10):
            mdp = random_ht(seed)
            cert = check_ht(mdp, 0)
            dmdp = build_hvag(mdp, cert)
            check_discounted(dmdp)
            assert classify_rates(dmdp.base) is RateClass.STOCHASTIC


class TestExtractAverageSolution:
    def test_cycle_solution(self, two_cycle):
        cert = check_ht(two_cycle, 0)
        solution = extract_average_solution([1.0, 2.0, 0.0], cert)
        assert solution.w == 1.0
        # h(x) = mu(x) (dv(x) - dv(ell)) = (0, 1) here; the alternating
        # 0,2 cycle averages to w = 1 and the relative value of state 1
        # is one step of cost ahead
        assert solution.h.tolist() == [0.0, 1.0]
        assert solution.h[cert.ell] == 0.0

    def test_constant_costs_flat_solution(self, mk):
        kappa = 3.25
        mdp = mk([[(kappa, [(1, 1.0)])], [(kappa, [(0, 1.0)])]])
        cert = check_ht(mdp, 0)
        dmdp = build_hvag(mdp, cert)
        report = howard_pi(dmdp)
        solution = extract_average_solution(report.values, cert)
        assert solution.w == pytest.approx(kappa, abs=1e-12)
        assert np.max(np.abs(solution.h)) <= 1e-12

    def test_nonzero_sink_value_rejected(self, two_cycle):
        cert = check_ht(two_cycle, 0)
        with pytest.raises(ValueError, match="absorbing-state value"):
            extract_average_solution([1.0, 2.0, 0.1], cert)


class TestVerifyAcoe:
    def test_cycle_zero_residual(self, two_cycle):
        solution = AverageSolution(w=1.0, h=[0.0, 1.0], ell=0)
        report = verify_acoe(two_cycle, solution, tol=1e-9)
        assert report.max_residual == 0.0
        assert report.optimal_actions == ((0,), (0,))

    def test_single_state_flat(self, mk):
        mdp = mk([[(2.0, [(0, 1.0)]), (5.0, [(0, 1.0)])]])
        solution = AverageSolution(w=2.0, h=[0.0], ell=0)
        report = verify_acoe(mdp, solution, tol=1e-9)
        assert report.max_residual == 0.0

    def test_perturbed_h_reports_its_residual(self, two_cycle):
        solution = AverageSolution(w=1.0, h=[0.0, 1.1], ell=0)
        with pytest.raises(AcoeResidualError) as exc_info:
            verify_acoe(two_cycle, solution, tol=1e-9, cross_check=False)
        assert exc_info.value.max_residual == pytest.approx(0.1, abs=1e-12)

    def test_nan_in_h_is_a_residual_error(self, two_cycle):
        solution = AverageSolution(w=1.0, h=[0.0, float("nan")], ell=0)
        with pytest.raises(AcoeResidualError):
            verify_acoe(two_cycle, solution, tol=1e-9)

    def test_a_state_that_is_no_longer_reached_is_named(self, mk):
        # (w, h) = (1, 0) solves the ACOE, but state 1 never reaches ell = 0
        mdp = mk([[(1.0, [(0, 1.0)])], [(1.0, [(1, 1.0)])]])
        solution = AverageSolution(w=1.0, h=[0.0, 0.0], ell=0)
        assert verify_acoe(mdp, solution, tol=1e-9, cross_check=False).max_residual == 0.0
        with pytest.raises(ValueError, match="^bounded hitting time to state 0 no longer certifiable$"):
            verify_acoe(mdp, solution, tol=1e-9)

    def test_requires_stochastic_rates(self, geometric):
        solution = AverageSolution(w=0.0, h=[0.0], ell=0)
        with pytest.raises(ValueError, match="stochastic"):
            verify_acoe(geometric, solution, tol=1e-9)


def recorded_cross_check(monkeypatch, mdp, solution, tol):
    """verify_acoe's report and the Howard runs inside it, each as its
    starting policy and its report."""
    runs = []
    howard = solve.howard_pi

    def recorded(dmdp, phi0=None):
        runs.append((phi0, howard(dmdp, phi0=phi0)))
        return runs[-1][1]

    with monkeypatch.context() as m:
        m.setattr(solve, "howard_pi", recorded)
        return verify_acoe(mdp, solution, tol), runs


def sparse_ht(seed, alpha_max=None):
    # seed 7 without alpha_max is test_pinned_runs' average-600-sparse
    spec = GenSpec(600, 4, Stochastic(), density=10 / 600, seed=seed)
    return gen_ht(spec, ell=0, alpha=0.1, alpha_max=alpha_max)


def tie_at_state_1(*costs):
    """ell = 0 leads to state 1, whose actions, one per cost, return to 0
    with probability 1/2; mu = (3, 2)."""
    return build_mdp(
        [
            [(0.0, [(1, 1.0)])],
            [(c, [(0, 0.5), (1, 0.5)]) for c in costs],
        ]
    )


class TestCrossCheck:
    @pytest.mark.parametrize(
        "seed, alpha_max", [(7, None), (31, 0.3)], ids=["average-600-sparse", "alpha-max"]
    )
    def test_the_rerun_stops_after_one_evaluation(self, monkeypatch, seed, alpha_max):
        mdp = sparse_ht(seed, alpha_max)
        cert = check_ht(mdp, 0)
        solution = extract_average_solution(howard_pi(build_hvag(mdp, cert)).values, cert)
        acoe, runs = recorded_cross_check(monkeypatch, mdp, solution, 1e-9)
        assert [report.iterations for _, report in runs] == [1]
        bare = verify_acoe(mdp, solution, 1e-9, cross_check=False)
        assert acoe.max_residual == bare.max_residual
        assert np.array_equal(acoe.residuals, bare.residuals)
        assert acoe.optimal_actions == bare.optimal_actions

    def test_the_rerun_starts_at_the_lowest_index_optimal_action(self, monkeypatch):
        # (w, h) = (4/3, (0, 4/3)) is exact.  Actions 1 and 2 at state 1 lie
        # within tol; 1 costs more, so Howard goes on from it to 2
        mdp = tie_at_state_1(3.0, 2.0 + 5e-4, 2.0)
        solution = AverageSolution(w=4.0 / 3.0, h=[0.0, 4.0 / 3.0], ell=0)
        acoe, runs = recorded_cross_check(monkeypatch, mdp, solution, 1e-3)
        assert acoe.optimal_actions == ((0,), (1, 2))
        [(start, report)] = runs
        assert tuple(start) == (0, 1, 0)
        assert report.iterations == 2
        assert tuple(report.policy) == (0, 2, 0)
        cold = howard_pi(build_hvag(mdp, check_ht(mdp, 0)))
        assert np.array_equal(report.values, cold.values)

    def test_disagreeing_sets_raise(self):
        # both actions at state 1 are exactly optimal: w = 4, h = (0, 4).
        # With w and h(1) both low by 6e-4 their ACOE gaps are -9e-4 and
        # -1.2e-3: the residual stays within tol = 1e-3, but action 1 leaves
        # the ACOE set, not the reduction's
        mdp = build_mdp([[(0.0, [(1, 1.0)])], [(6.0, [(0, 0.5), (1, 0.5)]), (8.0, [(0, 1.0)])]])
        low = 4.0 - 6e-4
        solution = AverageSolution(w=low, h=[0.0, low], ell=0)
        bare = verify_acoe(mdp, solution, tol=1e-3, cross_check=False)
        assert bare.max_residual <= 1e-3
        assert bare.optimal_actions == ((0,), (0,))
        with pytest.raises(NumericalError, match=r"\[\(0,\), \(0,\)\] vs \[\(0,\), \(0, 1\)\]"):
            verify_acoe(mdp, solution, tol=1e-3)

    def test_the_cli_reports_a_disagreement_as_an_error(self, monkeypatch, capsys, tmp_path):
        # a re-run that claims an error bound of 1 puts both actions at
        # state 1 in the reduction's set; action 1 (ACOE gap 5e-4) is not in
        # the ACOE set.  Value iteration solves, so only the re-run is Howard
        path = str(tmp_path / "a.json")
        dump_instance(tie_at_state_1(2.0, 2.0 + 5e-4), path)
        howard = solve.howard_pi
        monkeypatch.setattr(
            solve, "howard_pi",
            lambda dmdp, phi0=None: dataclasses.replace(howard(dmdp, phi0), error_bound=1.0),
        )
        code = main(["solve-average", path, "--state", "0", "--method", "vi", "--tol", "1e-8"])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err.startswith("error: ACOE optimal-action sets disagree with the discounted ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("seed", [5, 7, 15, 38])
    def test_value_iteration_sets_contain_the_exact_ones(self, seed):
        # at tol 1e-2 the ACOE sets of value iteration hold every exactly
        # optimal action and no certainly suboptimal one: an action in them
        # has a gap within its row's cut at VI's (w, h), and the exact gap
        # lies within that cut's bound of it, so within twice the cut
        mdp = gen_ht(GenSpec(20, 3, seed=seed), ell=0)
        vi = solve_average_cost(mdp, 0, method="vi", tol=1e-2)
        exact = solve_average_cost(mdp, 0)
        inexact = vi.acoe.optimal_actions
        assert all(
            set(e) <= set(i) for e, i in zip(exact.acoe.optimal_actions, inexact, strict=True)
        )
        table, sol = mdp.packed, vi.solution
        bound = vi.certificate.mu * (1.0 + vi.discounted.beta) * vi.report.error_bound
        cut = table.cut(sol.w + sol.h, sol.h, 1.0, bound)
        w, h = exact.solution.w, exact.solution.h
        rows = [table.first[x] + a for x, members in enumerate(inexact) for a in members]
        assert np.all(np.abs(table.gap(w + h, h)[rows]) <= 2.0 * cut[rows])

    @pytest.mark.parametrize("delta", [0.0, 0.5e-9, 1.5e-9, 2.5e-9])
    def test_the_sets_are_compared_at_the_acoe_scale(self, delta):
        # the discounted gap of action 1 at state 1 is delta / mu(1) =
        # delta / 2.  The certified cut is round-off here, so every delta > 0
        # marks action 1 suboptimal in both sets, and the exact tie keeps it
        # in both; compared unscaled at 1e-9, 1.5e-9 put it in the
        # reduction's set only, and a valid instance raised
        result = solve_average_cost(tie_at_state_1(2.0, 2.0 + delta), 0)
        assert result.certificate.mu.tolist() == [3.0, 2.0]
        expected = ((0,), (0, 1)) if delta == 0.0 else ((0,), (0,))
        assert result.acoe.optimal_actions == expected


class TestLemma2Identity:
    def test_zero_function_reduces_to_scaled_cost(self, two_cycle):
        cert = check_ht(two_cycle, 0)
        dmdp = build_hvag(two_cycle, cert)
        lhs, rhs = lemma2_identity(two_cycle, cert, dmdp, [0.0, 0.0, 0.0], 1, 0)
        assert lhs == rhs == 2.0 / cert.mu[1]

    def test_cycle_hand_value(self, two_cycle):
        cert = check_ht(two_cycle, 0)
        dmdp = build_hvag(two_cycle, cert)
        lhs, rhs = lemma2_identity(two_cycle, cert, dmdp, [0.0, 1.0, 0.0], 0, 0)
        assert lhs == pytest.approx(0.5, abs=1e-12)
        assert abs(lhs - rhs) <= 1e-12

    def test_random_functions_agree(self):
        rng = np.random.default_rng(0)
        trials = 0
        while trials < 200:
            mdp = random_ht(int(rng.integers(0, 50)))
            cert = check_ht(mdp, 0)
            dmdp = build_hvag(mdp, cert)
            f = rng.uniform(-1.0, 1.0, size=mdp.n_states + 1)
            f[-1] = 0.0
            x = int(rng.integers(0, mdp.n_states))
            a = int(rng.integers(0, mdp.n_actions(x)))
            lhs, rhs = lemma2_identity(mdp, cert, dmdp, f, x, a)
            assert abs(lhs - rhs) <= 1e-10
            trials += 1

    def test_nonzero_sink_value_rejected(self, two_cycle):
        cert = check_ht(two_cycle, 0)
        dmdp = build_hvag(two_cycle, cert)
        with pytest.raises(ValueError, match="vanish"):
            lemma2_identity(two_cycle, cert, dmdp, [0.0, 0.0, 0.5], 0, 0)


class TestPolicyCorrespondence:
    def test_one_step_identity_for_general_rates(self):
        # the per-policy equation dv(ell) + h(x) = c_phi(x) + sum q h
        # holds for arbitrary rates, not just probabilities
        for seed in range(10):
            mdp = gen_transient(
                GenSpec(
                    n_states=4,
                    max_actions=2,
                    rate_class=Substochastic(kill_prob_range=(0.25, 0.5)),
                    seed=seed,
                )
            )
            cert = check_ht(mdp, 0)
            assert isinstance(cert, HtCertificate)
            dmdp = build_hvag(mdp, cert)
            for phi in enumerate_policies(mdp):
                dv, h = policy_h(mdp, cert, dmdp, phi)
                P, c = mdp.packed.policy(phi)
                residual = dv[cert.ell] + h - (c + P @ h)
                assert np.max(np.abs(residual)) <= 1e-9

    def test_average_cost_equals_discounted_value_at_ell(self):
        # stochastic case: the stationary-distribution average cost of
        # every policy equals its discounted value at ell
        for seed in range(10):
            mdp = random_ht(seed)
            cert = check_ht(mdp, 0)
            dmdp = build_hvag(mdp, cert)
            for phi in enumerate_policies(mdp):
                dv = policy_evaluate(dmdp, extend(phi))
                pi = stationary_distribution(mdp, phi)
                w = float(pi @ mdp.packed.policy(phi)[1])
                assert abs(w - dv[cert.ell]) <= 1e-8


class TestOptimalExtraction:
    @pytest.mark.parametrize("method", ["howard", "dantzig"])
    def test_solution_invariant_across_beta_grid(self, method):
        # the paper's claim: every beta in [(K* - 1)/K*, 1) gives the same
        # average cost w and relative values h
        for seed in range(10):
            mdp = random_ht(seed, n=8)
            default = solve_average_cost(mdp, 0, method=method)
            low = (default.certificate.K_star - 1.0) / default.certificate.K_star
            for i in range(5):
                beta = low + i * (1.0 - low) / 5.0
                solution = solve_average_cost(mdp, 0, method=method, beta=beta).solution
                assert abs(solution.w - default.solution.w) <= 1e-9, (seed, beta)
                assert np.max(np.abs(solution.h - default.solution.h)) <= 1e-9, (seed, beta)

    def test_extracted_solution_passes_acoe_and_matches_oracle(self):
        for seed in range(10):
            mdp = random_ht(seed)
            cert = check_ht(mdp, 0)
            dmdp = build_hvag(mdp, cert)
            report = howard_pi(dmdp)
            solution = extract_average_solution(report.values, cert)
            acoe = verify_acoe(mdp, solution, tol=1e-9)
            assert acoe.max_residual <= 1e-9
            oracle = brute_force_average(mdp, 0)
            assert solution.w == pytest.approx(float(oracle.optimal_value[0]), abs=1e-8)
