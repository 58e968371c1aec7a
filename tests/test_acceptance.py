"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines stream.
The two instance corpora (200 seeded transient instances, 200 seeded
bounded-hitting-time instances) are built once and shared.
"""

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import pytest

from mdpreduce import (
    GenSpec,
    HtCertificate,
    StationaryPolicy,
    Stochastic,
    Substochastic,
    TransienceCertificate,
    brute_force_average,
    brute_force_total,
    build_hv,
    build_hvag,
    check_discounted,
    check_ht,
    dantzig_pi,
    emit_lp,
    enumerate_policies,
    extract_average_solution,
    gen_ht,
    gen_transient,
    howard_pi,
    lemma2_identity,
    lift_total_value,
    maximize_lifetime,
    mu_value_iteration,
    occupation_measure,
    optimal_actions,
    policy_evaluate,
    similarity_transform,
    solve_average_cost,
    solve_total_cost,
    total_optimal_actions,
    value_iteration,
    verify_acoe,
)
from mdpreduce._linalg import solve as lu_solve
from conftest import build_mdp

N_INSTANCES = 200


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException as exc:
        print(f"[criterion {number:2d}] FAIL — {description} ({exc})")
        raise
    print(f"[criterion {number:2d}] PASS — {description}")


def extend(phi):
    return StationaryPolicy(tuple(phi) + (0,))


@dataclass
class TransientCase:
    seed: int
    mdp: object
    cert: TransienceCertificate
    dmdp: object
    report: object
    values: np.ndarray
    oracle: object


@dataclass
class HtCase:
    seed: int
    ell: int
    mdp: object
    cert: HtCertificate
    dmdp: object
    report: object
    solution: object
    oracle: object


@pytest.fixture(scope="module")
def transient_corpus():
    started = time.perf_counter()
    cases = []
    for seed in range(N_INSTANCES):
        spec = GenSpec(
            n_states=2 + seed % 4,
            max_actions=1 + seed % 3,
            rate_class=Substochastic(kill_prob_range=(0.2, 0.55)),
            cost_range=(-1.0, 1.0),
            density=0.7,
            seed=seed,
        )
        mdp = gen_transient(spec)
        cert = maximize_lifetime(mdp)
        assert isinstance(cert, TransienceCertificate), f"seed {seed} not transient"
        dmdp = build_hv(mdp, cert)
        report = howard_pi(dmdp)
        values = lift_total_value(report.values, cert.mu)
        cases.append(
            TransientCase(
                seed=seed,
                mdp=mdp,
                cert=cert,
                dmdp=dmdp,
                report=report,
                values=values,
                oracle=brute_force_total(mdp),
            )
        )
    return cases, time.perf_counter() - started


@pytest.fixture(scope="module")
def ht_corpus():
    started = time.perf_counter()
    cases = []
    for seed in range(N_INSTANCES):
        n = 2 + seed % 4
        ell = seed % n
        alpha = 0.2 + 0.15 * (seed % 3)
        spec = GenSpec(
            n_states=n,
            max_actions=1 + seed % 3,
            rate_class=Stochastic(),
            cost_range=(-1.0, 1.0),
            density=0.7,
            seed=seed,
        )
        mdp = gen_ht(spec, ell, alpha=alpha)
        cert = check_ht(mdp, ell)
        assert isinstance(cert, HtCertificate), f"seed {seed} fails at {ell}"
        dmdp = build_hvag(mdp, cert)
        report = howard_pi(dmdp)
        solution = extract_average_solution(report.values, cert)
        cases.append(
            HtCase(
                seed=seed,
                ell=ell,
                mdp=mdp,
                cert=cert,
                dmdp=dmdp,
                report=report,
                solution=solution,
                oracle=brute_force_average(mdp, ell),
            )
        )
    return cases, time.perf_counter() - started


def test_criterion_1_closed_form_total_cost(geometric):
    with criterion(1, "geometric instance: K = 2, beta = 0.5, v = [2] (all solvers)"):
        cert = maximize_lifetime(geometric)
        assert abs(cert.K - 2.0) <= 1e-12
        dmdp = build_hv(geometric, cert)
        assert abs(dmdp.beta - 0.5) <= 1e-12
        for solve in (
            lambda d: value_iteration(d, tol=1e-12),
            howard_pi,
            dantzig_pi,
        ):
            report = solve(dmdp)
            values = lift_total_value(report.values, cert.mu)
            assert abs(values[0] - 2.0) <= 1e-12, f"{report.method}: {values}"


def test_criterion_2_closed_form_average_cost(two_cycle):
    with criterion(2, "two-state cycle: K* = 2, beta = 0.5, w = 1, h = (0, 1)"):
        cert = check_ht(two_cycle, 0)
        assert abs(cert.K_star - 2.0) <= 1e-12
        dmdp = build_hvag(two_cycle, cert)
        assert abs(dmdp.beta - 0.5) <= 1e-12
        report = howard_pi(dmdp)
        solution = extract_average_solution(report.values, cert)
        assert abs(solution.w - 1.0) <= 1e-12
        # The ACOE reads w + h(0) = h(1) and w + h(1) = 2 + h(0), forcing
        # w = 1 and h(1) - h(0) = 1; with h(ell) = h(0) = 0, h = (0, 1).
        assert np.max(np.abs(solution.h - np.array([0.0, 1.0]))) <= 1e-12, (
            f"h = {solution.h.tolist()}, required (0, 1)"
        )
        assert verify_acoe(two_cycle, solution, tol=1e-12).max_residual == 0.0


def test_criterion_3_total_cost_oracle_equivalence(transient_corpus):
    cases, build_seconds = transient_corpus
    with criterion(
        3, f"{len(cases)} transient instances: pipeline matches enumeration"
    ):
        started = time.perf_counter()
        assert len(cases) >= 200
        for case in cases:
            deviation = np.max(np.abs(case.values - case.oracle.optimal_value))
            assert deviation <= 1e-8, f"seed {case.seed}: deviation {deviation}"
            total_sets = total_optimal_actions(case.mdp, case.values, 1e-8)
            discounted_sets = optimal_actions(case.dmdp, case.report.values, 1e-8)
            assert list(discounted_sets[: case.mdp.n_states]) == list(total_sets), (
                f"seed {case.seed}: optimal-action sets differ"
            )
        elapsed = build_seconds + time.perf_counter() - started
        assert elapsed <= 60.0, f"took {elapsed:.1f}s"


def test_criterion_4_average_cost_oracle_equivalence(ht_corpus):
    cases, build_seconds = ht_corpus
    with criterion(
        4, f"{len(cases)} hitting-time instances: pipeline matches enumeration"
    ):
        started = time.perf_counter()
        assert len(cases) >= 200
        for case in cases:
            w_oracle = float(case.oracle.optimal_value[0])
            assert abs(case.solution.w - w_oracle) <= 1e-8, (
                f"seed {case.seed}: w {case.solution.w} vs oracle {w_oracle}"
            )
            acoe = verify_acoe(case.mdp, case.solution, tol=1e-9)
            assert acoe.max_residual <= 1e-9
        elapsed = build_seconds + time.perf_counter() - started
        assert elapsed <= 120.0, f"took {elapsed:.1f}s"


def test_criterion_5_policy_value_correspondence(transient_corpus):
    cases, _ = transient_corpus
    with criterion(5, "v_phi = mu * dv_phi for every policy of every instance"):
        for case in cases:
            n = case.mdp.n_states
            eye = np.eye(n)
            for phi in enumerate_policies(case.mdp):
                P, c = case.mdp.packed.policy(phi)
                v = lu_solve(eye - P.toarray(), c)
                dv = policy_evaluate(case.dmdp, extend(phi))
                assert np.max(np.abs(v - case.cert.mu * dv[:n])) <= 1e-9, (
                    f"seed {case.seed}, policy {tuple(phi)}"
                )


def test_criterion_6_policy_average_correspondence(ht_corpus):
    cases, _ = ht_corpus
    with criterion(
        6, "per-policy one-step identity and w_phi = dv_phi(ell) everywhere"
    ):
        for case in cases:
            n = case.mdp.n_states
            mu, ell = case.cert.mu, case.cert.ell
            for phi in enumerate_policies(case.mdp):
                dv = policy_evaluate(case.dmdp, extend(phi))
                h = mu * (dv[:n] - dv[ell])
                P, c = case.mdp.packed.policy(phi)
                residual = dv[ell] + h - (c + P @ h)
                assert np.max(np.abs(residual)) <= 1e-9, (
                    f"seed {case.seed}, policy {tuple(phi)}"
                )
                w_phi = float(case.oracle.per_policy_values[phi][0])
                assert abs(w_phi - dv[ell]) <= 1e-8, (
                    f"seed {case.seed}, policy {tuple(phi)}"
                )


def test_criterion_7_one_step_identity_trials(ht_corpus):
    cases, _ = ht_corpus
    with criterion(7, "1000 random one-step identity trials agree to 1e-10"):
        rng = np.random.default_rng(2024)
        for trial in range(1000):
            case = cases[int(rng.integers(0, len(cases)))]
            f = rng.uniform(-1.0, 1.0, size=case.mdp.n_states + 1)
            f[-1] = 0.0
            x = int(rng.integers(0, case.mdp.n_states))
            a = int(rng.integers(0, case.mdp.n_actions(x)))
            lhs, rhs = lemma2_identity(case.mdp, case.cert, case.dmdp, f, x, a)
            assert abs(lhs - rhs) <= 1e-10, f"trial {trial}: {lhs} vs {rhs}"


def test_criterion_8_lifetime_iteration_cross_check(transient_corpus):
    cases, _ = transient_corpus
    with criterion(
        8, "approximate lifetime iteration agrees with the exact maximizer"
    ):
        for case in cases:
            result = mu_value_iteration(case.mdp, tol=1e-10)
            # iterates are monotone nondecreasing (asserted inside the
            # iteration itself), so the final iterate bounds them all
            assert np.all(result.mu_approx <= case.cert.K + 1e-12)
            assert np.max(np.abs(result.mu_approx - case.cert.mu)) <= 1e-8, (
                f"seed {case.seed}"
            )


def test_criterion_9_transform_validity_on_beta_grid(transient_corpus, ht_corpus):
    t_cases, _ = transient_corpus
    h_cases, _ = ht_corpus
    with criterion(9, "transformed rows stochastic across a 5-point beta grid"):
        def rows_ok(dmdp):
            check_discounted(dmdp)
            for acts in dmdp.base.actions:
                for act in acts:
                    total = 0.0
                    for _, p in act.transitions:
                        assert p >= 0.0
                        total += p
                    assert abs(total - 1.0) <= 1e-12

        for case in t_cases:
            low = (case.cert.K - 1.0) / case.cert.K
            for i in range(5):
                rows_ok(build_hv(case.mdp, case.cert, beta=low + i * (1.0 - low) / 5.0))
        for case in h_cases:
            low = (case.cert.K_star - 1.0) / case.cert.K_star
            for i in range(5):
                rows_ok(
                    build_hvag(case.mdp, case.cert, beta=low + i * (1.0 - low) / 5.0)
                )


def test_criterion_10_similarity_invariance(transient_corpus):
    cases, _ = transient_corpus
    with criterion(10, "optimal-policy sets invariant under 50 positive rescalings"):
        rng = np.random.default_rng(7)
        checked = 0
        index = 0
        while checked < 50:
            case = cases[index % len(cases)]
            index += 1
            b = rng.uniform(0.1, 10.0, size=case.mdp.n_states)
            transformed = similarity_transform(case.mdp, b)
            expected = set(case.oracle.optimal_policies)
            assert set(brute_force_total(transformed).optimal_policies) == expected, (
                f"seed {case.seed}, b = {b.tolist()}"
            )
            checked += 1


def test_criterion_11_rate_scaling_keeps_the_bound(transient_corpus):
    cases, _ = transient_corpus
    with criterion(11, "scaling rates by beta <= 1 never increases K"):
        for case in cases[:60]:
            for beta in (0.25, 0.5, 1.0):
                scaled = build_mdp(
                    [
                        [
                            (act.cost, [(y, beta * r) for y, r in act.transitions])
                            for act in acts
                        ]
                        for acts in case.mdp.actions
                    ]
                )
                cert = maximize_lifetime(scaled)
                assert isinstance(cert, TransienceCertificate)
                assert cert.K <= case.cert.K + 1e-9, (
                    f"seed {case.seed}, beta {beta}: {cert.K} > {case.cert.K}"
                )


def test_criterion_12_lp_consistency(transient_corpus):
    cases, _ = transient_corpus
    with criterion(
        12, "occupation measures feasible, duality holds, LP bytes reproducible"
    ):
        for case in cases:
            measure = occupation_measure(case.dmdp, case.report.policy)
            assert np.max(np.abs(measure.constraint_residuals(case.dmdp))) <= 1e-9
            assert np.all(measure.z >= -1e-12)
            expected = float(np.sum(case.report.values))
            assert abs(measure.objective(case.dmdp) - expected) <= 1e-8
            v = case.report.values
            table = case.dmdp.base.packed
            for x, a, weight in zip(table.owner, table.local, measure.z):
                if weight > 1e-9:
                    act = case.dmdp.base.actions[x][a]
                    reduced = act.cost - v[x] + case.dmdp.beta * sum(
                        p * v[y] for y, p in act.transitions
                    )
                    assert reduced <= 1e-9
        # byte-for-byte reproducibility through an independent rebuild
        for case in cases[:20]:
            rebuilt = build_hv(case.mdp, maximize_lifetime(case.mdp))
            assert emit_lp(case.dmdp) == emit_lp(rebuilt)


def test_criterion_13_degenerate_discount_edge_cases():
    with criterion(13, "K = 1 and K* = 1 instances solved by one-step minimization"):
        # K = 1: no transitions at all
        one_step = build_mdp(
            [
                [(3.0, []), (1.5, [])],
                [(-2.0, []), (4.0, [])],
            ]
        )
        result = solve_total_cost(one_step)
        assert result.certificate.K == 1.0
        assert result.discounted.beta == 0.0
        oracle = brute_force_total(one_step)
        assert np.max(np.abs(result.values - oracle.optimal_value)) <= 1e-12
        assert result.values.tolist() == [1.5, -2.0]

        # K* = 1: every action jumps straight to ell
        absorbing = build_mdp(
            [
                [(2.0, [(0, 1.0)]), (0.5, [(0, 1.0)])],
                [(9.0, [(0, 1.0)])],
            ]
        )
        result = solve_average_cost(absorbing, 0)
        assert result.certificate.K_star == 1.0
        assert result.discounted.beta == 0.0
        assert abs(result.solution.w - 0.5) <= 1e-12  # min_a c(ell, a)
        oracle = brute_force_average(absorbing, 0)
        assert abs(result.solution.w - float(oracle.optimal_value[0])) <= 1e-12


def test_criterion_14_iteration_count_report(transient_corpus, tmp_path):
    cases, _ = transient_corpus
    with criterion(14, "policy-iteration counts reported against m K log K"):
        lines = ["seed\tn\tm\tK\thoward_iters\tm*K*logK"]
        for case in cases:
            m = case.mdp.n_state_actions
            K = case.cert.K
            bound_shape = m * K * math.log(K) if K > 1.0 else 0.0
            lines.append(
                f"{case.seed}\t{case.mdp.n_states}\t{m}\t{K:.6g}"
                f"\t{case.report.iterations}\t{bound_shape:.6g}"
            )
        report_path = tmp_path / "howard_iterations_report.tsv"
        report_path.write_text("\n".join(lines) + "\n")
        assert report_path.exists()
        assert len(report_path.read_text().splitlines()) == len(cases) + 1
        iters = [case.report.iterations for case in cases]
        print(
            f"  howard iterations over {len(cases)} instances: "
            f"min {min(iters)}, max {max(iters)}, report at {report_path}"
        )
