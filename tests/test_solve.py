import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

import mdpreduce.solve
from mdpreduce import (
    DiscountedMdp,
    GenSpec,
    NotConvergedWithinBudget,
    SingularSystemError,
    StationaryPolicy,
    Stochastic,
    Substochastic,
    _linalg,
    build_hv,
    build_hvag,
    check_ht,
    dantzig_pi,
    emit_lp,
    gen_ht,
    gen_transient,
    howard_pi,
    maximize_lifetime,
    occupation_measure,
    optimal_actions,
    policy_evaluate,
    solve_average_cost,
    solve_total_cost,
    value_iteration,
)
from mdpreduce.solve import solve
from conftest import build_mdp, counted_calls, on_lu


def make_discounted(actions, beta, absorbing=None):
    base = build_mdp(actions)
    return DiscountedMdp(
        base=base,
        absorbing_state=len(actions) - 1 if absorbing is None else absorbing,
        beta=beta,
    )


def hv_instance(seed, n=4, max_actions=3):
    mdp = gen_transient(
        GenSpec(
            n_states=n,
            max_actions=max_actions,
            rate_class=Substochastic(kill_prob_range=(0.25, 0.6)),
            seed=seed,
        )
    )
    cert = maximize_lifetime(mdp)
    return build_hv(mdp, cert)


def loose_vi_spec(seed):
    """n = 20 transient instances with K up to 20."""
    return GenSpec(
        n_states=20,
        max_actions=3,
        rate_class=Substochastic(kill_prob_range=(0.05, 0.3)),
        seed=seed,
    )


@pytest.fixture
def geometric_hv(geometric):
    return build_hv(geometric, maximize_lifetime(geometric))


class TestPolicyEvaluate:
    def test_zero_discount_returns_costs(self):
        dmdp = make_discounted([[(3.0, [(1, 1.0)])], [(0.0, [(1, 1.0)])]], beta=0.0)
        assert policy_evaluate(dmdp, StationaryPolicy((0, 0))).tolist() == [3.0, 0.0]

    def test_geometric_series_scalar(self):
        dmdp = make_discounted(
            [[(4.0, [(0, 1.0)])], [(0.0, [(1, 1.0)])]], beta=0.75, absorbing=1
        )
        v = policy_evaluate(dmdp, StationaryPolicy((0, 0)))
        assert v[0] == pytest.approx(16.0, abs=1e-12)

    def test_transformed_geometric(self, geometric_hv):
        v = policy_evaluate(geometric_hv, StationaryPolicy((0, 0)))
        assert v == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_a_singular_system_raises(self, geometric):
        # the sink's pivot 1 - beta = 1e-13 falls below the 1e-12 pivot floor
        dmdp = build_hv(geometric, maximize_lifetime(geometric), beta=1.0 - 1e-13)
        message = "^singular linear system: discounted policy evaluation$"
        for run in (howard_pi, dantzig_pi, lambda d: policy_evaluate(d, StationaryPolicy((0, 0)))):
            with pytest.raises(SingularSystemError, match=message):
                run(dmdp)


class TestValueIteration:
    def test_zero_discount_one_iteration(self):
        dmdp = make_discounted(
            [[(3.0, [(1, 1.0)]), (1.0, [(1, 1.0)])], [(0.0, [(1, 1.0)])]], beta=0.0
        )
        report = value_iteration(dmdp)
        assert report.iterations == 1
        assert report.values.tolist() == [1.0, 0.0]
        assert report.bellman_residual == 0.0

    def test_geometric_within_tol(self, geometric_hv):
        report = value_iteration(geometric_hv, tol=1e-10)
        assert report.values[0] == pytest.approx(1.0, abs=1e-10)

    def test_iteration_count_obeys_contraction_bound(self, geometric_hv):
        tol = 1e-10
        report = value_iteration(geometric_hv, tol=tol)
        beta = geometric_hv.beta
        sup_cost = max(
            abs(act.cost)
            for acts in geometric_hv.base.actions
            for act in acts
        )
        bound = math.ceil(
            math.log(2.0 * sup_cost / (tol * (1.0 - beta))) / math.log(1.0 / beta)
        )
        assert report.iterations <= bound

    def test_policy_is_member_of_optimal_sets(self):
        for seed in range(10):
            report = value_iteration(hv_instance(seed), tol=1e-10)
            for x, acts in enumerate(report.optimal_actions):
                assert report.policy[x] in acts

    @pytest.mark.parametrize("tol", [1e-6, 1e-4])
    def test_sets_are_cut_at_the_solver_tolerance(self, tol):
        # the values are only tol-accurate, so the sets are cut at their
        # certified bound, (1 + beta) error_bound plus round-off
        for seed in range(8):
            mdp = gen_transient(loose_vi_spec(seed))
            vi = solve_total_cost(mdp, method="vi", tol=tol)
            exact = solve_total_cost(mdp)
            assert np.max(np.abs(vi.report.values - exact.report.values)) <= tol / 2
            for result in (vi.report, vi):
                assert all(a in acts for a, acts in zip(result.policy, result.optimal_actions))
            # every exactly optimal action stays in the sets
            for got, ref in zip(vi.report.optimal_actions, exact.report.optimal_actions):
                assert set(ref) <= set(got)

    @pytest.mark.parametrize("tol", [1e-6, 1e-4, 1e-2, 1e-1])
    def test_average_cost_reaches_its_loosened_acoe_check(self, tol):
        for seed in range(8):
            mdp = gen_ht(GenSpec(n_states=20, max_actions=3, seed=seed), ell=0)
            vi = solve_average_cost(mdp, 0, method="vi", tol=tol)
            exact = solve_average_cost(mdp, 0)
            assert abs(vi.solution.w - exact.solution.w) <= tol / 2
            assert vi.acoe.max_residual <= 100.0 * tol

    def test_the_policy_is_greedy_at_the_returned_values(self):
        # from this start the sweep picks action 0 at state 2 (0.5 * 0.38 <
        # 0.2), whose gap at the returned values, -0.06, lies past the
        # certified cut 0.03; action 1, greedy at those values, lies in it
        dmdp = make_discounted(
            [
                [(1.0, [(3, 1.0)])],
                [(0.0, [(0, 1.0)])],
                [(0.0, [(1, 1.0)]), (0.2, [(3, 1.0)])],
                [(0.0, [(3, 1.0)])],
            ],
            beta=0.5,
        )
        report = value_iteration(dmdp, tol=1.0, v0=[1.0, 0.38, 0.19, 0.0])
        assert report.iterations == 1
        assert report.error_bound == pytest.approx(0.02)
        assert tuple(report.policy) == (0, 0, 1, 0)
        assert report.optimal_actions == ((0,), (0,), (1,), (0,))

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"max_iter": 0}, "max_iter must be at least 1"),
            ({"tol": -1.0}, "tol must be finite and positive"),
            ({"tol": math.nan}, "tol must be finite and positive"),
            ({"tol": math.inf}, "tol must be finite and positive"),
            ({"v0": [math.nan, 0.0]}, "v0 must be a finite vector of 2 values"),
            ({"v0": [0.0, 0.0, 0.0]}, "v0 must be a finite vector of 2 values"),
        ],
    )
    def test_bad_inputs_raise_before_a_sweep(self, monkeypatch, geometric_hv, kwargs, message):
        sweeps = []
        table = type(geometric_hv.base.packed)
        monkeypatch.setattr(table, "state_min", lambda self, q: sweeps.append(q))
        with pytest.raises(ValueError, match=message):
            value_iteration(geometric_hv, **kwargs)
        assert sweeps == []


class TestErrorBound:
    @pytest.mark.parametrize("tol", [1e-1, 1e-3, 1e-6])
    def test_value_iteration_is_within_its_bound(self, tol):
        for seed in range(10):
            mdp = gen_ht(GenSpec(n_states=20, max_actions=3, seed=seed), ell=0)
            dmdp = build_hvag(mdp, check_ht(mdp, 0))
            vi, exact = value_iteration(dmdp, tol=tol), howard_pi(dmdp)
            round_off = 1e-14 * max(1.0, float(np.max(np.abs(exact.values))))
            assert np.max(np.abs(vi.values - exact.values)) <= vi.error_bound + round_off
            assert vi.error_bound <= tol / 2

    def test_policy_iteration_bounds_are_finite(self):
        for seed in range(6):
            mdp = gen_ht(GenSpec(n_states=12, max_actions=3, seed=seed), ell=0)
            for dmdp in (hv_instance(seed), build_hvag(mdp, check_ht(mdp, 0))):
                for solver in (howard_pi, dantzig_pi):
                    bound = solver(dmdp).error_bound
                    assert math.isfinite(bound) and bound >= 0.0


class TestHowardPi:
    def test_single_policy_one_iteration(self, geometric_hv):
        report = howard_pi(geometric_hv)
        assert report.iterations == 1
        assert report.values == pytest.approx([1.0, 0.0], abs=1e-15)

    def test_two_actions_matches_enumeration(self, mk):
        mdp = mk([[(1.0, [(0, 0.5)]), (1.0, [(0, 0.9)])]])
        cert = maximize_lifetime(mdp)
        dmdp = build_hv(mdp, cert)
        # enumerate both policies on the discounted side
        values = {
            a: policy_evaluate(dmdp, StationaryPolicy((a, 0)))[0] for a in (0, 1)
        }
        best = min(values, key=values.get)
        report = howard_pi(dmdp, phi0=StationaryPolicy((1, 0)))
        assert report.policy[0] == best == 0
        assert report.bellman_residual <= 1e-12

    def test_monotone_on_random_instances(self):
        # nonincreasing values are asserted inside howard_pi itself; this
        # just drives enough instances through it
        for seed in range(15):
            report = howard_pi(hv_instance(seed))
            assert report.bellman_residual <= 1e-10

    def test_a_cycling_improvement_stops_at_the_round_cap(self, monkeypatch):
        # with a negative threshold every round "improves"; Dantzig's rule
        # has its own cap, on switches
        dmdp = hv_instance(0, n=4, max_actions=2)
        evaluations = []
        evaluate = mdpreduce.solve._evaluate

        def counted(*args):
            evaluations.append(1)
            return evaluate(*args)

        monkeypatch.setattr(mdpreduce.solve, "IMPROVE_TOL", -1.0)
        monkeypatch.setattr(mdpreduce.solve, "_evaluate", counted)
        m, n, K = len(dmdp.base.packed.c), dmdp.n_states, 1.0 / (1.0 - dmdp.beta)
        howard_cap = 100 + math.ceil(10 * m * K * math.log(n * K))
        for solver, cap, unit in [
            (howard_pi, howard_cap, "rounds"),
            (dantzig_pi, 10_000 + 100 * m**2, "switches"),
        ]:
            evaluations.clear()
            with pytest.raises(NotConvergedWithinBudget, match=f"exceeded {cap} {unit}"):
                solver(dmdp)
            # the first policy, then one per round switched
            assert len(evaluations) == cap + 1


class TestDantzigPi:
    def test_optimal_start_makes_zero_switches(self, geometric_hv):
        optimal = howard_pi(geometric_hv).policy
        report = dantzig_pi(geometric_hv, phi0=optimal)
        assert report.iterations == 0

    def test_agrees_with_howard(self):
        for seed in range(15):
            dmdp = hv_instance(seed)
            a = howard_pi(dmdp)
            b = dantzig_pi(dmdp)
            assert np.max(np.abs(a.values - b.values)) <= 1e-10

    def test_switch_counts_logged_against_howard(self, capsys):
        # single pivots can't beat block pivots; logged, not asserted
        rows = []
        for seed in range(15):
            dmdp = hv_instance(seed)
            rows.append((seed, howard_pi(dmdp).iterations, dantzig_pi(dmdp).iterations))
        for seed, h, d in rows:
            print(f"seed {seed}: howard {h} rounds, dantzig {d} switches")


class TestSolverAgreement:
    def test_three_methods_one_fixed_point(self):
        tol = 1e-10
        for seed in range(15):
            dmdp = hv_instance(seed)
            vi = value_iteration(dmdp, tol=tol)
            hp = howard_pi(dmdp)
            dp = dantzig_pi(dmdp)
            assert np.max(np.abs(vi.values - hp.values)) <= 1e-8
            assert np.max(np.abs(dp.values - hp.values)) <= 1e-8
            sets = optimal_actions(dmdp, hp.values, 1e-8)
            assert list(vi.optimal_actions) == sets
            assert list(dp.optimal_actions) == sets

    def test_dispatch_rejects_unknown_method(self, geometric_hv):
        with pytest.raises(ValueError, match="unknown method"):
            solve(geometric_hv, method="simplex")

    def test_agreement_on_a_mid_size_instance(self):
        # far beyond the enumeration oracle's reach; the three solvers
        # still have to meet at the unique fixed point
        dmdp = hv_instance(271, n=30, max_actions=4)
        vi = value_iteration(dmdp, tol=1e-11)
        hp = howard_pi(dmdp)
        dp = dantzig_pi(dmdp)
        assert np.max(np.abs(vi.values - hp.values)) <= 1e-9
        assert np.max(np.abs(dp.values - hp.values)) <= 1e-10


class TestRejectsAnInvalidInstance:
    @pytest.mark.parametrize("solver", [value_iteration, howard_pi, dantzig_pi])
    def test_row_summing_to_two(self, solver):
        # Howard used to return v = (-1.25, 0) here, and VI under python -O
        # ran to its iteration budget; now the instance cannot be made
        with pytest.raises(ValueError, match=r"row \(0, a0\) sums to 2.0, not 1"):
            solver(make_discounted([[(1.0, [(0, 2.0)])], [(0.0, [(1, 1.0)])]], beta=0.9))


class TestOptimalActions:
    def test_duplicate_actions_are_tied(self):
        dmdp = make_discounted(
            [[(1.0, [(1, 1.0)]), (1.0, [(1, 1.0)])], [(0.0, [(1, 1.0)])]], beta=0.5
        )
        v = howard_pi(dmdp).values
        assert optimal_actions(dmdp, v, 1e-9)[0] == (0, 1)

    def test_single_action_states_are_singletons(self, geometric_hv):
        v = howard_pi(geometric_hv).values
        assert optimal_actions(geometric_hv, v, 1e-9) == [(0,), (0,)]

    def test_empty_set_raises(self, geometric_hv):
        with pytest.raises(ValueError, match="no action within"):
            optimal_actions(geometric_hv, np.array([50.0, 0.0]), 1e-9)


class TestResidualBits:
    """Each residual is the state maximum of the one gap array its sets are
    cut from.  Rounding is monotone, max_a fl(v - q_a) = fl(v - min_a q_a),
    so it keeps the bits of the old two-pass expression written here."""

    @staticmethod
    def old_bellman_residual(dmdp, v):
        table = dmdp.base.packed
        tv = np.minimum.reduceat(table.c + dmdp.beta * (table.R @ v), table.first[:-1])
        return float(np.max(np.abs(tv - v)))

    def test_solver_reports(self):
        for seed in range(6):
            mdp = gen_ht(GenSpec(n_states=12, max_actions=3, seed=seed), ell=0)
            for dmdp in (hv_instance(seed, n=12), build_hvag(mdp, check_ht(mdp, 0))):
                for method in ("vi", "howard", "dantzig"):
                    report = solve(dmdp, method)
                    old = self.old_bellman_residual(dmdp, report.values)
                    assert report.bellman_residual.hex() == old.hex()

    def test_values_far_from_the_fixed_point(self):
        rng = np.random.default_rng(5)
        for seed in range(6):
            dmdp = hv_instance(seed, n=12)
            v = rng.normal(size=dmdp.n_states) * 10.0 ** rng.integers(-3, 4)
            table = dmdp.base.packed
            new = float(np.max(np.abs(table.state_max(table.gap(v, v, dmdp.beta)))))
            assert new.hex() == self.old_bellman_residual(dmdp, v).hex()

    def test_acoe_residuals(self):
        for seed in range(6):
            mdp = gen_ht(GenSpec(n_states=12, max_actions=3, seed=seed), ell=0)
            for method in ("vi", "howard", "dantzig"):
                sol = solve_average_cost(mdp, 0, method=method)
                w, h, table = sol.solution.w, sol.solution.h, mdp.packed
                old = w + h - np.minimum.reduceat(table.c + table.R @ h, table.first[:-1])
                assert sol.acoe.residuals.tobytes() == old.tobytes()
                assert sol.acoe.max_residual.hex() == float(np.max(np.abs(old))).hex()


# -- LP emission ------------------------------------------------------------


def _parse_terms(tokens):
    coefs = {}
    sign = 1.0
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok == "+":
            sign = 1.0
            i += 1
        elif tok == "-":
            sign = -1.0
            i += 1
        elif tok == "=":
            return coefs, float(tokens[i + 1])
        else:
            var = tokens[i + 1]
            coefs[var] = coefs.get(var, 0.0) + sign * float(tok)
            sign = 1.0
            i += 2
    return coefs, None


def parse_lp(text):
    """Minimal reader for the emitted LP subset: objective, equality
    constraints, nonnegative variables."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("\\")]
    section = None
    objective_tokens = []
    constraints = []
    variables = []
    for line in lines:
        stripped = line.strip()
        if stripped in ("Minimize", "Subject To", "Bounds", "End"):
            section = stripped
            continue
        if section == "Minimize":
            stripped = stripped.removeprefix("obj:").strip()
            objective_tokens.extend(stripped.split())
        elif section == "Subject To":
            if stripped.startswith("flow_"):
                constraints.append([])
                stripped = stripped.split(":", 1)[1].strip()
            constraints[-1].extend(stripped.split())
        elif section == "Bounds":
            variables.append(stripped.split()[0])
    objective, _ = _parse_terms(objective_tokens)
    parsed = [_parse_terms(tokens) for tokens in constraints]
    return objective, parsed, variables


def solve_emitted_lp(text):
    objective, constraints, variables = parse_lp(text)
    c = np.array([objective.get(v, 0.0) for v in variables])
    A = np.array(
        [[coefs.get(v, 0.0) for v in variables] for coefs, _ in constraints]
    )
    b = np.array([rhs for _, rhs in constraints])
    result = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    assert result.status == 0, result.message
    return result


class TestEmitLp:
    def test_counts_for_minimal_instance(self, geometric_hv):
        text = emit_lp(geometric_hv)
        objective, constraints, variables = parse_lp(text)
        assert len(constraints) == 2
        assert variables == ["z_0_0", "z_1_0"]
        assert set(objective) == {"z_0_0", "z_1_0"}

    def test_diagonal_coefficient_is_one_minus_beta_p(self):
        for seed in range(5):
            dmdp = hv_instance(seed)
            _, constraints, _ = parse_lp(emit_lp(dmdp))
            table = dmdp.base.packed
            for x, (coefs, rhs) in enumerate(constraints):
                assert rhs == 1.0
                for a in range(dmdp.base.n_actions(x)):
                    expected = 1.0 - dmdp.beta * table.R[table.row(x, a), x]
                    assert coefs[f"z_{x}_{a}"] == pytest.approx(expected, abs=1e-15)

    def test_external_solver_reaches_sum_of_values(self):
        for seed in range(5):
            dmdp = hv_instance(seed)
            result = solve_emitted_lp(emit_lp(dmdp))
            expected = float(np.sum(howard_pi(dmdp).values))
            assert result.fun == pytest.approx(expected, abs=1e-7)

    def test_external_solver_on_average_cost_reduction(self, two_cycle):
        from mdpreduce import build_hvag, check_ht

        dmdp = build_hvag(two_cycle, check_ht(two_cycle, 0))
        result = solve_emitted_lp(emit_lp(dmdp))
        expected = float(np.sum(howard_pi(dmdp).values))  # 1 + 2 + 0
        assert result.fun == pytest.approx(expected, abs=1e-8)
        assert result.fun == pytest.approx(3.0, abs=1e-8)

    def test_byte_identical_across_runs(self, geometric_hv):
        assert emit_lp(geometric_hv) == emit_lp(geometric_hv)

    def test_17_significant_digits(self):
        dmdp = hv_instance(3)
        text = emit_lp(dmdp)
        # at least one coefficient should need many digits
        assert any(len(tok) >= 17 for tok in text.split())


class TestOccupationMeasure:
    def test_zero_discount_all_ones(self):
        dmdp = make_discounted(
            [[(3.0, [(1, 1.0)])], [(0.0, [(1, 1.0)])]], beta=0.0
        )
        z = occupation_measure(dmdp, StationaryPolicy((0, 0))).z
        assert z.tolist() == [1.0, 1.0]

    def test_scalar_self_loop(self):
        dmdp = make_discounted([[(0.0, [(0, 1.0)])]], beta=0.5, absorbing=0)
        z = occupation_measure(dmdp, StationaryPolicy((0,))).z
        assert z.shape == (1,)
        assert z[dmdp.base.packed.row(0, 0)] == pytest.approx(2.0, abs=1e-12)

    def test_objective_equals_summed_policy_values(self):
        for seed in range(10):
            dmdp = hv_instance(seed)
            phi = StationaryPolicy((0,) * dmdp.n_states)
            measure = occupation_measure(dmdp, phi)
            expected = float(np.sum(policy_evaluate(dmdp, phi)))
            assert measure.objective(dmdp) == pytest.approx(expected, abs=1e-9)

    def test_feasibility_residuals(self):
        for seed in range(10):
            dmdp = hv_instance(seed)
            phi = howard_pi(dmdp).policy
            measure = occupation_measure(dmdp, phi)
            assert np.max(np.abs(measure.constraint_residuals(dmdp))) <= 1e-9
            assert np.all(measure.z >= -1e-12)
            off_policy = np.ones(len(measure.z), dtype=bool)
            off_policy[dmdp.base.packed.rows(phi)] = False
            assert np.all(measure.z[off_policy] == 0.0)

    def test_complementary_slackness(self):
        for seed in range(10):
            dmdp = hv_instance(seed)
            report = howard_pi(dmdp)
            measure = occupation_measure(dmdp, report.policy)
            v = report.values
            table = dmdp.base.packed
            for x, a, weight in zip(table.owner, table.local, measure.z):
                if weight > 1e-9:
                    act = dmdp.base.actions[x][a]
                    reduced = act.cost - v[x] + dmdp.beta * sum(
                        p * v[y] for y, p in act.transitions
                    )
                    assert reduced <= 1e-9


# -- Sparse policy evaluation above _linalg.DENSE_MAX_N ----------------------

SPARSE_N = 400


def sparse_spec(rate_class, **kwargs):
    """About 10 targets per row, SPARSE_N states: with the sink, above the
    dense cap."""
    return GenSpec(n_states=SPARSE_N, max_actions=3, density=10 / SPARSE_N,
                   rate_class=rate_class, seed=3, **kwargs)


def reduced(mdp):
    return build_hv(mdp, maximize_lifetime(mdp))


@pytest.fixture(scope="module")
def sparse_total():
    return reduced(gen_transient(sparse_spec(Substochastic((0.1, 0.3)))))


@pytest.fixture(scope="module")
def sparse_average():
    return gen_ht(sparse_spec(Stochastic()), 0, alpha=0.1)


class TestSparsePath:
    def test_policy_evaluate_matches_lu(self, monkeypatch, calls, sparse_total, sparse_average):
        average = build_hvag(sparse_average, check_ht(sparse_average, 0))
        calls.update(bicgstab=0, lu=0)
        for dmdp in (sparse_total, average):
            assert dmdp.n_states > _linalg.DENSE_MAX_N
            phi = StationaryPolicy((0,) * dmdp.n_states)
            v = policy_evaluate(dmdp, phi)
            assert calls == {"bicgstab": 1, "lu": 0}
            reference = on_lu(monkeypatch, policy_evaluate, dmdp, phi)
            assert calls == {"bicgstab": 1, "lu": 1}
            assert np.max(np.abs(v - reference)) <= 1e-12
            calls.update(bicgstab=0, lu=0)

    def test_howard_and_value_iteration_agree_with_lu(self, monkeypatch, calls, sparse_total):
        dmdp = sparse_total
        hp = howard_pi(dmdp)
        assert calls["bicgstab"] == hp.iterations and calls["lu"] == 0
        reference = on_lu(monkeypatch, howard_pi, dmdp)
        vi = value_iteration(dmdp, tol=1e-11)
        assert hp.policy == reference.policy == vi.policy
        assert hp.optimal_actions == reference.optimal_actions == vi.optimal_actions
        assert np.max(np.abs(hp.values - reference.values)) <= 1e-12

    def test_average_cost_matches_lu(self, monkeypatch, calls, sparse_average):
        mdp = sparse_average
        sol = solve_average_cost(mdp, 0).solution
        # the lifetime systems of check_ht go to BiCGSTAB too, and none falls back
        assert calls["bicgstab"] > 0 and calls["lu"] == 0
        reference = on_lu(monkeypatch, solve_average_cost, mdp, 0).solution
        assert calls["lu"] > 0
        assert abs(sol.w - reference.w) <= 1e-12
        assert np.max(np.abs(sol.h - reference.h)) <= 1e-12

    def test_occupation_measure_is_feasible(self, calls, sparse_total):
        # its transposed system stays on LU: the right-hand side 1 is a
        # left eigenvector of I - beta P^T, where BiCGSTAB breaks down
        dmdp = sparse_total
        phi = StationaryPolicy((0,) * dmdp.n_states)
        measure = occupation_measure(dmdp, phi)
        assert calls == {"bicgstab": 0, "lu": 1}
        assert np.max(np.abs(measure.constraint_residuals(dmdp))) <= 1e-10
        assert measure.objective(dmdp) == pytest.approx(
            float(np.sum(policy_evaluate(dmdp, phi))), rel=1e-12
        )

    def test_small_systems_stay_on_lu(self, calls):
        dmdp = hv_instance(0, n=_linalg.DENSE_MAX_N - 1, max_actions=2)
        assert dmdp.n_states == _linalg.DENSE_MAX_N
        howard_pi(dmdp)
        assert calls["bicgstab"] == 0 and calls["lu"] > 0


def broken_bicgstab(kind):
    """A BiCGSTAB that breaks down, stalls, or returns NaN, a wrong answer or
    one whose residual overflows."""
    bicgstab = _linalg._bicgstab

    def run(apply, b):
        if kind == "breakdown":  # A = 0 gives rtilde . A p = 0 at the first step
            return bicgstab(lambda v: 0.0 * v, b)
        x = bicgstab(apply, b)
        return {
            "stall": None,
            "nan": np.full_like(x, np.nan),
            "wrong": x + 1e-6,
            "overflow": np.full_like(x, 1e308),
        }[kind]
    return run


class TestKrylovFallback:
    """Every failure of the sparse path returns the dense LU bits, with no
    warning.  Run in this process and again under python -O."""

    def test_missed_bound_at_large_K_returns_the_lu_bits(self, monkeypatch):
        # K = 1e5: the residual's round-off alone, over 1 - beta = 1e-5,
        # exceeds the 1e-12 bound
        dmdp = reduced(gen_transient(sparse_spec(Substochastic((1e-5, 1e-5)), cost_range=(1.0, 2.0))))
        calls = counted_calls(monkeypatch)
        assert 1.0 / (1.0 - dmdp.beta) >= 1e5
        phi = StationaryPolicy((0,) * dmdp.n_states)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = policy_evaluate(dmdp, phi)
        assert calls == {"bicgstab": 1, "lu": 1}
        assert np.array_equal(v, on_lu(monkeypatch, policy_evaluate, dmdp, phi))

    @pytest.mark.parametrize("kind", ["breakdown", "stall", "nan", "wrong", "overflow"])
    def test_a_failed_run_returns_the_lu_bits(self, monkeypatch, calls, kind, sparse_total):
        dmdp = sparse_total
        phi = StationaryPolicy((0,) * dmdp.n_states)
        monkeypatch.setattr(_linalg, "_bicgstab", broken_bicgstab(kind))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = policy_evaluate(dmdp, phi)
        assert calls["lu"] == 1
        assert np.array_equal(v, on_lu(monkeypatch, policy_evaluate, dmdp, phi))


def test_krylov_fallback_under_python_O():
    src = str(Path(_linalg.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{__file__}::TestKrylovFallback"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1].startswith("6 passed")
