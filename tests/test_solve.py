import math

import numpy as np
import pytest
from scipy.optimize import linprog

from mdpreduce import (
    DiscountedMdp,
    GenSpec,
    StationaryPolicy,
    Substochastic,
    build_hv,
    dantzig_pi,
    emit_lp,
    format_report,
    gen_transient,
    howard_pi,
    maximize_lifetime,
    occupation_measure,
    optimal_actions,
    policy_evaluate,
    value_iteration,
)
from mdpreduce.solve import solve
from conftest import build_mdp


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


class TestFormatReport:
    def test_contains_all_fields(self, geometric_hv):
        text = format_report(howard_pi(geometric_hv))
        for key in (
            "method:",
            "iterations:",
            "bellman_residual:",
            "elapsed_s:",
            "values:",
            "policy:",
            "optimal_actions:",
        ):
            assert key in text
