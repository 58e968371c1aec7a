import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mdpreduce
from mdpreduce import _linalg, transience
from mdpreduce import (
    ActionData,
    GenSpec,
    HtCertificate,
    NegativeInverseEntry,
    NonTransienceWitness,
    NotConvergedWithinBudget,
    RateMdp,
    SingularSystem,
    StationaryPolicy,
    Stochastic,
    Substochastic,
    TransienceCertificate,
    build_hv,
    certificate_residual,
    check_ht,
    enumerate_policies,
    evaluate_lifetime,
    find_ht_states,
    gen_ht,
    gen_transient,
    maximize_lifetime,
    mu_value_iteration,
    policy_spectral_radius,
    truncate_at_state,
    vi_certificate,
)
from mdpreduce.solve import policy_evaluate
from conftest import on_lu


def random_transient(seed, n=4, max_actions=3, kill=(0.25, 0.6)):
    return gen_transient(
        GenSpec(
            n_states=n,
            max_actions=max_actions,
            rate_class=Substochastic(kill_prob_range=kill),
            seed=seed,
        )
    )


class TestEvaluateLifetime:
    def test_geometric_series(self, geometric):
        tau = evaluate_lifetime(geometric, StationaryPolicy((0,)))
        assert tau == pytest.approx([2.0], abs=1e-12)

    def test_dies_after_one_step(self, mk):
        tau = evaluate_lifetime(mk([[(1.0, [])]]), StationaryPolicy((0,)))
        assert tau.tolist() == [1.0]

    def test_unit_self_loop_is_singular(self, mk):
        witness = evaluate_lifetime(mk([[(1.0, [(0, 1.0)])]]), StationaryPolicy((0,)))
        assert isinstance(witness, NonTransienceWitness)
        assert isinstance(witness.evidence, SingularSystem)

    def test_expanding_rate_has_negative_inverse(self, mk):
        mdp = mk([[(1.0, [(0, 2.0)])]])
        witness = evaluate_lifetime(mdp, StationaryPolicy((0,)))
        assert isinstance(witness, NonTransienceWitness)
        assert witness.evidence == NegativeInverseEntry(state=0)
        assert policy_spectral_radius(mdp, witness.policy) >= 1.0 - 1e-9

    def test_tau_at_least_one_entrywise(self):
        for seed in range(20):
            mdp = random_transient(seed)
            for phi in enumerate_policies(mdp):
                tau = evaluate_lifetime(mdp, phi)
                assert np.all(tau >= 1.0 - 1e-12)


class TestMaximizeLifetime:
    def test_picks_the_longer_lived_action(self, mk):
        mdp = mk([[(1.0, [(0, 0.5)]), (1.0, [(0, 0.9)])]])
        cert = maximize_lifetime(mdp)
        assert isinstance(cert, TransienceCertificate)
        assert cert.mu == pytest.approx([10.0], abs=1e-9)
        assert cert.K == pytest.approx(10.0, abs=1e-9)

    def test_terminates_when_round_off_beats_the_incumbent(self):
        # Every row kills with probability 3e-4, so K = 1/3e-4.  Once the
        # policy settles, the incumbent's own 1 + R tau still beats tau by
        # about 2e-12 of round-off; the iteration must stop anyway.  It runs
        # in a child process so that a relapse fails here instead of hanging.
        code = (
            "from mdpreduce import GenSpec, Substochastic, gen_transient, maximize_lifetime\n"
            "spec = GenSpec(n_states=60, max_actions=4, density=0.6,\n"
            "               rate_class=Substochastic((3e-4, 3e-4)), seed=0)\n"
            "print(repr(maximize_lifetime(gen_transient(spec)).K))\n"
        )
        src = str(Path(mdpreduce.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert float(done.stdout) == pytest.approx(1.0 / 3e-4, rel=1e-9)

    def test_stops_after_as_many_rounds_as_policies(self, mk, monkeypatch):
        # an improvement step that cycles between the two policies forever
        # must be cut off after two rounds, since only two policies exist
        mdp = mk([[(1.0, [(0, 0.5)]), (1.0, [(0, 0.9)])]])
        seen = []

        def flip(table, rows, tau):
            # the one state's actions are rows 0 and 1; never None, so
            # every round switches
            seen.append(int(rows[0]))
            return 1 - rows

        monkeypatch.setattr(transience, "_greedy_lifetime_improvement", flip)
        with pytest.raises(NotConvergedWithinBudget, match="after 2 rounds"):
            maximize_lifetime(mdp)
        assert seen == [0, 1]

    def test_more_policies_than_str_can_print(self, mk):
        # 10 ** 4301 policies: the round cap's message must not be built
        # unless it is raised, since str() stops at 4300 digits
        cert = maximize_lifetime(mk([[(1.0, [])] * 10] * 4301))
        assert cert.K == 1.0 and cert.mu.shape == (4301,)

    def test_stochastic_cycle_is_not_transient(self, two_cycle):
        witness = maximize_lifetime(two_cycle)
        assert isinstance(witness, NonTransienceWitness)
        assert policy_spectral_radius(two_cycle, witness.policy) >= 1.0 - 1e-9

    def test_rate_zero_gives_k_one(self, mk):
        cert = maximize_lifetime(mk([[(1.0, [])]]))
        assert cert.mu.tolist() == [1.0] and cert.K == 1.0

    def test_witness_found_even_from_transient_start(self, mk):
        # action 0 is transient everywhere; action 1 at state 0 is a unit
        # self-loop the greedy improvement must walk into
        mdp = mk([[(0.0, [(0, 0.5)]), (0.0, [(0, 1.0)])]])
        witness = maximize_lifetime(mdp)
        assert isinstance(witness, NonTransienceWitness)
        assert witness.policy == StationaryPolicy((1,))

    def test_certificate_fixed_point_and_bounds(self):
        for seed in range(30):
            mdp = random_transient(seed)
            cert = maximize_lifetime(mdp)
            assert isinstance(cert, TransienceCertificate)
            # inequality side: mu(x) >= 1 + sum q(y|x,a) mu(y) for all (x, a)
            assert certificate_residual(mdp, cert.mu) <= 1e-9
            # fixed-point side: equality at the maximizing action
            best = np.full(mdp.n_states, -np.inf)
            for x, acts in enumerate(mdp.actions):
                for act in acts:
                    val = 1.0 + sum(r * cert.mu[y] for y, r in act.transitions)
                    best[x] = max(best[x], val)
            assert np.max(np.abs(best - cert.mu)) <= 1e-9
            assert np.all(cert.mu >= 1.0) and cert.K == cert.mu.max()

    def test_mu_dominates_every_policy_lifetime(self):
        for seed in range(20):
            mdp = random_transient(seed)
            cert = maximize_lifetime(mdp)
            for phi in enumerate_policies(mdp):
                tau = evaluate_lifetime(mdp, phi)
                assert np.all(tau <= cert.mu + 1e-9)

    def test_beta_scaling_keeps_the_bound(self):
        from conftest import build_mdp

        for seed in range(10):
            mdp = random_transient(seed)
            K = maximize_lifetime(mdp).K
            for beta in (0.25, 0.5, 1.0):
                scaled = build_mdp(
                    [
                        [
                            (act.cost, [(y, beta * r) for y, r in act.transitions])
                            for act in acts
                        ]
                        for acts in mdp.actions
                    ]
                )
                cert = maximize_lifetime(scaled)
                assert isinstance(cert, TransienceCertificate)
                assert cert.K <= K + 1e-9


class TestMuValueIteration:
    def test_geometric_converges(self, geometric):
        result = mu_value_iteration(geometric, tol=1e-10)
        assert result.mu_approx == pytest.approx([2.0], abs=1e-9)

    def test_rate_zero_stops_at_iteration_two(self, mk):
        result = mu_value_iteration(mk([[(1.0, [])]]), tol=1e-10)
        assert result.mu_approx.tolist() == [1.0]
        assert result.iterations == 2

    def test_cycle_exhausts_budget(self, two_cycle):
        with pytest.raises(NotConvergedWithinBudget):
            mu_value_iteration(two_cycle, tol=1e-10, max_iter=1000)

    def test_iterates_below_exact_mu_and_convergent(self):
        for seed in range(15):
            mdp = random_transient(seed)
            exact = maximize_lifetime(mdp)
            approx = mu_value_iteration(mdp, tol=1e-10)
            assert np.all(approx.mu_approx <= exact.mu + 1e-12)
            assert np.max(np.abs(approx.mu_approx - exact.mu)) <= 1e-8

    def test_vi_certificate_satisfies_inequality(self):
        mdp = random_transient(3)
        cert = vi_certificate(mdp, tol=1e-10)
        assert cert.method.startswith("value-iteration")
        assert certificate_residual(mdp, cert.mu) <= 1e-9

    @pytest.mark.parametrize("function", [mu_value_iteration, vi_certificate])
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"max_iter": 0}, "max_iter must be at least 1"),
            ({"tol": -1.0}, "tol must be finite and positive"),
            ({"tol": math.nan}, "tol must be finite and positive"),
            ({"tol": math.inf}, "tol must be finite and positive"),
        ],
    )
    def test_a_bad_budget_raises(self, geometric, function, kwargs, message):
        with pytest.raises(ValueError, match=message):
            function(geometric, **kwargs)


class TestTruncateAtState:
    def test_cycle_truncation(self, two_cycle):
        truncated = truncate_at_state(two_cycle, 0)
        assert truncated.actions[0][0].transitions == ((1, 1.0),)
        assert truncated.actions[1][0].transitions == ()

    def test_no_transitions_into_ell_is_identity(self, mk):
        mdp = mk([[(0.0, [(1, 0.5)])], [(0.0, [(1, 0.25)])]])
        assert truncate_at_state(mdp, 0) == mdp
        # nothing to cut: the table itself, so build_hvag truncates once
        assert mdp.packed.without_column(0) is mdp.packed
        cut = mdp.packed.without_column(1)
        assert cut is not mdp.packed and cut.without_column(1) is cut

    def test_self_loop_removed(self, geometric):
        assert truncate_at_state(geometric, 0).actions[0][0].transitions == ()

    def test_index_out_of_range(self, geometric):
        with pytest.raises(ValueError, match="out of range"):
            truncate_at_state(geometric, 5)


class TestCheckHt:
    def test_cycle_certificate(self, two_cycle):
        cert = check_ht(two_cycle, 0)
        assert isinstance(cert, HtCertificate)
        assert cert.K_star == pytest.approx(2.0, abs=1e-12)
        assert cert.mu == pytest.approx([2.0, 1.0], abs=1e-12)

    def test_absorbing_self_loop(self, mk):
        cert = check_ht(mk([[(1.0, [(0, 1.0)])]]), 0)
        assert isinstance(cert, HtCertificate)
        assert cert.K_star == 1.0 and cert.mu.tolist() == [1.0]

    def test_policy_avoiding_ell_forever(self, mk):
        mdp = mk(
            [
                [(0.0, [(1, 1.0)]), (0.0, [(0, 1.0)])],
                [(0.0, [(2, 1.0)])],
                [(0.0, [(0, 1.0)])],
            ]
        )
        witness = check_ht(mdp, 2)
        assert isinstance(witness, NonTransienceWitness)
        assert witness.policy[0] == 1
        truncated = truncate_at_state(mdp, 2)
        assert policy_spectral_radius(truncated, witness.policy) >= 1.0 - 1e-9

    def test_ht_bound_from_truncated_constant(self):
        # substochastic + HT at ell: K* is at most 1 + the worst mu away from ell
        for seed in range(15):
            mdp = random_transient(seed)
            for ell in range(mdp.n_states):
                cert = check_ht(mdp, ell)
                assert isinstance(cert, HtCertificate)
                away = [cert.mu[x] for x in range(mdp.n_states) if x != ell]
                if away:
                    assert cert.K_star <= max(away) + 1.0 + 1e-9


class TestFindHtStates:
    def test_cycle_both_states_qualify(self, two_cycle):
        assert find_ht_states(two_cycle) == [(0, 2.0), (1, 2.0)]

    def test_fully_absorbing_single_state(self, mk):
        assert find_ht_states(mk([[(1.0, [(0, 1.0)])]])) == [(0, 1.0)]

    def test_transient_instance_qualifies_everywhere(self, mk):
        # truncating a transient instance keeps it transient, so every
        # state qualifies
        mdp = mk(
            [
                [(0.0, [(0, 0.25), (1, 0.25)])],
                [(0.0, [(0, 0.25), (1, 0.25)])],
            ]
        )
        hits = find_ht_states(mdp)
        assert [ell for ell, _ in hits] == [0, 1]

    def test_sorted_by_k_star(self, mk):
        # reaching ell=1 is slower than reaching ell=0 from everywhere
        mdp = mk(
            [
                [(0.0, [(1, 0.5)])],
                [(0.0, [(0, 1.0)])],
            ]
        )
        hits = find_ht_states(mdp)
        assert hits == sorted(hits, key=lambda pair: (pair[1], pair[0]))


# -- Lifetime systems above _linalg.DENSE_MAX_N ------------------------------


@pytest.fixture(scope="module")
def total_dense():
    """The benchmark's total-dense family: n = 300, dense rows, kill 0.1-0.3."""
    return gen_transient(GenSpec(n_states=300, max_actions=5, density=0.6,
                                 rate_class=Substochastic((0.1, 0.3)), seed=4))


@pytest.fixture(scope="module")
def average_sparse_truncated():
    """The benchmark's average-sparse family, truncated at its target 0 as
    check_ht does: n = 600, about 10 targets per row."""
    mdp = gen_ht(GenSpec(n_states=600, max_actions=5, density=10 / 600,
                         rate_class=Stochastic(), seed=4), 0, alpha=0.1)
    return truncate_at_state(mdp, 0)


class TestKrylovLifetime:
    @pytest.mark.parametrize("family", ["total_dense", "average_sparse_truncated"])
    def test_agrees_with_a_dense_solve(self, request, calls, family):
        mdp = request.getfixturevalue(family)
        assert mdp.n_states > _linalg.DENSE_MAX_N
        rng = np.random.default_rng(0)
        for _ in range(5):
            phi = StationaryPolicy(tuple(int(rng.integers(mdp.n_actions(x))) for x in range(mdp.n_states)))
            calls.update(bicgstab=0, lu=0)
            tau = evaluate_lifetime(mdp, phi)
            assert calls["bicgstab"] == 1 and calls["lu"] == 0
            P = mdp.packed.policy(phi)[0].toarray()
            reference = np.linalg.solve(np.eye(mdp.n_states) - P, np.ones(mdp.n_states))
            assert np.max(np.abs(tau - reference) / reference) <= 1e-13

    def test_certificate_matches_the_lu(self, monkeypatch, calls, total_dense):
        cert = maximize_lifetime(total_dense)
        assert calls["lu"] == 0
        reference = on_lu(monkeypatch, maximize_lifetime, total_dense)
        assert cert.K == pytest.approx(reference.K, rel=1e-13)
        assert np.max(np.abs(cert.mu - reference.mu) / reference.mu) <= 1e-13

    def test_supercritical_witness_comes_from_the_lu(self, monkeypatch, calls):
        # every row sums to 1.05, so tau = (I - Q)^-1 1 = -20: BiCGSTAB's
        # answer is not positive, and the verdict is the LU's
        base = gen_transient(GenSpec(n_states=300, max_actions=2, density=10 / 300,
                                     rate_class=Substochastic((0.5, 0.5)), seed=0))
        mdp = RateMdp(300, tuple(
            tuple(ActionData(a.cost, tuple((y, 2.1 * q) for y, q in a.transitions)) for a in acts)
            for acts in base.actions
        ))
        assert np.all(np.abs(mdp.packed.R.sum(axis=1) - 1.05) <= 1e-12)
        witness = maximize_lifetime(mdp)
        assert calls["bicgstab"] == 1 and calls["lu"] == 1
        assert witness == on_lu(monkeypatch, maximize_lifetime, mdp)
        assert witness.evidence == NegativeInverseEntry(state=0)

    def test_unequal_mass_into_ell_takes_several_rounds(self, monkeypatch, calls):
        # with exactly alpha into ell every truncated policy lives 1/alpha
        # and the checker stops after one round; drawn from [alpha, 3 alpha]
        # the lifetimes differ and the rounds run on BiCGSTAB alone
        spec = GenSpec(n_states=600, max_actions=5, density=10 / 600,
                       rate_class=Stochastic(), seed=31)
        mdp = gen_ht(spec, 0, alpha=0.1, alpha_max=0.3)
        into_ell = mdp.packed.R[:, 0].toarray().ravel()
        assert np.all((into_ell >= 0.1 - 1e-12) & (into_ell <= 0.3 + 1e-12))
        assert np.ptp(into_ell) > 0.1
        rounds = []
        improve = transience._greedy_lifetime_improvement

        def counted(*args):
            rounds.append(1)
            return improve(*args)

        monkeypatch.setattr(transience, "_greedy_lifetime_improvement", counted)
        cert = check_ht(mdp, 0)
        assert len(rounds) >= 3
        assert calls == {"bicgstab": len(rounds), "lu": 0}
        reference = on_lu(monkeypatch, check_ht, mdp, 0)
        assert np.max(np.abs(cert.mu - reference.mu) / reference.mu) <= 1e-13
        assert cert.K_star == pytest.approx(reference.K_star, rel=1e-13)

    def test_alpha_max_is_checked_and_off_by_default(self):
        spec = GenSpec(n_states=5, max_actions=2, rate_class=Stochastic(), seed=2)
        with pytest.raises(ValueError, match="alpha_max"):
            gen_ht(spec, 0, alpha=0.2, alpha_max=0.1)
        with pytest.raises(ValueError, match="alpha_max"):
            gen_ht(spec, 0, alpha=0.2, alpha_max=1.5)
        assert gen_ht(spec, 0, alpha=0.2, alpha_max=None) == gen_ht(spec, 0, alpha=0.2)
        assert gen_ht(spec, 0, alpha=0.2, alpha_max=0.6) != gen_ht(spec, 0, alpha=0.2)

    @pytest.mark.parametrize("kind", ["breakdown", "stall", "nan", "negative", "wrong"])
    def test_a_failed_run_never_reads_as_a_witness(self, monkeypatch, calls, kind, total_dense):
        bicgstab = _linalg._bicgstab

        def broken(apply, b):
            if kind == "breakdown":  # A = 0 gives rtilde . A p = 0 at the first step
                return bicgstab(lambda v: 0.0 * v, b)
            x = bicgstab(apply, b)
            return {
                "stall": None,
                "nan": np.full_like(x, np.nan),
                "negative": -x,
                "wrong": x * (1.0 + 1e-12),
            }[kind]

        monkeypatch.setattr(_linalg, "_bicgstab", broken)
        cert = maximize_lifetime(total_dense)
        assert isinstance(cert, TransienceCertificate)
        assert calls["lu"] > 0
        reference = on_lu(monkeypatch, maximize_lifetime, total_dense)
        assert np.array_equal(cert.mu, reference.mu)

    @pytest.mark.parametrize("system", ["lifetime", "discounted"])
    def test_a_stall_stops_at_the_cap_and_returns_the_lu_bits(self, monkeypatch, calls, system):
        # a slow cycle with unequal rates: uncapped, BiCGSTAB ran 556
        # iterations on its lifetime system and reported convergence at a
        # residual of 5e-6
        rates = np.linspace(0.9, 0.999, 300).tolist()
        mdp = RateMdp(300, tuple((ActionData(1.0 + x % 3, (((x + 1) % 300, rate),)),)
                                 for x, rate in enumerate(rates)))
        if system == "lifetime":
            evaluate, instance = evaluate_lifetime, mdp
        else:
            evaluate, instance = policy_evaluate, build_hv(mdp, on_lu(monkeypatch, maximize_lifetime, mdp))
        phi = StationaryPolicy((0,) * instance.n_states)
        applied, bicgstab = [], _linalg._bicgstab

        def counted(apply, b):
            applied.append(0)

            def step(v):
                applied[-1] += 1
                return apply(v)
            return bicgstab(step, b)

        monkeypatch.setattr(_linalg, "_bicgstab", counted)
        calls["lu"] = 0
        x = evaluate(instance, phi)
        # two applications of I - beta P per full iteration
        assert applied == [2 * _linalg.KRYLOV_MAXITER] and calls["lu"] == 1
        assert np.array_equal(x, on_lu(monkeypatch, evaluate, instance, phi))


class TestMaskedCertificateResidual:
    def test_same_bits_as_on_the_truncated_table(self):
        # certificate_residual zeroes mu(ell) instead of dropping the column
        rng = np.random.default_rng(5)
        for seed, n in ((1, 3), (2, 6), (3, 15), (4, 40)):
            mdp = gen_ht(GenSpec(n_states=n, max_actions=3, density=0.6,
                                 rate_class=Stochastic(), seed=seed), 0, alpha=0.2)
            for mu in (check_ht(mdp, 0).mu, rng.uniform(1.0, 10.0, n),
                       rng.uniform(1.0, 1e6, n)):
                for ell in range(-1, n + 1):
                    cut = mdp.packed.without_column(ell)
                    expected = float(np.max(1.0 + cut.R @ mu - mu[cut.owner]))
                    got = certificate_residual(mdp, mu, exclude=ell)
                    assert got.hex() == expected.hex()
