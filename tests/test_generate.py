import numpy as np
import pytest

from mdpreduce import (
    GeneralRates,
    GenSpec,
    HtCertificate,
    RateClass,
    Stochastic,
    Substochastic,
    TransienceCertificate,
    check_ht,
    classify_rates,
    gen_ht,
    gen_transient,
    maximize_lifetime,
    validate,
)
from mdpreduce.generate import _pick_targets


def transient_spec(seed, kill=(0.5, 0.8)):
    return GenSpec(
        n_states=4,
        max_actions=3,
        rate_class=Substochastic(kill_prob_range=kill),
        seed=seed,
    )


def stochastic_spec(seed):
    return GenSpec(n_states=4, max_actions=3, rate_class=Stochastic(), seed=seed)


class TestGenTransient:
    def test_half_kill_bounds_k_by_two(self):
        for seed in range(20):
            cert = maximize_lifetime(gen_transient(transient_spec(seed)))
            assert isinstance(cert, TransienceCertificate)
            assert cert.K <= 2.0 + 1e-12

    def test_small_kill_bounds_k_by_hundred(self):
        cert = maximize_lifetime(
            gen_transient(transient_spec(3, kill=(0.01, 0.02)))
        )
        assert cert.K <= 100.0 + 1e-9

    def test_same_seed_same_instance(self):
        assert gen_transient(transient_spec(11)) == gen_transient(transient_spec(11))
        assert gen_transient(transient_spec(11)) != gen_transient(transient_spec(12))

    def test_every_output_is_valid_and_certifies(self):
        for seed in range(50):
            mdp = gen_transient(transient_spec(seed, kill=(0.2, 0.6)))
            assert validate(mdp).ok
            assert classify_rates(mdp) is not RateClass.GENERAL_RATES
            assert isinstance(maximize_lifetime(mdp), TransienceCertificate)

    def test_requires_substochastic_class(self):
        spec = GenSpec(n_states=2, max_actions=1, rate_class=Stochastic(), seed=0)
        with pytest.raises(ValueError, match="Substochastic"):
            gen_transient(spec)


class TestGenHt:
    def test_alpha_bounds_k_star(self):
        for seed in range(20):
            mdp = gen_ht(stochastic_spec(seed), 0, alpha=0.5)
            cert = check_ht(mdp, 0)
            assert isinstance(cert, HtCertificate)
            assert cert.K_star <= 2.0 + 1e-12

    def test_alpha_one_collapses_to_ell(self):
        mdp = gen_ht(stochastic_spec(4), 1, alpha=1.0)
        for acts in mdp.actions:
            for act in acts:
                assert act.transitions == ((1, 1.0),)
        cert = check_ht(mdp, 1)
        assert cert.K_star == 1.0 and np.all(cert.mu == 1.0)

    def test_rows_sum_to_one(self):
        for seed in range(30):
            mdp = gen_ht(stochastic_spec(seed), 0, alpha=0.2)
            assert validate(mdp).ok
            assert classify_rates(mdp) is RateClass.STOCHASTIC
            R = mdp.packed.R
            for x, acts in enumerate(mdp.actions):
                for a, act in enumerate(acts):
                    assert abs(act.row_sum() - 1.0) <= 1e-12
                    assert R[mdp.packed.row(x, a), 0] >= 0.2 - 1e-12

    def test_every_output_certifies(self):
        for seed in range(50):
            mdp = gen_ht(stochastic_spec(seed), 2, alpha=0.2)
            assert isinstance(check_ht(mdp, 2), HtCertificate)

    def test_same_seed_same_instance(self):
        assert gen_ht(stochastic_spec(7), 0) == gen_ht(stochastic_spec(7), 0)

    def test_rejection_mode_certifies_without_minorization(self):
        mdp = gen_ht(stochastic_spec(13), 0, minorize=False)
        assert classify_rates(mdp) is RateClass.STOCHASTIC
        assert isinstance(check_ht(mdp, 0), HtCertificate)
        # not every action needs mass into ell in this mode
        assert gen_ht(stochastic_spec(13), 0, minorize=False) == mdp

    def test_requires_stochastic_class(self):
        with pytest.raises(ValueError, match="Stochastic"):
            gen_ht(transient_spec(0), 0)


class TestGenSpec:
    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError, match="kill_prob_range"):
            Substochastic(kill_prob_range=(0.0, 0.5))
        with pytest.raises(ValueError, match="row_sum_range"):
            GeneralRates(row_sum_range=(2.0, 1.0))
        with pytest.raises(ValueError, match="density"):
            GenSpec(n_states=2, max_actions=1, density=0.0)
        with pytest.raises(ValueError, match="cost_range"):
            GenSpec(n_states=2, max_actions=1, cost_range=(1.0, -1.0))


class TestPickTargets:
    @pytest.mark.parametrize(
        "n, density, seed",
        [(1, 0.5, 0), (7, 0.3, 1), (60, 0.6, 2), (600, 10 / 600, 3), (100, 1.0, 4), (40, 0.01, 5)],
    )
    def test_draws_what_one_scalar_draw_per_state_drew(self, n, density, seed):
        # the generators' output, pinned by the golden CLI digests, rests on
        # the vector draw giving the same doubles as n scalar draws
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            want = [y for y in range(n) if slow.random() < density]
            assert _pick_targets(fast, n, density) == want
        assert fast.random() == slow.random()
