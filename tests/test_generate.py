import hashlib

import numpy as np
import pytest

from mdpreduce import (
    GenSpec,
    HtCertificate,
    RateClass,
    Stochastic,
    Substochastic,
    TransienceCertificate,
    check_ht,
    classify_rates,
    dumps_instance,
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

    def test_the_last_rate_completes_an_in_order_sum(self):
        # Python's sum compensates from 3.12 on, which moves the last bit
        # of many of these rows: the rates, and the pinned files below,
        # would then depend on the interpreter
        rows = 0
        for seed in range(20):
            mdp = gen_ht(GenSpec(8, 3, Stochastic(), density=0.6, seed=seed), 0, minorize=False)
            for acts in mdp.actions:
                for act in acts:
                    rates = [r for _, r in act.transitions]
                    total = 0.0
                    for r in rates[:-1]:
                        total += r
                    assert rates[-1] == 1.0 - total
                    assert act.row_sum() == total + rates[-1]
                    rows += 1
        assert rows > 200


class TestGenSpec:
    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError, match="kill_prob_range"):
            Substochastic(kill_prob_range=(0.0, 0.5))
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


# The instance files the generators write, pinned by SHA-256 of
# ``dumps_instance``: dense and sparse transient draws, and stochastic draws
# with and without minorization (seed 0 of the last is rejected once).
GENERATED = {
    "transient-dense": lambda seed: gen_transient(
        GenSpec(30, 3, Substochastic((0.2, 0.4)), density=0.6, seed=seed)
    ),
    "transient-sparse": lambda seed: gen_transient(
        GenSpec(200, 2, Substochastic((0.01, 0.05)), density=10 / 200, seed=seed)
    ),
    "ht-minorized": lambda seed: gen_ht(
        GenSpec(30, 3, Stochastic(), density=0.6, seed=seed), 0, alpha=0.2
    ),
    "ht-rejection": lambda seed: gen_ht(
        GenSpec(8, 2, Stochastic(), density=0.6, seed=seed), 0, minorize=False
    ),
}

GENERATED_DIGESTS = {
    ("transient-dense", 0): "c4a4d619a5beffec7e02785f138b14743ffd37de867802d7d0b30359f1ef788a",
    ("transient-dense", 1): "cd25684acd602647bafb609fe50f7e10fc60897b44cf4edab97fcaf0902df3ce",
    ("transient-dense", 2): "5d65b9fada65100b7c1b91906f0fbeeaa4dc80d8ca2fc7fd290ccb5aee616ff5",
    ("transient-sparse", 0): "af3b822354215432899846a11abad4c4e1aa6040c4ce7f7f64da175df35ecb5f",
    ("transient-sparse", 1): "7b623df0859cace574c1e003a9be13cf38c48f4d50a1d1d81556577426a9ced8",
    ("transient-sparse", 2): "0370a3c505d50d577443b45b9e570ff94bdb3f873adfd26d4f7a73cb2cc7a6fd",
    ("ht-minorized", 0): "93f616888e4f5971e87ce5cd4c71faffcef75289810b473888c389ca062c74d9",
    ("ht-minorized", 1): "91a337e63f148334b19d972aed97c5472595212ef31b0cf9b53d48cfd00e150b",
    ("ht-minorized", 2): "54639de400149a28cefc4eb63fb7ac4033dc3aefd0ca8e4eeef1d6f9a3cfc0fe",
    ("ht-rejection", 0): "186da215183d508ba0b4c9835914ef4d63fd39803d1a043d279a7e824a5a9b58",
    ("ht-rejection", 1): "52d5e1f5f8223536073aaf784c9046b1ea7a9ba24d2c97c4aa32dd196b82f419",
    ("ht-rejection", 2): "876f91a2a8d026ddc92ca7b7beebaaabd8614c74dd11e075a96a9019b456dd86",
}


@pytest.mark.parametrize("family, seed", list(GENERATED_DIGESTS))
def test_generated_files_are_byte_identical(family, seed):
    text = dumps_instance(GENERATED[family](seed))
    assert hashlib.sha256(text.encode()).hexdigest() == GENERATED_DIGESTS[(family, seed)]
