"""Near-critical inputs: spectral radius near 1 and K up to about 1e6.

Runs that could loop or crawl if a tolerance is wrong go to a child
process with a timeout, so that a relapse fails here instead of hanging.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mdpreduce
from mdpreduce import (
    AcoeResidualError,
    ActionData,
    AverageSolution,
    GenSpec,
    NegativeInverseEntry,
    NonTransienceWitness,
    NotConvergedWithinBudget,
    RateMdp,
    StationaryPolicy,
    Substochastic,
    TransienceCertificate,
    build_hv,
    certificate_residual,
    evaluate_lifetime,
    gen_transient,
    maximize_lifetime,
    policy_spectral_radius,
    solve_average_cost,
    verify_acoe,
)
from mdpreduce.solve import solve
from conftest import mm1n_queue

TIMEOUT_S = 60


def spec(kill):
    """Every row kills with probability ``kill``, so every policy lives
    1/kill steps and K = 1/kill.  Its repr rebuilds it in a child."""
    return GenSpec(n_states=60, max_actions=4, density=0.6,
                   rate_class=Substochastic((kill, kill)), seed=0)


def run_child(code):
    """Run ``code`` in a fresh interpreter and decode the JSON it prints."""
    src = str(Path(mdpreduce.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def cycle(mk, rate):
    """Two states in a cycle: 0 -> 1 at rate 1, 1 -> 0 at ``rate``."""
    return mk([[(1.0, [(1, 1.0)])], [(1.0, [(0, rate)])]])


class TestLifetimeNearCritical:
    def test_terminates_when_every_policy_lives_1e6_steps(self):
        # Every policy has tau = 1e6, and 1 + R tau beats the incumbent's
        # tau by 3 to 7 ulps of 1e6.  An absolute 1e-12 threshold took that
        # round-off for a gain and switched 7 to 18 states every round.
        code = (
            "import json\n"
            "from mdpreduce import GenSpec, Substochastic, gen_transient, maximize_lifetime\n"
            f"print(json.dumps(maximize_lifetime(gen_transient({spec(1e-6)!r})).K))\n"
        )
        assert run_child(code) == pytest.approx(1e6, rel=1e-9)

    def test_cycle_just_below_one_is_certified(self, mk):
        mdp = cycle(mk, 1.0 - 1e-6)
        cert = maximize_lifetime(mdp)
        assert isinstance(cert, TransienceCertificate)
        assert cert.K == pytest.approx(2e6, rel=1e-9)
        assert cert.mu == pytest.approx([2e6, 2e6 - 1.0], rel=1e-9)
        assert certificate_residual(mdp, cert.mu) <= 1e-9

    def test_cycle_just_above_one_is_a_witness(self, mk):
        mdp = cycle(mk, 1.0 + 1e-6)
        witness = maximize_lifetime(mdp)
        assert isinstance(witness, NonTransienceWitness)
        assert isinstance(witness.evidence, NegativeInverseEntry)
        assert policy_spectral_radius(mdp, witness.policy) >= 1.0


    @pytest.mark.parametrize("kill", [1e-4, 1e-6])
    def test_above_the_dense_cap_the_lu_answers(self, kill):
        # at n = 300 each lifetime system first goes to BiCGSTAB, whose
        # residual's round-off at tau = 1/kill misses the 1e-13 test: every
        # answer must then be the LU's, to the bit
        large = GenSpec(n_states=300, max_actions=4, density=0.6,
                        rate_class=Substochastic((kill, kill)), seed=0)
        code = (
            "import json\n"
            "from mdpreduce import GenSpec, Substochastic, _linalg, gen_transient, maximize_lifetime\n"
            f"mdp = gen_transient({large!r})\n"
            "lu, try_solve = [], _linalg.try_solve\n"
            "_linalg.try_solve = lambda a, b: lu.append(1) or try_solve(a, b)\n"
            "K = maximize_lifetime(mdp).K\n"
            "fallbacks = len(lu)\n"
            "_linalg.DENSE_MAX_N = 10**9\n"
            "print(json.dumps([K, maximize_lifetime(mdp).K, fallbacks, len(lu) - fallbacks]))\n"
        )
        K, reference, fallbacks, solves = run_child(code)
        assert K == reference
        assert K == pytest.approx(1.0 / kill, rel=1e-9)
        assert fallbacks == solves


class TestSolveTotalCostAtLargeK:
    @pytest.mark.parametrize("method", ["howard", "dantzig"])
    @pytest.mark.parametrize("kill", [1e-2, 1e-4, 1e-6])
    def test_solves_and_lifts(self, kill, method):
        code = (
            "import json\n"
            "from mdpreduce import GenSpec, Substochastic, gen_transient, solve_total_cost\n"
            f"mdp = gen_transient({spec(kill)!r})\n"
            f"sol = solve_total_cost(mdp, method={method!r})\n"
            "table, v = mdp.packed, sol.values\n"
            "residual = abs(table.state_min(table.c + table.R @ v) - v).max()\n"
            "print(json.dumps([sol.certificate.K, float(residual), float(abs(v).max())]))\n"
        )
        K, residual, scale = run_child(code)
        assert K == pytest.approx(1.0 / kill, rel=1e-9)
        # the lifted values solve the total-cost optimality equation
        assert residual <= 1e-12 * max(scale, 1.0)


    def test_sparse_rows_at_1e6_take_the_slack_relative_to_k(self):
        # 1 + R mu - mu comes out at 1.05e-9 here, round-off a few ulps of
        # K = 1e6 that an absolute 1e-9 slack refused as a violation
        sparse = GenSpec(n_states=400, max_actions=2, density=10 / 400,
                         rate_class=Substochastic((1e-6, 1e-6)), seed=3)
        code = (
            "import json\n"
            "from mdpreduce import GenSpec, Substochastic, certificate_residual\n"
            "from mdpreduce import gen_transient, solve_total_cost\n"
            f"mdp = gen_transient({sparse!r})\n"
            "sol = solve_total_cost(mdp)\n"
            "table, v = mdp.packed, sol.values\n"
            "residual = abs(table.state_min(table.c + table.R @ v) - v).max()\n"
            "cert = certificate_residual(mdp, sol.certificate.mu)\n"
            "print(json.dumps([sol.certificate.K, cert, float(residual), float(abs(v).max())]))\n"
        )
        K, cert, residual, scale = run_child(code)
        assert K == pytest.approx(1e6, rel=1e-9)
        assert 1e-9 < cert <= 1e-12 * K
        assert residual <= 1e-12 * max(scale, 1.0)


class TestAverageCostAtLargeK:
    """The M/M/1/N queue: h grows with K*, and so does the ACOE residual's
    round-off (3.7e-9 at N = 1,500 and 1.5e-8 at N = 3,000), which a fixed
    1e-9 check took for a violation."""

    @pytest.fixture(scope="class", params=[1500, 3000])
    def queue(self, request):
        mdp = mm1n_queue(request.param)
        return mdp, solve_average_cost(mdp, 0)

    def test_w_is_the_closed_form(self, queue):
        mdp, result = queue
        x = np.arange(mdp.n_states)
        pi = 0.8**x / np.sum(0.8**x)
        assert result.solution.w == pytest.approx(float(x @ pi), rel=1e-13, abs=0.0)

    def test_h_shifted_past_its_cut_fails(self, queue):
        mdp, result = queue
        sol = result.solution
        bound = result.certificate.mu * (1.0 + result.discounted.beta) * result.report.error_bound
        cut = mdp.packed.cut(sol.w + sol.h, sol.h, 1.0, bound)
        x = int(np.argmax(cut))
        h = sol.h.copy()
        h[x] += 2.0 * cut[x]
        with pytest.raises(AcoeResidualError):
            verify_acoe(mdp, AverageSolution(sol.w, h, 0), tol=cut)


def test_vi_raises_when_out_of_iterations():
    mdp = gen_transient(spec(1e-2))
    dmdp = build_hv(mdp, maximize_lifetime(mdp))
    with pytest.raises(NotConvergedWithinBudget, match="after 3 iterations"):
        solve(dmdp, method="vi", max_iter=3)


@st.composite
def policies(draw):
    """Nonnegative 1- to 4-state matrices with row sums up to 1.5."""
    n = draw(st.integers(1, 4))
    Q = np.array(draw(st.lists(
        st.lists(st.floats(0.0, 1.5), min_size=n, max_size=n), min_size=n, max_size=n,
    )))
    return Q * (1.5 / np.maximum(Q.sum(axis=1, keepdims=True), 1.5))


class TestOneSolveVerdict:
    @settings(max_examples=300, deadline=None)
    @given(policies())
    def test_tau_exactly_when_the_spectral_radius_is_below_one(self, Q):
        rho = float(np.abs(np.linalg.eigvals(Q)).max())
        assume(abs(rho - 1.0) >= 1e-6)
        rows = [ActionData(0.0, tuple((y, q) for y, q in enumerate(row) if q)) for row in Q.tolist()]
        mdp = RateMdp(len(Q), tuple((row,) for row in rows))
        result = evaluate_lifetime(mdp, StationaryPolicy((0,) * len(Q)))
        if rho < 1.0:
            assert not isinstance(result, NonTransienceWitness)
            assert np.all(result >= 1.0 - 1e-12)
        else:
            assert isinstance(result, NonTransienceWitness)
            if isinstance(result.evidence, NegativeInverseEntry):
                row = np.linalg.inv(np.eye(len(Q)) - Q)[result.evidence.state]
                assert row.min() < 0.0
