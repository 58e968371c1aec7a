"""Tests of the benchmark itself: each correctness check rejects a perturbed
answer, the metric arithmetic is right, the traced run's spans cover the
pipeline, and the command keeps its output contract.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bench_checks as checks
import bench_trace
import bench_workloads as workloads
from mdpreduce import (
    GenSpec,
    Stochastic,
    Substochastic,
    brute_force_total,
    build_hv,
    dumps_discounted,
    dumps_instance,
    emit_lp,
    gen_ht,
    gen_transient,
    maximize_lifetime,
    pipelines,
    solve_average_cost,
    solve_total_cost,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _transient(n=6, seed=3):
    spec = GenSpec(n_states=n, max_actions=3, rate_class=Substochastic((0.2, 0.5)), seed=seed)
    return gen_transient(spec)


def _ht(n=8, seed=5):
    spec = GenSpec(n_states=n, max_actions=3, rate_class=Stochastic(), seed=seed)
    return gen_ht(spec, ell=0, alpha=0.2)


def _flip(policy, x, counts):
    choice = list(policy)
    choice[x] = (choice[x] + 1) % counts[x]
    return tuple(choice)


def _multi_action_state(mdp):
    return next(x for x, acts in enumerate(mdp.actions) if len(acts) > 1)


@pytest.fixture(scope="module")
def total():
    mdp = _transient()
    return mdp, checks.tables(mdp), solve_total_cost(mdp)


@pytest.fixture(scope="module")
def average():
    mdp = _ht()
    return mdp, checks.tables(mdp), solve_average_cost(mdp, ell=0)


# ---------------------------------------------------------------------------
# Each check accepts the library's answer and rejects a perturbed one.
# ---------------------------------------------------------------------------


def test_total_check_accepts_the_answer(total):
    _, tab, sol = total
    assert checks.check_total(tab, sol.certificate.mu, sol.values, sol.policy) is None


def test_total_check_rejects_a_nudged_value(total):
    _, tab, sol = total
    v = np.array(sol.values)
    v[2] += 1e-4
    assert "optimality residual" in checks.check_total(tab, sol.certificate.mu, v, sol.policy)


def test_total_check_rejects_a_flipped_action(total):
    mdp, tab, sol = total
    x = _multi_action_state(mdp)
    flipped = _flip(sol.policy, x, [len(a) for a in mdp.actions])
    reason = checks.check_total(tab, sol.certificate.mu, sol.values, flipped)
    assert "policy value" in reason


def test_total_check_rejects_a_certificate_below_the_inequality(total):
    _, tab, sol = total
    mu = np.array(sol.certificate.mu)
    mu[int(np.argmax(mu))] -= 1e-3
    assert "certificate" in checks.check_total(tab, mu, sol.values, sol.policy)


def test_average_check_accepts_the_answer(average):
    _, tab, sol = average
    s = sol.solution
    assert checks.check_average(tab, 0, s.w, s.h, sol.report.policy) is None


def test_average_check_rejects_a_nudged_w(average):
    _, tab, sol = average
    s = sol.solution
    assert "ACOE" in checks.check_average(tab, 0, s.w + 1e-4, s.h, sol.report.policy)


def test_average_check_rejects_h_shifted_off_zero_at_ell(average):
    # A constant shift leaves every ACOE residual unchanged, so only the
    # h(ell) = 0 normalization catches it.
    _, tab, sol = average
    s = sol.solution
    assert "h(ell)" in checks.check_average(tab, 0, s.w, s.h + 1e-3, sol.report.policy)


def test_average_check_rejects_a_flipped_action(average):
    mdp, tab, sol = average
    # state 0 = ell is recurrent under every policy, so its action sets w
    assert len(mdp.actions[0]) > 1
    flipped = _flip(sol.report.policy, 0, [len(a) for a in mdp.actions])
    s = sol.solution
    assert "average cost" in checks.check_average(tab, 0, s.w, s.h, flipped)


def test_agreement_and_oracle_checks_reject_a_nudged_value(total):
    mdp, _, sol = total
    want = brute_force_total(mdp).optimal_value
    assert checks.check_close("brute force", sol.values, want) is None
    nudged = np.array(sol.values)
    nudged[0] += 1e-4
    assert "brute force" in checks.check_close("brute force", nudged, want)


def test_small_sweep_agreement_uses_the_first_passing_answer(total):
    _, _, sol = total
    reference = {}
    agree = workloads._agreement(reference, 0)
    assert agree(sol) is None and 0 in reference
    other = solve_total_cost(_transient(), method="vi")
    assert agree(other) is None
    shifted = solve_total_cost(_transient(seed=4))
    assert "disagree" in agree(shifted)


@pytest.fixture(scope="module")
def discounted():
    mdp = _transient(n=8)
    return mdp, build_hv(mdp, maximize_lifetime(mdp))


def test_dump_checks_reject_a_changed_document(discounted):
    mdp, dmdp = discounted
    assert checks.check_text("d", dumps_instance(mdp), checks.instance_obj(mdp)) is None
    want = checks.hv_discounted_obj(dmdp)
    text = dumps_discounted(dmdp)
    assert checks.check_text("d", text, want) is None
    doc = json.loads(text)
    doc["discounted"]["beta"] = dmdp.beta + 1e-9
    assert checks.check_text("d", json.dumps(doc), want) is not None


def test_round_trip_check_rejects_a_changed_instance(discounted):
    _, dmdp = discounted
    from mdpreduce import loads_discounted

    assert checks.same_discounted(loads_discounted(dumps_discounted(dmdp)), dmdp) is None
    other = build_hv(_transient(n=8, seed=9), maximize_lifetime(_transient(n=8, seed=9)))
    assert checks.same_discounted(other, dmdp) is not None


def test_lp_check_accepts_the_emitted_lp(discounted):
    _, dmdp = discounted
    text = emit_lp(dmdp)
    assert any(line.startswith("   ") for line in text.splitlines()), "want a wrapped row"
    assert checks.check_lp(text, checks.tables(dmdp.base), dmdp.beta) is None


def test_lp_check_rejects_one_changed_coefficient(discounted):
    _, dmdp = discounted
    lines = emit_lp(dmdp).splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith(" flow_3:"))
    tokens = lines[row].split(" ")
    j = next(k for k, tok in enumerate(tokens) if tok.startswith("z_")) - 1
    tokens[j] = repr(float(tokens[j]) * (1 + 1e-9))
    lines[row] = " ".join(tokens)
    reason = checks.check_lp("\n".join(lines) + "\n", checks.tables(dmdp.base), dmdp.beta)
    assert reason is not None and "flow_3" in reason


def test_a_raising_operation_fails_and_an_unreadable_answer_is_wrong():
    import run

    tally = run.Tally()
    raising = workloads.Op(0, None, lambda: 1 / 0, lambda r: None, lambda r: {})
    unreadable = workloads.Op(0, None, lambda: (), lambda r: r[0], lambda r: {})
    assert run.run_op(raising, tally, None) is None
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, 0)
    assert run.run_op(unreadable, tally, None) is None
    assert (tally.attempted, tally.failed, tally.wrong) == (2, 2, 1)


# ---------------------------------------------------------------------------
# Metric arithmetic.
# ---------------------------------------------------------------------------


def _span(name, parent, start, end, method=None, iterations=None):
    return bench_trace.Span(name, parent, start, end, method, iterations)


def test_median_and_ops_per_second():
    assert bench_trace.median([3.0, 1.0, 2.0]) == 2.0
    assert bench_trace.median([4.0, 1.0, 2.0, 3.0]) == 2.5
    assert bench_trace.ops_per_s([0.5, 0.25, 0.25]) == 3.0


def test_unattributed_counts_top_level_spans_only():
    record = bench_trace.OpRecord(
        1.0, 1.0, "howard", {},
        [
            _span("transience.check", None, 0.0, 0.25),
            _span("hvag.verify", None, 0.25, 0.75),
            _span("transience.check", "hvag.verify", 0.3, 0.5),
        ],
    )
    assert bench_trace.unattributed(record) == pytest.approx(0.25)


def test_per_layer_reports_every_metric_and_splits_by_method():
    shape = {"m": 10, "K": np.e, "iterations": 4}
    records = [
        bench_trace.OpRecord(1.0, 1.0, "howard", shape, [
            _span("solve.solve", None, 0.0, 0.5, "howard", 4),
            _span("hvag.verify", None, 0.5, 0.9),
            _span("solve.solve", "hvag.verify", 0.6, 0.7, None, 4),
        ]),
        bench_trace.OpRecord(2.0, 2.0, "vi", shape, [
            _span("solve.solve", None, 0.0, 1.5, "vi", 60),
        ]),
    ]
    metrics = bench_trace.per_layer(records, overhead_s=0.01)
    assert set(metrics) == {name for name, _ in bench_trace.PER_LAYER}
    assert metrics["solve.solve_s.howard"] == pytest.approx(0.5)
    assert metrics["solve.solve_s.vi"] == pytest.approx(1.5)
    assert metrics["solve.solve_s.dantzig"] == 0.0
    assert metrics["solve.iterations"] == 32.0
    assert metrics["solve.s_per_iteration"] == pytest.approx(2.0 / 64)
    assert metrics["solve.iters_per_mKlogK.howard"] == pytest.approx(4 / (10 * np.e))
    assert metrics["hvag.verify_s"] == pytest.approx(0.2)
    assert metrics["hvag.verify_cross_check_s"] == pytest.approx(0.05)
    assert metrics["pipelines.unattributed_s"] == pytest.approx((0.1 + 0.5) / 2)
    assert metrics["trace.overhead_s"] == 0.01


def test_tracer_spans_cover_the_average_cost_pipeline():
    mdp = _ht()
    tracer = bench_trace.Tracer()
    original = pipelines.solve
    tracer.install()
    try:
        solve_average_cost(mdp, ell=0)
    finally:
        tracer.remove()
    assert pipelines.solve is original
    top = [s.name for s in tracer.spans if s.parent is None]
    assert top == [
        "transience.check", "hvag.build", "solve.solve", "hvag.extract", "hvag.verify"
    ]
    nested = {s.name for s in tracer.spans if s.parent == "hvag.verify"}
    assert {"transience.check", "hvag.build", "solve.solve"} <= nested
    solve_span = next(s for s in tracer.spans if s.name == "solve.solve")
    assert solve_span.method == "howard" and solve_span.iterations >= 1


# ---------------------------------------------------------------------------
# The command and BENCHMARK.json.
# ---------------------------------------------------------------------------


def test_benchmark_json_lists_the_metrics_the_command_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(bench_trace.PER_LAYER)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "op_s.p50", "ops_per_s", "cpu_per_op_s", "peak_rss_mb"
    }


def test_instance_seeds_depend_on_run_seed_and_index():
    seeds = {workloads.instance_seed(s, i) for s in (0, 1, 2**40) for i in range(3)}
    assert len(seeds) == 9
    assert workloads.instance_seed(7, 1) == workloads.instance_seed(7, 1)


def test_command_prints_the_result_line(tmp_path):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "small-sweep",
         "--seed", "1", "--seconds", "0.2", "--trace", "0"],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 36
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_command_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "files",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert done.returncode != 0 and done.stdout == ""
