"""The benchmark's workloads: how each makes its instances from the run's
seed, what one operation does, and how its answer is checked.

Within a workload the instances have the same make-up and differ only in
seed.  ``setup`` is the program's part (generation, and for ``files`` the
dump and the reduction the operation reads); ``make_round`` builds the
benchmark's own check data and returns the operations of one round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from mdpreduce import hv, model, oracle, pipelines, transience
from mdpreduce import solve as solve_module
from mdpreduce.generate import GenSpec, Stochastic, Substochastic, gen_ht, gen_transient

import bench_checks as checks

#: The average-cost workloads solve for the target state 0.
ELL = 0

# The large workloads keep an odd number of instances, so that the median
# operation time falls inside the middle instance's cluster of times rather
# than between two clusters.
TOTAL_DENSE = dict(
    n_states=300, max_actions=5, density=0.6, rate_class=Substochastic((0.1, 0.3))
)
TOTAL_DENSE_INSTANCES = 5

AVERAGE_SPARSE = dict(
    n_states=600, max_actions=5, density=10 / 600, rate_class=Stochastic()
)
AVERAGE_SPARSE_ALPHA = 0.1
AVERAGE_SPARSE_INSTANCES = 3

#: Two instances of each criterion at each size.  The narrow kill range
#: keeps K, and with it value iteration's sweep count, nearly the same from
#: seed to seed.
SWEEP_SIZES = (5, 6, 10, 15, 20, 30)
SWEEP_COPIES = 2
SWEEP_TOTAL = dict(max_actions=3, density=0.6, rate_class=Substochastic((0.25, 0.3)))
SWEEP_AVERAGE = dict(max_actions=3, density=0.6, rate_class=Stochastic())
SWEEP_ALPHA = 0.2
#: brute_force_total and brute_force_average enumerate policies up to here.
ORACLE_MAX_STATES = 6

FILES = TOTAL_DENSE | dict(n_states=100)
FILES_INSTANCES = 5


@dataclass(frozen=True)
class Case:
    """One generated instance, plus for ``files`` its dumped text and the
    discounted reduction built from it."""

    mdp: model.RateMdp
    criterion: str  # "total" or "average"
    text: str | None = None
    dmdp: hv.DiscountedMdp | None = None


@dataclass(frozen=True)
class Op:
    """One operation: ``run`` calls the program, ``check`` returns ``None``
    for a correct answer or the reason it is wrong, and ``shape`` gives the
    sizes the answer reports (n, m, nonzeros, K, beta, iterations)."""

    case: int
    method: str | None
    run: Callable[[], object]
    check: Callable[[object], str | None]
    shape: Callable[[object], dict]


def instance_seed(seed: int, index: int) -> int:
    """The generator seed of instance ``index`` of a run with ``seed``."""
    words = [seed & 0xFFFFFFFF, (seed >> 32) & 0xFFFFFFFF, index]
    return int(np.random.SeedSequence(words).generate_state(1)[0])


def _sizes(mdp) -> dict:
    return {
        "n": mdp.n_states,
        "m": mdp.n_state_actions,
        "nnz": sum(len(a.transitions) for acts in mdp.actions for a in acts),
    }


# ---------------------------------------------------------------------------
# Pipelines: total-dense, average-sparse, small-sweep.
# ---------------------------------------------------------------------------


def _total_case(seed: int, index: int, **spec) -> Case:
    return Case(gen_transient(GenSpec(seed=instance_seed(seed, index), **spec)), "total")


def _average_case(seed: int, index: int, alpha: float, **spec) -> Case:
    mdp = gen_ht(GenSpec(seed=instance_seed(seed, index), **spec), ell=ELL, alpha=alpha)
    return Case(mdp, "average")


def _solution_shape(case: Case):
    sizes = _sizes(case.mdp)

    def shape(sol) -> dict:
        cert = sol.certificate
        return sizes | {
            "K": cert.K if case.criterion == "total" else cert.K_star,
            "beta": sol.discounted.beta,
            "iterations": sol.report.iterations,
        }

    return shape


def _pipeline_op(index: int, case: Case, method: str, tab, extra_checks=()) -> Op:
    """Solve ``case`` by its criterion's pipeline; check the answer against
    the tables ``tab``, then against each of ``extra_checks``."""
    if case.criterion == "total":
        expected = pipelines.TotalCostSolution

        def run():
            return pipelines.solve_total_cost(case.mdp, method=method)

        def own(sol):
            return checks.check_total(tab, sol.certificate.mu, sol.values, sol.policy)

    else:
        expected = pipelines.AverageCostSolution

        def run():
            return pipelines.solve_average_cost(case.mdp, ell=ELL, method=method)

        def own(sol):
            s = sol.solution
            return checks.check_average(tab, ELL, s.w, s.h, sol.report.policy)

    def check(sol):
        if not isinstance(sol, expected):
            return f"returned {type(sol).__name__}, not {expected.__name__}"
        for step in (own, *extra_checks):
            reason = step(sol)
            if reason is not None:
                return reason
        return None

    return Op(index, method, run, check, _solution_shape(case))


def answer(sol) -> np.ndarray:
    """The values an answer is compared by: v, or (w, h)."""
    if isinstance(sol, pipelines.TotalCostSolution):
        return np.asarray(sol.values)
    return np.append(sol.solution.w, sol.solution.h)


def _agreement(reference: dict, index: int):
    """The first answer on instance ``index`` that passed its own check
    becomes the reference the other methods must agree with."""

    def check(sol):
        got = answer(sol)
        if index not in reference:
            reference[index] = got
            return None
        return checks.check_close("methods disagree", got, reference[index])

    return check


def _oracle_check(case: Case):
    if case.criterion == "total":
        want = oracle.brute_force_total(case.mdp).optimal_value
        return lambda sol: checks.check_close("brute force", sol.values, want)
    want = oracle.brute_force_average(case.mdp, ELL).optimal_value[0]
    return lambda sol: checks.check_close("brute force", sol.solution.w, want)


def setup_total_dense(seed: int) -> list[Case]:
    return [_total_case(seed, i, **TOTAL_DENSE) for i in range(TOTAL_DENSE_INSTANCES)]


def setup_average_sparse(seed: int) -> list[Case]:
    return [
        _average_case(seed, i, AVERAGE_SPARSE_ALPHA, **AVERAGE_SPARSE)
        for i in range(AVERAGE_SPARSE_INSTANCES)
    ]


def setup_small_sweep(seed: int) -> list[Case]:
    cases = []
    for n in SWEEP_SIZES * SWEEP_COPIES:
        cases.append(_total_case(seed, len(cases), n_states=n, **SWEEP_TOTAL))
        cases.append(
            _average_case(seed, len(cases), SWEEP_ALPHA, n_states=n, **SWEEP_AVERAGE)
        )
    return cases


def round_howard(cases: list[Case]) -> list[Op]:
    return [
        _pipeline_op(i, case, "howard", checks.tables(case.mdp))
        for i, case in enumerate(cases)
    ]


def round_small_sweep(cases: list[Case]) -> list[Op]:
    reference: dict[int, np.ndarray] = {}
    ops = []
    for i, case in enumerate(cases):
        tab = checks.tables(case.mdp)
        extra = [_agreement(reference, i)]
        if case.mdp.n_states <= ORACLE_MAX_STATES:
            extra.append(_oracle_check(case))
        ops.extend(_pipeline_op(i, case, m, tab, extra) for m in ("vi", "howard", "dantzig"))
    return ops


# ---------------------------------------------------------------------------
# Files: the I/O of the transform and emit-lp commands.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FilesResult:
    loaded: model.RateMdp
    report: model.ValidationReport
    dumped: str
    discounted_text: str
    reloaded: hv.DiscountedMdp
    lp: str


def setup_files(seed: int) -> list[Case]:
    cases = []
    for i in range(FILES_INSTANCES):
        mdp = _total_case(seed, i, **FILES).mdp
        cert = transience.maximize_lifetime(mdp)
        cases.append(
            Case(mdp, "total", text=model.dumps_instance(mdp), dmdp=hv.build_hv(mdp, cert))
        )
    return cases


def _files_op(index: int, case: Case) -> Op:
    instance_obj = checks.instance_obj(case.mdp)
    discounted_obj = checks.hv_discounted_obj(case.dmdp)
    dtab = checks.tables(case.dmdp.base)
    sizes = _sizes(case.mdp) | {
        "K": float(np.max(case.dmdp.origin.mu)),
        "beta": case.dmdp.beta,
    }

    def run():
        loaded = model.loads_instance(case.text)
        report = model.validate(loaded)
        dumped = model.dumps_instance(loaded)
        discounted_text = hv.dumps_discounted(case.dmdp)
        reloaded = hv.loads_discounted(discounted_text)
        lp = solve_module.emit_lp(case.dmdp)
        return FilesResult(loaded, report, dumped, discounted_text, reloaded, lp)

    def check(res):
        if res.loaded != case.mdp:
            return "loads_instance does not give back the generated instance"
        if not res.report.ok:
            return f"validate rejects the instance: {res.report.error}"
        for reason in (
            checks.check_text("dumps_instance", res.dumped, instance_obj),
            checks.check_text("dumps_discounted", res.discounted_text, discounted_obj),
            checks.same_discounted(res.reloaded, case.dmdp),
            checks.check_lp(res.lp, dtab, case.dmdp.beta),
        ):
            if reason is not None:
                return reason
        return None

    def shape(res) -> dict:
        return sizes | {"lp_bytes": len(res.lp.encode())}

    return Op(index, None, run, check, shape)


def round_files(cases: list[Case]) -> list[Op]:
    return [_files_op(i, case) for i, case in enumerate(cases)]


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int], list[Case]]
    make_round: Callable[[list[Case]], list[Op]]


WORKLOADS = {
    "total-dense": Workload(setup_total_dense, round_howard),
    "average-sparse": Workload(setup_average_sparse, round_howard),
    "small-sweep": Workload(setup_small_sweep, round_small_sweep),
    "files": Workload(setup_files, round_files),
}
