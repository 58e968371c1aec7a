"""mdpreduce: solve transient total-cost and average-cost MDPs by reducing
them to discounted MDPs.

The library is organized around the reduction pipeline:

* :mod:`mdpreduce.model` — rate-MDP data types, validation, instance I/O;
* :mod:`mdpreduce.transience` — transience / bounded-hitting-time checkers
  and the lifetime-bound certificates the transforms need;
* :mod:`mdpreduce.hv` — total-cost-to-discounted transform;
* :mod:`mdpreduce.hvag` — average-cost-to-discounted transform;
* :mod:`mdpreduce.solve` — value iteration, Howard and Dantzig policy
  iteration, LP emission, occupation measures;
* :mod:`mdpreduce.oracle` — brute-force baselines for small instances;
* :mod:`mdpreduce.generate` — seeded random-instance generators;
* :mod:`mdpreduce.pipelines` — end-to-end check/transform/solve/lift.
"""

from .errors import (
    AcoeResidualError,
    CertificateError,
    InstanceFormatError,
    NonTransientPolicyError,
    NotConvergedWithinBudget,
    PolicyCapExceeded,
    SingularSystemError,
)
from .generate import GenSpec, Stochastic, Substochastic, gen_ht, gen_transient
from .hv import (
    DiscountedMdp,
    ReductionOrigin,
    build_hv,
    check_discounted,
    dump_discounted,
    dumps_discounted,
    lift_total_value,
    load_discounted,
    loads_discounted,
    similarity_transform,
    total_optimal_actions,
)
from .hvag import (
    AcoeReport,
    AverageSolution,
    acoe_residuals,
    average_optimal_actions,
    build_hvag,
    extract_average_solution,
    lemma2_identity,
    verify_acoe,
)
from .model import (
    ActionData,
    PackedMdp,
    RateClass,
    RateMdp,
    StationaryPolicy,
    ValidationReport,
    classify_rates,
    count_policies,
    dump_instance,
    dumps_instance,
    enumerate_policies,
    load_instance,
    loads_instance,
    validate,
)
from .oracle import (
    OracleResult,
    average_cost_of_policy,
    brute_force_average,
    brute_force_total,
    cesaro_check,
    stationary_distribution,
)
from .pipelines import (
    AverageCostSolution,
    TotalCostSolution,
    solve_average_cost,
    solve_total_cost,
)
from .solve import (
    OccupationMeasure,
    SolveReport,
    dantzig_pi,
    emit_lp,
    format_report,
    howard_pi,
    occupation_measure,
    optimal_actions,
    policy_evaluate,
    value_iteration,
)
from .transience import (
    HtCertificate,
    MuIterationResult,
    NegativeInverseEntry,
    NonTransienceWitness,
    SingularSystem,
    TransienceCertificate,
    certificate_residual,
    check_ht,
    evaluate_lifetime,
    find_ht_states,
    maximize_lifetime,
    mu_value_iteration,
    policy_spectral_radius,
    truncate_at_state,
    vi_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "ActionData",
    "AcoeReport",
    "AcoeResidualError",
    "AverageCostSolution",
    "AverageSolution",
    "CertificateError",
    "DiscountedMdp",
    "GenSpec",
    "HtCertificate",
    "InstanceFormatError",
    "MuIterationResult",
    "NegativeInverseEntry",
    "NonTransienceWitness",
    "NonTransientPolicyError",
    "NotConvergedWithinBudget",
    "OccupationMeasure",
    "OracleResult",
    "PackedMdp",
    "PolicyCapExceeded",
    "RateClass",
    "RateMdp",
    "ReductionOrigin",
    "SingularSystem",
    "SingularSystemError",
    "SolveReport",
    "StationaryPolicy",
    "Stochastic",
    "Substochastic",
    "TotalCostSolution",
    "TransienceCertificate",
    "ValidationReport",
    "acoe_residuals",
    "average_cost_of_policy",
    "average_optimal_actions",
    "brute_force_average",
    "brute_force_total",
    "build_hv",
    "build_hvag",
    "certificate_residual",
    "cesaro_check",
    "check_discounted",
    "check_ht",
    "classify_rates",
    "count_policies",
    "dantzig_pi",
    "dump_discounted",
    "dump_instance",
    "dumps_discounted",
    "dumps_instance",
    "emit_lp",
    "enumerate_policies",
    "evaluate_lifetime",
    "extract_average_solution",
    "find_ht_states",
    "format_report",
    "gen_ht",
    "gen_transient",
    "howard_pi",
    "lemma2_identity",
    "lift_total_value",
    "load_discounted",
    "load_instance",
    "loads_discounted",
    "loads_instance",
    "maximize_lifetime",
    "mu_value_iteration",
    "occupation_measure",
    "optimal_actions",
    "policy_evaluate",
    "policy_spectral_radius",
    "similarity_transform",
    "solve_average_cost",
    "solve_total_cost",
    "stationary_distribution",
    "total_optimal_actions",
    "truncate_at_state",
    "validate",
    "value_iteration",
    "verify_acoe",
    "vi_certificate",
]
