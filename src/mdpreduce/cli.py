"""Command-line front end.

Subcommands: check, solve-total, solve-average, transform, emit-lp, gen.
Exit codes are a stable contract: 0 = success, 1 = usage or input error
or a numerical failure (a singular system, an exhausted iteration budget),
2 = assumption failure (the offending policy witness is printed).

Output is machine-parseable ``key: value`` text; all numbers are printed
with 12 significant digits.  Assumptions are always re-checked before
solving (fail fast with witnesses) instead of trusting flags.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import InstanceFormatError, NonTransientPolicyError
from .errors import NotConvergedWithinBudget, SingularSystemError
from .generate import GenSpec, Stochastic, Substochastic, gen_ht, gen_transient
from .hv import build_hv, dumps_discounted
from .hvag import build_hvag
from .model import dumps_instance, load_instance, validate
from .oracle import brute_force_average, brute_force_total
from .pipelines import solve_average_cost, solve_total_cost
from .solve import emit_lp
from .transience import NonTransienceWitness, check_ht, maximize_lifetime

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_ASSUMPTION = 2


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def _fmt_vec(v) -> str:
    return " ".join(_fmt(x) for x in v)


def _fmt_sets(sets) -> str:
    return " ".join(
        f"{x}:{','.join(str(a) for a in acts)}" for x, acts in enumerate(sets)
    )


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the CLI contract
    # reserves 2 for assumption failures, so remap to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _print_witness(witness: NonTransienceWitness) -> None:
    evidence = type(witness.evidence).__name__
    print("witness_policy: " + " ".join(str(a) for a in witness.policy))
    print(f"witness_evidence: {evidence}")


def _cmd_check(args) -> int:
    mdp = load_instance(args.input)
    report = validate(mdp)
    print(f"max_row_sum: {_fmt(report.max_row_sum)}")
    print(f"rate_class: {report.rate_class.value}")
    if args.state is None:
        result = maximize_lifetime(mdp)
        if isinstance(result, NonTransienceWitness):
            print("transient: no")
            _print_witness(result)
            return EXIT_ASSUMPTION
        print("transient: yes")
        print(f"K: {_fmt(result.K)}")
        print(f"mu: {_fmt_vec(result.mu)}")
        return EXIT_OK
    ell = args.state
    result = check_ht(mdp, ell)
    if isinstance(result, NonTransienceWitness):
        print(f"ht_holds_at_{ell}: no")
        _print_witness(result)
        return EXIT_ASSUMPTION
    print(f"ht_holds_at_{ell}: yes")
    print(f"K_star: {_fmt(result.K_star)}")
    print(f"mu: {_fmt_vec(result.mu)}")
    return EXIT_OK


def _cmd_solve_total(args) -> int:
    mdp = load_instance(args.input)
    kwargs = {"tol": args.tol} if args.method == "vi" else {}
    result = solve_total_cost(mdp, method=args.method, beta=args.beta, **kwargs)
    if isinstance(result, NonTransienceWitness):
        print("transient: no")
        _print_witness(result)
        return EXIT_ASSUMPTION
    print("transient: yes")
    print(f"K: {_fmt(result.certificate.K)}")
    print(f"beta: {_fmt(result.discounted.beta)}")
    print(f"method: {result.report.method}")
    print(f"iterations: {result.report.iterations}")
    print(f"bellman_residual: {_fmt(result.report.bellman_residual)}")
    print(f"values: {_fmt_vec(result.values)}")
    print("policy: " + " ".join(str(a) for a in result.policy))
    print(f"optimal_actions: {_fmt_sets(result.optimal_actions)}")
    if args.oracle:
        oracle = brute_force_total(mdp)
        deviation = float(np.max(np.abs(oracle.optimal_value - result.values)))
        print(f"oracle_values: {_fmt_vec(oracle.optimal_value)}")
        print(f"oracle_max_deviation: {_fmt(deviation)}")
    return EXIT_OK


def _cmd_solve_average(args) -> int:
    mdp = load_instance(args.input)
    kwargs = {"tol": args.tol} if args.method == "vi" else {}
    result = solve_average_cost(
        mdp, args.state, method=args.method, beta=args.beta, **kwargs
    )
    if isinstance(result, NonTransienceWitness):
        print(f"ht_holds_at_{args.state}: no")
        _print_witness(result)
        return EXIT_ASSUMPTION
    print(f"ht_holds_at_{args.state}: yes")
    print(f"K_star: {_fmt(result.certificate.K_star)}")
    print(f"beta: {_fmt(result.discounted.beta)}")
    print(f"method: {result.report.method}")
    print(f"iterations: {result.report.iterations}")
    print(f"w: {_fmt(result.solution.w)}")
    print(f"h: {_fmt_vec(result.solution.h)}")
    print(f"optimal_actions: {_fmt_sets(result.acoe.optimal_actions)}")
    print(f"acoe_max_residual: {_fmt(result.acoe.max_residual)}")
    if args.oracle:
        oracle = brute_force_average(mdp, args.state)
        deviation = abs(float(oracle.optimal_value[0]) - result.solution.w)
        print(f"oracle_w: {_fmt(oracle.optimal_value[0])}")
        print(f"oracle_max_deviation: {_fmt(deviation)}")
    return EXIT_OK


def _write_out(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_transform(args) -> int:
    """``transform`` and ``emit-lp``: build the reduction, write it with ``args.writer``."""
    mdp = load_instance(args.input)
    if args.kind == "hv":
        if args.state is not None:
            raise InstanceFormatError("--state only applies to --kind hvag")
        cert, build = maximize_lifetime(mdp), build_hv
    else:
        if args.state is None:
            raise InstanceFormatError("--state is required with --kind hvag")
        cert, build = check_ht(mdp, args.state), build_hvag
    if isinstance(cert, NonTransienceWitness):
        print("assumption_holds: no")
        _print_witness(cert)
        return EXIT_ASSUMPTION
    _write_out(args.writer(build(mdp, cert, beta=args.beta)), args.output)
    return EXIT_OK


def _cmd_gen(args) -> int:
    if args.kind == "transient":
        if args.alpha is not None or args.ell is not None:
            raise InstanceFormatError("--alpha/--ell only apply to --kind ht")
        spec = GenSpec(
            n_states=args.states,
            max_actions=args.max_actions,
            rate_class=Substochastic(
                kill_prob_range=tuple(args.kill_range or (0.2, 0.5))
            ),
            cost_range=tuple(args.cost_range),
            density=args.density,
            seed=args.seed,
        )
        mdp = gen_transient(spec)
    else:
        if args.kill_range is not None:
            raise InstanceFormatError("--kill-range only applies to --kind transient")
        spec = GenSpec(
            n_states=args.states,
            max_actions=args.max_actions,
            rate_class=Stochastic(),
            cost_range=tuple(args.cost_range),
            density=args.density,
            seed=args.seed,
        )
        mdp = gen_ht(
            spec,
            args.ell if args.ell is not None else 0,
            alpha=args.alpha if args.alpha is not None else 0.2,
        )
    _write_out(dumps_instance(mdp), args.output)
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="mdpreduce",
        description=(
            "Solve transient total-cost and average-cost MDPs by reduction "
            "to discounted MDPs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("input", help="instance file (JSON)")

    p = sub.add_parser("check", help="check transience / bounded hitting time")
    add_common(p)
    p.add_argument("--state", type=int, default=None, metavar="L",
                   help="check bounded hitting time to this state instead")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("solve-total", help="solve the total-cost criterion")
    add_common(p)
    p.add_argument("--method", choices=("vi", "howard", "dantzig"),
                   default="howard")
    p.add_argument("--beta", type=float, default=None,
                   help="override the discount factor of the reduction")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="value-iteration tolerance (vi only)")
    p.add_argument("--oracle", action="store_true",
                   help="also run the brute-force oracle and print the deviation")
    p.set_defaults(func=_cmd_solve_total)

    p = sub.add_parser("solve-average", help="solve the average-cost criterion")
    add_common(p)
    p.add_argument("--state", type=int, required=True, metavar="L",
                   help="distinguished state with bounded hitting time")
    p.add_argument("--method", choices=("vi", "howard", "dantzig"),
                   default="howard")
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--oracle", action="store_true")
    p.set_defaults(func=_cmd_solve_average)

    p = sub.add_parser("transform", help="write the discounted reduction")
    add_common(p)
    p.add_argument("--kind", choices=("hv", "hvag"), required=True)
    p.add_argument("--state", type=int, default=None, metavar="L")
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    p.set_defaults(func=_cmd_transform, writer=dumps_discounted)

    p = sub.add_parser("emit-lp", help="emit the occupation-measure LP")
    add_common(p)
    p.add_argument("--kind", choices=("hv", "hvag"), required=True)
    p.add_argument("--state", type=int, default=None, metavar="L")
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_transform, writer=emit_lp)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--kind", choices=("transient", "ht"), required=True)
    p.add_argument("--states", type=int, required=True)
    p.add_argument("--max-actions", type=int, required=True)
    p.add_argument("--density", type=float, default=0.6)
    p.add_argument("--cost-range", type=float, nargs=2, default=(-1.0, 1.0),
                   metavar=("LO", "HI"))
    p.add_argument("--kill-range", type=float, nargs=2, default=None,
                   metavar=("LO", "HI"),
                   help="kill-probability range (transient; default 0.2 0.5)")
    p.add_argument("--alpha", type=float, default=None,
                   help="minimal probability into --ell (ht; default 0.2)")
    p.add_argument("--ell", type=int, default=None,
                   help="distinguished state (ht; default 0)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(
            f"error: parse failure at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return EXIT_INPUT
    except (ValueError, OSError, SingularSystemError, NotConvergedWithinBudget,
            NonTransientPolicyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
