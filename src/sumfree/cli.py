"""Command-line front end with exact rational I/O.

Exit codes: 0 when every check passes, 1 when a mathematical check
fails (a sum-free violation, a failed inequality, an inconsistent
containment), 2 for usage or parse errors and for a set file that
cannot be read.  Machine-readable output (``--format records``) prints
exact rationals only, one record per line; ``--decimal N`` adds a
rounded column that is convenience only, never authoritative.
"""

from __future__ import annotations

import argparse
import sys

from .constructions import cg_density, construct_extremal, random_sum_free
from .intervals import IntervalSet, ParseError
from .lemmas import PreconditionError, lemma_report
from .optimize import optimize
from .predicates import NotSumFreeError, forbidden_region, is_k_sum_free
from .rationals import format_rational, to_decimal
from .trace import check_extremal_containment, trace_measure_bound
from .discrete import DEFAULT_BUDGET, BudgetError, density_report, max_k_sum_free

USAGE_ERROR = 2
CHECK_FAILED = 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


def run(argv, stdin=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return args.handler(args, stdin or sys.stdin)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except NotSumFreeError as exc:
        # a checker rejected its input: a failed check, not a usage error
        _emit_sum_free(False, exc.witness.k, exc.witness, args)
        return CHECK_FAILED
    except (PreconditionError, BudgetError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sumfree",
        description="exact toolkit for 3-sum-free (and k-sum-free) sets",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_set(p):
        p.add_argument("set", help="interval set text, @file, or @- for stdin")

    def add_format(p):
        p.add_argument("--format", choices=("text", "records"), default="text")

    def add_decimal(p):
        p.add_argument("--decimal", type=int, default=None, metavar="D",
                       help="add a D-digit rounded column (display only)")

    p = sub.add_parser("measure", help="exact measure of a set")
    add_set(p)
    add_decimal(p)
    p.set_defaults(handler=_cmd_measure)

    p = sub.add_parser("verify", help="k-sum-free verdict with witness")
    p.add_argument("--k", type=int, default=3)
    add_set(p)
    add_format(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("construct", help="emit an extremal set a0..a7")
    p.add_argument("which", choices=[f"a{i}" for i in range(8)])
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("forbidden", help="forbidden region of a set")
    add_set(p)
    p.set_defaults(handler=_cmd_forbidden)

    p = sub.add_parser("lemmas", help="run every inequality check on a set")
    p.add_argument("--raw", action="store_true",
                   help="require sup = 1 instead of rescaling")
    add_set(p)
    add_format(p)
    add_decimal(p)
    p.set_defaults(handler=_cmd_lemmas)

    p = sub.add_parser("trace", help="step-by-step 77/177 certification")
    p.add_argument("--raw", action="store_true",
                   help="require sup = 1 instead of rescaling")
    add_set(p)
    add_format(p)
    add_decimal(p)
    p.set_defaults(handler=_cmd_trace)

    p = sub.add_parser("extremal", help="containment check for maximal sets")
    add_set(p)
    add_format(p)
    add_decimal(p)
    p.set_defaults(handler=_cmd_extremal)

    p = sub.add_parser("optimize", help="deterministic search for maximal measure")
    p.add_argument("-m", type=int, required=True, help="max component count")
    p.add_argument("--iters", type=int, default=40000)
    add_format(p)
    add_decimal(p)
    p.set_defaults(handler=_cmd_optimize)

    p = sub.add_parser("discrete", help="integer-set searches")
    dsub = p.add_subparsers(dest="subverb", required=True)
    pm = dsub.add_parser("max", help="maximum k-sum-free subset of {1..n}")
    pm.add_argument("-n", type=int, required=True)
    pm.add_argument("-k", type=int, default=3)
    pm.add_argument("--all", action="store_true", help="list extremal sets")
    pm.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    add_format(pm)
    pm.set_defaults(handler=_cmd_discrete_max)

    p = sub.add_parser("gen", help="seeded random 3-sum-free set")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--components", type=int, default=4)
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("density", help="desk-scale ratio vs asymptotic density")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    add_format(p)
    add_decimal(p)
    p.set_defaults(handler=_cmd_density)

    return parser


def _read_set(token: str, stdin) -> IntervalSet:
    if token == "@-":
        return IntervalSet.parse(stdin.read())
    if token.startswith("@"):
        with open(token[1:], "r", encoding="ascii") as fh:
            return IntervalSet.parse(fh.read())
    return IntervalSet.parse(token)


def _rat(value, args) -> str:
    out = format_rational(value)
    if args.decimal is not None:
        out += f" ~{to_decimal(value, args.decimal)}"
    return out


def _emit_records(records, args) -> None:
    for r in records:
        verdict = "pass" if r.passed else "fail"
        line = f"{r.name}\t{_rat(r.lhs, args)}\t{_rat(r.rhs, args)}\t{verdict}"
        print(line)


def _cmd_measure(args, stdin) -> int:
    S = _read_set(args.set, stdin)
    print(_rat(S.measure(), args))
    return 0


def _emit_sum_free(ok, k, witness, args) -> None:
    if args.format == "records":
        if ok:
            print(f"sum-free\tk={k}\t-\tpass")
        else:
            print(f"sum-free\tk={k}\t"
                  f"x={witness.x},y={witness.y},z={witness.z}\tfail")
    else:
        if ok:
            print(f"{k}-sum-free: yes")
        else:
            print(f"{k}-sum-free: NO; witness {witness}")


def _cmd_verify(args, stdin) -> int:
    S = _read_set(args.set, stdin)
    ok, witness = is_k_sum_free(S, args.k)
    _emit_sum_free(ok, args.k, witness, args)
    return 0 if ok else CHECK_FAILED


def _cmd_construct(args, stdin) -> int:
    print(construct_extremal(int(args.which[1:])))
    return 0


def _cmd_forbidden(args, stdin) -> int:
    S = _read_set(args.set, stdin)
    print(forbidden_region(S))
    return 0


def _cmd_lemmas(args, stdin) -> int:
    S = _read_set(args.set, stdin)
    report = lemma_report(S, rescale=not args.raw)
    if args.format == "records":
        _emit_records(report.records, args)
    else:
        if report.rescaled:
            print(f"rescaled by 1/sup to {report.checked}")
        print(f"context: a={report.context.a} eps1={report.context.eps1} "
              f"eps2={report.context.eps2}")
        for r in report.records:
            print(r)
        print("all checks passed" if report.all_passed
              else f"{len(report.failures)} CHECK(S) FAILED")
    return 0 if report.all_passed else CHECK_FAILED


def _cmd_trace(args, stdin) -> int:
    S = _read_set(args.set, stdin)
    t = trace_measure_bound(S, rescale=not args.raw)
    if args.format == "records":
        _emit_records(t.verdicts, args)
    else:
        if t.rescaled:
            print(f"rescaled by 1/sup to {t.checked}")
        print(f"case: {t.case}")
        print(f"a={t.context.a} eps1={t.context.eps1} eps2={t.context.eps2}")
        if t.r is not None:
            print(f"R={t.R}  r={t.r}  eta1={t.eta1}  eta2={t.eta2}")
        if t.b is not None:
            print(f"R0={t.R0}  b={t.b}")
        for v in t.verdicts:
            print(v)
        eq = " (attained with equality)" if t.equality_attained else ""
        print(f"measure {_rat(t.measure, args)} <= certified bound "
              f"{_rat(t.final_bound, args)}{eq}")
    return 0 if t.all_passed else CHECK_FAILED


def _cmd_extremal(args, stdin) -> int:
    S = _read_set(args.set, stdin)
    rep = check_extremal_containment(S)
    if args.format == "records":
        print(f"extremal-measure\t{_rat(rep.measure, args)}\t77/177\t"
              + ("pass" if rep.is_extremal else "fail"))
        if rep.is_extremal:
            print(f"sym-diff-zero\t-\t-\t{'pass' if rep.sym_diff_zero else 'fail'}")
            print(f"containment\tA{rep.container if rep.container else '-'}\t-\t"
                  + ("pass" if rep.container else "fail"))
    else:
        if not rep.is_extremal:
            print(f"not extremal: measure {_rat(rep.measure, args)} != 77/177")
        else:
            print("extremal: measure 77/177")
            print(f"symmetric difference with base set has measure zero: "
                  f"{rep.sym_diff_zero}")
            if rep.container:
                print(f"contained in a{rep.container} "
                      f"(all containers: {', '.join('a%d' % i for i in rep.containers)})")
            else:
                print("CONTAINED IN NO MAXIMAL SET (inconsistent!)")
    return 0 if rep.consistent else CHECK_FAILED


def _cmd_optimize(args, stdin) -> int:
    result = optimize(args.m, 0, args.iters)  # the seed does not affect the result
    if args.format == "records":
        print(f"optimize\t{_rat(result.measure, args)}\t77/177\tpass")
        print(result.best)
    else:
        print(f"best set: {result.best}")
        print(f"measure: {_rat(result.measure, args)}")
        print(f"accepted {result.accepted} of {result.evaluated} evaluated moves")
    return 0


def _cmd_discrete_max(args, stdin) -> int:
    result = max_k_sum_free(args.n, args.k, enumerate_sets=args.all, budget=args.budget)
    if args.format == "records":
        print(f"max-size\t{result.max_size}\t-\tpass")
        print(f"extremal-count\t{result.extremal_count}\t-\tpass")
    else:
        print(f"n={result.n} k={result.k}: max size {result.max_size}, "
              f"{result.extremal_count} extremal set(s), "
              f"{result.nodes_explored} nodes")
    if args.all and result.extremal_sets:
        for s in result.extremal_sets:
            print(s)
    return 0


def _cmd_gen(args, stdin) -> int:
    print(random_sum_free(args.seed, args.components))
    return 0


def _cmd_density(args, stdin) -> int:
    rep = density_report(args.k, args.n)
    if args.format == "records":
        print(f"search-ratio\t{_rat(rep.search_ratio, args)}\t-\tpass")
        print(f"asymptotic-density\t{_rat(rep.asymptotic_density, args)}\t-\tpass")
    else:
        print(rep)
    return 0


if __name__ == "__main__":
    main()
