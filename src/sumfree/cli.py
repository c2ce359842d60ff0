"""Command-line front end with exact rational I/O.

Every verb computes two lists, its rows and its text lines, and ``run``
prints one of them: the rows with ``--format records``, else the text.
Every records line is ``name\\tlhs\\trhs\\tverdict``.  A checked row is
the inequality lhs <= rhs, and its verdict is whether that holds.  A
value row reports a value with ``-`` on the right and passes.  The
``sum-free``, ``sym-diff-zero`` and ``containment`` rows carry their own
verdicts; a failed ``sum-free`` row has the witness on the right.
Plain lines, such as the set ``optimize`` found or the sets
``discrete max --all`` lists, follow as they are.  ``--decimal N`` adds
an N-digit rounded column to every rational cell; it is convenience
only, never authoritative.  A negative N is a usage error on every verb
that takes the option, in either format, as it is checked when the
arguments are parsed.

Exit codes: 1 exactly when a row fails (a sum-free violation, a failed
inequality, an inconsistent containment), whichever format is printed;
0 otherwise; 2 for usage or parse errors and for a set file that cannot
be read.
"""

from __future__ import annotations

import argparse
import sys

from .constructions import construct_extremal, random_sum_free
from .intervals import IntervalSet, ParseError
from .lemmas import CheckRecord, PreconditionError, lemma_report
from .optimize import optimize
from .predicates import NotSumFreeError, forbidden_region, is_k_sum_free
from .rationals import MAX_MEASURE, format_rational, to_decimal
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
        try:
            records, text = args.handler(args, stdin or sys.stdin)
        except NotSumFreeError as exc:
            # a checker rejected its input: a failed check, not a usage
            # error, printed as verify prints it
            records, text = _sum_free(exc.witness.k, exc.witness)
        rows = [(r.name, r.lhs, r.rhs, r.passed) if isinstance(r, CheckRecord) else r
                for r in records]
        if args.format == "records":
            text = [r if isinstance(r, str) else "\t".join(
                        (r[0], _rat(r[1], args), _rat(r[2], args), "pass" if r[3] else "fail"))
                    for r in rows]
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (PreconditionError, BudgetError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    for line in text:
        print(line)
    return 0 if all(isinstance(r, str) or r[3] for r in rows) else CHECK_FAILED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sumfree",
        description="exact toolkit for 3-sum-free (and k-sum-free) sets",
    )
    # run and _rat read both on every verb, also on one without the option
    parser.set_defaults(format="text", decimal=None)
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_set(p):
        p.add_argument("set", help="interval set text, @file, or @- for stdin")

    def add_format(p):
        p.add_argument("--format", choices=("text", "records"), default="text")

    def add_decimal(p):
        p.add_argument("--decimal", type=_places, default=None, metavar="D",
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
    add_set(p)
    add_format(p)
    add_decimal(p)
    p.set_defaults(handler=_cmd_lemmas)

    p = sub.add_parser("trace", help="step-by-step 77/177 certification")
    add_set(p)
    add_format(p)
    add_decimal(p)
    p.set_defaults(handler=_cmd_trace)

    p = sub.add_parser("extremal", help="containment check for maximal sets")
    add_set(p)
    add_format(p)
    add_decimal(p)
    p.set_defaults(handler=_cmd_extremal)

    p = sub.add_parser("optimize", help="exact search for maximal measure")
    p.add_argument("-m", type=int, required=True, help="max component count")
    # 2000 LP nodes prove every m <= 6 (m = 6 takes 919); a larger m stops
    # at the budget, after about 0.45 s for m = 7 and 1.8 s for m = 20 at the
    # reference speed of bench/speed.py
    p.add_argument("--iters", type=int, default=2000, metavar="NODES",
                   help="budget of LP nodes of the branch and bound (default 2000); "
                        "a node costs more as m grows, so the budget does not "
                        "bound the time")
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


def _places(text: str) -> int:
    """``--decimal``'s value, checked as it is parsed: whether a rational
    cell gets printed then does not decide whether a bad one is an error."""
    try:
        places = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if places < 0:
        raise argparse.ArgumentTypeError("places must be >= 0")
    return places


def _read_set(token: str, stdin) -> IntervalSet:
    if token == "@-":
        return IntervalSet.parse(stdin.read())
    if token.startswith("@"):
        with open(token[1:], "r", encoding="ascii") as fh:
            return IntervalSet.parse(fh.read())
    return IntervalSet.parse(token)


def _rat(value, args) -> str:
    if isinstance(value, str):
        return value
    out = format_rational(value)
    if args.decimal is not None:
        out += f" ~{to_decimal(value, args.decimal)}"
    return out


def _sum_free(k, witness):
    """The rows and text of a k-sum-free verdict; witness is None when it holds."""
    if witness is None:
        return [("sum-free", f"k={k}", "-", True)], [f"{k}-sum-free: yes"]
    return ([("sum-free", f"k={k}", f"x={witness.x},y={witness.y},z={witness.z}", False)],
            [f"{k}-sum-free: NO; witness {witness}"])


def _cmd_measure(args, stdin):
    return [], [_rat(_read_set(args.set, stdin).measure(), args)]


def _cmd_verify(args, stdin):
    return _sum_free(args.k, is_k_sum_free(_read_set(args.set, stdin), args.k)[1])


def _cmd_construct(args, stdin):
    return [], [str(construct_extremal(int(args.which[1:])))]


def _cmd_forbidden(args, stdin):
    return [], [str(forbidden_region(_read_set(args.set, stdin)))]


def _cmd_lemmas(args, stdin):
    report = lemma_report(_read_set(args.set, stdin))
    ctx = report.context
    text = [f"rescaled by 1/sup to {report.checked}"] if report.rescaled else []
    text += [f"context: a={ctx.a} eps1={ctx.eps1} eps2={ctx.eps2}",
             *map(str, report.records),
             "all checks passed" if report.all_passed
             else f"{len(report.failures)} CHECK(S) FAILED"]
    return report.records, text


def _cmd_trace(args, stdin):
    t = trace_measure_bound(_read_set(args.set, stdin), rescale=True)
    text = [f"rescaled by 1/sup to {t.checked}"] if t.rescaled else []
    text += [f"case: {t.case}", f"a={t.context.a} eps1={t.context.eps1} eps2={t.context.eps2}"]
    if t.r is not None:
        text.append(f"R={t.R}  r={t.r}  eta1={t.eta1}  eta2={t.eta2}")
    if t.b is not None:
        text.append(f"R0={t.R0}  b={t.b}")
    eq = " (attained with equality)" if t.equality_attained else ""
    text += [*map(str, t.verdicts),
             f"measure {_rat(t.measure, args)} <= certified bound "
             f"{_rat(t.final_bound, args)}{eq}"]
    if t.failures:
        text.append(f"{len(t.failures)} CHECK(S) FAILED")
    return t.verdicts, text


def _cmd_extremal(args, stdin):
    rep = check_extremal_containment(_read_set(args.set, stdin))
    records = [CheckRecord("extremal-measure", rep.measure, MAX_MEASURE)]
    if not rep.is_extremal:
        return records, [f"not extremal: measure {_rat(rep.measure, args)} != 77/177"]
    c = rep.container
    records += [("sym-diff-zero", "-", "-", rep.sym_diff_zero),
                ("containment", "-" if c is None else f"A{c}", "-", c is not None)]
    return records, [
        "extremal: measure 77/177",
        f"symmetric difference with base set has measure zero: {rep.sym_diff_zero}",
        "CONTAINED IN NO MAXIMAL SET (inconsistent!)" if c is None else
        f"contained in a{c} (all containers: {', '.join(f'a{i}' for i in rep.containers)})"]


def _cmd_optimize(args, stdin):
    result = optimize(args.m, 0, args.iters)  # the seed does not affect the result
    s = result.search
    verdict = (f"proved: no set of at most {args.m} components measures more" if s.proved
               else "not proved: the node budget ran out")
    return ([CheckRecord("optimize", result.measure, MAX_MEASURE), str(result.best)],
            [f"best set: {result.best}", f"measure: {_rat(result.measure, args)}",
             f"nodes {s.nodes}, pivots {s.pivots}, pruned leaves {s.pruned}, {verdict}"])


def _cmd_discrete_max(args, stdin):
    result = max_k_sum_free(args.n, args.k, enumerate_sets=args.all, budget=args.budget)
    sets = [str(s) for s in result.extremal_sets or ()]
    return ([("max-size", result.max_size, "-", True),
             ("extremal-count", result.extremal_count, "-", True), *sets],
            [f"n={result.n} k={result.k}: max size {result.max_size}, "
             f"{result.extremal_count} extremal set(s), {result.nodes_explored} nodes",
             *sets])


def _cmd_gen(args, stdin):
    return [], [str(random_sum_free(args.seed, args.components))]


def _cmd_density(args, stdin):
    rep = density_report(args.k, args.n)
    return ([("search-ratio", rep.search_ratio, "-", True),
             ("asymptotic-density", rep.asymptotic_density, "-", True)], [str(rep)])


if __name__ == "__main__":
    main()
