"""The three benchmark workloads and the per-layer metrics of a traced pass.

Each workload holds a list of *items*, the inputs one user call
processes, and offers:

``call(item)``     the timed program calls for one item;
``work(item)``     units of work in the item (sets, optimizer
                   iterations, searches) for the throughput metric;
``check(item, out)`` errors found by comparing ``out`` with answers the
                   benchmark knows independently (see ``oracle``);
``summary(out)``   a comparable value, so a traced pass can be shown to
                   return exactly what an untraced pass returned.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Any

import oracle

CASES = ("early-exit", "degenerate-R-empty", "Case1-R0-empty", "Case1-R0-nonempty", "Case2")
INTERVAL_OPS = ("parse", "minkowski", "union", "intersect", "difference",
                "symmetric_difference", "dilate")
CHECKERS = ("check_extent_bound", "check_top_window_bound", "check_tail_bound",
            "check_tail_equality", "check_dense_tail_bound", "check_sumset_min_bound",
            "check_superadditivity")

#: optimize(M, seed, ITERATIONS) runs for each of SEEDS; keyword defaults kept
OPTIMIZE_M = 3
OPTIMIZE_SEEDS = (1, 2, 3)
OPTIMIZE_ITERATIONS = 1600
#: (n, k) -> (max_size, extremal_count), pinned from the search at the
#: commit that added the benchmark; every listed set is re-checked here
DISCRETE_PINS = {(62, 3): (31, 1), (62, 4): (36, 5), (62, 5): (41, 3)}


def load_program():
    """Import the package and every module a user call can reach."""
    names = ("sumfree", "sumfree.cli", "sumfree.discrete", "sumfree.discrete.search",
             "sumfree.intervals", "sumfree.predicates", "sumfree.constructions",
             "sumfree.lemmas", "sumfree.trace", "sumfree.optimize")
    return {name: importlib.import_module(name) for name in names}


# -- certify ------------------------------------------------------------


@dataclass
class CertifyOut:
    parsed: Any
    verdict: bool
    witness: Any
    raised: Any = None
    report: Any = None
    trace: Any = None
    containment: Any = None


class Certify:
    """Each corpus text through parse, the predicate, the lemma report,
    the rescaled proof trace and the extremal containment check."""

    name = "certify"
    unit = "set"

    def __init__(self, program, seed: int, size: int = 200):
        self.sf = program["sumfree"]
        self.items = oracle.corpus(seed, size)

    def warm_up(self):
        for i in (0, 1):
            self.call(oracle.make_case(oracle.extremal(i), True))

    def call(self, case):
        sf = self.sf
        A = sf.IntervalSet.parse(case.text)
        ok, witness = sf.is_k_sum_free(A, 3)
        if not ok:
            try:
                sf.lemma_report(A)
            except sf.NotSumFreeError as exc:
                return CertifyOut(A, ok, witness, raised=exc.witness)
            return CertifyOut(A, ok, witness)
        return CertifyOut(A, ok, witness, None, sf.lemma_report(A),
                          sf.trace_measure_bound(A, rescale=True),
                          sf.check_extremal_containment(A))

    def work(self, case):
        return 1

    def check(self, case, out) -> list:
        errs = []
        A = out.parsed
        if oracle.measure(oracle.pieces_of(A)) != case.measure or oracle.frac(A.sup()) != case.sup:
            errs.append("parsed set differs from the text")
        if out.verdict != case.sum_free:
            errs.append(f"is_k_sum_free says {out.verdict}, expected {case.sum_free}")
        if not case.sum_free:
            if out.witness is None or not oracle.witness_holds(out.witness, case.pieces):
                errs.append(f"bad witness {out.witness}")
            if out.raised is None or not oracle.witness_holds(out.raised, case.pieces):
                errs.append("lemma_report did not raise NotSumFreeError with a valid witness")
            return errs
        if out.witness is not None:
            errs.append("witness returned for a sum-free set")
        if out.report is None:
            return errs
        mu = case.rescaled_measure
        rep, tr, cont = out.report, out.trace, out.containment
        if not rep.all_passed or bool(rep.rescaled) != (case.sup != 1):
            errs.append(f"lemma report: {[str(r) for r in rep.failures]}")
        if oracle.measure(oracle.pieces_of(rep.checked)) != mu:
            errs.append("lemma report checked the wrong rescaled set")
        bound = oracle.frac(tr.final_bound)
        if not tr.all_passed or oracle.frac(tr.measure) != mu:
            errs.append(f"trace: {[str(v) for v in tr.failures]}")
        if not mu <= bound <= oracle.CEILING:
            errs.append(f"trace bound {bound} not in [{mu}, 77/177]")
        if (tr.case.value == "early-exit") != (mu < oracle.DENSE_THRESHOLD):
            errs.append(f"trace case {tr.case.value} for rescaled measure {mu}")
        if bool(cont.is_extremal) != case.extremal:
            errs.append(f"containment is_extremal={cont.is_extremal}")
        elif case.extremal and not (
            cont.consistent and cont.sym_diff_zero
            and tuple(cont.containers) == case.containers
            and cont.container == next(iter(case.containers), None)
        ):
            errs.append(f"containers {cont.containers}, expected {case.containers}")
        return errs

    def summary(self, out):
        parts = [str(out.parsed), out.verdict, str(out.witness), str(out.raised)]
        if out.report is not None:
            tr, cont = out.trace, out.containment
            parts += [tuple(map(str, out.report.records)), str(out.report.checked),
                      tr.case.value, str(tr.final_bound), tuple(map(str, tr.verdicts)),
                      cont.is_extremal, cont.sym_diff_zero, tuple(cont.containers)]
        return tuple(parts)

    def returned_sets(self, out):
        sets = [out.parsed]
        if out.report is not None:
            sets += [out.report.checked, out.trace.checked]
        return sets

    def layer_values(self, outs) -> dict:
        counts = dict.fromkeys(CASES, 0)
        for out in outs:
            if out.trace is not None and out.trace.case.value in counts:
                counts[out.trace.case.value] += 1
        return {f"trace.case.{c}": (n, "count") for c, n in counts.items()}


# -- optimize ------------------------------------------------------------


class Optimize:
    """optimize(3, seed, 1600) for a fixed list of seeds."""

    name = "optimize"
    unit = "iteration"

    def __init__(self, program, seed: int):
        # the seed list is fixed: the gap to the ceiling is then a
        # deterministic quality guard
        self.sf = program["sumfree"]
        self.items = list(OPTIMIZE_SEEDS)

    def warm_up(self):
        self.sf.optimize(OPTIMIZE_M, 0, 40)

    def call(self, seed):
        return self.sf.optimize(OPTIMIZE_M, seed, OPTIMIZE_ITERATIONS)

    def work(self, seed):
        return OPTIMIZE_ITERATIONS

    def check(self, seed, out) -> list:
        pieces = oracle.pieces_of(out.best)
        mu = oracle.measure(pieces)
        errs = []
        if (out.m, out.seed, out.iterations) != (OPTIMIZE_M, seed, OPTIMIZE_ITERATIONS):
            errs.append("result does not echo its arguments")
        if not pieces or not oracle.sorted_disjoint(pieces) or len(pieces) > OPTIMIZE_M:
            errs.append(f"best set is not 1..{OPTIMIZE_M} disjoint pieces: {out.best}")
        elif pieces[0][0] < 0 or pieces[-1][1] > 1:
            errs.append(f"best set leaves [0,1]: {out.best}")
        if mu != oracle.frac(out.measure) or mu > oracle.CEILING:
            errs.append(f"measure {out.measure} wrong or above 77/177")
        if not oracle.is_k_sum_free(pieces):
            errs.append(f"best set is not 3-sum-free: {out.best}")
        return errs

    def summary(self, out):
        return (str(out.best), str(out.measure), out.accepted, out.evaluated)

    def returned_sets(self, out):
        return [out.best]

    def layer_values(self, outs) -> dict:
        accepted = sum(o.accepted for o in outs)
        evaluated = sum(o.evaluated for o in outs)
        gap = sum((oracle.CEILING - oracle.frac(o.measure) for o in outs), F(0))
        return {
            "optimize.accept_ratio": (accepted / evaluated if evaluated else 0.0, "ratio"),
            "optimize.evaluated": (evaluated, "count"),
            "optimize.gap_to_ceiling": (float(gap), "measure"),
        }


# -- discrete ------------------------------------------------------------


class Discrete:
    """One item is the batch of searches at DISCRETE_PINS, with every
    maximum set listed."""

    name = "discrete"
    unit = "search"

    def __init__(self, program, seed: int):
        self.discrete = program["sumfree.discrete"]
        self.items = [tuple(DISCRETE_PINS)]

    def warm_up(self):
        self.discrete.max_k_sum_free(24, 3, enumerate_sets=True, budget=24)

    def call(self, batch):
        search = self.discrete.max_k_sum_free
        return [search(n, k, enumerate_sets=True, budget=n) for n, k in batch]

    def work(self, batch):
        return len(batch)

    def check(self, batch, out) -> list:
        errs = []
        for (n, k), res in zip(batch, out):
            size, count = DISCRETE_PINS[(n, k)]
            sets = [tuple(s.elements) for s in res.extremal_sets]
            if (res.n, res.k, res.max_size, res.extremal_count) != (n, k, size, count):
                errs.append(f"n={n} k={k}: size {res.max_size} count {res.extremal_count}, "
                            f"expected {size} and {count}")
            if len(sets) != count or len(set(sets)) != len(sets):
                errs.append(f"n={n} k={k}: {len(sets)} distinct sets listed, expected {count}")
            for s in sets:
                if not (len(s) == size and set(s) <= set(range(1, n + 1))
                        and oracle.int_sum_free(s, k) and oracle.int_maximal(s, n, k)):
                    errs.append(f"n={n} k={k}: {s} is not a maximal {k}-sum-free "
                                f"set of size {size}")
        return errs

    def summary(self, out):
        return tuple((r.max_size, r.extremal_count, r.extremal_sets, r.nodes_explored) for r in out)

    def returned_sets(self, out):
        return []

    def layer_values(self, outs) -> dict:
        return {"discrete.nodes": (sum(r.nodes_explored for o in outs for r in o), "count")}


WORKLOADS = {w.name: w for w in (Certify, Optimize, Discrete)}


# -- traced pass -----------------------------------------------------------


def _operands(tracer, span, args, result):
    operands = [a for a in args[:2] if hasattr(a, "components")]
    tracer.note("interval_operands", len(operands))
    tracer.note("interval_operand_components", sum(len(a) for a in operands))


def _verdict(tracer, span, args, result):
    tracer.note("sum_free_true", 1 if result[0] else 0)


def _search_size(tracer, span, args, result):
    _, start, end, _, _ = span
    tracer.notes.setdefault("searches", []).append((f"n{args[0]}k{args[1]}", start, end))


def trace_targets(program):
    """(span name, function, observe) for every traced public function."""
    m = program
    iset = m["sumfree.intervals"].IntervalSet
    targets = [("intervals.parse", vars(iset)["parse"].__func__, None)]
    targets += [(f"intervals.{op}", vars(iset)[op], _operands) for op in INTERVAL_OPS[1:]]
    targets += [
        ("predicates.is_k_sum_free", m["sumfree.predicates"].is_k_sum_free, _verdict),
        ("predicates.forbidden_region", m["sumfree.predicates"].forbidden_region, None),
        ("constructions.construct_extremal", m["sumfree.constructions"].construct_extremal, None),
        ("lemmas.lemma_report", m["sumfree.lemmas"].lemma_report, None),
        ("trace.trace_measure_bound", m["sumfree.trace"].trace_measure_bound, None),
        ("trace.check_extremal_containment", m["sumfree.trace"].check_extremal_containment, None),
        ("optimize.optimize", m["sumfree.optimize"].optimize, None),
        ("discrete.max_k_sum_free", m["sumfree.discrete.search"].max_k_sum_free, _search_size),
    ]
    targets += [("lemmas.checkers", getattr(m["sumfree.lemmas"], c), None) for c in CHECKERS]
    return targets, (iset,)


LAYER_SPANS = (
    [f"intervals.{op}" for op in INTERVAL_OPS]
    + ["predicates.is_k_sum_free", "predicates.forbidden_region", "lemmas.lemma_report",
       "lemmas.checkers", "trace.trace_measure_bound", "trace.check_extremal_containment",
       "constructions.construct_extremal"]
)


def layer_metrics(workload, tracer, outs, work_done, untraced_s, traced_s, duration) -> dict:
    """Every per-layer metric, as name -> (value, unit); layers the
    workload bypasses read 0.  ``duration(start, end)`` gives a span's
    seconds."""
    times = tracer.self_times(duration)
    notes = tracer.notes
    out = {}
    for name in LAYER_SPANS:
        calls, self_s = times.get(name, (0, 0.0))
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (self_s, "s")
    operands = notes.get("interval_operands", 0)
    out["intervals.operand_components_mean"] = (
        notes.get("interval_operand_components", 0) / operands if operands else 0.0, "count")
    checks = times.get("predicates.is_k_sum_free", (0, 0.0))[0]
    out["predicates.is_k_sum_free.true_ratio"] = (
        notes.get("sum_free_true", 0) / checks if checks else 0.0, "ratio")
    out["predicates.checks_per_op"] = (checks / work_done if work_done else 0.0, "count")
    reports = times.get("lemmas.lemma_report", (0, 0.0))[0]
    within = tracer.count_within("predicates.is_k_sum_free", "lemmas.lemma_report")
    out["lemmas.checks_per_report"] = (within / reports if reports else 0.0, "count")
    dens = [int(x.denominator) for o in outs for s in workload.returned_sets(o)
            for c in s.components for x in (c.lo, c.hi)]
    out["rationals.max_den_digits"] = (len(str(max(dens))) if dens else 0, "count")
    out["optimize.optimize.self_s"] = (times.get("optimize.optimize", (0, 0.0))[1], "s")
    out.update({"optimize.accept_ratio": (0.0, "ratio"), "optimize.evaluated": (0, "count"),
                "optimize.gap_to_ceiling": (0.0, "measure")})
    out.update({f"trace.case.{c}": (0, "count") for c in CASES})
    out["discrete.nodes"] = (0, "count")
    out.update(workload.layer_values(outs))
    search_s = {f"n{n}k{k}": 0.0 for n, k in DISCRETE_PINS}
    for key, start, end in notes.get("searches", []):
        search_s[key] += duration(start, end)
    total = sum(search_s.values())
    out["discrete.nodes_per_s"] = (out["discrete.nodes"][0] / total if total else 0.0, "1/s")
    out.update({f"discrete.search_s.{key}": (v, "s") for key, v in search_s.items()})
    out["tracing.untraced_s"] = (untraced_s, "s")
    out["tracing.traced_s"] = (traced_s, "s")
    out["tracing.overhead_s"] = (traced_s - untraced_s, "s")
    return out
