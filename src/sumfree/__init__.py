"""Exact-arithmetic toolkit for 3-sum-free (and k-sum-free) sets.

A set is k-sum-free when no x, y, z in it satisfy x + y = k*z.  This
package provides the exact rational interval-set algebra needed to
decide that predicate on finite interval unions, the extremal
three-interval construction of measure 77/177 inside [0,1] together
with its seven maximal augmentations, executable verifiers for the
measure inequalities these sets obey, an exact LP branch and bound
that finds the optimum over sets of at most m components with a
certificate that checks without the solver, and an exhaustive search
for the integer variant on {1..n}.

Everything numeric is an exact rational; no verdict anywhere depends on
floating point.
"""

from .constructions import (
    FORBIDDEN_COMBINATION_BITS,
    cg_density,
    construct_extremal,
    endpoint_combination,
    extremal_base,
    random_sum_free,
)
from .intervals import EmptySetError, Interval, IntervalSet, ParseError
from .lemmas import (
    CheckRecord,
    LemmaContext,
    LemmaReport,
    PreconditionError,
    check_dense_tail_bound,
    check_extent_bound,
    check_sumset_min_bound,
    check_superadditivity,
    check_tail_bound,
    check_tail_equality,
    check_top_window_bound,
    lemma_report,
)
from .optimize import OptimizeResult, optimize
from .predicates import NotSumFreeError, Witness, forbidden_region, is_k_sum_free
from .rationals import MAX_MEASURE, RATIONAL_BACKEND, Rational, rational, to_decimal
from .trace import (
    ContainmentReport,
    ProofTrace,
    TraceCase,
    check_extremal_containment,
    trace_measure_bound,
)

__version__ = "0.1.0"

__all__ = [
    "CheckRecord",
    "ContainmentReport",
    "EmptySetError",
    "FORBIDDEN_COMBINATION_BITS",
    "Interval",
    "IntervalSet",
    "LemmaContext",
    "LemmaReport",
    "MAX_MEASURE",
    "NotSumFreeError",
    "OptimizeResult",
    "ParseError",
    "PreconditionError",
    "ProofTrace",
    "RATIONAL_BACKEND",
    "Rational",
    "TraceCase",
    "Witness",
    "cg_density",
    "check_dense_tail_bound",
    "check_extent_bound",
    "check_extremal_containment",
    "check_sumset_min_bound",
    "check_superadditivity",
    "check_tail_bound",
    "check_tail_equality",
    "check_top_window_bound",
    "construct_extremal",
    "endpoint_combination",
    "extremal_base",
    "forbidden_region",
    "is_k_sum_free",
    "lemma_report",
    "optimize",
    "random_sum_free",
    "rational",
    "to_decimal",
    "trace_measure_bound",
]
