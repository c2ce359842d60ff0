"""Exact search for maximum k-sum-free subsets of {1..n}.

The heavy lifting happens in the pure-Python bitmask kernel
(``_kernel_py``): a branch-and-bound with two bounds, a Russian-doll
table of suffix maxima (which the search proves for itself level by
level before the counting pass) and a greedy matching of candidates
that cannot both join the chosen set.  A tight node, whose chosen and
candidate counts add up to the incumbent, can tie only by taking every
candidate, so it tests that one set with a bitmask test and stops.
Sibling nodes differ by one candidate, so each call of the search
computes the matching once and resumes it from node to node.

Searches are exhaustive with a guaranteed-correct answer, so they are
gated by a size budget and refuse loudly beyond it rather than degrade
into heuristics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..intervals import IntervalSet
from ..rationals import Rational, rational
from . import _kernel_py
from ._kernel_py import EXTREMAL_CAP

__all__ = [
    "IntSet",
    "SearchResult",
    "DensityReport",
    "BudgetError",
    "KERNEL_BACKEND",
    "DEFAULT_BUDGET",
    "EXTREMAL_CAP",
    "is_k_sum_free_int",
    "max_k_sum_free",
    "discretize",
    "density_report",
]

#: name of the integer kernel in use, recorded by benchmark runs
KERNEL_BACKEND = "python"
#: largest n the pruned search accepts by default.  The value is part of
#: the CLI's contract (its budget refusal), not a time limit: the slowest
#: search over k = 1..6, k = 3, takes 2.1-3.1 ms at the reference speed
#: of bench/speed.py at each of n = 48, 49 and 50 (k = 1 0.75-0.9 ms; the
#: least of 15 runs, in two rounds)
DEFAULT_BUDGET = 49


class BudgetError(ValueError):
    """The requested n exceeds the exhaustive-search budget."""

    def __init__(self, n: int, budget: int):
        super().__init__(
            f"n = {n} exceeds the exhaustive budget ({budget}); "
            "raise the budget explicitly if you accept the cost"
        )


@dataclass(frozen=True)
class IntSet:
    """A subset of {1..n}, canonical text form ``{1,3,5}``.

    n and the elements are ints (a bool or a float such as 2.0 is
    rejected); n = 0 is the empty universe of ``IntSet.parse("{}")``.
    """

    n: int
    elements: tuple

    def __post_init__(self):
        if type(self.n) is not int or self.n < 0:
            raise ValueError(f"n must be >= 0 (an int), got {self.n!r}")
        elems = tuple(self.elements)
        if any(type(e) is not int for e in elems):
            raise ValueError(f"elements must be ints, got {elems!r}")
        elems = tuple(sorted(set(elems)))
        if elems and not (1 <= elems[0] and elems[-1] <= self.n):
            raise ValueError(f"elements must lie in 1..{self.n}")
        object.__setattr__(self, "elements", elems)

    @classmethod
    def from_mask(cls, mask: int, n: int) -> "IntSet":
        return cls(n, tuple(i for i in range(1, n + 1) if (mask >> (i - 1)) & 1))

    @classmethod
    def parse(cls, text: str, n: Optional[int] = None) -> "IntSet":
        body = text.strip()
        if not (body.startswith("{") and body.endswith("}")):
            raise ValueError(f"expected '{{a,b,...}}', got {text!r}")
        inner = body[1:-1].strip()
        elems = tuple(int(tok) for tok in inner.split(",") if tok.strip()) if inner else ()
        return cls(n if n is not None else (max(elems) if elems else 0), elems)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __str__(self) -> str:
        return "{" + ",".join(str(e) for e in self.elements) + "}"


@dataclass(frozen=True)
class SearchResult:
    n: int
    k: int
    max_size: int
    extremal_count: int
    extremal_sets: Optional[tuple]
    nodes_explored: int


@dataclass(frozen=True)
class DensityReport:
    """Side-by-side desk-scale ratio and asymptotic density for k >= 4.

    Convergence is asymptotic; no equality between the two columns is
    claimed or tested at small n.
    """

    n: int
    k: int
    max_size: int
    search_ratio: Rational
    asymptotic_density: Rational

    def __str__(self) -> str:
        return (f"k={self.k} n={self.n}: search max {self.max_size} "
                f"(ratio {self.search_ratio} ~ {float(self.search_ratio):.6f}), "
                f"asymptotic density {self.asymptotic_density} "
                f"~ {float(self.asymptotic_density):.6f}")


def is_k_sum_free_int(S, k: int):
    """Exact predicate on an IntSet or iterable of positive integers.

    Returns (True, None) or (False, (x, y, z)) with x + y = k*z.  k and
    every element are ints >= 1, as in ``max_k_sum_free``; a bool or a
    float such as 3.0 is rejected.
    """
    if type(k) is not int or k < 1:
        raise ValueError(f"k must be >= 1 (an int), got {k!r}")
    elems = tuple(S)
    bad = [x for x in elems if type(x) is not int or x < 1]
    if bad:
        raise ValueError(f"elements must be ints >= 1, got {bad[0]!r}")
    elems = set(elems)
    ordered = sorted(elems)
    for z in ordered:
        target = k * z
        for x in ordered:
            y = target - x
            if y >= x and y in elems:
                return False, (x, y, z)
    return True, None


def max_k_sum_free(n: int, k: int, enumerate_sets: bool = False,
                   budget: int = DEFAULT_BUDGET) -> SearchResult:
    """Exact maximum k-sum-free subset of {1..n}, with extremal census.

    The extremal count is exact; listed sets are capped at ``EXTREMAL_CAP``.
    Refuses n beyond ``budget`` (raise it explicitly to go further).  n
    and k are ints >= 1 (a bool or a float such as 3.0 is rejected).
    """
    if type(n) is not int or n < 1:
        raise ValueError(f"n must be >= 1 (an int), got {n!r}")
    if type(k) is not int or k < 1:
        raise ValueError(f"k must be >= 1 (an int), got {k!r}")
    if n > budget:
        raise BudgetError(n, budget)
    best, count, masks, nodes = _kernel_py.search(n, k, enumerate_sets)
    sets = tuple(IntSet.from_mask(m, n) for m in masks) if enumerate_sets else None
    return SearchResult(n, k, best, count, sets, nodes)


def discretize(A: IntervalSet, n: int) -> IntSet:
    """{ i in 1..n : i/n in A }, membership decided exactly.

    If A is k-sum-free so is the result: x + y = k*z over the integers
    gives the same relation for x/n, y/n, z/n.  n is an int >= 1, as in
    ``max_k_sum_free``.
    """
    if type(n) is not int or n < 1:
        raise ValueError(f"n must be >= 1 (an int), got {n!r}")
    return IntSet(n, tuple(i for i in range(1, n + 1) if A.contains(rational(i, n))))


def density_report(k: int, n: int) -> DensityReport:
    """Exhaustive desk-scale maximum next to the k >= 4 asymptotic density."""
    from ..constructions import cg_density

    density = cg_density(k)  # rejects k < 4 before the search runs
    result = max_k_sum_free(n, k)
    return DensityReport(n, k, result.max_size,
                         rational(result.max_size, n), density)
