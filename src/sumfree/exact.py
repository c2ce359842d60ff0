"""The exact optimum over sets of at most m components, with a certificate.

A k-sum-free subset of [0, 1] with at most m components has the same
measure as its interior, m open intervals (l_i, h_i), sorted, some of
them possibly empty.  Open intervals I_i + I_j and k I_q are disjoint
exactly when one lies left of the other, so the interior is k-sum-free
if and only if for every i <= j and every q

    h_i + h_j <= k l_q   or   k h_q <= l_i + l_j.

The problem is therefore a disjunctive linear program in the 2m
variables l_1..l_m, h_1..h_m (all >= 0): maximise sum (h_i - l_i) over
the base rows l_i <= h_i, h_i <= l_{i+1}, h_m <= 1 and 2 h_i <= k l_i,
and one side of every disjunction.  The base row 2 h_i <= k l_i is the
first side of the disjunction (i, i, i); its second side, k h_i <= 2 l_i,
holds only for h_i = l_i = 0, which the first side allows too.  This is
the computer check that the paper credits to Matolcsi and Ruzsa, made
exact.

A set with m' < m nonempty components is covered too, but an empty
slot l_i = h_i = p must sit where the program allows it: the "if and
only if" above fails for a slot placed badly.  (4/21, 2/7) | (2/3, 1)
is 3-sum-free, yet with a slot at 0 it violates (slot, top, bottom),
as 1 > 3*4/21 and 3*2/7 > 2/3; (1/2, 3/5) with a slot at 1 violates
(j, slot, j), as 3/5 + 1 > 3/2 and 9/5 > 3/2.  The lemma: a k-sum-free
set A in [0, 1] with m' < m nonempty components is a feasible point of
the m-slot program when each empty slot sits at an endpoint of a
nonempty component, in sorted position (before the component at its
left end, after it at its right end).  The base rows hold: the slots
keep the order, and 2p <= kp.  A disjunction with no empty slot holds
as above.  One with an empty slot at p fails only if an open interval
meets a point or an open interval built from p: p + I_j meets k I_q,
kp lies in I_i + I_j, p + p' lies in k I_q, or kp'' - p lies in I_j
(p, p', p'' empty slots; if all three are empty, the two sides cannot
both fail).  But p is a closure point of A, so points x of A lie
arbitrarily near p, and the same open condition holds with x in place
of p (with x', x'' near p', p'' too), a triple of A.  So every set with
at most m components meets the rows of some leaf of the search, and a
finished search bounds all of them.

``branch_and_bound`` solves the LP at a node, branches on the most
violated disjunction at its optimum (depth first, the first side
first), and prunes a node whose LP value is at most the incumbent.  Every
row but h_m <= 1 is homogeneous, so the origin is feasible: the root
needs one primal phase, and a child, which copies its parent's optimal
tableau and adds its one row, needs only the dual simplex and is never
infeasible.

``Tableau`` keeps the simplex tableau in condensed (dictionary) form,
as ints over one common denominator d, the determinant of the basis
(fraction-free pivoting, as in lrs).  A basic variable's column is d in
its own row and 0 elsewhere, so it is not stored: each row holds its
right-hand side and the columns of the n nonbasic variables, and
``nonbasic[j]`` names the variable of column j as ``basis[r]`` names
that of row r.  A pivot on the entry p of row r and column s swaps
``basis[r]`` and ``nonbasic[s]``, and

- an entry x off row r and column s (in the objective row too), with f
  in column s of its row and y in row r of its column, becomes
  (x p - f y) / d, an exact division;
- row r stays as it is (negated first if p < 0, which keeps d > 0);
- column s becomes the leaving variable's: -f in every other row and
  the objective row, and d in row r, each sign flipped when row r was
  negated;
- d becomes p.

These are the entries a full tableau would hold in the nonbasic columns,
so the basic values, the objective and the dual multipliers are ints
over d, and the branch choice compares ints.  Both phases use Bland's
rule: the primal enters the least improving variable; the dual leaves
the infeasible row of least basic variable and enters the column of
least ratio, the least variable on ties.  The rule goes by variable,
not column position, because a pivot puts the leaving variable in the
entering one's column; so it neither cycles nor depends on the layout,
and it makes the pivots of the full tableau, whose columns are the
variables in order.

A finished search is a certificate that needs no simplex to check:
``check_certificate`` verifies that every inner node of the tree splits
one disjunction into its two sides, and that every leaf's multipliers y
satisfy y >= 0, y A >= c and y b <= the bound, so by weak duality no
point of the leaf's polyhedron, and hence no set with at most m
components, measures more than the bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .intervals import IntervalSet

__all__ = ["Node", "Search", "Tableau", "branch_and_bound", "check_certificate",
           "solve_lp"]


class Tableau:
    """An optimal simplex tableau of max c.x subject to A x <= b, x >= 0,
    in condensed form: only the nonbasic columns are kept.

    The variables are numbered 1..n for x and n + 1 + i for the slack of
    row i.  Row r holds the basic variable ``basis[r]``; column j holds
    the nonbasic variable ``nonbasic[j]`` for j >= 1, and column 0 the
    right-hand sides (``nonbasic[0]`` is 0).  Every entry is an int over
    the common denominator ``d``; ``z`` is the objective row (reduced
    costs, and the objective value in column 0) over the same d.  A basic
    variable's column, d in its own row and 0 elsewhere and in z, is not
    stored.  A pivot follows the four rules of the module docstring, and
    both phases choose by variable, not by column.  ``pivots`` counts the
    pivots made, those of the tableau it was copied from included.
    """

    __slots__ = ("n", "d", "rows", "z", "basis", "nonbasic", "pivots")

    def __init__(self, c, rows):
        """The optimum from the origin, by the primal simplex; every
        right-hand side must be >= 0, so that the origin is feasible."""
        n = len(c)
        self.n, self.d, self.pivots = n, 1, 0
        self.rows = []
        for a, b in rows:
            if b < 0:
                raise ValueError("the origin must be feasible: every right-hand side >= 0")
            self.rows.append([b, *a])
        self.z = [0] + [-x for x in c]
        self.basis = list(range(1 + n, 1 + n + len(rows)))
        self.nonbasic = list(range(1 + n))
        self._primal()

    def copy(self) -> "Tableau":
        t = object.__new__(Tableau)
        t.n, t.d, t.pivots = self.n, self.d, self.pivots
        t.rows = [row[:] for row in self.rows]
        t.z, t.basis, t.nonbasic = self.z[:], self.basis[:], self.nonbasic[:]
        return t

    def add_row(self, a, b) -> None:
        """Add the row a.x <= b, written in the current basis, and
        restore optimality by the dual simplex."""
        d, n = self.d, self.n
        new = [d * b] + [d * a[v - 1] if v <= n else 0 for v in self.nonbasic[1:]]
        for row, v in zip(self.rows, self.basis):
            if v <= n and a[v - 1]:
                f = a[v - 1]
                new = [x - f * y for x, y in zip(new, row)]
        self.rows.append(new)
        self.basis.append(1 + n + len(self.basis))
        self._dual()

    # -- reading the optimum ----------------------------------------------

    @property
    def value(self) -> Fraction:
        return Fraction(self.z[0], self.d)

    def vertex(self) -> list:
        """The optimal x_1..x_n as ints over d."""
        x = [0] * self.n
        for row, v in zip(self.rows, self.basis):
            if v <= self.n:
                x[v - 1] = row[0]
        return x

    def multipliers(self) -> tuple:
        """The dual optimum y, one per row, as ints over d: the objective
        row at the column of the row's slack, 0 for a basic slack."""
        n, y = self.n, [0] * len(self.rows)
        for j, v in enumerate(self.nonbasic):
            if v > n:
                y[v - n - 1] = self.z[j]
        return tuple(y)

    # -- pivoting -----------------------------------------------------------

    def _pivot(self, r: int, s: int) -> None:
        """Variable nonbasic[s] enters, basis[r] leaves, and column s
        becomes the leaving variable's column."""
        rows, d = self.rows, self.d
        pr = rows[r]
        p = pr[s]
        sign = 1
        if p < 0:  # keep d > 0: row r is divided by p, so negating both changes nothing
            pr = rows[r] = [-x for x in pr]
            p, sign = -p, -1
        # the leaving variable's column was sign * d in row r and 0
        # elsewhere, so an entry f of column s off row r becomes
        # (0 p - f sign d) / d = -sign f
        for i, row in enumerate(rows):
            if i == r:
                continue
            f = row[s]
            if f:
                row = rows[i] = [(x * p - f * y) // d for x, y in zip(row, pr)]
                row[s] = -sign * f
            elif p != d:
                rows[i] = [x * p // d for x in row]
        f = self.z[s]
        z = self.z = [(x * p - f * y) // d for x, y in zip(self.z, pr)]
        z[s] = -sign * f
        pr[s] = sign * d
        self.basis[r], self.nonbasic[s] = self.nonbasic[s], self.basis[r]
        self.d = p
        self.pivots += 1

    def _primal(self) -> None:
        rows, basis, nonbasic = self.rows, self.basis, self.nonbasic
        while True:
            z = self.z
            s = min((j for j in range(1, len(z)) if z[j] < 0),
                    key=nonbasic.__getitem__, default=None)
            if s is None:
                return
            r = None
            for i, row in enumerate(rows):
                if row[s] > 0:
                    if r is None:
                        r = i
                        continue
                    # ratio row[0] / row[s] against the best so far
                    lhs, rhs = row[0] * rows[r][s], rows[r][0] * row[s]
                    if lhs < rhs or lhs == rhs and basis[i] < basis[r]:
                        r = i
            if r is None:
                raise ArithmeticError("the LP is unbounded")
            self._pivot(r, s)

    def _dual(self) -> None:
        rows, basis, nonbasic = self.rows, self.basis, self.nonbasic
        while True:
            r = min((i for i, row in enumerate(rows) if row[0] < 0),
                    key=basis.__getitem__, default=None)
            if r is None:
                return
            pr, z, s = rows[r], self.z, None
            for j in range(1, len(pr)):
                # least ratio z_j / |a_rj| over a_rj < 0, the least variable on ties
                if pr[j] < 0:
                    if s is None:
                        s = j
                        continue
                    lhs, rhs = z[j] * -pr[s], z[s] * -pr[j]
                    if lhs < rhs or lhs == rhs and nonbasic[j] < nonbasic[s]:
                        s = j
            if s is None:
                raise ArithmeticError("the LP is infeasible")
            self._pivot(r, s)


def solve_lp(c, rows) -> tuple:
    """max c.x subject to a.x <= b for each (a, b) in rows and x >= 0, for
    int c, a and b with every b >= 0: ``(value, x, y)``, the optimum, an
    optimal vertex and the dual multipliers, exact.  Raises
    ``ArithmeticError`` when the LP is unbounded."""
    t = Tableau(c, rows)
    return (t.value, tuple(Fraction(v, t.d) for v in t.vertex()),
            tuple(Fraction(v, t.d) for v in t.multipliers()))


# -- the disjunctive program ---------------------------------------------------


def _row(m: int, terms, b: int = 0):
    """The row sum coef * x_var <= b from (var, coef) terms."""
    a = [0] * (2 * m)
    for var, coef in terms:
        a[var] += coef
    return a, b


def _program(m: int, k: int):
    """The objective sum (h_i - l_i) over the variables l_1..l_m,
    h_1..h_m; the base rows l_i <= h_i, h_i <= l_{i+1}, h_m <= 1 and
    2 h_i <= k l_i; and every disjunction (i, j, q), i <= j but not
    (i, i, i), in branching order."""
    if type(m) is not int or m < 1:
        raise ValueError(f"m must be >= 1 (an int), got {m!r}")
    # for k <= 2 the other side of (i, i, i) allows nonempty components
    if type(k) is not int or k < 3:
        raise ValueError(f"k must be >= 3 (an int), got {k!r}")
    rows = [_row(m, ((m + i, -1), (i, 1))) for i in range(m)]
    rows += [_row(m, ((m + i, 1), (i + 1, -1))) for i in range(m - 1)]
    rows.append(_row(m, ((2 * m - 1, 1),), 1))
    rows += [_row(m, ((m + i, 2), (i, -k))) for i in range(m)]
    splits = [(i, j, q) for i in range(m) for j in range(i, m) for q in range(m)
              if not i == j == q]
    return [-1] * m + [1] * m, rows, splits


def _side(m: int, k: int, split, side: int):
    """Side 0 of (i, j, q), h_i + h_j <= k l_q, or side 1, k h_q <= l_i + l_j."""
    i, j, q = split
    if side == 0:
        return _row(m, ((m + i, 1), (m + j, 1), (q, -k)))
    return _row(m, ((m + q, k), (i, -1), (j, -1)))


def _most_violated(x, m: int, k: int):
    """The disjunction both of whose sides x violates by the most (the
    least of the two violations), the first in ``_program``'s order on
    ties; None if x meets every one.  x is over any common denominator.

    The loops walk that order, (i, j >= i, q) without (i, i, i), so that
    the sums of a pair and the k-multiples are formed once, and the
    second side is computed only when the first beats the worst so far.
    """
    lo, hi = x[:m], x[m:]
    klo, khi = [k * v for v in lo], [k * v for v in hi]
    best, worst = None, 0
    for i in range(m):
        for j in range(i, m):
            hs, ls = hi[i] + hi[j], lo[i] + lo[j]
            for q in range(m):
                v = hs - klo[q]
                if v > worst:
                    v = min(v, khi[q] - ls)
                    if v > worst and not i == j == q:
                        best, worst = (i, j, q), v
    return best


# -- the search ------------------------------------------------------------


class Node:
    """A node of the search tree: an inner node splits one disjunction
    into its two sides, ``children[s]`` adding side s; a leaf holds the
    multipliers ``y`` of its LP, one per row (the base rows, then the
    sides on its path from the root), as ints over ``den``.  A node the
    search did not reach has neither."""

    __slots__ = ("split", "children", "y", "den")

    def __init__(self):
        self.split, self.children, self.y, self.den = None, (), None, 0


@dataclass
class Search:
    """The result of ``branch_and_bound``.

    ``best`` is the incumbent at the end; ``proved`` says that the tree
    was finished, so no set of at most m components measures more.
    ``nodes`` counts the LPs solved, ``pivots`` their simplex pivots,
    ``pruned`` the leaves pruned by the bound and ``improved`` the leaves
    whose optimum was a better set.
    """

    best: IntervalSet
    proved: bool
    nodes: int
    pivots: int
    pruned: int
    improved: int
    tree: Node = field(repr=False)

    @property
    def value(self) -> Fraction:
        return self.best.measure()


def branch_and_bound(m: int, k: int = 3, budget: int | None = None,
                     incumbent: IntervalSet | None = None) -> Search:
    """The largest measure of a k-sum-free subset of [0, 1] with at most
    m components, and a set that attains it.

    ``incumbent``, when given, must be such a set; the search starts
    from its measure and returns it unless it finds a better one.
    ``budget`` bounds the LPs solved; when it runs out, ``proved`` is
    False and the result is the best set found.
    """
    c, rows, _ = _program(m, k)
    if budget is not None and (type(budget) is not int or budget < 0):
        raise ValueError(f"budget must be None or >= 0 (an int), got {budget!r}")
    best = IntervalSet.empty() if incumbent is None else incumbent
    value = best.measure()
    tree = Node()
    stack = [(tree, None, None)]
    nodes = pivots = pruned = improved = 0
    while stack and nodes != budget:
        node, tab, row = stack.pop()
        if tab is None:
            tab, before = Tableau(c, rows), 0
        else:
            before = tab.pivots
            tab.add_row(*row)
        nodes += 1
        pivots += tab.pivots - before
        d, top = tab.d, tab.z[0]
        split = None
        if top * value.denominator <= value.numerator * d:
            pruned += 1
        else:
            x = tab.vertex()
            split = _most_violated(x, m, k)
            if split is None:
                improved += 1
                best, value = _vertex_set(x, d, m), Fraction(top, d)
        if split is None:
            node.y, node.den = tab.multipliers(), d
            continue
        first, second = Node(), Node()
        node.split, node.children = split, (first, second)
        # the second child takes the parent's tableau, which the first
        # child's subtree, explored before it, never touches
        stack.append((second, tab, _side(m, k, split, 1)))
        stack.append((first, tab.copy(), _side(m, k, split, 0)))
    return Search(best, not stack, nodes, pivots, pruned, improved, tree)


def _vertex_set(x, d: int, m: int) -> IntervalSet:
    """The open intervals (l_i, h_i) of a vertex over d, empty ones dropped."""
    codes = []
    for lo, hi in zip(x[:m], x[m:]):
        if lo < hi:
            codes += (2 * lo + 1, 2 * hi)
    return IntervalSet._of(d, codes)


def check_certificate(tree: Node, m: int, bound, k: int = 3) -> bool:
    """Whether ``tree`` proves that no k-sum-free subset of [0, 1] with at
    most m components measures more than ``bound``.

    Calls no simplex.  Every inner node must split a disjunction into
    both sides, and every leaf's multipliers y must satisfy y >= 0,
    y A >= c and y b <= bound over the rows of its path.  Then every
    feasible point lies in some leaf's polyhedron, where by weak duality
    c.x <= y A x <= y b <= bound.
    """
    bound = Fraction(bound)
    c, rows, splits = _program(m, k)
    splits = set(splits)
    stack = [(tree, rows)]
    while stack:
        node, rows = stack.pop()
        if node.split is not None:
            if node.split not in splits or len(node.children) != 2:
                return False
            for side, child in enumerate(node.children):
                stack.append((child, rows + [_side(m, k, node.split, side)]))
            continue
        y, den = node.y, node.den
        if y is None or den <= 0 or len(y) != len(rows) or any(v < 0 for v in y):
            return False
        for j, cj in enumerate(c):
            if sum(v * a[j] for v, (a, _) in zip(y, rows)) < den * cj:
                return False
        yb = sum(v * b for v, (_, b) in zip(y, rows))
        if yb * bound.denominator > bound.numerator * den:
            return False
    return True
