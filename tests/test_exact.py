"""The exact search: the int tableau against a ``Fraction`` simplex, the
disjunctive program against the k-sum-free predicate, and the
certificate checker against broken certificates."""

import copy
import hashlib
import itertools
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import outward_moves
from sumfree.constructions import cg_density
from sumfree.exact import (_ROOTS, Tableau, _most_violated, _program, _side, _terms,
                           branch_and_bound, check_certificate, solve_lp)
from sumfree.intervals import IntervalSet
from sumfree.optimize import optimize
from sumfree.predicates import is_k_sum_free
from sumfree.rationals import MAX_MEASURE


def reference_lp(c, rows, bases=None):
    """max c.x subject to A x <= b, x >= 0 by a ``Fraction`` tableau with
    the same rule as ``Tableau``: enter the first column of negative
    reduced cost, leave the least ratio, the least basic column on ties.
    Returns the value, the vertex and the multipliers; ``bases``, when
    given, gets the basis after each pivot."""
    n, count = len(c), len(rows)
    T = [[F(b), *map(F, a)] + [F(int(i == r)) for i in range(count)]
         for r, (a, b) in enumerate(rows)]
    z = [F(0)] + [F(-x) for x in c] + [F(0)] * count
    basis = [1 + n + r for r in range(count)]
    while True:
        s = next((j for j in range(1, len(z)) if z[j] < 0), None)
        if s is None:
            break
        _, _, r = min((T[i][0] / T[i][s], basis[i], i) for i in range(count) if T[i][s] > 0)
        T[r] = [x / T[r][s] for x in T[r]]
        for i in range(count):
            if i != r:
                f = T[i][s]
                T[i] = [x - f * y for x, y in zip(T[i], T[r])]
        f = z[s]
        z = [x - f * y for x, y in zip(z, T[r])]
        basis[r] = s
        if bases is not None:
            bases.append(basis[:])
    x = [F(0)] * n
    for row, col in zip(T, basis):
        if col <= n:
            x[col - 1] = row[0]
    return z[0], tuple(x), tuple(z[1 + n:])


@st.composite
def lps(draw):
    """(c, rows): 2..4 variables, a row bounding their sum first, then up
    to five rows of small int coefficients; every right-hand side >= 0."""
    n = draw(st.integers(2, 4))
    coef = st.integers(-3, 3)
    c = draw(st.lists(coef, min_size=n, max_size=n))
    rows = [([1] * n, draw(st.integers(1, 6)))]
    for _ in range(draw(st.integers(0, 5))):
        rows.append((draw(st.lists(coef, min_size=n, max_size=n)), draw(st.integers(0, 5))))
    return c, rows


@settings(max_examples=300)
@given(lps())
def test_int_tableau_matches_the_fraction_simplex(lp):
    c, rows = lp
    value, x, y = reference_lp(c, rows)
    assert solve_lp(c, rows) == (value, x, y)
    # a row at a time, as the search adds them: the dual simplex reaches
    # the same optimal value
    t = Tableau(c, rows[:1])
    for a, b in rows[1:]:
        t.add_row(a, b)
    assert t.value == value and t.d > 0
    # and its multipliers certify that value over all the rows: y >= 0,
    # y A >= c and y b = the value, all over d
    y = t.multipliers()
    assert len(y) == len(rows) and min(y) >= 0
    for j, cj in enumerate(c):
        assert sum(v * a[j] for v, (a, _) in zip(y, rows)) >= t.d * cj
    assert F(sum(v * b for v, (_, b) in zip(y, rows)), t.d) == t.value


@settings(max_examples=300)
@given(lps(), st.fractions(-1, 12, max_denominator=4))
def test_a_cutoff_stops_the_dual_simplex_only_on_a_bound_at_most_the_cutoff(lp, cutoff):
    # add_row with a cutoff either solves as without one, or returns
    # multipliers that bound the LP of the rows so far by the cutoff
    c, rows = lp
    t = Tableau(c, rows[:1])
    for count in range(2, len(rows) + 1):
        value = reference_lp(c, rows[:count])[0]
        cut = t.add_row(*rows[count - 1], cutoff)
        if cut is None:
            assert t.value == value
            continue
        y, den = cut
        assert den > 0 and len(y) == count and min(y) >= 0
        for j, cj in enumerate(c):
            assert sum(v * a[j] for v, (a, _) in zip(y, rows)) >= den * cj
        assert value <= F(sum(v * b for v, (_, b) in zip(y, rows)), den) <= cutoff
        return


def fields(t):
    """Every field of the tableau t, by name."""
    return {name: getattr(t, name) for name in Tableau.__slots__}


@settings(max_examples=300)
@given(lps(), st.fractions(-1, 12, max_denominator=4))
def test_deciding_the_first_dual_step_on_the_parent_matches_add_row_on_a_copy(lp, cutoff):
    # the search decides a first child's first dual step on its parent's
    # tableau and copies that only when the step does not cut the child:
    # the decision leaves the parent as it was, a cut is the one that
    # add_row on a copy returns, and finishing the step makes the
    # tableau that add_row makes
    c, rows = lp
    t = Tableau(c, rows[:1])
    for a, b in rows[1:]:
        before, copy = fields(t), t.copy()
        expected = copy.add_row(a, b, cutoff)
        row, s, cut = t._probe(_terms(a), b, cutoff)
        assert fields(t) == before
        if cut is not None:
            assert cut == expected and not copy.solved
            return
        assert t._extend(row, s, cutoff) == expected
        assert fields(t) == fields(copy)
        if expected is not None:
            assert not t.solved
            return
        assert t.solved


def test_a_tableau_left_unsolved_by_a_cutoff_takes_no_more_rows():
    # max x_1 subject to x_1 <= 1: the row x_1 <= 0 would bring the
    # value to 0, so a cutoff of 0 stops its dual step and leaves the
    # new row infeasible; a further row must not take the tableau for
    # an optimal one
    t = Tableau([1], [([1], 1)])
    assert t.add_row([1], 0, F(0)) == ((0, 1), 1) and not t.solved
    with pytest.raises(ValueError, match="unsolved"):
        t.add_row([2], 1)
    with pytest.raises(ValueError, match="unsolved"):
        t.copy().add_row([1], 1, F(0))


@settings(max_examples=300)
@given(lps())
# entering the first column with a negative reduced cost, not the least
# variable, takes another path on this one
@example(([1, 2, 0, 2], [([1, 1, 1, 1], 1), ([1, 0, 0, 1], 0)]))
def test_the_int_tableau_pivots_as_the_full_tableau(lp):
    # the full tableau's first column is the least variable, so Bland's
    # rule by variable index makes its pivots, whatever column holds it
    c, rows = lp
    bases = []
    reference_lp(c, rows, bases)
    t = Tableau(c, rows)
    assert t.pivots == len(bases) and (not bases or t.basis == bases[-1])
    assert sorted(t.basis + t.nonbasic) == list(range(1 + len(c) + len(rows)))


def test_the_origin_must_be_feasible():
    with pytest.raises(ValueError):
        Tableau([1], [([1], -1)])


def test_an_unbounded_lp_raises():
    with pytest.raises(ArithmeticError):
        solve_lp([1, 0], [([0, 1], 1)])


def test_an_infeasible_added_row_raises():
    # -x_1 <= -1 on top of x_1 <= 0: the dual simplex finds no column
    # with which to repair the new row
    t = Tableau([1], [([1], 0)])
    with pytest.raises(ArithmeticError, match="the LP is infeasible"):
        t.add_row([-1], -1)


def test_blands_rule_ends_on_beales_degenerate_lp():
    # Beale's example, rows scaled to ints: the largest-coefficient rule
    # cycles on it from the origin; the first improving column does not
    c = [3, -80, 2, -24]
    rows = [([1, -32, -4, 36], 0), ([1, -24, -1, 6], 0), ([0, 0, 1, 0], 1)]
    value, x, y = solve_lp(c, rows)
    assert (value, x) == (5, (1, 0, 1, 0))
    assert (value, x, y) == reference_lp(c, rows)


#: k -> the optimum for m = 1, 2, 3 components
OPTIMA = {
    3: (F(1, 3), F(3, 7), MAX_MEASURE),
    4: (F(1, 2), F(4, 7), F(63, 110)),
    5: (F(3, 5), F(15, 23), F(1863, 2855)),
}


@pytest.mark.parametrize("k", sorted(OPTIMA))
@pytest.mark.parametrize("m", [1, 2, 3])
def test_the_optimum_is_k_sum_free_and_certified(k, m):
    s = branch_and_bound(m, k)
    assert s.proved and s.value == OPTIMA[k][m - 1] == s.best.measure()
    assert len(s.best) <= m and 0 <= s.best.inf() and s.best.sup() <= 1
    assert is_k_sum_free(s.best, k) == (True, None)
    assert check_certificate(s.tree, m, s.value, k)


def closed_form(k, m):
    """The paper's value for m <= 3 components: (k - 2)/k from the one
    component (2/k, 1), k (k - 2)/(k^2 - 2) from two, and from three the
    density of ``cg_density``, whose formula at k = 3 is 77/177."""
    if m == 3:
        return MAX_MEASURE if k == 3 else cg_density(k)
    return F(k - 2, k) if m == 1 else F(k * (k - 2), k * k - 2)


@pytest.mark.parametrize("k", range(3, 15))
@pytest.mark.parametrize("m", [1, 2, 3])
def test_the_optimum_has_the_closed_form(k, m):
    s = branch_and_bound(m, k)
    assert s.proved and s.value == closed_form(k, m)
    if m == 1:
        assert s.best == IntervalSet.interval(F(2, k), F(1))
    assert check_certificate(s.tree, m, s.value, k)
    # the leaf that found the optimum proves nothing lower
    assert not check_certificate(s.tree, m, s.value - F(1, 10**12), k)


@pytest.mark.parametrize("k", range(3, 11))
def test_a_fourth_component_adds_nothing(k):
    three, four = branch_and_bound(3, k), branch_and_bound(4, k)
    assert four.proved and four.best == three.best
    assert check_certificate(four.tree, 4, three.value, k)


@pytest.mark.parametrize("k", range(3, 9))
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_no_endpoint_of_an_optimum_can_move_outward(k, m):
    best = branch_and_bound(m, k).best
    assert best.sup() == 1 and len(best) <= m
    moves = outward_moves(best)
    assert moves and not any(is_k_sum_free(moved, k)[0] for moved in moves)


@pytest.mark.parametrize("k", [3, 4, 5])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_each_leaf_holds_a_dual_bound_of_its_lp(k, m):
    # every leaf's y is dual feasible over the rows of its path, so y b
    # over den bounds the leaf's LP value, as a Fraction simplex solving
    # those rows from the origin finds it.  In the search's order (depth
    # first, the first side first), a leaf whose LP beats the incumbent
    # so far is an improved one and holds its dual optimum; any other
    # leaf is pruned and its bound is at most that incumbent
    c, base, _ = _program(m, k)
    s = branch_and_bound(m, k)
    stack, value, improved, pruned = [(s.tree, base)], F(0), 0, 0
    while stack:
        node, rows = stack.pop()
        if node.split is not None:
            stack += reversed([(child, rows + [_side(m, k, node.split, side)])
                               for side, child in enumerate(node.children)])
            continue
        y, den = node.y, node.den
        assert den > 0 and len(y) == len(rows) and min(y) >= 0
        for j, cj in enumerate(c):
            assert sum(v * a[j] for v, (a, _) in zip(y, rows)) >= den * cj
        bound, optimum = F(sum(v * b for v, (_, b) in zip(y, rows)), den), reference_lp(c, rows)[0]
        assert optimum <= bound
        if optimum > value:
            assert bound == optimum
            value, improved = optimum, improved + 1
        else:
            assert bound <= value
            pruned += 1
    assert (pruned, improved, value) == (s.pruned, s.improved, s.value)


@st.composite
def open_components(draw):
    """(m, den, x): 1..3 nonempty open components (l_i, h_i) in [0, 1],
    sorted and disjoint, as x = l_1..l_m, h_1..h_m over den."""
    m = draw(st.integers(1, 3))
    den = draw(st.sampled_from([6, 12, 30, 60]))
    ends = sorted(draw(st.lists(st.integers(0, den), min_size=2 * m, max_size=2 * m,
                                unique=True)))
    return m, den, ends[::2] + ends[1::2]


@pytest.mark.parametrize("k", [3, 4, 5, 6])
@settings(max_examples=200)
@given(open_components())
def test_the_program_holds_exactly_for_k_sum_free_sets(k, drawn):
    # the base rows hold but for 2 h_i <= k l_i, the side of (i, i, i)
    # that a nonempty component can take
    m, den, x = drawn
    _, base, _ = _program(m, k)
    meets = [sum(a * v for a, v in zip(row, x)) <= b * den for row, b in base]
    assert all(meets[:2 * m])
    feasible = all(meets) and _most_violated(x, m, k) is None
    assert feasible == is_k_sum_free(interval_set(zip(x[:m], x[m:]), den), k)[0]


def interval_set(pairs, den):
    """The union of the open intervals (lo/den, hi/den) of ``pairs``."""
    return IntervalSet([IntervalSet.interval(F(lo, den), F(hi, den)).components[0]
                        for lo, hi in pairs])


def in_program(pairs, k, den):
    """Whether the slots (lo, hi) of ``pairs`` over den, sorted, meet the
    base rows and every disjunction of the len(pairs)-slot program."""
    m = len(pairs)
    slots = sorted(pairs)
    x = [lo for lo, _ in slots] + [hi for _, hi in slots]
    _, base, _ = _program(m, k)
    return (all(sum(a * v for a, v in zip(row, x)) <= b * den for row, b in base)
            and _most_violated(x, m, k) is None)


@pytest.mark.parametrize("k", [3, 4, 5])
@settings(max_examples=150)
@given(open_components())
def test_empty_slots_at_endpoints_keep_a_set_feasible(k, drawn):
    # the lemma of the module docstring: "at most m components" rests on
    # it.  Keep the drawn components, from the top down, that leave the
    # kept set k-sum-free, then add up to 5 slots in all, each empty slot
    # (p, p) at an endpoint p, which sorts it next to its component
    m, den, x = drawn
    kept = []
    for pair in reversed(list(zip(x[:m], x[m:]))):
        if is_k_sum_free(interval_set([pair, *kept], den), k)[0]:
            kept.insert(0, pair)
    assume(kept)
    ends = [v for pair in kept for v in pair]
    for slots in range(1, 6 - len(kept)):
        for points in itertools.combinations_with_replacement(ends, slots):
            assert in_program(kept + [(p, p) for p in points], k, den), points


@pytest.mark.parametrize("pairs,den,point", [
    # (4/21, 2/7) | (2/3, 1) with a slot at 0 violates (slot, top, bottom)
    ([(4, 6), (14, 21)], 21, 0),
    # (1/2, 3/5) with a slot at 1 violates (j, slot, j)
    ([(5, 6)], 10, 10),
])
def test_an_empty_slot_off_the_endpoints_can_break_the_program(pairs, den, point):
    assert is_k_sum_free(interval_set(pairs, den), 3)[0] and in_program(pairs, 3, den)
    assert not in_program(pairs + [(point, point)], 3, den)
    for p in (v for pair in pairs for v in pair):
        assert in_program(pairs + [(p, p)], 3, den)


def most_violated_reference(x, m, k, splits):
    """The branch choice as one formula per disjunction of ``splits``."""
    best, worst = None, 0
    lo, hi = x[:m], x[m:]
    for split in splits:
        i, j, q = split
        v = min(hi[i] + hi[j] - k * lo[q], k * hi[q] - lo[i] - lo[j])
        if v > worst:
            best, worst = split, v
    return best


@settings(max_examples=500)
@given(st.integers(1, 6), st.integers(3, 6), st.data())
def test_the_branch_choice_matches_the_formula(m, k, data):
    # small coordinates, so that ties between disjunctions are common
    x = data.draw(st.lists(st.integers(0, data.draw(st.sampled_from([3, 12, 10**6]))),
                           min_size=2 * m, max_size=2 * m))
    splits = _program(m, k)[2]
    assert _most_violated(x, m, k) == most_violated_reference(x, m, k, splits)


@pytest.mark.parametrize("m,nodes,pivots,pruned", [(1, 1, 2, 0), (2, 5, 7, 1), (3, 19, 18, 10),
                                                    (4, 91, 69, 46), (5, 299, 228, 150)])
def test_the_search_tree_of_optimize_is_pinned(m, nodes, pivots, pruned):
    # the counts of optimize's search, from the empty set for m <= 2 and
    # from A0 for m >= 3; a change to the pivot rule or the branch choice
    # changes the tree and so these counts.  A pruned leaf stops at its
    # first dual step that reaches the incumbent, so ``pivots`` counts
    # only the pivots made
    s = optimize(m, 0, 2000).search
    assert s.proved and (s.nodes, s.pivots, s.pruned) == (nodes, pivots, pruned)
    assert check_certificate(s.tree, m, s.value)


def test_the_search_trees_are_pinned_split_for_split():
    # the splits in preorder, a leaf as None, of optimize's searches
    # for m <= 5 and of the searches from the empty set for k = 4, 5 and
    # m <= 3; the counts above would not see two splits trade places
    trees = [optimize(m, 0, 2000).search.tree for m in range(1, 6)]
    trees += [branch_and_bound(m, k).tree for k in (4, 5) for m in (1, 2, 3)]
    splits = repr([[node.split for node in nodes(tree)] for tree in trees])
    assert (hashlib.sha256(splits.encode()).hexdigest()
            == "bdf7c654e1599233e4df4d207afff9a1a6866d75daa2544c2bd8bb169d636433")


@pytest.mark.parametrize("m,k,budget", [(0, 3, None), (1.0, 3, None), (1, 2, None),
                                         (1, 3.0, None), (True, 3, None), (1, 3, -1),
                                         (1, 3, 2.0)])
def test_rejects_bad_arguments(m, k, budget):
    with pytest.raises(ValueError):
        branch_and_bound(m, k, budget)


def test_a_search_leaves_the_cached_root_as_built():
    # every search shares the root tableau of its (m, k), built on first
    # use; whatever searches ran before, it is the one a fresh build makes
    pairs = [(m, k) for m in range(1, 6) for k in (3, 4, 5)]
    for order in (pairs, pairs[::-1]):
        _ROOTS.clear()
        for m, k in order:
            assert branch_and_bound(m, k).proved
        assert sorted(_ROOTS) == sorted(pairs)
        for m, k in pairs:
            assert fields(_ROOTS[m, k][0]) == fields(Tableau(*_program(m, k)[:2]))


@pytest.mark.parametrize("m,k", [(True, 3), (1.0, 3), (3, 3.0)])
def test_a_cached_root_does_not_admit_an_equal_argument_of_another_type(m, k):
    # True == 1 and 1.0 == 1, and each hashes as 1, so the arguments are
    # checked before the cache is read
    branch_and_bound(1, 3)
    branch_and_bound(3, 3)
    with pytest.raises(ValueError):
        branch_and_bound(m, k)


@pytest.mark.parametrize("text,sum_free", [
    ("[0,1]", False),
    ("(0,1/2)", False),  # 3/10 + 3/10 = 3 * 1/5
    ("(1/2,1)|(3/2,2)", False),  # and not in [0, 1]
    ("(4/3,2)", True),  # (2/3, 1) dilated by 2, not in [0, 1]
    ("(2/3,3/4)|(4/5,5/6)|(6/7,7/8)|(9/10,1)", True),  # four components
])
def test_rejects_an_incumbent_that_is_no_feasible_set(text, sum_free):
    incumbent = IntervalSet.parse(text)
    assert is_k_sum_free(incumbent, 3)[0] == sum_free
    with pytest.raises(ValueError, match="incumbent"):
        branch_and_bound(3, 3, None, incumbent)


# -- the certificate checker --------------------------------------------------------


@pytest.fixture(scope="module")
def trees():
    return {m: optimize(m, 0, 2000).search.tree for m in (3, 4)}


def nodes(tree):
    out, stack = [], [tree]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(node.children)
    return out


@pytest.mark.parametrize("m,leaves", [(3, 10), (4, 46)])
def test_the_checker_accepts_the_search_tree(trees, m, leaves):
    assert sum(n.split is None for n in nodes(trees[m])) == leaves
    assert check_certificate(trees[m], m, MAX_MEASURE)
    # the leaves whose LP reaches 77/177 prove no lower bound
    assert not check_certificate(trees[m], m, MAX_MEASURE - F(1, 10**9))


@pytest.fixture(scope="module")
def three():
    """k -> the m = 3 search tree and its value: optimize's tree, which
    starts from A0, for k = 3 and the search's own for k > 3."""
    out = {3: (optimize(3, 0, 2000).search.tree, MAX_MEASURE)}
    for k in (4, 5):
        s = branch_and_bound(3, k)
        out[k] = (s.tree, s.value)
    return out


@pytest.mark.parametrize("k", [3, 4, 5])
def test_the_checker_rejects_each_lowered_multiplier(three, k):
    tree, value = copy.deepcopy(three[k][0]), three[k][1]
    lowered = 0
    for leaf in (n for n in nodes(tree) if n.split is None):
        y = leaf.y
        for i, v in enumerate(y):
            if v > 0:
                leaf.y = y[:i] + (v - 1,) + y[i + 1:]
                assert not check_certificate(tree, 3, value, k), (leaf.y, i)
                lowered += 1
        leaf.y = y
    assert lowered > 10 and check_certificate(tree, 3, value, k)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_the_checker_rejects_a_negative_multiplier(three, k):
    tree, value = copy.deepcopy(three[k][0]), three[k][1]
    leaf = next(n for n in nodes(tree) if n.split is None and 0 in n.y)
    i = leaf.y.index(0)
    leaf.y = leaf.y[:i] + (-1,) + leaf.y[i + 1:]
    assert not check_certificate(tree, 3, value, k)


@pytest.mark.parametrize("k", [3, 4, 5])
@pytest.mark.parametrize("side", [0, 1])
def test_the_checker_rejects_a_missing_side(three, side, k):
    full, value = three[k]
    for index in range(len(nodes(full))):
        tree = copy.deepcopy(full)
        node = nodes(tree)[index]
        if node.split is not None:
            node.children = node.children[side:side + 1]
            assert not check_certificate(tree, 3, value, k)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_the_checker_rejects_a_split_that_is_no_disjunction(three, k):
    tree, value = copy.deepcopy(three[k][0]), three[k][1]
    tree.split = (0, 0, 0)  # a base row, not a disjunction
    assert not check_certificate(tree, 3, value, k)


def test_an_unfinished_tree_proves_nothing():
    s = optimize(4, 0, 50).search
    assert not s.proved and s.nodes == 50
    assert not check_certificate(s.tree, 4, MAX_MEASURE)

