"""Pure-Python bitmask kernel for the integer search.

Subsets of {1..n} are bitmasks (bit i-1 set means i is in the set).
The branch-and-bound explores elements in increasing order; including
element e forbids every later element that would complete a triple
x + y = k*z with the chosen ones:

    k*z - e   (the new element as one summand, z chosen)
    k*e - x   (e as the target z)
    (e + x)/k (e as a summand, the later element as z; only if divisible)
    k*e/2     (the later element as both summands of target e)

Propagation is exhaustive over violations with exactly one undecided
member; violations with two future members are forbidden when the first
of them is included.

The first three forms range over every chosen element, e included, and
are read off images of the chosen set that the search extends as it
includes elements, so each include costs a few shifts, not a loop:

    K     bit k*m - 1 for each chosen m;  {k*m - e} is K >> e
    V     bit n - m;  {k*e - m} is V shifted left by k*e - 1 - n
          (right when that is negative)
    Q[c]  bit (m + c)/k for each chosen m = -c (mod k), c in 0..k-1;
          {(e + m)/k} is (Q[e % k] << e // k) >> 1

The bound is a Russian-doll table (Ostergard's maximum-clique search):
R[p] is the size of the largest k-sum-free subset of {p..n}.  The
elements a node at position pos may still add form a k-sum-free subset
of the unforbidden candidates in {pos..n}, so the node is pruned when
its chosen count plus the smaller of R[pos] and the candidate count
cannot tie the incumbent.  The table is built from p = n down to 2 by
the same depth-first search: R[p] is R[p+1] or R[p+1] + 1, so level p
only asks whether some set of size R[p+1] + 1 in {p..n} contains p,
starting with p chosen and stopping at the first such set.  The last
level counts and lists from 1 with R[2] as a proven incumbent.

The naive searcher shares none of that machinery: it walks the full
include/exclude tree, testing each inclusion directly, and serves as
the oracle for the pruned search.
"""

from __future__ import annotations

#: extremal sets stored per search (the exact count is always kept)
EXTREMAL_CAP = 10000


def check_violation(mask: int, e: int, k: int, n: int):
    """Witness (x, y, z) created by adding e to the mask-set, or None."""
    mp = mask | (1 << (e - 1))
    t = mp
    while t:
        lsb = t & -t
        m = lsb.bit_length()
        t ^= lsb
        x = k * m - e
        if 1 <= x <= n and (mp >> (x - 1)) & 1:
            return (min(e, x), max(e, x), m)
        y = k * e - m
        if 1 <= y <= n and (mp >> (y - 1)) & 1:
            return (min(m, y), max(m, y), e)
    return None


def search(n: int, k: int, enumerate_all: bool = False):
    """Exact maximum k-sum-free subset of {1..n} with extremal counting.

    Returns (max_size, extremal_count, stored_masks, nodes).  The exact
    count is always maintained; masks are stored only when
    enumerate_all is set, up to EXTREMAL_CAP of them in discovery order.
    ``nodes`` totals the search nodes of every level: the n - 1 suffix
    levels that build the table R, then the counting search from 1.
    """
    full = (1 << n) - 1
    # R[p] for p = 1..n+1; an entry not yet derived holds the trivial bound
    # |{p..n}|, which is never below the true value
    R = [n + 1 - p for p in range(n + 2)]
    best = 0
    count = 0
    stored: list[int] = []
    nodes = 0
    deciding = True
    # images of the chosen set (module docstring): K and V are dfs
    # arguments, Q is restored after each include
    Q = [0] * k

    def include(e: int, mask: int, forb: int, size: int, K: int, V: int) -> bool:
        """Choose e, then explore the subtree past it."""
        ke = k * e
        K |= 1 << (ke - 1)
        V |= 1 << (n - e)
        c = -e % k
        q = Q[c]
        Q[c] = q | 1 << ((e + c) // k)
        s = ke - 1 - n
        new = K >> e | (V << s if s >= 0 else V >> -s) | Q[e % k] << e // k >> 1
        if ke % 2 == 0:
            new |= 1 << (ke // 2 - 1)
        hit = dfs(e + 1, mask | 1 << (e - 1), forb | new & full, size + 1, K, V)
        Q[c] = q
        return hit

    def dfs(pos: int, mask: int, forb: int, size: int, K: int, V: int) -> bool:
        """Explore the subtree; True stops a suffix level at its first hit."""
        nonlocal best, count, nodes
        nodes += 1
        while pos <= n and (forb >> (pos - 1)) & 1:
            pos += 1
        if pos > n:
            if size > best:
                best = size
                count = 1
                stored.clear()
                if enumerate_all:
                    stored.append(mask)
            elif size == best:
                count += 1
                if enumerate_all and len(stored) < EXTREMAL_CAP:
                    stored.append(mask)
            return deciding and size == best
        free = (~forb & full & (full << (pos - 1))).bit_count()
        if size + min(free, R[pos]) < best:
            return False
        # including anything violates x + x = 2x when k = 2
        if k != 2 and include(pos, mask, forb, size, K, V):
            return True
        return dfs(pos + 1, mask, forb, size, K, V)

    for p in range(n, 1, -1):
        best = R[p + 1] + 1
        R[p] = R[p + 1] + (k != 2 and include(p, 0, 0, 0, 0, 0))
    deciding = False
    best, count = R[2], 0
    stored.clear()
    dfs(1, 0, 0, 0, 0, 0)
    return best, count, stored, nodes


def search_naive(n: int, k: int):
    """Unpruned exhaustive enumeration; oracle for `search`.

    Walks the whole include/exclude tree, checking every inclusion
    against the chosen set directly.  Returns (max_size, count, nodes).
    """
    best = 0
    count = 0
    nodes = 0

    def dfs(pos: int, mask: int, size: int):
        nonlocal best, count, nodes
        nodes += 1
        if pos > n:
            if size > best:
                best, count = size, 1
            elif size == best:
                count += 1
            return
        if check_violation(mask, pos, k, n) is None:
            dfs(pos + 1, mask | (1 << (pos - 1)), size + 1)
        dfs(pos + 1, mask, size)

    dfs(1, 0, 0)
    return best, count, nodes
