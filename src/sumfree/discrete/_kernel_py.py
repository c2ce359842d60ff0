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

What an include of e adds to the images and where it reads them (the K
and V bits, the Q slot and bit, the V shift, the Q read slot and shift,
the k*e/2 bit) depend on e alone, so they are tabled once per search.

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

A call of the depth-first search enters the subtree below an include
(or the root of the counting level; a suffix level includes p before
its first call).  It takes the free candidates once, as a mask of the
unforbidden elements from pos on, and loops: each iteration is one
node, whose element is the mask's lowest bit.  The node is a leaf when
the mask is empty, and is pruned by the bound above, the candidate
count being kept as a counter.  Otherwise the iteration clears the
bit, includes the element inline and recurses into that subtree; the
next iteration is the branch that excludes it.  So a call is made per
include only, and an excluded element costs one iteration.

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
    # what including e adds to the images and reads off them, by e
    es = range(n + 1)
    k_bit = [1 << (k * e - 1) if e else 0 for e in es]
    v_bit = [1 << (n - e) for e in es]
    q_slot = [-e % k for e in es]
    q_bit = [1 << ((e + -e % k) // k) for e in es]
    v_shift = [k * e - 1 - n for e in es]
    q_read = [e % k for e in es]
    q_shift = [e // k for e in es]
    half_bit = [1 << (k * e // 2 - 1) if e and k * e % 2 == 0 else 0 for e in es]

    def dfs(pos: int, mask: int, forb: int, size: int, K: int, V: int) -> bool:
        """Explore the subtree; True stops a suffix level at its first hit."""
        nonlocal best, count, nodes
        avail = ~forb & full & (full << (pos - 1))
        free = avail.bit_count()
        while True:
            nodes += 1
            if not avail:
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
            low = avail & -avail
            pos = low.bit_length()
            r = R[pos]
            if size + (free if free < r else r) < best:
                return False
            avail ^= low
            free -= 1
            # including anything violates x + x = 2x when k = 2
            if k != 2:
                Kc = K | k_bit[pos]
                Vc = V | v_bit[pos]
                c = q_slot[pos]
                q = Q[c]
                Q[c] = q | q_bit[pos]
                s = v_shift[pos]
                new = (Kc >> pos | (Vc << s if s >= 0 else Vc >> -s)
                       | Q[q_read[pos]] << q_shift[pos] >> 1 | half_bit[pos])
                hit = dfs(pos + 1, mask | low, forb | new & full, size + 1, Kc, Vc)
                Q[c] = q
                if hit:
                    return True
            # the next iteration is the branch that excludes pos

    def level(p: int) -> bool:
        """Choose p alone, then explore {p+1..n} past it."""
        K = k_bit[p]
        V = v_bit[p]
        Q[q_slot[p]] = q_bit[p]
        s = v_shift[p]
        new = (K >> p | (V << s if s >= 0 else V >> -s)
               | Q[q_read[p]] << q_shift[p] >> 1 | half_bit[p])
        hit = dfs(p + 1, 1 << (p - 1), new & full, 1, K, V)
        Q[q_slot[p]] = 0
        return hit

    for p in range(n, 1, -1):
        best = R[p + 1] + 1
        R[p] = R[p + 1] + (k != 2 and level(p))
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
