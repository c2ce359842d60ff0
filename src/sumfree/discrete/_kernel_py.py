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

The first three forms range over every chosen element, e included.
The first two are read off images of the chosen set that the search
extends as it includes elements, so each include costs a few shifts,
not a loop:

    K     bit k*m - 1 for each chosen m;  {k*m - e} is K >> e
    V     bit n - m;  {k*e - m} is V shifted left by k*e - 1 - n
          (right when that is negative)

The third needs no image of its own.  For k >= 2 a chosen m <= e gives
(e + m)/k <= 2e/k <= e, so it never names a later element, and the
candidates, which start past e, mask it off (k = 2 includes nothing:
x + x = 2x).  For k = 1 it is e + m, and K holds bit m - 1 for each
chosen m, so {e + m} is K << e, and the first form, {m - e}, is empty:
an include reads K << e in place of K >> e.

What an include of e adds to the images and where it reads them (the K
and V bits, the V shift, the k*e/2 bit) depend on e alone, so they are
tabled once per search.

The first bound is a Russian-doll table (Ostergard's maximum-clique search):
R[p] is the size of the largest k-sum-free subset of {p..n}.  The
elements a node at position pos may still add form a k-sum-free subset
of the unforbidden candidates in {pos..n}, so the node is pruned when
its chosen count plus the smaller of R[pos] and the candidate count
cannot tie the incumbent.  The table is built from p = n down to 2 by
the same depth-first search: R[p] is R[p+1] or R[p+1] + 1, so level p
only asks whether some set of size R[p+1] + 1 in {p..n} contains p,
starting with p chosen and stopping at the first such set.  The last
level counts and lists from 1 with R[2] as a proven incumbent.

The second bound counts violations with two undecided members.  Call
candidates b < e partners when b, e and the chosen set C hold a triple
x + y = k*z that uses both.  The partners of e below it read off the
images are

    b = k*c - e   b + e = k*c for a chosen c   (K >> e)
    b = e/(k-1)   b + e = k*b, k >= 3          (e's pair bit)
    b = 2*e/k     e + e = k*b, k >= 3          (e's pair bit)
    b = e - c     b + c = e, k = 1 only        (V >> n - e + 1)

the two that depend on e alone, where they are ints, tabled as one
mask per e.  An extension E of C within the candidates must leave
C | E k-sum-free, so E holds at most one member of each pair, and with
P pairwise disjoint pairs among the f candidates |E| <= f - P.  The
node is pruned when its chosen count plus f - P cannot tie the
incumbent, which cuts only subtrees that hold no set of the incumbent's
size.  P is a greedy matching: from the highest candidate down, each
unmatched one takes its highest unmatched partner below it.  The scan
stops at the pair that prunes, or once the candidates it has not
reached are too few to make up the pairs still needed, so a node is
pruned exactly when the whole greedy finds enough pairs.  It is not
rerun at each node: a call of the depth-first search makes one scan
and resumes it from node to node (below).  Any set of disjoint pairs
bounds the same way, so the scan order decides how many pairs are
found, not whether the bound holds; from the top down the greedy
finds more of them than from the bottom up (the bench batch at n = 62
walks 2,899 nodes instead of 4,259).  A partner left out costs
soundness nothing either, and three are left out for their time.  The
partner b = (e + c)/k (e + c = k*b), below e for k >= 2, needs an image
of its own, bit (m + c)/k for each chosen m = -c (mod k), one per
residue c; it took the bench batch only from 2,899 to 2,683 nodes, and
from about 146 to about 115 batches/s.  The V image b = k*e - c for
k >= 2 (b + c = k*e, below e only when c > (k-1)*e) saved no node for
n <= 49 or at n = 62 and 70.  b = e/2 for k = 1 (b + b = e) saved 12
of 200 nodes at (70, 1), and no time.

A node is tight when its chosen count plus the candidate count equals
the incumbent (the matching would need a single pair).  Every set in
its subtree is C with a subset of the f candidates, so the only one
that can tie is S = C | candidates, and a tight node decides S at once,
with one mask test (`is_k_sum_free_mask`), instead of walking to it.
If S has a triple, no set in the subtree ties and the node is pruned;
otherwise S is counted and stored as a leaf would be.  The walk the
rule replaces is the include-first chain: it reaches S as its first
leaf when S is k-sum-free and no leaf of the incumbent's size
otherwise (an element of S that the chain finds forbidden drops the
candidate count, and the Russian-doll bound prunes there), and every
other branch below the node ends in a leaf smaller than the incumbent
or is pruned, neither of which changes the maximum, the count or the
listing.  So S is found at the same point of the search as before, and
the listed sets keep their discovery order; only nodes are saved.

A call of the depth-first search enters the subtree below an include
(or the root of the counting level; a suffix level includes p before
its first call).  It takes the free candidates once, as a mask of the
unforbidden elements from pos on, and loops: each iteration is one
node, whose element is the mask's lowest bit.  The node is a leaf when
the mask is empty; otherwise it is pruned by the Russian-doll bound,
decided at once when tight or pruned by the matching bound, in that
order, the candidate count being kept as a counter.  If none applies,
the iteration clears the bit, includes the element inline and recurses
into that subtree; the next iteration is the branch that excludes it.
So a call is made per include only, and an excluded element costs one
iteration.

The matching, too, is made once per call.  Within a call the chosen
set, and with it K, V and the partners, is fixed, and each node's
candidates are the previous node's less its element L, their lowest.
The greedy over the candidates without L finds exactly the pairs it
finds with L, less the pair that holds L if there is one.  Proof, step
by step along the scan, with the unscanned candidates the same on both
sides but for L: a candidate e whose highest unmatched partner below it
is not L takes the same partner either way.  If e took L, then L was
its only one, as every other candidate lies above L, so without L e
stays unmatched and the candidates left are again the same but for L.
L itself, when reached unmatched, has no candidate below it and takes
none.  So the call keeps the scan's state, the candidates not yet
reached (`rest`) and how many they are, the lower members of the pairs
found (`mates`) and their count, and on leaving a node unmatches L (its
pair no longer counts) or drops it from `rest`.  The number of
candidates in `rest` is counted down as the scan takes a candidate or
a mate and as L leaves `rest`, so no step recounts it.  A node
subtracts the pairs found from those it needs, is pruned if none are
left to find, and otherwise resumes the scan with the same stops.  The
state is a prefix of the greedy over the node's candidates, so a node
is pruned exactly when a scan from the top would prune it; the
incumbent may rise inside the recursion, but the pairs needed are
counted afresh at every node.  The tree, the counts and the listing do
not move; only the scans are shared.
"""

from __future__ import annotations

#: extremal sets stored per search (the exact count is always kept)
EXTREMAL_CAP = 10000


def is_k_sum_free_mask(S: int, n: int, k: int) -> bool:
    """Whether the subset S of {1..n}, a bitmask, holds no x + y = k*z.

    Rv is S reversed, bit n - x for each x (the V layout), so
    {k*z - x : x in S} is Rv shifted by k*z - 1 - n.  A target z of a
    triple has k*z = x + y <= 2n, so z runs over S up to 2n // k.
    """
    Rv = int(format(S, f"0{n}b")[::-1], 2)
    t = S & ((1 << 2 * n // k) - 1)
    while t:
        low = t & -t
        t ^= low
        s = k * low.bit_length() - 1 - n
        if (Rv << s if s >= 0 else Rv >> -s) & S:
            return False
    return True


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
    # what including e adds to the images and reads off them, by e
    es = range(n + 1)
    k_bit = [1 << (k * e - 1) if e else 0 for e in es]
    v_bit = [1 << (n - e) for e in es]
    v_shift = [k * e - 1 - n for e in es]
    half_bit = [1 << (k * e // 2 - 1) if e and k * e % 2 == 0 else 0 for e in es]
    # partners below e that the chosen set plays no part in: e/(k - 1) and
    # 2e/k, ints below e for k >= 3 only
    pair_bit = [0] * (n + 1)
    if k >= 3:
        for e in range(1, n + 1):
            for num, den in ((e, k - 1), (2 * e, k)):
                if num % den == 0:
                    pair_bit[e] |= 1 << num // den - 1
    # for k = 1 only, the sums e + c are forbidden (K << e) and the
    # differences e - c are partners (module docstring)
    k1 = k == 1

    def dfs(pos: int, mask: int, forb: int, size: int, K: int, V: int) -> bool:
        """Explore the subtree; True stops a suffix level at its first hit."""
        nonlocal best, count, nodes
        avail = ~forb & full & (full << (pos - 1))
        free = avail.bit_count()
        # the greedy matching, resumed across the loop (module docstring):
        # the candidates not yet scanned and their count, the lower
        # members of the pairs found, and their count
        rest = avail
        left = free
        mates = 0
        pairs = 0
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
            need = free + size - best + 1
            if need == 1:
                # a tight node (module docstring): only taking every candidate ties
                S = mask | avail
                if not is_k_sum_free_mask(S, n, k):
                    return False
                count += 1
                if enumerate_all and len(stored) < EXTREMAL_CAP:
                    stored.append(S)
                return deciding
            # the matching bound: prune at the need-th disjoint pair, and
            # stop matching once the candidates left cannot make up the rest
            need -= pairs
            if need <= 0:
                return False
            while need + need <= left:
                e = rest.bit_length()
                rest ^= 1 << e - 1
                left -= 1
                mate = (K >> e | pair_bit[e] | (V >> n - e + 1 if k1 else 0)) & rest
                if mate:
                    mate = 1 << mate.bit_length() - 1
                    rest ^= mate
                    left -= 1
                    mates |= mate
                    pairs += 1
                    need -= 1
                    if not need:
                        return False
            avail ^= low
            free -= 1
            # the next node's matching is this one's without low's pair
            if mates & low:
                mates ^= low
                pairs -= 1
            elif rest & low:
                rest ^= low
                left -= 1
            # including anything violates x + x = 2x when k = 2
            if k != 2:
                Kc = K | k_bit[pos]
                Vc = V | v_bit[pos]
                s = v_shift[pos]
                new = ((Kc << pos if k1 else Kc >> pos) | (Vc << s if s >= 0 else Vc >> -s)
                       | half_bit[pos])
                if dfs(pos + 1, mask | low, forb | new & full, size + 1, Kc, Vc):
                    return True
            # the next iteration is the branch that excludes pos

    def level(p: int) -> bool:
        """Choose p alone, then explore {p+1..n} past it."""
        K = k_bit[p]
        V = v_bit[p]
        s = v_shift[p]
        new = (K << p if k1 else K >> p) | (V << s if s >= 0 else V >> -s) | half_bit[p]
        return dfs(p + 1, 1 << (p - 1), new & full, 1, K, V)

    for p in range(n, 1, -1):
        best = R[p + 1] + 1
        R[p] = R[p + 1] + (k != 2 and level(p))
    deciding = False
    best, count = R[2], 0
    stored.clear()
    dfs(1, 0, 0, 0, 0, 0)
    return best, count, stored, nodes
