import functools
import hashlib
import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumfree.cli import USAGE_ERROR, run
from sumfree.constructions import cg_density, extremal_base
from sumfree.discrete import _kernel_py
from sumfree.discrete import search as search_module
from sumfree.discrete import (
    DEFAULT_BUDGET,
    BudgetError,
    DensityReport,
    IntSet,
    density_report,
    discretize,
    is_k_sum_free_int,
    max_k_sum_free,
)
from sumfree.rationals import rational


def has_triple(elems, k):
    """Brute force over all ordered triples, x = y and x = y = z allowed."""
    return any(x + y == k * z for x, y, z in itertools.product(elems, repeat=3))


#: (n, k) -> (max_size, extremal_count, SHA-256 of the listed sets in
#: listing order, one ``{a,b,...}`` per line), for n past the oracle test
LISTED_PINS = {
    (19, 1): (10, 2, "02b92f31b7e1fa2083543ddd797e6e7059f5c6a3662f991d24f579d5384bda94"),
    (19, 2): (0, 1, "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a"),
    (19, 3): (10, 2, "acdda8e70cfe7434b0b34bc0d97d2b46c7b542f21f3bbcd629d1b1c7b870fc63"),
    (19, 4): (11, 4, "6ecd52c82b75d4fb3e42442f554eedef37e4db93afd490bff47d66aa9fbb1ff6"),
    (19, 5): (13, 1, "afa76183bb0989cbdd5575599f86c77036d8afab390b634b8dbed5fc8650de6a"),
    (19, 6): (14, 1, "8297ea3ed4e8f2be7d49a1c0353c9c57c3551b7da4a554a3308066233509d786"),
    (20, 1): (10, 3, "435432c68a7481611fa7e78c380f59cd127581a8ecc0c2c8c117735bc0c97281"),
    (20, 2): (0, 1, "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a"),
    (20, 3): (10, 4, "3921a440c0bf164e1c9243cf2ca70aab2a96fb2866f1edee4159d86e2b768a54"),
    (20, 4): (12, 1, "d29e6003552752d76aeb3cb9710d054d5a08895a6b178b0dedf282e58340a557"),
    (20, 5): (13, 4, "7fa386c10559b784cd43d083d359693ec540969ede4fec326c24373eded0ee45"),
    (20, 6): (15, 1, "9f1810be9ba34e80e85b11c55489311b8178aee5d889f1c226052244995e1f40"),
    (21, 1): (11, 2, "8c2bb2216b1a0b2f200a1e2dcb730c212c18a7dbefb88dee70d31646d5f6a6ff"),
    (21, 2): (0, 1, "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a"),
    (21, 3): (11, 1, "6c427d85206f8976c07bba64b08aaece3f73ba3394161ac94e62dc4a1b5f4b36"),
    (21, 4): (13, 1, "95654c730eab34d29f04e4767f0933187cbf47227e32acfdb6bcd11b62fbdcfb"),
    (21, 5): (14, 3, "84fb321af928c11d1d4dd664937227adb5478ef530e053ad10d6410bf24a7dbc"),
    (21, 6): (15, 2, "9ab33aa3f7143178e13531c7b2b5452b3f9851483cb847993c6fd8ea8f9bfe67"),
    (22, 1): (11, 3, "7f58d0fe938ea02ae85dde8f6224f972a01e8b3461aecf999d2b6278a28a2ab3"),
    (22, 2): (0, 1, "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a"),
    (22, 3): (11, 5, "415f18e0de63304bd1048abe048658d5178da98abe55466ffd93403a9cffa9da"),
    (22, 4): (13, 2, "b53feb27959cc97253a47c908c5171614acebe71acbea40f059dd32fae06ec9d"),
    (22, 5): (15, 3, "2d7c447eec88c7041a80f8579e610de847aad52c1ede797dee0d19ed8cfac774"),
    (22, 6): (16, 1, "52d25518f59c62371e61e695ef3b40f8c19e827256393f25baa37e671cc49d1c"),
    (23, 1): (12, 2, "c0922e031f69882a8ae57fa8729e68dd9716118fb74d0c26ade27911640fb4ec"),
    (23, 2): (0, 1, "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a"),
    (23, 3): (12, 1, "b9e5688888b4986c71e76bc91b3509097c84f50b0658f633413717c1aca7d038"),
    (23, 4): (14, 1, "b5db7d8ea43bb3a68db38bfff085c909269210ed42cfa318b47b7f19c5646a27"),
    (23, 5): (16, 1, "8740183648d63ec5eef31e5ff45fa50c2b6b2fab57a9958d68b14c8ed2d259a6"),
    (23, 6): (17, 1, "8892f5390dacd10950ab54dfe4205e31bbf22fe64b55a1b7aae17f06a44fb665"),
    (24, 1): (12, 3, "f8af1513b1191e92f02953e9bda0f45f7053f2fcfa0e35076abf54d2a30269bb"),
    (24, 2): (0, 1, "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a"),
    (24, 3): (12, 1, "b9e5688888b4986c71e76bc91b3509097c84f50b0658f633413717c1aca7d038"),
    (24, 4): (14, 2, "ff3d0e39746368bf2fc06a69c764592e395e68d6d30fb1a194987b802d4fdb12"),
    (24, 5): (17, 1, "6d340f704324700bf1376ca36030c26b35e6273b9cd4839555e5b5f6aba3de50"),
    (24, 6): (17, 2, "25a4d80a37aa97d1d97faab3d36fada51e37506b1a441b3a2f3c9e9c6835ee08"),
    (25, 1): (13, 2, "5363d2f3281c33b9d2949945145e8c1d8f531784e3ed0e65518b09744cebde3e"),
    (25, 2): (0, 1, "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a"),
    (25, 3): (13, 1, "e3bb0cc37e0b4874bf975030eca3c3d1fed8e96753d12a1758965c73d095e489"),
    (25, 4): (15, 1, "db9772619e68c703fe317bb01d5aab2cd71a0edad8a75076d02a886871e1fd9b"),
    (25, 5): (17, 2, "77237725b0918841f20b608affcdd592eb5b0c97892920c8284e6c7ec8f48331"),
    (25, 6): (18, 1, "11830f08983205143f46889de26fd437e6822c2bbd9966d6de0ea0a2ed30a8ea"),
    (26, 1): (13, 3, "021e3002149260a3a83be7c5aca2cd1c99a69dd499f35076fb1e38ff8ec02b16"),
    (26, 2): (0, 1, "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a"),
    (26, 3): (13, 1, "e3bb0cc37e0b4874bf975030eca3c3d1fed8e96753d12a1758965c73d095e489"),
    (26, 4): (15, 3, "9e80f14e6f9677cd8c826de9937be555f58a8618d9d5572189f4c77d1729620d"),
    (26, 5): (18, 1, "b36a9798a5f25aa3b6722faceca7b4621aa1e835cd40026dbb7b525f209c132c"),
    (26, 6): (19, 1, "ddcbfdac317b7d893388b30e7d94d1d83f63f50c2fe0e9e62263bf50a9310779"),
    (27, 1): (14, 2, "d1a586e1980394f83e51e183050e1940f59f2eb26ea90e651383dfebdc9ba0b1"),
    (27, 2): (0, 1, "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a"),
    (27, 3): (14, 1, "5224771aec62aeae0c9359e7e094ae7ee2f31f7c5d0711e94c4cdacb07e18b42"),
    (27, 4): (16, 2, "04d6440667b801a1e83e947c2504dba2b89967445564372e63a873f2419c707c"),
    (27, 5): (19, 1, "75c3a217c1ef4e3c58da19f57c909fb8bdbcdc398b12c71df858a8dd8e9d1811"),
    (27, 6): (19, 2, "585938dd7b9b619d66057c94b554f20f17bad9689806f0f06f86f030c7a2ebd4"),
    (28, 1): (14, 3, "776090c2280cf997ced8ca9c617c181523eb582269d0d2a52079c42bb6f5f14d"),
    (28, 2): (0, 1, "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a"),
    (28, 3): (14, 1, "5224771aec62aeae0c9359e7e094ae7ee2f31f7c5d0711e94c4cdacb07e18b42"),
    (28, 4): (16, 4, "7cff03a3530b25601c9ae538a2e8120aa4f0dde3f628f4c4996b7db87baaa738"),
    (28, 5): (19, 3, "3ddbb90d5ed163a9ef10e5cbc945c0d270cb3d1fe90278c98fed8d001747acdc"),
    (28, 6): (20, 1, "99d0bc4fe589eb911e1a4d80ca75585aa7acf34e3738b9b842456fd24630ed46"),
    (29, 1): (15, 2, "265168fa83bea980b9fa6fbba7d2ea238443ec3b7cc8ff152428288c4f8bc6ef"),
    (29, 2): (0, 1, "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a"),
    (29, 3): (15, 1, "0770f1e17b4da30979a057547c9736e04e83bcadc6eff1108aaab65f99bb3971"),
    (29, 4): (17, 2, "0a94eea15ba3d28f62fcc2a6065f58aa770792f62986cc4661272b5e5613116f"),
    (29, 5): (20, 1, "2f9f7e50f002522b1f8f17209ae83c18ca25e77a498bb96c59bee18c654c0f3e"),
    (29, 6): (21, 1, "813f609b38a5913fbe8a61d41ee71480d01e3df7087363dfa1642309598e7ddf"),
    (30, 1): (15, 3, "ba0f685fc14ae92d57b0bddbb3ba07bef132c8c18e73190779aaac422a817efa"),
    (30, 2): (0, 1, "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a"),
    (30, 3): (15, 1, "0770f1e17b4da30979a057547c9736e04e83bcadc6eff1108aaab65f99bb3971"),
    (30, 4): (17, 5, "3d0fa874a7ffdea3fe931a4ecffc3266b72e5dbd38ade1577de2e6a956cf6d31"),
    (30, 5): (20, 2, "6f45d73c2a7beb1654807cdea79dac1353968d2936ca4f1aad49523c49affe09"),
    (30, 6): (21, 4, "6fd3baa4ef778276c5869157ee61f5064d40ac926ebd6bb8ee34709e0af8c9ae"),
    (31, 1): (16, 2, "3eaa5165dca880dc66f6458c28ac2b6fb9e9ec76529ef4ca459762598c3aeddd"),
    (31, 2): (0, 1, "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a"),
    (31, 3): (16, 1, "f8a7a461f8be46c4244d73ae6a66ea05c0124a16c31e566170970bff43f3abe6"),
    (31, 4): (18, 3, "1cb8e320310631d9ddc86a37b9b6f2e41527710c41d6b6f46433195ca50d74cf"),
    (31, 5): (21, 1, "3387b75c675f0d49d02fee3bce8d9ef8781e1a93f9fdd1a90e48c97246bd65cb"),
    (31, 6): (22, 3, "fd6becc7484b6e57dd0717113d0959d8cee7beed775b69efbefe5440422559e1"),
    (32, 1): (16, 3, "7989d9cce667082b3d62e73db8f46e9184be5f343ff977d65cf6f02f6a836255"),
    (32, 2): (0, 1, "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a"),
    (32, 3): (16, 1, "f8a7a461f8be46c4244d73ae6a66ea05c0124a16c31e566170970bff43f3abe6"),
    (32, 4): (18, 9, "1626f30b978e735a1c5e074b68d49784e91fc62f7583716843ad9ce1bee6d6c4"),
    (32, 5): (22, 1, "16b34f9aabd6e4337197a29346c8c53c61c53e73247b970d2fa52c481469342d"),
    (32, 6): (23, 3, "ca082ece2cdaf217b4b53ede784adfcf8a09525e3c68a87d0fbf7970dc20cb16"),
    (33, 1): (17, 2, "72246f05111fd0bca7812be839325172cc9173f3a6cbd24b1924e1812cb14ce7"),
    (33, 2): (0, 1, "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a"),
    (33, 3): (17, 1, "0bc01b283ce25fc68f507dd6126eee1f5d9a8e40db57283e4b0aed9a90607729"),
    (33, 4): (19, 6, "ffd789501e3595d7794eb8cf61eafecc12a6e6f30d86f2b23f0070022398c797"),
    (33, 5): (22, 4, "5ecc8ec1c423f70d3b8e4809b779ed22871797473f06285a4eebb5832e41db57"),
    (33, 6): (24, 1, "15d871172616bb9570dae7ae17cd0170e8307c4c005eb852038d5babb4e3b53c"),
    (34, 1): (17, 3, "0b38570ada024983eeec84c62b0815a95f77ad40f723315d5a8b73af339c6281"),
    (34, 2): (0, 1, "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a"),
    (34, 3): (17, 1, "0bc01b283ce25fc68f507dd6126eee1f5d9a8e40db57283e4b0aed9a90607729"),
    (34, 4): (20, 1, "cc17478c4f3c77fe58bd5eb5f1788fa28b924a1fda27b9282f74252eb8e6ab51"),
    (34, 5): (23, 2, "481f142942469a1602627a4cfc99f84f856d8abb7817df65cc6f56053f3af842"),
    (34, 6): (25, 1, "3b28d7e2603c82c1cf0199de8aee6bce8ea2b5100b09747e209d336b8c1be5ab"),
}


def listing_digest(result):
    return hashlib.sha256("\n".join(map(str, result.extremal_sets)).encode()).hexdigest()


class TestSearchAgainstOracle:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_pruned_matches_naive(self, k):
        for n in range(1, 19):
            pruned = max_k_sum_free(n, k)
            best, count, _ = max_k_sum_free_naive(n, k)
            assert (pruned.max_size, pruned.extremal_count) == (best, count), (n, k)

    @pytest.mark.parametrize("n,k", [(12, 3), (15, 4), (14, 5)])
    def test_listed_sets_are_maximum_and_free(self, n, k):
        result = max_k_sum_free(n, k, enumerate_sets=True)
        assert len(result.extremal_sets) == result.extremal_count
        assert len(set(map(str, result.extremal_sets))) == result.extremal_count
        for s in result.extremal_sets:
            assert len(s) == result.max_size
            assert is_k_sum_free_int(s, k) == (True, None)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_pinned_beyond_the_oracle(self, k):
        for n in range(19, 35):
            result = max_k_sum_free(n, k, enumerate_sets=True)
            got = (result.max_size, result.extremal_count, listing_digest(result))
            assert got == LISTED_PINS[(n, k)], (n, k)

    @pytest.mark.parametrize("n,k,nodes", [
        pytest.param(62, 3, 1931, id="n62-3-1931"),
        pytest.param(62, 4, 351, id="n62-4-351"),
        pytest.param(62, 5, 617, id="n62-5-617"),
        pytest.param(70, 3, 2669, id="n70-3-2669"),
        pytest.param(70, 4, 474, id="n70-4-474"),
        pytest.param(70, 6, 173, id="n70-6-173"),
        pytest.param(49, 1, 123, id="n49-1-123"),
        pytest.param(70, 1, 200, id="n70-1-200"),
    ])
    def test_pinned_node_counts(self, n, k, nodes):
        # the bench discrete batch (n = 62) and five held-out trees, two of
        # them k = 1, whose matching reads the differences e - c off the V
        # image; a change to the kernel's per-node cost must leave the tree
        # it walks alone
        assert max_k_sum_free(n, k, budget=n).nodes_explored == nodes

    @pytest.mark.parametrize("n,k,size,count", [(49, 6, 35, 2), (70, 6, 50, 1)])
    def test_held_out_k6_answers(self, n, k, size, count):
        result = max_k_sum_free(n, k, budget=n)
        assert (result.max_size, result.extremal_count) == (size, count)

    def test_held_out_pin_n70_k4(self):
        result = max_k_sum_free(70, 4, enumerate_sets=True, budget=70)
        assert (result.max_size, result.extremal_count) == (41, 1)
        assert result.extremal_sets == (IntSet(70, (1, 5, 6, 7, 8, 9, *range(36, 71))),)

    def test_k3_maximum_is_the_odd_numbers(self):
        # from n = 23 on, the odd numbers are the one maximum 3-sum-free set
        for n in range(23, 46):
            result = max_k_sum_free(n, 3, enumerate_sets=True)
            odd = IntSet(n, tuple(range(1, n + 1, 2)))
            assert (result.max_size, result.extremal_count, result.extremal_sets) == (
                (n + 1) // 2, 1, (odd,)), n

    def test_residues_1_3_4_7_mod_9_are_3_sum_free(self):
        # density 4/9, above the continuous ceiling 77/177
        for n in range(1, 201):
            elems = [x for x in range(1, n + 1) if x % 9 in (1, 3, 4, 7)]
            assert is_k_sum_free_int(elems, 3) == (True, None), n


def greedy_pairs(n: int, k: int, mask: int, avail: int) -> list[tuple[int, int]]:
    """Disjoint pairs (e, b) of `avail`, b < e, that cannot join the
    `mask`-set together, matched from the highest candidate down, each
    taking its highest unmatched partner below it.  The partners of e are
    those the kernel reads off its images, here from the chosen elements
    c one by one: k*c - e, e/(k - 1) and 2e/k for k > 2 and, for k = 1,
    e - c."""
    chosen = [c for c in range(1, n + 1) if (mask >> (c - 1)) & 1]
    pairs = []
    rest = avail
    while rest:
        e = rest.bit_length()
        rest ^= 1 << (e - 1)
        partners = {k * c - e for c in chosen}
        if k > 2:
            partners |= {num // den for num, den in ((e, k - 1), (2 * e, k)) if num % den == 0}
        if k == 1:
            partners |= {e - c for c in chosen}
        mates = [b for b in partners if 0 < b < e and (rest >> (b - 1)) & 1]
        if mates:
            rest ^= 1 << (max(mates) - 1)
            pairs.append((e, max(mates)))
    return pairs


#: largest n the unpruned oracle accepts by default
NAIVE_BUDGET = 26


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


def max_k_sum_free_naive(n: int, k: int, budget: int = NAIVE_BUDGET):
    """Unpruned exhaustive oracle; returns (max_size, count, nodes).

    n and k are ints >= 1, as in ``max_k_sum_free``.
    """
    if type(n) is not int or n < 1:
        raise ValueError(f"n must be >= 1 (an int), got {n!r}")
    if type(k) is not int or k < 1:
        raise ValueError(f"k must be >= 1 (an int), got {k!r}")
    if n > budget:
        raise BudgetError(n, budget)
    return search_naive(n, k)


def reference_search(n: int, k: int, enumerate_all: bool = False, matching: bool = True):
    """The kernel's search as one recursive call per node, kept verbatim
    as the reference for the loop form: one call for every excluded
    element and an `include` call before every included one.  Without
    `matching` it is the search with the Russian-doll bound alone, with
    neither the matching nor the tight-node rule."""
    EXTREMAL_CAP = _kernel_py.EXTREMAL_CAP
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
        avail = ~forb & full & (full << (pos - 1))
        free = avail.bit_count()
        if size + min(free, R[pos]) < best:
            return False
        # a tight node: only the set of every candidate can tie
        if matching and size + free == best:
            S = mask | avail
            if not is_k_sum_free_int(IntSet.from_mask(S, n), k)[0]:
                return False
            count += 1
            if enumerate_all and len(stored) < EXTREMAL_CAP:
                stored.append(S)
            return deciding
        # an extension holds at most one element of each pair
        if matching and size + free - len(greedy_pairs(n, k, mask, avail)) < best:
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


class TestLoopKernelAgainstReference:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_same_answer_listing_and_nodes(self, k):
        # the listed masks are compared in discovery order
        for n in range(1, 35):
            assert _kernel_py.search(n, k, True) == reference_search(n, k, True), (n, k)

    @pytest.mark.parametrize("n,k", [(62, 3), (62, 4), (62, 5)] + [(70, k) for k in range(1, 7)])
    def test_same_on_the_bench_batch(self, n, k):
        # the bench batch, and n = 70 as trees held out of it
        assert _kernel_py.search(n, k, True) == reference_search(n, k, True)


class TestMaskPredicate:
    @settings(max_examples=500, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 6), st.data())
    def test_agrees_with_the_set_predicate(self, n, k, data):
        # the AND of up to four random masks, so that sparse sets, and so
        # both verdicts, occur at every k
        mask = data.draw(st.integers(0, (1 << n) - 1))
        for _ in range(data.draw(st.integers(0, 3))):
            mask &= data.draw(st.integers(0, (1 << n) - 1))
        expected = is_k_sum_free_int(IntSet.from_mask(mask, n), k)[0]
        assert _kernel_py.is_k_sum_free_mask(mask, n, k) == expected

    @pytest.mark.parametrize("n,k,z", [(12, 3, 8), (10, 4, 5), (12, 6, 4)])
    def test_both_summands_at_n(self, n, k, z):
        # n + n = k*z: the target z = 2n // k must be tried
        mask = 1 << (z - 1) | 1 << (n - 1)
        assert not _kernel_py.is_k_sum_free_mask(mask, n, k)
        assert _kernel_py.is_k_sum_free_mask(1 << (z - 1), n, k)


class TestMatchingBound:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_cuts_no_set_the_russian_doll_search_finds(self, k):
        # the same maximum, count and listing in discovery order, in
        # never more nodes than the search without the bound
        for n in range(1, 35):
            best, count, stored, nodes = _kernel_py.search(n, k, True)
            plain = reference_search(n, k, True, matching=False)
            assert (best, count, stored) == plain[:3] and nodes <= plain[3], (n, k)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 14), st.integers(1, 6), st.data())
    def test_bounds_the_largest_extension(self, n, k, data):
        # free - pairs is at least the size of every extension of a
        # k-sum-free chosen set within the candidates, by brute force
        chosen, cands, mask, avail = draw_chosen_and_candidates(n, k, data)
        assert len(cands) - len(greedy_pairs(n, k, mask, avail)) >= largest_extension(chosen, cands, k)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 14), st.integers(1, 6), st.data())
    def test_pairs_are_a_matching_of_conflicts(self, n, k, data):
        # the pairs are candidates, pairwise disjoint, and each closes a
        # triple of the chosen set that uses both of its members
        chosen, cands, mask, avail = draw_chosen_and_candidates(n, k, data)
        pairs = greedy_pairs(n, k, mask, avail)
        members = [x for pair in pairs for x in pair]
        assert len(set(members)) == len(members) and set(members) <= set(cands)
        for a, b in pairs:
            assert any(x + y == k * z for x, y, z in itertools.product(chosen + [a, b], repeat=3)
                       if {a, b} <= {x, y, z}), (chosen, a, b)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 14), st.integers(1, 6), st.data())
    def test_dropping_the_lowest_candidate_drops_only_its_pair(self, n, k, data):
        # the kernel resumes one matching across a call's nodes: without
        # the lowest candidate L the greedy finds the same pairs, less the
        # one that holds L, so the count drops by one exactly when L is matched
        chosen, cands, mask, avail = draw_chosen_and_candidates(n, k, data)
        pairs = greedy_pairs(n, k, mask, avail)
        low = min(cands, default=None)
        assert greedy_pairs(n, k, mask, avail & (avail - 1)) == [p for p in pairs if low not in p]


def draw_chosen_and_candidates(n, k, data):
    """A k-sum-free chosen set and candidates outside it, as lists and masks."""
    chosen = []
    for c in data.draw(st.lists(st.integers(1, n), unique=True)):
        if is_k_sum_free_int(chosen + [c], k)[0]:
            chosen.append(c)
    cands = data.draw(st.lists(st.sampled_from(range(1, n + 1)), unique=True))
    cands = sorted(set(cands) - set(chosen))
    mask = sum(1 << (c - 1) for c in chosen)
    avail = sum(1 << (c - 1) for c in cands)
    return chosen, cands, mask, avail


def largest_extension(chosen, cands, k):
    """The most elements of `cands` that `chosen` takes and stays k-sum-free."""
    best = 0

    def grow(i, elems, size):
        nonlocal best
        best = max(best, size)
        for j in range(i, len(cands)):
            more = elems + [cands[j]]
            if is_k_sum_free_int(more, k)[0]:
                grow(j + 1, more, size + 1)

    grow(0, list(chosen), 0)
    return best


#: code of the kernel's depth-first search, whose frames the test reads
DFS_CODE = next(c for c in _kernel_py.search.__code__.co_consts
                if getattr(c, "co_name", None) == "dfs")


def visited_nodes(n, k):
    """(pos, mask, forb) of every node `search(n, k)` enters."""
    nodes = []

    def hook(frame, event, arg):
        if event == "call" and frame.f_code is DFS_CODE:
            args = frame.f_locals
            nodes.append((args["pos"], args["mask"], args["forb"]))

    sys.setprofile(hook)
    try:
        _kernel_py.search(n, k, True)
    finally:
        sys.setprofile(None)
    return nodes


class TestKernelForbiddenMask:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_mask_is_exactly_the_violating_extensions(self, k):
        # after each include of e = pos - 1, the cumulative forbidden mask
        # marks a later v exactly when the chosen set plus v has a triple
        includes = 0
        for n in range(1, 15):
            for pos, mask, forb in visited_nodes(n, k):
                if pos < 2 or not (mask >> (pos - 2)) & 1:
                    continue
                includes += 1
                chosen = [i for i in range(1, pos) if (mask >> (i - 1)) & 1]
                for v in range(pos, n + 1):
                    fails = not is_k_sum_free_int(chosen + [v], k)[0]
                    assert bool((forb >> (v - 1)) & 1) == fails, (n, chosen, v)
        # k = 2 admits no element at all (x + x = 2x)
        assert includes > 0 or k == 2


class TestPredicate:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_witness_is_a_triple_of_the_set(self, k):
        rng = random.Random(k)
        for _ in range(200):
            elems = rng.sample(range(1, 31), rng.randint(1, 8))
            ok, witness = is_k_sum_free_int(elems, k)
            assert ok == (not has_triple(elems, k))
            if ok:
                assert witness is None
            else:
                x, y, z = witness
                assert x + y == k * z and x <= y
                assert {x, y, z} <= set(elems)

    def test_takes_an_intset(self):
        assert is_k_sum_free_int(IntSet(10, (2, 3, 4)), 2) == (False, (2, 2, 2))

    def test_rejects_k_below_one(self):
        with pytest.raises(ValueError):
            is_k_sum_free_int([1, 2], 0)

    @pytest.mark.parametrize("elems,k", [([1, 2], True), ([1, 3, 5], 3.0), ([1, 3, 5], 2.5)])
    def test_rejects_k_that_is_not_an_int(self, elems, k):
        # True is not taken as 1, nor 3.0 as 3
        with pytest.raises(ValueError, match="an int"):
            is_k_sum_free_int(elems, k)

    @pytest.mark.parametrize("elems,k", [([1.5, 3], 1), ([0], 1), ([-1, 1], 3), ([True, 2], 3)])
    def test_rejects_elements_that_are_not_ints_at_least_one(self, elems, k):
        with pytest.raises(ValueError, match="ints"):
            is_k_sum_free_int(elems, k)


class TestIntSet:
    @pytest.mark.parametrize("text", ["{}", "{1}", "{1,3,5}", "{2,9,20}"])
    def test_parse_str_round_trip(self, text):
        assert str(IntSet.parse(text)) == text
        s = IntSet.parse(text, n=20)
        assert IntSet.parse(str(s), n=20) == s

    def test_canonical_order(self):
        s = IntSet.parse("{ 5, 1,3 ,1 }", n=6)
        assert (s.n, s.elements, str(s)) == (6, (1, 3, 5), "{1,3,5}")

    def test_from_mask(self):
        assert IntSet.from_mask(0b10101, 5) == IntSet(5, (1, 3, 5))

    @pytest.mark.parametrize("elements", [(0, 1), (1, 6), (-2,)])
    def test_rejects_elements_outside_range(self, elements):
        with pytest.raises(ValueError, match="1..5"):
            IntSet(5, elements)

    @pytest.mark.parametrize("n,elements", [(5.0, (1, 2)), (True, (1,)), (3, (1.0, 2)), (-1, ())])
    def test_rejects_n_or_elements_that_are_not_ints(self, n, elements):
        with pytest.raises(ValueError, match="int"):
            IntSet(n, elements)

    def test_parse_rejects_element_above_n(self):
        with pytest.raises(ValueError, match="1..5"):
            IntSet.parse("{1,9}", n=5)

    def test_parse_rejects_missing_braces(self):
        with pytest.raises(ValueError):
            IntSet.parse("1,2")


class TestBudget:
    def test_pruned_search(self):
        with pytest.raises(BudgetError):
            max_k_sum_free(DEFAULT_BUDGET + 1, 3)
        assert max_k_sum_free(DEFAULT_BUDGET + 1, 3, budget=DEFAULT_BUDGET + 1).max_size > 0

    def test_rejects_k_zero(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            max_k_sum_free(5, 0)

    @pytest.mark.parametrize("n,k", [(10, True), (10.0, 3), (10, 3.0), (True, 3)])
    def test_rejects_arguments_that_are_not_ints(self, n, k):
        # a bool or a float equal to an int is refused before the kernel runs
        with pytest.raises(ValueError, match="an int"):
            max_k_sum_free(n, k)


# (max size, extremal count) of max_k_sum_free(n, k, budget=n) beyond
# DEFAULT_BUDGET, and the nodes each search visits
BEYOND_BUDGET = {
    4: {70: (41, 1), 100: (58, 1), 130: (74, 22), 160: (92, 3), 200: (115, 2)},
    5: {70: (46, 2), 100: (65, 15), 130: (85, 6), 160: (105, 6), 200: (131, 6)},
    6: {70: (50, 1), 100: (71, 2), 130: (92, 1), 160: (113, 3), 200: (142, 2)},
}
BEYOND_BUDGET_NODES = {
    4: {70: 474, 100: 899, 130: 7888, 160: 8884, 200: 28687},
    5: {70: 687, 100: 2453, 130: 5270, 160: 11488, 200: 32697},
    6: {70: 173, 100: 324, 130: 434, 160: 637, 200: 838},
}
BEYOND_BUDGET_CASES = [(k, n) for k, row in BEYOND_BUDGET.items() for n in row]


@functools.lru_cache(maxsize=None)
def search_beyond_budget(n, k):
    return max_k_sum_free(n, k, budget=n)


class TestBeyondTheBudget:
    """The integer maxima for k = 4..6 up to n = 200, about 1 s of search
    in all; each search runs once and its result is shared."""

    @pytest.mark.parametrize("k,n", BEYOND_BUDGET_CASES)
    def test_max_and_count(self, k, n):
        r = search_beyond_budget(n, k)
        assert (r.max_size, r.extremal_count) == BEYOND_BUDGET[k][n]

    @pytest.mark.parametrize("k,n", BEYOND_BUDGET_CASES)
    def test_nodes(self, k, n):
        # apart from the answers, so that a kernel change that moves the
        # tree moves only these pins
        assert search_beyond_budget(n, k).nodes_explored == BEYOND_BUDGET_NODES[k][n]

    def test_max_is_within_one_of_the_density_line(self):
        """|max - n * cg_density(k)| <= 1 on every pinned case, on either
        side.  This is evidence at finite n, not a theorem: cg_density(k)
        is the asymptotic density of Chung and Goldwasser's construction."""
        for k, n in BEYOND_BUDGET_CASES:
            assert abs(search_beyond_budget(n, k).max_size - n * cg_density(k)) <= 1, (k, n)


class TestDiscretize:
    @pytest.mark.parametrize("n", [59, 177, 354])
    def test_a0_grid_is_3_sum_free(self, n):
        S = discretize(extremal_base(), n)
        assert S.n == n and len(S) > 0
        assert is_k_sum_free_int(S, 3) == (True, None)

    @pytest.mark.parametrize("n", [59.0, True, 0])
    def test_rejects_n_that_is_not_an_int_at_least_one(self, n):
        with pytest.raises(ValueError, match="an int"):
            discretize(extremal_base(), n)


class TestDensity:
    # the search ratio and the asymptotic density sit side by side; they
    # converge only as n grows, so no test equates them
    @pytest.mark.parametrize("k", [4, 5])
    def test_report_fields(self, k):
        n = 18
        rep = density_report(k, n)
        best, _, _ = max_k_sum_free_naive(n, k)
        assert isinstance(rep, DensityReport)
        assert (rep.n, rep.k, rep.max_size) == (n, k, best)
        assert rep.search_ratio == rational(best, n)
        assert rep.asymptotic_density == cg_density(k)

    @pytest.mark.parametrize("k,text", [
        (4, "k=4 n=18: search max 10 (ratio 5/9 ~ 0.555556), "
            "asymptotic density 63/110 ~ 0.572727"),
        (5, "k=5 n=18: search max 12 (ratio 2/3 ~ 0.666667), "
            "asymptotic density 1863/2855 ~ 0.652539"),
    ])
    def test_cli_text_line(self, k, text, capsys):
        assert str(density_report(k, 18)) == text
        assert run(["density", "-k", str(k), "-n", "18"]) == 0
        assert capsys.readouterr().out == text + "\n"

    def test_cli_records_lines(self, capsys):
        assert run(["density", "-k", "5", "-n", "18", "--format", "records"]) == 0
        assert capsys.readouterr().out == (
            "search-ratio\t2/3\t-\tpass\n"
            "asymptotic-density\t1863/2855\t-\tpass\n"
        )

    def test_rejects_k_below_4_before_searching(self, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("searched before checking k")

        monkeypatch.setattr(search_module, "max_k_sum_free", no_search)
        with pytest.raises(ValueError, match="k >= 4"):
            density_report(1, 41)

    def test_rejects_n_beyond_budget(self, capsys):
        assert run(["density", "-k", "4", "-n", str(DEFAULT_BUDGET + 1)]) == USAGE_ERROR
        assert "error:" in capsys.readouterr().err
