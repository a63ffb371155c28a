import heapq
import inspect
import math
import pickle
import random
import sys
import time
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import maximin_share_bruteforce, random_instance
from mmsfair import (
    UNBOUNDED,
    Allocation,
    EnumerationLimitError,
    Instance,
    Mechanism,
    approximation_ratio,
    maximin_share,
    mechanisms,
    mms,
    run_mechanism,
)
from mmsfair.instance import validate_allocation


class TestOracleKnownValues:
    def test_example_shares(self, ex23):
        assert maximin_share(ex23, 0, 3) == Fraction(1, 2)
        assert maximin_share(ex23, 1, 3) == Fraction(1, 4)
        assert maximin_share(ex23, 2, 3) == 1
        assert maximin_share(ex23, 0, 2) == 1
        assert maximin_share(ex23, 2, 2) == Fraction(3, 2)

    def test_single_bundle_is_total(self, ex23):
        for i in range(3):
            assert maximin_share(ex23, i, 1) == sum(ex23.values[i])

    def test_more_parts_than_items_is_zero(self, ex23):
        assert maximin_share(ex23, 0, 6) == 0
        assert maximin_share(ex23, 0, 3, items=[0, 1]) == 0

    def test_subset_query(self, ex23):
        # player 3 on {c, d, e} into 2 bundles: best split is {c} | {d, e}
        assert maximin_share(ex23, 2, 2, items=[2, 3, 4]) == 1

    def test_bad_arguments(self, ex23):
        with pytest.raises(ValueError):
            maximin_share(ex23, 0, 0)
        with pytest.raises(IndexError):
            maximin_share(ex23, 0, 2, items=[9])
        with pytest.raises(IndexError):
            maximin_share(ex23, 7, 2)

    # an index operator.index refuses is one ValueError naming it, not a
    # TypeError from deep in the search, nor silently truncated
    def test_float_parts_refused(self, ex23):
        with pytest.raises(ValueError, match=r"^parts 3\.0 is not an integer$"):
            maximin_share(ex23, 0, 3.0)

    def test_integral_float_parts_refused(self, ex23):
        with pytest.raises(ValueError, match=r"^parts 2\.0 is not an integer$"):
            maximin_share(ex23, 0, 2.0)

    def test_float_player_refused(self, ex23):
        with pytest.raises(ValueError, match=r"^player index 0\.0 is not an integer$"):
            maximin_share(ex23, 0.0, 2)

    def test_float_item_refused(self, ex23):
        with pytest.raises(ValueError, match=r"^item index 0\.0 is not an integer$"):
            maximin_share(ex23, 0, 2, items=[0.0, 1])

    def test_numpy_indices_taken(self, ex23):
        np = pytest.importorskip("numpy")
        got = maximin_share(ex23, np.int64(2), np.int64(2), items=list(np.arange(2, 5)))
        assert got == maximin_share(ex23, 2, 2, items=[2, 3, 4]) == 1


class TestOracleEquivalence:
    def test_matches_bruteforce_random(self):
        rng = random.Random(101)
        for _ in range(60):
            n = rng.choice([2, 3])
            m = rng.randrange(1, 9)
            inst = random_instance(rng, n, m)
            for k in (1, 2, 3, 4):
                assert maximin_share(inst, 0, k) == maximin_share_bruteforce(
                    inst, 0, k
                )

    def test_matches_bruteforce_rationals(self):
        rng = random.Random(5)
        for _ in range(25):
            m = rng.randrange(1, 7)
            row = [
                Fraction(rng.randrange(6), rng.randrange(1, 5)) for _ in range(m)
            ]
            inst = Instance.from_rows([row])
            for k in (2, 3):
                assert maximin_share(inst, 0, k) == maximin_share_bruteforce(
                    inst, 0, k
                )

    def test_matches_bruteforce_on_subsets(self):
        rng = random.Random(17)
        for _ in range(20):
            inst = random_instance(rng, 2, 7)
            items = [j for j in range(7) if rng.random() < 0.6]
            assert maximin_share(inst, 0, 2, items) == maximin_share_bruteforce(
                inst, 0, 2, items
            )

    def test_many_parts(self):
        rng = random.Random(23)
        for _ in range(15):
            inst = random_instance(rng, 1, 6, top=3)
            for k in (4, 5, 6):
                assert maximin_share(inst, 0, k) == maximin_share_bruteforce(
                    inst, 0, k
                )


DERANDOMIZED = settings(
    derandomize=True, database=None, deadline=None, max_examples=150
)


class TestIntegerRows:
    @DERANDOMIZED
    @given(
        st.lists(
            st.one_of(st.integers(0, 10**6), st.just(0), st.booleans()), max_size=24
        ),
        st.integers(2, 4),
        st.one_of(st.none(), st.sets(st.integers(0, 23))),
        st.integers(2, 12),
    )
    @example([3, 5, 2, 8], 2, None, 7)  # ints only: the row is read in place
    @example([True, 4, False, 0, 3], 2, {0, 1, 4}, 5)  # a bool: scaled as today
    def test_int_row_matches_its_fraction_twins(self, row, parts, items, d):
        # an int row, read in place, has the share of the same values as
        # Fraction(v, 1), and d times the share of Fraction(v, d)
        if items is not None:
            items = [j for j in items if j < len(row)]

        def share(values):
            return maximin_share(Instance.from_rows([values]), 0, parts, items)

        got = share(row)
        assert type(got) is Fraction
        assert got == share([Fraction(v, 1) for v in row])
        assert got == d * share([Fraction(v, d) for v in row])


def _two_part_route(row):
    """The 2-bundle share of ``row`` and the exact methods that computed it,
    in call order; an empty list means the differencing exit answered."""
    used = []

    def spy(name):
        real = getattr(mms, name)

        def wrapper(*args):
            used.append(name)
            return real(*args)

        return wrapper

    def branch_and_bound(*args):
        raise AssertionError("a 2-bundle query reached branch and bound")

    with pytest.MonkeyPatch.context() as mp:
        for name in ("_perfect_split", "_two_parts_bitset", "_two_parts_meet"):
            mp.setattr(mms, name, spy(name))
        mp.setattr(mms, "_max_min_partition", branch_and_bound)
        share = maximin_share(Instance.from_rows([row]), 0, 2)
    return share, used


def _set_of_sums(row, cap):
    """Largest subset sum up to ``cap``, from a plain set of sums."""
    sums = {0}
    for w in row:
        sums |= {s + w for s in sums if s + w <= cap}
    return max(sums)


def _set_of_sums_half(row):
    """Largest subset sum up to half the total, from a plain set of sums."""
    return _set_of_sums(row, sum(row) // 2)


def _heap_differencing(weights, steps):
    """The numbers left, ascending, after ``steps`` Karmarkar-Karp steps by
    a heap of negated numbers: the reference for the sorted-list loop."""
    heap = [-w for w in weights]
    heapq.heapify(heap)
    for _ in range(steps):
        largest = heapq.heappop(heap)
        heapq.heapreplace(heap, largest - heap[0])
    return sorted(-w for w in heap)


def _kk_exits(row):
    weights = sorted(row, reverse=True)
    return mms._karmarkar_karp(weights, len(weights) - 1) == [sum(weights) % 2]


def _draw(rng, m, top, accept):
    """A random row of ``m`` values in [1, top], drawn again until accepted."""
    while True:
        row = [rng.randint(1, top) for _ in range(m)]
        if accept(row):
            return row


# Rows of 12 to 28 values: some share a factor, some hold zeros, and some
# have one value out of step with a factor, so that half the total is a
# subset sum on some rows and not on others.
_SPLIT_ROWS = st.builds(
    lambda base, factor, extra: [factor * v for v in base] + extra,
    st.lists(st.integers(0, 300), min_size=11, max_size=27),
    st.sampled_from([1, 2, 3, 6]),
    st.lists(st.integers(0, 2), min_size=1, max_size=1),
)


# Rows of the CI's 2x24 instances: the first row of split.txt, which the
# differenced residual splits; whole.txt, whose residual misses and whose
# whole row splits; and missed.txt, with no perfect partition.
_SPLIT_TXT = [
    352, 179, 616, 432, 237, 998, 770, 261, 986, 487, 391, 573, 64, 480, 553,
    373, 315, 204, 482, 862, 758, 811, 684, 756,
]
_WHOLE_TXT = [
    [2966, 1954, 1330, 1998, 958, 178, 68, 2902, 536, 388, 2159, 1244, 2325,
     2637, 880, 1194, 290, 2147, 1094, 232, 1938, 2058, 402, 424],
    [2737, 894, 968, 288, 1218, 1681, 176, 912, 1555, 1256, 10, 754, 2776,
     400, 2569, 2075, 492, 16, 962, 1240, 1498, 2852, 1450, 1905],
]
_MISSED_TXT = [
    [258, 2076, 519, 300, 1713, 2712, 1689, 2349, 2961, 2745, 1809, 711,
     2073, 702, 606, 2220, 1080, 2835, 1578, 1749, 1356, 747, 1941, 2341],
    [966, 2688, 2895, 432, 2943, 1716, 2748, 441, 2331, 912, 144, 1191,
     219, 1209, 2511, 2592, 1182, 1305, 321, 492, 729, 1845, 81, 847],
]


def _spy_decisions(monkeypatch):
    """Record, in call order, whether each split decision reached its
    target: ``[True]`` when the differenced residual splits, ``[False,
    True]`` when the whole row does after the residual misses, and
    ``[False, False]`` when both miss."""
    decisions = []
    real = mms._split_decision

    def spy(weights, target):
        found = real(weights, target)
        decisions.append(found)
        return found

    monkeypatch.setattr(mms, "_split_decision", spy)
    return decisions


def _third_draw_of_20():
    """The third row of 20 values up to 10^4 drawn by random.Random(20):
    at four differencing steps its residual has no even split, but the
    whole row has one."""
    rng = random.Random(20)
    for _ in range(3):
        row = [rng.randint(1, 10**4) for _ in range(20)]
    return row


# Dense rows of 16 to 28 values: most have a perfect partition; multiples
# of 3 and one 1 often have none, as no subset sum is 2 mod 3.
_DENSE_ROWS = st.one_of(
    st.lists(st.integers(1, 1000), min_size=16, max_size=28),
    st.lists(st.integers(1, 300), min_size=15, max_size=27).map(
        lambda r: [3 * v for v in r] + [1]
    ),
)


class TestTwoPartOracle:
    @DERANDOMIZED
    @given(st.lists(st.integers(0, 10**6), min_size=1, max_size=9))
    def test_matches_bruteforce_ints(self, row):
        share, _ = _two_part_route(row)
        assert share == maximin_share_bruteforce(Instance.from_rows([row]), 0, 2)

    @DERANDOMIZED
    @given(
        st.lists(
            st.fractions(min_value=0, max_value=10**6, max_denominator=12),
            min_size=1,
            max_size=9,
        )
    )
    def test_matches_bruteforce_fractions(self, row):
        share, _ = _two_part_route(row)
        assert share == maximin_share_bruteforce(Instance.from_rows([row]), 0, 2)

    @DERANDOMIZED
    @given(st.lists(st.integers(1, 50), min_size=2, max_size=9))
    def test_narrow_bitset(self, row):
        assert sum(row) // 2 < mms._NARROW_HALF
        share, used = _two_part_route(row)
        assert used == ["_two_parts_bitset"]
        assert share == maximin_share_bruteforce(Instance.from_rows([row]), 0, 2)

    @DERANDOMIZED
    @given(st.lists(st.integers(300, 10**6), min_size=1, max_size=4))
    def test_differencing_exit(self, pairs):
        # every value twice: differencing cancels each pair, so the
        # difference is 0 and half the (even) total is reached
        row = pairs + pairs
        share, used = _two_part_route(row)
        assert used == []
        assert share == sum(row) // 2
        assert share == maximin_share_bruteforce(Instance.from_rows([row]), 0, 2)

    @pytest.mark.parametrize("m", [12, 16, 20, 24])
    def test_masked_bitset(self, m):
        rng = random.Random(m)
        for _ in range(5):
            row = _draw(rng, m, 10**4, lambda r: not _kk_exits(r))
            share, used = _two_part_route(row)
            # from m = 20 a row has more subsets than sums up to half, and
            # the split decision finds its perfect partition first
            assert used == (["_two_parts_bitset"] if m < 20 else ["_perfect_split"])
            assert sum(row) // 2 >= mms._NARROW_HALF
            assert share == _set_of_sums_half(row)

    @pytest.mark.parametrize("m", [20, 24])
    def test_masked_bitset_after_a_missed_split(self, m):
        # multiples of 3 and one value of 1 mod 3: no subset sum is 2 mod 3,
        # so a half of 2 mod 3 is missed and the masked bitset answers
        def missed(r):
            return [3 * v for v in r[:-1]] + [3 * r[-1] - 2]

        rng = random.Random(2000 + m)
        for _ in range(5):
            row = missed(
                _draw(
                    rng,
                    m,
                    10**3,
                    lambda r: sum(missed(r)) // 2 % 3 == 2 and not _kk_exits(missed(r)),
                )
            )
            share, used = _two_part_route(row)
            assert used == ["_perfect_split", "_two_parts_bitset"]
            assert share == _set_of_sums_half(row) < sum(row) // 2

    @pytest.mark.parametrize("m", [20, 24])
    def test_common_factor(self, m):
        # multiples of 3 with an odd total over 3: half the total is no
        # multiple of 3, and the share is 3 times half the total over 3
        rng = random.Random(3000 + m)
        for _ in range(5):
            row = [3 * v for v in _draw(rng, m, 10**4, lambda r: sum(r) % 2)]
            share, used = _two_part_route(row)
            assert used == ["_perfect_split"]
            assert share == 3 * (sum(row) // 3 // 2) == _set_of_sums_half(row)

    @DERANDOMIZED
    @given(_SPLIT_ROWS)
    @example([5] * 11 + [1])  # 56 / 2 = 28 is no sum
    @example([8, 7, 6, 5, 4, 3, 2, 1, 9, 10, 11, 12])
    def test_perfect_split_matches_set_of_sums(self, row):
        half, weights = sum(row) // 2, sorted(row, reverse=True)
        reached = mms._perfect_split(weights, half)
        assert reached == (_set_of_sums_half(row) == half)

    @DERANDOMIZED
    @given(_SPLIT_ROWS, st.sampled_from([1, 7]))
    def test_split_route_matches_set_of_sums(self, row, denominator):
        # Fraction rows over 7 scale back to ``row``; zeros drop out
        share, used = _two_part_route([Fraction(v, denominator) for v in row])
        assert used in (
            [],
            ["_two_parts_bitset"],
            ["_perfect_split"],
            ["_perfect_split", "_two_parts_bitset"],
        )
        assert share == Fraction(_set_of_sums_half(row), denominator)

    def test_split_is_charged_no_more_than_the_bitset(self):
        # a perfect row pays the split's price, a missed one the bitset's
        rng = random.Random(4000)
        perfect = _draw(rng, 24, 10**5, lambda r: not _kk_exits(r))
        # 3 * sum(perfect[:-1]) is odd, so half the total below is 2 mod 3
        missed = [3 * v for v in perfect[:-1]] + [1]
        for row, reached in ((perfect, True), (missed, False)):
            weights = sorted(row, reverse=True)
            half, nodes = sum(row) // 2, [0]
            assert (mms._max_min_two_parts(weights, nodes) == half) == reached
            words, meet_words = mms._prices(len(weights), half)
            assert half.bit_length() < len(weights) and words <= meet_words
            split = mms._split_words(weights) // mms._NODE_WORDS
            if reached:
                assert nodes == [split] and 0 < split < words // mms._NODE_WORDS
            else:
                assert nodes == [words // mms._NODE_WORDS]

    def test_missed_split_runs_the_masked_bitset(self, monkeypatch):
        # the two rows of the CI's missed.txt and seeded rows of multiples
        # of 3 and one value of 1 mod 3: after a miss the masked bitset runs
        # over all the weights, gives the plain set of sums' answer and is
        # charged no more nodes than the bitset alone
        missed = list(_MISSED_TXT)
        rng = random.Random(2024)
        while len(missed) < 8:
            row = [3 * rng.randint(1, 1000) for _ in range(23)] + [3 * rng.randint(1, 1000) - 2]
            if sum(row) // 2 % 3 == 2 and not _kk_exits(row):
                missed.append(row)
        calls = []
        real = mms._two_parts_bitset

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(mms, "_two_parts_bitset", spy)
        for row in missed:
            weights, half, nodes = sorted(row, reverse=True), sum(row) // 2, [0]
            calls.clear()
            assert mms._max_min_two_parts(weights, nodes) == _set_of_sums_half(row) < half
            assert calls == [(weights, half)]
            assert nodes == [mms._prices(len(weights), half)[0] // mms._NODE_WORDS]

    def test_residual_split_answers(self, monkeypatch):
        decisions = _spy_decisions(monkeypatch)
        share, used = _two_part_route(_SPLIT_TXT)
        assert used == ["_perfect_split"] and decisions == [True]
        assert share == _set_of_sums_half(_SPLIT_TXT) == sum(_SPLIT_TXT) // 2

    @pytest.mark.parametrize("row", [_third_draw_of_20()] + _WHOLE_TXT)
    def test_whole_split_answers_after_a_residual_miss(self, monkeypatch, row):
        decisions = _spy_decisions(monkeypatch)
        share, used = _two_part_route(row)
        assert used == ["_perfect_split"] and decisions == [False, True]
        assert share == _set_of_sums_half(row) == sum(row) // 2

    @pytest.mark.parametrize("row", _MISSED_TXT)
    def test_both_splits_miss(self, monkeypatch, row):
        decisions = _spy_decisions(monkeypatch)
        share, used = _two_part_route(row)
        assert used == ["_perfect_split", "_two_parts_bitset"]
        assert decisions == [False, False]
        assert share == _set_of_sums_half(row) < sum(row) // 2

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(_DENSE_ROWS)
    def test_dense_rows_match_set_of_sums(self, row):
        with pytest.MonkeyPatch.context() as mp:
            decisions = _spy_decisions(mp)
            share, used = _two_part_route(row)
        assert share == _set_of_sums_half(row)
        assert decisions in ([], [True], [False, True], [False, False])
        assert (used == ["_perfect_split", "_two_parts_bitset"]) == (decisions == [False, False])

    def test_residual_stage_is_charged_within_the_split_price(self, monkeypatch):
        # a dense row is charged no more than its masked bitset's price, and
        # a row the residual splits no more than the whole row's split
        charges = []
        real_spend = mms._spend

        def spend(nodes, count):
            charges.append(count)
            real_spend(nodes, count)

        monkeypatch.setattr(mms, "_spend", spend)
        decisions = _spy_decisions(monkeypatch)
        rng = random.Random(4100)
        outcomes = set()
        for top in (10**3, 10**4, 10**5):
            for m in (20, 24, 28):
                for i in range(6):
                    row = [rng.randint(1, top) for _ in range(m)]
                    if i % 2:
                        row = [3 * v for v in row[:-1]] + [1]
                    weights = sorted(row, reverse=True)
                    charges.clear()
                    decisions.clear()
                    mms._max_min_two_parts(weights, [0])
                    unit = math.gcd(*weights)
                    weights = [w // unit for w in weights]
                    words = mms._prices(len(weights), sum(weights) // 2)[0]
                    assert sum(charges) <= words // mms._NODE_WORDS
                    if decisions == [True]:
                        split = min(mms._split_words(weights), words) // mms._NODE_WORDS
                        assert sum(charges) <= split
                    outcomes.add(tuple(decisions))
        assert {(True,), (False, False)} <= outcomes

    @pytest.mark.parametrize("m", range(10, 23))
    def test_meet_in_the_middle(self, m):
        rng = random.Random(1000 + m)
        row = _draw(
            rng, m, 10**6, lambda r: sum(r) > 4_194_304 and not _kk_exits(r)
        )
        share, used = _two_part_route(row)
        assert used == ["_two_parts_meet"]
        assert share == _set_of_sums_half(row)

    def test_meet_in_the_middle_one_sided_optimum(self):
        # the total is odd and only items 1 and 3 (both even-indexed after
        # sorting) sum to half of it, so one side alone must reach the cap
        row = [30179, 14002, 13337, 12168, 10579, 6768]
        share, used = _two_part_route(row)
        assert used == ["_two_parts_meet"]
        assert share == 30179 + 13337 == sum(row) // 2 == _set_of_sums_half(row)

    @DERANDOMIZED
    @given(
        st.lists(
            st.one_of(st.integers(0, 3), st.integers(0, 12), st.integers(0, 10**6)),
            min_size=2,
            max_size=32,
        )
    )
    def test_sorted_list_differencing_matches_the_heap(self, row):
        # small values make many ties, among the numbers and their differences
        weights = sorted(row, reverse=True)
        for steps in range(len(weights)):
            assert mms._karmarkar_karp(weights, steps) == _heap_differencing(weights, steps)

    @DERANDOMIZED
    @given(st.lists(st.integers(0, 10**6), max_size=14), st.data())
    def test_meet_matches_set_of_sums_at_any_cap(self, row, data):
        # weights in any order, zeros included, at the caps that
        # mechanisms._reaches passes as well as the oracle's half
        total, half = sum(row), sum(row) // 2
        below = data.draw(st.integers(0, max(half - 1, 0)))
        above = total + data.draw(st.integers(0, 10**6))
        for cap in (0, below, half, total, above):
            assert mms._two_parts_meet(row, cap) == _set_of_sums(row, cap)

    def test_thousand_items(self):
        rng = random.Random(1100)
        row = [rng.randint(1, 10**6) for _ in range(1100)]
        share, used = _two_part_route(row)
        assert used == []
        assert share == sum(row) // 2


# Zeros, small values that make equal loads, and wide values that make the
# k >= 3 search raise its incumbent.
_MANY_PART_INTS = st.one_of(st.just(0), st.integers(1, 12), st.integers(1, 10**6))
_MANY_PART_FRACTIONS = st.one_of(
    st.just(0),
    st.integers(1, 12),
    st.fractions(min_value=0, max_value=10**3, max_denominator=12),
)


def _search(weights, k):
    """``_max_min_partition(weights, k)``, its differencing incumbent, the
    nodes its search counted and the bundle count of each search level."""
    incumbent, counters, levels = [], [], []
    real_ldm, real_level = mms._largest_differencing, mms._sequential

    def ldm(*args):
        incumbent.append(real_ldm(*args))
        return incumbent[-1]

    def level(weights, parts, best, cap, nodes):
        counters.append(nodes)
        levels.append(parts)
        return real_level(weights, parts, best, cap, nodes)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mms, "_largest_differencing", ldm)
        mp.setattr(mms, "_sequential", level)
        best = mms._max_min_partition(weights, k)
    return best, incumbent[0], counters[0][0], levels


def _brute(row, k):
    return maximin_share_bruteforce(Instance.from_rows([row]), 0, k)


def _splits(row, k, t):
    """Whether ``row`` splits into ``k`` bundles each worth at least ``t``: a
    state-set DP over the sorted bundle loads, each load cut to ``t``, that
    drops a state once the values left cannot fill its total deficit."""
    left = sum(row)
    states = {(0,) * k}
    for w in sorted(row, reverse=True):
        left -= w
        grown = set()
        for loads in states:
            for b in range(k):
                if b and loads[b] == loads[b - 1]:
                    continue
                new = sorted(loads[:b] + (min(loads[b] + w, t),) + loads[b + 1 :])
                if k * t - sum(new) <= left:
                    grown.add(tuple(new))
        states = grown
    return bool(states)


# A brute force over 4**8 assignments takes up to 0.2 s.
_BRUTE_EXAMPLES = settings(DERANDOMIZED, max_examples=60)


class TestManyPartOracle:
    @_BRUTE_EXAMPLES
    @given(st.integers(3, 4), st.lists(_MANY_PART_INTS, min_size=1, max_size=8))
    def test_matches_bruteforce_ints(self, k, row):
        assert maximin_share(Instance.from_rows([row]), 0, k) == _brute(row, k)

    @_BRUTE_EXAMPLES
    @given(st.integers(3, 4), st.lists(_MANY_PART_FRACTIONS, min_size=1, max_size=8))
    def test_matches_bruteforce_fractions(self, k, row):
        # the brute force runs on the row scaled to integers, as Fraction
        # sums over 4**8 assignments take up to a second an example
        scale = math.lcm(*(Fraction(v).denominator for v in row))
        scaled = [int(v * scale) for v in row]
        share = maximin_share(Instance.from_rows([row]), 0, k)
        assert share * scale == _brute(scaled, k)

    # A share t is the maximin share when the row splits into bundles worth t
    # each but not t + 1.  The DP takes up to 0.6 s at k = 5 and m = 20.
    @settings(DERANDOMIZED, max_examples=50)
    @given(st.integers(3, 5), st.lists(st.integers(0, 40), min_size=1, max_size=20))
    def test_matches_load_dp(self, k, row):
        share = maximin_share(Instance.from_rows([row]), 0, k)
        assert share.denominator == 1
        t = share.numerator
        assert _splits(row, k, t) and not _splits(row, k, t + 1)

    def test_differencing_reaches_the_ceiling(self):
        # 18 // 3 == 6, so no bundle is listed
        assert _search([5, 4, 3, 3, 2, 1], 3) == (6, 6, 0, [3])
        assert _brute([5, 4, 3, 3, 2, 1], 3) == 6

    def test_differencing_optimal_below_the_ceiling(self):
        # the ceiling is 10 // 3 == 3, but a first bundle above 1 holds the 7,
        # which leaves 3 < 2 * 2 to the others: the window is empty
        assert _search([7, 1, 1, 1], 3) == (1, 1, 0, [3])
        assert _brute([7, 1, 1, 1], 3) == 1

    @pytest.mark.parametrize(
        "weights, k, best, incumbent, nodes, levels",
        [
            ([24, 11, 9, 8, 6, 4], 3, 19, 17, 2, [3]),
            # the second first bundle listed reaches the ceiling 121 // 3
            ([20, 20, 15, 15, 15, 14, 12, 10], 3, 40, 35, 3, [3]),
            ([24, 21, 13, 10, 9, 6, 5], 4, 21, 19, 4, [4, 3]),
        ],
    )
    def test_search_raises_the_incumbent(self, weights, k, best, incumbent, nodes, levels):
        assert _search(weights, k) == (best, incumbent, nodes, levels)
        assert _brute(weights, k) == best

    def test_one_item_per_bundle(self):
        assert _search([7, 5, 2], 3) == (2, 2, 2, [3])

    @pytest.mark.parametrize("row", [[0, 0, 0, 0], [0, 5, 0, 9, 0], [1, 1]])
    def test_zero_share_needs_no_search(self, row, monkeypatch):
        # fewer positive values than bundles: the share is 0 before any search
        def search(*args):
            raise AssertionError("a zero share reached the search")

        monkeypatch.setattr(mms, "_max_min_partition", search)
        assert maximin_share(Instance.from_rows([row]), 0, 3) == 0 == _brute(row, 3)

    def test_thousand_items(self):
        rng = random.Random(1100)
        row = [rng.randint(1, 10**6) for _ in range(1100)]
        share = maximin_share(Instance.from_rows([row]), 0, 3)
        assert share == sum(row) // 3

    def test_six_bundles_need_no_call_stack(self):
        # the search opens levels for 6, 5, 4 and 3 bundles; with 50 frames of
        # call stack to spare it must still finish
        weights = [39, 39, 34, 34, 31, 25, 20, 18, 15, 14, 13, 13, 9, 8, 1]
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 50)
        try:
            best, incumbent, nodes, levels = _search(weights, 6)
        finally:
            sys.setrecursionlimit(limit)
        assert (best, incumbent, nodes, len(levels)) == (51, 49, 190, 31)
        assert set(levels) == {3, 4, 5, 6}
        assert _splits(weights, 6, 51) and not _splits(weights, 6, 52)

    def test_node_limit(self, monkeypatch):
        # its search lists 2 first bundles and decides the rest of one
        weights = [20, 20, 15, 15, 15, 14, 12, 10]
        monkeypatch.setattr(mms, "NODE_LIMIT", 3)
        assert mms._max_min_partition(weights, 3) == 40
        monkeypatch.setattr(mms, "NODE_LIMIT", 2)
        with pytest.raises(
            EnumerationLimitError,
            match="^maximin share search needs more than the limit of 2 nodes$",
        ):
            mms._max_min_partition(weights, 3)

    def test_two_part_decisions_are_charged(self, monkeypatch):
        # 3 x 60 values up to 10^9: one exact two-part decision on the rest
        # would cost more than the whole budget, so the share is refused
        # before it runs
        rng = random.Random(7)
        row = [rng.randint(1, 10**9) for _ in range(60)]
        with pytest.raises(EnumerationLimitError):
            maximin_share(Instance.from_rows([row]), 0, 3)

    def test_differencing_incumbent_is_charged(self):
        # the incumbent holds one 4000-tuple per value, which once took 2.8 s
        # and 262 MB before the search counted its first node
        rng = random.Random(3)
        row = [rng.randint(1, 1000) for _ in range(8000)]
        start = time.perf_counter()
        with pytest.raises(EnumerationLimitError):
            maximin_share(Instance.from_rows([row]), 0, 4000)
        assert time.perf_counter() - start < 1.5

    @pytest.mark.parametrize("m, k", [(100, 50), (200, 100)])
    def test_many_parts_refused_promptly(self, m, k):
        # each first bundle scored at four or more parts copies its rest into
        # a child level, so the rest is charged by its length
        rng = random.Random(1)
        row = [rng.randint(1, 1000) for _ in range(m)]
        start = time.perf_counter()
        with pytest.raises(EnumerationLimitError):
            maximin_share(Instance.from_rows([row]), 0, k)
        assert time.perf_counter() - start < 2


class TestInvariants:
    def test_share_decreases_with_parts(self):
        rng = random.Random(31)
        for _ in range(40):
            inst = random_instance(rng, 1, rng.randrange(1, 9))
            prev = None
            for k in range(1, 6):
                cur = maximin_share(inst, 0, k)
                if prev is not None:
                    assert cur <= prev
                prev = cur

    def test_n_shares_bounded_by_total(self):
        rng = random.Random(37)
        for _ in range(40):
            n = rng.choice([2, 3, 4])
            inst = random_instance(rng, n, rng.randrange(1, 9))
            for i in range(n):
                assert n * maximin_share(inst, i, n) <= sum(inst.values[i])

    def test_monotone_under_player_removal(self):
        rng = random.Random(41)
        for _ in range(60):
            n = rng.choice([2, 3, 4])
            m = rng.randrange(2, 8)
            inst = random_instance(rng, n, m)
            for k in range(n):
                base = maximin_share(inst, k, n)
                for j in range(m):
                    items = [x for x in range(m) if x != j]
                    assert maximin_share(inst, k, n - 1, items) >= base

    def test_scaling_row(self):
        rng = random.Random(43)
        from mmsfair import derive_ranking

        for _ in range(25):
            inst = random_instance(rng, 2, rng.randrange(1, 8))
            factor = Fraction(rng.randrange(1, 7), rng.randrange(1, 7))
            scaled = Instance.from_rows(
                [[factor * v for v in inst.values[0]], inst.values[1]]
            )
            assert maximin_share(scaled, 0, 2) == factor * maximin_share(inst, 0, 2)
            assert derive_ranking(scaled, 0) == derive_ranking(inst, 0)

    def test_column_permutation(self):
        rng = random.Random(47)
        for _ in range(25):
            m = rng.randrange(1, 8)
            inst = random_instance(rng, 2, m)
            perm = list(range(m))
            rng.shuffle(perm)
            permuted = Instance.from_rows(
                [[row[perm[j]] for j in range(m)] for row in inst.values]
            )
            for k in (2, 3):
                assert maximin_share(permuted, 0, k) == maximin_share(inst, 0, k)


class TestApproximationRatio:
    def test_exact_allocation(self, ex23):
        alloc = Allocation.from_bundles([[0], [1, 2], [3, 4]])
        assert approximation_ratio(ex23, alloc) == 1

    def test_one_item_vs_rest(self):
        inst = Instance.from_rows([[1] * 6, [1] * 6])
        alloc = Allocation.from_bundles([[0], [1, 2, 3, 4, 5]])
        assert approximation_ratio(inst, alloc) == Fraction(1, 3)

    def test_all_zero_is_unbounded(self):
        inst = Instance.from_rows([[0, 0], [0, 0]])
        alloc = Allocation.from_bundles([[0], [1]])
        assert approximation_ratio(inst, alloc) is UNBOUNDED

    def test_zero_share_players_excluded(self):
        inst = Instance.from_rows([[1, 1], [5, 0]])
        # player 2's share for 2 bundles is 0; only player 1 constrains
        alloc = Allocation.from_bundles([[0], [1]])
        assert approximation_ratio(inst, alloc) == 1

    def test_invalid_allocation_rejected(self, ex23):
        with pytest.raises(ValueError, match="invalid allocation"):
            approximation_ratio(ex23, Allocation.from_bundles([[0], [1], [2]]))


def _direct_ratio(inst, alloc):
    """min(value / share) over players with a positive share, in Fractions."""
    ratios = []
    for i, bundle in enumerate(alloc.bundles):
        share = maximin_share(inst, i, inst.n)
        if share:
            ratios.append(Fraction(inst.value(i, bundle)) / share)
    return min(ratios) if ratios else UNBOUNDED


class TestShareMemo:
    def test_grid_matches_direct_shares(self):
        # every row of {0,1,2}^4 recurs as a permutation of others; Fraction
        # copies equal to the int rows hit their memo keys, halved ones do not
        rows = list(product((0, 1, 2), repeat=4))
        allocs = [
            Allocation.from_bundles([[0], [1, 2, 3]]),
            Allocation.from_bundles([[0, 3], [1, 2]]),
            Allocation.from_bundles([[1, 2, 3], [0]]),
        ]
        for index, (r1, r2) in enumerate(product(rows, repeat=2)):
            profiles = [(r1, r2)]
            if index % 7 == 0:
                profiles.append(([Fraction(v) for v in r1], r2))
                profiles.append(([Fraction(v, 2) for v in r1], [Fraction(v) for v in r2]))
            for profile in profiles:
                inst = Instance.from_rows(profile)
                alloc = allocs[index % len(allocs)]
                got = approximation_ratio(inst, alloc)
                want = _direct_ratio(inst, alloc)
                assert got == want, profile
                assert got is UNBOUNDED or type(got) is Fraction

    def test_oracle_is_not_memoized(self, monkeypatch):
        inst = Instance.from_rows([[3, 2, 2, 1], [1, 2, 2, 3]])
        assert approximation_ratio(inst, Allocation.from_bundles([[0, 3], [1, 2]])) == 1
        calls = []
        real = mms._max_min_two_parts

        def spy(weights, nodes):
            calls.append(weights)
            return real(weights, nodes)

        monkeypatch.setattr(mms, "_max_min_two_parts", spy)
        assert maximin_share(inst, 0, 2) == 4
        assert maximin_share(inst, 0, 2) == 4
        assert len(calls) == 2

    def test_one_oracle_call_per_distinct_row(self, monkeypatch):
        # the share memo is keyed by the row sorted in descending order: the
        # distinct rows that are permutations of one another, tuple rows,
        # list rows built by Instance(...) and Fraction twins are one oracle
        # call per bundle count, asked for the sorted row
        calls = []
        real = mms.maximin_share

        def spy(inst, player, parts):
            calls.append((inst.values[player], parts))
            return real(inst, player, parts)

        monkeypatch.setattr(mms, "maximin_share", spy)
        mms._rated_term.cache_clear()
        mms._rated_share.cache_clear()
        bases = [(3, 1, 2, 0), (2, 2, 1, 1), (0, 0, 5, 0)]
        rows = sorted(
            p
            for p in {p for base in bases for p in permutations(base)}
            if sorted(p) != list(p) != sorted(p, reverse=True)
        )
        halves = Allocation.from_bundles([[0], [1, 2, 3]]), Allocation.from_bundles([[1, 2], [0, 3]])
        thirds = Allocation.from_bundles([[0, 1], [2], [3]])
        wanted = set()
        for index, (r1, r2) in enumerate(product(rows, repeat=2)):
            rated = [
                (Instance.from_rows([r1, r2]), halves[index % 2]),
                (Instance((list(r2), list(r1))), halves[index % 2]),
                (Instance((list(r1), [Fraction(v) for v in r2])), halves[0]),
            ]
            if index % 5 == 0:
                rated.append((Instance((r1, list(r2), r1)), thirds))
            for inst, alloc in rated:
                assert approximation_ratio(inst, alloc) == _direct_ratio(inst, alloc)
                shares = mms._player_ratios(inst, alloc)[1]
                assert shares == tuple(maximin_share(inst, i, inst.n) for i in range(inst.n))
                wanted.update((tuple(sorted(row, reverse=True)), inst.n) for row in inst.values)
        assert all(list(row) == sorted(row, reverse=True) for row, _ in calls)
        assert len(set(calls)) == len(calls)
        assert sorted(calls) == sorted(wanted)

    def test_one_oracle_call_per_multiset_past_the_row_memo(self, monkeypatch):
        # 3 x 15,625 instances of 2x6 over {0..4}, the inner row cycling
        # through every row: more (row, bundle) terms than the term memo
        # holds, yet the oracle is asked once per multiset of the row, and
        # six values over {0..4} make 210 multisets
        calls = []
        real = mms.maximin_share

        def spy(inst, player, parts):
            calls.append((inst.values[player], parts))
            return real(inst, player, parts)

        monkeypatch.setattr(mms, "maximin_share", spy)
        mms._rated_term.cache_clear()
        mms._rated_share.cache_clear()
        wanted = set()
        grid = list(product(range(5), repeat=6))
        alloc = Allocation.from_bundles([[0, 2, 4], [1, 3, 5]])
        for outer in grid[::5_209]:
            for index, inner in enumerate(grid):
                inst = Instance.from_rows([outer, inner])
                got = approximation_ratio(inst, alloc)
                if index % 1_009 == 0:
                    assert got == _direct_ratio(inst, alloc)
                wanted.update((tuple(sorted(row, reverse=True)), 2) for row in inst.values)
        assert mms._rated_term.cache_info().currsize == mms._rated_term.cache_info().maxsize
        assert all(list(row) == sorted(row, reverse=True) for row, _ in calls)
        assert len(set(calls)) == len(calls)
        assert sorted(calls) == sorted(wanted)
        assert sum(parts == 2 and len(row) == 6 for row, parts in calls) == 210
        # a second pass finds every multiset rated
        calls.clear()
        for inner in grid:
            approximation_ratio(Instance.from_rows([grid[0], inner]), alloc)
        assert calls == []


# Values are often 0 so that some shares, or all of them, are 0.
_INT_VALUES = st.one_of(st.just(0), st.integers(0, 10**6))
_FRACTION_VALUES = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=0, max_value=10**3, max_denominator=12),
)


@st.composite
def _rated_instances(draw, values):
    """An n x m instance (n = 2 or 3) with entries from ``values`` and an
    allocation of its items, as (rows, item -> owner)."""
    n = draw(st.integers(2, 3))
    m = draw(st.integers(1, 6))
    rows = [draw(st.lists(values, min_size=m, max_size=m)) for _ in range(n)]
    owners = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    return rows, owners


def _rate(rows, owners):
    inst = Instance.from_rows(rows)
    alloc = Allocation.from_bundles(
        [[j for j, o in enumerate(owners) if o == i] for i in range(len(rows))]
    )
    return approximation_ratio(inst, alloc), _direct_ratio(inst, alloc)


class TestIntegerRating:
    """approximation_ratio compares integer pairs; it must agree with the
    plain Fraction minimum in value and type."""

    @DERANDOMIZED
    @given(_rated_instances(_INT_VALUES))
    @example(([[0, 0, 0], [0, 0, 0]], [0, 1, 1]))  # every share 0
    @example(([[5, 0, 0], [1, 1, 1], [0, 0, 0]], [1, 0, 2]))  # some shares 0
    @example(([[1, 1], [1, 1]], [0, 0]))  # a positive share, value 0
    def test_int_rows(self, case):
        got, want = _rate(*case)
        assert got == want
        assert type(got) is Fraction or got is UNBOUNDED
        assert (got is UNBOUNDED) == (want is UNBOUNDED)

    @DERANDOMIZED
    @given(_rated_instances(_FRACTION_VALUES))
    @example(([[Fraction(1, 3), Fraction(1, 6)], [Fraction(2, 5), Fraction(1, 7)]], [1, 0]))
    @example(([[Fraction(0), Fraction(0)], [Fraction(1, 2), 0]], [0, 1]))
    def test_fraction_rows(self, case):
        got, want = _rate(*case)
        assert got == want
        assert type(got) is Fraction or got is UNBOUNDED
        assert (got is UNBOUNDED) == (want is UNBOUNDED)

    @DERANDOMIZED
    @given(
        st.lists(st.integers(0, 20), min_size=4, max_size=4),
        st.lists(
            st.fractions(min_value=0, max_value=20, max_denominator=9),
            min_size=4,
            max_size=4,
        ),
        st.lists(st.integers(0, 1), min_size=4, max_size=4),
    )
    def test_mixed_int_and_fraction_rows(self, ints, fractions, owners):
        got, want = _rate([ints, fractions], owners)
        assert got == want
        assert type(got) is Fraction or got is UNBOUNDED


def _plain_ratio(inst, alloc):
    """min(value / share) over players with a positive share, the shares
    from the oracle and every quotient a new Fraction."""
    ratios = [
        Fraction(sum(row[j] for j in bundle)) / share
        for i, (row, bundle) in enumerate(zip(inst.values, alloc.bundles))
        if (share := maximin_share(inst, i, inst.n))
    ]
    return min(ratios, default=UNBOUNDED)


def _in_lowest_terms(ratio):
    return (
        type(ratio) is Fraction
        and ratio.denominator > 0
        and math.gcd(ratio.numerator, ratio.denominator) == 1
    )


class TestRatioMemo:
    """approximation_ratio returns the worst player's Fraction from the
    ``_rated_term`` memo, shared by every rating that reaches that term."""

    def test_fraction_and_list_rows_match_plain_ratio(self):
        rng = random.Random(17)
        values = [0, 1, 3, Fraction(1, 2), Fraction(2, 3), Fraction(5, 4)]
        for _ in range(300):
            n, m = rng.choice([(2, 4), (3, 5), (2, 6)])
            rows = [[rng.choice(values) for _ in range(m)] for _ in range(n)]
            owners = [rng.randrange(n) for _ in range(m)]
            alloc = Allocation.from_bundles(
                [[j for j, o in enumerate(owners) if o == i] for i in range(n)]
            )
            as_fractions = [[Fraction(v) for v in row] for row in rows]
            for inst in (Instance(tuple(rows)), Instance.from_rows(as_fractions)):
                got = approximation_ratio(inst, alloc)
                assert got == _plain_ratio(inst, alloc), rows
                assert got is UNBOUNDED or _in_lowest_terms(got)

    def test_ratio_is_in_lowest_terms_and_shared(self):
        # value 2 against share 4 is the pair (2, 4), rated 1/2; a second
        # instance reaching that pair gets the same Fraction
        inst = Instance.from_rows([[2, 2, 2, 2], [2, 2, 2, 2]])
        first = approximation_ratio(inst, Allocation.from_bundles([[0, 1, 2], [3]]))
        assert first == Fraction(1, 2) and _in_lowest_terms(first)
        assert approximation_ratio(inst, Allocation.from_bundles([[3], [0, 1, 2]])) is first
        wide = Instance.from_rows([[6, 6, 6, 6, 6, 6], [3, 3, 3, 3, 3, 3]])
        half = Allocation.from_bundles([[0, 1, 2, 3, 4], [5]])
        assert approximation_ratio(wide, half) == Fraction(1, 3)
        assert _in_lowest_terms(approximation_ratio(wide, half))

    def test_second_pass_over_a_grid_misses_nothing(self):
        # rating the 2x4 grid over {0..3} twice: the second pass finds every
        # term in the memo, so it builds no Fraction
        best_item = Mechanism("best-item")
        rows = list(product(range(4), repeat=4))
        rated = [Instance.from_rows(profile) for profile in product(rows, repeat=2)]
        allocs = [run_mechanism(best_item, "cardinal", inst) for inst in rated]
        first = [approximation_ratio(inst, a) for inst, a in zip(rated, allocs)]
        misses = mms._rated_term.cache_info().misses
        second = [approximation_ratio(inst, a) for inst, a in zip(rated, allocs)]
        assert mms._rated_term.cache_info().misses == misses
        assert all(a is b for a, b in zip(first, second))
        assert min(r for r in first if r is not UNBOUNDED) == Fraction(1, 2)


def _validate_reference(inst, alloc):
    """The full violation scan, run on every input: an item index that is not
    an integer is a violation, as is one out of range."""
    violations = []
    n, m = inst.n, inst.m
    if alloc.n != n:
        violations.append(f"expected {n} bundles, found {alloc.n}")
    seen = {}
    for b, bundle in enumerate(alloc.bundles):
        for j in bundle:
            if not isinstance(j, int):
                violations.append(f"item index {j!r} in bundle {b + 1} is not an integer")
            elif not 0 <= j < m:
                violations.append(f"item index {j} out of range in bundle {b + 1}")
            elif j in seen:
                violations.append(
                    f"item {j + 1} assigned to both bundle {seen[j] + 1} and bundle {b + 1}"
                )
            else:
                seen[j] = b
    for j in range(m):
        if j not in seen:
            violations.append(f"item {j + 1} unassigned")
    return violations


class TestValidateAllocation:
    INST = Instance.from_rows([[1, 2, 3, 4], [4, 3, 2, 1]])

    @pytest.mark.parametrize(
        "bundles",
        [
            [[0, 3], [1, 2]],  # valid
            [[], [0, 1, 2, 3]],  # valid, one bundle empty
            [[0, 1], [1, 2, 3]],  # duplicate
            [[0, 1, 4], [2, 3]],  # out of range, high
            [[-1, 0, 1], [2, 3]],  # out of range, negative
            [[0, 1], [2]],  # missing item
            [[0, 1, 2, 3]],  # too few bundles
            [[0], [1, 2], [3]],  # too many bundles
            [[0], [1], []],  # too many bundles, items missing
            [[0, 0.5], [1, 2, 3]],  # a non-index item
            [[0, 1.0], [2, 3]],  # a float equal to an index
            [["a", 0, 1], [2, 3]],  # an index that does not compare with ints
            [[None, 0, 1], [2, 3], [5]],  # and other faults beside it
            [[0, 4], [0, 1, 2]],  # several faults at once
        ],
    )
    def test_matches_full_scan(self, bundles):
        alloc = Allocation.from_bundles(bundles)
        assert validate_allocation(self.INST, alloc) == _validate_reference(self.INST, alloc)

    @pytest.mark.parametrize("item", [1.0, 0.5, "a", None, Fraction(1)])
    def test_rating_refuses_a_non_integer_index(self, item):
        # a float index once passed and then failed on row[1.0]; "a" and None
        # raised TypeError from the comparison with ints
        alloc = Allocation.from_bundles([[0, item], [1, 2, 3]])
        assert validate_allocation(self.INST, alloc) == [
            f"item index {item!r} in bundle 1 is not an integer"
        ]
        with pytest.raises(ValueError, match="is not an integer"):
            approximation_ratio(self.INST, alloc)

    @DERANDOMIZED
    @given(
        st.integers(0, 5),
        st.lists(st.lists(st.integers(-1, 6), max_size=6), min_size=1, max_size=4),
    )
    def test_matches_full_scan_random(self, m, bundles):
        inst = Instance.from_rows([[1] * m, [2] * m, [3] * m])
        alloc = Allocation.from_bundles(bundles)
        assert validate_allocation(inst, alloc) == _validate_reference(inst, alloc)


class TestCheckedOnce:
    """run_mechanism shares one Allocation per distinct outcome;
    approximation_ratio checks each such object once per instance shape and
    works each player's term out once per (row, bundle)."""

    INST = Instance.from_rows([[1, 2, 3, 4], [4, 3, 2, 1]])

    @staticmethod
    def _refusal(inst, alloc):
        with pytest.raises(ValueError) as refused:
            approximation_ratio(inst, alloc)
        return str(refused.value)

    @pytest.mark.parametrize("twin", [0.0, Fraction(0)])
    def test_an_int_twin_is_refused_after_the_int_was_rated(self, twin):
        # equal bundles, equal hashes: a verdict keyed by equality would pass it
        ints = Allocation((frozenset({0, 3}), frozenset({1, 2})))
        twins = Allocation((frozenset({twin, 3}), frozenset({1, 2})))
        assert twins == ints and hash(twins) == hash(ints)
        assert approximation_ratio(self.INST, ints) == 1
        assert approximation_ratio(self.INST, ints) == 1
        for _ in range(2):
            assert self._refusal(self.INST, twins) == (
                f"invalid allocation: item index {twin!r} in bundle 1 is not an integer;"
                " item 1 unassigned"
            )

    def test_mutable_bundles_are_checked_on_every_rating(self):
        lists = Allocation(([0, 3], [1, 2]))
        assert approximation_ratio(self.INST, lists) == 1
        assert approximation_ratio(self.INST, lists) == 1
        lists.bundles[0].append(1)
        assert self._refusal(self.INST, lists) == (
            "invalid allocation: item 2 assigned to both bundle 1 and bundle 2"
        )
        listed = Allocation([frozenset({0, 3}), frozenset({1, 2})])
        assert approximation_ratio(self.INST, listed) == 1
        listed.bundles[1] = frozenset({1})
        assert self._refusal(self.INST, listed) == "invalid allocation: item 3 unassigned"

    def test_a_checked_allocation_is_refused_at_another_shape(self):
        alloc = run_mechanism(Mechanism("best-item"), "cardinal", self.INST)
        assert alloc.bundles == (frozenset({3}), frozenset({0, 1, 2}))
        assert approximation_ratio(self.INST, alloc) == Fraction(4, 5)
        wider = Instance.from_rows([[1, 2, 3, 4, 5], [5, 4, 3, 2, 1]])
        taller = Instance.from_rows([[1, 2, 3, 4]] * 3)
        for _ in range(2):
            assert self._refusal(wider, alloc) == "invalid allocation: item 5 unassigned"
            assert self._refusal(taller, alloc) == (
                "invalid allocation: expected 3 bundles, found 2"
            )
        assert approximation_ratio(self.INST, alloc) == Fraction(4, 5)
        # the shape it keeps is no field
        plain = Allocation(alloc.bundles)
        assert alloc == plain and hash(alloc) == hash(plain) and repr(alloc) == repr(plain)

    @staticmethod
    def _spy_checks(monkeypatch):
        checks = []
        real = mms.validate_allocation

        def spy(inst, alloc):
            checks.append(alloc)
            return real(inst, alloc)

        monkeypatch.setattr(mms, "validate_allocation", spy)
        return checks

    def test_rating_writes_nothing_onto_a_user_allocation(self, monkeypatch):
        checks = self._spy_checks(monkeypatch)
        alloc = Allocation((frozenset({0, 3}), frozenset({1, 2})))
        state, pickled = dict(vars(alloc)), pickle.dumps(alloc)
        assert approximation_ratio(self.INST, alloc) == 1
        assert approximation_ratio(self.INST, alloc) == 1
        assert vars(alloc) == state and pickle.dumps(alloc) == pickled
        assert checks == [alloc, alloc]  # checked on every rating
        wider = Instance.from_rows([[1, 2, 3, 4, 5], [5, 4, 3, 2, 1]])
        assert self._refusal(wider, alloc) == "invalid allocation: item 5 unassigned"

    def test_a_fresh_outcome_is_rated_with_no_check(self, monkeypatch):
        mechanisms._outcome.cache_clear()
        mechanisms._shared_allocation.cache_clear()
        checks = self._spy_checks(monkeypatch)
        alloc = run_mechanism(Mechanism("pick-seq"), "ordinal", self.INST)
        assert approximation_ratio(self.INST, alloc) == Fraction(4, 5)
        assert checks == []

    @pytest.mark.parametrize(
        "name, model", [("best-item", "cardinal"), ("pr-exact-2-4", "public-rankings")]
    )
    def test_second_pass_over_a_grid_checks_and_looks_up_nothing(self, monkeypatch, name, model):
        # the 2x4 grid over {0..3}: the first pass checks each outcome once
        # and works each (row, bundle) term out once; the second reads them
        mech = Mechanism(name)
        rows = list(product(range(4), repeat=4))
        rated = [Instance.from_rows(profile) for profile in product(rows, repeat=2)]
        allocs = [run_mechanism(mech, model, inst) for inst in rated]
        for inst, alloc in zip(rated, allocs):
            approximation_ratio(inst, alloc)
        assert len(set(map(id, allocs))) == len({alloc.bundles for alloc in allocs})

        checks = []
        real = mms.validate_allocation

        def spy(inst, alloc):
            checks.append(alloc)
            return real(inst, alloc)

        monkeypatch.setattr(mms, "validate_allocation", spy)
        before = mms._rated_share.cache_info()
        shares = {row: maximin_share(Instance((row,)), 0, 2) for row in rows}
        for inst, alloc in zip(rated, allocs):
            again = run_mechanism(mech, model, inst)
            assert again is alloc
            plain = min(
                (
                    Fraction(sum(row[j] for j in bundle)) / shares[row]
                    for row, bundle in zip(inst.values, again.bundles)
                    if shares[row]
                ),
                default=UNBOUNDED,
            )
            assert approximation_ratio(inst, again) == plain
        after = mms._rated_share.cache_info()
        assert checks == []
        assert after.hits + after.misses == before.hits + before.misses
