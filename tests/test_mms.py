import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_instance
from mmsfair import (
    UNBOUNDED,
    Allocation,
    Instance,
    approximation_ratio,
    maximin_share,
    maximin_share_bruteforce,
    mms,
)


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
        for name in ("_two_parts_bitset", "_two_parts_meet"):
            mp.setattr(mms, name, spy(name))
        mp.setattr(mms, "_max_min_partition", branch_and_bound)
        share = maximin_share(Instance.from_rows([row]), 0, 2)
    return share, used


def _set_of_sums_half(row):
    """Largest subset sum up to half the total, from a plain set of sums."""
    half = sum(row) // 2
    sums = {0}
    for w in row:
        sums |= {s + w for s in sums if s + w <= half}
    return max(sums)


def _kk_exits(row):
    weights = sorted(row, reverse=True)
    return mms._karmarkar_karp(weights) == sum(weights) % 2


def _draw(rng, m, top, accept):
    """A random row of ``m`` values in [1, top], drawn again until accepted."""
    while True:
        row = [rng.randint(1, top) for _ in range(m)]
        if accept(row):
            return row


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
            assert used == ["_two_parts_bitset"]
            assert sum(row) // 2 >= mms._NARROW_HALF
            assert share == _set_of_sums_half(row)

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

    def test_thousand_items(self):
        rng = random.Random(1100)
        row = [rng.randint(1, 10**6) for _ in range(1100)]
        share, used = _two_part_route(row)
        assert used == []
        assert share == sum(row) // 2


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
