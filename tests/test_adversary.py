import math
import random
from fractions import Fraction
from itertools import product

import pytest

from mmsfair import (
    FEASIBLE_UNKNOWN,
    INFEASIBLE,
    Instance,
    exhaustive_common_ranking_ratio,
    harmonic_number,
    maximin_share,
    ordinal_adversary_share,
    ordinal_adversary_valuation,
    ordinal_lower_bound_check,
)
from mmsfair.strategy import BUDGET, EnumerationLimitError


class TestHarmonic:
    def test_known_values(self):
        assert harmonic_number(1) == 1
        assert harmonic_number(3) == Fraction(11, 6)
        assert harmonic_number(5) == Fraction(137, 60)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            harmonic_number(0)


class TestAdversaryValuations:
    def test_first_slot_is_flat(self):
        row = ordinal_adversary_valuation(1, 3, 6)
        assert row == (Fraction(1, 6),) * 6
        assert ordinal_adversary_share(1, 3, 6) == Fraction(1, 3)

    def test_last_slot(self):
        row = ordinal_adversary_valuation(3, 3, 6)
        assert row == (1, 1, Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), Fraction(1, 4))
        assert ordinal_adversary_share(3, 3, 6) == 1

    def test_degenerate_slot(self):
        assert ordinal_adversary_valuation(3, 3, 3) == (1, 1, 1)
        assert ordinal_adversary_share(3, 3, 3) == 1

    def test_rows_follow_common_ranking(self):
        for n in (2, 3, 4):
            for m in range(n, 7):
                for i in range(1, n + 1):
                    row = ordinal_adversary_valuation(i, n, m)
                    assert all(row[j] >= row[j + 1] for j in range(m - 1))

    def test_share_formula_matches_oracle(self):
        for n in (2, 3, 4):
            for m in range(n, 7):
                for i in range(1, n + 1):
                    inst = Instance.from_rows([ordinal_adversary_valuation(i, n, m)])
                    assert maximin_share(inst, 0, n) == ordinal_adversary_share(i, n, m)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            ordinal_adversary_valuation(0, 3, 6)
        with pytest.raises(IndexError):
            ordinal_adversary_valuation(4, 3, 6)
        with pytest.raises(IndexError):
            ordinal_adversary_valuation(2, 4, 3)


class TestCountingBound:
    def test_three_players_six_items(self):
        report = ordinal_lower_bound_check(3, 6, Fraction(1, 2) + Fraction(1, 100))
        assert report.terms == (2, 2, 3)
        assert report.total == 7
        assert report.verdict == INFEASIBLE

    def test_alpha_zero(self):
        report = ordinal_lower_bound_check(3, 6, Fraction(0))
        assert report.total == 0
        assert report.verdict == FEASIBLE_UNKNOWN

    def test_half_is_not_ruled_out(self):
        report = ordinal_lower_bound_check(3, 6, Fraction(1, 2))
        assert report.terms == (1, 1, 2)
        assert report.verdict == FEASIBLE_UNKNOWN

    def test_terms_match_fraction_ceilings(self):
        rng = random.Random(4)
        for _ in range(200):
            n = rng.randint(1, 40)
            m = rng.randint(n, 400)
            alpha = Fraction(rng.randint(0, 300), rng.randint(1, 100))
            terms = tuple(
                math.ceil(alpha * ((m - i + 1) // (n - i + 1))) for i in range(1, n + 1)
            )
            assert ordinal_lower_bound_check(n, m, alpha).terms == terms

    def test_refuses_slots_above_the_limit(self):
        assert len(ordinal_lower_bound_check(BUDGET, BUDGET, Fraction(1, 2)).terms) == BUDGET
        with pytest.raises(ValueError, match="^n = 1000001 is over the limit of 1000000 slots$"):
            ordinal_lower_bound_check(BUDGET + 1, BUDGET + 1, Fraction(1, 2))

    def test_refuses_terms_over_the_digit_limit(self):
        # one digit a term is the most BUDGET slots may hold
        assert ordinal_lower_bound_check(BUDGET, BUDGET, Fraction(3)).terms[-1] == 3
        with pytest.raises(ValueError, match="^1000000 terms of up to 2 digits"):
            ordinal_lower_bound_check(BUDGET, BUDGET, Fraction(10))
        with pytest.raises(ValueError, match="^1000 terms of up to 1001 digits"):
            ordinal_lower_bound_check(1000, 1000, Fraction(int("7" * 1000), 3))

    def test_digit_count_is_never_too_few(self):
        # The refusal counts the largest term's digits from bit lengths.  More
        # slots with the same m - n + 1 keep that term, so enough of them must
        # be refused, counting at most one digit too many.
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randint(1, 50)
            extra = rng.randint(0, 10 ** rng.randint(1, 30))
            alpha = Fraction(
                rng.randint(1, 10 ** rng.randint(0, 40)),
                rng.randint(1, 10 ** rng.randint(0, 40)),
            )
            longest = len(str(ordinal_lower_bound_check(n, n + extra, alpha).terms[-1]))
            slots = BUDGET // longest + 1
            if slots <= BUDGET:
                with pytest.raises(ValueError, match=f"up to ({longest}|{longest + 1}) digits"):
                    ordinal_lower_bound_check(slots, slots + extra, alpha)


class TestExhaustiveCheck:
    def test_three_six_is_exactly_half(self):
        assert exhaustive_common_ranking_ratio(3, 6) == Fraction(1, 2)

    def test_trivial_two_two(self):
        assert exhaustive_common_ranking_ratio(2, 2) == 1

    @pytest.mark.parametrize("n, m", [(2, 4), (3, 6), (3, 7)])
    def test_matches_plain_fraction_reference(self, n, m):
        got = exhaustive_common_ranking_ratio(n, m)
        assert got == _exhaustive_reference(n, m)
        assert type(got) is Fraction

    @pytest.mark.parametrize("n, m", [(2, 20), (4, 16), (7, 8)])
    def test_refuses_above_the_limit(self, n, m):
        assert BUDGET == 1_000_000
        with pytest.raises(EnumerationLimitError) as err:
            exhaustive_common_ranking_ratio(n, m)
        assert str(err.value) == (
            f"exhaustive search needs {n**m} allocations, over the limit of 1000000"
        )


def _exhaustive_reference(n, m):
    """Every allocation, every bundle, every slot: value / share in Fractions."""
    rows = [ordinal_adversary_valuation(i, n, m) for i in range(1, n + 1)]
    shares = [ordinal_adversary_share(i, n, m) for i in range(1, n + 1)]
    best = Fraction(0)
    for assignment in product(range(n), repeat=m):
        worst = min(
            sum(rows[slot][j] for j in range(m) if assignment[j] == owner) / shares[slot]
            for owner in range(n)
            for slot in range(n)
        )
        best = max(best, worst)
    return best
