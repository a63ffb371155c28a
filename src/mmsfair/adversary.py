"""Adversarial valuations for the ordinal model.

When every player submits the same ranking, an algorithm that sees only
rankings cannot tell the players apart, and the values behind that ranking
can be chosen after the allocation is fixed.  This module builds those
worst-case valuations, evaluates the counting bound they impose, and offers
a small exhaustive check over all allocations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .instance import BUDGET, _check_rational, _enumeration_size

INFEASIBLE = "infeasible"
FEASIBLE_UNKNOWN = "feasible-unknown"


def harmonic_number(n: int) -> Fraction:
    """Exact n-th harmonic number, sum of 1/k for k = 1..n.

    >>> harmonic_number(3)
    Fraction(11, 6)
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    total = Fraction(0)
    for k in range(1, n + 1):
        total += Fraction(1, k)
    return total


def ordinal_adversary_valuation(i: int, n: int, m: int) -> tuple[Fraction, ...]:
    """Worst-case value row for the player in slot ``i`` (1-based) of the
    common ranking 1 >= 2 >= ... >= m: ones on her ``i - 1`` best items, then
    ``1/(m - i + 1)`` on the rest.

    Her maximin share under ``n`` players is
    ``floor((m - i + 1)/(n - i + 1)) / (m - i + 1)``.
    """
    if not 1 <= i <= n <= m:
        raise IndexError("need 1 <= i <= n <= m")
    tail = m - i + 1
    return (Fraction(1),) * (i - 1) + (Fraction(1, tail),) * tail


def ordinal_adversary_share(i: int, n: int, m: int) -> Fraction:
    """Closed form for the slot-``i`` adversarial maximin share."""
    if not 1 <= i <= n <= m:
        raise IndexError("need 1 <= i <= n <= m")
    tail = m - i + 1
    return Fraction(tail // (n - i + 1), tail)


@dataclass(frozen=True)
class CountingReport:
    n: int
    m: int
    alpha: Fraction
    terms: tuple[int, ...]  # ceil(alpha * floor((m-i+1)/(n-i+1))) per slot
    total: int
    verdict: str  # INFEASIBLE or FEASIBLE_UNKNOWN


def ordinal_lower_bound_check(n: int, m: int, alpha: Fraction) -> CountingReport:
    """Counting bound for ratio ``alpha`` in the ordinal model: each slot-``i``
    player must receive at least ``ceil(alpha * floor((m-i+1)/(n-i+1)))``
    items, and only ``m`` items exist.  A sum above ``m`` certifies that no
    common-ranking algorithm reaches ``alpha``; otherwise nothing is decided.
    One term is built per slot, so ``n`` over
    :data:`~mmsfair.instance.BUDGET` is refused with ``ValueError``, and so
    is a report whose ``n`` terms could hold more than ``BUDGET`` digits.
    """
    if not 1 <= n <= m:
        raise ValueError("need 1 <= n <= m")
    if n > BUDGET:
        raise ValueError(f"n = {n} is over the limit of {BUDGET} slots")
    alpha = Fraction(_check_rational(alpha, "alpha", "alpha must be nonnegative"))
    p, q = alpha.numerator, alpha.denominator
    # The largest term, the last, is ceil(p * (m - n + 1) / q) < 2**bits;
    # 0.30103 is just above log10(2), so ``digits`` is never too few.
    bits = p.bit_length() + (m - n + 1).bit_length() - q.bit_length() + 1
    digits = max(bits, 0) * 30103 // 100000 + 1 if p else 1
    if n * digits > BUDGET:
        raise ValueError(
            f"{n} terms of up to {digits} digits are over the limit of "
            f"{BUDGET} digits"
        )
    # exact ceil of alpha * floor((m-i+1)/(n-i+1)), in integers
    terms = [-(-p * ((m - i + 1) // (n - i + 1)) // q) for i in range(1, n + 1)]
    total = sum(terms)
    verdict = INFEASIBLE if total > m else FEASIBLE_UNKNOWN
    return CountingReport(
        n=n, m=m, alpha=alpha, terms=tuple(terms), total=total, verdict=verdict
    )


def exhaustive_common_ranking_ratio(n: int, m: int) -> Fraction:
    """Best worst-case ratio any allocation can secure when all players share
    the common ranking and the adversary then picks each player's valuation
    from the slot family above.

    Enumerates all ``n**m`` allocations, for desk sizes such as ``n=3, m=6``
    (729 allocations); above :data:`~mmsfair.instance.BUDGET` it raises
    :class:`~mmsfair.instance.EnumerationLimitError`.  One player receives
    every item, worth her whole share, so ``n = 1`` answers 1 at any ``m``.
    """
    if not 1 <= n <= m:
        raise ValueError("need 1 <= n <= m")
    if n == 1:
        return Fraction(1)
    _enumeration_size(
        n, m, BUDGET, "exhaustive search needs {} allocations, over the limit of {}"
    )
    # Scaled by the lcm of its denominators, a slot's row is integral, and so
    # is its share (a bundle sum); a bundle's ratio is the pair of the two.
    slots = []
    for i in range(1, n + 1):
        row = ordinal_adversary_valuation(i, n, m)
        scale = math.lcm(*(v.denominator for v in row))
        share = ordinal_adversary_share(i, n, m) * scale
        slots.append(([int(v * scale) for v in row], int(share)))
    best = (0, 1)
    for assignment in product(range(n), repeat=m):
        bundles: list[list[int]] = [[] for _ in range(n)]
        for item, player in enumerate(assignment):
            bundles[player].append(item)
        worst = None
        for bundle in bundles:
            for weights, share in slots:
                value = sum(weights[j] for j in bundle)
                if worst is None or value * worst[1] < worst[0] * share:
                    worst = value, share
            if worst[0] == 0:
                break
        if worst[0] * best[1] > best[0] * worst[1]:
            best = worst
    return Fraction(*best)

