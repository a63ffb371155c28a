import random
from fractions import Fraction
from typing import Iterable

import pytest

from mmsfair import Instance
from mmsfair.instance import Value

EX23_TEXT = """\
# three players, five items
3 5
1/2 1/2 1/3 1/3 1/3
1/2 1/4 1/4 1/4 0
1/2 1/2 1 1/2 1/2
"""


@pytest.fixture
def ex23() -> Instance:
    """The 3x5 instance used throughout: shares 1/2, 1/4, 1 for 3 bundles."""
    return Instance.from_rows(
        [
            [Fraction(1, 2), Fraction(1, 2), Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)],
            [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), 0],
            [Fraction(1, 2), Fraction(1, 2), 1, Fraction(1, 2), Fraction(1, 2)],
        ]
    )


def random_instance(rng: random.Random, n: int, m: int, top: int = 9) -> Instance:
    return Instance.from_rows(
        [[rng.randrange(top + 1) for _ in range(m)] for _ in range(n)]
    )


def maximin_share_bruteforce(
    inst: Instance,
    player: int,
    parts: int,
    items: Iterable[int] | None = None,
) -> Fraction:
    """Independent oracle: full enumeration of all ``parts**|S|`` assignments.

    Only for small inputs; used to cross-check the optimized oracle.
    """
    inst._check_player(player)
    if parts < 1:
        raise ValueError("parts must be at least 1")
    subset = list(range(inst.m)) if items is None else sorted(set(items))
    row = inst.values[player]
    best = Fraction(-1)
    sums: list[Value] = [0] * parts

    def assign(idx: int):
        nonlocal best
        if idx == len(subset):
            low = Fraction(min(sums))
            if low > best:
                best = low
            return
        v = row[subset[idx]]
        for b in range(parts):
            sums[b] += v
            assign(idx + 1)
            sums[b] -= v

    assign(0)
    return best if best >= 0 else Fraction(0)
