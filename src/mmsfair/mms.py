"""Exact maximin-share oracle and approximation ratios.

The maximin share of a player for ``k`` bundles over an item set ``S`` is the
largest value she can guarantee by partitioning ``S`` into ``k`` bundles and
keeping the worst one.  Empty bundles are legal (they are forced whenever
``|S| < k``, in which case the share is 0).

The oracle is exact.  Internally the player's values are scaled to integers.
Two bundles are a number-partitioning problem: the share is the largest
subset sum not above half the total.  A narrow row is swept with a shift-or
bitset of achievable sums.  A wider row first tries Karmarkar-Karp
differencing (Korf, AIJ 1998), whose partition is provably optimal when its
difference is ``total % 2``; otherwise the cheaper of two exact methods, by
a cost estimate from the item count and the total, answers: the bitset,
masked to half the total, or meet-in-the-middle over the subset sums of two
halves of the items (Horowitz & Sahni, JACM 1974).  None of this recurses.
Three or more bundles go to a branch-and-bound search with symmetry breaking.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from fractions import Fraction
from typing import Iterable, Sequence

from .instance import Allocation, Instance, Value, validate_allocation


class _Unbounded:
    """Marker for approximation ratios on instances where every share is 0."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "UNBOUNDED"


UNBOUNDED = _Unbounded()

# While ``total // 2`` is below this, the two-part bitset spans at most four
# 64-bit words: each shift-or costs about one interpreted step, and the whole
# sweep less than differencing would.
_NARROW_HALF = 256

# Relative price of one interpreted meet-in-the-middle step (a sum in a list
# comprehension, its share of the sort, one bisect) in 64-bit words of bitset
# shift-or.  Both methods took equal time at 150 to 250 words per step for
# 8 <= m <= 28 and values up to 10^7 (CPython 3.11, x86-64 Xeon).
_STEP_WORDS = 200


def maximin_share(
    inst: Instance,
    player: int,
    parts: int,
    items: Iterable[int] | None = None,
) -> Fraction:
    """Exact maximin share of ``player`` for ``parts`` bundles over ``items``.

    ``items`` defaults to the full item set.

    >>> inst = Instance.from_rows([[1, 1, 1, 1, 1, 1]] * 2)
    >>> maximin_share(inst, 0, 2)
    Fraction(3, 1)
    """
    inst._check_player(player)
    if parts < 1:
        raise ValueError("parts must be at least 1")
    if items is None:
        subset = list(range(inst.m))
    else:
        subset = sorted(set(items))
        for j in subset:
            if not 0 <= j < inst.m:
                raise IndexError(f"item index {j} out of range [0, {inst.m})")

    row = inst.values[player]
    values = [row[j] for j in subset]
    if parts == 1:
        return Fraction(sum(values))
    if len(subset) < parts:
        return Fraction(0)

    scale = math.lcm(*(v.denominator for v in values))
    weights = sorted((int(v * scale) for v in values), reverse=True)
    while weights and weights[-1] == 0:
        weights.pop()
    if len(weights) < parts:
        return Fraction(0)

    if parts == 2:
        best = _max_min_two_parts(weights)
    else:
        best = _max_min_partition(weights, parts)
    return Fraction(best, scale)


def _max_min_two_parts(weights: Sequence[int]) -> int:
    """Best min bundle over all 2-partitions of positive ``weights`` (sorted
    in descending order): the largest subset sum not above ``total // 2``.

    >>> _max_min_two_parts([3, 2, 2, 1])       # narrow: bitset
    4
    >>> _max_min_two_parts([600, 500, 400, 300])   # differencing reaches 900
    900
    >>> _max_min_two_parts([10**6, 10**6 - 1, 3])  # meet-in-the-middle
    1000000
    """
    total = sum(weights)
    half = total // 2
    if half < _NARROW_HALF:
        return _two_parts_bitset(weights, half)
    if _karmarkar_karp(weights) == total % 2:
        return half
    count = len(weights)
    if count * (half // 64 + 1) <= _STEP_WORDS << (count + 1) // 2:
        return _two_parts_bitset(weights, half)
    return _two_parts_meet(weights, half)


def _two_parts_bitset(weights: Sequence[int], half: int) -> int:
    """Largest subset sum up to ``half``, by a shift-or bitset of achievable
    sums kept to ``half + 1`` bits.  Items go in ascending order, so the
    bitset stays short while the prefix sums are small."""
    mask = (1 << (half + 1)) - 1
    bits = 1
    for w in reversed(weights):
        bits = (bits | bits << w) & mask
        if bits >> half:
            return half
    return bits.bit_length() - 1


def _karmarkar_karp(weights: Sequence[int]) -> int:
    """Final difference of Karmarkar-Karp differencing: the two largest
    numbers are replaced by their difference until one number is left.  It
    is the gap between the two bundle sums of the partition it builds."""
    heap = [-w for w in weights]
    heapq.heapify(heap)
    while len(heap) > 1:
        largest = heapq.heappop(heap)
        heapq.heapreplace(heap, largest - heap[0])
    return -heap[0]


def _two_parts_meet(weights: Sequence[int], half: int) -> int:
    """Largest subset sum up to ``half``, by meet-in-the-middle: the subset
    sums of the even-index and of the odd-index weights, the second list
    sorted, and for each sum of the first its largest partner that keeps the
    pair within ``half``."""
    left = _subset_sums(weights[0::2], half)
    right = sorted(_subset_sums(weights[1::2], half))
    best = 0
    for s in left:
        # right[0] == 0 <= half - s, so the partner always exists
        pair = s + right[bisect_right(right, half - s) - 1]
        if pair > best:
            best = pair
            if best == half:
                break
    return best


def _subset_sums(weights: Sequence[int], cap: int) -> list[int]:
    """Every subset sum of ``weights`` up to ``cap``, with repeats."""
    sums = [0]
    for w in weights:
        sums += [s + w for s in sums if s + w <= cap]
    return sums


def _max_min_partition(weights: Sequence[int], k: int) -> int:
    """Branch and bound over bundle assignments, items in descending order.

    Only three or more bundles come here; two go to
    :func:`_max_min_two_parts`, which neither searches nor recurses.  A
    greedy warm start gives an incumbent; the answer is then located by
    binary search between the incumbent and the ceiling ``total // k``, each
    probe asking whether some assignment keeps every bundle at or above a
    target value.
    """
    total = sum(weights)
    upper = total // k
    if upper == 0:
        return 0
    if len(weights) == k:
        return weights[-1]

    # Greedy warm start: largest weight into the lightest bundle.
    loads = [0] * k
    for w in weights:
        loads[loads.index(min(loads))] += w
    best = min(loads)
    if best == upper:
        return best

    lo, hi = best, upper
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _can_reach_target(weights, k, mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


def _can_reach_target(weights: Sequence[int], k: int, target: int) -> bool:
    """Decide whether all items fit into ``k`` bundles of value >= target.

    Symmetry breaking: bundles are interchangeable, so among bundles with
    equal load only the first may receive the next item (in particular a new
    bundle opens only when all earlier ones are nonempty).  Items never go to
    bundles that already reached the target (moving an item out of a
    satisfied bundle keeps it satisfied, so this loses no solutions); once
    every bundle is satisfied the leftovers can be dumped anywhere.  A node
    is pruned when the remaining supply cannot cover the remaining deficit,
    or when fewer items remain than unsatisfied bundles.
    """
    count = len(weights)
    suffix = [0] * (count + 1)
    for i in range(count - 1, -1, -1):
        suffix[i] = suffix[i + 1] + weights[i]
    if suffix[0] < k * target:
        return False
    loads = [0] * k
    failed: set = set()  # (item index, sorted unsatisfied loads) seen to fail

    def place(idx: int, unsat: int) -> bool:
        if unsat == 0:
            return True
        if idx == count or count - idx < unsat:
            return False
        open_loads = sorted(load for load in loads if load < target)
        if suffix[idx] < unsat * target - sum(open_loads):
            return False
        key = (idx, tuple(open_loads))
        if key in failed:
            return False
        w = weights[idx]
        tried = set()
        for b in range(k):
            load = loads[b]
            if load >= target or load in tried:
                continue
            tried.add(load)
            loads[b] = load + w
            ok = place(idx + 1, unsat - (1 if load + w >= target else 0))
            loads[b] = load
            if ok:
                return True
        failed.add(key)
        return False

    return place(0, k)


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


def approximation_ratio(inst: Instance, alloc: Allocation):
    """Worst ratio of received value to maximin share, over players with a
    positive share.

    Returns :data:`UNBOUNDED` when every player's share is 0 (then any
    allocation is trivially as good as the shares demand).
    """
    violations = validate_allocation(inst, alloc)
    if violations:
        raise ValueError("invalid allocation: " + "; ".join(violations))
    ratios = []
    for i in range(inst.n):
        share = maximin_share(inst, i, inst.n)
        if share == 0:
            continue
        ratios.append(inst.value(i, alloc.bundles[i]) / share)
    if not ratios:
        return UNBOUNDED
    return min(ratios)
