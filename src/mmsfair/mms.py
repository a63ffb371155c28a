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
halves of the items (Horowitz & Sahni, JACM 1974).  Three or more bundles
start from the k-way largest differencing partition (Korf, AIJ 1998) and
climb: a depth-first search with symmetry breaking asks for a partition
whose every bundle beats the incumbent, each one found raises the
incumbent, and the first search that finds none proves it optimal.  That
search visits at most :data:`NODE_LIMIT` nodes per share; a larger share is
refused with :class:`~mmsfair.instance.EnumerationLimitError`.  None of this
recurses.

Approximation ratios are compared as integer pairs (numerator, denominator)
by cross-multiplication; only the worst ratio is returned, as a ``Fraction``.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator
from bisect import bisect_right
from fractions import Fraction
from typing import Iterable, Sequence

from .instance import (
    BUDGET,
    Allocation,
    EnumerationLimitError,
    Instance,
    Value,
    validate_allocation,
)


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

# Search nodes a share for three or more bundles may visit, over all its
# searches, before it is refused like any enumeration over the budget.
NODE_LIMIT = BUDGET


def maximin_share(
    inst: Instance,
    player: int,
    parts: int,
    items: Iterable[int] | None = None,
) -> Fraction:
    """Exact maximin share of ``player`` for ``parts`` bundles over ``items``.

    ``items`` defaults to the full item set.  A share for three or more
    bundles whose search would visit more than :data:`NODE_LIMIT` nodes is
    refused with :class:`~mmsfair.instance.EnumerationLimitError`.

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
    """Best min bundle over all ``k``-partitions of at least ``k`` positive
    ``weights`` (sorted in descending order), for ``k >= 3``.

    Two bundles go to :func:`_max_min_two_parts` instead.  The k-way largest
    differencing partition gives the incumbent, and ``total // k`` bounds the
    answer from above.  Below that bound, :func:`_cover` asks for a partition
    whose every bundle beats the incumbent; the smallest bundle of each one
    it finds becomes the new incumbent, and the first search that finds none
    proves the incumbent optimal.  Nothing here recurses.
    """
    if len(weights) == k:
        return weights[-1]
    upper = sum(weights) // k
    best = _largest_differencing(weights, k)
    nodes = 0
    while best < upper:
        found, nodes = _cover(weights, k, best + 1, nodes)
        if found is None:
            break
        best = found
    return best


def _largest_differencing(weights: Sequence[int], k: int) -> int:
    """Smallest bundle of the k-way largest differencing partition (Korf,
    AIJ 1998).  Each weight starts as a partial partition of ``k`` bundle
    sums, one of them the weight; the two partial partitions whose largest
    and smallest sums differ most are merged, largest sum with smallest,
    until one partition is left."""
    zeros = (0,) * (k - 1)
    heap = [(-w, i, (w,) + zeros) for i, w in enumerate(weights)]
    heapq.heapify(heap)
    tie = len(heap)
    while len(heap) > 1:
        a = heapq.heappop(heap)[2]
        b = heap[0][2]
        sums = sorted(map(operator.add, a, reversed(b)), reverse=True)
        heapq.heapreplace(heap, (sums[-1] - sums[0], tie, tuple(sums)))
        tie += 1
    return heap[0][2][-1]


def _cover(
    weights: Sequence[int], k: int, target: int, nodes: int
) -> tuple[int | None, int]:
    """Depth-first search, on an explicit stack, for a partition of
    ``weights`` into ``k`` bundles each worth at least ``target``, which is
    at most ``sum(weights) // k``.

    Returns the smallest bundle of the partition found, or ``None`` if there
    is none, with ``nodes`` advanced by the nodes visited; past
    :data:`NODE_LIMIT` it raises :class:`EnumerationLimitError`.

    A node is the next item's index and the sorted loads of the bundles still
    below ``target`` (open).  A bundle that reaches ``target`` closes and
    takes no more items, which loses no partition, and open bundles of equal
    load are interchangeable, so the item tries each distinct load once.  The
    slack is the value of the remaining items minus the open bundles' total
    deficit; a bundle that closes above ``target`` spends its excess from it.
    A child is never visited when its slack is negative or fewer items remain
    than open bundles, and a node that already failed is not searched again.
    With at most one open bundle the search succeeds: the remaining items go
    one by one to the lightest bundle, which covers the open one too.
    """
    count = len(weights)
    failed: set = set()  # (item index, open loads) searched without success
    # [item index, open loads, children, next child]; a child is its open
    # loads, the load of the bundle it closed (0 if none) and its slack
    stack: list[list] = []
    idx, open_loads, slack = 0, (0,) * k, sum(weights) - k * target
    while True:
        nodes += 1
        if nodes > NODE_LIMIT:
            raise EnumerationLimitError(
                f"maximin share search needs more than the limit of {NODE_LIMIT} nodes"
            )
        unsat = len(open_loads)
        if unsat <= 1:
            loads = list(open_loads)
            for frame in stack:
                closed = frame[2][frame[3] - 1][1]
                if closed:
                    loads.append(closed)
            heapq.heapify(loads)
            for w in weights[idx:]:
                heapq.heapreplace(loads, loads[0] + w)
            return loads[0], nodes
        if (idx, open_loads) not in failed:
            w = weights[idx]
            items_left = count - idx - 1
            children = []
            previous = None
            for pos in range(unsat - 1, -1, -1):
                load = open_loads[pos]
                if load == previous:
                    continue
                previous = load
                new = load + w
                rest = open_loads[:pos] + open_loads[pos + 1 :]
                if new < target:
                    if unsat <= items_left:
                        children.append((tuple(sorted(rest + (new,))), 0, slack))
                elif new - target <= slack and unsat - 1 <= items_left:
                    children.append((rest, new, slack - (new - target)))
            stack.append([idx, open_loads, children, 0])
        while stack:
            frame = stack[-1]
            if frame[3] < len(frame[2]):
                open_loads, _, slack = frame[2][frame[3]]
                frame[3] += 1
                idx = frame[0] + 1
                break
            failed.add((frame[0], frame[1]))
            stack.pop()
        else:
            return None, nodes


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
    parts = inst.n
    worst = None
    for row, bundle in zip(inst.values, alloc.bundles):
        p, q = _rated_share(tuple(sorted(row, reverse=True)), parts)
        if not p:
            continue
        # value / (p/q) as num/den; ints carry .numerator and .denominator too
        value = sum(map(row.__getitem__, bundle))
        num, den = value.numerator * q, value.denominator * p
        if worst is None or num * worst[1] < worst[0] * den:
            worst = num, den
    if worst is None:
        return UNBOUNDED
    return Fraction(*worst)


@functools.lru_cache(maxsize=4096)
def _rated_share(values: tuple[Value, ...], parts: int) -> tuple[int, int]:
    """Maximin share ``p/q`` of a row whose values, in descending order, are
    ``values``, as the integer pair ``(p, q)``.  A share depends only on that
    multiset and ``parts``, so :func:`approximation_ratio` rates a grid of
    instances from a few hundred oracle calls; :func:`maximin_share` itself
    remembers nothing."""
    share = maximin_share(Instance((values,)), 0, parts)
    return share.numerator, share.denominator
