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
difference is ``total % 2``.  Past that exit the weights are divided by
their greatest common divisor, which shrinks every bitset by that factor,
and the answer is multiplied back.  Then the cheaper of two exact methods,
by a cost estimate from the item count and the total, answers: the bitset,
masked to half the total, or meet-in-the-middle over the subset sums of two
halves of the items (Horowitz & Sahni, JACM 1974).  Where the bitset is the
cheaper and the row has more subsets than sums up to half, a perfect
partition is all but sure, and a split decision is tried first: the
unmasked bitsets of the two halves' subset sums, which are symmetric, meet
at half the total exactly when one shifted AND of them is nonzero.

Three or more bundles start from the k-way largest differencing partition
(Korf, AIJ 1998) and improve it by sequential number partitioning (Korf,
Schreiber & Moffitt, ISAIM 2014): each first bundle that holds the largest
item and could beat the incumbent, with the rest split into one bundle
fewer, down to the two-part oracle.  Its exact methods find the largest
subset sum up to any cap in any item order, which also builds
cut-and-choose's cut.  A share or a cut counts at most :data:`NODE_LIMIT`
search nodes; a larger one is refused with
:class:`~mmsfair.instance.EnumerationLimitError`.  None of this recurses.

Approximation ratios are compared as integer pairs (numerator, denominator)
by cross-multiplication; only the worst ratio is returned, as a ``Fraction``.
An allocation is checked in full once per object and instance shape: an
immutable one found valid keeps that shape, so the one shared allocation of
each mechanism outcome is not checked again.  Its players' terms come from
a bounded memo keyed by (row, bundle, bundle count), each term's pair and
``Fraction`` worked out once.  The shares a term divides by come from a
bounded memo keyed by the row's values sorted in descending order and the
bundle count, so the oracle is asked once per multiset of values.
:func:`maximin_share` itself remembers nothing.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import operator
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Generator, Iterable, Sequence

from .instance import (
    BUDGET,
    Allocation,
    EnumerationLimitError,
    Instance,
    Value,
    _check_index,
    _item_set,
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

# Nodes a share or a cut may count before it is refused: one per first
# bundle listed, one per call for one bundle fewer, one per _NODE_WORDS
# bitset words an exact two-part decision costs (a node took about 1.2 us, a
# word 1 to 4 ns), and at four or more bundles one per item of a rest of at
# least _CHARGED_REST items, which its child level copies and sums.  The
# differencing incumbent of at least _CHARGED_REST weights builds a k-tuple
# per weight and sorts one per merge: one node per _NODE_ENTRIES entries (an
# entry took 90 to 230 ns).
NODE_LIMIT = BUDGET
_NODE_WORDS = 500
_CHARGED_REST = 16
_NODE_ENTRIES = 12


def maximin_share(
    inst: Instance,
    player: int,
    parts: int,
    items: Iterable[int] | None = None,
) -> Fraction:
    """Exact maximin share of ``player`` for ``parts`` bundles over ``items``.

    ``items`` defaults to the full item set.  A share for three or more
    bundles comes from sequential partitioning; one whose search would count
    more than :data:`NODE_LIMIT` nodes is refused with
    :class:`~mmsfair.instance.EnumerationLimitError`.

    >>> inst = Instance.from_rows([[1, 1, 1, 1, 1, 1]] * 2)
    >>> maximin_share(inst, 0, 2)
    Fraction(3, 1)
    """
    inst._check_player(player)
    parts = _check_index(parts, "parts")
    if parts < 1:
        raise ValueError("parts must be at least 1")
    if items is None:
        subset = list(range(inst.m))
    else:
        subset = _item_set(items, inst.m)

    row = inst.values[player]
    values = [row[j] for j in subset]
    if parts == 1:
        return Fraction(sum(values))

    scaled, scale = _integer_row(values)
    weights = sorted(filter(None, scaled), reverse=True)
    if len(weights) < parts:
        return Fraction(0)

    if parts == 2:
        best = _max_min_two_parts(weights, [0])
    else:
        best = _max_min_partition(weights, parts)
    return Fraction(best, scale)


def _integer_row(values: Sequence[Value]) -> tuple[list[int], int]:
    """``values`` times their least common denominator, and that scale."""
    scale = math.lcm(*(v.denominator for v in values))
    return [int(v * scale) for v in values], scale


def _max_min_two_parts(weights: Sequence[int], nodes: list[int]) -> int:
    """Best min bundle over all 2-partitions of positive ``weights`` (sorted
    in descending order): the largest subset sum not above ``total // 2``.
    The exact method, if one runs, is charged to ``nodes``.

    >>> _max_min_two_parts([3, 2, 2, 1], [0])       # narrow: bitset
    4
    >>> _max_min_two_parts([600, 500, 400, 300], [0])   # differencing reaches 900
    900
    >>> _max_min_two_parts([10**6, 10**6 - 1, 3], [0])  # meet-in-the-middle
    1000000
    >>> row = [94, 93, 91, 86, 81, 79, 64, 52, 43, 32, 12, 1]
    >>> _max_min_two_parts(row, [0])  # dense: one AND of two half-sum bitsets
    364
    """
    total = sum(weights)
    half = total // 2
    if half >= _NARROW_HALF and _karmarkar_karp(weights) == total % 2:
        return half
    unit = math.gcd(*weights)
    if unit > 1:
        weights = [w // unit for w in weights]
        half = total // unit // 2
    if half >= _NARROW_HALF and half.bit_length() < len(weights):
        # more subsets than sums up to half: a perfect split is all but sure
        words, meet_words = _prices(len(weights), half)
        if words <= meet_words:
            # the split is charged its own price, capped at the bitset's,
            # and a bitset run after a miss only the rest: the decision
            # never costs more nodes than the bitset alone
            paid = min(_split_words(weights), words) // _NODE_WORDS
            _spend(nodes, paid)
            found, evens = _perfect_split(weights, half)
            if found:
                return unit * half
            _spend(nodes, words // _NODE_WORDS - paid)
            # the even-index weights' sums are held: only the odd ones go in
            return unit * _two_parts_bitset(weights[1::2], half, evens, sum(weights[0::2]))
    return unit * _largest_sum(weights, half, nodes)


def _prices(count: int, cap: int) -> tuple[int, int]:
    """Estimated cost in 64-bit bitset words of the largest subset sum up to
    ``cap`` of ``count`` weights: by the masked bitset, and by
    meet-in-the-middle."""
    return count * (cap // 64 + 1), _STEP_WORDS << (count + 1) // 2


def _largest_sum(weights: Sequence[int], cap: int, nodes: list[int]) -> int:
    """Largest subset sum up to ``cap`` of nonnegative ``weights`` in any
    order, by the cheaper exact method for a cost estimate from the item
    count and the cap, charged at its price in nodes against
    :data:`NODE_LIMIT`."""
    words, meet_words = _prices(len(weights), cap)
    _spend(nodes, min(words, meet_words) // _NODE_WORDS)
    if words <= meet_words:
        return _two_parts_bitset(weights, cap)
    return _two_parts_meet(weights, cap)


def _perfect_split(weights: Sequence[int], target: int) -> tuple[bool, int]:
    """Whether some subset of two or more nonnegative ``weights`` (sorted in
    descending order) sums to ``target``, half their total rounded down, and
    the shift-or bitset it built of the subset sums of the even-index
    weights, all of them after a miss.  The decision is meet-in-the-middle
    on that bitset, side A, and the odd-index weights', side B.  Subset sums
    are symmetric (``b`` is one of B's exactly when ``sum(B) - b`` is), so
    some ``a`` of A and ``b`` of B add up to ``target`` exactly when bit
    ``a - c`` of B's bitset is set for ``c = target - sum(B)``: one shifted
    AND.  Each odd-index weight is at most the even-index one before it, so
    ``sum(B)`` is at most ``target`` and ``c`` is never negative.  Each
    side's largest weight joins its bitset only if the sides without them
    miss ``target``, as they seldom do on a dense row."""
    odd_rest = weights[3::2]
    bits_a, bits_b = _subset_bits(weights[2::2]), _subset_bits(odd_rest)
    c = target - sum(odd_rest)
    if (bits_a >> c) & bits_b:
        return True, bits_a
    bits_a |= bits_a << weights[0]
    bits_b |= bits_b << weights[1]
    return bool((bits_a >> (c - weights[1])) & bits_b), bits_a


def _split_words(weights: Sequence[int]) -> int:
    """At most the 64-bit words that :func:`_perfect_split` shifts: one
    shift-or per weight over the sums so far, which in ascending order are
    at most ``k / n`` of its side's sum at the ``k``-th of ``n`` weights,
    and two shifted ANDs."""
    words = 2 * (sum(weights) // 64 + 1)
    for side in (weights[0::2], weights[1::2]):
        words += len(side) + (len(side) + 1) * sum(side) // 128
    return words


def _subset_bits(weights: Sequence[int]) -> int:
    """Bitset of every subset sum of ``weights`` (sorted in descending
    order), built in ascending order so that the early shift-ors are
    short."""
    bits = 1
    for w in reversed(weights):
        bits |= bits << w
    return bits


def _two_parts_bitset(
    weights: Sequence[int], cap: int, bits: int = 1, prefix: int = 0
) -> int:
    """Largest sum up to ``cap`` of a subset of ``weights`` and a sum set in
    ``bits`` (by default only 0), the largest of which is ``prefix``, by a
    shift-or bitset of achievable sums.  Items go in reverse order,
    ascending for the oracle's weights, so the bitset stays short while the
    prefix sums are small; no sum passes ``cap`` before the prefix sum
    does, so only from then on is the bitset masked to ``cap + 1`` bits."""
    mask = (1 << (cap + 1)) - 1
    for w in reversed(weights):
        prefix += w
        bits |= bits << w
        if prefix > cap:
            bits &= mask
            if bits >> cap:
                return cap
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


def _two_parts_meet(weights: Sequence[int], cap: int) -> int:
    """Largest subset sum up to ``cap``, by meet-in-the-middle: the subset
    sums of the even-index and of the odd-index weights, the larger list
    sorted, and for each sum of the smaller list its largest partner in the
    larger that keeps the pair within ``cap``."""
    small = _subset_sums(weights[1::2], cap)
    large = _subset_sums(weights[0::2], cap)
    if len(small) > len(large):
        small, large = large, small
    large.sort()
    best = 0
    for s in small:
        # large[0] == 0 <= cap - s, so the partner always exists
        pair = s + large[bisect_right(large, cap - s) - 1]
        if pair > best:
            best = pair
            if best == cap:
                break
    return best


def _subset_sums(weights: Sequence[int], cap: int) -> list[int]:
    """Every subset sum of ``weights`` up to ``cap``, with repeats."""
    sums = [0]
    for w in weights:
        sums += [s + w for s in sums if s + w <= cap]
    return sums


def _max_min_partition(weights: Sequence[int], k: int) -> int:
    """Best min bundle over all ``k``-partitions of positive ``weights``
    (sorted in descending order), ``k >= 3``, from the k-way largest
    differencing incumbent.  The levels of :func:`_sequential` are generators
    on an explicit stack, so nothing recurses however large ``k`` is."""
    nodes = [0]
    if len(weights) >= _CHARGED_REST:
        _spend(nodes, len(weights) * k // _NODE_ENTRIES)
    best = _largest_differencing(weights, k)
    levels = [_sequential(weights, k, best, sum(weights) // k, nodes)]
    reply = None
    while True:
        try:
            request = levels[-1].send(reply)
        except StopIteration as done:
            levels.pop()
            if not levels:
                return done.value
            reply = done.value
        else:
            levels.append(_sequential(*request, nodes))
            reply = None


def _sequential(
    weights: Sequence[int], k: int, best: int, cap: int, nodes: list[int]
) -> Generator[tuple, int, int]:
    """Sequential number partitioning (Korf, Schreiber & Moffitt, ISAIM
    2014): the best min bundle of a ``k``-partition of ``weights`` (sorted
    in descending order), cut to ``cap``, if it beats ``best``, else ``best``.

    The first bundle holds the largest weight and, to beat ``best``, sums to
    ``s`` in ``(best, total - (k - 1) * (best + 1)]``.  First bundles are
    listed depth-first, each multiset once, and each is a node.  One in that
    window scores the share of the rest in ``k - 1`` bundles, cut to
    ``min(s, cap)``: the two-part oracle's if ``k == 3``, else the answer
    sent back for the yielded ``(rest, k - 1, best, min(s, cap))``.
    """
    total = sum(weights)
    cap = min(cap, total // k)
    if best >= cap or len(weights) < k:
        return best
    negated = [-w for w in weights]  # ascending, for bisection
    tails = list(itertools.accumulate(negated[::-1]))[::-1]  # -sum(weights[i:])
    stack = [(weights[0], 1, 1)]  # (sum, next weight's index, bundle bitmask)
    while stack:
        s, nxt, chosen = stack.pop()
        high = total - (k - 1) * (best + 1)
        if s > high:  # pushed before best rose
            continue
        _spend(nodes, 2 if s > best else 1)  # the bundle, and its call for k - 1
        if s > best:
            rest = [w for i, w in enumerate(weights) if not chosen >> i & 1]
            if k == 3:
                score = min(s, cap, _max_min_two_parts(rest, nodes))
            else:
                if len(rest) >= _CHARGED_REST:
                    _spend(nodes, len(rest))
                score = yield rest, k - 1, best, min(s, cap)
            if score > best:
                best = score
                if best >= cap:
                    return best
            if score < s:  # the rest caps the score, and a child's rest is smaller
                continue
        # children add a later weight, fit the window and can still pass best
        first = bisect_left(negated, s - high, nxt)
        for i in range(bisect_left(tails, s - best, nxt) - 1, first - 1, -1):
            if i == first or weights[i] != weights[i - 1]:
                stack.append((s + weights[i], i + 1, chosen | 1 << i))
    return best


def _spend(nodes: list[int], count: int) -> None:
    nodes[0] += count
    if nodes[0] > NODE_LIMIT:
        raise EnumerationLimitError(
            f"maximin share search needs more than the limit of {NODE_LIMIT} nodes"
        )


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


def approximation_ratio(inst: Instance, alloc: Allocation):
    """Worst ratio of received value to maximin share, over players with a
    positive share.

    Returns :data:`UNBOUNDED` when every player's share is 0 (then any
    allocation is trivially as good as the shares demand).  The ratio is
    the worst player's ``Fraction`` from the :func:`_rated_term` memo, so
    ratings that reach one term share one ``Fraction``.

    :func:`~mmsfair.instance.validate_allocation` checks ``alloc`` in full
    unless this very object was found valid for ``(inst.n, inst.m)``
    before.  Only a tuple of frozensets, which cannot change, keeps that
    verdict, as the shape it holds outside its fields; no verdict is keyed
    by equal bundles, as ``frozenset({0.0}) == frozenset({0})``.  Every
    player's term comes from the :func:`_rated_term` memo; bundles of any
    other kind are looked up there as frozensets of their items.
    """
    values, bundles = inst.values, alloc.bundles
    shape = len(values), len(values[0])
    if getattr(alloc, "_valid_shape", None) != shape:
        violations = validate_allocation(inst, alloc)
        if violations:
            raise ValueError("invalid allocation: " + "; ".join(violations))
        if type(bundles) is tuple and all(type(b) is frozenset for b in bundles):
            object.__setattr__(alloc, "_valid_shape", shape)
        else:
            bundles = tuple(map(frozenset, bundles))
    worst = None
    for row, bundle in zip(values, bundles):
        term = _rated_term(row, bundle, shape[0])
        if term is None:
            continue
        if worst is None or term[0] * worst[1] < worst[0] * term[1]:
            worst = term
    if worst is None:
        return UNBOUNDED
    return worst[2]


@functools.lru_cache(maxsize=4096)
def _rated_term(
    row: tuple[Value, ...], bundle: frozenset[int], parts: int
) -> tuple[int, int, Fraction] | None:
    """The value of ``bundle`` to ``row`` over its maximin share for
    ``parts`` bundles, as ``(num, den, Fraction(num, den))``, or ``None``
    where that share is 0: once per (row, bundle, parts), as a grid reaches
    few of them.  Only bundles already checked valid are looked up, so
    their items pass :func:`operator.index` and an equal key holds items
    that index the same row entries."""
    p, q = _rated_share(tuple(sorted(row, reverse=True)), parts)
    if not p:
        return None
    # value / (p/q) as num/den; ints carry .numerator and .denominator too
    value = sum(map(row.__getitem__, bundle))
    num, den = value.numerator * q, value.denominator * p
    return num, den, Fraction(num, den)


def _player_ratios(inst: Instance, alloc: Allocation) -> tuple[tuple, tuple, tuple]:
    """Each player's value of her bundle, her maximin share for ``inst.n``
    bundles and the ratio of the two, as three tuples in player order; the
    ratio is :data:`UNBOUNDED` where the share is 0.  Shares come from the
    :func:`_rated_share` memo, so rating the same allocation with
    :func:`approximation_ratio` asks the oracle nothing more."""
    values, shares = [], []
    for row, bundle in zip(inst.values, alloc.bundles):
        values.append(Fraction(sum(map(row.__getitem__, bundle))))
        shares.append(Fraction(*_rated_share(tuple(sorted(row, reverse=True)), inst.n)))
    ratios = tuple(v / s if s else UNBOUNDED for v, s in zip(values, shares))
    return tuple(values), tuple(shares), ratios


@functools.lru_cache(maxsize=4096)
def _rated_share(values: tuple[Value, ...], parts: int) -> tuple[int, int]:
    """Maximin share ``p/q`` of the row ``values``, sorted in descending
    order, for ``parts`` bundles, as the integer pair ``(p, q)``.  A share
    depends on the multiset of values only, so every permutation of a row
    is one entry, and so are rows that compare equal, such as an int row
    and its ``Fraction`` twin: a grid pays one oracle call per multiset."""
    share = maximin_share(Instance((values,)), 0, parts)
    return share.numerator, share.denominator
