"""Allocation mechanisms: picking sequences, the two-player exact mechanism
for public rankings, the cut-and-choose baseline, and the uniform random
mechanism.

Every mechanism is deterministic given its inputs (and seed, for the random
one).  Ties inside picking steps resolve to the lowest item index; ties
between bundles resolve to the bundle containing the lowest-index item.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .instance import (
    BUDGET,
    Allocation,
    EnumerationLimitError,
    Instance,
    Ranking,
    Value,
    ranking_order,
)

# Information models.
CARDINAL = "cardinal"
ORDINAL = "ordinal"
PUBLIC_RANKINGS = "public-rankings"
MODELS = (CARDINAL, ORDINAL, PUBLIC_RANKINGS)

# Stable mechanism identifiers (also the CLI names).
BEST_ITEM = "best-item"
PICK_SEQ = "pick-seq"
PR = "pr"
PR_EXACT_24 = "pr-exact-2-4"
SQRT_SEQ = "sqrt-seq"
CUT_AND_CHOOSE = "cut-and-choose"
RANDOM_UNIFORM = "random-uniform"
MECHANISM_NAMES = (
    BEST_ITEM,
    PICK_SEQ,
    PR,
    PR_EXACT_24,
    SQRT_SEQ,
    CUT_AND_CHOOSE,
    RANDOM_UNIFORM,
)

_ALL_MODELS = frozenset(MODELS)
_MODELS_FOR = {
    BEST_ITEM: _ALL_MODELS,
    PICK_SEQ: _ALL_MODELS,
    PR: _ALL_MODELS,
    SQRT_SEQ: _ALL_MODELS,
    PR_EXACT_24: frozenset({PUBLIC_RANKINGS}),
    CUT_AND_CHOOSE: frozenset({CARDINAL, PUBLIC_RANKINGS}),
    RANDOM_UNIFORM: _ALL_MODELS,
}
# Models in which the mechanism is immune to unilateral misreports.  The
# cyclic sequences (pr, sqrt-seq) are truthful only when rankings are public:
# as reported-ranking mechanisms they are not sequential dictatorships.
_TRUTHFUL_MODELS = {
    BEST_ITEM: _ALL_MODELS,
    PICK_SEQ: _ALL_MODELS,
    PR: frozenset({PUBLIC_RANKINGS}),
    SQRT_SEQ: frozenset({PUBLIC_RANKINGS}),
    PR_EXACT_24: frozenset({PUBLIC_RANKINGS}),
    CUT_AND_CHOOSE: frozenset(),
    RANDOM_UNIFORM: _ALL_MODELS,
}
_VALUE_OBLIVIOUS = frozenset(
    {BEST_ITEM, PICK_SEQ, PR, SQRT_SEQ, RANDOM_UNIFORM}
)


class MechanismError(ValueError):
    """Mechanism/model mismatch or invalid mechanism input."""


@dataclass(frozen=True)
class Mechanism:
    """A mechanism identifier; ``sqrt-seq`` additionally carries its exponent
    offset epsilon."""

    name: str
    epsilon: Fraction | None = None

    def __post_init__(self):
        if self.name not in MECHANISM_NAMES:
            raise MechanismError(f"unknown mechanism {self.name!r}")
        if self.name == SQRT_SEQ:
            if self.epsilon is None or self.epsilon <= 0:
                raise MechanismError("sqrt-seq needs a positive epsilon")
        elif self.epsilon is not None:
            raise MechanismError(f"{self.name} does not take an epsilon")

    def __str__(self):
        if self.name == SQRT_SEQ:
            return f"{self.name}({self.epsilon})"
        return self.name


def mechanism(name: str, epsilon: Fraction | None = None) -> Mechanism:
    return Mechanism(name, epsilon)


def models_for(mech: Mechanism) -> frozenset:
    return _MODELS_FOR[mech.name]


def truthful_models(mech: Mechanism) -> frozenset:
    return _TRUTHFUL_MODELS[mech.name]


def value_oblivious(mech: Mechanism) -> bool:
    """True when the allocation depends on reports only through rankings."""
    return mech.name in _VALUE_OBLIVIOUS


def _check_defined(mech: Mechanism, model: str, n: int, m: int) -> None:
    """Refuse a model the mechanism does not run in, or an (n, m) it does not
    take."""
    if model not in MODELS:
        raise MechanismError(f"unknown model {model!r}")
    if model not in models_for(mech):
        raise MechanismError(f"{mech} is not defined in the {model} model")
    if mech.name == PR_EXACT_24 and (n, m) != (2, 4):
        raise MechanismError("pr-exact-2-4 requires exactly 2 players and 4 items")
    if mech.name == CUT_AND_CHOOSE and n != 2:
        raise MechanismError("cut-and-choose requires exactly 2 players")


@dataclass(frozen=True)
class PickingSequence:
    """A sequence of player indices; each named player takes her favorite
    remaining item in turn.  A cyclic sequence repeats until the items run
    out; a non-cyclic one must be long enough on its own."""

    picks: tuple[int, ...]
    cyclic: bool = False

    def __post_init__(self):
        if not self.picks:
            raise MechanismError("a picking sequence needs at least one pick")


def best_item_sequence(n: int, m: int) -> PickingSequence:
    """Players 1..n-1 pick once, then the last player takes the rest.

    The only sequence shape that is truthful on reported rankings (each
    player's picks are contiguous).  For ``m < n`` only the first ``m``
    players get a pick.

    >>> best_item_sequence(2, 4).picks
    (0, 1, 1, 1)
    """
    if n < 1:
        raise MechanismError("need at least one player")
    if m < n:
        return PickingSequence(tuple(range(max(m, 1))))
    return PickingSequence(tuple(range(n - 1)) + (n - 1,) * (m - n + 1))


def pr_sequence(n: int) -> PickingSequence:
    """Cyclic sequence of period ``n + 1``: each round the last player picks
    twice.

    >>> pr_sequence(3).picks
    (0, 1, 2, 2)
    """
    if n < 1:
        raise MechanismError("need at least one player")
    return PickingSequence(tuple(range(n)) + (n - 1,), cyclic=True)


_SEQUENCE_CACHE: dict = {}


def _sequence_for(mech: Mechanism, n: int, m: int) -> PickingSequence | None:
    """Picking sequence of a sequence mechanism, or None for the others; each
    is built once per (mechanism, n, m)."""
    key = (mech.name, mech.epsilon, n, m)
    if key in _SEQUENCE_CACHE:
        return _SEQUENCE_CACHE[key]
    if mech.name in (BEST_ITEM, PICK_SEQ):
        seq = best_item_sequence(n, m)
    elif mech.name == PR:
        seq = pr_sequence(n)
    elif mech.name == SQRT_SEQ:
        from .seqbuild import build_sqrt_sequence, sqrt_seq_params

        seq = build_sqrt_sequence(sqrt_seq_params(n, m, mech.epsilon))
    else:
        seq = None
    _SEQUENCE_CACHE[key] = seq
    return seq


def positions_bundle(ranking: Ranking, positions: Iterable[int]) -> frozenset[int]:
    """Items occupying the given 1-based ranks of ``ranking``.

    >>> sorted(positions_bundle(Ranking((0, 1, 2, 3)), (2, 3)))
    [1, 2]
    """
    out = []
    seen = set()
    for p in positions:
        if not 1 <= p <= ranking.m:
            raise IndexError(f"position {p} out of range [1, {ranking.m}]")
        if p in seen:
            raise ValueError(f"duplicate position {p}")
        seen.add(p)
        out.append(ranking.order[p - 1])
    return frozenset(out)


def _simulate_picks(
    orders: Sequence[tuple[int, ...]],
    m: int,
    picks: Sequence[int],
    cyclic: bool,
) -> list[list[int]]:
    """Core picking loop on raw ranking orders; returns item lists per player."""
    n = len(orders)
    bundles: list[list[int]] = [[] for _ in range(n)]
    taken = bytearray(m)
    pointer = [0] * n
    remaining = m
    step = 0
    length = len(picks)
    while remaining:
        if step >= length:
            if not cyclic:
                raise MechanismError(
                    f"picking sequence exhausted with {remaining} items unallocated"
                )
            step = 0
        p = picks[step]
        step += 1
        order = orders[p]
        ptr = pointer[p]
        while taken[order[ptr]]:
            ptr += 1
        pointer[p] = ptr + 1
        item = order[ptr]
        taken[item] = 1
        bundles[p].append(item)
        remaining -= 1
    return bundles


def run_picking_sequence(
    rankings: Sequence[Ranking], m: int, seq: PickingSequence
) -> Allocation:
    """Run ``seq`` over ``m`` items given one ranking per player.

    >>> r = Ranking((0, 1, 2, 3))
    >>> alloc = run_picking_sequence([r, r], 4, PickingSequence((0, 1, 1), cyclic=True))
    >>> sorted(alloc.bundles[0]), sorted(alloc.bundles[1])
    ([0, 3], [1, 2])
    """
    n = len(rankings)
    if n < 1:
        raise MechanismError("need at least one ranking")
    for r in rankings:
        if r.m != m:
            raise MechanismError("all rankings must cover the same m items")
    for p in seq.picks:
        if not 0 <= p < n:
            raise MechanismError(f"pick of player {p} out of range [0, {n})")
    bundles = _simulate_picks([r.order for r in rankings], m, seq.picks, seq.cyclic)
    return Allocation.from_bundles(bundles)


def _pr_exact_24_bundles(
    orders: Sequence[tuple[int, ...]],
    rows: Sequence[Sequence[Value]],
) -> tuple[frozenset[int], frozenset[int]]:
    """Two-player, four-item exact mechanism on raw orders and reported rows.

    Distinct favorite items: the sequence 1,2,2,1.  Shared favorite: player 1
    takes the better (by her report) of her top item and her ranks-2-3 pair,
    ties keeping just the top item; player 2 takes the complement.
    """
    o1, o2 = orders
    if o1[0] != o2[0]:
        bundles = _simulate_picks(orders, 4, (0, 1, 1, 0), cyclic=False)
        return frozenset(bundles[0]), frozenset(bundles[1])
    top = o1[0]
    pair = (o1[1], o1[2])
    row1 = rows[0]
    if row1[top] >= row1[pair[0]] + row1[pair[1]]:
        mine = frozenset((top,))
    else:
        mine = frozenset(pair)
    rest = frozenset(range(4)) - mine
    return mine, rest


def mechanism_pr_exact_24(inst: Instance) -> Allocation:
    """Exact maximin-share mechanism for two players and four items, with the
    players' rankings treated as public (derived from the instance)."""
    _check_defined(Mechanism(PR_EXACT_24), PUBLIC_RANKINGS, inst.n, inst.m)
    orders = [ranking_order(row) for row in inst.values]
    return Allocation(_pr_exact_24_bundles(orders, inst.values))


def best_two_partition(row: Sequence[Value]) -> tuple[frozenset[int], frozenset[int]]:
    """The 2-partition maximizing the minimum bundle value of ``row``.

    Among optima, the bundle containing item 0 is lexicographically smallest
    (as a sorted index tuple); that bundle is returned first.  It enumerates
    all ``2**(m-1)`` partitions; above :data:`~mmsfair.instance.BUDGET` it
    raises :class:`~mmsfair.instance.EnumerationLimitError`.
    """
    m = len(row)
    if m == 0:
        return frozenset(), frozenset()
    if 1 << (m - 1) > BUDGET:
        raise EnumerationLimitError(
            f"cut-and-choose needs {1 << (m - 1)} two-partitions, "
            f"over the limit of {BUDGET}"
        )
    total = sum(row)
    best_score = None
    best_first: tuple[int, ...] | None = None
    for mask in range(1 << (m - 1)):
        first = [0] + [j for j in range(1, m) if mask >> (j - 1) & 1]
        v = sum(row[j] for j in first)
        score = min(v, total - v)
        key = tuple(first)
        if (
            best_score is None
            or score > best_score
            or (score == best_score and key < best_first)
        ):
            best_score = score
            best_first = key
    rest = frozenset(range(m)) - set(best_first)
    return frozenset(best_first), rest


@functools.lru_cache(maxsize=4096)
def _proposal(row: tuple[Value, ...]) -> tuple[frozenset[int], frozenset[int]]:
    """:func:`best_two_partition` of the proposer's row.  The cut depends on
    that row alone, and a sweep proposes from each row many times."""
    return best_two_partition(row)


def _cut_and_choose_bundles(
    rows: Sequence[Sequence[Value]],
) -> tuple[frozenset[int], frozenset[int]]:
    """Player 1 proposes her most balanced 2-partition; player 2 takes the
    side her report values more (tie: the side holding item 1)."""
    proposal_a, proposal_b = _proposal(tuple(rows[0]))
    row2 = rows[1]
    va = sum(row2[j] for j in proposal_a)
    vb = sum(row2[j] for j in proposal_b)
    # proposal_a contains item 0, so it also wins ties.
    if va >= vb:
        return proposal_b, proposal_a
    return proposal_a, proposal_b


def cut_and_choose(inst: Instance) -> Allocation:
    """Two-player cut and choose: exact under truthful reports, but the
    proposer can manipulate the cut."""
    _check_defined(Mechanism(CUT_AND_CHOOSE), CARDINAL, inst.n, inst.m)
    return Allocation(_cut_and_choose_bundles(inst.values))


def random_uniform_allocation(n: int, m: int, seed: int = 0) -> Allocation:
    """Assign each item independently and uniformly at random; all randomness
    comes from ``seed``, so the output is reproducible."""
    if n < 1:
        raise MechanismError("need at least one player")
    rng = random.Random(seed)
    bundles: list[list[int]] = [[] for _ in range(n)]
    for j in range(m):
        bundles[rng.randrange(n)].append(j)
    return Allocation.from_bundles(bundles)


def _consistent_with_order(row: Sequence[Value], order: Sequence[int]) -> bool:
    """A report is consistent with a ranking when its values are
    non-increasing along that ranking."""
    return all(row[order[t]] >= row[order[t + 1]] for t in range(len(order) - 1))


def _resolve_reports(
    model: str,
    inst: Instance,
    reported,
) -> tuple[list[tuple[int, ...]], list[Sequence[Value]]]:
    """Per-model resolution of (ranking orders, value rows) for dispatch.

    In the public-rankings model a reported row inconsistent with the
    player's true ranking is ignored, i.e. replaced by her true row; the
    rankings used are always the true (public) ones.  Truthful reports
    (``None``) give the true orders and rows in every model.
    """
    if reported is None:
        return [ranking_order(row) for row in inst.values], list(inst.values)

    if model == ORDINAL:
        if isinstance(reported, Instance):
            raise MechanismError(
                "the ordinal model takes a list of rankings, not a value matrix"
            )
        rankings = list(reported)
        if len(rankings) != inst.n or not all(
            isinstance(r, Ranking) for r in rankings
        ):
            raise MechanismError("need one Ranking per player")
        for r in rankings:
            if r.m != inst.m:
                raise MechanismError("rankings must cover all items")
        return [r.order for r in rankings], list(inst.values)

    if not isinstance(reported, Instance):
        try:
            reported = Instance.from_rows(reported)
        except (TypeError, ValueError) as exc:
            raise MechanismError(
                f"the {model} model takes a reported value matrix: {exc}"
            ) from None
    if reported.n != inst.n or reported.m != inst.m:
        raise MechanismError("reported matrix must match the instance shape")

    if model == CARDINAL:
        orders = [ranking_order(reported.values[i]) for i in range(inst.n)]
        return orders, list(reported.values)

    true_orders = [ranking_order(row) for row in inst.values]
    rows: list[Sequence[Value]] = []
    for i in range(inst.n):
        row = reported.values[i]
        if _consistent_with_order(row, true_orders[i]):
            rows.append(row)
        else:
            rows.append(inst.values[i])
    return true_orders, rows


def run_mechanism(
    mech: Mechanism,
    model: str,
    inst: Instance,
    reported=None,
    seed: int = 0,
) -> Allocation:
    """Dispatch a mechanism under an information model.

    ``reported`` carries the (possibly misreported) inputs: a value matrix in
    the cardinal and public-rankings models, a list of rankings in the
    ordinal model, or ``None`` for truthful reports.
    """
    n, m = inst.n, inst.m
    _check_defined(mech, model, n, m)
    orders, rows = _resolve_reports(model, inst, reported)
    if mech.name == PR_EXACT_24:
        return Allocation(_pr_exact_24_bundles(orders, rows))
    if mech.name == CUT_AND_CHOOSE:
        return Allocation(_cut_and_choose_bundles(rows))
    if mech.name == RANDOM_UNIFORM:
        return random_uniform_allocation(n, m, seed)
    seq = _sequence_for(mech, n, m)
    return Allocation.from_bundles(_simulate_picks(orders, m, seq.picks, seq.cyclic))
