"""Allocation mechanisms: picking sequences, the two-player exact mechanism
for public rankings, the cut-and-choose baseline, and the uniform random
mechanism.

Each mechanism has one private record in ``_SPECS``: the models it runs in
and is truthful in, whether it reads values, rankings or no report, its
epsilon and shape rules, how it allocates from raw orders and rows (a
picking sequence or a bundles function), its proven ratio, and whether a
value grid decides its choices.  :func:`run_mechanism`, the raw allocator
``_allocate`` shared with the deviation search and the grid sweep, and
every property query read that table instead of matching mechanism names.

Every mechanism is deterministic given its inputs (and seed, for the random
one).  Ties inside picking steps resolve to the lowest item index; ties
between bundles resolve to the bundle containing the lowest-index item.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .instance import (
    Allocation,
    Instance,
    MechanismError,
    Ranking,
    Value,
    _check_rational,
    ranking_order,
)
from .mms import _integer_row, _largest_sum, _max_min_two_parts
from .seqbuild import (
    PickingSequence,
    build_sqrt_sequence,
    power_lower_rational,
    sqrt_seq_params,
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


@dataclass(frozen=True)
class Mechanism:
    """A mechanism identifier; ``sqrt-seq`` additionally carries its exponent
    offset epsilon."""

    name: str
    epsilon: Fraction | None = None

    def __post_init__(self):
        if self.name not in MECHANISM_NAMES:
            raise MechanismError(f"unknown mechanism {self.name!r}")
        if _SPECS[self.name].takes_epsilon:
            if self.epsilon is None or _check_rational(self.epsilon, "epsilon") <= 0:
                raise MechanismError(f"{self.name} needs a positive epsilon")
        elif self.epsilon is not None:
            raise MechanismError(f"{self.name} does not take an epsilon")

    def __str__(self):
        if self.epsilon is not None:
            return f"{self.name}({self.epsilon})"
        return self.name


mechanism = Mechanism  # the same class under a function-style name


def models_for(mech: Mechanism) -> frozenset:
    return _SPECS[mech.name].models


def truthful_models(mech: Mechanism) -> frozenset:
    return _SPECS[mech.name].truthful


def theoretical_ratio(mech: Mechanism, n: int, m: int) -> Fraction:
    """Proven worst-case guarantee of a sequence mechanism at size (n, m)."""
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    bound = _SPECS[mech.name].bound
    if bound is None:
        raise MechanismError(f"no guarantee ratio is defined for {mech}")
    return bound(mech, n, m)


def _check_defined(mech: Mechanism, model: str, n: int, m: int) -> None:
    """Refuse a model the mechanism does not run in, or an (n, m) it does not
    take."""
    if model not in MODELS:
        raise MechanismError(f"unknown model {model!r}")
    spec = _SPECS[mech.name]
    if model not in spec.models:
        raise MechanismError(f"{mech} is not defined in the {model} model")
    if spec.shape is not None:
        players, items = spec.shape
        if n != players or items not in (None, m):
            need = f" and {items} items" if items is not None else ""
            raise MechanismError(
                f"{mech.name} requires exactly {players} players{need}"
            )


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


def _simulate_picks(
    orders: Sequence[tuple[int, ...]],
    picks: Sequence[int],
) -> list[list[int]]:
    """Core picking loop on raw ranking orders: each of the ``picks``, one
    per item, in turn takes that player's favorite remaining item.  Returns
    item lists per player."""
    bundles: list[list[int]] = [[] for _ in orders]
    taken = bytearray(len(picks))
    pointer = [0] * len(orders)
    for p in picks:
        order = orders[p]
        ptr = pointer[p]
        while taken[order[ptr]]:
            ptr += 1
        pointer[p] = ptr + 1
        item = order[ptr]
        taken[item] = 1
        bundles[p].append(item)
    return bundles


def _pr_exact_24_reads(orders) -> tuple[int, ...]:
    """The players whose rows ``pr-exact-2-4`` reads under the rankings
    ``orders``: player 1's, when both players share a favorite item."""
    return (0,) if orders[0][0] == orders[1][0] else ()


def _pr_exact_24_top_wins(order, row) -> bool:
    """All that ``pr-exact-2-4`` reads of player 1's row, given her ranking
    ``order``: whether it values her top item at least as much as her
    ranks-2-3 pair."""
    return row[order[0]] >= row[order[1]] + row[order[2]]


def _pr_exact_24_bundles(orders, rows, seed):
    """Two-player, four-item exact mechanism on raw orders and reported rows.

    Distinct favorite items (no row read, by :func:`_pr_exact_24_reads`):
    the sequence 1,2,2,1, which is ``pr``'s outcome at (2, 4), so it comes
    from ``pr``'s memoized outcome.  Shared favorite: player 1 takes the
    better (by her report, :func:`_pr_exact_24_top_wins`) of her top item
    and her ranks-2-3 pair, ties keeping just the top item; player 2 takes
    the complement.
    """
    if not _pr_exact_24_reads(orders):
        return _outcome(PR, None, tuple(orders))
    o1 = orders[0]
    if _pr_exact_24_top_wins(o1, rows[0]):
        mine = frozenset((o1[0],))
    else:
        mine = frozenset((o1[1], o1[2]))
    rest = frozenset(range(4)) - mine
    return mine, rest


def best_two_partition(row: Sequence[Value]) -> tuple[frozenset[int], frozenset[int]]:
    """The 2-partition maximizing the minimum bundle value of ``row``.

    Among optima, the bundle containing item 0 is lexicographically smallest
    (as a sorted index tuple); that bundle is returned first.  It is built
    one index at a time from the two-part share oracle, within one count of
    :data:`~mmsfair.mms.NODE_LIMIT` nodes; a row past it raises
    :class:`~mmsfair.instance.EnumerationLimitError`.  The weights are
    divided by their greatest common divisor first: the cut is the same,
    and every decision's bitset is that factor shorter.

    >>> first, rest = best_two_partition(list(range(1, 23)))
    >>> [j + 1 for j in sorted(first)], sum(j + 1 for j in rest)
    ([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 21], 127)
    """
    if not row:
        return frozenset(), frozenset()
    weights, nodes = _integer_row(row)[0], [0]
    unit = math.gcd(*weights)
    if unit > 1:
        weights = [w // unit for w in weights]
    low = _max_min_two_parts(sorted(filter(None, weights), reverse=True), nodes)
    targets = (low, sum(weights) - low)  # the sums of a max-min bundle
    bundle, s = [0], weights[0]
    while s not in targets:  # once one is hit, any longer tuple sorts later
        failed = set()  # a later equal weight has fewer items after it
        for j in range(bundle[-1] + 1, len(row)):  # the smallest next index
            w = weights[j]
            later = [x for x in weights[j + 1 :] if x]
            if w not in failed and any(_reaches(later, t - s - w, nodes) for t in targets):
                break
            failed.add(w)
        bundle.append(j)
        s += w
    return frozenset(bundle), frozenset(range(len(row))) - set(bundle)


def _reaches(weights: list[int], r: int, nodes: list[int]) -> bool:
    """Whether some subset of ``weights`` sums to ``r``, decided on the
    smaller of ``r`` and its complement."""
    r = min(r, sum(weights) - r)
    return r >= 0 and _largest_sum(weights, r, nodes) == r


@functools.lru_cache(maxsize=4096)
def _proposal(row: tuple[Value, ...]) -> tuple[frozenset[int], frozenset[int]]:
    """:func:`best_two_partition` of the proposer's row.  The cut depends on
    that row alone, and a sweep proposes from each row many times."""
    return best_two_partition(row)


def _cut_and_choose_bundles(orders, rows, seed):
    """Player 1 proposes her most balanced 2-partition; player 2 takes the
    side her report values more (tie: the side holding item 1)."""
    proposal_a, proposal_b = _proposal(rows[0])
    row2 = rows[1]
    va = sum(row2[j] for j in proposal_a)
    vb = sum(row2[j] for j in proposal_b)
    # proposal_a contains item 0, so it also wins ties.
    if va >= vb:
        return proposal_b, proposal_a
    return proposal_a, proposal_b


def _random_uniform_bundles(orders, rows, seed):
    """Each item to a player drawn uniformly at random; all randomness comes
    from the int ``seed``, so the output is reproducible.  ``orders`` is
    read for its size alone: n rankings over m items."""
    if type(seed) is not int:
        raise MechanismError(f"random-uniform needs an integer seed, not {seed!r}")
    n, rng = len(orders), random.Random(seed)
    bundles: list[list[int]] = [[] for _ in range(n)]
    for j in range(len(orders[0])):
        bundles[rng.randrange(n)].append(j)
    return tuple(map(frozenset, bundles))


@dataclass(frozen=True)
class _Spec:
    """One mechanism's record.  A sequence mechanism has ``sequence(mech, n,
    m)``, any other ``bundles(orders, rows, seed)``, giving one frozenset of
    items per player; :func:`_allocate` dispatches on which it has.
    ``shape`` is the (players, items) it requires, items ``None`` for any;
    ``bound(mech, n, m)`` is the proven fraction of the maximin share;
    ``grid_decides(grid)`` says whether rows drawn from ``grid`` reach
    every decision of a mechanism that reads values (by default no grid
    does).
    ``rows_read`` is the players whose reported value rows the allocation
    reads: replacing any other player's row, her order kept, leaves every
    bundle unchanged.  It is empty for a mechanism that reads no value: a
    sequence mechanism, whose rankings decide its outcome, or one that
    ignores every report.
    ``reads(orders)``, where given, is the part of ``rows_read`` that the
    allocation reads under the ranking profile ``orders``
    (:meth:`rows_read_under`), and ``row_class(order, row)`` is all it reads
    of such a row, given that player's ranking: two rows of one ranking and
    one class leave every bundle unchanged (by default the class is the
    row)."""

    models: frozenset
    truthful: frozenset
    rows_read: tuple[int, ...] = ()
    reads: Callable | None = None
    row_class: Callable = lambda order, row: row
    ignores_reports: bool = False
    takes_epsilon: bool = False
    shape: tuple[int, int | None] | None = None
    sequence: Callable | None = None
    bundles: Callable | None = None
    bound: Callable | None = None
    grid_decides: Callable = lambda grid: False

    def rows_read_under(self, orders) -> tuple[int, ...]:
        """The players whose rows the allocation reads under the ranking
        profile ``orders``: replacing any other player's row, the orders
        kept, leaves every bundle unchanged."""
        return self.rows_read if self.reads is None else self.reads(orders)


_ALL = frozenset(MODELS)
_PUBLIC = frozenset({PUBLIC_RANKINGS})
_BEST_ITEM = _Spec(
    _ALL, _ALL,
    sequence=lambda mech, n, m: best_item_sequence(n, m),
    bound=lambda mech, n, m: Fraction(1, max(2, m - n + 2) // 2),
)
# The cyclic sequences (pr, sqrt-seq) are truthful only when rankings are
# public: as reported-ranking mechanisms they are not sequential dictatorships.
# pr-exact-2-4's player 1 takes one binary decision (top item against ranks
# 2-3) when the players share a favorite; a grid holding zero and a positive
# value realizes both sides under any public ranking.
_SPECS = {
    BEST_ITEM: _BEST_ITEM,
    PICK_SEQ: _BEST_ITEM,
    PR: _Spec(
        _ALL, _PUBLIC,
        sequence=lambda mech, n, m: pr_sequence(n),
        bound=lambda mech, n, m: Fraction(2, n + 1),
    ),
    PR_EXACT_24: _Spec(
        _PUBLIC, _PUBLIC, rows_read=(0,), shape=(2, 4),
        reads=_pr_exact_24_reads, row_class=_pr_exact_24_top_wins,
        bundles=_pr_exact_24_bundles,
        grid_decides=lambda grid: any(v == 0 for v in grid) and any(v > 0 for v in grid),
    ),
    SQRT_SEQ: _Spec(
        _ALL, _PUBLIC, takes_epsilon=True,
        sequence=lambda mech, n, m: build_sqrt_sequence(sqrt_seq_params(n, m, mech.epsilon)),
        bound=lambda mech, n, m: power_lower_rational(n, Fraction(1, 2) + mech.epsilon),
    ),
    CUT_AND_CHOOSE: _Spec(
        frozenset({CARDINAL, PUBLIC_RANKINGS}), frozenset(), rows_read=(0, 1),
        shape=(2, None), bundles=_cut_and_choose_bundles,
    ),
    RANDOM_UNIFORM: _Spec(
        _ALL, _ALL, ignores_reports=True,
        bundles=_random_uniform_bundles,
    ),
}
MECHANISM_NAMES = tuple(_SPECS)


def _allocate(
    mech: Mechanism,
    orders: Sequence[tuple[int, ...]],
    rows: Sequence[Sequence[Value]],
    seed: int = 0,
) -> tuple[frozenset[int], ...]:
    """One bundle per player from raw ranking orders and value rows; the n
    orders over m items give the size.  A sequence mechanism's outcome
    depends on the ranking profile alone, so it is memoized per profile
    (``_outcome``); any other mechanism runs its bundles function."""
    spec = _SPECS[mech.name]
    if spec.sequence is not None:
        return _outcome(mech.name, mech.epsilon, tuple(orders))
    return spec.bundles(orders, rows, seed)


@functools.lru_cache(maxsize=16384)
def _outcome(name, epsilon, orders) -> tuple[frozenset[int], ...]:
    """The outcome memo: a sequence mechanism's bundles, keyed by all they
    depend on (``orders`` fixes n and m).  They are interned: they are the
    ``bundles`` of the one :func:`_shared_allocation`, so an entry holds its
    key and a reference, and profiles with one outcome share one tuple.  The
    bound holds every ranking profile of a 2×5 grid (8,649 over {0,1,2})."""
    picks = _sequence(Mechanism(name, epsilon), len(orders), len(orders[0]))
    bundles = tuple(map(frozenset, _simulate_picks(orders, picks)))
    return _shared_allocation(bundles).bundles


@functools.lru_cache(maxsize=256)
def _sequence(mech: Mechanism, n: int, m: int) -> tuple[int, ...]:
    """A sequence mechanism's ``m`` picks at size (n, m): its picking
    sequence, repeated if cyclic.  A non-cyclic one shorter than ``m`` is
    refused here, once per size, not in every simulation."""
    seq = _SPECS[mech.name].sequence(mech, n, m)
    picks = seq.picks * (-(-m // len(seq.picks)) if seq.cyclic else 1)
    if len(picks) < m:
        raise MechanismError(
            f"picking sequence exhausted with {m - len(picks)} items unallocated"
        )
    return picks[:m]


def _consistent_with_order(row: Sequence[Value], order: Sequence[int]) -> bool:
    """A report is consistent with a ranking when its values are
    non-increasing along that ranking."""
    return all(row[order[t]] >= row[order[t + 1]] for t in range(len(order) - 1))


def _submit(model: str, orders: list, rows: list, player: int, report) -> None:
    """Apply ``player``'s report to the raw ``orders`` and ``rows``: an
    ordinal ``Ranking`` replaces her order, a cardinal row replaces her row
    and her order, a public-rankings row replaces her row only (the caller
    keeps it consistent with her public ranking)."""
    if model == ORDINAL:
        orders[player] = report.order
        return
    if model == CARDINAL:
        orders[player] = ranking_order(report)
    rows[player] = report


def _resolve_reports(
    model: str,
    inst: Instance,
    reported,
) -> tuple[list[tuple[int, ...]], list[Sequence[Value]]]:
    """The (ranking orders, value rows) a mechanism reads given the reports
    ``reported``: the true ones, with each player's report submitted in turn.

    In the public-rankings model a reported row inconsistent with the
    player's true ranking is dropped, which leaves her true row.
    """
    orders = [ranking_order(row) for row in inst.values]
    rows: list[Sequence[Value]] = list(inst.values)
    if model == ORDINAL:
        if isinstance(reported, Instance):
            raise MechanismError(
                "the ordinal model takes a list of rankings, not a value matrix"
            )
        reports = list(reported)
        if len(reports) != inst.n or not all(isinstance(r, Ranking) for r in reports):
            raise MechanismError("need one Ranking per player")
        if any(r.m != inst.m for r in reports):
            raise MechanismError("rankings must cover all items")
    else:
        if not isinstance(reported, Instance):
            try:
                reported = Instance.from_rows(reported)
            except (TypeError, ValueError) as exc:
                raise MechanismError(
                    f"the {model} model takes a reported value matrix: {exc}"
                ) from None
        if reported.n != inst.n or reported.m != inst.m:
            raise MechanismError("reported matrix must match the instance shape")
        reports = reported.values

    for i, report in enumerate(reports):
        if model != PUBLIC_RANKINGS or _consistent_with_order(report, orders[i]):
            _submit(model, orders, rows, i, report)
    return orders, rows


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
    ordinal model, or ``None`` for truthful reports, which read the true
    orders and rows in every model.

    Equal outcomes give one shared :class:`Allocation`, from the
    :func:`_shared_allocation` memo: it is immutable, and
    :func:`~mmsfair.mms.approximation_ratio` checks it once for its shape.
    """
    values = inst.values
    n, m = len(values), len(values[0])
    _check_defined(mech, model, n, m)
    if reported is None:
        orders, rows = tuple(map(ranking_order, values)), values
    else:
        orders, rows = _resolve_reports(model, inst, reported)
    return _shared_allocation(_allocate(mech, orders, rows, seed))


@functools.lru_cache(maxsize=4096)
def _shared_allocation(bundles: tuple[frozenset[int], ...]) -> Allocation:
    """The one :class:`Allocation` of ``bundles``.  Keying by the bundles is
    safe here: every item a mechanism gives has indexed the rows, so it
    passes :func:`operator.index`, and equal keys hold items that index the
    same row entries.  It also interns :func:`_outcome`'s bundles, so a miss
    there looks its new bundles up here, and a run that misses both builds
    one :class:`Allocation`, not two."""
    return Allocation(bundles)
