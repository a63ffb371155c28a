"""Exhaustive search for profitable unilateral misreports.

A mechanism is immune to misreports when no player can strictly raise the
true value of her bundle by deviating alone.  The ordinal model's report
space is the ``m!`` rankings; the cardinal and public-rankings models take
value rows, an infinite space searched through a finite pool.  A search is
complete (``search_complete``, ``GridVerification.complete``) when the model
is ordinal, when the mechanism reads no player's row (every row pool holds
one row per ranking, and with public rankings her ranking is fixed), or,
with public rankings, when the pool is every row over a grid that reaches
every decision the mechanism takes (its ``grid_decides``).
``_search_complete`` states that rule, for :func:`deviation_search`, which
searches one player of one instance in any model, and the grid sweep alike.

Both searches draw their reports from one rule, ``_pool``: every ranking in
the ordinal model; in the cardinal model the candidate rows plus one strict
row per ranking; with public rankings the candidate rows consistent with
her ranking.  The grid sweep's candidate rows are the grid's rows;
:func:`deviation_search`'s are her true row and the supplied rows, plus every
permutation of her true row (cardinal) or her one strict row, valued m down
to 1 along her ranking (public rankings): her true row is the only
permutation of itself consistent with her ranking, and that row the only
strict one.  Only the ranking pools list ``m!`` reports, so only they are
held to ``m <= ENUM_LIMIT``.

Only ``_reachable`` allocates: it submits each report of a pool in turn
(``mechanisms._submit`` says what a report replaces in each model), the
others' reports fixed, and keeps her bundle per report class and the
distinct bundles in order of first appearance, each with its first report.
Every pool holds her true report, so her truthful bundle comes from that
step too.  Scanning the distinct bundles (``_gains``, the one scorer of
both searches) stops at the same report as scanning the pool, because
every report before the first profitable one reaches a bundle worth no
more than the truthful one.  It reads her true row's table of bundle
values (``_Values``), which sums each value on first use.

A player's verdict (whether she gains, with which first report, and both
values) depends on her own true row and, for each other player, only on
that player's class: her ranking, plus her row itself when the mechanism
reads it (``rows_read``; no ordinal-model mechanism reads a row).  The
grid sweep decides each verdict once, on the first row of each class, and
counts it for every instance the classes hold.  The reach step runs once
per combination of the others' classes and pool of hers, and the pool's
verdicts are decided once per distinct reach outcome, her bundle for each
report class: with the pool fixed, its report classes and their order are
fixed, and the distinct bundles with their first reports follow from the
bundles, since every report of a class reaches that class's one bundle (the
rule ``_reachable`` relies on).  A true row is scored against a table that
is kept for the whole sweep where the row can be scored again, so each
(row, bundle) value is summed once per sweep.  With public rankings a
report replaces only the player's row, so a player whose row the
mechanism never reads reaches only her truthful bundle and the sweep does
not search her.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, permutations, product
from math import prod
from operator import itemgetter
from typing import Iterable, Sequence

from .instance import (
    BUDGET,
    EnumerationLimitError,
    Instance,
    Ranking,
    Value,
    _check_rational,
    _enumeration_size,
    ranking_order,
)
from .mechanisms import (
    _SPECS,
    CARDINAL,
    ORDINAL,
    PUBLIC_RANKINGS,
    Mechanism,
    _allocate,
    _check_defined,
    _consistent_with_order,
    _sequence,
    _submit,
)

# m! rankings are enumerated per search; 8! = 40320 keeps this a desk job.
ENUM_LIMIT = 8


@dataclass(frozen=True)
class DeviationReport:
    """Outcome of one player's misreport search under one model.

    ``best_deviation_value`` always includes the truthful report itself, so
    it is never below ``truthful_value``; ``witness`` is present exactly when
    a strictly profitable misreport exists.
    """

    player: int
    model: str
    truthful_value: Value
    best_deviation_value: Value
    witness: object | None
    search_complete: bool


def _pool(model: str, m: int, rows: Iterable, own: tuple[int, ...] | None) -> list:
    """The reports a search tries, by the module docstring's pool rule:
    every ranking (ordinal), the distinct ``rows`` plus one strict row per
    ranking (cardinal), or the distinct ``rows`` consistent with her ranking
    ``own`` (public rankings).  ``rows`` is read only after the ``m!`` check."""
    if model == PUBLIC_RANKINGS:
        return [r for r in dict.fromkeys(rows) if _consistent_with_order(r, own)]
    if m > ENUM_LIMIT:
        raise EnumerationLimitError(
            f"exhaustive ranking enumeration needs m <= {ENUM_LIMIT}, got m = {m}"
        )
    if model == ORDINAL:
        return [Ranking(perm) for perm in permutations(range(m))]
    return list(dict.fromkeys(chain(rows, permutations(range(m, 0, -1)))))


def _validate_misreports(misreports, m: int) -> list[tuple[Value, ...]]:
    rows = []
    for row in misreports:
        row = tuple(row)
        if len(row) != m:
            raise ValueError(f"misreport row must have {m} values, got {len(row)}")
        for v in row:
            _check_rational(v, "misreport value", "misreport values must be nonnegative")
        rows.append(row)
    return rows


def _reachable(
    mech: Mechanism,
    model: str,
    rows: Sequence[Sequence[Value]],
    player: int,
    pool: Iterable,
) -> tuple[dict, list[tuple[frozenset[int], object]]]:
    """Her bundle for each report class (:func:`_report_class`) as she
    submits each report of ``pool``, the others' rows fixed, and the
    distinct bundles in order of first appearance, each paired with the
    first report reaching it.  A public-rankings pool holds only rows
    consistent with her ranking.  A value-oblivious mechanism's outcome per
    ranking profile comes from the allocator's own memo, so reports sharing
    a ranking cost one lookup."""
    n, m = len(rows), len(rows[0])
    orders, rows = [ranking_order(row) for row in rows], list(rows)
    report_class = _report_class(mech, player)
    by_class: dict = {}
    reached: dict[frozenset[int], object] = {}
    for report in pool:
        _submit(model, orders, rows, player, report)
        bundle = _allocate(mech, orders, rows, n, m)[player]
        by_class[report_class(orders[player], rows[player])] = bundle
        reached.setdefault(bundle, report)
    return by_class, list(reached.items())


def _report_class(mech: Mechanism, player: int):
    """What the allocation reads of her report, as a function of her order
    and row: her order, and her row if read."""
    if player in _SPECS[mech.name].rows_read:
        return lambda order, row: (order, row)
    return lambda order, row: order


class _Values(dict):
    """A true row's value of each bundle, summed on first use."""

    __slots__ = ("row",)

    def __init__(self, row: Sequence[Value]):
        self.row = row

    def __missing__(self, bundle: frozenset[int]) -> Value:
        value = self[bundle] = sum(map(self.row.__getitem__, bundle))
        return value


def _gains(values: _Values, truthful: frozenset[int], reached: list):
    """Her truthful value, then lazily each reached ``(value, report)`` worth
    more, read from her table of bundle values."""
    t_val = values[truthful]
    yield t_val
    for bundle, report in reached:
        val = values[bundle]
        if val > t_val:
            yield val, report


def _search_complete(mech: Mechanism, model: str, grid: Sequence[Value] = ()) -> bool:
    """The module docstring's completeness rule; ``grid`` is given when the
    pool is every row over it (the empty grid reaches no decision)."""
    spec = _SPECS[mech.name]
    return model == ORDINAL or not spec.rows_read or (
        model == PUBLIC_RANKINGS and spec.grid_decides(grid)
    )


def deviation_search(
    mech: Mechanism,
    model: str,
    inst: Instance,
    player: int,
    misreports: Iterable[Sequence[Value]] = (),
) -> DeviationReport:
    """Best report for ``player`` in ``model``, the others truthful; the
    witness is the first report reaching the best value.  The pool follows
    the module docstring's rule: every ranking (ordinal, which takes no
    ``misreports``), or her true row, the supplied rows, and every
    permutation of her true row (cardinal) or her strict row (public
    rankings), so with public rankings it is what her ranking leaves of the
    cardinal pool.  Only the ranking pools (ordinal, cardinal) are held to
    m <= 8."""
    _check_defined(mech, model, inst.n, inst.m)
    inst._check_player(player)
    supplied = _validate_misreports(misreports, inst.m)
    if model == ORDINAL and supplied:
        raise ValueError("the ordinal search tries every ranking and takes no misreports")
    true_row = inst.values[player]
    own = ranking_order(true_row)
    extra = (
        permutations(true_row)
        if model == CARDINAL
        else [tuple(inst.m - own.index(j) for j in range(inst.m))]
    )
    pool = _pool(model, inst.m, chain([true_row], supplied, extra), own)
    by_class, reached = _reachable(mech, model, inst.values, player, pool)
    truthful = by_class[_report_class(mech, player)(own, true_row)]
    gains = _gains(_Values(true_row), truthful, reached)
    t_val = next(gains)
    best, witness = max(gains, key=itemgetter(0), default=(t_val, None))
    return DeviationReport(
        player, model, t_val, best, witness, _search_complete(mech, model)
    )


@dataclass(frozen=True)
class GridWitness:
    instance_rows: tuple[tuple[Value, ...], ...]
    player: int
    misreport: object  # value row, or a Ranking in the ordinal model
    truthful_value: Value
    deviation_value: Value


@dataclass(frozen=True)
class GridVerification:
    mechanism: str
    model: str
    n: int
    m: int
    grid: tuple[Value, ...]
    instances: int
    violations: int
    witness: GridWitness | None
    complete: bool
    certificate: str | None = None

    @property
    def ok(self) -> bool:
        return self.violations == 0


def verify_truthful_on_grid(
    mech: Mechanism,
    model: str,
    n: int,
    m: int,
    grid: Sequence[Value],
    budget: int = BUDGET,
) -> GridVerification:
    """Run the applicable deviation search for every player of every
    instance with values from ``grid``.

    Counts (instance, player) pairs admitting a profitable misreport and
    keeps the first witness in ``product`` order of the instances, players
    in index order within one.

    The instances are not scanned one by one.  A verdict is decided once
    for each searched player, each combination of the other players'
    classes and each true row of hers (see the module docstring: a class
    holds the rows of one ranking, or one row when the mechanism reads it).
    Each class stands for its first row in ``product`` order, and the
    verdict counts once for every instance of the combination, the product
    of the class sizes.  That product of row sets has the representatives
    as its least instance in ``product`` order, which is lexicographic in
    the rows, so the least (instance, player) among violating
    representatives is the first witness a full scan finds.  Her true rows
    share one pool, or with public rankings one per ranking of hers; each
    pool is built once, and the reach step, which also gives her truthful
    bundle, runs once per combination and pool, with the pool's first true
    row in her slot.  The pool's verdicts are decided once per distinct
    reach outcome (the pool and her bundle for each report class, which fix
    what she reaches; see the module docstring) and kept for this call
    only: how many of her true rows gain, and the least of them, whose
    instance is the least violating one of each combination giving that
    outcome.  Her true rows' report classes are fixed once per pool, and
    each (row, bundle) value is summed once per sweep.  Only the ranking
    pools (ordinal, cardinal) are refused past ``ENUM_LIMIT`` items.
    """
    _check_defined(mech, model, n, m)
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    # Each value is checked before any is compared, so a mixed grid is refused.
    grid = tuple(sorted({
        _check_rational(v, "grid value", "grid values must be nonnegative")
        for v in grid
    }))
    if not grid:
        raise ValueError("grid must be nonempty")

    total = _enumeration_size(
        len(grid), n * m, budget, "grid sweep needs {} instances, over the budget of {}"
    )
    # One grid value makes one instance of n * m values, all still searched:
    # they are held to what two values reach, as the count above holds more.
    # With no items each player is still searched, so counts as one value.
    if n * max(m, 1) > (most := budget.bit_length() - 1):
        size = f"{n} x {m} values" if m else f"{n} players of no items"
        raise EnumerationLimitError(
            f"grid sweep over {size} is over the limit of {most} "
            f"values that a two-value grid reaches within the budget of {budget}"
        )
    spec = _SPECS[mech.name]
    # A sequence that cannot be built at this size is refused as run_mechanism
    # refuses an n x m instance, although some sweeps never allocate.
    if spec.sequence is not None:
        _sequence(mech, n, m)
    # A player is searched unless no report of hers moves her bundle: the
    # allocation ignores all reports, or she has only her row to report
    # (public rankings) and it is never read.
    searched = [] if spec.ignores_reports else [
        i for i in range(n) if model != PUBLIC_RANKINGS or i in spec.rows_read
    ]
    rows_space = list(product(grid, repeat=m)) if searched else []
    # Each player's classes as (first row, size): the rows of one ranking,
    # or single rows for a player whose row is read.
    by_order: dict[tuple[int, ...], list] = {}
    for row in rows_space:
        by_order.setdefault(ranking_order(row), []).append(row)
    ranked = [(rows[0], len(rows)) for rows in by_order.values()]
    singles = [(row, 1) for row in rows_space] if spec.rows_read else []
    classes = [singles if i in spec.rows_read else ranked for i in range(n)]

    # Her true rows grouped by the pool they share, as (ranking, rows) pairs:
    # with public rankings the rows of one ranking of hers, otherwise all of
    # them.  With nobody searched there are no rows and no pool, so the sweep
    # passes ENUM_LIMIT.
    by_ranking = list(by_order.items())
    groups = [[p] for p in by_ranking] if model == PUBLIC_RANKINGS else [by_ranking]
    pools = [(_pool(model, m, rows_space, g[0][0]), g) for g in groups if g]
    # Each true row's bundle values, summed once for the whole sweep where
    # the row can be scored again: by a second combination of the others'
    # classes or a second searched player.  Otherwise each table is built
    # where it is used, so a one-player sweep holds one at a time.
    others_vary = any(len(classes[i]) > 1 for i in range(n) if i not in searched)
    if len(searched) > 1 or others_vary:
        table = {row: _Values(row) for row in rows_space}.__getitem__
    else:
        table = _Values

    violations, first = 0, None
    for player in searched:
        # Her true rows' report classes, fixed before the others vary.
        report_class = _report_class(mech, player)
        facts = [
            (pool, [(row, report_class(own, row)) for own, rows in group for row in rows])
            for pool, group in pools
        ]
        # Per reach outcome: how many of the pool's true rows gain, and the
        # least of them with its first gaining report and both values.
        verdicts: dict = {}
        for others in product(*classes[:player], *classes[player + 1 :]):
            count = prod(size for _, size in others)
            reps = tuple(row for row, _ in others)
            for index, (pool, true_rows) in enumerate(facts):
                group_rows = reps[:player] + (true_rows[0][0],) + reps[player:]
                by_class, reached = _reachable(mech, model, group_rows, player, pool)
                outcome = (index, *by_class.values())
                verdict = verdicts.get(outcome)
                if verdict is None:
                    hits, least = 0, None
                    for true_row, key in true_rows:
                        gains = _gains(table(true_row), by_class[key], reached)
                        t_val, gain = next(gains), next(gains, None)
                        if gain is not None:
                            hits += 1
                            if least is None or true_row < least[0]:
                                least = (true_row, gain[1], t_val, gain[0])
                    verdict = verdicts[outcome] = hits, least
                hits, least = verdict
                if hits:
                    violations += count * hits
                    true_row, *gain = least
                    found = (reps[:player] + (true_row,) + reps[player:], player, *gain)
                    first = min(first or found, found, key=itemgetter(0, 1))
    certificate = "input-oblivious: the allocation ignores all reports"
    return GridVerification(
        str(mech), model, n, m, grid, total, violations,
        GridWitness(*first) if first else None,
        _search_complete(mech, model, grid),
        certificate if spec.ignores_reports else None,
    )
