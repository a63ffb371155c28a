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
her ranking.  The grid sweep's candidate rows are the grid's rows, so its
public-rankings pools are built from the grid without testing a row
(``_ranked_rows``: each non-increasing tuple of grid values placed along
her ranking); :func:`deviation_search`'s are her true row and the supplied
rows, plus every permutation of her true row (cardinal) or her one strict
row, valued m down to 1 along her ranking (public rankings): her true row
is the only permutation of itself consistent with her ranking, and that
row the only strict one.  Only the ranking pools list ``m!`` reports, so
only they are held to ``m <= ENUM_LIMIT``.

One class rule, ``_report_class``, says what the allocation reads of a
report: her ranking, plus what the mechanism reads of her row when it reads
her row at all (``rows_read``, ``_Spec.row_class``; for ``pr-exact-2-4``
one comparison; no ordinal-model mechanism reads a row).  The others'
reports fixed, every report of one class gives the same bundles, so a
player's verdict (whether she gains, with which first report, and both
values) depends on her true row and on each other player's class alone.

Only ``_reachable`` allocates: it submits each report of a pool in turn
(``mechanisms._submit`` says what a report replaces in each model), the
others' reports fixed, and keeps her bundle per report class, allocated at
the class's first report, and the distinct bundles in order of first
appearance, each with its first report.  With public rankings her ranking
is fixed, so where the rankings leave her row unread
(``_Spec.rows_read_under``; for ``pr-exact-2-4`` where the favorites
differ) one allocation answers for the whole pool, her truthful bundle,
and the table of classes is empty.  Every pool holds her true report, so
her truthful bundle comes from that step too.  Scanning the distinct
bundles (``_gains``, the one scorer of both searches) stops at the same
report as scanning the pool, because every report before the first
profitable one reaches a bundle worth no more than the truthful one.  It
reads her true row's table of bundle values (``_Values``), which sums each
value on first use.

The grid sweep groups the grid's rows by each class rule once (at most two:
row read, row not read).  It decides each verdict on the first row of each
of the others' classes and counts it for every instance the classes hold.
A pool of rows holds one report per class of hers, the first in
``_ranked_rows`` order (public rankings) or in ``_pool`` order (cardinal),
so a cardinal pool of a mechanism that reads no row of hers holds one
report per ranking.  The reach step runs once per combination of the
others' classes and pool of hers, and the pool's verdicts are decided once
per distinct reach outcome, her bundle for each report class: with the
pool fixed, its classes and their order are fixed, and so are the distinct
bundles and their first reports.  Her true rows are scored class by class
against their class's bundle, so a pool that one allocation answers scores
none.  Each (row, bundle) value is summed once per sweep: a row's table is
kept for the whole sweep where the row can be scored again.  With public
rankings a report replaces only the player's row, so a player whose row the
mechanism never reads is not searched.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations_with_replacement, permutations, product
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


def _ranked_rows(grid: Sequence[Value], order: tuple[int, ...]) -> list[tuple]:
    """Every row over the ascending ``grid`` consistent with the ranking
    ``order``, in ``product`` order: each non-increasing tuple of grid
    values, placed along ``order``.  No row is tested, so the work is the
    rows returned."""
    position = sorted(range(len(order)), key=order.__getitem__)
    return sorted(
        tuple(map(values.__getitem__, position))
        for values in combinations_with_replacement(grid[::-1], len(order))
    )


def _first_reports(rule, rows: Iterable[tuple], own: tuple[int, ...] | None = None) -> list:
    """The first of the value ``rows`` in each report class under ``rule``,
    in their order: each row's class is taken under her fixed ranking
    ``own`` (public rankings), or else under the row's own ranking."""
    firsts: dict = {}
    for row in rows:
        firsts.setdefault(rule(ranking_order(row) if own is None else own, row), row)
    return list(firsts.values())


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
    pool: Sequence,
) -> tuple[dict, list[tuple[frozenset[int], object]]]:
    """Her bundle for each report class (:func:`_report_class`) as she
    submits each report of ``pool``, the others' rows fixed, and the
    distinct bundles in order of first appearance, each paired with the
    first report reaching it.  Each class is allocated once, at its first
    report, as every report of a class reaches one bundle.  A
    public-rankings pool holds only rows consistent with her ranking, so
    every report keeps the rankings of ``rows``; when the mechanism reads no
    row of hers under them (``_Spec.rows_read_under``), one allocation
    answers for the pool: the table of classes is empty, and every report
    reaches that one bundle, her truthful one."""
    n, m = len(rows), len(rows[0])
    orders, rows = [ranking_order(row) for row in rows], list(rows)
    if model == PUBLIC_RANKINGS and player not in _SPECS[mech.name].rows_read_under(orders):
        return {}, [(_allocate(mech, orders, rows, n, m)[player], pool[0])]
    report_class = _report_class(mech, player)
    by_class: dict = {}
    reached: dict[frozenset[int], object] = {}
    for report in pool:
        _submit(model, orders, rows, player, report)
        key = report_class(orders[player], rows[player])
        if key not in by_class:
            bundle = by_class[key] = _allocate(mech, orders, rows, n, m)[player]
            reached.setdefault(bundle, report)
    return by_class, list(reached.items())


def _report_class(mech: Mechanism, player: int):
    """What the allocation reads of her report, as a function of her order
    and row: her order, and if it reads her row, the row's class under that
    order (``_Spec.row_class``)."""
    spec = _SPECS[mech.name]
    if player in spec.rows_read:
        row_class = spec.row_class
        return lambda order, row: (order, row_class(order, row))
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
    # With no classes one allocation answered for the pool: her truthful bundle.
    truthful = by_class.get(_report_class(mech, player)(own, true_row), reached[0][0])
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
    instance with values from ``grid``; ``budget``, an int of at least 1,
    bounds the instances.

    Counts (instance, player) pairs admitting a profitable misreport and
    keeps the first witness in ``product`` order of the instances, players
    in index order within one.

    The instances are not scanned one by one.  A verdict is decided once
    for each searched player, each combination of the other players'
    classes (the module docstring's class rule) and each true row of hers.
    Each class stands for its first row in ``product`` order, and the
    verdict counts once for every instance of the combination, the product
    of the class sizes.  That product of row sets has the representatives
    as its least instance in ``product`` order, which is lexicographic in
    the rows, so the least (instance, player) among violating
    representatives is the first witness a full scan finds.  Her true rows
    share one pool, or with public rankings one per ranking of hers, built
    once from the grid, and the reach step, which also gives her truthful
    bundle, runs once per combination and pool, with a true row of the
    pool's ranking in her slot.  The pool's verdicts are decided once per
    distinct reach outcome (the pool and her bundle for each report class)
    and kept for this call only: how many of her true rows gain, and the
    least of them, whose instance is the least violating one of each
    combination giving that outcome.  Only the ranking pools (ordinal,
    cardinal) are refused past ``ENUM_LIMIT`` items.
    """
    if isinstance(budget, bool) or not isinstance(budget, int) or budget < 1:
        raise ValueError(f"budget must be an integer of at least 1, got {budget!r}")
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
    # The grid rows grouped by each class rule in use, keyed by whether it
    # reads the row: each class the list of its rows in ``product`` order.
    # With nobody searched there are no rows and no pool, so the sweep
    # passes ENUM_LIMIT.
    rules = {i in spec.rows_read: _report_class(mech, i) for i in range(n)}
    groups: dict = {read: {} for read in rules}
    for row in product(grid, repeat=m) if searched else ():
        order = ranking_order(row)
        for read, rule in rules.items():
            groups[read].setdefault(rule(order, row), []).append(row)
    sizes = {read: [(rows[0], len(rows)) for rows in g.values()] for read, g in groups.items()}
    classes = [sizes[i in spec.rows_read] for i in range(n)]  # (first row, size)

    # Each searched rule's pools, each with a true row for her slot: with
    # public rankings one per ranking of hers, otherwise one.  A pool of
    # rows holds the first report of each class among them: of the rows
    # her ranking admits, in ``_ranked_rows`` order, or of the cardinal
    # pool, in ``_pool`` order.
    pools = {}
    for read in {i in spec.rows_read for i in searched}:
        rule, firsts = rules[read], [rows[0] for rows in groups[read].values()]
        if model == PUBLIC_RANKINGS:
            pools[read] = [
                (_first_reports(rule, _ranked_rows(grid, own), own), row)
                for own, row in {ranking_order(row): row for row in firsts}.items()
            ]
        else:
            pool = _pool(model, m, product(grid, repeat=m), None)
            pools[read] = [(pool if model == ORDINAL else _first_reports(rule, pool), firsts[0])]
    # Each true row's bundle values, summed once for the whole sweep where
    # the row can be scored again: by a second combination of the others'
    # classes or a second searched player.  Otherwise each table is built
    # where it is used, so a one-player sweep holds one at a time.
    others_vary = any(len(classes[i]) > 1 for i in range(n) if i not in searched)
    if len(searched) > 1 or others_vary:
        grouped = next(iter(groups.values())).values()
        table = {row: _Values(row) for rows in grouped for row in rows}.__getitem__
    else:
        table = _Values

    violations, first = 0, None
    for player in searched:
        mine, facts = groups[player in spec.rows_read], pools[player in spec.rows_read]
        # Per reach outcome: how many of the pool's true rows gain, and the
        # least of them with its first gaining report and both values.
        verdicts: dict = {}
        for others in product(*classes[:player], *classes[player + 1 :]):
            count = prod(size for _, size in others)
            reps = tuple(row for row, _ in others)
            for index, (pool, own_row) in enumerate(facts):
                group_rows = reps[:player] + (own_row,) + reps[player:]
                by_class, reached = _reachable(mech, model, group_rows, player, pool)
                outcome = (index, *by_class.values())
                verdict = verdicts.get(outcome)
                if verdict is None:
                    hits, least = 0, None
                    for key, bundle in by_class.items():
                        for true_row in mine.get(key, ()):
                            gains = _gains(table(true_row), bundle, reached)
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
