"""Exhaustive search for profitable unilateral misreports.

A mechanism is immune to misreports when no player can strictly raise the
true value of her bundle by deviating alone.  The ordinal model's report
space is the ``m!`` rankings; the cardinal and public-rankings models take
value rows, an infinite space searched through a finite pool.  A search is
complete (``search_complete``, ``GridVerification.complete``) when the model
is ordinal, when the mechanism is value-oblivious (every row pool holds one
row per ranking, and with public rankings her ranking is fixed), or, with
public rankings, when the pool is every row over a grid that reaches every
decision the mechanism takes (:func:`grid_covers_decisions`).
``_search_complete`` is that rule, for the per-instance searches and the
grid sweep alike.

Both searches draw their reports from one rule, ``_pool``: every ranking in
the ordinal model; in the cardinal model the candidate rows plus one strict
row per ranking; with public rankings the candidate rows consistent with
her ranking.  The grid sweep's candidate rows are the grid's rows; a
per-instance search's are her true row and the supplied rows, plus every
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
step too.  Scanning the distinct bundles (``_gains``) stops at the same
report as scanning the pool, because every report before the first
profitable one reaches a bundle worth no more than the truthful one.

A player's verdict (whether she gains, with which first report, and both
values) depends on her own true row and, for each other player, only on
that player's class: her ranking, plus her row itself when the mechanism
reads it (``rows_read``; none for a value-oblivious mechanism, and every
ordinal-model mechanism is one).  The grid sweep decides each verdict once,
on the first row of each class, and counts it for every instance the
classes hold.  With public rankings a report replaces only the player's
row, so a player whose row the mechanism never reads reaches only her
truthful bundle and the sweep does not search her.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
    _submit,
    value_oblivious,
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
            if not isinstance(v, (int, Fraction)):
                raise ValueError(f"misreport value {v!r} is not rational")
            if v < 0:
                raise ValueError("misreport values must be nonnegative")
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
    by_class: dict = {}
    reached: dict[frozenset[int], object] = {}
    for report in pool:
        _submit(model, orders, rows, player, report)
        bundle = _allocate(mech, orders, rows, n, m)[player]
        by_class[_report_class(mech, player, orders[player], rows[player])] = bundle
        reached.setdefault(bundle, report)
    return by_class, list(reached.items())


def _report_class(mech: Mechanism, player: int, order, row):
    """What the allocation reads of her report: her order, and her row if read."""
    return (order, row) if player in _SPECS[mech.name].rows_read else order


def _gains(true_row: Sequence[Value], truthful: frozenset[int], reached: list):
    """Her truthful value, then lazily each reached ``(value, report)`` worth more."""
    t_val = sum(map(true_row.__getitem__, truthful))
    yield t_val
    for bundle, report in reached:
        val = sum(map(true_row.__getitem__, bundle))
        if val > t_val:
            yield val, report


def grid_covers_decisions(mech: Mechanism, grid: Sequence[Value]) -> bool:
    """Whether rows drawn from ``grid`` reach every decision the mechanism
    can take, making a row search over the grid exhaustive."""
    spec = _SPECS[mech.name]
    if not spec.rows_read:
        return True
    return spec.grid_decides is not None and spec.grid_decides(grid)


def _search_complete(mech: Mechanism, model: str, grid: Sequence[Value] = ()) -> bool:
    """The module docstring's completeness rule; ``grid`` is given when the
    pool is every row over it (the empty grid reaches no decision)."""
    return (
        model == ORDINAL
        or value_oblivious(mech)
        or (model == PUBLIC_RANKINGS and grid_covers_decisions(mech, grid))
    )


def _deviation_search(
    mech: Mechanism,
    model: str,
    inst: Instance,
    player: int,
    misreports: Iterable[Sequence[Value]],
) -> DeviationReport:
    """Best report for ``player``, the others truthful; the witness is the
    first report reaching the best value.  The pool follows the module
    docstring's rule: her true row, the supplied rows, and every permutation
    of her true row (cardinal) or her strict row (public rankings), so with
    public rankings it is what her ranking leaves of the cardinal pool.
    Only the ranking pools (ordinal, cardinal) are held to m <= 8."""
    _check_defined(mech, model, inst.n, inst.m)
    inst._check_player(player)
    true_row = inst.values[player]
    own = ranking_order(true_row)
    supplied = _validate_misreports(misreports, inst.m)
    extra = (
        permutations(true_row)
        if model == CARDINAL
        else [tuple(inst.m - own.index(j) for j in range(inst.m))]
    )
    pool = _pool(model, inst.m, chain([true_row], supplied, extra), own)
    by_class, reached = _reachable(mech, model, inst.values, player, pool)
    truthful = by_class[_report_class(mech, player, own, true_row)]
    gains = _gains(true_row, truthful, reached)
    t_val = next(gains)
    best, witness = max(gains, key=itemgetter(0), default=(t_val, None))
    return DeviationReport(
        player, model, t_val, best, witness, _search_complete(mech, model)
    )


def deviation_search_ordinal(
    mech: Mechanism, inst: Instance, player: int
) -> DeviationReport:
    """Try every ranking the player could submit, others truthful."""
    return _deviation_search(mech, ORDINAL, inst, player, ())


def deviation_search_cardinal(
    mech: Mechanism,
    inst: Instance,
    player: int,
    misreports: Iterable[Sequence[Value]] = (),
) -> DeviationReport:
    """Try the supplied rows plus the built-in pool (permutations of the true
    row and one representative row per strict ranking)."""
    return _deviation_search(mech, CARDINAL, inst, player, misreports)


def deviation_search_public(
    mech: Mechanism,
    inst: Instance,
    player: int,
    misreports: Iterable[Sequence[Value]] = (),
) -> DeviationReport:
    """Like the cardinal search, but the player's ranking is public: a
    misreport inconsistent with it is replaced by her true row."""
    return _deviation_search(mech, PUBLIC_RANKINGS, inst, player, misreports)


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
    representatives is the first witness a full scan finds.  The reach
    step, which also gives her truthful bundle, runs once per combination
    and, with public rankings, per ranking of hers; each pool is built
    once.  Only the ranking pools (ordinal, cardinal) are refused past
    ``ENUM_LIMIT`` items.
    """
    _check_defined(mech, model, n, m)
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    grid = tuple(sorted(set(grid)))
    if not grid:
        raise ValueError("grid must be nonempty")
    for v in grid:
        if not isinstance(v, (int, Fraction)):
            raise ValueError(f"grid value {v!r} is not rational")
        if v < 0:
            raise ValueError("grid values must be nonnegative")

    total = _enumeration_size(
        len(grid), n * m, budget, "grid sweep needs {} instances, over the budget of {}"
    )
    # One grid value makes one instance of n * m values, all still searched:
    # they are held to what two values reach, as the count above holds more.
    if n * m > (most := budget.bit_length() - 1):
        raise EnumerationLimitError(
            f"grid sweep over {n} x {m} values is over the limit of {most} "
            f"values that a two-value grid reaches within the budget of {budget}"
        )
    spec = _SPECS[mech.name]
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
    singles = [(row, 1) for row in rows_space]
    classes = [singles if i in spec.rows_read else ranked for i in range(n)]

    pools: dict = {}
    violations, first = 0, None
    for player in searched:
        for others in product(*classes[:player], *classes[player + 1 :]):
            count = prod(size for _, size in others)
            reps = tuple(row for row, _ in others)
            reach: dict = {}
            for true_row in rows_space:
                own = ranking_order(true_row)
                inst_rows = reps[:player] + (true_row,) + reps[player:]
                fixed = own if model == PUBLIC_RANKINGS else None
                if fixed not in reach:
                    if fixed not in pools:
                        pools[fixed] = _pool(model, m, rows_space, fixed)
                    reach[fixed] = _reachable(
                        mech, model, inst_rows, player, pools[fixed]
                    )
                by_class, reached = reach[fixed]
                truthful = by_class[_report_class(mech, player, own, true_row)]
                gains = _gains(true_row, truthful, reached)
                t_val, gain = next(gains), next(gains, None)
                if gain is not None:
                    violations += count
                    found = (inst_rows, player, gain[1], t_val, gain[0])
                    first = min(first or found, found, key=itemgetter(0, 1))
    certificate = "input-oblivious: the allocation ignores all reports"
    return GridVerification(
        str(mech), model, n, m, grid, total, violations,
        GridWitness(*first) if first else None,
        _search_complete(mech, model, grid),
        certificate if spec.ignores_reports else None,
    )
