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

Every search goes through ``_reachable``: the distinct bundles a player
obtains by submitting each report of a pool in turn (``mechanisms._submit``
says what a report replaces in each model), the others' reports fixed, in
order of first appearance and each with the first report reaching it.
Scanning that list stops at the same report as scanning the pool, because
every report before the first profitable one reaches a bundle worth no more
than the truthful one.  What a player can reach never depends on her own
true values, only on her index, the others' rankings, those of the
others' rows the mechanism reads (its ``rows_read``; none for a
value-oblivious mechanism, and every ordinal-model mechanism is one) and,
with public rankings, her own true ranking, which fixes her pool.  The grid
sweep builds the list once per such key, so its cost grows with the
distinct keys, not with instances times misreports.  Her truthful bundle is
fixed by the key and her own true row, so her verdict (whether she gains,
with which first report, and both values) is fixed by the key and her true
row; the sweep decides it once per such pair whenever the mechanism leaves
some row unread (reading every row, the pair is the whole instance).  With
public rankings a report replaces only the player's row, so a player whose
row the mechanism never reads reaches only her truthful bundle: the sweep
skips her, and the per-instance search takes her true row as its pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from typing import Iterable, Sequence

from .instance import (
    BUDGET,
    EnumerationLimitError,
    Instance,
    Ranking,
    Value,
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


def _check_enum(m: int) -> None:
    if m > ENUM_LIMIT:
        raise EnumerationLimitError(
            f"exhaustive ranking enumeration needs m <= {ENUM_LIMIT}, got m = {m}"
        )


def _validate_misreports(misreports, m: int) -> list[tuple[Value, ...]]:
    rows = []
    for row in misreports:
        row = tuple(row)
        if len(row) != m:
            raise ValueError(f"misreport row must have {m} values, got {len(row)}")
        for v in row:
            if v < 0:
                raise ValueError("misreport values must be nonnegative")
        rows.append(row)
    return rows


def _reachable(
    mech: Mechanism,
    model: str,
    orders: Sequence[tuple[int, ...]],
    rows: Sequence[Sequence[Value]],
    player: int,
    pool: Iterable,
    seed: int = 0,
) -> list[tuple[frozenset[int], object]]:
    """The distinct bundles ``player`` obtains by submitting each report of
    ``pool`` in turn, the others' orders and rows fixed, in order of first
    appearance and each paired with the first report reaching it.  A
    public-rankings pool holds only rows consistent with her ranking.  A
    value-oblivious mechanism's outcome per ranking profile comes from the
    allocator's own memo, so reports sharing a ranking cost one lookup."""
    n, m = len(rows), len(rows[0])
    orders, rows = list(orders), list(rows)
    reached: dict[frozenset[int], object] = {}
    for report in pool:
        _submit(model, orders, rows, player, report)
        bundle = _allocate(mech, orders, rows, n, m, seed)[player]
        reached.setdefault(bundle, report)
    return list(reached.items())


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
    seed: int,
) -> DeviationReport:
    """Best report for ``player``, the others truthful; the witness is the
    first report reaching the best value.  The ordinal pool is every ranking.
    A row pool is the true row, the supplied rows, every permutation of the
    true row and one strict-ranking representative row for each of the m!
    rankings, less, with public rankings, the rows inconsistent with her
    ranking (those leave her with her true row, already first).  With public
    rankings and her row unread, the pool is her true row alone, the
    supplied rows still validated."""
    _check_defined(mech, model, inst.n, inst.m)
    unread = model == PUBLIC_RANKINGS and player not in _SPECS[mech.name].rows_read
    if not unread:
        _check_enum(inst.m)
    inst._check_player(player)
    true_row = inst.values[player]
    orders = [ranking_order(row) for row in inst.values]
    if model == ORDINAL:
        pool = (Ranking(perm) for perm in permutations(range(inst.m)))
    else:
        supplied = _validate_misreports(misreports, inst.m)
        pool = [tuple(true_row)] if unread else dict.fromkeys([
            tuple(true_row),
            *supplied,
            *permutations(true_row),
            *permutations(range(inst.m, 0, -1)),
        ])
        if model == PUBLIC_RANKINGS:
            pool = [r for r in pool if _consistent_with_order(r, orders[player])]
    truthful = _allocate(mech, orders, inst.values, inst.n, inst.m, seed)
    t_val = sum(true_row[j] for j in truthful[player])
    best, witness = t_val, None
    for bundle, report in _reachable(mech, model, orders, inst.values, player, pool, seed):
        val = sum(true_row[j] for j in bundle)
        if val > best:
            best, witness = val, report
    return DeviationReport(
        player, model, t_val, best, witness, _search_complete(mech, model)
    )


def deviation_search_ordinal(
    mech: Mechanism, inst: Instance, player: int, seed: int = 0
) -> DeviationReport:
    """Try every ranking the player could submit, others truthful."""
    return _deviation_search(mech, ORDINAL, inst, player, (), seed)


def deviation_search_cardinal(
    mech: Mechanism,
    inst: Instance,
    player: int,
    misreports: Iterable[Sequence[Value]] = (),
    seed: int = 0,
) -> DeviationReport:
    """Try the supplied rows plus the built-in pool (permutations of the true
    row and one representative row per strict ranking)."""
    return _deviation_search(mech, CARDINAL, inst, player, misreports, seed)


def deviation_search_public(
    mech: Mechanism,
    inst: Instance,
    player: int,
    misreports: Iterable[Sequence[Value]] = (),
    seed: int = 0,
) -> DeviationReport:
    """Like the cardinal search, but the player's ranking is public: a
    misreport inconsistent with it is replaced by her true row."""
    return _deviation_search(mech, PUBLIC_RANKINGS, inst, player, misreports, seed)


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
    seed: int = 0,
) -> GridVerification:
    """Enumerate every instance with values from ``grid`` and run the
    applicable deviation search for every player.

    Counts (instance, player) pairs admitting a profitable misreport and
    keeps the first witness in enumeration order.

    The distinct bundles a player can reach are listed once per key (her
    index, the others' rankings, those of the others' rows in the
    mechanism's ``rows_read``, and her own ranking with public rankings; see
    the module docstring).  The cardinal pool is the same for every
    instance, since every permutation of a true row already lies in
    ``grid**m``.  Each (instance, player) pair then sums its true row over
    that list and stops at the first strict gain, whose first report is the
    one a scan of the whole pool would stop at, so the witness is unchanged.
    A verdict is fixed by (key, true row), so when the mechanism leaves some
    row unread it is decided once per such pair and reused; a mechanism
    reading every row gives each instance its own pair, so its verdicts are
    not kept.  With public rankings a player outside ``rows_read`` is
    skipped, since no report of hers moves her bundle; when no player is
    left, no instance is scanned.  The truthful allocation is made only for
    an instance where some player's verdict is not yet known.  Instances are
    still scanned in enumeration order, so the first witness is the same.
    Ranking orders and value-oblivious outcomes come from the memos of
    :func:`~mmsfair.instance.ranking_order` and the allocator, which every
    caller shares.  Only the ordinal and cardinal pools hold the ``m!``
    rankings, so only they are refused past ``ENUM_LIMIT`` items.
    """
    _check_defined(mech, model, n, m)
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    grid = tuple(sorted(set(grid)))
    if not grid:
        raise ValueError("grid must be nonempty")
    for v in grid:
        if v < 0:
            raise ValueError("grid values must be nonnegative")

    total = len(grid) ** (n * m)
    if total > budget:
        raise EnumerationLimitError(
            f"grid sweep needs {total} instances, over the budget of {budget}"
        )

    if _SPECS[mech.name].ignores_reports:
        # The allocation never reads the reports, so no misreport can matter.
        return GridVerification(
            mechanism=str(mech),
            model=model,
            n=n,
            m=m,
            grid=grid,
            instances=total,
            violations=0,
            witness=None,
            complete=True,
            certificate="input-oblivious: the allocation ignores all reports",
        )

    if model != PUBLIC_RANKINGS:
        _check_enum(m)
    rows_space = list(product(grid, repeat=m))
    if model == ORDINAL:
        pool = [Ranking(perm) for perm in permutations(range(m))]
    elif model == CARDINAL:
        pool = list(dict.fromkeys([*rows_space, *permutations(range(m, 0, -1))]))
    # With public rankings the pool is the grid rows consistent with the
    # player's own ranking, shared by every key holding that ranking.
    consistent: dict[tuple[int, ...], list[tuple[Value, ...]]] = {}

    rows_read = _SPECS[mech.name].rows_read
    players = [p for p in range(n) if model != PUBLIC_RANKINGS or p in rows_read]
    keep = len(rows_read) < n
    complete = _search_complete(mech, model, grid)

    reach: dict = {}
    # Kept when some row is unread: (key, true row) -> None or (report, t_val, val).
    verdicts: dict = {}
    violations = 0
    witness = None

    for inst_rows in product(rows_space, repeat=n) if players else ():
        true_orders = tuple(ranking_order(row) for row in inst_rows)
        truthful = None
        for player in players:
            own = true_orders[player] if model == PUBLIC_RANKINGS else None
            key = (
                player,
                true_orders[:player] + (own,) + true_orders[player + 1 :],
                tuple([inst_rows[i] for i in rows_read if i != player]) if rows_read else (),
            )
            true_row = inst_rows[player]
            if keep and (key, true_row) in verdicts:
                gain = verdicts[key, true_row]
            else:
                reachable = reach.get(key)
                if reachable is None:
                    if own is not None:
                        pool = consistent.get(own)
                        if pool is None:
                            pool = consistent[own] = [
                                r for r in rows_space if _consistent_with_order(r, own)
                            ]
                    reachable = reach[key] = _reachable(
                        mech, model, true_orders, inst_rows, player, pool, seed
                    )
                truthful = truthful or _allocate(mech, true_orders, inst_rows, n, m, seed)
                t_val = sum(true_row[j] for j in truthful[player])
                gain = None
                for bundle, report in reachable:
                    val = sum(true_row[j] for j in bundle)
                    if val > t_val:
                        gain = (report, t_val, val)
                        break
                if keep:
                    verdicts[key, true_row] = gain
            if gain is not None:
                violations += 1
                if witness is None:
                    witness = GridWitness(tuple(inst_rows), player, *gain)
    return GridVerification(
        mechanism=str(mech),
        model=model,
        n=n,
        m=m,
        grid=grid,
        instances=total,
        violations=violations,
        witness=witness,
        complete=complete,
    )
