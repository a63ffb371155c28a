"""Problem instances with exact rational valuations.

An instance is an ``n x m`` grid of nonnegative rational values, one row per
player and one column per item.  All arithmetic on these values is exact:
values are Python ``int`` or ``fractions.Fraction`` objects, never floats.
Items are indexed ``0..m-1`` internally (the command line prints them
1-based).
"""

from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NoReturn, Sequence, Union

Value = Union[int, Fraction]
_RATIONAL = (int, Fraction)  # the types of a Value, for isinstance

_TOKEN_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")


# The fixed limit of every exhaustive enumeration: grid sweeps (by default),
# the adversary's allocations and the nodes of a maximin-share search or of
# cut-and-choose's cut.
BUDGET = 1_000_000


class EnumerationLimitError(ValueError):
    """The request would enumerate more than the search can afford."""


def _enumeration_size(base: int, exp: int, limit: int, message: str) -> int:
    """``base ** exp``, the size of an enumeration, when it is at most
    ``limit``; otherwise :class:`EnumerationLimitError` with ``message``
    formatted with the size and the limit.  The power has at least
    ``exp * (base.bit_length() - 1) + 1`` bits, so past the limit's bit
    length it is refused without being computed, and a size that may pass
    4,096 bits is written ``base**exp``.

    >>> _enumeration_size(2, 10**12, 10**6, "{} over {}")
    Traceback (most recent call last):
    ...
    mmsfair.instance.EnumerationLimitError: 2**1000000000000 over 1000000
    """
    if base < 2 or exp * (base.bit_length() - 1) < limit.bit_length():
        size = base**exp
        if size <= limit:
            return size
    written = base**exp if exp * base.bit_length() <= 4096 else f"{base}**{exp}"
    raise EnumerationLimitError(message.format(written, limit))


def _check_rational(v, what: str, negative: str | None = None) -> Value:
    """``v`` if an int or a Fraction, not below 0 when ``negative`` is given,
    else a one-line ValueError; a float is refused, as 0.55 is not 11/20."""
    if not isinstance(v, _RATIONAL):
        raise ValueError(f"{what} {v!r} is not rational")
    if negative is not None and v < 0:
        raise ValueError(negative)
    return v


def _check_index(v, what: str) -> int:
    """``v`` as an int if :func:`operator.index` takes it (a numpy integer
    too), else a one-line ValueError naming it: ``2.0`` is not an index."""
    try:
        return operator.index(v)
    except TypeError:
        raise ValueError(f"{what} {v!r} is not an integer") from None


def _item_set(items: Iterable[int], m: int) -> list[int]:
    """The sorted distinct indices of ``items``, each checked by
    :func:`_check_index` and to lie in ``range(m)``."""
    subset = sorted({_check_index(j, "item index") for j in items})
    for j in subset:
        if not 0 <= j < m:
            raise IndexError(f"item index {j} out of range [0, {m})")
    return subset


class MechanismError(ValueError):
    """Mechanism/model mismatch or invalid mechanism input."""


class InstanceError(ValueError):
    """Malformed instance data; carries the offending line number if known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class Instance:
    """A fair-division instance: one row of exact item values per player.
    The rows are stored as tuples before they are checked, so they cannot
    change after the checks, and list rows equal and hash like tuple rows."""

    values: tuple[tuple[Value, ...], ...]

    def __post_init__(self):
        values = tuple(map(tuple, self.values))
        object.__setattr__(self, "values", values)
        if not values:
            raise InstanceError("an instance needs at least one player")
        m = len(values[0])
        for row in values:
            if len(row) != m:
                _refuse_rows(values)
            for v in row:
                if not isinstance(v, _RATIONAL) or v < 0:
                    _refuse_rows(values)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[Value]]) -> "Instance":
        """The instance of ``rows``, any iterable of iterables of values."""
        return cls(rows)

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def m(self) -> int:
        return len(self.values[0])

    def value(self, player: int, items: Iterable[int]) -> Value:
        """Exact sum of ``player``'s values over the set ``items``, a repeated
        item counted once (:func:`_item_set`); the empty set is 0."""
        self._check_player(player)
        row = self.values[player]
        return sum((row[j] for j in _item_set(items, self.m)), 0)

    def _check_player(self, player: int) -> None:
        if not 0 <= _check_index(player, "player index") < self.n:
            raise IndexError(f"player index {player} out of range [0, {self.n})")


def _refuse_rows(values) -> NoReturn:
    """Raise the :class:`InstanceError` for the first fault of ``values`` in
    row-major order: a row of the wrong length, then each value that is not
    rational or is negative, in that order at one index."""
    m = len(values[0])
    for i, row in enumerate(values):
        if len(row) != m:
            raise InstanceError(f"player {i + 1} has {len(row)} values, expected {m}")
        for j, v in enumerate(row):
            if not isinstance(v, _RATIONAL):
                raise InstanceError(
                    f"value for player {i + 1}, item {j + 1} is not rational"
                )
            if v < 0:
                raise InstanceError(f"negative value for player {i + 1}, item {j + 1}")


@dataclass(frozen=True)
class Ranking:
    """A strict preference order over items, most-preferred first.

    ``order`` is a permutation of ``0..m-1``, kept as a tuple.
    """

    order: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "order", tuple(self.order))
        for j in self.order:
            if type(j) is not int:
                raise ValueError(f"ranking item {j!r} is not an int")
        if sorted(self.order) != list(range(len(self.order))):
            raise ValueError("ranking must be a permutation of the item indices")

    @property
    def m(self) -> int:
        return len(self.order)


@dataclass(frozen=True)
class Allocation:
    """An ordered partition of the items into one bundle per player.

    It is immutable, so one object may be shared, as
    :func:`~mmsfair.mechanisms.run_mechanism` shares one per distinct
    outcome.  Those outcomes are built valid and carry their shape
    ``(n, m)`` outside their fields (no ``repr`` or ``==`` reads it), so
    :func:`~mmsfair.mms.approximation_ratio` does not check them at that
    shape; any other allocation is checked on every rating, and no rating
    writes to it.  A rating reads two memos: each player's term by (row,
    bundle), and each share by the multiset of the row's values.
    """

    bundles: tuple[frozenset[int], ...]

    @classmethod
    def from_bundles(cls, bundles: Iterable[Iterable[int]]) -> "Allocation":
        return cls(tuple(frozenset(b) for b in bundles))

    @property
    def n(self) -> int:
        return len(self.bundles)


def parse_instance(text: str) -> Instance:
    """Parse the instance file format.

    Lines starting with ``#`` are ignored, as are blank lines.  The first data
    line is ``n m``; the next ``n`` lines hold ``m`` whitespace-separated
    values, each an integer ``p`` or a fraction ``p/q`` with ``q > 0``.  With
    ``m = 0`` the rows are blank, so no row line follows the header; ``n``
    is then at most :data:`BUDGET`, as the file no longer bounds it.

    >>> parse_instance("2 3\\n1 1/2 0\\n2/3 1 1").values[0]
    (1, Fraction(1, 2), 0)
    """
    data = list(_data_lines(text.splitlines()))
    if not data:
        raise InstanceError("empty instance: missing 'n m' header")

    header_line, parts = data[0]
    if len(parts) != 2:
        raise InstanceError("header must be two integers 'n m'", header_line)
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise InstanceError("header must be two integers 'n m'", header_line) from None
    if n < 1:
        raise InstanceError("player count must be at least 1", header_line)
    if m < 0:
        raise InstanceError("item count must be nonnegative", header_line)

    body = data[1:]
    if m == 0 and not body:
        if n > BUDGET:
            raise InstanceError(
                f"player count {n} is over the limit of {BUDGET} without value rows",
                header_line,
            )
        return Instance(((),) * n)
    if len(body) != n:
        raise InstanceError(
            f"expected {n} value rows, found {len(body)}",
            body[-1][0] if body else header_line,
        )

    rows = []
    for lineno, tokens in body:
        if len(tokens) != m:
            raise InstanceError(
                f"expected {m} values, found {len(tokens)}", lineno
            )
        rows.append(_value_row(tokens, lineno))

    return Instance(tuple(rows))


def _data_lines(lines: Iterable[str]) -> Iterator[tuple[int, list[str]]]:
    """The 1-based line number and whitespace-separated tokens of each line
    of a text format that is neither blank nor a ``#`` comment."""
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if tokens and not tokens[0].startswith("#"):
            yield lineno, tokens


def _value_row(tokens: Sequence[str], line: int) -> tuple[Value, ...]:
    """A row of values of the text formats, read token by token with
    :func:`parse_value`; a negative value is refused by its token and
    ``line``."""
    row = []
    for tok in tokens:
        value = parse_value(tok, line)
        if value < 0:
            raise InstanceError(f"negative value {tok!r}", line)
        row.append(value)
    return tuple(row)


def parse_value(tok: str, line: int | None = None) -> Value:
    """One rational token of the text formats: an integer ``p`` (returned as
    ``int``) or a fraction ``p/q`` with ``q > 0``.  Anything else, decimals
    and exponents included, raises :class:`InstanceError` naming ``line``.

    >>> parse_value("3"), parse_value("-2/4")
    (3, Fraction(-1, 2))
    """
    match = _TOKEN_RE.match(tok)
    if match is None:
        raise InstanceError(f"malformed value {tok!r}", line)
    num, den = match.groups()
    if den is None:
        return int(num)
    if int(den) == 0:
        raise InstanceError(f"zero denominator in {tok!r}", line)
    return Fraction(int(num), int(den))


def format_instance(inst: Instance) -> str:
    """Render an instance in the file format accepted by :func:`parse_instance`."""
    lines = [f"{inst.n} {inst.m}"]
    for row in inst.values:
        lines.append(" ".join(_format_value(v) for v in row))
    return "\n".join(lines) + "\n"


def _format_value(v: Value) -> str:
    f = Fraction(v)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def derive_ranking(inst: Instance, player: int) -> Ranking:
    """Rank items by value, descending; ties broken by ascending item index.

    This fixed tie-break makes every ranking-based mechanism deterministic.

    >>> derive_ranking(Instance.from_rows([[0, 1, 2]]), 0).order
    (2, 1, 0)
    """
    inst._check_player(player)
    return Ranking(ranking_order(inst.values[player]))


def ranking_order(row: Sequence[Value]) -> tuple[int, ...]:
    """Raw order tuple for a single value row (same tie-break as above: a
    reversed sort is still stable, so equal values keep ascending indices).
    Orders are memoized per row (``_order``); a list row is looked up as its
    tuple, and rows that compare equal, such as an int row and its
    ``Fraction`` twin, share one entry.

    >>> ranking_order((1, 2, 1, 2))
    (1, 3, 0, 2)
    """
    return _order(tuple(row))


@functools.lru_cache(maxsize=4096)
def _order(row: tuple[Value, ...]) -> tuple[int, ...]:
    return tuple(sorted(range(len(row)), key=row.__getitem__, reverse=True))


def validate_allocation(inst: Instance, alloc: Allocation) -> list[str]:
    """Return a list of violations; an empty list means the allocation is valid.

    Checks bundle count, that every item index is an integer, item-index
    range, duplicates, and full coverage.
    """
    violations = []
    n, m = inst.n, inst.m
    if alloc.n != n:
        violations.append(f"expected {n} bundles, found {alloc.n}")
    seen: dict[int, int] = {}
    for b, bundle in enumerate(alloc.bundles):
        for item in bundle:
            try:
                j = operator.index(item)
            except TypeError:
                violations.append(f"item index {item!r} in bundle {b + 1} is not an integer")
                continue
            if not 0 <= j < m:
                violations.append(f"item index {j} out of range in bundle {b + 1}")
            elif j in seen:
                violations.append(
                    f"item {j + 1} assigned to both bundle {seen[j] + 1} and bundle {b + 1}"
                )
            else:
                seen[j] = b
    for j in range(m):
        if j not in seen:
            violations.append(f"item {j + 1} unassigned")
    return violations
