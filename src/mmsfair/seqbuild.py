"""Picking sequences, and the construction of long ones with per-player
pick deadlines.

The construction targets a rate ``alpha = 1 / n**(1/2 + epsilon)``: player
``i`` (1-based) gets her 0th pick at overall position ``i`` and her j-th pick
no later than position ``i + j * floor((n - i + 1) / alpha)``.  Whether a
sequence of length ``m`` with this property exists is checked up front; an
infeasible request is a reported error, never a silent degradation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import NamedTuple

from .adversary import harmonic_number
from .instance import MechanismError


@dataclass(frozen=True)
class PickingSequence:
    """A sequence of player indices; each named player takes her favorite
    remaining item in turn.  A cyclic sequence repeats until the items run
    out; a non-cyclic one must be long enough on its own, and is empty only
    for no items.  ``picks`` is stored as a tuple before it is checked, so it
    cannot change after the check."""

    picks: tuple[int, ...]
    cyclic: bool = False

    def __post_init__(self):
        object.__setattr__(self, "picks", tuple(self.picks))
        if self.cyclic and not self.picks:
            raise MechanismError("a cyclic picking sequence needs at least one pick")


class InfeasibleParams(ValueError):
    """The deadlines cannot all be met: the length bound fails (building
    would need more than ``m`` picks), or ``required`` picks are due by
    position ``deadline < required``."""

    def __init__(self, required: int, m: int, deadline: int | None = None):
        super().__init__(
            f"infeasible parameters: the construction needs "
            f"n + ceil(alpha * H_n * m) = {required} picks but only m = {m} fit"
            if deadline is None
            else f"infeasible parameters: {required} picks are due by position {deadline}"
        )
        self.required = required
        self.m = m


@dataclass(frozen=True)
class SqrtSeqParams:
    """Validated build parameters; ``alpha`` is a rational lower bound for
    ``1 / n**(1/2 + epsilon)`` (rounding down only weakens the target rate,
    so it is always safe)."""

    n: int
    m: int
    epsilon: Fraction
    alpha: Fraction


# Rates are rounded down to a fraction with at most this denominator.
_MAX_DEN = 10**6

# power_lower_rational takes 0.05 s at this exponent denominator, 2 s at 10x.
EXPONENT_DENOMINATOR_LIMIT = 2000

# n * max(n, m) up to this keeps a build within about 1 s: it takes 10 us a
# pick, 30 ns a player per pick, and the exact H_n grows faster than n.
_SIZE_LIMIT = 200_000


class PickPair(NamedTuple):
    player: int  # 0-based
    deadline: int  # 1-based overall pick position


def power_lower_rational(n: int, exponent: Fraction) -> Fraction:
    """Largest fraction ``p/q`` with ``q <= _MAX_DEN`` and ``p/q <= n**-exponent``.

    Walks the Stern-Brocot tree with an exact comparator
    (``p/q <= n**(-a/b)``  iff  ``p**b * n**a <= q**b``), so no floating
    point is involved; ``b`` over :data:`EXPONENT_DENOMINATOR_LIMIT` is
    refused with ``ValueError``.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n == 1 or exponent == 0:
        return Fraction(1)
    if exponent < 0:
        raise ValueError("exponent must be nonnegative")
    a_exp, b_exp = exponent.numerator, exponent.denominator
    if b_exp > EXPONENT_DENOMINATOR_LIMIT:
        raise ValueError(
            f"exponent {_bounded(a_exp)}/{_bounded(b_exp)} has a denominator "
            f"over {EXPONENT_DENOMINATOR_LIMIT}"
        )
    if a_exp * (n.bit_length() - 1) > b_exp * _MAX_DEN.bit_length():
        return Fraction(0)  # n**a > _MAX_DEN**b, and n**a may be too large to form
    n_pow = n**a_exp

    def below(p: int, q: int) -> bool:
        return p**b_exp * n_pow <= q**b_exp

    def advance(bound, step, side):
        """``bound`` plus the most multiples of ``step`` that keep it on
        ``side`` (``True``: below) of the target, within the denominator
        budget; at least one does."""
        lo_k, hi_k = 1, (_MAX_DEN - bound[1]) // step[1]
        while lo_k < hi_k:
            mid = (lo_k + hi_k + 1) // 2
            if below(bound[0] + mid * step[0], bound[1] + mid * step[1]) == side:
                lo_k = mid
            else:
                hi_k = mid - 1
        return bound[0] + lo_k * step[0], bound[1] + lo_k * step[1]

    lo, hi = (0, 1), (1, 1)  # lo <= target < hi (the target is < 1)
    while lo[1] + hi[1] <= _MAX_DEN:
        if below(lo[0] + hi[0], lo[1] + hi[1]):  # the mediant is still below
            lo = advance(lo, hi, True)
        else:
            hi = advance(hi, lo, False)
    return Fraction(*lo)


def _bounded(x: int | Fraction) -> str:
    """``x`` exactly while its terms fit in 64 bits (about 20 digits), else
    to four significant digits, such as ``1.000e+1000``."""
    if max(x.numerator, x.denominator).bit_length() <= 64:
        return str(x)
    return f"{Decimal(x.numerator) / Decimal(x.denominator):.3e}"


def sqrt_seq_params(n: int, m: int, epsilon: Fraction) -> SqrtSeqParams:
    if n < 1:
        raise ValueError("n must be at least 1")
    if m < 0:
        raise ValueError("m must be nonnegative")
    if n * max(n, m) > _SIZE_LIMIT:
        raise ValueError(
            f"n * max(n, m) = {n * max(n, m)} is over the limit of {_SIZE_LIMIT}"
        )
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    alpha = power_lower_rational(n, Fraction(1, 2) + epsilon)
    if alpha == 0:  # no deadline spacing exists at a zero rate
        raise ValueError(
            f"epsilon {_bounded(epsilon)} too large: "
            f"n**-(1/2 + epsilon) is below 1/{_MAX_DEN}"
        )
    return SqrtSeqParams(n=n, m=m, epsilon=epsilon, alpha=alpha)


def length_bound(params: SqrtSeqParams) -> int:
    """Left side of the feasibility check: ``n + ceil(alpha * H_n * m)``."""
    return params.n + math.ceil(params.alpha * harmonic_number(params.n) * params.m)


def _deadline_step(n: int, i: int, alpha: Fraction) -> int:
    """Spacing between consecutive deadlines of 1-based player ``i``."""
    return math.floor(Fraction(n - i + 1) / alpha)


def _pair_count(params: SqrtSeqParams, i: int) -> int:
    """How many pairs 1-based player ``i`` gets: ``j_max + 1`` for
    ``j_max = floor(alpha * (m - i) / (n - i + 1))``, and none when it is
    negative."""
    n, m, alpha = params.n, params.m, params.alpha
    return max(0, math.floor(alpha * (m - i) / (n - i + 1)) + 1)


def _pair_schedule(params: SqrtSeqParams) -> list[PickPair]:
    """All (player, deadline) pairs, sorted by deadline, ties by player."""
    n, alpha = params.n, params.alpha
    pairs = []
    for i in range(1, n + 1):
        step = _deadline_step(n, i, alpha)
        for j in range(_pair_count(params, i)):
            pairs.append(PickPair(player=i - 1, deadline=i + j * step))
    pairs.sort(key=lambda p: (p.deadline, p.player))
    return pairs


def build_sqrt_sequence(params: SqrtSeqParams) -> PickingSequence:
    """Emit a non-cyclic sequence of length exactly ``m`` meeting every
    deadline: the sorted pair players form the prefix, remaining picks are
    padded round-robin over ascending players, skipping any player whose
    extra pick would land past her next deadline.  Parameters that fail the
    length bound, or whose k-th sorted pair is due before position k (then
    no order meets every deadline), raise :class:`InfeasibleParams`.

    A single player needs no deadline bookkeeping and is always feasible:
    one pick per item, none for no items.
    """
    n, m = params.n, params.m
    if n == 1:
        return PickingSequence((0,) * m)
    required = length_bound(params)
    if required > m:
        raise InfeasibleParams(required, m)
    pairs = _pair_schedule(params)
    for k, pair in enumerate(pairs, start=1):  # deadlines are <= m: at most m pairs
        if pair.deadline < k:
            raise InfeasibleParams(k, m, pair.deadline)
    picks = [p.player for p in pairs]
    occurrences = [0] * n
    for p in picks:
        occurrences[p] += 1
    steps = [_deadline_step(n, i, params.alpha) for i in range(1, n + 1)]
    cursor = 0
    while len(picks) < m:
        position = len(picks) + 1
        chosen = None
        for offset in range(n):
            cand = (cursor + offset) % n
            if cand + 1 + occurrences[cand] * steps[cand] >= position:
                chosen = cand
                break
        if chosen is None:  # no player can absorb another pick in time
            raise InfeasibleParams(required, m)
        picks.append(chosen)
        occurrences[chosen] += 1
        cursor = (chosen + 1) % n
    return PickingSequence(tuple(picks))


class PickViolation(NamedTuple):
    player: int  # 0-based
    occurrence: int  # j >= 0, counted from the player's first pick
    position: int  # 1-based actual position
    bound: int  # latest allowed position


def verify_pick_positions(
    seq: PickingSequence, n: int, alpha: Fraction
) -> list[PickViolation]:
    """Check every occurrence of every player against her deadline; returns
    all violations (empty list = sequence is on schedule)."""
    if seq.cyclic:
        raise MechanismError("pick-position verification needs a non-cyclic sequence")
    alpha = Fraction(alpha)
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    occurrences: dict[int, int] = {}
    violations = []
    for pos, player in enumerate(seq.picks, start=1):
        j = occurrences.get(player, 0)
        occurrences[player] = j + 1
        i = player + 1
        bound = i + j * _deadline_step(n, i, alpha)
        if pos > bound:
            violations.append(
                PickViolation(player=player, occurrence=j, position=pos, bound=bound)
            )
    return violations


class DemandViolation(NamedTuple):
    player: int  # 0-based
    occurrence: int
    demand: int
    deadline: int


def verify_schedule_demand(params: SqrtSeqParams) -> list[DemandViolation]:
    """Numeric check that no deadline is oversubscribed: for every generated
    pair of player ``i`` and index ``j``, the number of generated pairs due by
    that deadline ``d = i + j*step_i``, counting player ``l``'s deadlines
    ``l + k*step_l`` only up to her last pair ``k = j_max_l``,
    ``sum_l min(j_max_l + 1, floor((d - l) / step_l) + 1)`` over ``l <= d``,
    must fit inside the deadline itself."""
    n, alpha = params.n, params.alpha
    steps = [_deadline_step(n, i, alpha) for i in range(1, n + 1)]
    counts = [_pair_count(params, i) for i in range(1, n + 1)]
    violations = []
    for i in range(1, n + 1):
        for j in range(counts[i - 1]):
            deadline = i + j * steps[i - 1]
            demand = sum(
                min(count, (deadline - l) // step + 1)
                for l, step, count in zip(range(1, deadline + 1), steps, counts)
            )
            if demand > deadline:
                violations.append(
                    DemandViolation(
                        player=i - 1, occurrence=j, demand=demand, deadline=deadline
                    )
                )
    return violations
