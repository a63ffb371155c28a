"""Executable impossibility chains.

Each fixture is a short ordered list of two-player profiles plus deviation
edges: an edge (from, to, player) says that at profile ``from`` the named
player could report the row she holds in profile ``to``.  Running a chain
against a mechanism either catches it under-delivering the fixture's
threshold at some profile (APPROX-FAILURE), catches a strictly profitable
deviation along an edge (MANIPULABLE), or reports that the mechanism evades
the chain (CONSISTENT).

The fixtures instantiate their symbolic gap as ``epsilon = 1/10`` by
default; any value inside the fixture's admissible range may be requested.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .instance import (
    Instance, InstanceError, _check_rational, _data_lines, _value_row, derive_ranking, parse_value
)
from .mechanisms import (
    CARDINAL,
    MODELS,
    ORDINAL,
    PUBLIC_RANKINGS,
    Mechanism,
    MechanismError,
    models_for,
    run_mechanism,
)
from .mms import _player_ratios
from .seqbuild import InfeasibleParams

APPROX_FAILURE = "approx-failure"
MANIPULABLE = "manipulable"
CONSISTENT = "consistent"

Row = tuple[Fraction, ...]
Profile = tuple[Row, Row]


@dataclass(frozen=True)
class ChainFixture:
    """An impossibility chain: profiles, deviation edges, and the
    approximation threshold the argued-about mechanisms would have to meet
    in ``model``.  A built-in chain's ``premise`` says from each profile's
    bundle sizes whether its argument covers a mechanism; a file has none.
    Profiles, rows and edges are stored as tuples, fixed before the checks."""

    name: str
    epsilon: Fraction
    threshold: Fraction
    model: str
    profiles: tuple[Profile, ...]
    deviation_edges: tuple[tuple[int, int, int], ...]  # (from, to, player), 0-based
    premise: Callable | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "profiles", tuple(tuple(map(tuple, p)) for p in self.profiles))
        object.__setattr__(self, "deviation_edges", tuple(map(tuple, self.deviation_edges)))
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        if not self.profiles:
            raise ValueError("a fixture needs at least one profile")
        m = len(self.profiles[0][0])
        for p, profile in enumerate(self.profiles):
            if len(profile) != 2 or any(len(row) != m for row in profile):
                raise ValueError(f"profile {p + 1} is not a 2 x {m} matrix")
            try:
                Instance.from_rows(profile)
            except InstanceError as exc:
                raise ValueError(f"profile {p + 1}: {exc}") from None
        _check_rational(self.epsilon, "epsilon")
        _check_rational(self.threshold, "threshold")
        for src, dst, player in self.deviation_edges:
            if not (
                0 <= src < len(self.profiles)
                and 0 <= dst < len(self.profiles)
                and player in (0, 1)
            ):
                raise ValueError(
                    f"edge ({src + 1}, {dst + 1}, player {player + 1}) out of range"
                )
            if problem := _edge_row_error(self.profiles, src, dst, player):
                raise ValueError(problem)

    @property
    def m(self) -> int:
        return len(self.profiles[0][0])

    def instance(self, index: int) -> Instance:
        return Instance.from_rows(self.profiles[index])


def _edge_row_error(
    profiles: Sequence[Profile], src: int, dst: int, player: int
) -> str | None:
    """Why an in-range edge is no deviation by ``player``: it must change her
    row and only hers.  ``None`` when it is one."""
    if profiles[src][1 - player] != profiles[dst][1 - player]:
        change = "the other player's row"
    elif profiles[src][player] == profiles[dst][player]:
        change = "no row"
    else:
        return None
    return f"edge ({src + 1}, {dst + 1}, player {player + 1}) changes {change}"


def _fixture_two_two(e: Fraction):
    """Six profiles over value multisets {2-e, 1+e, 1-e, e/2} and
    {2+e, 1+e, 1-e, e/2} (per-player shares 2 -+ e/2) that corner any
    cardinal mechanism handing two items to each player."""
    hi, lo = 2 + e, 2 - e
    up, dn, tiny = 1 + e, 1 - e, e / 2
    profiles = (
        ((lo, up, dn, tiny), (lo, up, dn, tiny)),
        ((lo, up, dn, tiny), (tiny, hi, dn, up)),
        ((up, lo, dn, tiny), (tiny, hi, dn, up)),
        ((up, lo, dn, tiny), (up, hi, dn, tiny)),
        ((up, dn, lo, tiny), (lo, up, dn, tiny)),
        ((up, dn, lo, tiny), (up, hi, dn, tiny)),
    )
    edges = ((1, 0, 1), (1, 2, 0), (3, 2, 1), (0, 4, 0), (5, 4, 1), (5, 3, 0))
    return Fraction(1, 2) + e, CARDINAL, profiles, edges


def _fixture_one_three(e: Fraction):
    """Chain closing the one-item-to-a-player case in the cardinal model; it
    ends at an all-ones row whose owner can then be kept below half her
    share."""
    lo = 2 - e
    up, dn, tiny = 1 + e, 1 - e, e / 2
    one = Fraction(1)
    profiles = (
        ((lo, up, dn, tiny), (lo, up, dn, tiny)),
        ((lo, up, dn, tiny), (tiny, lo, up, dn)),
        ((dn, lo, tiny, dn), (tiny, lo, up, dn)),
        ((dn, lo, tiny, dn), (lo, up, dn, tiny)),
        ((dn, lo, tiny, up), (dn, tiny, lo, up)),
        ((up, dn, lo, tiny), (dn, tiny, lo, up)),
        ((up, dn, lo, tiny), (lo, up, dn, tiny)),
        ((one, one, one, one), (lo, up, dn, tiny)),
    )
    edges = (
        (1, 0, 1),
        (1, 2, 0),
        (3, 2, 1),
        (4, 5, 0),
        (6, 5, 1),
        (0, 7, 0),
        (3, 7, 0),
        (6, 7, 0),
    )
    return Fraction(1, 2) + e, CARDINAL, profiles, edges


def _fixture_pr_m6(e: Fraction):
    """Five public-rankings profiles on six commonly-ranked items (shares 3
    or 1 per row) bounding what a truthful mechanism can reach there."""
    one = Fraction(1)
    u = Fraction(1, 5)
    q = Fraction(1, 4)
    ones = (one,) * 6
    spiked = (one, u, u, u, u, u)
    split = (Fraction(7, 10), Fraction(3, 10), q, q, q, q)
    profiles = (
        (ones, ones),
        (spiked, ones),
        (spiked, spiked),
        (ones, spiked),
        (ones, split),
    )
    edges = ((1, 0, 0), (1, 2, 1), (3, 2, 0), (3, 4, 1))
    return Fraction(4, 5) + e, PUBLIC_RANKINGS, profiles, edges


def _fixture_pr_m5(e: Fraction):
    """The five-item public-rankings chain; both halves of the case split on
    who receives the top item are transcribed (they share three profiles)."""
    one = Fraction(1)
    q = Fraction(1, 4)
    ones = (one,) * 5
    spiked = (one, q, q, q, q)
    near = (Fraction(11, 20), Fraction(9, 20), Fraction(17, 50), Fraction(17, 50), Fraction(17, 50))
    flat = (Fraction(1, 2), Fraction(1, 2), Fraction(7, 20), Fraction(33, 100), Fraction(8, 25))
    low = (Fraction(1, 2), Fraction(1, 5), Fraction(1, 5), Fraction(1, 5), Fraction(1, 10))
    profiles = (
        (ones, ones),  # 1
        (spiked, ones),  # 2
        (spiked, spiked),  # 3
        (ones, spiked),  # 4
        (ones, near),  # 5
        (spiked, flat),  # 6
        (low, flat),  # 7
    )
    edges = (
        (1, 0, 0),
        (1, 2, 1),
        (3, 2, 0),
        (3, 4, 1),
        (0, 4, 1),
        (0, 3, 1),
        (3, 0, 1),
        (5, 2, 1),
        (5, 6, 0),
    )
    return Fraction(5, 6) + e, PUBLIC_RANKINGS, profiles, edges


def _fixture_ordinal_m4(e: Fraction):
    """Six ranking profiles on four items for the ordinal model.  Values are
    near-ties realizing the rankings: the item at rank k is worth the k-th
    entry of (1+e, 1+e/2, 1, 1-e), so every row's two-bundle share is
    exactly 2 and a single top item is worth (1+e)/2 of it, under half plus
    epsilon."""
    weights = (1 + e, 1 + e / 2, Fraction(1), 1 - e)

    def row_for(order: Sequence[int]) -> Row:
        row = [Fraction(0)] * 4
        for rank, item in enumerate(order):
            row[item] = weights[rank]
        return tuple(row)

    abcd = (0, 1, 2, 3)
    abdc = (0, 1, 3, 2)
    bdca = (1, 3, 2, 0)
    bacd = (1, 0, 2, 3)
    profiles = (
        (row_for(abcd), row_for(abcd)),
        (row_for(abcd), row_for(abdc)),
        (row_for(abcd), row_for(bdca)),
        (row_for(bacd), row_for(bdca)),
        (row_for(bacd), row_for(bacd)),
        (row_for(bacd), row_for(abcd)),
    )
    edges = ((0, 1, 1), (2, 1, 1), (2, 3, 0), (4, 3, 1), (4, 5, 1), (0, 5, 0))
    return Fraction(1, 2) + e, ORDINAL, profiles, edges


@dataclass(frozen=True)
class _Builtin:
    """One built-in chain: ``build(epsilon)`` gives its (threshold, model,
    profiles, edges); epsilon must lie in (0, ``limit``), or (0, ``limit``]
    when ``inclusive``; ``premise`` is its :attr:`ChainFixture.premise`."""

    build: Callable
    limit: Fraction
    inclusive: bool
    premise: Callable | None = None


# The lemma chains need epsilon strictly below 1/2, otherwise 2 - e and 1 + e
# coincide and distinct profiles collapse.  The two-items-each chain binds
# only mechanisms that split 2+2 on every profile, the one-item chain only
# those that hand a single item to someone somewhere.
_BUILTINS = {
    "lemma-2+2": _Builtin(
        _fixture_two_two, Fraction(1, 2), False,
        premise=lambda sizes: all(size == (2, 2) for size in sizes),
    ),
    "lemma-1+3": _Builtin(
        _fixture_one_three, Fraction(1, 2), False,
        premise=lambda sizes: any(1 in size for size in sizes),
    ),
    "pr-m6": _Builtin(_fixture_pr_m6, Fraction(1, 5), True),
    "pr-m5": _Builtin(_fixture_pr_m5, Fraction(1, 6), True),
    "ordinal-m4": _Builtin(_fixture_ordinal_m4, Fraction(1, 2), True),
}
FIXTURE_NAMES = tuple(_BUILTINS)


def builtin_fixture(name: str, epsilon: Fraction = Fraction(1, 10)) -> ChainFixture:
    """Construct one of the built-in chains at the requested epsilon."""
    if name not in _BUILTINS:
        raise KeyError(f"unknown fixture {name!r}; known: {', '.join(FIXTURE_NAMES)}")
    spec = _BUILTINS[name]
    e = Fraction(_check_rational(epsilon, "epsilon"))
    if not (0 < e and (e <= spec.limit if spec.inclusive else e < spec.limit)):
        bracket = "]" if spec.inclusive else ")"
        raise ValueError(
            f"fixture {name} needs epsilon in (0, {spec.limit}{bracket}, got {e}"
        )
    threshold, model, profiles, edges = spec.build(e)
    return ChainFixture(
        name=name,
        epsilon=e,
        threshold=threshold,
        model=model,
        profiles=profiles,
        deviation_edges=edges,
        premise=spec.premise,
    )


@dataclass(frozen=True)
class ProfileOutcome:
    index: int
    bundles: tuple[tuple[int, ...], ...]
    values: tuple[Fraction, ...]
    shares: tuple[Fraction, ...]
    ratios: tuple[Fraction, ...]  # UNBOUNDED where the share is 0
    meets_threshold: bool


@dataclass(frozen=True)
class EdgeOutcome:
    edge: tuple[int, int, int]
    truthful_value: Fraction
    deviation_value: Fraction
    gain: Fraction

    @property
    def profitable(self) -> bool:
        return self.gain > 0


@dataclass(frozen=True)
class ChainReport:
    fixture: str
    mechanism: str
    model: str
    threshold: Fraction
    profiles: tuple[ProfileOutcome, ...]
    edges: tuple[EdgeOutcome, ...]
    verdict: str
    detail: str


def _reported_for_edge(
    fix: ChainFixture, model: str, src: int, dst: int, player: int
):
    """The misreport object handed to the mechanism for one deviation edge."""
    reported_rows = list(fix.profiles[src])
    reported_rows[player] = fix.profiles[dst][player]
    if model == ORDINAL:
        inst = Instance.from_rows(reported_rows)
        return [derive_ranking(inst, i) for i in range(2)]
    return Instance.from_rows(reported_rows)


def run_chain(fix: ChainFixture, mech: Mechanism, model: str) -> ChainReport:
    """Run a mechanism through every profile and deviation edge of a chain.

    The verdict is APPROX-FAILURE on the first profile where some player's
    ratio drops below the threshold, otherwise MANIPULABLE on the first edge
    whose deviator strictly gains (at her true values), otherwise CONSISTENT.
    A player whose maximin share is 0 has ratio ``UNBOUNDED`` and meets any
    threshold.
    """
    outcomes = []
    failure = None
    for idx in range(len(fix.profiles)):
        inst = fix.instance(idx)
        alloc = run_mechanism(mech, model, inst)
        values, shares, ratios = _player_ratios(inst, alloc)
        below = [i for i in range(2) if shares[i] and ratios[i] < fix.threshold]
        outcomes.append(
            ProfileOutcome(
                index=idx,
                bundles=tuple(tuple(sorted(b)) for b in alloc.bundles),
                values=values,
                shares=shares,
                ratios=ratios,
                meets_threshold=not below,
            )
        )
        if below and failure is None:
            failure = (idx, below[0], ratios[below[0]])

    edge_outcomes = []
    manipulation = None
    for edge in fix.deviation_edges:
        src, dst, player = edge
        inst = fix.instance(src)
        reported = _reported_for_edge(fix, model, src, dst, player)
        alloc = run_mechanism(mech, model, inst, reported)
        d_val = Fraction(inst.value(player, alloc.bundles[player]))
        t_val = outcomes[src].values[player]
        out = EdgeOutcome(
            edge=edge, truthful_value=t_val, deviation_value=d_val, gain=d_val - t_val
        )
        edge_outcomes.append(out)
        if out.profitable and manipulation is None:
            manipulation = (edge, out.gain)

    if failure is not None:
        idx, player, ratio = failure
        verdict = APPROX_FAILURE
        detail = (
            f"profile {idx + 1}: player {player + 1} gets ratio {ratio} "
            f"< threshold {fix.threshold}"
        )
    elif manipulation is not None:
        (src, dst, player), gain = manipulation
        verdict = MANIPULABLE
        detail = (
            f"edge {src + 1}->{dst + 1}: player {player + 1} gains {gain} "
            "by deviating"
        )
    else:
        verdict = CONSISTENT
        detail = "mechanism evades the chain"
    return ChainReport(
        fixture=fix.name,
        mechanism=str(mech),
        model=model,
        threshold=fix.threshold,
        profiles=tuple(outcomes),
        edges=tuple(edge_outcomes),
        verdict=verdict,
        detail=detail,
    )


def fixture_applies(fix: ChainFixture, mech: Mechanism) -> bool:
    """Whether the chain's impossibility argument covers this mechanism: the
    model must match, the mechanism must run at the fixture's dimensions, and
    the fixture's premise, if it has one, must hold (the two-items-each chain
    only binds mechanisms that split 2+2 on every profile; the one-item chain
    only binds mechanisms that hand a single item to someone somewhere)."""
    if fix.model not in models_for(mech):
        return False
    try:
        allocations = [
            run_mechanism(mech, fix.model, fix.instance(i))
            for i in range(len(fix.profiles))
        ]
    except (MechanismError, InfeasibleParams):
        return False
    sizes = [tuple(len(b) for b in alloc.bundles) for alloc in allocations]
    return fix.premise is None or fix.premise(sizes)


def parse_fixture(text: str, name: str = "custom") -> ChainFixture:
    """Parse the fixture text format: optional ``epsilon`` and ``model``
    lines, a ``threshold`` line, ``profile`` blocks of two value rows, and
    ``edge FROM TO PLAYER`` lines (1-based; edges may precede the profiles
    they name).  Values are ``p`` or ``p/q``, as in instance files, and are
    refused as instance values are."""
    threshold = None
    epsilon = Fraction(1, 10)
    model = CARDINAL
    rows: list[tuple[int, Row]] = []  # each profile row, with its line
    edges: list[tuple[int, tuple[int, int, int]]] = []  # each edge, with its line
    opened = None  # index in rows of the open profile's first row

    def close_profile(lineno):
        if opened is not None and len(rows) - opened != 2:
            raise ValueError(
                f"line {lineno}: profile needs exactly 2 rows, got {len(rows) - opened}"
            )

    lines = text.splitlines()
    for lineno, tokens in _data_lines(lines):
        head = tokens[0]
        if head not in ("threshold", "epsilon", "model", "profile", "edge"):
            if opened is None:
                raise ValueError(
                    f"line {lineno}: unexpected content {lines[lineno - 1].strip()!r}"
                )
            rows.append((lineno, tuple(map(Fraction, _value_row(tokens, lineno)))))
            continue
        if head in ("threshold", "epsilon", "model") and len(tokens) < 2:
            raise ValueError(f"line {lineno}: {head} needs a value")
        close_profile(lineno)
        opened = len(rows) if head == "profile" else None
        if head == "threshold":
            threshold = Fraction(parse_value(tokens[1], lineno))
        elif head == "epsilon":
            epsilon = Fraction(parse_value(tokens[1], lineno))
        elif head == "model":
            model = tokens[1]
            if model not in MODELS:
                raise ValueError(f"line {lineno}: unknown model {model!r}")
        elif head == "edge":
            if len(tokens) != 4 or not all(t.isdecimal() for t in tokens[1:]):
                raise ValueError(
                    f"line {lineno}: edge needs FROM TO PLAYER as whole numbers"
                )
            src, dst, player = (int(t) for t in tokens[1:])
            edges.append((lineno, (src - 1, dst - 1, player - 1)))
    close_profile(len(lines))
    if threshold is None:
        raise ValueError("fixture file is missing a threshold line")
    for k, (lineno, row) in enumerate(rows):
        if len(row) != len(rows[0][1]):
            raise ValueError(
                f"line {lineno}: profile {k // 2 + 1} is not a 2 x {len(rows[0][1])} matrix"
            )
    profiles = [(a, b) for (_, a), (_, b) in zip(rows[::2], rows[1::2])]
    limits = (len(profiles), len(profiles), 2)
    for lineno, edge in edges:
        for field, k, limit in zip(("FROM", "TO", "PLAYER"), edge, limits):
            if not 0 <= k < limit:
                raise ValueError(
                    f"line {lineno}: edge {field} {k + 1} out of range [1, {limit}]"
                )
        if problem := _edge_row_error(profiles, *edge):
            raise ValueError(f"line {lineno}: {problem}")
    return ChainFixture(
        name=name,
        epsilon=epsilon,
        threshold=threshold,
        model=model,
        profiles=tuple(profiles),
        deviation_edges=tuple(edge for _, edge in edges),
    )


def format_fixture(fix: ChainFixture) -> str:
    lines = [
        f"epsilon {fix.epsilon}",
        f"model {fix.model}",
        f"threshold {fix.threshold}",
    ]
    for profile in fix.profiles:
        lines.append("profile")
        for row in profile:
            lines.append(" ".join(str(v) for v in row))
    for src, dst, player in fix.deviation_edges:
        lines.append(f"edge {src + 1} {dst + 1} {player + 1}")
    return "\n".join(lines) + "\n"
