"""Monte-Carlo harness for the uniform random mechanism on random values.

Each trial draws every player's item values i.i.d. from her distribution on
[0, 1], assigns every item uniformly at random, and records each player's
total ``Y_i`` together with the success event that every player clears
``rho * v_i(M) / n``.  This is the one corner of the package that uses
floating point; all randomness derives from (seed, chunk index) through
numpy's public ``Generator`` API, so results are bit-for-bit reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # numpy is imported by the one function that runs trials
    import numpy as np


@dataclass(frozen=True)
class ContinuousUniform01:
    """Uniform on [0, 1]; mean 1/2."""

    @property
    def mean(self) -> float:
        return 0.5

    def sample(self, rng: np.random.Generator, size: int | tuple) -> np.ndarray:
        return rng.random(size)

    def __str__(self):
        return "uniform"


@dataclass(frozen=True)
class DiscreteUniform:
    """Uniform over ``levels`` evenly spaced points covering [0, 1]; mean 1/2.
    numpy's ``integers`` draws below at most ``2**63``, the most levels."""

    levels: int
    RULE = "K must be an integer from 2 to 2**63"

    def __post_init__(self):
        if not 2 <= self.levels <= 2**63:
            raise ValueError(self.RULE)

    @property
    def mean(self) -> float:
        return 0.5

    def sample(self, rng: np.random.Generator, size: int | tuple) -> np.ndarray:
        return rng.integers(0, self.levels, size) / (self.levels - 1)

    def __str__(self):
        return f"discrete:{self.levels}"


@dataclass(frozen=True)
class Bernoulli:
    """Value 1 with probability ``p``, else 0; mean ``p`` (must be positive)."""

    p: float
    RULE = "P must be a number in (0, 1]"

    def __post_init__(self):
        if not 0 < self.p <= 1:
            raise ValueError(self.RULE)

    @property
    def mean(self) -> float:
        return self.p

    def sample(self, rng: np.random.Generator, size: int | tuple) -> np.ndarray:
        return (rng.random(size) < self.p).astype(float)

    def __str__(self):
        return f"bernoulli:{self.p}"


_PARAMETERS = {"discrete": (DiscreteUniform, int), "bernoulli": (Bernoulli, float)}


def parse_distribution(spec: str):
    """Parse 'uniform', 'discrete:K', or 'bernoulli:P'.  A ``K`` or ``P``
    that does not parse or is out of range is refused, before any draw, by
    one message naming ``spec``."""
    if spec == "uniform":
        return ContinuousUniform01()
    kind, colon, arg = spec.partition(":")
    if not colon or kind not in _PARAMETERS:
        raise ValueError(f"unknown distribution {spec!r}")
    dist, parse = _PARAMETERS[kind]
    try:
        return dist(parse(arg))
    except ValueError:
        raise ValueError(f"distribution {spec!r}: {dist.RULE}") from None


# On a 2-core x86 host a chunk costs 20 to 40 us before its values (its
# seeding and owners call), shared by its trials, and a value 9 to 14 ns
# from draw to total; a trial is charged 2,000 draws.  Each run of equal
# players makes one sample call a chunk, 1 to 2 us (uniform, bernoulli) or
# 7 to 16 us (discrete:7), so a player is charged at least 600 draws, as if
# no two neighbours were equal: 83,330 players of one item, the most one
# trial admits, take 0.8 to 1.3 s alternating discrete:7 and discrete:5,
# and 0.04 to 0.24 s all discrete:7.  The limit keeps a run within about
# 2 s and one trial's value array within 400 MB.
_TRIAL_DRAWS = 2000
_PLAYER_DRAWS = 600
_DRAW_LIMIT = 5 * 10**7
# Trials are drawn and summed a chunk at a time; a chunk holds about this
# many values (128 KB), or one trial when a trial alone holds more.  The
# chunk size decides which generator draws each trial, so changing it
# changes every output.
_BLOCK_VALUES = 2**14


def _check_draws(n: int, m: int, trials: int) -> None:
    draws = trials * (n * max(m, 1) + _TRIAL_DRAWS)
    if draws > _DRAW_LIMIT:
        raise ValueError(
            f"{trials} x {n} x {m} values count {draws} draws with "
            f"{_TRIAL_DRAWS} a trial, over the limit of {_DRAW_LIMIT}"
        )
    # The values alone first; then each player is charged at least
    # _PLAYER_DRAWS for her sample call, which only raises the count.
    draws = trials * (n * max(m, _PLAYER_DRAWS) + _TRIAL_DRAWS)
    if draws > _DRAW_LIMIT:
        raise ValueError(
            f"{trials} trials of {n} players count {draws} draws with at least "
            f"{_PLAYER_DRAWS} a player, over the limit of {_DRAW_LIMIT}"
        )


_RHO_RULE = "rho must be in [0, 1)"


@dataclass(frozen=True)
class MCConfig:
    n: int
    m: int
    distributions: tuple  # one distribution per player
    rho: float
    trials: int
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.m < 0:
            raise ValueError("need n >= 1 and m >= 0")
        if len(self.distributions) != self.n:
            raise ValueError("need one distribution per player")
        if not 0 <= self.rho < 1:
            raise ValueError(_RHO_RULE)
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if type(self.seed) is not int or self.seed < 0:  # bool too
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        _check_draws(self.n, self.m, self.trials)
        for d in self.distributions:
            if d.mean <= 0:
                raise ValueError("every distribution needs a positive mean")


def mc_config(
    n: int,
    m: int,
    distribution,
    rho: float,
    trials: int,
    seed: int = 0,
) -> MCConfig:
    """Config with the same distribution for every player.  ``rho`` may be
    exact; it is checked before ``float``, which overflows past 1e308."""
    _check_draws(n, m, trials)
    if not 0 <= rho < 1:
        raise ValueError(_RHO_RULE)
    return MCConfig(
        n=n,
        m=m,
        distributions=tuple(distribution for _ in range(n)),
        rho=float(rho),
        trials=trials,
        seed=seed,
    )


@dataclass(frozen=True)
class MCResult:
    trials: int
    success_rate: float
    means: tuple[float, ...]  # per-player average of Y_i
    variances: tuple[float, ...]  # per-player sample variance of Y_i
    thresholds: tuple[float, ...]  # a_i = (rho*m*mean_i + rho*m**0.75)/n

    @property
    def failure_rate(self) -> float:
        return 1.0 - self.success_rate


def _totals(cfg: MCConfig):
    """Each player's received total and row sum in each trial, as two
    ``(n, trials)`` arrays, drawn as :func:`montecarlo_randomized` says."""
    import numpy as np

    n, m, trials = cfg.n, cfg.m, cfg.trials
    chunk = max(1, _BLOCK_VALUES // (n * max(m, 1)))
    values = np.empty((n, chunk, m))
    players = np.arange(n)[:, None, None]
    totals = np.empty((n, trials))
    row_sums = np.empty((n, trials))
    runs = [(d, len(list(run))) for d, run in groupby(cfg.distributions)]
    for c, start in enumerate(range(0, trials, chunk)):
        size = min(chunk, trials - start)
        rng = np.random.default_rng((cfg.seed, c))
        i = 0
        for d, k in runs:  # one sample call per run of equal players
            values[i : i + k] = d.sample(rng, (k, chunk, m))
            i += k
        owners = rng.integers(0, n, size=(chunk, m))
        received = values * (owners == players)
        totals[:, start : start + size] = np.add.reduce(received, axis=2)[:, :size]
        row_sums[:, start : start + size] = np.add.reduce(values, axis=2)[:, :size]
    return totals, row_sums


def montecarlo_randomized(cfg: MCConfig) -> MCResult:
    """Run the trials and aggregate totals, success rate, and thresholds.

    Chunk ``c`` holds trials ``c * C`` to ``c * C + C - 1``, where ``C`` is
    ``max(1, _BLOCK_VALUES // (n * max(m, 1)))``, and draws from
    ``np.random.default_rng((seed, c))``: each player's ``(C, m)`` values by
    that player's distribution's ``sample``, players in order, then the
    ``(C, m)`` owners by ``integers(0, n)``.  A run of ``k`` consecutive
    players with equal distributions draws its values by one ``(k, C, m)``
    call, which reads the same stream as ``k`` calls (numpy keeps the spare
    half of a 64-bit word for 32-bit draws in the bit generator).  Every chunk is drawn whole, so
    a trial's draws do not depend on how many trials run.  A player's total
    is the row summed with the other players' items zeroed, by one reduction
    a chunk, and a player's totals lie contiguous, so their mean and
    variance are pairwise sums.
    """
    import numpy as np

    n, m, trials = cfg.n, cfg.m, cfg.trials
    totals, row_sums = _totals(cfg)
    needed = cfg.rho * row_sums / n
    successes = np.all(totals >= needed, axis=0)
    variances = totals.var(axis=1, ddof=1) if trials > 1 else np.zeros(n)
    thresholds = tuple(
        cfg.rho * (m * d.mean + m**0.75) / n for d in cfg.distributions
    )
    return MCResult(
        trials=trials,
        success_rate=float(successes.mean()),
        means=tuple(float(x) for x in totals.mean(axis=1)),
        variances=tuple(float(x) for x in variances),
        thresholds=thresholds,
    )
