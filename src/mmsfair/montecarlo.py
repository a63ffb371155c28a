"""Monte-Carlo harness for the uniform random mechanism on random values.

Each trial draws every player's item values i.i.d. from her distribution on
[0, 1], assigns every item uniformly at random, and records each player's
total ``Y_i`` together with the success event that every player clears
``rho * v_i(M) / n``.  This is the one corner of the package that uses
floating point; all randomness derives from (seed, trial index), so results
are bit-for-bit reproducible and independent of evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # numpy is imported by the one function that runs trials
    import numpy as np


@dataclass(frozen=True)
class ContinuousUniform01:
    """Uniform on [0, 1]; mean 1/2."""

    @property
    def mean(self) -> float:
        return 0.5

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.random(size)

    def __str__(self):
        return "uniform"


@dataclass(frozen=True)
class DiscreteUniform:
    """Uniform over ``levels`` evenly spaced points covering [0, 1]; mean 1/2."""

    levels: int

    def __post_init__(self):
        if self.levels < 2:
            raise ValueError("discrete uniform needs at least 2 levels")

    @property
    def mean(self) -> float:
        return 0.5

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.integers(0, self.levels, size) / (self.levels - 1)

    def __str__(self):
        return f"discrete:{self.levels}"


@dataclass(frozen=True)
class Bernoulli:
    """Value 1 with probability ``p``, else 0; mean ``p`` (must be positive)."""

    p: float

    def __post_init__(self):
        if not 0 < self.p <= 1:
            raise ValueError("bernoulli needs p in (0, 1]")

    @property
    def mean(self) -> float:
        return self.p

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return (rng.random(size) < self.p).astype(float)

    def __str__(self):
        return f"bernoulli:{self.p}"


def parse_distribution(spec: str):
    """Parse 'uniform', 'discrete:K', or 'bernoulli:P'."""
    if spec == "uniform":
        return ContinuousUniform01()
    if spec.startswith("discrete:"):
        return DiscreteUniform(int(spec.split(":", 1)[1]))
    if spec.startswith("bernoulli:"):
        return Bernoulli(float(spec.split(":", 1)[1]))
    raise ValueError(f"unknown distribution {spec!r}")


# A trial's own generator takes as long as about 2,000 draws (20 us against
# 3 to 10 ns a draw).  Each player's sample call costs 2.5 to 10 us a trial
# whatever m is (uniform to discrete:7, fitted over 200 players with one item
# each on a 2-core x86 host, where a value costs 13 to 15 ns from draw to
# total), so a player is charged at least 600 draws.  The limit keeps a run
# of three players within about 2 s and one trial's value array within
# 400 MB.
_TRIAL_DRAWS = 2000
_PLAYER_DRAWS = 600
_DRAW_LIMIT = 5 * 10**7
# Trials are summed a block at a time; a block holds about this many values
# (128 KB), or one trial when a trial alone holds more.  Blocks of 2**16
# values ran no faster on the README command and raised its peak memory by
# about 1 MB.
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
            raise ValueError("rho must be in [0, 1)")
        if self.trials < 1:
            raise ValueError("need at least one trial")
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
    """Config with the same distribution for every player."""
    _check_draws(n, m, trials)
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


def montecarlo_randomized(cfg: MCConfig) -> MCResult:
    """Run the trials and aggregate totals, success rate, and thresholds.

    Trial ``t`` draws from its own generator, seeded ``(seed, t)``: each
    player's ``m`` values in player order, then the ``m`` owners.  The draws
    of up to ``_BLOCK_VALUES`` values' worth of trials are written into one
    block, and the block is summed at once: the row sums by one reduction,
    the owner masks by one comparison, and each player's received total by
    one reduction of the items the player received, compressed to a
    contiguous run in item order.  So every total is the same pairwise sum a
    trial-at-a-time loop takes, bit for bit, and memory stays at one block
    whatever the number of trials.
    """
    import numpy as np

    n, m, trials = cfg.n, cfg.m, cfg.trials
    block = max(1, min(trials, _BLOCK_VALUES // (n * max(m, 1))))
    values = np.empty((block, n, m))
    owners = np.empty((block, m), dtype=np.int64)
    players = np.arange(n)[:, None]
    totals = np.empty((trials, n))
    row_sums = np.empty((trials, n))
    for start in range(0, trials, block):
        size = min(block, trials - start)
        for j in range(size):
            rng = np.random.default_rng((cfg.seed, start + j))
            for i, d in enumerate(cfg.distributions):
                values[j, i] = d.sample(rng, m)
            owners[j] = rng.integers(0, n, size=m)
        np.add.reduce(values[:size], axis=2, out=row_sums[start : start + size])
        masks = owners[:size, None] == players
        # np.extract takes the same elements as values[masks], faster.  Each
        # run is reduced alone: bincount or a zero-padded sum would round
        # differently.
        mine = np.extract(masks, values[:size])
        ends = np.cumsum(masks.sum(axis=2).ravel()).tolist()
        totals[start : start + size].flat = [
            np.add.reduce(mine[a:b]) for a, b in zip([0] + ends, ends)
        ]
    needed = cfg.rho * row_sums / n
    successes = np.all(totals >= needed, axis=1)
    means = totals.mean(axis=0)
    if trials > 1:
        variances = totals.var(axis=0, ddof=1)
    else:
        variances = np.zeros(n)
    thresholds = tuple(
        cfg.rho * (m * d.mean + m**0.75) / n for d in cfg.distributions
    )
    return MCResult(
        trials=trials,
        success_rate=float(successes.mean()),
        means=tuple(float(x) for x in means),
        variances=tuple(float(x) for x in variances),
        thresholds=thresholds,
    )
