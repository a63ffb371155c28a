"""Monte-Carlo harness for the uniform random mechanism on random values.

Each trial draws every player's item values i.i.d. from her distribution on
[0, 1], assigns every item uniformly at random, and records each player's
total ``Y_i`` together with the success event that every player clears
``rho * v_i(M) / n``.  This is the one corner of the package that uses
floating point; all randomness derives from (seed, trial index), so results
are bit-for-bit reproducible and independent of evaluation order.
"""

from __future__ import annotations

import operator
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
    """Uniform over ``levels`` evenly spaced points covering [0, 1]; mean 1/2."""

    levels: int

    def __post_init__(self):
        if self.levels < 2:
            raise ValueError("discrete uniform needs at least 2 levels")

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

    def __post_init__(self):
        if not 0 < self.p <= 1:
            raise ValueError("bernoulli needs p in (0, 1]")

    @property
    def mean(self) -> float:
        return self.p

    def sample(self, rng: np.random.Generator, size: int | tuple) -> np.ndarray:
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


# A trial costs about 5.5 us before its values, as long as 550 to 1,800
# draws at 3 to 10 ns a draw (one player with no items, on a 2-core x86
# host; 9 us while its owners came from an integers call): about 2.5 us to
# seed and reset its generator, under 1 us to draw its owner words, the
# rest decoding them and its loop.  It is still charged 2,000 draws.  A
# player whose distribution differs from the previous player's makes a
# sample call of her own, 2.5 to 10 us a trial whatever m is (uniform to
# discrete:7, fitted over 200 players with one item each, where a value
# costs 13 to 15 ns from draw to total; its (1, m) shape costs about 1.5 us
# more than a flat draw), so a player is charged at least 600 draws,
# although a run of equal players shares one call.  The limit keeps a run
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


# numpy's SeedSequence (numpy/random/bit_generator.pyx), whose output NEP 19
# keeps fixed across numpy versions: four pool words, the hash constants
# that mix entropy into them, and those that draw state words from them.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier (O'Neill, PCG 2014, as numpy's pcg64.h).
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _pcg64_states(seed: int, trials) -> list[tuple[int, int]]:
    """The PCG64 ``(state, inc)`` of ``np.random.default_rng((seed, t))``
    for each trial index ``t`` of the array ``trials``, each below 2**32.

    The ``SeedSequence`` pass runs on ``uint32`` arrays, one element a
    trial; the entropy is the 32-bit words of ``seed``, low first, then
    ``t``.  Its four 64-bit state words seed the 128-bit LCG as
    ``pcg_setseq_128_srandom_r`` does, in Python ints.
    """
    import numpy as np

    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    t = np.asarray(trials, dtype=np.uint32)
    entropy = [
        np.full(t.shape, seed >> s & 0xFFFFFFFF, dtype=np.uint32)
        for s in range(0, max(seed.bit_length(), 1), 32)
    ] + [t]

    def hasher(const, mult):
        # numpy's hashmix: each call advances the hash constant once.
        def hashmix(x):
            nonlocal const
            x = x ^ np.uint32(const)
            const = const * mult & 0xFFFFFFFF
            x = x * np.uint32(const)
            return x ^ x >> np.uint32(16)

        return hashmix

    def mix(x, y):
        x = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return x ^ x >> np.uint32(16)

    hashmix = hasher(_INIT_A, _MULT_A)
    zero = np.zeros(t.shape, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    draw = hasher(_INIT_B, _MULT_B)
    words = np.stack([draw(pool[i % _POOL]) for i in range(8)], axis=1)
    # generate_state(4, uint64) reads the words as little-endian pairs.
    state_words = words.astype("<u4").view("<u8")
    mask = 2**128 - 1
    states = []
    for a, b, c, d in state_words.tolist():
        inc = ((c << 64 | d) << 1 | 1) & mask
        states.append((((inc + (a << 64 | b)) * _PCG_MULT + inc) & mask, inc))
    return states


# Distributions whose draws read whole 64-bit words, so they never leave a
# 32-bit half pending as an integer draw of 32 bits can.
_WHOLE_WORDS = (ContinuousUniform01, Bernoulli)


def _lemire_owners(words, spare, n: int, m: int):
    """The ``m`` owners ``Generator.integers(0, n, size=m)`` draws from each
    row of raw PCG64 ``words`` (``uint64``), with the rejections to check.

    numpy draws a range below 2**32 by Lemire's bounded method (Lemire,
    ACM TOMACS 2019) from 32-bit halves, the low half of a word first and
    a pending half, ``spare`` (-1 when none), before both: a half ``u``
    gives ``prod = u * n``, the owner is ``prod >> 32``, and the draw is
    rejected when ``prod``'s low 32 bits are below ``(2**32 - n) % n``.
    numpy then reads the next half instead, so from a row's first rejected
    draw on its owners differ from numpy's.  Returns the owners (``int64``)
    and the rejected draws (``bool``), both of shape ``(rows, m)``.
    """
    import numpy as np

    draws = words.astype("<u8", copy=False).view("<u4")[:, :m].astype(np.uint64)
    ahead = spare >= 0
    first = spare[ahead, None].astype(np.uint64)
    draws[ahead] = np.concatenate([first, draws[ahead]], axis=1)[:, :m]
    prod = draws * np.uint64(n)
    owners = (prod >> np.uint64(32)).view(np.int64)
    rejected = (prod & np.uint64(0xFFFFFFFF)) < np.uint64((2**32 - n) % n)
    return owners, rejected


def montecarlo_randomized(cfg: MCConfig) -> MCResult:
    """Run the trials and aggregate totals, success rate, and thresholds.

    Trial ``t`` draws from the stream of ``np.random.default_rng((seed,
    t))``: each player's ``m`` values in player order, then the ``m``
    owners.  Every trial's PCG64 state is computed up front by
    :func:`_pcg64_states`, a vectorized copy of numpy's ``SeedSequence``
    (its constants are numpy's, from ``bit_generator.pyx``) followed by
    PCG64's 128-bit seeding (O'Neill's ``pcg_setseq_128_srandom_r``); one
    generator is then reset to each state in turn.  Each run of consecutive
    players with equal distributions draws its values in one call, which
    reads the stream in the same order as one call a player.

    The owners are not drawn by ``rng.integers(0, n, size=m)``: a trial
    takes the ``(m + 1) // 2`` raw words that call would read at most (none
    when ``n == 1``, as ``integers(0, 1)`` reads none), and
    :func:`_lemire_owners` decodes a block of them at once by numpy's
    bounded rule.  A distribution that draws 32-bit integers may leave
    half a word pending, which numpy's owners read first, so unless every
    distribution reads whole words (``uniform`` and ``bernoulli`` do) the
    trial reads that half from the generator's state.  A trial with a
    rejected owner draw (probability under ``n / 2**32`` a draw) is redone
    the generator's way: reset, sample, then ``integers``.

    The draws of up to ``_BLOCK_VALUES`` values' worth of trials are written
    into one block, and the block is summed at once: the row sums by one
    reduction, the owner masks by one comparison, and each player's received
    total by one reduction of the items the player received, compressed to a
    contiguous run in item order.  So every total is the same pairwise sum a
    trial-at-a-time loop takes, bit for bit, and memory stays at one block
    of values and a few hundred bytes a trial for its seed and totals.
    """
    import numpy as np

    n, m, trials = cfg.n, cfg.m, cfg.trials
    seeds = _pcg64_states(cfg.seed, np.arange(trials))
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    pcg = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    runs = []  # (rows, shape, distribution) of each run of equal players
    first = 0
    for d, group in groupby(cfg.distributions):
        k = len(list(group))
        runs.append((slice(first, first + k), (k, m), d))
        first += k
    block = max(1, min(trials, _BLOCK_VALUES // (n * max(m, 1))))
    values = np.empty((block, n, m))
    # integers(0, 1) reads no words, and a zero word decodes to owner 0.
    owner_words = (m + 1) // 2 if n > 1 else 0
    words = np.zeros((block, (m + 1) // 2), dtype=np.uint64)
    spare = np.full(block, -1, dtype=np.int64)
    read_spare = not all(isinstance(d, _WHOLE_WORDS) for d in cfg.distributions)
    players = np.arange(n)[:, None]
    totals = np.empty((trials, n))
    row_sums = np.empty((trials, n))

    def sample(j, t):
        pcg["state"], pcg["inc"] = seeds[t]
        bit_generator.state = state
        for rows, shape, d in runs:
            values[j, rows] = d.sample(rng, shape)

    for start in range(0, trials, block):
        size = min(block, trials - start)
        for j in range(size):
            sample(j, start + j)
            if read_spare:
                half = bit_generator.state
                spare[j] = half["uinteger"] if half["has_uint32"] else -1
            words[j, :owner_words] = bit_generator.random_raw(owner_words)
        owners, rejected = _lemire_owners(words[:size], spare[:size], n, m)
        for j in np.flatnonzero(rejected.any(axis=1)).tolist():
            # numpy draws again after a rejection: redo the trial its way.
            sample(j, start + j)
            owners[j] = rng.integers(0, n, size=m)
        np.add.reduce(values[:size], axis=2, out=row_sums[start : start + size])
        masks = owners[:, None] == players
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
