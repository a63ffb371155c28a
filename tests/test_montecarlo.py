import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mmsfair import (
    Bernoulli,
    ContinuousUniform01,
    DiscreteUniform,
    MCConfig,
    MCResult,
    mc_config,
    montecarlo_randomized,
    parse_distribution,
)
from mmsfair.montecarlo import _BLOCK_VALUES, _totals


class TestDistributions:
    def test_parse(self):
        assert isinstance(parse_distribution("uniform"), ContinuousUniform01)
        assert parse_distribution("discrete:5") == DiscreteUniform(5)
        assert parse_distribution("bernoulli:0.3") == Bernoulli(0.3)
        with pytest.raises(ValueError):
            parse_distribution("normal")

    def test_validation(self):
        with pytest.raises(ValueError):
            DiscreteUniform(1)
        with pytest.raises(ValueError):
            Bernoulli(0.0)

    @pytest.mark.parametrize(
        "spec, rule",
        [
            ("discrete:x", "K must be an integer"),
            ("discrete:", "K must be an integer"),
            ("discrete:1", "K must be an integer"),
            ("discrete:9223372036854775809", "K must be an integer"),
            ("discrete:18446744073709551617", "K must be an integer"),
            ("bernoulli:x", "P must be a number"),
            ("bernoulli:0", "P must be a number"),
            ("bernoulli:nan", "P must be a number"),
        ],
    )
    def test_bad_parameter_names_the_spec(self, spec, rule):
        with pytest.raises(ValueError, match=f"^distribution '{spec}': {rule}"):
            parse_distribution(spec)

    def test_most_levels_numpy_draws(self):
        # integers(0, 2**63) is numpy's widest int64 draw; one more is refused
        dist = parse_distribution("discrete:9223372036854775808")
        assert dist == DiscreteUniform(2**63)
        values = dist.sample(np.random.default_rng(0), (2, 3))
        assert values.shape == (2, 3) and ((0 <= values) & (values <= 1)).all()
        with pytest.raises(ValueError, match="2\\*\\*63"):
            DiscreteUniform(2**63 + 1)

    def test_means(self):
        assert ContinuousUniform01().mean == 0.5
        assert DiscreteUniform(3).mean == 0.5
        assert Bernoulli(0.25).mean == 0.25


class TestConfig:
    def test_validation(self):
        dist = ContinuousUniform01()
        with pytest.raises(ValueError):
            mc_config(3, 10, dist, rho=1.0, trials=10)
        with pytest.raises(ValueError):
            mc_config(3, 10, dist, rho=0.5, trials=0)
        with pytest.raises(ValueError):
            MCConfig(n=2, m=3, distributions=(dist,), rho=0.5, trials=5)

    def test_seed_must_be_a_nonnegative_int(self):
        # numpy would refuse -1 only at the first draw, naming no seed
        dist = ContinuousUniform01()
        for seed in (-1, True, 1.5, "3"):
            message = f"seed must be a nonnegative integer, got {seed!r}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                mc_config(2, 10, dist, rho=0.5, trials=3, seed=seed)
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                MCConfig(n=1, m=3, distributions=(dist,), rho=0.5, trials=5, seed=seed)
        assert mc_config(2, 10, dist, rho=0.5, trials=3, seed=2**64 + 7).seed == 2**64 + 7


class TestHarness:
    def test_single_player_always_succeeds(self):
        result = montecarlo_randomized(
            mc_config(1, 20, ContinuousUniform01(), rho=0.99, trials=200, seed=4)
        )
        assert result.success_rate == 1.0

    def test_bit_for_bit_reproducible(self):
        cfg = mc_config(3, 40, DiscreteUniform(4), rho=0.7, trials=300, seed=11)
        a = montecarlo_randomized(cfg)
        b = montecarlo_randomized(cfg)
        assert a == b

    def test_seed_changes_results(self):
        base = mc_config(3, 40, ContinuousUniform01(), rho=0.7, trials=300, seed=0)
        other = mc_config(3, 40, ContinuousUniform01(), rho=0.7, trials=300, seed=1)
        assert montecarlo_randomized(base) != montecarlo_randomized(other)

    def test_threshold_formula(self):
        result = montecarlo_randomized(
            mc_config(3, 100, Bernoulli(0.4), rho=0.5, trials=5, seed=0)
        )
        expected = 0.5 * (100 * 0.4 + 100**0.75) / 3
        assert result.thresholds == (expected,) * 3

    def test_means_near_expectation(self):
        trials = 3000
        result = montecarlo_randomized(
            mc_config(2, 60, ContinuousUniform01(), rho=0.5, trials=trials, seed=2)
        )
        expected = 60 * 0.5 / 2  # m * mean / n
        for i in range(2):
            se = math.sqrt(result.variances[i] / trials)
            assert abs(result.means[i] - expected) < 4 * se

    def test_variance_bounded(self):
        result = montecarlo_randomized(
            mc_config(3, 90, ContinuousUniform01(), rho=0.5, trials=2000, seed=3)
        )
        for var in result.variances:
            assert var <= 90 / 3  # theoretical ceiling m/n, huge slack


def reference_montecarlo(cfg: MCConfig) -> MCResult:
    """Each chunk drawn, then one trial at a time aggregated on its own: the
    loop that ``montecarlo_randomized`` must match bit for bit."""
    n, m = cfg.n, cfg.m
    chunk = max(1, _BLOCK_VALUES // (n * max(m, 1)))
    totals = np.empty((n, cfg.trials))
    successes = np.empty(cfg.trials, dtype=bool)
    for t in range(cfg.trials):
        c, j = divmod(t, chunk)
        if j == 0:
            rng = np.random.default_rng((cfg.seed, c))
            values = [d.sample(rng, (chunk, m)) for d in cfg.distributions]
            owners = rng.integers(0, n, size=(chunk, m))
        received = [np.where(owners[j] == i, values[i][j], 0.0).sum() for i in range(n)]
        needed = [cfg.rho * values[i][j].sum() / n for i in range(n)]
        totals[:, t] = received
        successes[t] = all(r >= x for r, x in zip(received, needed))
    variances = totals.var(axis=1, ddof=1) if cfg.trials > 1 else np.zeros(n)
    return MCResult(
        trials=cfg.trials,
        success_rate=float(successes.mean()),
        means=tuple(float(x) for x in totals.mean(axis=1)),
        variances=tuple(float(x) for x in variances),
        thresholds=tuple(
            cfg.rho * (m * d.mean + m**0.75) / n for d in cfg.distributions
        ),
    )


MIXED = (ContinuousUniform01(), DiscreteUniform(7), Bernoulli(0.3))
RUNS = (
    ContinuousUniform01(),
    ContinuousUniform01(),
    DiscreteUniform(7),
    DiscreteUniform(7),
    DiscreteUniform(7),
    Bernoulli(0.3),
)
EQUALITY_CASES = {
    "mixed-players": MCConfig(n=3, m=40, distributions=MIXED, rho=0.7, trials=90, seed=5),
    "discrete-odd-m": mc_config(3, 301, DiscreteUniform(7), rho=0.8, trials=120, seed=2),
    "no-items": mc_config(2, 0, ContinuousUniform01(), rho=0.5, trials=10, seed=1),
    "one-trial": mc_config(3, 50, Bernoulli(0.4), rho=0.5, trials=1, seed=3),
    "partial-last-block": mc_config(3, 300, ContinuousUniform01(), rho=0.8, trials=300, seed=0),
    "trial-above-block": mc_config(2, 40_000, ContinuousUniform01(), rho=0.8, trials=3, seed=4),
    "seed-above-2**64": mc_config(3, 30, Bernoulli(0.3), rho=0.5, trials=40, seed=2**64 + 7),
    "runs-of-equal-players": MCConfig(n=6, m=301, distributions=RUNS, rho=0.7, trials=30, seed=9),
    # every item goes to the one player
    "one-player": mc_config(1, 50, ContinuousUniform01(), rho=0.9, trials=20, seed=6),
    # a player count that is a power of two
    "power-of-two-players": mc_config(4, 90, DiscreteUniform(5), rho=0.6, trials=50, seed=8),
    # one item a trial: a chunk of 5,461 trials, most of them never used
    "discrete-one-item": mc_config(3, 1, DiscreteUniform(7), rho=0.5, trials=40, seed=10),
    "many-players": mc_config(1000, 3, Bernoulli(0.5), rho=0.5, trials=20, seed=12),
    # 8,193 values a trial, so a chunk of one trial; each player's three
    # 32-bit draws leave a spare half that the next player's draws take
    "many-players-above-block": mc_config(
        2731, 3, DiscreteUniform(7), rho=0.5, trials=3, seed=13
    ),
}


class TestBlockLoop:
    @pytest.mark.parametrize("name", EQUALITY_CASES)
    def test_matches_trial_at_a_time_reference(self, name):
        cfg = EQUALITY_CASES[name]
        assert repr(montecarlo_randomized(cfg)) == repr(reference_montecarlo(cfg))

    def test_cases_reach_the_block_edges(self):
        partial = EQUALITY_CASES["partial-last-block"]
        block = _BLOCK_VALUES // (partial.n * partial.m)
        assert 1 < block < partial.trials and partial.trials % block
        above = EQUALITY_CASES["trial-above-block"]
        assert above.n * above.m > _BLOCK_VALUES and above.trials > 1

    @pytest.mark.parametrize("name", ["partial-last-block", "trial-above-block"])
    def test_first_trials_do_not_depend_on_the_trial_count(self, name):
        cfg = EQUALITY_CASES[name]
        totals, row_sums = _totals(cfg)
        chunk = max(1, _BLOCK_VALUES // (cfg.n * cfg.m))
        for k in {1, chunk - 1, chunk, chunk + 1, cfg.trials - 1} - {0}:
            short_totals, short_row_sums = _totals(replace(cfg, trials=k))
            assert np.array_equal(short_totals, totals[:, :k])
            assert np.array_equal(short_row_sums, row_sums[:, :k])
        one = montecarlo_randomized(replace(cfg, trials=1))
        assert one.means == tuple(totals[:, 0].tolist())

    def test_memory_stays_at_one_block(self):
        # Holding every trial's values at once would take 14.4 MB.  (Under
        # tracemalloc a trial costs about 0.3 ms, so the run is kept short.)
        cfg = mc_config(3, 300, ContinuousUniform01(), rho=0.8, trials=2_000, seed=0)
        tracemalloc.start()
        try:
            montecarlo_randomized(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

