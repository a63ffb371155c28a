import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from mmsfair import montecarlo
from mmsfair.montecarlo import _BLOCK_VALUES, _lemire_owners, _pcg64_states


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
    """One trial at a time, each aggregated on its own: the loop that
    ``montecarlo_randomized`` must match bit for bit."""
    n, m = cfg.n, cfg.m
    totals = np.empty((cfg.trials, n))
    successes = np.empty(cfg.trials, dtype=bool)
    for t in range(cfg.trials):
        rng = np.random.default_rng((cfg.seed, t))
        values = np.stack([d.sample(rng, m) for d in cfg.distributions])
        owner = rng.integers(0, n, size=m)
        received = np.array([values[i, owner == i].sum() for i in range(n)])
        needed = cfg.rho * values.sum(axis=1) / n
        totals[t] = received
        successes[t] = bool(np.all(received >= needed))
    variances = totals.var(axis=0, ddof=1) if cfg.trials > 1 else np.zeros(n)
    return MCResult(
        trials=cfg.trials,
        success_rate=float(successes.mean()),
        means=tuple(float(x) for x in totals.mean(axis=0)),
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
    # integers(0, 1) reads no owner words
    "one-player": mc_config(1, 50, ContinuousUniform01(), rho=0.9, trials=20, seed=6),
    # a power of two rejects no draw: its threshold (2**32 - n) % n is 0
    "power-of-two-players": mc_config(4, 90, DiscreteUniform(5), rho=0.6, trials=50, seed=8),
    # three 32-bit value draws leave a half pending, the only owner draw
    "discrete-one-item": mc_config(3, 1, DiscreteUniform(7), rho=0.5, trials=40, seed=10),
    "many-players": mc_config(1000, 3, Bernoulli(0.5), rho=0.5, trials=20, seed=12),
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


def twin(state: dict) -> np.random.Generator:
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = state
    return rng


def halves_read(state: dict, draws: int, n: int) -> bool:
    """Whether ``integers(0, n, size=draws)`` reads exactly one 32-bit half
    a draw: a draw over the full 32-bit range reads one and rejects none."""
    owners, plain = twin(state), twin(state)
    owners.integers(0, n, size=draws)
    plain.integers(0, 2**32, size=draws, dtype=np.uint64)
    return owners.bit_generator.state == plain.bit_generator.state


class TestOwnerDecode:
    # 3,000,000,000 rejects about 30% of its draws, 3 about 2**-32 of them.
    @pytest.mark.parametrize("n", [3, 3_000_000_000])
    @pytest.mark.parametrize("pending", [False, True], ids=["whole-words", "spare-half"])
    def test_matches_integers_up_to_the_first_rejection(self, n, pending):
        m = 41
        firsts = []
        for seed in range(30):
            rng = np.random.default_rng(seed)
            if pending:
                rng.integers(0, 7, size=3)  # three 32-bit draws
            state = rng.bit_generator.state
            assert state["has_uint32"] == pending
            spare = state["uinteger"] if pending else -1
            words = twin(state).bit_generator.random_raw((m + 1) // 2)
            owners, rejected = _lemire_owners(words[None], np.array([spare]), n, m)
            first = int(np.argmax(rejected[0])) if rejected.any() else m
            expected = twin(state).integers(0, n, size=m)
            assert owners[0, :first].tolist() == expected[:first].tolist()
            # numpy read one half a draw up to `first`, and more at `first`
            assert halves_read(state, first, n)
            if first < m:
                assert not halves_read(state, first + 1, n)
            firsts.append(first)
        if n == 3:
            assert firsts == [m] * 30
        else:  # rejected at various draws, never past all 41
            assert max(firsts) < m and len(set(firsts)) > 3

    def test_every_trial_flagged_runs_the_generator_path(self, monkeypatch):
        def reject_all(words, spare, n, m):
            owners, rejected = _lemire_owners(words, spare, n, m)
            return owners + 1, np.ones_like(rejected)

        monkeypatch.setattr(montecarlo, "_lemire_owners", reject_all)
        for name in ("mixed-players", "discrete-odd-m", "partial-last-block"):
            cfg = EQUALITY_CASES[name]
            assert repr(montecarlo_randomized(cfg)) == repr(reference_montecarlo(cfg))


def numpy_state(seed: int, t: int) -> tuple[int, int]:
    state = np.random.default_rng((seed, t)).bit_generator.state["state"]
    return state["state"], state["inc"]


# The README command (3 players, 300 items) holds this many trials a block.
README_BLOCK = _BLOCK_VALUES // (3 * 300)
# 24,999 is above every trial index the draw limit admits (see below).
SEED_TRIALS = (0, 1, README_BLOCK - 1, README_BLOCK, 2 * README_BLOCK, 24_999)


class TestBulkSeeding:
    @pytest.mark.parametrize(
        "seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 7, 2**99 + 12345]
    )
    def test_matches_default_rng(self, seed):
        states = _pcg64_states(seed, np.array(SEED_TRIALS))
        assert states == [numpy_state(seed, t) for t in SEED_TRIALS]

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**130 - 1), st.integers(0, 24_999))
    def test_matches_default_rng_on_any_seed(self, seed, t):
        assert _pcg64_states(seed, np.array([t])) == [numpy_state(seed, t)]

    def test_draw_limit_keeps_trial_indices_small(self):
        # Each trial index is one entropy word only while it is below 2**32.
        with pytest.raises(ValueError, match="over the limit"):
            mc_config(1, 0, ContinuousUniform01(), rho=0.5, trials=25_000)

    def test_refuses_a_negative_seed_as_numpy_does(self):
        with pytest.raises(ValueError) as numpy_error:
            np.random.default_rng((-1, 0))
        cfg = mc_config(2, 10, ContinuousUniform01(), rho=0.5, trials=3, seed=-1)
        with pytest.raises(ValueError) as error:
            montecarlo_randomized(cfg)
        assert str(error.value) == str(numpy_error.value)
        assert str(error.value) == "expected non-negative integer"
