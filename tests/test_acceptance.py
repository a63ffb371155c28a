"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print.  Exact quantities are asserted with rational equality (zero
tolerance); statistical checks state their tolerances inline.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

from conftest import random_instance
from mmsfair import (
    APPROX_FAILURE,
    CARDINAL,
    CONSISTENT,
    FIXTURE_NAMES,
    INFEASIBLE,
    ORDINAL,
    PUBLIC_RANKINGS,
    UNBOUNDED,
    ContinuousUniform01,
    Instance,
    Mechanism,
    approximation_ratio,
    build_sqrt_sequence,
    builtin_fixture,
    derive_ranking,
    exhaustive_common_ranking_ratio,
    fixture_applies,
    length_bound,
    maximin_share,
    mc_config,
    montecarlo_randomized,
    ordinal_lower_bound_check,
    run_chain,
    run_mechanism,
    sqrt_seq_params,
    truthful_models,
    verify_pick_positions,
    verify_truthful_on_grid,
)


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num:2d}: {desc}", flush=True)
        raise
    print(f"PASS criterion {num:2d}: {desc}", flush=True)


def test_criterion_01_example_shares(ex23):
    with criterion(1, "known 3x5 example shares reproduced exactly in < 1 s"):
        start = time.perf_counter()
        assert maximin_share(ex23, 0, 3) == Fraction(1, 2)
        assert maximin_share(ex23, 1, 3) == Fraction(1, 4)
        assert maximin_share(ex23, 2, 3) == Fraction(1)
        assert maximin_share(ex23, 0, 2) == Fraction(1)
        assert maximin_share(ex23, 2, 2) == Fraction(3, 2)
        assert time.perf_counter() - start < 1.0


def test_criterion_02_pr_exact_24_grid():
    with criterion(2, "pr-exact-2-4 is an exact allocation on all 4^8 grid instances"):
        rows = list(product((0, 1, 2, 3), repeat=4))
        violations = 0
        for r1 in rows:
            for r2 in rows:
                inst = Instance.from_rows([r1, r2])
                alloc = run_mechanism(Mechanism("pr-exact-2-4"), PUBLIC_RANKINGS, inst)
                ratio = approximation_ratio(inst, alloc)
                if ratio is not UNBOUNDED and ratio < 1:
                    violations += 1
        assert violations == 0


def test_criterion_03_best_item_bound_and_tightness():
    with criterion(3, "best-item ratio >= 1/2 on both grids with minimum exactly 1/2; "
                      "pick-seq all-ones m=6 ratio exactly 1/3"):
        best_item = Mechanism("best-item")
        observed_min = None
        for m, grid in ((4, (0, 1, 2, 3)), (5, (0, 1, 2))):
            rows = list(product(grid, repeat=m))
            for r1 in rows:
                for r2 in rows:
                    inst = Instance.from_rows([r1, r2])
                    alloc = run_mechanism(best_item, CARDINAL, inst)
                    ratio = approximation_ratio(inst, alloc)
                    if ratio is UNBOUNDED:
                        continue
                    assert ratio >= Fraction(1, 2), (r1, r2, ratio)
                    if observed_min is None or ratio < observed_min:
                        observed_min = ratio
        assert observed_min == Fraction(1, 2)
        all_ones = Instance.from_rows([[1] * 6, [1] * 6])
        alloc = run_mechanism(Mechanism("pick-seq"), CARDINAL, all_ones)
        assert approximation_ratio(all_ones, alloc) == Fraction(1, 3)


def _replays(mech, model, w) -> bool:
    """Whether a grid witness, run through ``run_mechanism``, gives its player
    exactly the recorded truthful and deviation values, the latter higher."""
    inst = Instance.from_rows(w.instance_rows)
    if model == ORDINAL:
        reported = [derive_ranking(inst, i) for i in range(inst.n)]
    else:
        reported = list(w.instance_rows)
    reported[w.player] = w.misreport
    truthful = run_mechanism(mech, model, inst).bundles[w.player]
    deviated = run_mechanism(mech, model, inst, reported).bundles[w.player]
    t_val = inst.value(w.player, truthful)
    d_val = inst.value(w.player, deviated)
    return (t_val, d_val) == (w.truthful_value, w.deviation_value) and d_val > t_val


def test_criterion_04_truthfulness_suites():
    # A mechanism is swept "clean" in a model where mechanisms.truthful_models
    # says it is truthful, and "caught" in one where it says it is not.  pr is
    # swept in both: it guarantees 2/(n+1) = 2/3 at (2, 4), above the 1/2 + e
    # threshold of the ordinal-m4 chain, so the paper's ordinal impossibility
    # forces it to be manipulable when rankings are reported (true rows
    # [2,1,1,0] / [0,2,2,1]: reporting b>a>c>d turns {a,d} worth 2 into {a,b}
    # worth 3).  With public rankings the sequence reads no report at all.
    with criterion(4, "truthfulness sweeps: pick-seq ordinal, pr public and "
                      "pr-exact-2-4 public clean; pr ordinal and cut-and-choose "
                      "cardinal caught with replayable witnesses"):
        clean = (
            ("pick-seq", ORDINAL, (0, 1, 2)),
            ("pr", PUBLIC_RANKINGS, (0, 1, 2)),
            ("pr-exact-2-4", PUBLIC_RANKINGS, (0, 1, 2, 3)),
        )
        caught = (
            ("pr", ORDINAL, (0, 1, 2)),
            ("cut-and-choose", CARDINAL, (1, 3)),
        )
        failures = []

        for name, model, grid in clean:
            mech = Mechanism(name)
            r = verify_truthful_on_grid(mech, model, 2, 4, grid)
            print(f"  ({name}, {model}, {set(grid)}): {r.violations} violations")
            if model not in truthful_models(mech) or r.violations != 0 or not r.complete:
                failures.append(f"{name}/{model}")

        for name, model, grid in caught:
            mech = Mechanism(name)
            r = verify_truthful_on_grid(mech, model, 2, 4, grid)
            w = r.witness
            if w is not None:
                print(
                    f"  ({name}, {model}, {set(grid)}): {r.violations} violations; "
                    f"witness: player {w.player + 1} on {w.instance_rows} misreports "
                    f"{w.misreport} for {w.truthful_value} -> {w.deviation_value}"
                )
            if (
                model in truthful_models(mech)
                or r.violations < 1
                or w is None
                or not _replays(mech, model, w)
            ):
                failures.append(f"{name}/{model}")

        assert not failures, f"failed sub-claims: {', '.join(failures)}"


def test_criterion_05_share_monotonicity():
    with criterion(5, "1000 random instances: removing a player and an item never "
                      "lowers anyone's share"):
        rng = random.Random(42)
        for _ in range(1000):
            n = rng.choice([2, 3, 4])
            m = rng.randrange(2, 9)
            inst = random_instance(rng, n, m)
            for k in range(n):
                base = maximin_share(inst, k, n)
                for j in range(m):
                    items = [x for x in range(m) if x != j]
                    assert maximin_share(inst, k, n - 1, items) >= base


def test_criterion_06_pr_guarantee():
    with criterion(6, "1000 random instances: every player's pr value >= 2/(n+1) "
                      "of her share"):
        rng = random.Random(4242)
        pr = Mechanism("pr")
        for _ in range(1000):
            n = rng.choice([2, 3, 4])
            m = rng.randrange(1, 11)
            inst = random_instance(rng, n, m)
            alloc = run_mechanism(pr, CARDINAL, inst)
            for i in range(n):
                share = maximin_share(inst, i, n)
                assert inst.value(i, alloc.bundles[i]) >= Fraction(2, n + 1) * share


def test_criterion_07_ordinal_counting_bound():
    with criterion(7, "counting bound 2+2+3=7 > 6 at alpha just above 1/2; exhaustive "
                      "729-allocation check stays at <= 1/2"):
        report = ordinal_lower_bound_check(3, 6, Fraction(1, 2) + Fraction(1, 100))
        assert report.terms == (2, 2, 3)
        assert report.total == 7
        assert report.verdict == INFEASIBLE
        assert exhaustive_common_ranking_ratio(3, 6) <= Fraction(1, 2)


def test_criterion_08_sqrt_sequence_construction():
    with criterion(8, "17-player deadline sequence at the smallest feasible m: exact "
                      "length, clean deadlines, alpha share guarantee on 200 instances"):
        eps = Fraction(1, 4)
        m = 17
        while length_bound(sqrt_seq_params(17, m, eps)) > m:
            m += 1
        params = sqrt_seq_params(17, m, eps)
        seq = build_sqrt_sequence(params)
        assert len(seq.picks) == m
        assert verify_pick_positions(seq, 17, params.alpha) == []
        mech = Mechanism("sqrt-seq", eps)
        rng = random.Random(7)
        for _ in range(200):
            inst = random_instance(rng, 17, m, top=3)
            alloc = run_mechanism(mech, ORDINAL, inst)
            for i in range(17):
                share = maximin_share(inst, i, 17)
                assert inst.value(i, alloc.bundles[i]) >= params.alpha * share


def test_criterion_09_impossibility_chains():
    with criterion(9, "every truthful built-in x applicable fixture is caught; "
                      "best-item fails the one-item chain at the all-ones profile "
                      "with ratio exactly 1/2"):
        mechs = [
            Mechanism("best-item"),
            Mechanism("pick-seq"),
            Mechanism("pr"),
            Mechanism("sqrt-seq", Fraction(1, 4)),
            Mechanism("pr-exact-2-4"),
            Mechanism("random-uniform"),
        ]
        pairs = 0
        for name in FIXTURE_NAMES:
            fix = builtin_fixture(name)
            for mech in mechs:
                if fix.model not in truthful_models(mech):
                    continue
                if not fixture_applies(fix, mech):
                    continue
                report = run_chain(fix, mech, fix.model)
                pairs += 1
                assert report.verdict != CONSISTENT, (name, str(mech))
        assert pairs >= 8

        report = run_chain(builtin_fixture("lemma-1+3"), Mechanism("best-item"), CARDINAL)
        assert report.verdict == APPROX_FAILURE
        final = report.profiles[-1]
        assert not final.meets_threshold
        assert final.ratios[0] == Fraction(1, 2)


def test_criterion_10_monte_carlo():
    with criterion(10, "random mechanism concentration: means within 3 SE of m/6, "
                       "variance within its bound, failures shrink with m, < 60 s"):
        start = time.perf_counter()
        results = {}
        for m in (100, 300, 1000):
            cfg = mc_config(3, m, ContinuousUniform01(), rho=0.8, trials=10_000, seed=0)
            res = montecarlo_randomized(cfg)
            results[m] = res
            for i in range(3):
                se_mean = math.sqrt(res.variances[i] / res.trials)
                assert abs(res.means[i] - m / 6) <= 3 * se_mean, (m, i)
                # normal-approximation standard error of a sample variance
                se_var = res.variances[i] * math.sqrt(2 / (res.trials - 1))
                assert res.variances[i] <= m / 3 + 3 * se_var, (m, i)
        assert results[1000].failure_rate < results[100].failure_rate
        assert time.perf_counter() - start < 60.0
