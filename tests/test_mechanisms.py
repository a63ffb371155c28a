import random
import time
from fractions import Fraction
from dataclasses import replace
from itertools import cycle, islice, permutations, product

import pytest

from conftest import random_instance
from mmsfair import (
    CARDINAL,
    MECHANISM_NAMES,
    EnumerationLimitError,
    ORDINAL,
    PUBLIC_RANKINGS,
    Allocation,
    Ranking,
    Instance,
    Mechanism,
    MechanismError,
    approximation_ratio,
    best_item_sequence,
    derive_ranking,
    maximin_share,
    models_for,
    pr_sequence,
    run_mechanism,
    validate_allocation,
    verify_truthful_on_grid,
)
from mmsfair import instance, mechanisms, mms
from mmsfair.mechanisms import best_two_partition
from mmsfair.seqbuild import (
    InfeasibleParams,
    PickingSequence,
    build_sqrt_sequence,
    sqrt_seq_params,
)

EXACT = Mechanism("pr-exact-2-4")
CUT = Mechanism("cut-and-choose")


class TestSequences:
    def test_best_item(self):
        assert best_item_sequence(2, 4).picks == (0, 1, 1, 1)
        assert best_item_sequence(3, 3).picks == (0, 1, 2)
        assert best_item_sequence(4, 10).picks == (0, 1, 2) + (3,) * 7
        assert not best_item_sequence(2, 4).cyclic

    def test_best_item_fewer_items_than_players(self):
        assert best_item_sequence(4, 2).picks == (0, 1)

    def test_pr(self):
        assert pr_sequence(2).picks == (0, 1, 1)
        assert pr_sequence(1).picks == (0, 0)
        assert pr_sequence(3).picks == (0, 1, 2, 2)
        assert pr_sequence(3).cyclic


class TestRunPickingSequence:
    def test_cyclic_two_players(self):
        # pr at n = 2 runs (0, 1, 1) cyclically
        inst = Instance.from_rows([[4, 3, 2, 1]] * 2)
        alloc = run_mechanism(Mechanism("pr"), ORDINAL, inst)
        assert alloc.bundles == (frozenset({0, 3}), frozenset({1, 2}))

    def test_single_player_takes_all(self):
        # pick-seq at n = 1: the one player picks every item
        inst = Instance.from_rows([[2, 3, 4]])
        alloc = run_mechanism(Mechanism("pick-seq"), ORDINAL, inst)
        assert alloc.bundles == (frozenset({0, 1, 2}),)

    def test_hand_simulation(self, ex23):
        # best-item at 3x5 runs (0, 1, 2, 2, 2): p1 takes a, p2 takes b, p3
        # takes c then d then e
        alloc = run_mechanism(Mechanism("best-item"), ORDINAL, ex23)
        assert alloc.bundles == (
            frozenset({0}),
            frozenset({1}),
            frozenset({2, 3, 4}),
        )

    def test_exhausted_sequence(self, monkeypatch):
        # a non-cyclic sequence of two picks at three items is refused when
        # its picks are worked out, before any simulation
        spec = mechanisms._SPECS["pick-seq"]
        short = replace(spec, sequence=lambda mech, n, m: PickingSequence((0, 1)))
        monkeypatch.setitem(mechanisms._SPECS, "pick-seq", short)
        mechanisms._sequence.cache_clear()
        message = "picking sequence exhausted with 1 items unallocated"
        with pytest.raises(MechanismError, match=f"^{message}$"):
            mechanisms._sequence(Mechanism("pick-seq"), 2, 3)


class TestPrExact24:
    def test_distinct_favorites_runs_sequence(self):
        inst = Instance.from_rows([[4, 3, 2, 1], [3, 4, 2, 1]])
        alloc = run_mechanism(EXACT, PUBLIC_RANKINGS, inst)
        assert alloc.bundles == (frozenset({0, 3}), frozenset({1, 2}))

    def test_shared_favorite_tie_keeps_top_item(self):
        inst = Instance.from_rows([[2, 1, 1, 0], [3, 1, 1, 1]])
        alloc = run_mechanism(EXACT, PUBLIC_RANKINGS, inst)
        assert alloc.bundles == (frozenset({0}), frozenset({1, 2, 3}))

    def test_shared_favorite_pair_better(self):
        inst = Instance.from_rows([[3, 2, 2, 0], [3, 1, 1, 1]])
        alloc = run_mechanism(EXACT, PUBLIC_RANKINGS, inst)
        assert alloc.bundles == (frozenset({1, 2}), frozenset({0, 3}))

    def test_distinct_favorites_is_pr(self, monkeypatch):
        # every ordered pair of orders with distinct top items, against a
        # 1,2,2,1 pick written out here and against pr with public rankings
        rng = random.Random(16)
        profiles = [
            (o1, o2)
            for o1 in permutations(range(4))
            for o2 in permutations(range(4))
            if o1[0] != o2[0]
        ]
        assert len(profiles) == 432
        calls = []
        simulate = mechanisms._simulate_picks

        def spy(*args, **kwargs):
            calls.append(args)
            return simulate(*args, **kwargs)

        mechanisms._outcome.cache_clear()
        monkeypatch.setattr(mechanisms, "_simulate_picks", spy)
        exact, pr = Mechanism("pr-exact-2-4"), Mechanism("pr")
        for _ in range(2):  # cold, then warm
            calls.clear()
            for o1, o2 in profiles:
                first = [o1[0]]
                second = [j for j in o2 if j not in first][:2]
                first += [j for j in range(4) if j not in first + second]
                want = (frozenset(first), frozenset(second))
                rows = [tuple(rng.randrange(4) for _ in range(4)) for _ in range(2)]
                assert mechanisms._allocate(exact, [o1, o2], rows, 2, 4) == want
                strict = [tuple(4 - o.index(j) for j in range(4)) for o in (o1, o2)]
                inst = Instance.from_rows(strict)
                assert run_mechanism(pr, PUBLIC_RANKINGS, inst).bundles == want
        assert calls == []  # the warm pass reads pr's memoized outcomes

    def test_wrong_dimensions(self):
        with pytest.raises(MechanismError):
            run_mechanism(EXACT, PUBLIC_RANKINGS, Instance.from_rows([[1, 1, 1]] * 2))
        with pytest.raises(MechanismError):
            run_mechanism(EXACT, PUBLIC_RANKINGS, Instance.from_rows([[1, 1, 1, 1]] * 3))

    def test_always_exact_on_small_grid(self):
        from itertools import product

        from mmsfair import UNBOUNDED

        rows = list(product((0, 1, 2), repeat=4))
        for r1 in rows:
            for r2 in rows:
                inst = Instance.from_rows([r1, r2])
                ratio = approximation_ratio(inst, run_mechanism(EXACT, PUBLIC_RANKINGS, inst))
                assert ratio is UNBOUNDED or ratio >= 1, (r1, r2)

    def test_feasible_bundles_all_clear_share(self):
        # ranks 1+2, 1+3, 1+4, any 3 items, and the better of {rank 1} and
        # ranks 2+3 are each worth >= the player's two-bundle share
        from itertools import combinations, product

        for row in product((0, 1, 2, 3), repeat=4):
            inst = Instance.from_rows([row, row])
            share = maximin_share(inst, 0, 2)
            ranking = derive_ranking(inst, 0)
            for positions in ((1, 2), (1, 3), (1, 4)):
                bundle = [ranking.order[p - 1] for p in positions]
                assert inst.value(0, bundle) >= share
            for triple in combinations(range(4), 3):
                assert inst.value(0, triple) >= share
            top = inst.value(0, [ranking.order[0]])
            pair = inst.value(0, ranking.order[1:3])
            assert max(top, pair) >= share


class TestCutAndChoose:
    def test_proposer_suffers_lexicographic_cut(self):
        inst = Instance.from_rows([[1, 1, 1, 1], [3, 1, 1, 1]])
        alloc = run_mechanism(CUT, CARDINAL, inst)
        assert alloc.bundles == (frozenset({2, 3}), frozenset({0, 1}))

    def test_two_items(self):
        inst = Instance.from_rows([[1, 0], [1, 0]])
        alloc = run_mechanism(CUT, CARDINAL, inst)
        assert alloc.bundles == (frozenset({1}), frozenset({0}))

    def test_requires_two_players(self):
        with pytest.raises(MechanismError):
            run_mechanism(CUT, CARDINAL, Instance.from_rows([[1, 1]] * 3))

    def test_exact_under_truthful_reports(self):
        rng = random.Random(13)
        for _ in range(40):
            inst = random_instance(rng, 2, rng.randrange(1, 8))
            alloc = run_mechanism(CUT, CARDINAL, inst)
            for i in range(2):
                assert inst.value(i, alloc.bundles[i]) >= maximin_share(inst, i, 2)

    def test_proposal_is_computed_once_per_row(self, monkeypatch):
        # every proposer row of {0,1,2}^4, against every chooser row, with
        # Fraction copies equal to the int rows and halved ones
        rows = list(product((0, 1, 2), repeat=4))
        proposers = rows + [tuple(Fraction(v, 2) for v in r) for r in rows]
        calls = []

        def spy(row):
            calls.append(tuple(row))
            return best_two_partition(row)

        mechanisms._proposal.cache_clear()
        monkeypatch.setattr(mechanisms, "best_two_partition", spy)
        for r1 in proposers + [tuple(Fraction(v) for v in r) for r in rows]:
            first, second = best_two_partition(r1)
            for r2 in rows:
                va, vb = sum(r2[j] for j in first), sum(r2[j] for j in second)
                want = (second, first) if va >= vb else (first, second)
                got = run_mechanism(CUT, CARDINAL, Instance.from_rows([r1, r2])).bundles
                assert got == want, (r1, r2)
        # a halved row with no 1/2 in it equals an int row and shares its cut
        assert set(calls) == set(proposers)
        assert len(calls) == len(set(proposers)) < len(proposers)


    def test_matches_enumeration(self):
        rng = random.Random(12)
        for _ in range(400):
            m = rng.randint(1, 10)
            top = rng.choice((2, 10, 10**6))
            row = [rng.choice((0, rng.randint(1, top), Fraction(rng.randint(1, top), 6)))
                   for _ in range(m)]
            assert best_two_partition(row) == _enumerated_cut(row), row

    @pytest.mark.parametrize("m", [21, 22])
    def test_exact_past_the_old_limit(self, m):
        # the old enumeration of all 2**(m-1) two-partitions refused these
        # sizes; given more room it found these cuts, in over 20 s a row
        first = {
            21: [0, 2, 3, 5, 6, 7, 8, 10, 11, 12, 14, 16, 17, 18, 19, 20],
            22: [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 16, 18, 19, 21],
        }[m]
        rng = random.Random(m)
        row = [rng.choice([0, rng.randint(1, 10**6), Fraction(rng.randint(1, 10**6), 7)])
               for _ in range(m)]
        assert sorted(best_two_partition(row)[0]) == first
        half = frozenset(range(m // 2))
        assert best_two_partition([1] * m) == (half, frozenset(range(m)) - half)

    def test_twenty_wide_items(self):
        rng = random.Random(20)
        row = [rng.randint(1, 10**6) for _ in range(20)]
        start = time.perf_counter()
        first, rest = best_two_partition(row)
        assert time.perf_counter() - start < 0.5
        low = min(sum(row[j] for j in first), sum(row[j] for j in rest))
        assert low == maximin_share(Instance.from_rows([row]), 0, 2)

    def test_common_factor_is_divided_out(self, monkeypatch):
        # a row times 3 is cut as the row itself, on bitsets a third as
        # long: it took twice the time of the row before
        charged = []
        real = mms._spend

        def spend(nodes, count):
            real(nodes, count)
            charged.append(nodes[0])

        monkeypatch.setattr(mms, "_spend", spend)
        rng = random.Random(24)
        for _ in range(10):
            row = [rng.randint(1, 10**4) for _ in range(24)]
            cuts, counts = [], []
            for r in (row, [3 * v for v in row]):
                charged.clear()
                cuts.append(best_two_partition(r))
                counts.append(charged[-1] if charged else 0)
            assert cuts[1] == cuts[0]
            assert counts[1] <= counts[0]

    def test_cut_shares_one_node_budget(self, monkeypatch):
        # the share alone fits the limit; the reachability decisions of
        # the cut, charged to the same count, do not
        rng = random.Random(30)
        row = [rng.randint(1, 10**6) for _ in range(30)]
        nodes = [0]
        mms._max_min_two_parts(sorted(row, reverse=True), nodes)
        monkeypatch.setattr(mms, "NODE_LIMIT", nodes[0])
        assert maximin_share(Instance.from_rows([row]), 0, 2) > 0
        with pytest.raises(EnumerationLimitError, match="limit of"):
            best_two_partition(row)


def _enumerated_cut(row):
    """Reference cut: every two-partition, the one with the largest min
    bundle and, among those, the lexicographically smallest bundle with
    item 0."""
    m, total = len(row), sum(row)
    if m == 0:
        return frozenset(), frozenset()
    best = None
    for mask in range(1 << (m - 1)):
        first = (0,) + tuple(j for j in range(1, m) if mask >> (j - 1) & 1)
        v = sum(row[j] for j in first)
        key = (-min(v, total - v), first)
        if best is None or key < best:
            best = key
    return frozenset(best[1]), frozenset(range(m)) - set(best[1])


def _random_uniform(n, m, seed):
    """``random-uniform``'s allocation of ``m`` items to ``n`` players."""
    inst = Instance.from_rows([[0] * m] * n)
    return run_mechanism(Mechanism("random-uniform"), CARDINAL, inst, seed=seed)


class TestRandomUniform:
    def test_single_player(self):
        for seed in (0, 1, 99):
            alloc = _random_uniform(1, 5, seed)
            assert alloc.bundles == (frozenset(range(5)),)

    def test_deterministic_given_seed(self):
        assert _random_uniform(3, 5, 7) == _random_uniform(3, 5, 7)
        assert _random_uniform(3, 5, 7) != _random_uniform(3, 5, 8)

    def test_empirical_frequency(self):
        mech, inst = Mechanism("random-uniform"), Instance.from_rows([[0] * 5] * 3)
        hits = 0
        trials = 100_000
        for seed in range(trials):
            if 0 in run_mechanism(mech, CARDINAL, inst, seed=seed).bundles[0]:
                hits += 1
        assert abs(hits / trials - 1 / 3) < 0.01


class TestRunMechanism:
    def test_best_item_ordinal(self, ex23):
        alloc = run_mechanism(Mechanism("best-item"), ORDINAL, ex23)
        assert alloc.bundles[0] == {0}
        assert alloc.bundles == (frozenset({0}), frozenset({1}), frozenset({2, 3, 4}))

    def test_cardinal_equals_ordinal_on_derived_rankings(self):
        rng = random.Random(3)
        pr = Mechanism("pr")
        for _ in range(30):
            inst = random_instance(rng, rng.choice([2, 3]), rng.randrange(1, 8))
            rankings = [derive_ranking(inst, i) for i in range(inst.n)]
            assert run_mechanism(pr, CARDINAL, inst) == run_mechanism(
                pr, ORDINAL, inst, rankings
            )

    def test_public_ignores_inconsistent_row(self):
        inst = Instance.from_rows([[3, 2, 1, 0], [3, 2, 1, 0]])
        # player 1 reports a row
        # inconsistent with her (public) ranking: it is replaced by the truth
        lying = Instance.from_rows([[0, 1, 2, 3], [3, 2, 1, 0]])
        mech = Mechanism("pr-exact-2-4")
        assert run_mechanism(mech, PUBLIC_RANKINGS, inst, lying) == run_mechanism(
            mech, PUBLIC_RANKINGS, inst
        )

    def test_model_mismatch_errors(self, ex23):
        with pytest.raises(MechanismError, match="not defined"):
            run_mechanism(Mechanism("pr-exact-2-4"), ORDINAL, ex23)
        with pytest.raises(MechanismError, match="not defined"):
            run_mechanism(Mechanism("cut-and-choose"), ORDINAL, ex23)
        with pytest.raises(MechanismError, match="not defined"):
            run_mechanism(
                Mechanism("pr-exact-2-4"),
                CARDINAL,
                Instance.from_rows([[1, 1, 1, 1]] * 2),
            )

    def test_unknown_mechanism_and_bad_epsilon(self):
        with pytest.raises(MechanismError):
            Mechanism("nope")
        with pytest.raises(MechanismError):
            Mechanism("sqrt-seq")
        with pytest.raises(MechanismError):
            Mechanism("pr", epsilon=Fraction(1, 4))

    @pytest.mark.parametrize("epsilon", [0.1, 0.25, "1/4"])
    def test_inexact_epsilon_refused_at_once(self, epsilon):
        # 0.1 failed only when the sequence was built, on its binary value
        with pytest.raises(ValueError, match=f"^epsilon {epsilon!r} is not rational$"):
            Mechanism("sqrt-seq", epsilon)

    def test_lowercase_name_is_the_class(self):
        # kept for callers that build mechanisms by mechanism(name)
        assert mechanisms.mechanism is Mechanism

    def test_outputs_always_valid(self):
        rng = random.Random(11)
        mechs = [
            (Mechanism("best-item"), CARDINAL),
            (Mechanism("pick-seq"), ORDINAL),
            (Mechanism("pr"), PUBLIC_RANKINGS),
            (Mechanism("cut-and-choose"), CARDINAL),
            (Mechanism("random-uniform"), ORDINAL),
        ]
        for _ in range(30):
            inst = random_instance(rng, 2, rng.randrange(1, 8))
            for mech, model in mechs:
                alloc = run_mechanism(mech, model, inst, seed=rng.randrange(100))
                assert validate_allocation(inst, alloc) == []

    def test_reported_type_mismatch(self, ex23):
        rankings = [derive_ranking(ex23, i) for i in range(3)]
        with pytest.raises(MechanismError, match="value matrix"):
            run_mechanism(Mechanism("pr"), CARDINAL, ex23, rankings)
        with pytest.raises(MechanismError, match="list of rankings"):
            run_mechanism(Mechanism("pr"), ORDINAL, ex23, ex23)

    @pytest.mark.parametrize("order", [(1.0, 0.0), (True, 0)])
    def test_ordinal_report_of_non_int_items_refused(self, order):
        # (1.0, 0.0) raised a bare TypeError inside the mechanism, and
        # (True, 0) gave the bundle frozenset({True})
        inst = Instance.from_rows([[2, 1], [1, 2]])
        with pytest.raises(ValueError, match=r"^ranking item (1\.0|True) is not an int$"):
            run_mechanism(Mechanism("pick-seq"), ORDINAL, inst, [Ranking(order), Ranking((1, 0))])

    def test_column_permutation_equivariance(self):
        # permuting items permutes tie-free allocations the same way
        rng = random.Random(53)
        for mech_name in ("pick-seq", "pr"):
            mech = Mechanism(mech_name)
            for _ in range(15):
                m = rng.randrange(1, 8)
                values = rng.sample(range(100), m)
                inst = Instance.from_rows([values, rng.sample(range(100), m)])
                perm = rng.sample(range(m), m)
                permuted = Instance.from_rows(
                    [[row[perm[j]] for j in range(m)] for row in inst.values]
                )
                base = run_mechanism(mech, CARDINAL, inst)
                moved = run_mechanism(mech, CARDINAL, permuted)
                expect = tuple(
                    frozenset(j for j in range(m) if perm[j] in bundle)
                    for bundle in base.bundles
                )
                assert moved.bundles == expect

    def test_value_oblivious_scaling_invariance(self):
        rng = random.Random(19)
        pr = Mechanism("pr")
        for _ in range(20):
            inst = random_instance(rng, 3, 6)
            factor = Fraction(rng.randrange(1, 9), rng.randrange(1, 9))
            scaled = Instance.from_rows(
                [
                    [factor * v for v in inst.values[0]],
                    inst.values[1],
                    inst.values[2],
                ]
            )
            assert run_mechanism(pr, CARDINAL, inst) == run_mechanism(
                pr, CARDINAL, scaled
            )

    @pytest.mark.parametrize("n, m, grid", [(2, 4, (0, 1, 2)), (3, 4, (0, 1))])
    def test_truthful_default_equals_explicit_reports(self, n, m, grid):
        # omitting the reports must mean exactly the truthful reports
        cases = []
        for name in MECHANISM_NAMES:
            mech = Mechanism(name, Fraction(2) if name == "sqrt-seq" else None)
            if name == "pr-exact-2-4" and (n, m) != (2, 4):
                continue
            if name == "cut-and-choose" and n != 2:
                continue
            cases += [(mech, model) for model in sorted(models_for(mech))]
        rows = list(product(grid, repeat=m))
        for profile in product(rows, repeat=n):
            inst = Instance.from_rows(profile)
            rankings = [derive_ranking(inst, i) for i in range(n)]
            for mech, model in cases:
                reported = rankings if model == ORDINAL else inst
                assert run_mechanism(mech, model, inst) == run_mechanism(
                    mech, model, inst, reported
                ), (mech, model, profile)

    def test_truthful_default_on_list_rows_equals_explicit_reports(self):
        # an Instance built from list rows: truthful reports read its rows
        # as they are, and its orders through ranking_order
        rng = random.Random(41)
        for _ in range(60):
            n, m = rng.choice([(2, 4), (2, 5), (3, 3), (1, 6)])
            rows = [
                [rng.choice([0, 1, 2, Fraction(1, 2), Fraction(7, 3)]) for _ in range(m)]
                for _ in range(n)
            ]
            inst = Instance(tuple(rows))
            assert all(type(row) is list for row in inst.values)
            rankings = [derive_ranking(inst, i) for i in range(n)]
            for name in MECHANISM_NAMES:
                mech = Mechanism(name, Fraction(2) if name == "sqrt-seq" else None)
                if name == "pr-exact-2-4" and (n, m) != (2, 4):
                    continue
                if name == "cut-and-choose" and n != 2:
                    continue
                for model in sorted(models_for(mech)):
                    reported = rankings if model == ORDINAL else [list(r) for r in rows]
                    seed = rng.randrange(100)
                    try:
                        truthful = run_mechanism(mech, model, inst, seed=seed)
                    except ValueError:  # not defined at this (n, m)
                        continue
                    assert truthful == run_mechanism(
                        mech, model, inst, reported, seed=seed
                    ), (mech, model, rows)


class TestGuarantees:
    def test_pick_seq_tightness_all_ones(self):
        inst = Instance.from_rows([[1] * 6, [1] * 6])
        alloc = run_mechanism(Mechanism("pick-seq"), CARDINAL, inst)
        assert approximation_ratio(inst, alloc) == Fraction(1, 3)

    def test_pr_guarantee_random(self):
        rng = random.Random(29)
        pr = Mechanism("pr")
        for _ in range(60):
            n = rng.choice([2, 3, 4])
            inst = random_instance(rng, n, rng.randrange(1, 9))
            alloc = run_mechanism(pr, CARDINAL, inst)
            for i in range(n):
                assert inst.value(i, alloc.bundles[i]) >= Fraction(2, n + 1) * maximin_share(inst, i, n)

    def test_sqrt_seq_dispatch_guarantee(self):
        from mmsfair import sqrt_seq_params

        rng = random.Random(61)
        eps = Fraction(3, 20)
        params = sqrt_seq_params(5, 26, eps)
        mech = Mechanism("sqrt-seq", eps)
        for _ in range(10):
            inst = random_instance(rng, 5, 26, top=3)
            alloc = run_mechanism(mech, PUBLIC_RANKINGS, inst)
            assert validate_allocation(inst, alloc) == []
            for i in range(5):
                share = maximin_share(inst, i, 5)
                assert inst.value(i, alloc.bundles[i]) >= params.alpha * share

    def test_sqrt_seq_runs_the_sequence_of_its_epsilon(self):
        from mmsfair import build_sqrt_sequence, sqrt_seq_params

        # At (2, 8) epsilon 1/2 and 1 build different sequences.
        inst = Instance.from_rows([[8, 7, 6, 5, 4, 3, 2, 1]] * 2)
        orders = [derive_ranking(inst, i).order for i in range(2)]
        for eps in (Fraction(1, 2), Fraction(1), Fraction(1, 2)):
            seq = build_sqrt_sequence(sqrt_seq_params(2, 8, eps))
            want = mechanisms._simulate_picks(orders, 8, seq.picks)
            alloc = run_mechanism(Mechanism("sqrt-seq", eps), ORDINAL, inst)
            assert alloc == Allocation.from_bundles(want)

    def test_pick_seq_guarantee_random(self):
        rng = random.Random(59)
        mech = Mechanism("pick-seq")
        for _ in range(60):
            n = rng.choice([2, 3])
            m = rng.randrange(1, 9)
            inst = random_instance(rng, n, m)
            alloc = run_mechanism(mech, CARDINAL, inst)
            bound = Fraction(1, max(2, m - n + 2) // 2)
            for i in range(n):
                assert inst.value(i, alloc.bundles[i]) >= bound * maximin_share(inst, i, n)


def _built_sequence(mech, n, m):
    """A sequence mechanism's picking sequence from its public builder."""
    if mech.name == "pr":
        return pr_sequence(n)
    if mech.name == "sqrt-seq":
        return build_sqrt_sequence(sqrt_seq_params(n, m, mech.epsilon))
    return best_item_sequence(n, m)


def _fresh_outcome(mech, orders, n, m, seed):
    """A value-oblivious mechanism's bundles from a freshly built sequence."""
    if mech.name == "random-uniform":
        rng = random.Random(seed)
        bundles = [set() for _ in range(n)]
        for j in range(m):
            bundles[rng.randrange(n)].add(j)
        return tuple(map(frozenset, bundles))
    seq = _built_sequence(mech, n, m)
    picks = tuple(islice(cycle(seq.picks) if seq.cyclic else seq.picks, m))
    return tuple(map(frozenset, mechanisms._simulate_picks(orders, m, picks)))


class TestOutcomeMemo:
    # The same ranking profiles under every value-oblivious mechanism, two
    # sqrt-seq epsilons and two random-uniform seeds, at (2, 8) and (3, 9)
    MECHS = (
        Mechanism("best-item"),
        Mechanism("pick-seq"),
        Mechanism("pr"),
        Mechanism("sqrt-seq", Fraction(1, 2)),
        Mechanism("sqrt-seq", Fraction(1)),
        Mechanism("random-uniform"),
    )

    def _cases(self):
        rng = random.Random(31)
        for n, m in ((2, 8), (3, 9)):
            profiles = [tuple(tuple(rng.sample(range(m), m)) for _ in range(n)) for _ in range(6)]
            for orders in profiles:
                for mech in self.MECHS:
                    for seed in ((0, 1) if mech.name == "random-uniform" else (0,)):
                        yield mech, orders, n, m, seed

    def test_matches_fresh_simulation(self):
        mechanisms._outcome.cache_clear()
        cases = list(self._cases())
        want = [_fresh_outcome(*case) for case in cases]
        # the same orders lead to different outcomes, so a key missing any
        # of them would be caught
        assert len({(case[1], w) for case, w in zip(cases, want)}) > len({c[1] for c in cases})
        for _ in range(2):  # cold, then warm
            for (mech, orders, n, m, seed), w in zip(cases, want):
                rows = [tuple(range(m))] * n  # never read
                assert mechanisms._allocate(mech, list(orders), rows, n, m, seed) == w
        # the memo holds sequence outcomes only
        info = mechanisms._outcome.cache_info()
        sequences = sum(case[0].name != "random-uniform" for case in cases)
        assert (info.misses, info.hits) == (sequences, sequences)

    def test_stays_within_its_bound(self):
        mech = Mechanism("best-item")
        bound = mechanisms._outcome.cache_info().maxsize
        others = tuple(range(8))
        profiles = [(perm, others) for perm in permutations(range(8))]
        assert len(profiles) > bound
        for orders in profiles + profiles[:50]:
            got = mechanisms._allocate(mech, orders, (), 2, 8)
            assert got == _fresh_outcome(mech, orders, 2, 8, 0)
        assert mechanisms._outcome.cache_info().currsize <= bound

    def test_second_pass_over_a_grid_simulates_nothing(self, monkeypatch):
        # best-item's 2x5 grid over {0,1,2}: 59,049 instances, 8,649 ranking
        # profiles, all held at once; each outcome's bundles are the one
        # shared allocation's
        mech, n, m = Mechanism("best-item"), 2, 5
        rows = list(product((0, 1, 2), repeat=m))
        for memo in (mechanisms._outcome, mechanisms._shared_allocation, instance._order):
            memo.cache_clear()
        returned, simulated = [], []
        allocate, simulate = mechanisms._allocate, mechanisms._simulate_picks

        def allocate_spy(*args):
            returned.append(allocate(*args))
            return returned[-1]

        def simulate_spy(*args):
            simulated.append(args)
            return simulate(*args)

        monkeypatch.setattr(mechanisms, "_allocate", allocate_spy)
        monkeypatch.setattr(mechanisms, "_simulate_picks", simulate_spy)
        fresh = {}
        for _ in range(2):  # cold, then warm
            misses = mechanisms._outcome.cache_info().misses
            simulated.clear()
            for row1, row2 in product(rows, repeat=2):
                returned.clear()
                inst = Instance.from_rows([row1, row2])
                alloc = run_mechanism(mech, CARDINAL, inst)
                assert [alloc.bundles] == returned
                assert alloc.bundles is returned[0]
                orders = tuple(map(instance.ranking_order, inst.values))
                if orders not in fresh:
                    fresh[orders] = _fresh_outcome(mech, orders, n, m, 0)
                assert alloc.bundles == fresh[orders]
        assert len(fresh) == 8_649
        assert mechanisms._outcome.cache_info().misses == misses
        assert simulated == []

    def test_sweeps_equal_cold_and_warm(self):
        cases = (
            (Mechanism("pick-seq"), ORDINAL, 2, 4, (0, 1, 2)),
            (Mechanism("pr"), ORDINAL, 2, 4, (0, 1, 2)),
            (Mechanism("pr"), PUBLIC_RANKINGS, 2, 4, (0, 1)),
            (Mechanism("sqrt-seq", Fraction(2)), CARDINAL, 2, 4, (0, 1)),
            (Mechanism("best-item"), CARDINAL, 3, 3, (0, 1)),
            (Mechanism("pr-exact-2-4"), PUBLIC_RANKINGS, 2, 4, (0, 1, 2)),
            (Mechanism("cut-and-choose"), CARDINAL, 2, 4, (1, 3)),
        )
        cold = []
        for case in cases:
            mechanisms._outcome.cache_clear()
            instance._order.cache_clear()
            cold.append(verify_truthful_on_grid(*case))
        warm = [verify_truthful_on_grid(*case) for case in cases]
        assert warm == cold
        assert [r.violations > 0 for r in cold] == [False, True, False, True, False, False, True]


class TestSequencePicks:
    # Every sequence mechanism, sqrt-seq at three epsilons, at every n <= 4
    # and m <= 9 where it runs
    MECHS = (
        Mechanism("best-item"),
        Mechanism("pick-seq"),
        Mechanism("pr"),
        Mechanism("sqrt-seq", Fraction(1, 2)),
        Mechanism("sqrt-seq", Fraction(1)),
        Mechanism("sqrt-seq", Fraction(2)),
    )

    def test_m_picks_of_the_public_builder(self):
        runs = 0
        for mech in self.MECHS:
            for n, m in product(range(1, 5), range(10)):
                try:
                    seq = _built_sequence(mech, n, m)
                except InfeasibleParams:
                    with pytest.raises(InfeasibleParams):
                        mechanisms._sequence(mech, n, m)
                    continue
                picks = mechanisms._sequence(mech, n, m)
                assert len(picks) == m
                assert all(p in range(n) for p in picks)
                assert picks == tuple(islice(cycle(seq.picks) if seq.cyclic else seq.picks, m))
                runs += 1
        # 40 sizes each for best-item, pick-seq and pr; sqrt-seq runs at 67
        assert runs == 3 * 40 + 67

    def test_random_uniform_stays_out_of_the_outcome_memo(self):
        rng, mech = random.Random(37), Mechanism("random-uniform")
        mechanisms._outcome.cache_clear()
        for n, m in ((1, 3), (2, 5), (3, 9), (4, 7)):
            inst = random_instance(rng, n, m)
            for seed in (0, 1):
                before = mechanisms._outcome.cache_info()
                alloc = run_mechanism(mech, CARDINAL, inst, None, seed)
                after = mechanisms._outcome.cache_info()
                assert (after.currsize, after.misses) == (before.currsize, before.misses)
                assert alloc.bundles == _fresh_outcome(mech, None, n, m, seed)


class TestRowsRead:
    # Every mechanism at each (n, m) it takes; sqrt-seq with epsilon 1/2
    MECHS = [
        Mechanism(name, Fraction(1, 2) if name == "sqrt-seq" else None)
        for name in MECHANISM_NAMES
    ]
    SIZES = ((1, 3), (2, 3), (2, 4), (2, 6), (3, 5), (4, 7))

    def test_unread_rows_never_move_a_bundle(self):
        rng = random.Random(43)
        moved = set()
        for mech in self.MECHS:
            rows_read = mechanisms._SPECS[mech.name].rows_read
            sizes = 0
            for n, m in self.SIZES:
                model = sorted(models_for(mech))[0]
                try:
                    run_mechanism(mech, model, Instance.from_rows([[0] * m] * n))
                except ValueError:  # not defined at this (n, m)
                    continue
                sizes += 1
                for _ in range(40):
                    orders = [tuple(rng.sample(range(m), m)) for _ in range(n)]
                    rows = [tuple(rng.randrange(6) for _ in range(m)) for _ in range(n)]
                    bundles = mechanisms._allocate(mech, orders, rows, n, m)
                    for i in range(n):
                        other = list(rows)
                        other[i] = tuple(rng.randrange(6) for _ in range(m))
                        if mechanisms._allocate(mech, orders, other, n, m) != bundles:
                            assert i in rows_read, (mech, orders, rows, other)
                            moved.add((mech.name, i))
            assert sizes, mech
        # and each row a mechanism declares read does move some bundle
        assert moved == {("pr-exact-2-4", 0), ("cut-and-choose", 0), ("cut-and-choose", 1)}

    def test_pr_exact_reads_what_its_rule_declares(self):
        # for every pair of 2x4 rankings, a row the rule leaves unread never
        # moves a bundle, and a read row moves them only through its class
        mech, spec = Mechanism("pr-exact-2-4"), mechanisms._SPECS["pr-exact-2-4"]
        rows = list(product(range(3), repeat=4))
        shared = 0
        for orders in product(permutations(range(4)), repeat=2):
            read = spec.rows_read_under(orders)
            seen = {}
            for i, row in product(range(2), rows):
                profile = [rows[0], rows[0]]
                profile[i] = row
                bundles = mechanisms._allocate(mech, orders, profile, 2, 4)
                key = (i, spec.row_class(orders[i], row)) if i in read else i
                assert seen.setdefault(key, bundles) == bundles, (orders, i, row)
            if read:
                shared += 1
                assert read == (0,) and orders[0][0] == orders[1][0]
                assert seen[0, True] != seen[0, False]  # the class is all it reads
        assert shared == 24 * 6  # a shared favorite: a quarter of the pairs
