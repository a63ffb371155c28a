import random
import tracemalloc
from fractions import Fraction
from itertools import permutations, product

import pytest

from conftest import random_instance
from mmsfair import (
    CARDINAL,
    ORDINAL,
    PUBLIC_RANKINGS,
    MECHANISM_NAMES,
    RANDOM_UNIFORM,
    EnumerationLimitError,
    GridWitness,
    Instance,
    Mechanism,
    MechanismError,
    Ranking,
    derive_ranking,
    deviation_search,
    models_for,
    run_mechanism,
    verify_truthful_on_grid,
)
from mmsfair import mechanisms, strategy


class TestOrdinalSearch:
    def test_pick_seq_has_no_profitable_deviation(self):
        rng = random.Random(71)
        mech = Mechanism("pick-seq")
        for _ in range(15):
            inst = random_instance(rng, 2, 4)
            for player in range(2):
                rep = deviation_search(mech, ORDINAL, inst, player)
                assert rep.best_deviation_value == rep.truthful_value
                assert rep.witness is None
                assert rep.search_complete

    def test_single_item_instance(self):
        inst = Instance.from_rows([[3], [2]])
        rep = deviation_search(Mechanism("pr"), ORDINAL, inst, 0)
        assert rep.best_deviation_value == rep.truthful_value == 3

    def test_pr_example_player_two(self, ex23):
        rep = deviation_search(Mechanism("pr"), ORDINAL, ex23, 1)
        assert rep.best_deviation_value == rep.truthful_value == Fraction(1, 4)

    def test_pr_manipulable_with_reported_rankings(self):
        # the cyclic sequence is not a sequential dictatorship: reporting
        # b>a>c>d here turns {a,d} worth 2 into {a,b} worth 3
        inst = Instance.from_rows([(2, 1, 1, 0), (0, 2, 2, 1)])
        rep = deviation_search(Mechanism("pr"), ORDINAL, inst, 0)
        assert rep.truthful_value == 2
        assert rep.best_deviation_value == 3
        assert rep.witness is not None

    def test_enumeration_limit(self):
        inst = Instance.from_rows([[1] * 9, [1] * 9])
        with pytest.raises(EnumerationLimitError):
            deviation_search(Mechanism("pick-seq"), ORDINAL, inst, 0)

    def test_misreports_refused(self):
        # the ordinal pool is every ranking, so a supplied row would be ignored
        inst = Instance.from_rows([[2, 1, 1, 0], [0, 2, 2, 1]])
        with pytest.raises(ValueError, match="^the ordinal search .* no misreports$"):
            deviation_search(Mechanism("pr"), ORDINAL, inst, 0, [[0, 1, 2, 3]])
        with pytest.raises(ValueError, match="no misreports"):
            deviation_search(Mechanism("pick-seq"), ORDINAL, inst, 1, iter([[1, 1, 1, 1]]))
        assert deviation_search(Mechanism("pr"), ORDINAL, inst, 0, iter(())).witness

    def test_model_mismatch(self):
        inst = Instance.from_rows([[1, 1, 1, 1]] * 2)
        with pytest.raises(MechanismError):
            deviation_search(Mechanism("cut-and-choose"), ORDINAL, inst, 0)

    def test_unsupported_shape(self):
        inst = Instance.from_rows([[1, 1, 1]] * 3)
        with pytest.raises(MechanismError, match="exactly 2 players$"):
            deviation_search(Mechanism("cut-and-choose"), CARDINAL, inst, 2)
        with pytest.raises(MechanismError, match="exactly 2 players and 4 items"):
            deviation_search(Mechanism("pr-exact-2-4"), PUBLIC_RANKINGS, inst, 0)


class TestCardinalSearch:
    def test_cut_and_choose_witness(self):
        inst = Instance.from_rows([[1, 1, 1, 1], [3, 1, 1, 1]])
        rep = deviation_search(
            Mechanism("cut-and-choose"), CARDINAL, inst, 0, misreports=[[3, 1, 1, 1]]
        )
        assert rep.truthful_value == 2
        assert rep.best_deviation_value == 3
        assert rep.witness == (3, 1, 1, 1)
        assert not rep.search_complete

    def test_best_item_never_gains(self):
        rng = random.Random(73)
        mech = Mechanism("best-item")
        for _ in range(15):
            inst = random_instance(rng, 2, rng.randrange(1, 6))
            extra = [
                [rng.randrange(10) for _ in range(inst.m)] for _ in range(3)
            ]
            for player in range(2):
                rep = deviation_search(mech, CARDINAL, inst, player, extra)
                assert rep.best_deviation_value == rep.truthful_value
                assert rep.search_complete

    def test_reduces_to_ordinal_for_value_oblivious(self):
        rng = random.Random(79)
        for _ in range(10):
            inst = random_instance(rng, 2, 4)
            for mech_name in ("pick-seq", "pr"):
                mech = Mechanism(mech_name)
                ordinal = deviation_search(mech, ORDINAL, inst, 0)
                cardinal = deviation_search(mech, CARDINAL, inst, 0)
                assert cardinal.truthful_value == ordinal.truthful_value
                assert cardinal.best_deviation_value == ordinal.best_deviation_value

    def test_self_report_included(self):
        rng = random.Random(83)
        for mech_name in ("best-item", "pr", "cut-and-choose"):
            mech = Mechanism(mech_name)
            for _ in range(8):
                inst = random_instance(rng, 2, 4)
                rep = deviation_search(mech, CARDINAL, inst, 1)
                assert rep.best_deviation_value >= rep.truthful_value
                assert (rep.witness is not None) == (
                    rep.best_deviation_value > rep.truthful_value
                )

    def test_malformed_misreports(self):
        inst = Instance.from_rows([[1, 1], [1, 1]])
        with pytest.raises(ValueError):
            deviation_search(Mechanism("pr"), CARDINAL, inst, 0, misreports=[[1]])
        with pytest.raises(ValueError):
            deviation_search(Mechanism("pr"), CARDINAL, inst, 0, misreports=[[1, -1]])

    @pytest.mark.parametrize("name", ["cut-and-choose", "pick-seq"])
    def test_non_rational_misreports_refused(self, name):
        # the rule Instance applies to true values
        inst = Instance.from_rows([[1, 2, 3, 0], [3, 1, 1, 1]])
        for model in (CARDINAL, PUBLIC_RANKINGS):
            with pytest.raises(ValueError, match="not rational"):
                deviation_search(Mechanism(name), model, inst, 0, [(0.5, 1.5, 0.25, 0.0)])
            with pytest.raises(ValueError, match="not rational"):
                deviation_search(Mechanism(name), model, inst, 1, [(3, 1, 1, "1")])

    def test_value_obliviousness_certificate(self):
        # any cardinal misreport that keeps the truthful ranking leaves a
        # picking-sequence allocation untouched
        from mmsfair import CARDINAL, derive_ranking, run_mechanism

        rng = random.Random(107)
        for mech_name in ("best-item", "pick-seq", "pr"):
            mech = Mechanism(mech_name)
            for _ in range(8):
                inst = random_instance(rng, 2, 5)
                truthful = run_mechanism(mech, CARDINAL, inst)
                order = derive_ranking(inst, 0).order
                rescaled = [0] * 5
                for rank, item in enumerate(order):
                    rescaled[item] = 2 * (5 - rank) + rng.randrange(2)
                lying = Instance.from_rows([rescaled, inst.values[1]])
                if derive_ranking(lying, 0).order != order:
                    continue
                assert run_mechanism(mech, CARDINAL, inst, lying) == truthful


class TestPublicSearch:
    def test_inconsistent_misreport_is_ignored(self):
        inst = Instance.from_rows([[3, 2, 1, 0], [3, 2, 1, 0]])
        rep = deviation_search(
            Mechanism("pr-exact-2-4"), PUBLIC_RANKINGS, inst, 0, misreports=[[0, 1, 2, 3]]
        )
        assert rep.best_deviation_value == rep.truthful_value
        assert rep.witness is None

    def test_value_oblivious_trivially_immune(self):
        rng = random.Random(89)
        for _ in range(10):
            inst = random_instance(rng, 3, 5)
            rep = deviation_search(Mechanism("pr"), PUBLIC_RANKINGS, inst, 2)
            assert rep.best_deviation_value == rep.truthful_value
            assert rep.search_complete

    def test_pr_exact_immune_on_consistent_rows(self):
        rng = random.Random(97)
        mech = Mechanism("pr-exact-2-4")
        for _ in range(10):
            inst = random_instance(rng, 2, 4, top=3)
            for player in range(2):
                rows = [
                    [rng.randrange(4) for _ in range(4)] for _ in range(10)
                ]
                rep = deviation_search(mech, PUBLIC_RANKINGS, inst, player, rows)
                assert rep.best_deviation_value == rep.truthful_value

    def test_row_pool_past_enumeration_limit(self):
        # her pool is her true row, her consistent supplied rows and her
        # strict row, never the 10! rankings
        rng = random.Random(11)
        mech = Mechanism("cut-and-choose")
        inst = random_instance(rng, 2, 10)
        for player in range(2):
            order = derive_ranking(inst, player).order
            consistent = [0] * 10
            for rank, item in enumerate(order):
                consistent[item] = 2 * (10 - rank) // 3
            strict = [0] * 10
            for rank, item in enumerate(order):
                strict[item] = 10 - rank
            rows = [consistent, [rng.randrange(7) for _ in range(10)]]
            rep = deviation_search(mech, PUBLIC_RANKINGS, inst, player, rows)
            values = []
            for report in (inst.values[player], consistent, strict):
                reported = list(inst.values)
                reported[player] = report
                bundle = run_mechanism(mech, PUBLIC_RANKINGS, inst, reported).bundles[player]
                values.append(inst.value(player, bundle))
            truthful = run_mechanism(mech, PUBLIC_RANKINGS, inst).bundles[player]
            assert rep.truthful_value == inst.value(player, truthful) == values[0]
            assert rep.best_deviation_value == max(values)
            assert (rep.witness is None) == (max(values) == values[0])

    def test_grid_coverage_rule(self):
        def complete(mech, grid):
            return strategy._search_complete(mech, PUBLIC_RANKINGS, grid)

        assert complete(Mechanism("pr"), (1, 2))
        assert complete(Mechanism("pr-exact-2-4"), (0, 1, 2))
        assert not complete(Mechanism("pr-exact-2-4"), (1, 2))
        assert not complete(Mechanism("cut-and-choose"), (0, 1))
        assert complete(Mechanism("sqrt-seq", Fraction(1, 10)), (1, 2))
        assert complete(Mechanism("random-uniform"), (1, 2))


class TestGridVerifier:
    def test_pick_seq_ordinal_clean(self):
        result = verify_truthful_on_grid(
            Mechanism("pick-seq"), ORDINAL, 2, 3, (0, 1, 2)
        )
        assert result.violations == 0
        assert result.instances == 3**6
        assert result.complete
        assert result.ok

    def test_cut_and_choose_caught(self):
        result = verify_truthful_on_grid(
            Mechanism("cut-and-choose"), CARDINAL, 2, 4, (1, 3)
        )
        assert result.violations >= 1
        w = result.witness
        assert w is not None
        assert w.deviation_value > w.truthful_value
        assert not result.complete

    def test_first_witness_is_deterministic(self):
        a = verify_truthful_on_grid(Mechanism("cut-and-choose"), CARDINAL, 2, 4, (1, 3))
        b = verify_truthful_on_grid(Mechanism("cut-and-choose"), CARDINAL, 2, 4, (1, 3))
        assert a.witness == b.witness
        assert a.witness.instance_rows == ((1, 1, 1, 1), (3, 1, 1, 1))

    def test_random_uniform_certificate(self):
        result = verify_truthful_on_grid(
            Mechanism("random-uniform"), CARDINAL, 3, 5, (0, 1)
        )
        assert result.violations == 0
        assert result.complete
        assert "oblivious" in result.certificate

    def test_budget(self):
        with pytest.raises(EnumerationLimitError, match="6561"):
            verify_truthful_on_grid(
                Mechanism("pick-seq"), ORDINAL, 2, 4, (0, 1, 2), budget=100
            )

    def test_pr_exact_public_small_grid(self):
        result = verify_truthful_on_grid(
            Mechanism("pr-exact-2-4"), PUBLIC_RANKINGS, 2, 4, (0, 1)
        )
        assert result.violations == 0
        assert result.complete

    def test_best_item_cardinal_grid_clean(self):
        result = verify_truthful_on_grid(
            Mechanism("best-item"), CARDINAL, 2, 3, (0, 1, 2)
        )
        assert result.violations == 0
        assert result.complete

    @pytest.mark.parametrize(
        "mech, model, m, grid",
        [
            ("pr", ORDINAL, 3, (0.1, 0.2)),
            ("pr-exact-2-4", PUBLIC_RANKINGS, 4, (0.0, 0.5)),
            ("cut-and-choose", CARDINAL, 3, (0.5, 1)),
        ],
    )
    def test_float_grid_refused(self, mech, model, m, grid):
        with pytest.raises(ValueError, match=r"^grid value 0\.\d is not rational$"):
            verify_truthful_on_grid(Mechanism(mech), model, 2, m, grid)

    def test_mixed_grid_refused_before_sorting(self):
        # sorted first, it raised TypeError: '<' not supported ...
        with pytest.raises(ValueError, match=r"^grid value '1' is not rational$"):
            verify_truthful_on_grid(Mechanism("pr"), ORDINAL, 2, 2, (0, "1"))


# Acceptance criterion 4's five sweeps at n = 2, m = 4 over the benchmark's
# grids: (mechanism, model, grid, violations, complete, witness).
CRITERION_4 = (
    ("pick-seq", ORDINAL, (0, 1, 2), 0, True, None),
    (
        "pr", ORDINAL, (0, 1, 2), 558, True,
        GridWitness(((0, 0, 1, 1), (0, 0, 0, 1)), 0, Ranking((3, 0, 1, 2)), 1, 2),
    ),
    ("pr", PUBLIC_RANKINGS, (0, 1, 2), 0, True, None),
    ("pr-exact-2-4", PUBLIC_RANKINGS, (0, 1, 2), 0, True, None),
    (
        "cut-and-choose", CARDINAL, (1, 3), 135, False,
        GridWitness(((1, 1, 1, 1), (3, 1, 1, 1)), 0, (3, 1, 1, 1), 2, 3),
    ),
)


@pytest.mark.parametrize(
    "name, model, grid, violations, complete, witness",
    CRITERION_4,
    ids=[f"{c[0]}-{c[1]}" for c in CRITERION_4],
)
def test_criterion_4_sweeps_are_pinned(name, model, grid, violations, complete, witness):
    result = verify_truthful_on_grid(Mechanism(name), model, 2, 4, grid)
    assert result.instances == len(grid) ** 8
    assert (result.violations, result.complete, result.witness) == (
        violations, complete, witness
    )


# Wider sweeps, each past the default budget: (mechanism, model, m, grid,
# instances, violations, witness), all at n = 2 and complete.
WIDER = (
    ("pick-seq", ORDINAL, 5, range(4), 4**10, 0, None),
    ("pr-exact-2-4", PUBLIC_RANKINGS, 4, range(6), 6**8, 0, None),
    (
        "pr", ORDINAL, 5, range(4), 4**10, 256_296,
        GridWitness(((0, 0, 0, 0, 0), (0, 1, 0, 2, 2)), 1, Ranking((0, 1, 3, 2, 4)), 4, 5),
    ),
)


@pytest.mark.parametrize(
    "name, model, m, grid, instances, violations, witness",
    WIDER,
    ids=[f"{c[0]}-{c[1]}-2x{c[2]}" for c in WIDER],
)
def test_wider_sweeps_are_pinned(name, model, m, grid, instances, violations, witness):
    result = verify_truthful_on_grid(
        Mechanism(name), model, 2, m, tuple(grid), budget=2_000_000
    )
    assert (result.instances, result.violations, result.complete, result.witness) == (
        instances, violations, True, witness
    )
    if witness is not None:
        # the witness replays through run_mechanism
        mech, player = Mechanism(name), witness.player
        inst = Instance.from_rows(witness.instance_rows)
        reported = [derive_ranking(inst, i) for i in range(2)]
        reported[player] = witness.misreport
        truthful = run_mechanism(mech, model, inst).bundles[player]
        deviated = run_mechanism(mech, model, inst, reported).bundles[player]
        assert inst.value(player, truthful) == witness.truthful_value
        assert inst.value(player, deviated) == witness.deviation_value


def _reference_sweep(mech, model, n, m, grid):
    """Every instance, player and report in the sweep's pool order, each
    allocated by run_mechanism with explicit reports; returns (violations,
    complete, first witness).

    An allocation reads only the reports and, with public rankings, the
    true rankings (every pooled row is consistent with its ranking, so none
    is replaced), so each distinct input is allocated once to keep the test
    fast.
    """
    rows_space = list(product(grid, repeat=m))
    rankings_pool = [Ranking(perm) for perm in permutations(range(m))]
    strict_rows = list(permutations(range(m, 0, -1)))
    allocations: dict = {}
    violations, witness = 0, None
    for profile in product(rows_space, repeat=n):
        inst = Instance.from_rows(profile)
        truthful = run_mechanism(mech, model, inst)
        rankings = [derive_ranking(inst, i) for i in range(n)]
        public = tuple(rankings) if model == PUBLIC_RANKINGS else None
        for player, true_row in enumerate(profile):
            if model == ORDINAL:
                pool = rankings_pool
            elif model == CARDINAL:
                pool = dict.fromkeys([*rows_space, *permutations(true_row), *strict_rows])
            else:
                order = rankings[player].order
                pool = dict.fromkeys(
                    [
                        *(r for r in rows_space
                          if all(r[a] >= r[b] for a, b in zip(order, order[1:]))),
                        true_row,
                    ]
                )
            t_val = sum(true_row[j] for j in truthful.bundles[player])
            for report in pool:
                if model == ORDINAL:
                    reported = (*rankings[:player], report, *rankings[player + 1:])
                else:
                    reported = (*profile[:player], report, *profile[player + 1:])
                alloc = allocations.get((public, reported))
                if alloc is None:
                    alloc = run_mechanism(mech, model, inst, reported)
                    allocations[public, reported] = alloc
                val = sum(true_row[j] for j in alloc.bundles[player])
                if val > t_val:
                    violations += 1
                    if witness is None:
                        witness = GridWitness(profile, player, report, t_val, val)
                    break
    return violations, _reference_complete(mech, model, grid), witness


def _reference_complete(mech, model, grid=()):
    """Whether a search over every ranking (ordinal) or every row over
    ``grid`` is exhaustive, from the mechanisms' definitions: only
    pr-exact-2-4 and cut-and-choose read a value row, and only
    pr-exact-2-4's one decision (her top item against her ranks 2-3) is
    reached both ways by a grid, one holding zero and a positive value."""
    if model == ORDINAL or mech.name not in ("pr-exact-2-4", "cut-and-choose"):
        return True
    return (
        model == PUBLIC_RANKINGS and mech.name == "pr-exact-2-4"
        and 0 in grid and max(grid) > 0
    )


def _differential_cases():
    shapes = (
        (2, 3, (0, 1, 2)), (2, 4, (0, 1)), (3, 3, (0, 1)),
        # where the product of the other players' class sizes matters
        (1, 0, (0, 1, 2)), (1, 1, (0, 1, 2)), (3, 2, (0, 1, 2)),
    )
    for n, m, grid in shapes:
        for name in MECHANISM_NAMES:
            if name == RANDOM_UNIFORM:
                continue
            mech = Mechanism(name, Fraction(2) if name == "sqrt-seq" else None)
            for model in sorted(models_for(mech)):
                try:
                    run_mechanism(mech, model, Instance.from_rows([[0] * m] * n))
                except ValueError:  # not defined at this (n, m)
                    continue
                yield pytest.param(mech, model, n, m, grid, id=f"{name}-{model}-{n}x{m}")
    # reach outcomes repeat across the other player's classes, and the true
    # rows that gain under one outcome span several rankings, so the witness
    # is the least of them, not the first scored; pr-exact-2-4 over three
    # values reads her row under some rankings and not under others
    for name, model, m, grid in (
        ("pr", ORDINAL, 4, (0, 1, 2)),
        ("cut-and-choose", CARDINAL, 3, (0, 1, 2, 3)),
        ("pr-exact-2-4", PUBLIC_RANKINGS, 4, (0, 1, 2)),
    ):
        yield pytest.param(
            Mechanism(name), model, 2, m, grid, id=f"{name}-{model}-2x{m}-over-{len(grid)}"
        )


@pytest.mark.parametrize("mech, model, n, m, grid", list(_differential_cases()))
def test_sweep_matches_plain_reference(mech, model, n, m, grid):
    result = verify_truthful_on_grid(mech, model, n, m, grid)
    assert (result.violations, result.complete, result.witness) == _reference_sweep(
        mech, model, n, m, grid
    )


def _reference_search(mech, model, inst, player, misreports):
    """The search's pool for ``player``, each report allocated by
    run_mechanism with explicit reports; returns (best value, first witness,
    complete).  Rows go in unfiltered: with public rankings run_mechanism
    itself drops a row inconsistent with the true ranking."""
    m = inst.m
    true_row = inst.values[player]
    truthful = run_mechanism(mech, model, inst)
    t_val = sum(true_row[j] for j in truthful.bundles[player])
    if model == ORDINAL:
        profile = [derive_ranking(inst, i) for i in range(inst.n)]
        pool = [Ranking(perm) for perm in permutations(range(m))]
    else:
        profile = list(inst.values)
        pool = dict.fromkeys(
            [
                tuple(true_row),
                *map(tuple, misreports),
                *permutations(true_row),
                *permutations(range(m, 0, -1)),
            ]
        )
    best, witness = t_val, None
    for report in pool:
        reported = [*profile[:player], report, *profile[player + 1:]]
        alloc = run_mechanism(mech, model, inst, reported)
        val = sum(true_row[j] for j in alloc.bundles[player])
        if val > best:
            best, witness = val, report
    return best, witness, _reference_complete(mech, model)


def _search_cases():
    for n, m in ((2, 3), (2, 4), (3, 3)):
        for name in MECHANISM_NAMES:
            mech = Mechanism(name, Fraction(2) if name == "sqrt-seq" else None)
            for model in sorted(models_for(mech)):
                try:
                    run_mechanism(mech, model, Instance.from_rows([[0] * m] * n))
                except ValueError:  # not defined at this (n, m)
                    continue
                yield pytest.param(mech, model, n, m, id=f"{name}-{model}-{n}x{m}")


@pytest.mark.parametrize("mech, model, n, m", list(_search_cases()))
def test_searches_match_plain_reference(mech, model, n, m):
    rng = random.Random(f"{mech}-{model}-{n}x{m}")
    for _ in range(8):
        inst = random_instance(rng, n, m, top=6)
        for player in range(n):
            order = derive_ranking(inst, player).order
            values = sorted((rng.randrange(7) for _ in range(m)), reverse=True)
            consistent = [0] * m
            for item, v in zip(order, values):
                consistent[item] = v
            inconsistent = [0] * m
            for rank, item in enumerate(order):
                inconsistent[item] = rank  # rises along her ranking
            rows = [consistent, inconsistent, [rng.randrange(7) for _ in range(m)]]
            supplied = () if model == ORDINAL else rows
            rep = deviation_search(mech, model, inst, player, supplied)
            assert (rep.best_deviation_value, rep.witness, rep.search_complete) == (
                _reference_search(mech, model, inst, player, rows)
            )


def test_pr_exact_public_searches_match_per_report_search():
    # every 2x4 instance over {0,1,2}, both players: the search, which
    # allocates once where the rankings leave her row unread and once per
    # class of her row elsewhere, against each report run through
    # run_mechanism (value shapes placed along her ranking, and one row
    # that rises along it, which run_mechanism drops)
    mech = Mechanism("pr-exact-2-4")
    shapes = ((2, 0, 0, 0), (2, 2, 0, 0), (2, 1, 1, 0), (1, 1, 1, 1), (2, 1, 0, 0), (0, 1, 2, 2))
    for rows in product(product((0, 1, 2), repeat=4), repeat=2):
        inst = Instance.from_rows(rows)
        truthful = run_mechanism(mech, PUBLIC_RANKINGS, inst).bundles
        for player, true_row in enumerate(rows):
            rank = derive_ranking(inst, player).order.index
            supplied = [tuple(v[rank(j)] for j in range(4)) for v in shapes]
            rep = deviation_search(mech, PUBLIC_RANKINGS, inst, player, supplied)
            best = t_val = inst.value(player, truthful[player])
            witness = None
            strict = tuple(4 - rank(j) for j in range(4))
            for report in dict.fromkeys([true_row, *supplied, strict]):
                reported = list(rows)
                reported[player] = report
                bundle = run_mechanism(mech, PUBLIC_RANKINGS, inst, reported).bundles[player]
                if inst.value(player, bundle) > best:
                    best, witness = inst.value(player, bundle), report
            assert (rep.truthful_value, rep.best_deviation_value, rep.witness) == (
                t_val, best, witness
            )
            assert rep.search_complete is False


@pytest.mark.parametrize("grid", [(0,), (0, 1, 2), (0, Fraction(1, 2), 3), range(5)])
@pytest.mark.parametrize("m", [0, 1, 3, 4])
def test_ranked_rows_are_the_consistent_rows(grid, m):
    # the public-rankings pools, built without testing a row, hold what a
    # filter of every grid row keeps, in product order
    grid = tuple(grid)
    rows = list(product(grid, repeat=m))
    for order in permutations(range(m)):
        assert strategy._ranked_rows(grid, order) == [
            r for r in rows if mechanisms._consistent_with_order(r, order)
        ]


@pytest.mark.parametrize(
    "grid, reach_calls, allocations", [((0, 1, 2), 529, 662), (tuple(range(6)), 576, 720)]
)
def test_pr_exact_public_sweep_allocates_once_per_class(monkeypatch, grid, reach_calls, allocations):
    # a pool whose rankings leave her row unread allocates once, and one
    # that reads it once per class of her row: 7,935 and 72,576 allocations
    # when every report was allocated, with the same reach calls; the pools
    # come from the grid, where 1,863 and 31,104 order checks built them
    counts = {"_allocate": 0, "_reachable": 0, "_consistent_with_order": 0}

    def spy(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    spy(strategy, "_allocate")
    spy(strategy, "_reachable")
    spy(strategy, "_consistent_with_order")
    spy(mechanisms, "_consistent_with_order")
    result = verify_truthful_on_grid(
        Mechanism("pr-exact-2-4"), PUBLIC_RANKINGS, 2, 4, grid, budget=2_000_000
    )
    assert (result.violations, result.complete) == (0, True)
    assert counts == {
        "_allocate": allocations, "_reachable": reach_calls, "_consistent_with_order": 0
    }


@pytest.mark.parametrize("name", MECHANISM_NAMES)
def test_sweep_refuses_what_run_refuses(name):
    # the same (n, m) refused with the same message, whether or not the sweep
    # searches a player
    epsilons = (Fraction(1, 4), Fraction(2), Fraction(1000)) if name == "sqrt-seq" else (None,)
    for mech in (Mechanism(name, eps) for eps in epsilons):
        for model in (CARDINAL, ORDINAL, PUBLIC_RANKINGS):
            for n, m in ((1, 0), (3, 0), (1, 3), (2, 2), (2, 3), (3, 2), (2, 4)):
                want = got = None
                try:
                    run_mechanism(mech, model, Instance.from_rows([[0] * m] * n))
                except ValueError as exc:
                    want = str(exc)
                try:
                    verify_truthful_on_grid(mech, model, n, m, (0, 1))
                except ValueError as exc:
                    got = str(exc)
                assert got == want, (str(mech), model, n, m)


class TestUnreadRows:
    # With public rankings a report replaces only the player's row, so a
    # player whose row the mechanism never reads cannot move her bundle.
    def test_public_search_past_enumeration_limit(self):
        rng = random.Random(5)
        inst = random_instance(rng, 3, 10)
        rep = deviation_search(Mechanism("pr"), PUBLIC_RANKINGS, inst, 2, [[9] * 10])
        assert rep.best_deviation_value == rep.truthful_value
        truthful = run_mechanism(Mechanism("pr"), PUBLIC_RANKINGS, inst).bundles[2]
        assert rep.truthful_value == inst.value(2, truthful)
        assert (rep.witness, rep.search_complete) == (None, True)
        with pytest.raises(EnumerationLimitError):
            deviation_search(Mechanism("pr"), CARDINAL, inst, 2)

    def test_unread_player_still_validates_misreports(self):
        inst = Instance.from_rows([[3, 2, 1, 0], [0, 1, 2, 3]])
        with pytest.raises(ValueError, match="4 values"):
            deviation_search(Mechanism("pr-exact-2-4"), PUBLIC_RANKINGS, inst, 1, [[1, 2]])
        with pytest.raises(ValueError, match="nonnegative"):
            deviation_search(Mechanism("pr"), PUBLIC_RANKINGS, inst, 0, [[1, 2, 3, -1]])
        rep = deviation_search(Mechanism("pr-exact-2-4"), PUBLIC_RANKINGS, inst, 1, [[3, 3, 3, 3]])
        assert rep.best_deviation_value == rep.truthful_value
        assert (rep.witness, rep.search_complete) == (None, False)

    def test_only_row_pools_pass_enumeration_limit(self):
        result = verify_truthful_on_grid(Mechanism("pr"), PUBLIC_RANKINGS, 2, 9, (0, 1))
        assert (result.instances, result.violations, result.complete) == (2**18, 0, True)
        for model in (ORDINAL, CARDINAL):
            with pytest.raises(EnumerationLimitError, match="m <= 8"):
                verify_truthful_on_grid(Mechanism("pr"), model, 2, 9, (0, 1))

    def test_unsearched_sweeps_answer_past_enumeration_limit(self):
        # a sweep that searches nobody builds no pool
        for name, model in (("random-uniform", ORDINAL), ("pr", PUBLIC_RANKINGS)):
            result = verify_truthful_on_grid(Mechanism(name), model, 2, 9, (0, 1))
            assert (result.instances, result.violations, result.complete) == (2**18, 0, True)
        message = "^exhaustive ranking enumeration needs m <= 8, got m = 9$"
        for model in (ORDINAL, CARDINAL):
            with pytest.raises(EnumerationLimitError, match=message):
                verify_truthful_on_grid(Mechanism("pick-seq"), model, 2, 9, (0,))

    @pytest.mark.parametrize("name, most", [("pr", 0), ("pr-exact-2-4", 10_000)])
    def test_criterion_4_public_sweeps_allocate_little(self, monkeypatch, name, most):
        # keyed by the whole of the other row, they allocated 22,431 and 62,451 times
        calls = []
        real = strategy._allocate

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(strategy, "_allocate", spy)
        result = verify_truthful_on_grid(Mechanism(name), PUBLIC_RANKINGS, 2, 4, (0, 1, 2))
        assert (result.violations, result.complete) == (0, True)
        assert len(calls) <= most


def test_criterion_4_sweep_sums_each_row_bundle_once(monkeypatch):
    # each (true row, bundle) value is summed once per sweep: at most
    # 81 rows x 16 bundles, where every combination of the other
    # player's classes summed them again (13,041 sums)
    sums, summed = [], []
    real_sum, real_missing = sum, strategy._Values.__missing__

    def count_sum(*args):
        sums.append(None)
        return real_sum(*args)

    def record(table, bundle):
        summed.append((table.row, bundle))
        return real_missing(table, bundle)

    monkeypatch.setattr(strategy, "sum", count_sum, raising=False)
    monkeypatch.setattr(strategy._Values, "__missing__", record)
    result = verify_truthful_on_grid(Mechanism("pick-seq"), ORDINAL, 2, 4, (0, 1, 2))
    assert (result.violations, result.complete) == (0, True)
    assert len(set(summed)) == len(summed) == len(sums) <= 81 * 16


@pytest.mark.parametrize(
    "name, model, grid, verdicts",
    [
        ("pick-seq", ORDINAL, (0, 1, 2), 405),
        ("pr", ORDINAL, (0, 1, 2), 1_296),
        ("pr-exact-2-4", PUBLIC_RANKINGS, (0, 1, 2), 81),
        ("cut-and-choose", CARDINAL, (1, 3), 240),
    ],
)
def test_criterion_4_scores_each_reach_outcome_once(monkeypatch, name, model, grid, verdicts):
    # a pool's true rows are scored once per distinct reach outcome, where
    # every combination of the other player's classes scored them again
    # (3,726, 3,726, 1,863 and 512 verdicts); a second sweep in the same
    # process scores as many, so nothing outlives a call.  A pr-exact-2-4
    # pool is scored only where the players share a favorite, as elsewhere
    # she reaches one bundle (324 verdicts when every outcome was scored)
    calls = []
    real = strategy._gains

    def spy(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(strategy, "_gains", spy)
    counts = []
    for _ in range(2):
        calls.clear()
        verify_truthful_on_grid(Mechanism(name), model, 2, 4, grid)
        counts.append(len(calls))
    assert counts == [verdicts, verdicts]


def test_one_player_sweep_holds_no_table_per_row():
    # with one player each true row is scored once, so no row's table of
    # bundle values is held for the whole sweep; holding one per row took
    # the traced peak to over five times the grid's rows
    sweep = (Mechanism("pick-seq"), ORDINAL, 1, 5, range(5))
    verify_truthful_on_grid(*sweep)  # the allocator's memos fill untraced
    tracemalloc.start()
    try:
        rows = list(product(range(5), repeat=5))
        size = tracemalloc.get_traced_memory()[0]
        del rows
        tracemalloc.reset_peak()
        result = verify_truthful_on_grid(*sweep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (result.instances, result.violations) == (5**5, 0)
    assert peak < 3 * size
