import random
from fractions import Fraction
from itertools import product

import pytest

from conftest import EX23_TEXT, random_instance
from mmsfair import (
    CARDINAL,
    Allocation,
    ChainFixture,
    DiscreteUniform,
    Instance,
    InstanceError,
    MCConfig,
    PickingSequence,
    Ranking,
    derive_ranking,
    format_instance,
    maximin_share,
    parse_instance,
    validate_allocation,
)
from mmsfair import instance
from mmsfair.instance import BUDGET, ranking_order


class TestParsing:
    def test_basic(self):
        inst = parse_instance("2 3\n1 1/2 0\n2/3 1 1")
        assert inst.n == 2 and inst.m == 3
        assert inst.values[0] == (1, Fraction(1, 2), 0)
        assert inst.values[1] == (Fraction(2, 3), 1, 1)

    def test_example_table_with_comments(self):
        inst = parse_instance(EX23_TEXT)
        assert inst.n == 3 and inst.m == 5
        assert inst.values[0] == (
            Fraction(1, 2),
            Fraction(1, 2),
            Fraction(1, 3),
            Fraction(1, 3),
            Fraction(1, 3),
        )

    def test_negative_value_reports_line(self):
        with pytest.raises(InstanceError, match="line 2.*negative"):
            parse_instance("2 2\n1 -1\n1 1")

    def test_zero_denominator(self):
        with pytest.raises(InstanceError, match="line 3.*zero denominator"):
            parse_instance("2 2\n1 1\n1/0 1")

    def test_malformed_value(self):
        with pytest.raises(InstanceError, match="line 2.*malformed"):
            parse_instance("1 2\n1 0.5")

    def test_bad_header(self):
        with pytest.raises(InstanceError, match="header"):
            parse_instance("two 3\n1 1 1")

    def test_wrong_row_count(self):
        with pytest.raises(InstanceError, match="rows"):
            parse_instance("3 2\n1 1\n1 1")
        with pytest.raises(InstanceError, match="rows"):
            parse_instance("1 2\n1 1\n1 1")

    def test_wrong_row_length(self):
        with pytest.raises(InstanceError, match="line 3.*expected 3"):
            parse_instance("2 3\n1 1 1\n1 1")

    def test_zero_items(self):
        assert parse_instance("1 0\n\n") == Instance(((),))
        assert parse_instance("# no items\n3 0\n").values == ((), (), ())
        empty = Instance(((), ()))
        assert parse_instance(format_instance(empty)) == empty

    def test_zero_items_caps_the_player_count(self):
        assert len(parse_instance(f"{BUDGET} 0\n").values) == BUDGET
        with pytest.raises(InstanceError, match="line 2: player count 1000001 is over"):
            parse_instance(f"# header\n{BUDGET + 1} 0\n")

    def test_zero_items_refuses_a_value(self):
        with pytest.raises(InstanceError, match="line 2.*expected 0 values, found 1"):
            parse_instance("1 0\n5\n")
        with pytest.raises(InstanceError, match="line 2.*expected 2 value rows"):
            parse_instance("2 0\n5\n")

    def test_round_trip(self):
        rng = random.Random(0)
        inst = random_instance(rng, 3, 6)
        assert parse_instance(format_instance(inst)) == inst
        frac = Instance.from_rows([[Fraction(1, 3), Fraction(7, 2)]])
        assert parse_instance(format_instance(frac)) == frac


class TestBundleValue:
    def test_examples(self, ex23):
        assert ex23.value(2, {0, 1}) == 1
        assert ex23.value(0, set()) == 0
        assert ex23.value(1, range(5)) == Fraction(5, 4)

    def test_out_of_range(self, ex23):
        with pytest.raises(IndexError):
            ex23.value(0, {5})
        with pytest.raises(IndexError):
            ex23.value(3, {0})

    def test_repeated_item_counts_once(self):
        # items are a set, as for maximin_share
        inst = Instance.from_rows([[1, 2, 3], [1, 1, 1]])
        assert inst.value(0, [2, 2]) == inst.value(0, {2}) == 3
        assert maximin_share(inst, 0, 1, items=[2, 2]) == 3
        assert inst.value(1, [0, 1, 0, 1]) == 2
        with pytest.raises(IndexError, match=r"^item index 3 out of range \[0, 3\)$"):
            inst.value(0, [2, 3, 2])

    def test_float_player_refused(self, ex23):
        with pytest.raises(ValueError, match=r"^player index 0\.0 is not an integer$"):
            ex23.value(0.0, {0})

    def test_float_item_refused(self, ex23):
        with pytest.raises(ValueError, match=r"^item index 1\.0 is not an integer$"):
            ex23.value(0, [0, 1.0])

    def test_numpy_indices_taken(self, ex23):
        np = pytest.importorskip("numpy")
        assert ex23.value(np.int64(2), np.array([0, 1])) == 1


class TestDeriveRanking:
    def test_tie_break_by_index(self, ex23):
        assert derive_ranking(ex23, 0).order == (0, 1, 2, 3, 4)

    def test_strict_sort(self):
        inst = Instance.from_rows([[0, 1, 2]])
        assert derive_ranking(inst, 0).order == (2, 1, 0)

    def test_all_equal(self):
        inst = Instance.from_rows([[3, 3, 3, 3]])
        assert derive_ranking(inst, 0).order == (0, 1, 2, 3)

    def test_ranking_must_be_permutation(self):
        with pytest.raises(ValueError):
            Ranking((0, 0, 1))

    def test_list_order_is_kept_as_a_tuple(self):
        assert Ranking([2, 0, 1]) == Ranking((2, 0, 1))
        assert Ranking([2, 0, 1]).order == (2, 0, 1)


class TestRankingOrderMemo:
    def test_list_row(self):
        assert ranking_order([1, 2, 1, 2]) == ranking_order((1, 2, 1, 2)) == (1, 3, 0, 2)

    def test_int_and_fraction_twins_share_an_entry(self):
        instance._order.cache_clear()
        rows = list(product((0, 1, 2), repeat=4))
        for row in rows:
            want = tuple(sorted(range(4), key=lambda j: (-row[j], j)))
            assert ranking_order(row) == want
            assert ranking_order(tuple(Fraction(v) for v in row)) == want
            assert ranking_order([Fraction(v, 1) for v in row]) == want
        assert instance._order.cache_info().currsize == len(rows)

    def test_stays_within_its_bound(self):
        bound = instance._order.cache_info().maxsize
        for k in range(2, bound + 100):  # item 1 ranks first, item 2 last
            assert ranking_order((1, k, 0)) == (1, 0, 2)
        assert instance._order.cache_info().currsize <= bound
        assert ranking_order([2, 0, 1]) == (0, 2, 1)


class TestValidateAllocation:
    def test_ok(self, ex23):
        alloc = Allocation.from_bundles([[0], [1, 2], [3, 4]])
        assert validate_allocation(ex23, alloc) == []

    def test_duplicate(self):
        inst = Instance.from_rows([[1, 1, 1], [1, 1, 1]])
        alloc = Allocation.from_bundles([[0, 1], [1, 2]])
        assert any("item 2" in v for v in validate_allocation(inst, alloc))

    def test_missing(self):
        inst = Instance.from_rows([[1, 1, 1], [1, 1, 1]])
        alloc = Allocation.from_bundles([[0], [1]])
        assert any("item 3 unassigned" in v for v in validate_allocation(inst, alloc))

    def test_wrong_bundle_count_and_range(self):
        inst = Instance.from_rows([[1, 1], [1, 1]])
        alloc = Allocation.from_bundles([[0, 1, 5]])
        violations = validate_allocation(inst, alloc)
        assert any("expected 2 bundles" in v for v in violations)
        assert any("out of range" in v for v in violations)


def test_instance_rejects_bad_rows():
    with pytest.raises(InstanceError):
        Instance.from_rows([])
    with pytest.raises(InstanceError):
        Instance.from_rows([[1, 2], [1]])
    with pytest.raises(InstanceError):
        Instance.from_rows([[1, -1]])
    with pytest.raises(InstanceError):
        Instance.from_rows([[0.5, 1]])


def _row_error_reference(values):
    """The message of the first fault, by the loop that once checked every
    value in turn: per row its length, then per value its type, then its
    sign; None when there is no fault."""
    if len(values) < 1:
        return "an instance needs at least one player"
    m = len(values[0])
    for i, row in enumerate(values):
        if len(row) != m:
            return f"player {i + 1} has {len(row)} values, expected {m}"
        for j, v in enumerate(row):
            if not isinstance(v, (int, Fraction)):
                return f"value for player {i + 1}, item {j + 1} is not rational"
            if v < 0:
                return f"negative value for player {i + 1}, item {j + 1}"
    return None


@pytest.mark.parametrize(
    "rows",
    [
        [[1, 0.5]],  # a float
        [[1, 2], [3, -1]],  # a negative
        [[1, "2"]],  # a str, which does not compare with 0
        [[1, -1, 0.5]],  # a negative before a float
        [[1, 0.5, -1]],  # a float before a negative
        [[1, -0.5]],  # a negative float: the type check comes first
        [[1, 2], [1]],  # a ragged row
        [],  # no players
        [[1, 2], [1, 2, 3], [0.5, 1]],  # a ragged row before a float
        [[1, -2], [1]],  # a negative before a ragged row
        [[None, 1], [1, 2]],  # None
        [[Fraction(-1, 2), 1]],  # a negative Fraction
        [[1.0, -1]],  # a float equal to an int
        [[True, 1], [0, 2]],  # bool is an int: no fault
        [[Fraction(1, 2), 0], [3, 4]],  # no fault
    ],
)
def test_row_errors_match_the_per_value_loop(rows):
    want = _row_error_reference(rows)
    builds = (
        lambda: Instance.from_rows(rows),
        lambda: Instance(tuple(rows)),  # list rows, as given
    )
    for build in builds:
        if want is None:
            build()
            continue
        with pytest.raises(InstanceError) as err:
            build()
        assert str(err.value) == want


# Each record built from lists and from tuples, and the fields that a
# record stores as tuples.
_FROM_LISTS = {
    "instance": (
        lambda seq: Instance(seq([seq([1, 2]), seq([2, Fraction(1, 2)])])),
        lambda rec: rec.values,
    ),
    "chain-fixture": (
        lambda seq: ChainFixture(
            "x", Fraction(1, 10), Fraction(1, 2), CARDINAL,
            seq([seq([seq([1, 2]), seq([2, 1])]), seq([seq([1, 3]), seq([2, 1])])]),
            seq([seq([0, 1, 0])]),
        ),
        lambda rec: (rec.profiles, rec.deviation_edges),
    ),
    "picking-sequence": (
        lambda seq: PickingSequence(seq([0, 1, 1]), cyclic=True),
        lambda rec: rec.picks,
    ),
    "mc-config": (
        lambda seq: MCConfig(
            n=2, m=3, distributions=seq([DiscreteUniform(3)] * 2), rho=0.5, trials=5
        ),
        lambda rec: rec.distributions,
    ),
}


def _all_tuples(data):
    """Whether ``data`` is a tuple and so is each nested tuple-or-list in it."""
    return type(data) is tuple and all(
        _all_tuples(x) for x in data if isinstance(x, (tuple, list))
    )


@pytest.mark.parametrize("name", sorted(_FROM_LISTS))
def test_record_from_lists_is_the_record_from_tuples(name):
    build, fields = _FROM_LISTS[name]
    from_lists, from_tuples = build(list), build(tuple)
    assert from_lists == from_tuples
    assert hash(from_lists) == hash(from_tuples)
    assert _all_tuples(fields(from_lists))


def test_checked_instance_rows_cannot_be_assigned():
    inst = Instance(([1, 2], [2, 1]))
    with pytest.raises(TypeError):
        inst.values[0][0] = -5
    assert maximin_share(inst, 0, 2) == 1


class TestEnumerationSize:
    @pytest.mark.parametrize("limit", [0, 1, 7, 8, 9, 1023, 1024, 10**6, -5])
    def test_matches_the_plain_power(self, limit):
        for base, exp in product(range(0, 40), range(0, 25)):
            size = base**exp
            if size <= limit:
                assert instance._enumeration_size(base, exp, limit, "{} {}") == size
            else:
                with pytest.raises(instance.EnumerationLimitError) as err:
                    instance._enumeration_size(base, exp, limit, "needs {}, over {}")
                assert str(err.value) == f"needs {size}, over {limit}"

    def test_huge_power_is_named_not_computed(self):
        with pytest.raises(instance.EnumerationLimitError) as err:
            instance._enumeration_size(3, 10**15, 10**6, "needs {}, over {}")
        assert str(err.value) == f"needs 3**{10**15}, over 1000000"
