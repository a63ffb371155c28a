import math
import random
from fractions import Fraction

import pytest

from conftest import random_instance
from mmsfair import (
    InfeasibleParams,
    MechanismError,
    PickingSequence,
    build_sqrt_sequence,
    derive_ranking,
    harmonic_number,
    length_bound,
    maximin_share,
    mechanism,
    pair_schedule,
    power_lower_rational,
    run_picking_sequence,
    sqrt_seq_params,
    theoretical_ratio,
    verify_pick_positions,
    verify_schedule_demand,
)
from mmsfair import seqbuild
from mmsfair.cli import main
from mmsfair.seqbuild import DemandViolation


class TestPowerLowerRational:
    def test_lower_bound_and_tightness(self):
        for n, eps in ((17, Fraction(1, 4)), (5, Fraction(3, 20)), (2, Fraction(1, 2))):
            exponent = Fraction(1, 2) + eps
            alpha = power_lower_rational(n, exponent)
            assert alpha.denominator <= 10**6
            # exact check alpha <= n**-exponent
            a, b = exponent.numerator, exponent.denominator
            assert alpha.numerator**b * n**a <= alpha.denominator**b
            target = n ** (-float(exponent))
            assert target - float(alpha) < 2e-6

    def test_trivial_cases(self):
        assert power_lower_rational(1, Fraction(3, 4)) == 1
        assert power_lower_rational(4, Fraction(1, 2)) == Fraction(1, 2)
        assert power_lower_rational(8, Fraction(1, 3)) == Fraction(1, 2)

    def test_exponent_denominator_limit(self):
        alpha = power_lower_rational(3, Fraction(1001, 2000))
        assert alpha.numerator**2000 * 3**1001 <= alpha.denominator**2000
        with pytest.raises(ValueError, match="^exponent 1001/2001 has a denominator over 2000$"):
            power_lower_rational(3, Fraction(1001, 2001))

    def test_huge_exponent_denominator_is_written_short(self):
        # 1/2 + 10**-1000 once gave an error line of about 2,000 digits
        with pytest.raises(ValueError) as err:
            power_lower_rational(17, Fraction(1, 2) + Fraction(1, 10**1000))
        assert str(err.value) == "exponent 5.000e+999/1.000e+1000 has a denominator over 2000"

    @pytest.mark.parametrize("limit", [1, 2, 7, 60])
    def test_largest_fraction_under_a_small_denominator_limit(self, monkeypatch, limit):
        # every p/q with q <= limit, compared exactly with the target
        monkeypatch.setattr(seqbuild, "_MAX_DEN", limit)
        rng = random.Random(limit)
        for _ in range(40):
            n = rng.randint(2, 30)
            a, b = rng.randint(1, 40), rng.randint(1, 12)
            best = max(
                Fraction(p, q)
                for q in range(1, limit + 1)
                for p in range(q + 1)
                if p**b * n**a <= q**b
            )
            assert power_lower_rational(n, Fraction(a, b)) == best

    def test_target_below_every_fraction(self):
        # 2**20 > 10**6, so 1/10**6 is already above 2**-20; 3**(10**9) is
        # never formed
        assert power_lower_rational(2, Fraction(19)) == Fraction(1, 2**19)
        assert power_lower_rational(2, Fraction(20)) == 0
        assert power_lower_rational(3, Fraction(10**9)) == 0


class TestPickingSequence:
    def test_only_a_cyclic_sequence_needs_a_pick(self):
        assert PickingSequence(()).picks == ()
        with pytest.raises(MechanismError, match="^a cyclic picking sequence needs at least one pick$"):
            PickingSequence((), cyclic=True)


class TestBuild:
    def test_single_player(self):
        seq = build_sqrt_sequence(sqrt_seq_params(1, 6, Fraction(1, 4)))
        assert seq.picks == (0,) * 6
        assert verify_pick_positions(seq, 1, Fraction(1)) == []

    def test_smallest_feasible_m_for_17_players(self):
        eps = Fraction(1, 4)
        m = 17
        while True:
            params = sqrt_seq_params(17, m, eps)
            if length_bound(params) <= m:
                break
            m += 1
        assert m == 29
        seq = build_sqrt_sequence(params)
        assert len(seq.picks) == 29
        assert not seq.cyclic
        assert set(seq.picks) == set(range(17))
        assert verify_pick_positions(seq, 17, params.alpha) == []
        assert verify_schedule_demand(params) == []

    def test_five_players_note(self):
        eps = Fraction(3, 20)
        params0 = sqrt_seq_params(5, 1, eps)
        slack = 1 - params0.alpha * harmonic_number(5)
        assert slack > 0
        m = math.ceil(Fraction(5) / slack)
        params = sqrt_seq_params(5, m, eps)
        seq = build_sqrt_sequence(params)
        assert len(seq.picks) == m
        assert verify_pick_positions(seq, 5, params.alpha) == []

    def test_infeasible_reports_both_sides(self):
        with pytest.raises(InfeasibleParams) as err:
            build_sqrt_sequence(sqrt_seq_params(17, 28, Fraction(1, 4)))
        assert err.value.required == 29
        assert err.value.m == 28
        assert "29" in str(err.value) and "28" in str(err.value)

    def test_rate_below_the_denominator_budget_is_refused(self):
        # 5**-(1/2 + 12) < 1/10**6: the only rational lower bound would be 0
        with pytest.raises(ValueError, match=r"^epsilon 12 too large: "):
            sqrt_seq_params(5, 5, Fraction(12))
        assert sqrt_seq_params(1, 5, Fraction(12)).alpha == 1

    @pytest.mark.parametrize(
        "epsilon, shown",
        [(Fraction(10**1000), "1.000e+1000"), (Fraction(10**20 + 1, 3), "3.333e+19"),
         (Fraction(2**64 - 1, 7), str(Fraction(2**64 - 1, 7)))],
    )
    def test_huge_epsilon_is_written_short(self, epsilon, shown):
        # an epsilon of more than about 20 digits is not written out in full
        with pytest.raises(ValueError) as err:
            sqrt_seq_params(17, 29, epsilon)
        assert str(err.value) == (
            f"epsilon {shown} too large: n**-(1/2 + epsilon) is below 1/1000000"
        )

    def test_every_build_meets_its_deadlines_or_is_refused(self):
        outcomes = set()
        for n in range(2, 6):
            for m in range(1, 101):
                for eps in (Fraction(1, 20), Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), 1):
                    params = sqrt_seq_params(n, m, Fraction(eps))
                    try:
                        seq = build_sqrt_sequence(params)
                    except InfeasibleParams as exc:
                        outcomes.add("due by" in str(exc))
                        continue
                    assert verify_pick_positions(seq, n, params.alpha) == []
        assert outcomes == {False, True}  # both refusals occur

    def test_deterministic(self):
        p = sqrt_seq_params(17, 40, Fraction(1, 4))
        assert build_sqrt_sequence(p) == build_sqrt_sequence(p)

    def test_pair_deadlines_shape(self):
        params = sqrt_seq_params(17, 29, Fraction(1, 4))
        pairs = pair_schedule(params)
        assert [p.deadline for p in pairs] == sorted(p.deadline for p in pairs)
        for player, deadline in pairs:
            i = player + 1
            step = math.floor(Fraction(17 - i + 1) / params.alpha)
            assert (deadline - i) % step == 0

    def test_allocation_guarantee_random(self):
        params = sqrt_seq_params(17, 29, Fraction(1, 4))
        seq = build_sqrt_sequence(params)
        rng = random.Random(2)
        for _ in range(25):
            inst = random_instance(rng, 17, 29, top=3)
            rankings = [derive_ranking(inst, i) for i in range(17)]
            alloc = run_picking_sequence(rankings, 29, seq)
            for i in range(17):
                assert inst.value(i, alloc.bundles[i]) >= params.alpha * maximin_share(
                    inst, i, 17
                )


class TestScheduleDemand:
    def test_five_players_fifty_one_items(self, capsys):
        # player 3's pick 6 is due by 45; 43 generated pairs are due by then,
        # though her deadlines and player 2's go on past their last pairs
        assert main(["seq", "--n", "5", "--m", "51", "--epsilon", "1/10", "--machine"]) == 0
        assert capsys.readouterr().out.endswith("position_violations=0\ndemand_violations=0\n")

    def test_matches_a_direct_count_of_the_schedule(self):
        flagged = 0
        for n in range(2, 8):
            for m in range(0, 60, 3):
                for eps in (Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), Fraction(1)):
                    try:
                        params = sqrt_seq_params(n, m, eps)
                    except ValueError:
                        continue
                    pairs = pair_schedule(params)
                    want, seen = [], [0] * n
                    for pair in sorted(pairs):  # by player, then deadline
                        due = sum(1 for q in pairs if q.deadline <= pair.deadline)
                        if due > pair.deadline:
                            want.append(
                                DemandViolation(pair.player, seen[pair.player], due, pair.deadline)
                            )
                        seen[pair.player] += 1
                    assert verify_schedule_demand(params) == want, (n, m, eps)
                    if want:  # then no order of the pairs meets every deadline
                        flagged += 1
                        with pytest.raises(InfeasibleParams):
                            build_sqrt_sequence(params)
        assert flagged


class TestVerifyPickPositions:
    def test_deliberate_counterexample(self):
        violations = verify_pick_positions(
            PickingSequence((1, 0)), 2, Fraction(1, 2)
        )
        assert len(violations) == 1
        v = violations[0]
        assert (v.player, v.occurrence, v.position, v.bound) == (0, 0, 2, 1)

    def test_cyclic_rejected(self):
        with pytest.raises(MechanismError):
            verify_pick_positions(
                PickingSequence((0,), cyclic=True), 1, Fraction(1, 2)
            )


class TestTheoreticalRatio:
    def test_known_values(self):
        assert theoretical_ratio(mechanism("pick-seq"), 2, 6) == Fraction(1, 3)
        assert theoretical_ratio(mechanism("best-item"), 2, 6) == Fraction(1, 3)
        assert theoretical_ratio(mechanism("pr"), 2, 9) == Fraction(2, 3)
        assert theoretical_ratio(mechanism("pr"), 3, 5) == Fraction(1, 2)
        assert theoretical_ratio(mechanism("pick-seq"), 3, 4) == 1
        assert theoretical_ratio(mechanism("best-item"), 2, 3) == 1

    def test_sqrt_seq_uses_alpha(self):
        mech = mechanism("sqrt-seq", Fraction(1, 4))
        assert theoretical_ratio(mech, 17, 29) == power_lower_rational(
            17, Fraction(3, 4)
        )

    def test_undefined_for_other_mechanisms(self):
        with pytest.raises(MechanismError):
            theoretical_ratio(mechanism("cut-and-choose"), 2, 4)
        for name in ("pr-exact-2-4", "random-uniform"):
            with pytest.raises(MechanismError, match=f"^no guarantee ratio is defined for {name}$"):
                theoretical_ratio(mechanism(name), 2, 4)
