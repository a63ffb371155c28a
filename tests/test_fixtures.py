import re
from fractions import Fraction

import pytest

from mmsfair import (
    APPROX_FAILURE,
    CARDINAL,
    CONSISTENT,
    FIXTURE_NAMES,
    MANIPULABLE,
    ORDINAL,
    PUBLIC_RANKINGS,
    ChainFixture,
    Mechanism,
    MechanismError,
    builtin_fixture,
    fixture_applies,
    format_fixture,
    maximin_share,
    parse_fixture,
    run_chain,
)

E = Fraction(1, 10)


class TestBuiltinFixtures:
    def test_names(self):
        for name in FIXTURE_NAMES:
            fix = builtin_fixture(name)
            assert fix.name == name
            assert fix.epsilon == E
        with pytest.raises(KeyError):
            builtin_fixture("nope")

    def test_epsilon_ranges(self):
        builtin_fixture("lemma-2+2", Fraction(49, 100))
        builtin_fixture("ordinal-m4", Fraction(1, 2))
        builtin_fixture("pr-m5", Fraction(1, 6))
        with pytest.raises(ValueError):
            # 2 - e and 1 + e coincide: the chain degenerates
            builtin_fixture("lemma-2+2", Fraction(1, 2))
        with pytest.raises(ValueError):
            builtin_fixture("pr-m5", Fraction(1, 5))
        with pytest.raises(ValueError):
            builtin_fixture("pr-m6", Fraction(1, 4))
        with pytest.raises(ValueError):
            builtin_fixture("lemma-1+3", Fraction(0))

    @pytest.mark.parametrize("epsilon", [0.1, "1/10"])
    def test_inexact_epsilon_refused(self, epsilon):
        with pytest.raises(ValueError, match=f"^epsilon {epsilon!r} is not rational$"):
            builtin_fixture("lemma-2+2", epsilon)

    def test_thresholds(self):
        assert builtin_fixture("lemma-2+2").threshold == Fraction(3, 5)
        assert builtin_fixture("lemma-1+3").threshold == Fraction(3, 5)
        assert builtin_fixture("pr-m6").threshold == Fraction(9, 10)
        assert builtin_fixture("pr-m5").threshold == Fraction(14, 15)
        assert builtin_fixture("ordinal-m4").threshold == Fraction(3, 5)

    def test_lemma_fixture_rows_are_known_multisets(self):
        plus = {2 + E, 1 + E, 1 - E, E / 2}
        minus = {2 - E, 1 + E, 1 - E, E / 2}
        fix = builtin_fixture("lemma-2+2")
        for profile in fix.profiles:
            for row in profile:
                assert set(row) in (plus, minus)

    def test_stated_shares(self):
        expectations = {
            # (fixture, profile index) -> per-player two-bundle shares
            ("lemma-2+2", 0): (Fraction(39, 20), Fraction(39, 20)),
            ("lemma-2+2", 1): (Fraction(39, 20), Fraction(41, 20)),
            ("lemma-1+3", 0): (Fraction(39, 20), Fraction(39, 20)),
            ("lemma-1+3", 7): (Fraction(2), Fraction(39, 20)),
            ("pr-m6", 0): (Fraction(3), Fraction(3)),
            ("pr-m6", 1): (Fraction(1), Fraction(3)),
            ("pr-m6", 2): (Fraction(1), Fraction(1)),
            ("pr-m6", 3): (Fraction(3), Fraction(1)),
            ("pr-m6", 4): (Fraction(3), Fraction(1)),
            ("pr-m5", 0): (Fraction(2), Fraction(2)),
            ("pr-m5", 1): (Fraction(1), Fraction(2)),
            ("pr-m5", 2): (Fraction(1), Fraction(1)),
            ("pr-m5", 3): (Fraction(2), Fraction(1)),
            ("pr-m5", 4): (Fraction(2), Fraction(1)),
            ("pr-m5", 5): (Fraction(1), Fraction(1)),
            ("pr-m5", 6): (Fraction(3, 5), Fraction(1)),
            ("ordinal-m4", 0): (Fraction(2), Fraction(2)),
        }
        for (name, idx), shares in expectations.items():
            inst = builtin_fixture(name).instance(idx)
            got = tuple(maximin_share(inst, i, 2) for i in range(2))
            assert got == shares, (name, idx, got)

    def test_one_item_chain_ends_all_ones(self):
        fix = builtin_fixture("lemma-1+3")
        assert fix.profiles[-1][0] == (1, 1, 1, 1)

    def test_edges_change_exactly_one_row(self):
        # enforced by the constructor; re-check the data directly
        for name in FIXTURE_NAMES:
            fix = builtin_fixture(name)
            for src, dst, player in fix.deviation_edges:
                assert fix.profiles[src][1 - player] == fix.profiles[dst][1 - player]
                assert fix.profiles[src][player] != fix.profiles[dst][player]

    def test_constructor_rejects_bad_edge(self):
        fix = builtin_fixture("pr-m6")
        with pytest.raises(ValueError, match="changes"):
            ChainFixture(
                name="bad",
                epsilon=E,
                threshold=Fraction(1, 2),
                model=CARDINAL,
                profiles=fix.profiles,
                deviation_edges=((0, 2, 0),),
            )

    @pytest.mark.parametrize(
        "value, message",
        [
            (1.5, "value for player 2, item 3 is not rational"),
            (-1, "negative value for player 2, item 3"),
            ("1", "value for player 2, item 3 is not rational"),
        ],
    )
    def test_constructor_refuses_values_instance_refuses(self, value, message):
        # such a profile was written by format_fixture and refused by
        # parse_fixture, and run_chain failed without naming it
        profiles = list(builtin_fixture("pr-m6").profiles)
        row = list(profiles[1][1])
        row[2] = value
        profiles[1] = (profiles[1][0], tuple(row))
        with pytest.raises(ValueError, match=f"^profile 2: {message}$"):
            ChainFixture("bad", E, Fraction(1, 2), PUBLIC_RANKINGS, tuple(profiles), ())

    def test_constructor_refuses_inexact_threshold(self):
        profiles = builtin_fixture("pr-m6").profiles
        with pytest.raises(ValueError, match="^threshold 0.8 is not rational$"):
            ChainFixture("bad", E, 0.8, PUBLIC_RANKINGS, profiles, ())

    def test_constructor_names_out_of_range_edge_one_based(self):
        fix = builtin_fixture("pr-m6")
        with pytest.raises(ValueError, match=r"^edge \(1, 6, player 1\) out of range$"):
            ChainFixture(
                name="bad",
                epsilon=E,
                threshold=Fraction(1, 2),
                model=PUBLIC_RANKINGS,
                profiles=fix.profiles,
                deviation_edges=((0, 5, 0),),
            )


class TestRunChain:
    def test_best_item_fails_at_final_all_ones_profile(self):
        fix = builtin_fixture("lemma-1+3")
        report = run_chain(fix, Mechanism("best-item"), CARDINAL)
        assert report.verdict == APPROX_FAILURE
        final = report.profiles[-1]
        assert final.index == len(fix.profiles) - 1
        assert final.ratios[0] == Fraction(1, 2)
        assert not final.meets_threshold
        assert all(p.meets_threshold for p in report.profiles[:-1])

    def test_pr_caught_on_public_chain(self):
        report = run_chain(builtin_fixture("pr-m6"), Mechanism("pr"), PUBLIC_RANKINGS)
        assert report.verdict != CONSISTENT

    def test_cut_and_choose_caught_on_every_value_fixture(self):
        for name, model in (
            ("lemma-2+2", CARDINAL),
            ("lemma-1+3", CARDINAL),
            ("pr-m6", PUBLIC_RANKINGS),
            ("pr-m5", PUBLIC_RANKINGS),
        ):
            report = run_chain(builtin_fixture(name), Mechanism("cut-and-choose"), model)
            assert report.verdict in (MANIPULABLE, APPROX_FAILURE), name
            # exact under truthful play, so the chain must catch a deviation
            assert report.verdict == MANIPULABLE, name

    def test_pr_run_ordinally_is_manipulated(self):
        report = run_chain(builtin_fixture("ordinal-m4"), Mechanism("pr"), ORDINAL)
        assert report.verdict == MANIPULABLE

    def test_model_mismatch(self):
        with pytest.raises(MechanismError):
            run_chain(builtin_fixture("ordinal-m4"), Mechanism("cut-and-choose"), ORDINAL)

    def test_gain_values_recorded(self):
        report = run_chain(
            builtin_fixture("lemma-2+2"), Mechanism("cut-and-choose"), CARDINAL
        )
        profitable = [e for e in report.edges if e.profitable]
        assert profitable
        for e in profitable:
            assert e.deviation_value - e.truthful_value == e.gain > 0


class TestApplicability:
    def test_structural_premises(self):
        best = Mechanism("best-item")
        assert not fixture_applies(builtin_fixture("lemma-2+2"), best)
        assert fixture_applies(builtin_fixture("lemma-1+3"), best)
        assert fixture_applies(builtin_fixture("ordinal-m4"), best)
        assert fixture_applies(builtin_fixture("pr-m6"), Mechanism("pr"))

    def test_model_gates(self):
        assert not fixture_applies(builtin_fixture("lemma-2+2"), Mechanism("pr-exact-2-4"))
        assert not fixture_applies(builtin_fixture("ordinal-m4"), Mechanism("cut-and-choose"))

    def test_a_file_carries_no_premise_whatever_its_name(self):
        text = "threshold 1/2\nprofile\n1 1 1 1\n1 1 1 1\n"
        for mech in (Mechanism("best-item"), Mechanism("cut-and-choose")):
            for name in ("custom", "lemma-2+2", "lemma-1+3"):
                fix = parse_fixture(text, name=name)
                assert fix.premise is None
                assert fixture_applies(fix, mech)

    def test_infeasible_mechanism_not_applicable(self):
        sq = Mechanism("sqrt-seq", Fraction(1, 4))
        assert not fixture_applies(builtin_fixture("pr-m6"), sq)
        assert not fixture_applies(builtin_fixture("pr-m5"), sq)


class TestFixtureFiles:
    def test_round_trip(self):
        for name in FIXTURE_NAMES:
            fix = builtin_fixture(name)
            parsed = parse_fixture(format_fixture(fix), name=name)
            assert parsed.profiles == fix.profiles
            assert parsed.deviation_edges == fix.deviation_edges
            assert parsed.threshold == fix.threshold
            assert parsed.model == fix.model

    def test_parse_minimal(self):
        text = """
        # tiny chain
        threshold 3/5
        profile
        1 1
        1 0
        profile
        1 1
        0 1
        edge 1 2 2
        """
        fix = parse_fixture(text)
        assert fix.m == 2
        assert fix.deviation_edges == ((0, 1, 1),)

    def test_parse_errors(self):
        with pytest.raises(ValueError, match="threshold"):
            parse_fixture("profile\n1 1\n1 1\n")
        with pytest.raises(ValueError, match="2 rows"):
            parse_fixture("threshold 1/2\nprofile\n1 1\nedge 1 1 1\n")
        with pytest.raises(ValueError, match="unexpected"):
            parse_fixture("threshold 1/2\nwhat is this\n")

    @pytest.mark.parametrize("keyword", ["threshold", "epsilon", "model"])
    def test_bare_keyword_names_line(self, keyword):
        text = "threshold 1/2\n\n  " + keyword + "  \n"
        with pytest.raises(ValueError, match=f"^line 3: {keyword} needs a value$"):
            parse_fixture(text)

    @pytest.mark.parametrize(
        "text, line, token",
        [
            ("threshold 1/2\nprofile\n1e0 0.5 0.25 0.25\n0 1 1 1\n", 3, "1e0"),
            ("threshold 1/2\nprofile\n1 1/2 1/4 1/4\n0 1 .5 1\n", 4, ".5"),
            ("threshold 0.6\nprofile\n1 0\n0 1\n", 1, "0.6"),
            ("epsilon 1e-1\nthreshold 1/2\n", 1, "1e-1"),
            ("threshold 1/2\nepsilon 1/10.\n", 2, "1/10."),
        ],
    )
    def test_values_are_integers_or_fractions(self, text, line, token):
        with pytest.raises(ValueError, match=re.escape(f"line {line}: malformed value '{token}'") + "$"):
            parse_fixture(text)

    def test_zero_denominator_names_line(self):
        with pytest.raises(ValueError, match="^line 3: zero denominator in '1/0'$"):
            parse_fixture("threshold 1/2\nprofile\n1/0 1\n1 1\n")

    def test_value_types_are_fractions(self):
        fix = parse_fixture("epsilon 1\nthreshold 3/5\nprofile\n2 1/2\n-0 4/2\n")
        assert fix.epsilon == 1
        assert fix.profiles == (((Fraction(2), Fraction(1, 2)), (Fraction(0), Fraction(2))),)
        for value in (fix.epsilon, fix.threshold, *fix.profiles[0][0], *fix.profiles[0][1]):
            assert type(value) is Fraction

    @pytest.mark.parametrize("tokens", ["1 x 2", "1 2", "1 2 3 4", "1 -2 1", "1 2.0 1"])
    def test_edge_needs_whole_numbers(self, tokens):
        text = f"threshold 1/2\nprofile\n1 0\n0 1\nedge {tokens}\n"
        with pytest.raises(
            ValueError, match="^line 5: edge needs FROM TO PLAYER as whole numbers$"
        ):
            parse_fixture(text)

    def test_unknown_model_names_line(self):
        with pytest.raises(ValueError, match="^line 2: unknown model 'nosuch'$"):
            parse_fixture("threshold 1/2\nmodel nosuch\nprofile\n1 0\n0 1\n")

    def test_short_profile_at_end_names_last_line(self):
        with pytest.raises(ValueError, match="^line 3: profile needs exactly 2 rows, got 1$"):
            parse_fixture("threshold 1/2\nprofile\n1 0 0 0\n")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("edge 0 1 2", "edge FROM 0 out of range [1, 2]"),
            ("edge 1 0 2", "edge TO 0 out of range [1, 2]"),
            ("edge 3 1 2", "edge FROM 3 out of range [1, 2]"),
            ("edge 1 3 2", "edge TO 3 out of range [1, 2]"),
            ("edge 2 1 3", "edge PLAYER 3 out of range [1, 2]"),
            ("edge 1 2 0", "edge PLAYER 0 out of range [1, 2]"),
        ],
    )
    def test_edge_out_of_range_names_line(self, line, message):
        text = f"threshold 1/2\nprofile\n1 0\n0 1\nprofile\n0 1\n0 1\n{line}\n"
        with pytest.raises(ValueError, match=re.escape(f"line 8: {message}") + "$"):
            parse_fixture(text)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("edge 1 2 1", "edge (1, 2, player 1) changes the other player's row"),
            ("edge 2 1 1", "edge (2, 1, player 1) changes the other player's row"),
            ("edge 2 3 1", "edge (2, 3, player 1) changes no row"),
            ("edge 3 2 2", "edge (3, 2, player 2) changes no row"),
        ],
    )
    def test_edge_row_errors_name_line(self, line, message):
        # profiles 1 -> 2 change player 2's row; 2 and 3 are equal
        text = "threshold 1/2\n" + "profile\n1 0\n0 1\n" + "profile\n1 0\n1 1\n" * 2
        with pytest.raises(ValueError, match=re.escape(f"line 11: {message}") + "$"):
            parse_fixture(text + line + "\n")

    def test_edge_may_precede_its_profiles(self):
        head = "threshold 1/2\nedge 2 1 1\n"
        fix = parse_fixture(head + "profile\n1 0\n0 1\nprofile\n0 1\n0 1\n")
        assert fix.deviation_edges == ((1, 0, 0),)
        with pytest.raises(ValueError, match=r"^line 2: edge FROM 2 out of range \[1, 1\]$"):
            parse_fixture(head + "profile\n1 0\n0 1\n")

    @pytest.mark.parametrize(
        "rows, line, profile",
        [
            (("1 0", "0 1 1", "1 0", "0 1"), 4, 1),
            (("1 0", "0 1", "1 0 0", "0 1"), 6, 2),
            (("1 0", "0 1", "1 0", "0"), 7, 2),
        ],
    )
    def test_row_length_error_names_line(self, rows, line, profile):
        # profile 1's rows sit on lines 3-4, profile 2's on lines 6-7
        text = "threshold 1/2\nprofile\n{}\n{}\nprofile\n{}\n{}\nedge 1 2 1\n".format(*rows)
        message = f"line {line}: profile {profile} is not a 2 x 2 matrix"
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            parse_fixture(text)
