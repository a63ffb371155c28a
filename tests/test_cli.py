import argparse
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from conftest import EX23_TEXT
from mmsfair import (
    Instance,
    Mechanism,
    Ranking,
    cli,
    derive_ranking,
    mms,
    run_mechanism,
)
from mmsfair.cli import build_parser, main


@pytest.fixture
def ex23_file(tmp_path):
    path = tmp_path / "ex23.txt"
    path.write_text(EX23_TEXT)
    return str(path)


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestMms:
    def test_example_shares(self, capsys, ex23_file):
        status, out, _ = run_cli(capsys, "mms", "--instance", ex23_file)
        assert status == 0
        assert "player 1: mms = 1/2" in out
        assert "player 2: mms = 1/4" in out
        assert "player 3: mms = 1" in out

    def test_machine_format(self, capsys, ex23_file):
        status, out, _ = run_cli(capsys, "mms", "--instance", ex23_file, "--machine")
        assert status == 0
        assert "mms.1=1/2" in out
        assert "mms.3=1/1" in out

    def test_parts_override(self, capsys, ex23_file):
        status, out, _ = run_cli(
            capsys, "mms", "--instance", ex23_file, "--parts", "2", "--machine"
        )
        assert "mms.1=1/1" in out
        assert "mms.3=3/2" in out

    def test_zero_items(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("1 0\n\n")
        status, out, err = run_cli(capsys, "mms", "--instance", str(path), "--machine")
        assert (status, out, err) == (0, "mms.1=0/1\n", "")

    def test_zero_items_with_a_huge_header(self, capsys, tmp_path):
        path = tmp_path / "huge.txt"
        path.write_text("1000000000 0\n")
        start = time.perf_counter()
        status, out, err = run_cli(capsys, "mms", "--instance", str(path))
        assert time.perf_counter() - start < 0.5
        assert (status, out) == (2, "")
        assert err == (
            "error: line 1: player count 1000000000 is over the limit of"
            " 1000000 without value rows\n"
        )

    def test_three_parts_of_24_wide_items(self, capsys, tmp_path):
        # bench/checks.milp_share gives the same share, in about two minutes
        rng = random.Random(7)
        row = [rng.randint(1, 10**6) for _ in range(24)]
        path = tmp_path / "inst.txt"
        path.write_text("1 24\n" + " ".join(map(str, row)) + "\n")
        status, out, err = run_cli(
            capsys, "mms", "--instance", str(path), "--parts", "3", "--machine"
        )
        assert (status, out, err) == (0, "mms.1=3008070/1\n", "")


class TestRun:
    def test_pr_ordinal(self, capsys, ex23_file):
        status, out, _ = run_cli(
            capsys, "run", "--instance", ex23_file, "--mech", "pr", "--model", "ordinal"
        )
        assert status == 0
        assert "overall ratio: 1" in out
        assert "theoretical bound 1/2" in out

    def test_machine_deterministic(self, capsys, ex23_file):
        _, out1, _ = run_cli(
            capsys, "run", "--instance", ex23_file, "--mech", "random-uniform",
            "--model", "cardinal", "--machine",
        )
        _, out2, _ = run_cli(
            capsys, "run", "--instance", ex23_file, "--mech", "random-uniform",
            "--model", "cardinal", "--machine",
        )
        assert out1 == out2

    def test_cut_and_choose_of_22_items(self, capsys, tmp_path):
        # the proposer's cut {1..14, 21} (126 against 127) is the one the
        # enumeration of all 2**21 two-partitions gives; the chooser, who
        # counts items, takes it
        path = tmp_path / "inst.txt"
        path.write_text("2 22\n" + " ".join(map(str, range(1, 23))) + "\n" + "1 " * 22 + "\n")
        status, out, err = run_cli(
            capsys, "run", "--instance", str(path), "--mech", "cut-and-choose",
            "--model", "cardinal", "--machine",
        )
        assert (status, err) == (0, "")
        assert "bundle.1=15,16,17,18,19,20,22\nvalue.1=127/1\nmms.1=126/1\n" in out
        assert "bundle.2=1,2,3,4,5,6,7,8,9,10,11,12,13,14,21\nvalue.2=15/1\n" in out

    def test_report_file(self, capsys, tmp_path, ex23_file):
        report = tmp_path / "report.txt"
        status, out, _ = run_cli(
            capsys, "run", "--instance", ex23_file, "--mech", "best-item",
            "--model", "ordinal", "--machine", "--report", str(report),
        )
        assert status == 0
        assert report.read_text().strip() == out.strip()

    def test_each_share_computed_once(self, capsys, monkeypatch, tmp_path):
        # the overall ratio came from approximation_ratio, whose share memo
        # missed and asked the oracle again: 6 calls for 3 players
        path = tmp_path / "inst.txt"
        rng = random.Random(3)
        path.write_text("3 24\n" + "".join(
            " ".join(str(rng.randint(1, 10**6)) for _ in range(24)) + "\n" for _ in range(3)
        ))
        calls = []
        real = mms.maximin_share

        def spy(*args):
            calls.append(args[1:])
            return real(*args)

        monkeypatch.setattr(mms, "maximin_share", spy)
        monkeypatch.setattr(cli, "maximin_share", spy)
        mms._rated_share.cache_clear()
        status, out, _ = run_cli(
            capsys, "run", "--instance", str(path), "--mech", "pr", "--model", "ordinal",
            "--machine",
        )
        assert status == 0
        assert len(calls) == 3

    @pytest.mark.parametrize(
        "text",
        ["3 2\n0 0\n0 0\n0 0\n", "2 3\n0 0 0\n1 2 3\n", EX23_TEXT, "2 4\n1 1 1 1\n1 2 3 4\n"],
    )
    def test_overall_ratio_matches_approximation_ratio(self, capsys, tmp_path, text):
        path = tmp_path / "inst.txt"
        path.write_text(text)
        for mech in ("pr", "pick-seq", "best-item"):
            status, out, _ = run_cli(
                capsys, "run", "--instance", str(path), "--mech", mech, "--model", "ordinal",
                "--machine",
            )
            inst = cli._load_instance(str(path))
            alloc = run_mechanism(Mechanism(mech), "ordinal", inst)
            want = cli._frac(mms.approximation_ratio(inst, alloc))
            assert status == 0
            assert f"ratio.overall={want}\n" in out

    def test_sqrt_seq_needs_epsilon(self, capsys, tmp_path):
        path = tmp_path / "inst.txt"
        path.write_text("2 8\n8 7 6 5 4 3 2 1\n1 2 3 4 5 6 7 8\n")
        argv = ["run", "--instance", str(path), "--mech", "sqrt-seq", "--model", "ordinal"]
        status, out, _ = run_cli(capsys, *argv, "--epsilon", "1/2", "--machine")
        assert status == 0
        assert out.startswith("mechanism=sqrt-seq(1/2)\n")
        assert run_cli(capsys, *argv) == (2, "", "error: sqrt-seq needs --epsilon P/Q\n")

    def test_epsilon_refused_where_not_taken(self, capsys, ex23_file):
        argv = ["run", "--instance", ex23_file, "--mech", "pr", "--model", "ordinal"]
        for extra in ([], ["--machine"]):
            got = run_cli(capsys, *argv, "--epsilon", "-3", *extra)
            assert got == (2, "", "error: pr does not take an epsilon\n")

    def test_model_mismatch_is_input_error(self, capsys, ex23_file):
        status, _, err = run_cli(
            capsys, "run", "--instance", ex23_file, "--mech", "pr-exact-2-4",
            "--model", "ordinal",
        )
        assert status == 2
        assert "not defined" in err


class TestVerify:
    def test_violations_exit_one(self, capsys):
        status, out, _ = run_cli(
            capsys, "verify", "--mech", "cut-and-choose", "--model", "cardinal",
            "--n", "2", "--m", "4", "--grid", "1,3",
        )
        assert status == 1
        assert "violations" in out
        assert "misreport" in out

    def test_epsilon_refused_where_not_taken(self, capsys):
        argv = ["verify", "--mech", "pr", "--model", "ordinal", "--n", "2", "--m", "3"]
        for extra in ([], ["--machine"]):
            got = run_cli(capsys, *argv, "--grid", "0,1", "--epsilon", "1/2", *extra)
            assert got == (2, "", "error: pr does not take an epsilon\n")

    def test_clean_exit_zero(self, capsys):
        status, out, _ = run_cli(
            capsys, "verify", "--mech", "pick-seq", "--model", "ordinal",
            "--n", "2", "--m", "3", "--grid", "0,1,2",
        )
        assert status == 0
        assert "0 violations" in out

    def test_grid_parses_whole_numbers_as_ints(self):
        args = build_parser().parse_args(
            ["verify", "--mech", "pick-seq", "--model", "ordinal", "--n", "2",
             "--m", "3", "--grid", "0, 2,6/3,1e1,1/2,0.25"]
        )
        assert args.grid == (0, 2, 2, 10, Fraction(1, 2), Fraction(1, 4))
        assert [type(v) for v in args.grid] == [int] * 4 + [Fraction] * 2

    @pytest.mark.parametrize(
        "mech, model, n, m",
        [
            ("pr-exact-2-4", "public-rankings", 2, 3),
            ("pr-exact-2-4", "public-rankings", 3, 4),
            ("cut-and-choose", "cardinal", 3, 3),
            ("cut-and-choose", "cardinal", 1, 3),
        ],
    )
    def test_unsupported_shape_is_input_error(self, capsys, ex23_file, mech, model, n, m):
        status, out, err = run_cli(
            capsys, "verify", "--mech", mech, "--model", model,
            "--n", str(n), "--m", str(m), "--grid", "0,1",
        )
        assert (status, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        # the 3x5 example is no shape either mechanism takes
        _, _, run_err = run_cli(
            capsys, "run", "--instance", ex23_file, "--mech", mech, "--model", model
        )
        assert err == run_err

    @pytest.mark.parametrize("epsilon", ["1/4", "1000"])
    def test_public_sweep_refuses_a_size_run_refuses(self, capsys, tmp_path, epsilon):
        # no player of sqrt-seq is searched with public rankings, so the sweep
        # never allocated and passed a sequence that cannot be built at 2 x 3
        status, out, err = run_cli(
            capsys, "verify", "--mech", "sqrt-seq", "--model", "public-rankings",
            "--n", "2", "--m", "3", "--grid", "0,1", "--epsilon", epsilon, "--machine",
        )
        assert (status, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        path = tmp_path / "two_by_three.txt"
        path.write_text("2 3\n1 2 3\n3 2 1\n")
        run = run_cli(
            capsys, "run", "--instance", str(path), "--mech", "sqrt-seq",
            "--model", "public-rankings", "--epsilon", epsilon,
        )
        assert run == (2, "", err)

    def test_budget_error(self, capsys):
        status, _, err = run_cli(
            capsys, "verify", "--mech", "pick-seq", "--model", "ordinal",
            "--n", "2", "--m", "4", "--grid", "0,1,2", "--budget", "10",
        )
        assert status == 2
        assert "6561" in err

    def test_budget_must_be_a_positive_int(self, capsys):
        # refused in one line, not read as a count that no grid meets
        status, out, err = run_cli(
            capsys, "verify", "--mech", "pick-seq", "--model", "ordinal",
            "--n", "2", "--m", "2", "--grid", "0,1", "--budget", "0",
        )
        assert (status, out, err) == (
            2, "", "error: budget must be an integer of at least 1, got 0\n"
        )

    def test_public_rankings_past_enumeration_limit(self, capsys):
        # the row pool is grid rows, not m! rankings, and pr reads no row
        status, out, err = run_cli(
            capsys, "verify", "--mech", "pr", "--model", "public-rankings",
            "--n", "2", "--m", "9", "--grid", "0,1",
        )
        assert (status, err) == (0, "")
        assert out == "mechanism pr, model public-rankings: 262144 instances, 0 violations\n"

    def test_machine_prints_certificate(self, capsys):
        status, out, _ = run_cli(
            capsys, "verify", "--mech", "random-uniform", "--model", "cardinal",
            "--n", "2", "--m", "3", "--grid", "0,1", "--machine",
        )
        assert status == 0
        assert out.splitlines() == [
            "mechanism=random-uniform",
            "model=cardinal",
            "instances=64",
            "violations=0",
            "complete=true",
            "certificate=input-oblivious: the allocation ignores all reports",
        ]

    def test_ordinal_witness_replays(self, capsys):
        argv = ["verify", "--mech", "pr", "--model", "ordinal", "--n", "2", "--m", "4",
                "--grid", "0,1,2"]
        status, human, _ = run_cli(capsys, *argv)
        assert status == 1
        status, out, _ = run_cli(capsys, *argv, "--machine")
        assert status == 1
        record = dict(line.split("=", 1) for line in out.splitlines())
        misreport = record["witness.misreport"]
        assert misreport.startswith("ranking ")
        assert f"  misreport {misreport} raises her value 1 -> 2\n" in human
        rows = [[Fraction(v) for v in record[f"witness.row.{i}"].split(",")] for i in (1, 2)]
        inst = Instance.from_rows(rows)
        player = int(record["witness.player"]) - 1
        reported = [derive_ranking(inst, i) for i in range(inst.n)]
        reported[player] = Ranking([int(j) - 1 for j in misreport[8:].split(">")])
        mech = Mechanism("pr")
        truthful = run_mechanism(mech, "ordinal", inst).bundles[player]
        deviated = run_mechanism(mech, "ordinal", inst, reported).bundles[player]
        values = (inst.value(player, truthful), inst.value(player, deviated))
        assert values == (Fraction(record["witness.truthful"]),
                          Fraction(record["witness.deviation"]))
        assert values[1] > values[0]


class TestChain:
    def test_builtin_fixture(self, capsys):
        status, out, _ = run_cli(
            capsys, "chain", "--fixture", "lemma-1+3", "--mech", "best-item",
            "--model", "cardinal",
        )
        assert status == 1
        assert "verdict: approx-failure" in out
        assert "BELOW THRESHOLD" in out

    def test_defaults_to_fixture_model(self, capsys):
        status, out, _ = run_cli(
            capsys, "chain", "--fixture", "pr-m6", "--mech", "pr", "--machine"
        )
        assert status == 1
        assert "model=public-rankings" in out
        assert "verdict=approx-failure" in out

    def test_fixture_file(self, capsys, tmp_path):
        from mmsfair import builtin_fixture, format_fixture

        path = tmp_path / "chain.txt"
        path.write_text(format_fixture(builtin_fixture("pr-m6")))
        status, out, _ = run_cli(
            capsys, "chain", "--fixture-file", str(path), "--mech", "pr"
        )
        assert status == 1
        assert "verdict" in out

    def test_zero_share_is_unbounded(self, capsys, tmp_path):
        # player 1's maximin share is 0, so any bundle meets the threshold
        path = tmp_path / "zero.txt"
        path.write_text("threshold 1/2\nprofile\n1 0 0 0\n1 1 1 1\n")
        status, out, _ = run_cli(
            capsys, "chain", "--fixture-file", str(path), "--mech", "best-item"
        )
        assert status == 0
        assert "ratios unbounded, 3/2" in out
        assert "verdict: consistent" in out
        status, out, _ = run_cli(
            capsys, "chain", "--fixture-file", str(path), "--mech", "best-item",
            "--machine",
        )
        assert status == 0
        assert "profile.1.ratio.1=unbounded\n" in out
        assert "profile.1.ok=true\n" in out

    def test_missing_fixture_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["chain", "--mech", "pr"])
        assert err.value.code == 2
        assert "one of the arguments --fixture --fixture-file is required" in (
            capsys.readouterr().err
        )

    def test_both_fixture_flags_refused(self, capsys, tmp_path):
        # the file was run silently, the built-in name ignored
        path = tmp_path / "chain.txt"
        path.write_text("threshold 1/2\nprofile\n1 0 0 0\n1 1 1 1\n")
        argv = ["chain", "--fixture", "lemma-1+3", "--fixture-file", str(path)]
        with pytest.raises(SystemExit) as err:
            main([*argv, "--mech", "best-item"])
        assert err.value.code == 2
        out, err_text = capsys.readouterr()
        assert out == ""
        assert "argument --fixture-file: not allowed with argument --fixture" in err_text

    def test_unknown_fixture(self, capsys):
        status, _, err = run_cli(capsys, "chain", "--fixture", "nope", "--mech", "pr")
        assert status == 2
        assert "unknown fixture" in err


class TestAdversary:
    def test_counting(self, capsys):
        status, out, _ = run_cli(
            capsys, "adversary", "--n", "3", "--m", "6", "--alpha", "51/100"
        )
        assert status == 0
        assert "2 + 2 + 3 = 7 > m = 6" in out
        assert "infeasible" in out

    def test_exhaustive(self, capsys):
        status, out, _ = run_cli(
            capsys, "adversary", "--n", "3", "--m", "6", "--exhaustive", "--machine"
        )
        assert status == 0
        assert "exhaustive.best=1/2" in out

    def test_exhaustive_one_player(self, capsys):
        status, out, err = run_cli(
            capsys, "adversary", "--n", "1", "--m", "6", "--exhaustive", "--machine"
        )
        assert (status, out, err) == (0, "exhaustive.best=1/1\n", "")


class TestMc:
    def test_runs(self, capsys):
        status, out, _ = run_cli(
            capsys, "mc", "--n", "2", "--m", "30", "--dist", "uniform",
            "--rho", "1/2", "--trials", "50", "--seed", "3", "--machine",
        )
        assert status == 0
        assert "success_rate=" in out
        assert "mean.1=" in out

    def test_bad_distribution(self, capsys):
        status, _, err = run_cli(
            capsys, "mc", "--n", "2", "--m", "30", "--dist", "cauchy",
            "--rho", "1/2", "--trials", "50",
        )
        assert status == 2

    @pytest.mark.parametrize(
        "spec, err",
        [
            (
                "discrete:x",
                "error: distribution 'discrete:x': K must be an integer from 2 to 2**63\n",
            ),
            ("bernoulli:x", "error: distribution 'bernoulli:x': P must be a number in (0, 1]\n"),
            (
                "discrete:18446744073709551617",
                "error: distribution 'discrete:18446744073709551617': "
                "K must be an integer from 2 to 2**63\n",
            ),
        ],
    )
    def test_bad_distribution_parameter(self, capsys, spec, err):
        status, out, got = run_cli(
            capsys, "mc", "--n", "2", "--m", "30", "--dist", spec,
            "--rho", "1/2", "--trials", "50",
        )
        assert (status, out, got) == (2, "", err)

    def test_most_discrete_levels_run(self, capsys):
        status, out, err = run_cli(
            capsys, "mc", "--n", "2", "--m", "30", "--dist", "discrete:9223372036854775808",
            "--rho", "1/2", "--trials", "50", "--machine",
        )
        assert (status, err) == (0, "")
        assert out.startswith("trials=50\nsuccess_rate=")

    def test_negative_seed(self, capsys, monkeypatch):
        # refused by the config, before numpy is asked for any draw
        monkeypatch.setattr(cli, "montecarlo_randomized", lambda cfg: pytest.fail("ran trials"))
        status, out, err = run_cli(
            capsys, "mc", "--n", "2", "--m", "30", "--dist", "uniform",
            "--rho", "1/2", "--trials", "50", "--seed", "-1",
        )
        assert (status, out, err) == (2, "", "error: seed must be a nonnegative integer, got -1\n")


class TestSeq:
    def test_feasible_build(self, capsys):
        status, out, _ = run_cli(
            capsys, "seq", "--n", "17", "--m", "29", "--epsilon", "1/4"
        )
        assert status == 0
        assert "all pick positions meet their deadlines" in out
        assert out.strip().splitlines().count("17") == 2

    def test_infeasible_is_input_error(self, capsys):
        status, _, err = run_cli(
            capsys, "seq", "--n", "17", "--m", "20", "--epsilon", "1/4"
        )
        assert status == 2
        assert "infeasible" in err

    def test_overrun_deadline_is_input_error(self, capsys):
        # passes the length bound, but 5 picks fall due by position 4
        status, out, err = run_cli(
            capsys, "seq", "--n", "2", "--m", "1000", "--epsilon", "1/4"
        )
        assert (status, out) == (2, "")
        assert err == "error: infeasible parameters: 5 picks are due by position 4\n"


class TestErrors:
    def test_missing_file(self, capsys):
        status, _, err = run_cli(capsys, "mms", "--instance", "/no/such/file")
        assert status == 2
        assert "No such file" in err

    def test_parse_error_names_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 2\n1 -1\n1 1\n")
        status, _, err = run_cli(capsys, "mms", "--instance", str(bad))
        assert status == 2
        assert "line 2" in err

    def test_bare_fixture_keyword(self, capsys, tmp_path):
        path = tmp_path / "chain.txt"
        path.write_text("threshold\nprofile\n1 0\n0 1\n")
        status, _, err = run_cli(
            capsys, "chain", "--fixture-file", str(path), "--mech", "pr"
        )
        assert status == 2
        assert err == "error: line 1: threshold needs a value\n"

    @pytest.mark.parametrize("token", ["1e0", "0.5", "1/0", "-1"])
    def test_fixture_and_instance_reject_the_same_tokens(self, capsys, tmp_path, token):
        chain = tmp_path / "chain.txt"
        chain.write_text(f"threshold 1/2\nprofile\n{token} 1/2 1/4 1/4\n0 1 1 1\n")
        status, out, chain_err = run_cli(
            capsys, "chain", "--fixture-file", str(chain), "--mech", "pr"
        )
        assert (status, out) == (2, "")
        inst = tmp_path / "inst.txt"
        inst.write_text(f"2 4\n1 1 1 1\n{token} 1/2 1/4 1/4\n")
        status, out, inst_err = run_cli(capsys, "mms", "--instance", str(inst))
        assert (status, out) == (2, "")
        assert chain_err == inst_err
        assert chain_err.startswith("error: line 3: ") and chain_err.count("\n") == 1

    def test_unexpected_fixture_content_is_quoted_as_written(self, capsys, tmp_path):
        path = tmp_path / "chain.txt"
        path.write_text("threshold 1/2\n  what   is  this \nprofile\n1 0\n0 1\n")
        status, out, err = run_cli(
            capsys, "chain", "--fixture-file", str(path), "--mech", "pr"
        )
        assert (status, out) == (2, "")
        assert err == "error: line 2: unexpected content 'what   is  this'\n"

    def test_counting_bound_over_limit(self, capsys):
        # 10**7 slots took 26 s and printed 20 MB before they were refused
        start = time.perf_counter()
        status, out, err = run_cli(
            capsys, "adversary", "--n", "10000000", "--m", "10000000", "--alpha", "1/2",
            "--machine",
        )
        assert time.perf_counter() - start < 1
        assert (status, out) == (2, "")
        assert err == "error: n = 10000000 is over the limit of 1000000 slots\n"

    def test_counting_bound_digits_over_limit(self, capsys):
        # 1,000 terms of 1,000 digits each printed 1,003,051 bytes
        start = time.perf_counter()
        status, out, err = run_cli(
            capsys, "adversary", "--n", "1000", "--m", "1000",
            "--alpha", "7" * 1000 + "/3", "--machine",
        )
        assert time.perf_counter() - start < 0.5
        assert (status, out) == (2, "")
        assert err == (
            "error: 1000 terms of up to 1001 digits are over the limit of "
            "1000000 digits\n"
        )

    def test_seq_without_items_prints_no_pick(self, capsys):
        # one player once got one pick of zero items
        status, out, err = run_cli(
            capsys, "seq", "--n", "1", "--m", "0", "--epsilon", "1/4", "--machine"
        )
        assert (status, err) == (0, "")
        assert out == (
            "alpha=1/1\nlength=0\npicks=\nposition_violations=0\ndemand_violations=0\n"
        )
        status, out, err = run_cli(capsys, "seq", "--n", "1", "--m", "0", "--epsilon", "1/4")
        assert (status, err) == (0, "")
        assert out == (
            "n=1, m=0, epsilon=1/4, alpha=1\n"
            "all pick positions meet their deadlines\ndeadline demand check: ok\n"
        )

    def test_exhaustive_adversary_over_limit(self, capsys):
        status, out, err = run_cli(
            capsys, "adversary", "--n", "4", "--m", "16", "--alpha", "1/2", "--exhaustive"
        )
        assert status == 2
        assert out == ""
        assert err == (
            "error: exhaustive search needs 4294967296 allocations, "
            "over the limit of 1000000\n"
        )

    def test_share_search_over_limit(self, capsys, monkeypatch, tmp_path):
        # player 1's 3-part share counts 3 search nodes
        path = tmp_path / "inst.txt"
        path.write_text("3 8\n20 20 15 15 15 14 12 10\n" + "1 1 1 1 1 1 1 1\n" * 2)
        monkeypatch.setattr(mms, "NODE_LIMIT", 2)
        status, out, err = run_cli(capsys, "mms", "--instance", str(path))
        assert (status, out) == (2, "")
        assert err == "error: maximin share search needs more than the limit of 2 nodes\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("seq", "--n", "3", "--m", "10", "--epsilon", "1/100001"),
            ("run", "--instance", "EX23", "--mech", "sqrt-seq", "--model", "ordinal",
             "--epsilon", "1/100001"),
        ],
    )
    def test_epsilon_with_a_large_denominator(self, capsys, ex23_file, argv):
        # the exact comparator would raise numbers to the power 200002
        argv = [ex23_file if a == "EX23" else a for a in argv]
        start = time.perf_counter()
        status, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (status, out) == (2, "")
        assert err == "error: exponent 100003/200002 has a denominator over 2000\n"

    def test_epsilon_too_large_to_power(self, capsys):
        # n**(1/2 + epsilon) would have over a billion digits
        start = time.perf_counter()
        status, out, err = run_cli(
            capsys, "seq", "--n", "3", "--m", "10", "--epsilon", "1000000000"
        )
        assert time.perf_counter() - start < 1
        assert (status, out) == (2, "")
        assert err.startswith("error: epsilon 1000000000 too large")

    @pytest.mark.parametrize(
        "argv, message",
        [
            # numpy was asked for 21.8 TiB and raised an exit-3 MemoryError
            (("mc", "--n", "3", "--m", "300", "--rho", "4/5", "--trials", "1000000000000"),
             "1000000000000 x 3 x 300 values count 2900000000000000 draws with 2000 "
             "a trial, over the limit of 50000000"),
            (("mc", "--n", "1", "--m", "0", "--rho", "4/5", "--trials", "25000"),
             "25000 x 1 x 0 values count 50025000 draws with 2000 a trial, "
             "over the limit of 50000000"),
            (("mc", "--n", "1000000000000", "--m", "0", "--rho", "4/5", "--trials", "1"),
             "1 x 1000000000000 x 0 values count 1000000002000 draws with 2000 a "
             "trial, over the limit of 50000000"),
            (("seq", "--n", "2", "--m", "10000000", "--epsilon", "1/4"),
             "n * max(n, m) = 20000000 is over the limit of 200000"),
            (("seq", "--n", "100000", "--m", "0", "--epsilon", "1/4"),
             "n * max(n, m) = 10000000000 is over the limit of 200000"),
        ],
    )
    def test_sizes_over_limit(self, capsys, argv, message):
        start = time.perf_counter()
        status, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (status, out, err) == (2, "", f"error: {message}\n")

    def test_many_players_charged_per_player(self, capsys, monkeypatch):
        # a tenth of these trials took 2.75 s before each player's sample
        # call was charged
        monkeypatch.setattr(cli, "montecarlo_randomized", lambda cfg: pytest.fail("ran trials"))
        start = time.perf_counter()
        status, out, err = run_cli(
            capsys, "mc", "--n", "100", "--m", "1", "--dist", "discrete:7",
            "--rho", "1/2", "--trials", "23809", "--seed", "0",
        )
        assert time.perf_counter() - start < 1
        assert (status, out, err) == (
            2, "", "error: 23809 trials of 100 players count 1476158000 draws with "
            "at least 600 a player, over the limit of 50000000\n",
        )

    def test_two_part_share_over_limit(self, capsys, tmp_path):
        # one exact decision on 50 values up to 10^9 would run
        # meet-in-the-middle over 2**25 sums per side
        rng = random.Random(7)
        rows = [" ".join(str(rng.randint(1, 10**9)) for _ in range(50)) for _ in range(2)]
        path = tmp_path / "inst.txt"
        path.write_text("2 50\n" + "\n".join(rows) + "\n")
        start = time.perf_counter()
        status, out, err = run_cli(capsys, "mms", "--instance", str(path))
        assert time.perf_counter() - start < 1
        assert (status, out) == (2, "")
        assert err == "error: maximin share search needs more than the limit of 1000000 nodes\n"

    @pytest.mark.parametrize(
        "line, message",
        [
            ("edge 1 x 2", "line 5: edge needs FROM TO PLAYER as whole numbers"),
            ("model nosuch", "line 5: unknown model 'nosuch'"),
            ("edge 0 1 2", "line 5: edge FROM 0 out of range [1, 1]"),
            ("edge 2 1 3", "line 5: edge FROM 2 out of range [1, 1]"),
            ("edge 1 1 3", "line 5: edge PLAYER 3 out of range [1, 2]"),
        ],
    )
    def test_fixture_line_errors(self, capsys, tmp_path, line, message):
        path = tmp_path / "chain.txt"
        path.write_text(f"threshold 1/2\nprofile\n1 0\n0 1\n{line}\n")
        status, out, err = run_cli(
            capsys, "chain", "--fixture-file", str(path), "--mech", "pr"
        )
        assert (status, out) == (2, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("command", [["mms", "--instance"], ["chain", "--fixture-file"]])
    def test_directory_input_exits_2(self, capsys, tmp_path, command):
        extra = ["--mech", "pr"] if command[0] == "chain" else []
        status, out, err = run_cli(capsys, *command, str(tmp_path), *extra)
        assert (status, out) == (2, "")
        assert err == f"error: Is a directory: {tmp_path}\n"

    @pytest.mark.parametrize("command", [["mms", "--instance"], ["chain", "--fixture-file"]])
    def test_non_utf8_file_names_file_and_offset(self, capsys, tmp_path, command):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"2 2\n1 \xff\n1 1\n")
        extra = ["--mech", "pr"] if command[0] == "chain" else []
        status, out, err = run_cli(capsys, *command, str(path), *extra)
        assert (status, out) == (2, "")
        assert err == f"error: not UTF-8 at byte offset 6: {path}\n"

    def test_unexpected_error_exits_3(self, capsys, monkeypatch, ex23_file):
        def overflow(*args, **kwargs):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "maximin_share", overflow)
        status, out, err = run_cli(capsys, "mms", "--instance", ex23_file)
        assert status == 3
        assert out == ""
        assert err.startswith("Traceback")
        assert err.rstrip().endswith("RecursionError: maximum recursion depth exceeded")

    @pytest.mark.parametrize(
        "argv, message",
        [
            # each took seconds to raise the count to its power, then exited 2
            # because the count had too many digits to print
            ("verify --mech pr --model ordinal --n 30000 --m 30000 --grid 0,1",
             "grid sweep needs 2**900000000 instances, over the budget of 1000000"),
            ("adversary --n 2 --m 100000000 --exhaustive",
             "exhaustive search needs 2**100000000 allocations, over the limit of 1000000"),
            ("verify --mech pr --model ordinal --n 2 --m 20 --grid 0,1,2,3",
             "grid sweep needs 1208925819614629174706176 instances, over the budget of "
             "1000000"),
        ],
    )
    def test_oversized_enumeration_refused_at_once(self, capsys, argv, message):
        start = time.perf_counter()
        status, out, err = run_cli(capsys, *argv.split())
        assert time.perf_counter() - start < 1
        assert (status, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            # one instance or allocation whatever the size: 46 s and 3.7 GB
            # at n = 4,000, and more without bound as m grows
            ("verify --mech pick-seq --model ordinal --n 4000 --m 2 --grid 0",
             "grid sweep over 4000 x 2 values is over the limit of 19 values that "
             "a two-value grid reaches within the budget of 1000000"),
            ("verify --mech cut-and-choose --model public-rankings --n 2 --m 100000000 --grid 0",
             "grid sweep over 2 x 100000000 values is over the limit of 19 values that "
             "a two-value grid reaches within the budget of 1000000"),
        ],
    )
    def test_one_choice_enumeration_refused_at_once(self, capsys, argv, message):
        start = time.perf_counter()
        status, out, err = run_cli(capsys, *argv.split())
        assert time.perf_counter() - start < 0.5
        assert (status, out, err) == (2, "", f"error: {message}\n")

    def test_one_player_exhaustive_answered_at_once(self, capsys):
        # one player receives every item, worth her whole share
        argv = "adversary --n 1 --m 1000000000 --exhaustive --machine"
        start = time.perf_counter()
        status, out, err = run_cli(capsys, *argv.split())
        assert time.perf_counter() - start < 0.5
        assert (status, out, err) == (0, "exhaustive.best=1/1\n", "")

    def test_one_value_grid_answered_up_to_its_limit(self, capsys):
        argv = "verify --mech pick-seq --model ordinal --n 19 --m 1 --grid 0 --machine"
        status, out, err = run_cli(capsys, *argv.split())
        assert (status, err) == (0, "")
        assert "instances=1\n" in out and "violations=0\n" in out

    def test_players_without_items_answered_up_to_the_limit(self, capsys):
        argv = "verify --mech pick-seq --model ordinal --n 19 --m 0 --grid 0 --machine"
        status, out, err = run_cli(capsys, *argv.split())
        assert (status, err) == (0, "")
        assert "instances=1\n" in out and "violations=0\n" in out

    def test_players_without_items_refused_at_once(self, capsys):
        # each player was still searched: 5.3 s at n = 4,000, growing as n**2
        argv = "verify --mech pick-seq --model ordinal --n 4000 --m 0 --grid 0"
        start = time.perf_counter()
        status, out, err = run_cli(capsys, *argv.split())
        assert time.perf_counter() - start < 0.5
        assert (status, out) == (2, "")
        assert err == (
            "error: grid sweep over 4000 players of no items is over the limit of "
            "19 values that a two-value grid reaches within the budget of 1000000\n"
        )

    @pytest.mark.parametrize("rho", ["1e1000", "-1e1000", "1"])
    def test_rho_out_of_range_refused_before_float(self, capsys, rho):
        # 1e1000 raised OverflowError in float() and exited 3
        status, out, err = run_cli(
            capsys, "mc", "--n", "3", "--m", "3", f"--rho={rho}", "--trials", "1"
        )
        assert (status, out, err) == (2, "", "error: rho must be in [0, 1)\n")

    def test_adversary_with_nothing_to_do(self, capsys):
        status, out, err = run_cli(capsys, "adversary", "--n", "3", "--m", "6")
        assert (status, out) == (2, "")
        assert err == "error: nothing to do: pass --alpha and/or --exhaustive\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("verify --mech pr --model ordinal --n 2 --m 2 --grid ,",
             "argument --grid: empty grid"),
            ("adversary --n 3 --m 6 --alpha x", "argument --alpha: not a rational: 'x'"),
        ],
    )
    def test_unparsed_flag_refused(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f" error: {message}\n")

    def test_cut_and_choose_without_items(self, capsys, tmp_path):
        # best_two_partition([]) cuts two empty bundles
        path = tmp_path / "empty.txt"
        path.write_text("2 0\n")
        argv = ("run", "--instance", str(path), "--mech", "cut-and-choose",
                "--model", "cardinal", "--machine")
        status, out, err = run_cli(capsys, *argv)
        assert (status, err) == (0, "")
        assert out == (
            "mechanism=cut-and-choose\nmodel=cardinal\nn=2\nm=0\nseed=0\n"
            "bundle.1=-\nvalue.1=0/1\nmms.1=0/1\nratio.1=unbounded\n"
            "bundle.2=-\nvalue.2=0/1\nmms.2=0/1\nratio.2=unbounded\n"
            "ratio.overall=unbounded\nbound=none\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            "adversary --n 3 --m 6 --alpha 1e30000000",
            "mc --n 3 --m 30 --rho 1e-300000000 --trials 10",
            "verify --mech pr --model ordinal --n 2 --m 3 --grid 0,1e30000000",
            "seq --n 17 --m 29 --epsilon 1e30000000",
            "chain --fixture lemma-1+3 --mech best-item --epsilon 1e-30000000",
        ],
    )
    def test_huge_exponents_refused_at_once(self, capsys, argv):
        # Fraction would write out ten to the power of the exponent
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        assert time.perf_counter() - start < 1
        assert exc.value.code == 2
        assert "is over 1000 in magnitude" in capsys.readouterr().err

    def test_exponent_bound(self):
        assert cli._rational("1e1000") == 10**1000
        assert cli._rational("-2.5E-1_000") == Fraction(-5, 2 * 10**1000)
        assert cli._rational("1e+1") == 10
        for text in ("1e1001", "1e-1001", "0.5e00012345"):
            with pytest.raises(argparse.ArgumentTypeError, match="over 1000"):
                cli._rational(text)

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2


# The seven README commands with --machine, and the exit status and stdout
# each gave when first recorded.  A refactor must keep them byte-identical.
README_MACHINE = (
    (
        "mms --instance EX23",
        0,
        (
            "mms.1=1/2\n"
            "mms.2=1/4\n"
            "mms.3=1/1\n"
        ),
    ),
    (
        "run --instance EX23 --mech pr --model ordinal",
        0,
        (
            "mechanism=pr\n"
            "model=ordinal\n"
            "n=3\n"
            "m=5\n"
            "seed=0\n"
            "bundle.1=1,5\n"
            "value.1=5/6\n"
            "mms.1=1/2\n"
            "ratio.1=5/3\n"
            "bundle.2=2\n"
            "value.2=1/4\n"
            "mms.2=1/4\n"
            "ratio.2=1/1\n"
            "bundle.3=3,4\n"
            "value.3=3/2\n"
            "mms.3=1/1\n"
            "ratio.3=3/2\n"
            "ratio.overall=1/1\n"
            "bound=1/2\n"
        ),
    ),
    (
        "verify --mech cut-and-choose --model cardinal --n 2 --m 4 --grid 1,3",
        1,
        (
            "mechanism=cut-and-choose\n"
            "model=cardinal\n"
            "instances=256\n"
            "violations=135\n"
            "complete=false\n"
            "witness.row.1=1/1,1/1,1/1,1/1\n"
            "witness.row.2=3/1,1/1,1/1,1/1\n"
            "witness.player=1\n"
            "witness.misreport=3/1,1/1,1/1,1/1\n"
            "witness.truthful=2/1\n"
            "witness.deviation=3/1\n"
        ),
    ),
    (
        "chain --fixture lemma-1+3 --mech best-item --model cardinal",
        1,
        (
            "fixture=lemma-1+3\n"
            "mechanism=best-item\n"
            "model=cardinal\n"
            "threshold=3/5\n"
            "profile.1.ratio.1=38/39\n"
            "profile.1.ratio.2=41/39\n"
            "profile.1.ok=true\n"
            "profile.2.ratio.1=38/39\n"
            "profile.2.ratio.2=2/1\n"
            "profile.2.ok=true\n"
            "profile.3.ratio.1=38/37\n"
            "profile.3.ratio.2=41/39\n"
            "profile.3.ok=true\n"
            "profile.4.ratio.1=38/37\n"
            "profile.4.ratio.2=19/13\n"
            "profile.4.ok=true\n"
            "profile.5.ratio.1=38/39\n"
            "profile.5.ratio.2=2/1\n"
            "profile.5.ok=true\n"
            "profile.6.ratio.1=38/39\n"
            "profile.6.ratio.2=41/39\n"
            "profile.6.ok=true\n"
            "profile.7.ratio.1=38/39\n"
            "profile.7.ratio.2=61/39\n"
            "profile.7.ok=true\n"
            "profile.8.ratio.1=1/2\n"
            "profile.8.ratio.2=41/39\n"
            "profile.8.ok=false\n"
            "edge.2.1.2.gain=0/1\n"
            "edge.2.3.1.gain=-4/5\n"
            "edge.4.3.2.gain=0/1\n"
            "edge.5.6.1.gain=-37/20\n"
            "edge.7.6.2.gain=0/1\n"
            "edge.1.8.1.gain=0/1\n"
            "edge.4.8.1.gain=-1/1\n"
            "edge.7.8.1.gain=-4/5\n"
            "verdict=approx-failure\n"
        ),
    ),
    (
        "adversary --n 3 --m 6 --alpha 51/100 --exhaustive",
        0,
        (
            "alpha=51/100\n"
            "terms=2,2,3\n"
            "total=7\n"
            "m=6\n"
            "verdict=infeasible\n"
            "exhaustive.best=1/2\n"
        ),
    ),
    (
        "mc --n 3 --m 300 --dist uniform --rho 4/5 --trials 10000 --seed 0",
        0,
        (
            "trials=10000\n"
            "success_rate=0.9517\n"
            "mean.1=49.97134213702841\n"
            "variance.1=25.34641511558983\n"
            "threshold.1=59.222491313078045\n"
            "mean.2=50.104373580934094\n"
            "variance.2=25.049007916600445\n"
            "threshold.2=59.222491313078045\n"
            "mean.3=50.007431557040775\n"
            "variance.3=25.00399515801463\n"
            "threshold.3=59.222491313078045\n"
        ),
    ),
    (
        "seq --n 17 --m 29 --epsilon 1/4",
        0,
        (
            "alpha=52434/438985\n"
            "length=29\n"
            "picks=1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,17,1,2,3,4,5,6,7,8,9,10,11\n"
            "position_violations=0\n"
            "demand_violations=0\n"
        ),
    ),
)


@pytest.mark.parametrize(
    "command, status, stdout", README_MACHINE, ids=[c.split()[0] for c, _, _ in README_MACHINE]
)
def test_readme_machine_output_is_pinned(capsys, ex23_file, command, status, stdout):
    argv = [ex23_file if t == "EX23" else t for t in command.split()] + ["--machine"]
    assert run_cli(capsys, *argv) == (status, stdout, "")


# The same seven commands without --machine: exit status and the full human
# stdout, so that every branch of every formatter is pinned byte for byte.
README_HUMAN = (
    (
        "mms --instance EX23",
        0,
        (
            "instance: 3 players, 5 items; shares for 3 bundles\n"
            "player 1: mms = 1/2\n"
            "player 2: mms = 1/4\n"
            "player 3: mms = 1\n"
        ),
    ),
    (
        "run --instance EX23 --mech pr --model ordinal",
        0,
        (
            "mechanism pr, model ordinal, n=3, m=5\n"
            "player 1: items {1,5}  value 5/6  mms 1/2  ratio 5/3\n"
            "player 2: items {2}  value 1/4  mms 1/4  ratio 1\n"
            "player 3: items {3,4}  value 3/2  mms 1  ratio 3/2\n"
            "overall ratio: 1 (theoretical bound 1/2)\n"
        ),
    ),
    (
        "verify --mech cut-and-choose --model cardinal --n 2 --m 4 --grid 1,3",
        1,
        (
            "mechanism cut-and-choose, model cardinal: 256 instances, "
            "135 violations (search not exhaustive)\n"
            "witness: player 1 on instance 1,1,1,1 | 3,1,1,1\n"
            "  misreport 3,1,1,1 raises her value 2 -> 3\n"
        ),
    ),
    (
        "chain --fixture lemma-1+3 --mech best-item --model cardinal",
        1,
        (
            "fixture lemma-1+3 (threshold 3/5), mechanism best-item, model cardinal\n"
            "profile 1: [1 | 2,3,4]  ratios 38/39, 41/39\n"
            "profile 2: [1 | 2,3,4]  ratios 38/39, 2\n"
            "profile 3: [2 | 1,3,4]  ratios 38/37, 41/39\n"
            "profile 4: [2 | 1,3,4]  ratios 38/37, 19/13\n"
            "profile 5: [2 | 1,3,4]  ratios 38/39, 2\n"
            "profile 6: [3 | 1,2,4]  ratios 38/39, 41/39\n"
            "profile 7: [3 | 1,2,4]  ratios 38/39, 61/39\n"
            "profile 8: [1 | 2,3,4]  ratios 1/2, 41/39  BELOW THRESHOLD\n"
            "edge 2->1 player 2: truthful 39/10, deviation 39/10, gain 0\n"
            "edge 2->3 player 1: truthful 19/10, deviation 11/10, gain -4/5\n"
            "edge 4->3 player 2: truthful 57/20, deviation 57/20, gain 0\n"
            "edge 5->6 player 1: truthful 19/10, deviation 1/20, gain -37/20\n"
            "edge 7->6 player 2: truthful 61/20, deviation 61/20, gain 0\n"
            "edge 1->8 player 1: truthful 19/10, deviation 19/10, gain 0\n"
            "edge 4->8 player 1: truthful 19/10, deviation 9/10, gain -1\n"
            "edge 7->8 player 1: truthful 19/10, deviation 11/10, gain -4/5\n"
            "verdict: approx-failure (profile 8: player 1 gets ratio 1/2 < threshold 3/5)\n"
        ),
    ),
    (
        "adversary --n 3 --m 6 --alpha 51/100 --exhaustive",
        0,
        (
            "counting bound at alpha = 51/100: 2 + 2 + 3 = 7 > m = 6\n"
            "verdict: infeasible\n"
            "exhaustive search over 3**6 allocations: best worst-case ratio 1/2\n"
        ),
    ),
    (
        "mc --n 3 --m 300 --dist uniform --rho 4/5 --trials 10000 --seed 0",
        0,
        (
            "n=3, m=300, dist=uniform, rho=0.8, trials=10000, seed=0\n"
            "success rate: 0.9517\n"
            "player 1: mean 49.971342, variance 25.346415, threshold a_i 59.222491\n"
            "player 2: mean 50.104374, variance 25.049008, threshold a_i 59.222491\n"
            "player 3: mean 50.007432, variance 25.003995, threshold a_i 59.222491\n"
        ),
    ),
    (
        "seq --n 17 --m 29 --epsilon 1/4",
        0,
        (
            "n=17, m=29, epsilon=1/4, alpha=52434/438985\n"
            "1\n2\n3\n4\n5\n6\n7\n8\n9\n10\n11\n12\n13\n14\n15\n16\n17\n"
            "17\n1\n2\n3\n4\n5\n6\n7\n8\n9\n10\n11\n"
            "all pick positions meet their deadlines\n"
            "deadline demand check: ok\n"
        ),
    ),
)


@pytest.mark.parametrize(
    "command, status, stdout", README_HUMAN, ids=[c.split()[0] for c, _, _ in README_HUMAN]
)
def test_readme_human_output_is_pinned(capsys, ex23_file, command, status, stdout):
    argv = [ex23_file if t == "EX23" else t for t in command.split()]
    assert run_cli(capsys, *argv) == (status, stdout, "")


_STATS_KEYS = [
    f"stats.{memo}.{count}"
    for memo in (
        "instance._order",
        "mechanisms._outcome",
        "mechanisms._proposal",
        "mechanisms._sequence",
        "mechanisms._shared_allocation",
        "mms._rated_term",
        "mms._rated_share",
    )
    for count in ("hits", "misses", "currsize")
] + ["stats.wall_s"]


def _stats(err: str) -> dict:
    """The ``--stats`` lines of ``err``, which must hold nothing else, as a
    dict in their order."""
    pairs = [line.split("=", 1) for line in err.splitlines()]
    assert all(key.startswith("stats.") for key, _ in pairs), err
    return dict(pairs)


@pytest.mark.parametrize("machine", [False, True], ids=["human", "machine"])
@pytest.mark.parametrize(
    "command, status, stdout", README_HUMAN, ids=[c.split()[0] for c, _, _ in README_HUMAN]
)
def test_readme_stats_leave_stdout_unchanged(capsys, ex23_file, command, status, stdout, machine):
    argv = [ex23_file if t == "EX23" else t for t in command.split()]
    argv += ["--machine"] if machine else []
    plain = run_cli(capsys, *argv)
    got_status, got_out, err = run_cli(capsys, *argv, "--stats")
    assert plain[2] == ""
    assert (got_status, got_out) == plain[:2]
    if not machine:
        assert (got_status, got_out) == (status, stdout)
    stats = _stats(err)
    assert list(stats) == _STATS_KEYS
    assert all(int(v) >= 0 for k, v in stats.items() if k != "stats.wall_s")
    assert float(stats["stats.wall_s"]) >= 0


def test_one_parser_serves_every_readme_command(capsys, ex23_file):
    # the seven commands, human and --machine, in README order and then in
    # reverse: each gives what it gave first, through the one kept parser
    commands = [
        [ex23_file if t == "EX23" else t for t in command.split()] + machine
        for command, _, _ in README_HUMAN
        for machine in ([], ["--machine"])
    ]
    first = {}
    for argv in commands + commands[::-1]:
        status, out, _ = run_cli(capsys, *argv)
        assert (status, out) == first.setdefault(tuple(argv), (status, out))
    assert len(first) == 14
    assert build_parser() is build_parser()


def test_stats_count_each_share_once(capsys, ex23_file):
    for _, memo in cli._MEMOS:
        memo.cache_clear()
    _, _, err = run_cli(
        capsys, "run", "--instance", ex23_file, "--mech", "pr", "--model", "ordinal", "--stats"
    )
    stats = _stats(err)
    # three distinct rows: run's per-player lines miss, the overall ratio hits
    assert stats["stats.mms._rated_share.misses"] == "3"
    assert stats["stats.mms._rated_share.hits"] == "3"
    assert stats["stats.mms._rated_share.currsize"] == "3"
    assert stats["stats.instance._order.misses"] == "3"


def test_stats_random_uniform_outcome_is_not_memoized(capsys, ex23_file):
    for _, memo in cli._MEMOS:
        memo.cache_clear()
    _, _, err = run_cli(
        capsys, "run", "--instance", ex23_file, "--mech", "random-uniform",
        "--model", "cardinal", "--stats",
    )
    stats = _stats(err)
    # the outcome memo holds picking-sequence outcomes only
    assert stats["stats.mechanisms._outcome.misses"] == "0"
    assert stats["stats.mechanisms._outcome.currsize"] == "0"
    assert stats["stats.mechanisms._shared_allocation.misses"] == "1"


def test_stats_follow_a_refusal(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 2\n1 -1\n")
    status, out, err = run_cli(capsys, "mms", "--instance", str(path), "--stats")
    first, *rest = err.splitlines()
    assert (status, out, first) == (2, "", "error: line 2: negative value '-1'")
    assert list(_stats("\n".join(rest))) == _STATS_KEYS


def _readme_blocks(lang: str) -> list[str]:
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```(\w*)\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
    return [body for kind, body in blocks if kind == lang]


def test_readme_cli_block_is_the_pinned_commands():
    # the README's `mmsfair ...` lines, ex23.txt standing for the example file
    lines = [line for body in _readme_blocks("sh") for line in body.splitlines()]
    readme = [
        " ".join("EX23" if t == "ex23.txt" else t for t in line.split("#")[0].split()[1:])
        for line in lines
        if line.startswith("mmsfair ")
    ]
    assert len(readme) == 7
    assert readme == [c for c, _, _ in README_MACHINE] == [c for c, _, _ in README_HUMAN]


def test_readme_library_block_runs():
    (block,) = _readme_blocks("python")
    names: dict = {}
    exec(compile(block, "README.md", "exec"), names)
    # player 1 takes item 2 (worth 1 against her share of 1/2), player 2
    # the rest (worth 2 against 1)
    assert names["share"] == Fraction(1, 2)
    assert names["alloc"].bundles == (frozenset({1}), frozenset({0, 2}))
    assert names["ratio"] == 2


# Every built-in fixture x mechanism x model through `chain --machine` at the
# default epsilon: exit status, stdout and stderr as first recorded.  Chain
# edges replay misreports through run_mechanism in all three models.
CHAIN_MACHINE = json.loads(
    (pathlib.Path(__file__).parent / "data" / "chain_machine.json").read_text()
)


@pytest.mark.parametrize(
    "fixture, mech, model, status, stdout, stderr",
    CHAIN_MACHINE,
    ids=["-".join(row[:3]) for row in CHAIN_MACHINE],
)
def test_chain_machine_output_is_pinned(capsys, fixture, mech, model, status, stdout, stderr):
    argv = ["chain", "--fixture", fixture, "--mech", mech, "--model", model, "--machine"]
    assert run_cli(capsys, *argv) == (status, stdout, stderr)


def test_cli_import_leaves_numpy_out():
    # only mc draws numbers, and numpy is most of the package's import time
    src = pathlib.Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    code = "import sys, mmsfair.cli; print('numpy' in sys.modules, 'mmsfair.montecarlo' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False True\n", "")


def test_python_m_matches_main(capsys, ex23_file):
    src = pathlib.Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "mmsfair", "mms", "--instance", ex23_file],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == run_cli(capsys, "mms", "--instance", ex23_file)


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "command, status",
    [
        ("mc --n 3 --m 30 --dist uniform --rho 4/5 --trials 100 --seed 0 --machine", 0),
        ("verify --mech cut-and-choose --model cardinal --n 2 --m 4 --grid 1,3", 1),
        ("run --instance EX23 --mech pr --model ordinal --report REPORT", 0),
    ],
    ids=["mc", "verify", "run-report"],
)
def test_closed_pipe_keeps_status(capsys, ex23_file, tmp_path, command, status, unbuffered):
    # stdout is a pipe whose reader is gone before the command starts, so
    # every write to it fails with EPIPE
    report = tmp_path / "report.txt"
    argv = [{"EX23": ex23_file, "REPORT": str(report)}.get(t, t) for t in command.split()]
    src = pathlib.Path(cli.__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "mmsfair", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (status, "")
    if "--report" in argv:
        written = report.read_text()
        assert written == run_cli(capsys, *argv)[1]
