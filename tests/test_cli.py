from fractions import Fraction

import pytest

from conftest import EX23_TEXT
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

    def test_report_file(self, capsys, tmp_path, ex23_file):
        report = tmp_path / "report.txt"
        status, out, _ = run_cli(
            capsys, "run", "--instance", ex23_file, "--mech", "best-item",
            "--model", "ordinal", "--machine", "--report", str(report),
        )
        assert status == 0
        assert report.read_text().strip() == out.strip()

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

    def test_budget_error(self, capsys):
        status, _, err = run_cli(
            capsys, "verify", "--mech", "pick-seq", "--model", "ordinal",
            "--n", "2", "--m", "4", "--grid", "0,1,2", "--budget", "10",
        )
        assert status == 2
        assert "6561" in err


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

    def test_missing_fixture_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["chain", "--mech", "pr"])
        assert err.value.code == 2

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

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2
