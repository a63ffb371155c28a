"""Fuzzed instance and fixture files, built-in chains, sequence builds,
mechanism runs and grid sweeps through the command line.

Every input must end in an answer (exit 0), found violations (exit 1) or a
one-line refusal on stderr (exit 2), never in an unexpected error (exit 3).
Files stay small (at most 3 players and 6 items) so every share is cheap,
except for shares of 3 to 6 bundles over up to 14 wide values and
cut-and-choose over 2 rows of up to 30; sequence builds stay at most 20
players and 60 items, and sweeps at most 4 players and 4 items.
"""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mmsfair import FIXTURE_NAMES, MECHANISM_NAMES
from mmsfair.cli import main

FUZZ = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=120,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

# The three built-in bounds, small rationals (zero and negatives among them)
# that fall inside every bound, and large ones past every bound.
EPSILONS = st.one_of(
    st.sampled_from(["1/2", "1/5", "1/6"]),
    st.builds("{}/{}".format, st.integers(-1, 3), st.integers(1, 40)),
    st.builds("{}/{}".format, st.integers(0, 36), st.integers(1, 3)),
)
VALUES = st.one_of(
    st.integers(0, 9).map(str),
    st.builds("{}/{}".format, st.integers(0, 30), st.integers(1, 7)),
)
JUNK = st.one_of(
    st.sampled_from(["-1", "-0", "+3", "0.5", "1e3", "1/0", "/2", "x", "٣", "3/-2", "10" * 12]),
    st.text(max_size=8),
)


@st.composite
def noisy(draw, lines):
    """The lines of a well-formed file, most of the time left as they are,
    otherwise with one line dropped or duplicated, one token replaced or one
    junk line inserted."""
    lines = list(lines)
    at = draw(st.integers(0, len(lines) - 1))
    mutation = draw(st.sampled_from(["none"] * 4 + ["drop", "repeat", "token", "insert"]))
    if mutation == "drop":
        del lines[at]
    elif mutation == "repeat":
        lines.insert(at, lines[at])
    elif mutation == "token":
        tokens = lines[at].split() or [""]
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(JUNK)
        lines[at] = " ".join(tokens)
    elif mutation == "insert":
        lines.insert(at, draw(st.one_of(JUNK, st.sampled_from(["", "# note", "\t"]))))
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\r\n"]))


def _row(draw, m):
    return " ".join(draw(st.lists(VALUES, min_size=m, max_size=m)))


@st.composite
def instance_texts(draw):
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    return draw(noisy([f"{n} {m}", *(_row(draw, m) for _ in range(n))]))


@st.composite
def fixture_texts(draw):
    m = draw(st.integers(1, 4))
    model = draw(st.sampled_from(["cardinal", "ordinal", "public-rankings"]))
    lines = ["threshold " + draw(VALUES), "epsilon " + draw(VALUES), "model " + model]
    # Each later profile changes one player's row of an earlier one, and an
    # edge joins the two in either direction.
    profiles, edges = [[_row(draw, m), _row(draw, m)]], []
    for dst in range(2, draw(st.integers(1, 3)) + 1):
        src, player = draw(st.integers(1, dst - 1)), draw(st.integers(1, 2))
        profile = list(profiles[src - 1])
        profile[player - 1] = _row(draw, m)
        profiles.append(profile)
        ends = (src, dst) if draw(st.booleans()) else (dst, src)
        edges.append("edge {} {} {}".format(*ends, player))
    for rows in profiles:
        lines += ["profile", *rows]
    return draw(noisy(lines + edges))


def _run(capsys, argv):
    status = main(argv)
    out, err = capsys.readouterr()
    assert status in (0, 1, 2), err
    if status == 2:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert err == ""
    return status


@FUZZ
@given(text=instance_texts())
@example(text="2 3\n1 1/2 0\n2/3 1 1\n")
def test_fuzzed_instance_files(capsys, tmp_path, text):
    path = tmp_path / "inst.txt"
    path.write_text(text, encoding="utf-8")
    _run(capsys, ["mms", "--instance", str(path)])


@st.composite
def wide_instance_texts(draw):
    n, m = draw(st.integers(1, 2)), draw(st.integers(1, 14))
    values = st.one_of(
        st.integers(0, 10**6).map(str),
        st.builds("{}/{}".format, st.integers(0, 10**6), st.integers(1, 12)),
    )
    rows = [" ".join(draw(st.lists(values, min_size=m, max_size=m))) for _ in range(n)]
    return "\n".join([f"{n} {m}", *rows]) + "\n"


@FUZZ
@given(text=wide_instance_texts(), parts=st.integers(3, 6))
def test_fuzzed_many_part_shares(capsys, tmp_path, text, parts):
    path = tmp_path / "inst.txt"
    path.write_text(text, encoding="utf-8")
    assert _run(capsys, ["mms", "--instance", str(path), "--parts", str(parts)]) != 1


@FUZZ
@given(text=fixture_texts())
@example(text="threshold 1/2\nedge 0 1 2\nprofile\n1 0\n0 1\n")
def test_fuzzed_fixture_files(capsys, tmp_path, text):
    path = tmp_path / "chain.txt"
    path.write_text(text, encoding="utf-8")
    _run(capsys, ["chain", "--fixture-file", str(path), "--mech", "pick-seq"])


@FUZZ
@given(
    name=st.sampled_from(FIXTURE_NAMES),
    mech=st.sampled_from(MECHANISM_NAMES),
    epsilon=EPSILONS,
)
def test_fuzzed_builtin_chains(capsys, name, mech, epsilon):
    _run(capsys, ["chain", "--fixture", name, "--mech", mech, "--epsilon=" + epsilon])


@FUZZ
@given(n=st.integers(-1, 20), m=st.integers(-1, 60), epsilon=EPSILONS)
@example(n=5, m=5, epsilon="12/1")
def test_fuzzed_sequence_builds(capsys, n, m, epsilon):
    _run(capsys, ["seq", f"--n={n}", f"--m={m}", "--epsilon=" + epsilon])


MODELS = st.sampled_from(["cardinal", "ordinal", "public-rankings"])


@st.composite
def mechanism_args(draw):
    """A mechanism with an epsilon if it takes one (sqrt-seq), and one time
    in five the other way round."""
    mech = draw(st.sampled_from(MECHANISM_NAMES))
    takes = (mech == "sqrt-seq") != (draw(st.integers(0, 4)) == 0)
    return ["--mech", mech] + (["--epsilon=" + draw(EPSILONS)] if takes else [])


@st.composite
def two_player_texts(draw):
    """A clean 2 x m instance for cut-and-choose, m up to 30, with small or
    wide values."""
    m = draw(st.integers(1, 30))
    values = st.one_of(VALUES, st.integers(0, 10**6).map(str))
    rows = [" ".join(draw(st.lists(values, min_size=m, max_size=m))) for _ in range(2)]
    return "\n".join([f"2 {m}", *rows]) + "\n"


@FUZZ
@given(text=instance_texts(), mech=mechanism_args(), model=MODELS)
@example(
    text="2 4\n1 1/2 0 3\n2/3 1 1 0\n",
    mech=["--mech", "sqrt-seq", "--epsilon=1/4"],
    model="ordinal",
)
def test_fuzzed_runs(capsys, tmp_path, text, mech, model):
    path = tmp_path / "inst.txt"
    path.write_text(text, encoding="utf-8")
    _run(capsys, ["run", "--instance", str(path), *mech, "--model", model])


@FUZZ
@given(text=two_player_texts())
@example(text="2 22\n" + " ".join(map(str, range(1, 23))) + "\n" + "1 " * 22 + "\n")
def test_fuzzed_cut_and_choose(capsys, tmp_path, text):
    path = tmp_path / "inst.txt"
    path.write_text(text, encoding="utf-8")
    argv = ["run", "--instance", str(path), "--mech", "cut-and-choose", "--model", "cardinal"]
    assert _run(capsys, argv) != 1


@FUZZ
@given(
    mech=mechanism_args(),
    model=MODELS,
    n=st.integers(0, 4),
    m=st.integers(0, 4),
    grid=st.lists(VALUES, min_size=1, max_size=3),
)
@example(mech=["--mech", "cut-and-choose"], model="cardinal", n=2, m=4, grid=["1", "3"])
@example(mech=["--mech", "pr"], model="ordinal", n=2, m=2, grid=["-1", "1"])
def test_fuzzed_verify_sweeps(capsys, mech, model, n, m, grid):
    argv = ["verify", *mech, "--model", model, f"--n={n}", f"--m={m}",
            "--grid=" + ",".join(grid), "--budget=4096"]
    _run(capsys, argv)
