"""Independent reference computations and output checks for the benchmark.

Nothing here calls the mmsfair oracle.  Shares come from code of their own:

- ``two_part_share``: a plain subset sum over achievable bundle values;
- ``milp_share``: ``scipy.optimize.milp`` at a zero relative gap, with the
  partition it returns re-evaluated in exact integers;
- ``brute_share``: every assignment of items to bundles, in exact rationals.

Each ``check_*`` function returns a list of problems; an empty list means the
program's output passed.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import os
import sys
from fractions import Fraction
from itertools import product

# Above this many weight units a float64 MILP no longer represents every
# bundle load exactly.
MILP_WEIGHT_LIMIT = 1 << 50


def _scaled(row):
    """Common denominator and the positive integer weights of ``row``."""
    scale = math.lcm(*(Fraction(v).denominator for v in row)) if row else 1
    weights = [int(Fraction(v) * scale) for v in row]
    return scale, [w for w in weights if w > 0]


def two_part_share(row) -> Fraction:
    """Maximin share for two bundles: the largest achievable subset sum that
    does not exceed half the total."""
    scale, weights = _scaled(row)
    if len(weights) < 2:
        return Fraction(0)
    reach = 1
    for w in weights:
        reach |= reach << w
    half = sum(weights) // 2
    return Fraction((reach & ((2 << half) - 1)).bit_length() - 1, scale)


def brute_share(row, parts: int) -> Fraction:
    """Maximin share by enumerating all ``parts ** len(row)`` assignments."""
    best = Fraction(0)
    for assignment in product(range(parts), repeat=len(row)):
        loads = [Fraction(0)] * parts
        for item, bundle in enumerate(assignment):
            loads[bundle] += Fraction(row[item])
        best = max(best, min(loads))
    return best


@contextlib.contextmanager
def _quiet_stdout_fd():
    """Route file descriptor 1 to the null device: the HiGHS solver prints
    diagnostics from C++ that would otherwise land after the result line."""
    sys.stdout.flush()
    libc = ctypes.CDLL(None)
    saved = os.dup(1)
    null = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(null, 1)
        yield
    finally:
        libc.fflush(None)
        os.dup2(saved, 1)
        os.close(saved)
        os.close(null)


def milp_share(row, parts: int) -> Fraction:
    """Maximin share for ``parts`` bundles as a mixed-integer program:
    maximise ``t`` subject to every bundle load being at least ``t``.

    The solver works in floating point, so the partition it returns is
    re-evaluated in integers and that value is returned.
    """
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    scale, weights = _scaled(row)
    if len(weights) < parts:
        return Fraction(0)
    if sum(weights) >= MILP_WEIGHT_LIMIT:
        raise ValueError("weights too large for an exact floating-point MILP")
    weights.sort(reverse=True)
    m, k = len(weights), parts
    nvar = m * k + 1  # x[j, b] for item j in bundle b, then t
    cost = np.zeros(nvar)
    cost[-1] = -1.0
    a = np.zeros((m + k, nvar))
    for j in range(m):
        a[j, j * k:(j + 1) * k] = 1.0
    for b in range(k):
        a[m + b, b:m * k:k] = weights
        a[m + b, -1] = -1.0
    lower = np.r_[np.ones(m), np.zeros(k)]
    upper = np.r_[np.ones(m), np.full(k, np.inf)]
    var_upper = np.ones(nvar)
    var_upper[-1] = sum(weights) // k
    # Bundles are interchangeable: item j opens at most bundle j.
    for j in range(min(m, k)):
        var_upper[j * k + j + 1:(j + 1) * k] = 0.0
    integrality = np.ones(nvar)
    integrality[-1] = 0
    with _quiet_stdout_fd():
        res = milp(
            cost,
            constraints=LinearConstraint(a, lower, upper),
            integrality=integrality,
            bounds=Bounds(np.zeros(nvar), var_upper),
            options={"mip_rel_gap": 0},
        )
    if res.status != 0:
        raise RuntimeError(f"MILP did not solve to optimality: {res.message}")
    x = res.x[:-1].reshape(m, k)
    loads = [0] * k
    for j in range(m):
        loads[int(x[j].argmax())] += weights[j]
    return Fraction(min(loads), scale)


def reference_share(row, parts: int) -> Fraction:
    """The independent share used to check an oracle answer."""
    if parts == 2:
        return two_part_share(row)
    return milp_share(row, parts)


def check_share(row, parts: int, got, expected) -> list[str]:
    if got != expected:
        return [f"share of {list(row)} for {parts} parts: got {got}, expected {expected}"]
    return []


# --- ratio-grid -----------------------------------------------------------


def grid_ratio(rows, bundles, share_of):
    """Worst value-to-share ratio over players with a positive share, or None
    when every share is 0; ``share_of`` maps a row to its two-part share."""
    ratios = []
    for row, bundle in zip(rows, bundles):
        share = share_of(row)
        if share:
            ratios.append(sum(row[j] for j in bundle) / share)
    return min(ratios) if ratios else None


def check_partition(bundles, m: int) -> list[str]:
    items = sorted(j for b in bundles for j in b)
    if items != list(range(m)):
        return [f"bundles {bundles} do not partition {m} items"]
    return []


# --- truth-sweep ----------------------------------------------------------


def check_sweep(result, grid, n: int, m: int, clean: bool, truthful: bool, replay) -> list[str]:
    """``replay(witness)`` returns the witness player's (truthful, deviation)
    values recomputed through the mechanism."""
    label = f"{result.mechanism}/{result.model}"
    problems = []
    if result.instances != len(grid) ** (n * m):
        problems.append(f"{label}: {result.instances} instances, expected {len(grid) ** (n * m)}")
    if clean:
        if result.violations or result.witness is not None:
            problems.append(f"{label}: {result.violations} violations in a truthful model")
        if not result.complete:
            problems.append(f"{label}: truthful sweep not complete")
        if not truthful:
            problems.append(f"{label}: model missing from truthful_models")
        return problems
    if truthful:
        problems.append(f"{label}: manipulable model listed in truthful_models")
    w = result.witness
    if result.violations < 1 or w is None:
        return problems + [f"{label}: no violation found"]
    t_val, d_val = replay(w)
    if (t_val, d_val) != (w.truthful_value, w.deviation_value) or not d_val > t_val:
        problems.append(
            f"{label}: witness replays to {t_val} -> {d_val}, "
            f"recorded {w.truthful_value} -> {w.deviation_value}"
        )
    return problems


# --- readme-cli -----------------------------------------------------------


def parse_records(text: str) -> dict[str, str]:
    """``key=value`` lines of ``--machine`` output."""
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def _bundle(text: str) -> list[int]:
    return [] if text == "-" else [int(t) - 1 for t in text.split(",")]


def check_cli(command: str, code: int, expected_code: int, rec: dict, ctx: dict) -> list[str]:
    """Check one README command's exit code and ``--machine`` records.

    ``ctx`` holds ``rows`` (the 3x5 instance), ``shares`` (its brute-force
    shares) and ``replay`` (witness replay for the verify command)."""
    problems = []
    if code != expected_code:
        problems.append(f"{command}: exit {code}, expected {expected_code}")
    try:
        problems += _CLI_CHECKS[command](rec, ctx)
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        problems.append(f"{command}: unreadable output ({exc!r})")
    return [p if p.startswith(command) else f"{command}: {p}" for p in problems]


def _cli_mms(rec, ctx):
    return [
        f"mms.{i + 1}={rec[f'mms.{i + 1}']}, brute force {s}"
        for i, s in enumerate(ctx["shares"])
        if Fraction(rec[f"mms.{i + 1}"]) != s
    ]


def _cli_run(rec, ctx):
    rows, shares = ctx["rows"], ctx["shares"]
    bundles = [_bundle(rec[f"bundle.{i + 1}"]) for i in range(len(rows))]
    problems = check_partition(bundles, len(rows[0]))
    ratios = []
    for i, (row, bundle) in enumerate(zip(rows, bundles)):
        value = sum((row[j] for j in bundle), Fraction(0))
        if Fraction(rec[f"value.{i + 1}"]) != value:
            problems.append(f"value.{i + 1}={rec[f'value.{i + 1}']}, recomputed {value}")
        if Fraction(rec[f"mms.{i + 1}"]) != shares[i]:
            problems.append(f"mms.{i + 1}={rec[f'mms.{i + 1}']}, brute force {shares[i]}")
        if shares[i]:
            ratios.append(value / shares[i])
            if Fraction(rec[f"ratio.{i + 1}"]) != value / shares[i]:
                problems.append(f"ratio.{i + 1}={rec[f'ratio.{i + 1}']}")
    if Fraction(rec["ratio.overall"]) != min(ratios):
        problems.append(f"ratio.overall={rec['ratio.overall']}, recomputed {min(ratios)}")
    return problems


def _cli_verify(rec, ctx):
    problems = []
    if int(rec["instances"]) != 2 ** 8:
        problems.append(f"instances={rec['instances']}, expected 256")
    if int(rec["violations"]) < 1:
        problems.append("no violation found")
    rows = [tuple(Fraction(v) for v in rec[f"witness.row.{i}"].split(",")) for i in (1, 2)]
    player = int(rec["witness.player"]) - 1
    misreport = tuple(Fraction(v) for v in rec["witness.misreport"].split(","))
    recorded = (Fraction(rec["witness.truthful"]), Fraction(rec["witness.deviation"]))
    replayed = ctx["replay"](rows, player, misreport)
    if replayed != recorded or not replayed[1] > replayed[0]:
        problems.append(f"witness replays to {replayed}, recorded {recorded}")
    return problems


def _cli_chain(rec, ctx):
    problems = []
    if rec["verdict"] != "approx-failure":
        problems.append(f"verdict={rec['verdict']}")
    last = max(int(k.split(".")[1]) for k in rec if k.startswith("profile."))
    if rec[f"profile.{last}.ok"] != "false" or Fraction(rec[f"profile.{last}.ratio.1"]) != Fraction(1, 2):
        problems.append(f"final profile {last} does not fail at ratio 1/2")
    return problems


def _cli_adversary(rec, ctx):
    problems = []
    terms = [int(t) for t in rec["terms"].split(",")]
    if int(rec["total"]) != sum(terms) or int(rec["total"]) != 7 or int(rec["m"]) != 6:
        problems.append(f"counting total {rec['total']} over m={rec['m']}, expected 7 > 6")
    if rec["verdict"] != "infeasible":
        problems.append(f"verdict={rec['verdict']}")
    if Fraction(rec["exhaustive.best"]) > Fraction(1, 2):
        problems.append(f"exhaustive.best={rec['exhaustive.best']} above 1/2")
    return problems


def _cli_mc(rec, ctx):
    trials, m = int(rec["trials"]), 300
    problems = [] if trials == 10_000 else [f"trials={trials}"]
    for i in (1, 2, 3):
        mean, var = float(rec[f"mean.{i}"]), float(rec[f"variance.{i}"])
        if abs(mean - m / 6) > 3 * math.sqrt(var / trials):
            problems.append(f"mean.{i}={mean} not within 3 SE of {m / 6}")
    return problems


def _cli_seq(rec, ctx):
    picks = [int(p) for p in rec["picks"].split(",")]
    problems = []
    if int(rec["length"]) != 29 or len(picks) != 29:
        problems.append(f"length={rec['length']}, expected m=29")
    if set(picks) != set(range(1, 18)):
        problems.append("picks do not name each of the 17 players")
    if rec["position_violations"] != "0" or rec["demand_violations"] != "0":
        problems.append("deadline violations reported")
    return problems


_CLI_CHECKS = {
    "mms": _cli_mms,
    "run": _cli_run,
    "verify": _cli_verify,
    "chain": _cli_chain,
    "adversary": _cli_adversary,
    "mc": _cli_mc,
    "seq": _cli_seq,
}
