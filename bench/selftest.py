"""Self-test of the benchmark's checks: each must pass the program's real
output and fail on one planted wrong answer.

    python3 bench/selftest.py

Exits 0 when every check behaves, 1 otherwise.  Takes a few seconds.
"""

from __future__ import annotations

import dataclasses
import sys
from fractions import Fraction

from run import ROOT, fresh_import

sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from workloads import RatioGrid, ReadmeCli, TruthSweep  # noqa: E402


def main() -> int:
    mm = fresh_import()
    results = []

    def expect(label, problems, planted):
        ok = bool(problems) == planted
        results.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {len(problems)} problem(s)")

    # Two-part share against the plain subset sum; one scaled unit is 1/6.
    row = (Fraction(3, 2), 1, Fraction(2, 3), 7, 2, 5)
    got = mm.maximin_share(mm.Instance.from_rows([row]), 0, 2)
    ref = checks.two_part_share(row)
    expect("subset sum, oracle share", checks.check_share(row, 2, got, ref), False)
    expect("subset sum, share one unit high", checks.check_share(row, 2, got + Fraction(1, 6), ref), True)

    # k = 3 share against the MILP.
    row = (5, 9, 12, 3, 8, 7, 4, 11)
    got = mm.maximin_share(mm.Instance.from_rows([row]), 0, 3)
    ref = checks.milp_share(row, 3)
    expect("MILP, oracle share", checks.check_share(row, 3, got, ref), False)
    expect("MILP, share one unit low", checks.check_share(row, 3, got - 1, ref), True)

    # README commands: brute-force 3x5 shares and exit codes.
    cli = ReadmeCli(mm, 0)
    index = {args.split()[0]: i for i, (args, _) in enumerate(cli.commands)}
    for name, planted in (("mms", None), ("chain", None), ("mms", "share"), ("chain", "exit")):
        code, text = cli.ops[index[name]][1]()
        if planted == "share":
            text = text.replace("mms.2=1/4", "mms.2=1/3")
        if planted == "exit":
            code = 0
        expect(f"readme {name}" + (f", wrong {planted}" if planted else ""),
               cli.check(index[name], (code, text)), planted is not None)

    # Truth sweep: cut-and-choose witness replay.
    sweep = TruthSweep(mm, 0)
    i = next(i for i, case in enumerate(sweep.cases) if case[0] == "cut-and-choose")
    result = sweep.ops[i][1]()
    expect("truth-sweep witness", sweep.check(i, result), False)
    sweep.first.clear()
    w = dataclasses.replace(result.witness, deviation_value=result.witness.deviation_value + 1)
    expect("truth-sweep witness, wrong value",
           sweep.check(i, dataclasses.replace(result, witness=w)), True)

    # Ratio grid: one block of rated instances.
    grid = RatioGrid(mm, 0)
    out = grid.ops[0][1]()
    expect("ratio-grid block", grid.check(0, out), False)
    grid.digests.clear()
    bundles, ratio = out[0]
    wrong = Fraction(1, 3) if ratio == Fraction(1, 2) else Fraction(1, 2)
    expect("ratio-grid block, wrong ratio", grid.check(0, [(bundles, wrong)] + out[1:]), True)

    print("selftest:", "passed" if all(results) else "FAILED")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
