"""The benchmark's four workloads.

A workload is built from the freshly imported ``mmsfair`` package and a seed.
It exposes ``ops``, a list of ``(units, callable)`` pairs that make up one
round, ``check(index, output)`` for the output of one operation, and
``end_round()`` for claims about a whole round.  Both checks return a list of
problems.  Calls into the package go through module attributes at call time,
so the tracer's wrappers see them.
"""

from __future__ import annotations

import io
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import partial
from itertools import product
from pathlib import Path

import checks
from spans import share_class

EX23 = Path(__file__).resolve().parent / "ex23.txt"


class TruthSweep:
    """verify_truthful_on_grid at n=2, m=4 over the acceptance criterion-4
    cases; the unit is one (instance, player) pair swept."""

    N, M = 2, 4
    # (mechanism, model, grid, truthful in that model)
    CASES = (
        ("pick-seq", "ordinal", (0, 1, 2), True),
        ("pr", "ordinal", (0, 1, 2), False),
        ("pr", "public-rankings", (0, 1, 2), True),
        ("pr-exact-2-4", "public-rankings", (0, 1, 2), True),
        ("cut-and-choose", "cardinal", (1, 3), False),
    )

    def __init__(self, mm, seed: int):
        self.mm = mm
        self.cases = list(self.CASES)
        random.Random(seed).shuffle(self.cases)
        self.ops = [
            (len(grid) ** (self.N * self.M) * self.N, partial(self._sweep, name, model, grid))
            for name, model, grid, _ in self.cases
        ]
        self.first: dict = {}

    def _sweep(self, name, model, grid):
        mm = self.mm
        return mm.verify_truthful_on_grid(mm.mechanism(name), model, self.N, self.M, grid)

    def check(self, index, result):
        name, model, grid, clean = self.cases[index]
        if (name, model) in self.first:
            if result != self.first[name, model]:
                return [f"{name}/{model}: result differs from the first round"]
            return []
        self.first[name, model] = result
        mech = self.mm.mechanism(name)
        truthful = model in self.mm.truthful_models(mech)
        replay = partial(self._replay, mech, model)
        return checks.check_sweep(result, grid, self.N, self.M, clean, truthful, replay)

    def _replay(self, mech, model, w):
        mm = self.mm
        inst = mm.Instance.from_rows(w.instance_rows)
        if model == "ordinal":
            reported = [mm.derive_ranking(inst, i) for i in range(inst.n)]
        else:
            reported = list(w.instance_rows)
        reported[w.player] = w.misreport
        truthful = mm.run_mechanism(mech, model, inst).bundles[w.player]
        deviated = mm.run_mechanism(mech, model, inst, reported).bundles[w.player]
        row = w.instance_rows[w.player]
        return sum(row[j] for j in truthful), sum(row[j] for j in deviated)

    def end_round(self):
        return []


class RatioGrid:
    """approximation_ratio(inst, run_mechanism(...)) over every 2-player grid
    instance of acceptance criteria 2 and 3; the unit is one instance rated.
    The seed fixes the order in which instances are rated."""

    # (mechanism, model, items, grid, claim on the ratio)
    GRIDS = (
        ("pr-exact-2-4", "public-rankings", 4, (0, 1, 2, 3), "exact"),
        ("best-item", "cardinal", 4, (0, 1, 2, 3), "half"),
        ("best-item", "cardinal", 5, (0, 1, 2), "half"),
    )
    BLOCK = 512  # instances per timed operation

    def __init__(self, mm, seed: int):
        self.mm = mm
        rng = random.Random(seed)
        self.ops, self.blocks = [], []
        for name, model, m, grid, claim in self.GRIDS:
            rows = list(product(grid, repeat=m))
            pairs = [(r1, r2) for r1 in rows for r2 in rows]
            rng.shuffle(pairs)
            mech = mm.mechanism(name)
            for start in range(0, len(pairs), self.BLOCK):
                block = pairs[start:start + self.BLOCK]
                self.ops.append((len(block), partial(self._rate, mech, model, block)))
                self.blocks.append((block, m, claim))
        self.shares: dict = {}
        self.minimum: dict = {}
        self.digests: dict = {}

    def _rate(self, mech, model, block):
        mm = self.mm
        from_rows, run, ratio = mm.Instance.from_rows, mm.run_mechanism, mm.approximation_ratio
        out = []
        for rows in block:
            inst = from_rows(rows)
            alloc = run(mech, model, inst)
            out.append((alloc.bundles, ratio(inst, alloc)))
        return out

    def _share(self, row):
        share = self.shares.get(row)
        if share is None:
            share = self.shares[row] = checks.two_part_share(row)
        return share

    def check(self, index, out):
        """Recompute every ratio of the first round; later rounds must hash
        to the same outputs."""
        digest = hash(tuple(out))
        if index in self.digests:
            if digest != self.digests[index]:
                return [f"block {index}: output differs from the first round"]
            return []
        self.digests[index] = digest
        block, m, claim = self.blocks[index]
        unbounded = self.mm.UNBOUNDED
        problems = []
        for rows, (bundles, got) in zip(block, out):
            bad = checks.check_partition(bundles, m)
            want = None if bad else checks.grid_ratio(rows, bundles, self._share)
            if bad or (got is unbounded) != (want is None) or (want is not None and got != want):
                problems += bad or [f"ratio of {rows}: got {got}, recomputed {want}"]
            elif want is not None and (claim not in self.minimum or want < self.minimum[claim]):
                self.minimum[claim] = want
        return problems

    def end_round(self):
        if self.minimum is None:
            return []
        low_half, low_exact = self.minimum.get("half"), self.minimum.get("exact")
        self.minimum = None
        problems = []
        if low_half != Fraction(1, 2):
            problems.append(f"best-item minimum ratio {low_half}, expected exactly 1/2")
        if low_exact is None or low_exact < 1:
            problems.append(f"pr-exact-2-4 minimum ratio {low_exact}, expected at least 1")
        return problems


class OracleDeep:
    """Direct maximin_share queries on seeded random rows; the unit is one
    share query."""

    # (class, bundles, items, largest value, queries per round)
    CLASSES = (
        ("k3plus", 3, 11, 10**6, 40),
        ("k3plus", 4, 10, 10**3, 24),
        ("k2-wide", 2, 11, 10**6, 600),
        ("k2-bitset", 2, 24, 10**5, 300),
    )

    def __init__(self, mm, seed: int):
        self.mm = mm
        rng = random.Random(seed)
        self.queries = []
        for label, parts, m, top, count in self.CLASSES:
            for _ in range(count):
                row = [rng.randint(1, top) for _ in range(m)]
                while share_class(row, parts) != label:
                    row = [rng.randint(1, top) for _ in range(m)]
                self.queries.append((mm.Instance.from_rows([row]), parts))
        rng.shuffle(self.queries)
        self.ops = [(1, partial(self._share, inst, parts)) for inst, parts in self.queries]
        self.expected: dict = {}

    def _share(self, inst, parts):
        return self.mm.maximin_share(inst, 0, parts)

    def check(self, index, got):
        inst, parts = self.queries[index]
        row = inst.values[0]
        if index not in self.expected:
            self.expected[index] = checks.reference_share(row, parts)
        return checks.check_share(row, parts, got, self.expected[index])

    def end_round(self):
        return []


class ReadmeCli:
    """The seven README commands through mmsfair.cli.main(argv) with
    ``--machine`` output captured in memory; the unit is one command."""

    # (arguments, exit status the README documents); EX23 stands for the path
    COMMANDS = (
        ("mms --instance EX23", 0),
        ("run --instance EX23 --mech pr --model ordinal", 0),
        ("verify --mech cut-and-choose --model cardinal --n 2 --m 4 --grid 1,3", 1),
        ("chain --fixture lemma-1+3 --mech best-item --model cardinal", 1),
        ("adversary --n 3 --m 6 --alpha 51/100 --exhaustive", 0),
        ("mc --n 3 --m 300 --dist uniform --rho 4/5 --trials 10000 --seed 0", 0),
        ("seq --n 17 --m 29 --epsilon 1/4", 0),
    )

    def __init__(self, mm, seed: int):
        self.mm = mm
        self.commands = list(self.COMMANDS)
        random.Random(seed).shuffle(self.commands)
        self.ops = [
            (1, partial(self._main, [str(EX23) if t == "EX23" else t for t in args.split()] + ["--machine"]))
            for args, _ in self.commands
        ]
        self.ctx = None

    def _context(self):
        """The 3x5 instance, read independently, with brute-force shares."""
        lines = [
            line.split()
            for line in EX23.read_text(encoding="utf-8").splitlines()
            if line.strip() and not line.startswith("#")
        ]
        rows = [tuple(Fraction(t) for t in line) for line in lines[1:]]
        shares = [checks.brute_share(row, len(rows)) for row in rows]
        return {"rows": rows, "shares": shares, "replay": self._replay}

    def _main(self, argv):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            try:
                code = sys.modules["mmsfair.cli"].main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()

    def _replay(self, rows, player, misreport):
        mm = self.mm
        mech = mm.mechanism("cut-and-choose")
        inst = mm.Instance.from_rows(rows)
        reported = list(rows)
        reported[player] = misreport
        truthful = mm.run_mechanism(mech, "cardinal", inst).bundles[player]
        deviated = mm.run_mechanism(mech, "cardinal", inst, reported).bundles[player]
        return sum(rows[player][j] for j in truthful), sum(rows[player][j] for j in deviated)

    def check(self, index, out):
        args, expected_code = self.commands[index]
        code, text = out
        if self.ctx is None:
            self.ctx = self._context()
        return checks.check_cli(args.split()[0], code, expected_code, checks.parse_records(text), self.ctx)

    def end_round(self):
        return []


WORKLOADS = {
    "truth-sweep": TruthSweep,
    "ratio-grid": RatioGrid,
    "oracle-deep": OracleDeep,
    "readme-cli": ReadmeCli,
}
