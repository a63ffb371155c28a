"""Benchmark of the mmsfair workbench, end to end and by layer.

Run from the repository root:

    python3 bench/run.py --workload ratio-grid --seed 1 --seconds 24 --trace 0

One process and one thread run one workload (see ``workloads.py``) in whole
rounds until ``--seconds`` would be exceeded, checking every output against
independent computations.  The last line of standard output is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Problems found by the checks go to standard error.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import sys
import traceback
from collections import deque
from pathlib import Path
from time import perf_counter

from spans import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 7  # set-ups per run; setup_s is their median
REFERENCE_S = 0.015  # time of one calibration kernel at the reference speed
CALIBRATE_EVERY_S = 0.5  # busy seconds between calibrations


class Speed:
    """The interpreter's current speed relative to the reference.

    On a shared host the speed of one core drifts by a fifth or more over tens
    of seconds, with the load of other tenants.  A fixed kernel runs three
    times whenever ``CALIBRATE_EVERY_S`` busy seconds have passed, and every
    timing is multiplied by ``factor``: the kernel's reference time over the
    median of its last five times.  The figures so read as seconds at the
    reference speed.
    """

    def __init__(self):
        self.factor = 1.0
        self.since = float("inf")
        self.recent: deque[float] = deque(maxlen=5)
        self.data = list(range(200_000))
        random.Random(0).shuffle(self.data)

    def kernel(self) -> int:
        """Pure-Python work that never touches mmsfair: tuple keys, dict
        updates and small sorts, indexing a shuffled list of a few megabytes
        so that cache contention from other tenants slows it as it slows
        mmsfair."""
        data, counts, acc = self.data, {}, 0
        for i in range(16_000):
            k = data[i * 7919 % 200_000]
            key = (k & 1023, k % 977, i & 3)
            counts[key] = counts.get(key, 0) + 1
            acc += sum(sorted(key))
        return acc

    def refresh(self, force: bool = False) -> None:
        if force or self.since >= CALIBRATE_EVERY_S:
            for _ in range(3):
                t0 = perf_counter()
                self.kernel()
                self.recent.append(perf_counter() - t0)
            self.factor = REFERENCE_S / statistics.median(self.recent)
            self.since = 0.0

    def scale(self, seconds: float) -> float:
        self.since += seconds
        return seconds * self.factor


def fresh_import():
    """Import mmsfair from this checkout's ``src``, dropping any earlier copy,
    so each set-up pays the package's import again."""
    for name in [n for n in sys.modules if n == "mmsfair" or n.startswith("mmsfair.")]:
        del sys.modules[name]
    pkg = importlib.import_module("mmsfair")
    importlib.import_module("mmsfair.cli")
    if Path(pkg.__file__).resolve().parent != ROOT / "src" / "mmsfair":
        raise ImportError(f"mmsfair imported from {pkg.__file__}, not from {ROOT / 'src'}")
    return pkg


class Rounds:
    def __init__(self):
        self.op_times: list[list[float]] = []  # scaled seconds per operation, per round
        self.raw_s = 0.0  # unscaled busy seconds
        self.layers: list[dict] = []  # per-layer metrics, per traced round
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def wall_s(self) -> float:
        """One round's time: each operation's median over the rounds, summed,
        so a burst of load from outside that hits one round of an operation
        does not move the figure."""
        return sum(statistics.median(op) for op in zip(*self.op_times))


def run_rounds(workload, seconds: float, speed: Speed, tracer=None) -> Rounds:
    """Run whole rounds while one more, as busy as the last, still ends within
    ``seconds``; time each operation and check its output outside the timing."""
    rounds = Rounds()
    start = perf_counter()
    while True:
        times = []
        for index, (units, op) in enumerate(workload.ops):
            speed.refresh()
            if tracer:
                tracer.install()
            t0 = perf_counter()
            try:
                out = op()
                ok = True
            except Exception:
                ok = False
                if not rounds.failed:
                    traceback.print_exc()
            elapsed = perf_counter() - t0
            rounds.raw_s += elapsed
            times.append(speed.scale(elapsed))
            if tracer:
                tracer.uninstall()
            rounds.attempted += units
            if ok:
                rounds.problems += workload.check(index, out)
            else:
                rounds.failed += units
        rounds.problems += workload.end_round()
        rounds.op_times.append(times)
        if tracer:
            rounds.layers.append(tracer.metrics())
            tracer.reset()
        if perf_counter() - start + rounds.raw_s / len(rounds.op_times) > seconds:
            return rounds


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        trace: {m["name"]: m["unit"] for m in spec[key]}
        for trace, key in ((0, "end_to_end"), (1, "per_layer"))
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = declared_metrics()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        fresh_import()
    except ImportError as exc:
        print(f"error: cannot import mmsfair from this checkout: {exc}", file=sys.stderr)
        return 2

    speed = Speed()
    setup_times = []
    for _ in range(SETUPS):
        workload = None
        gc.collect()
        speed.refresh(force=True)
        t0 = perf_counter()
        workload = WORKLOADS[args.workload](fresh_import(), args.seed)
        setup_times.append(speed.scale(perf_counter() - t0))

    if args.trace:
        plain = run_rounds(workload, args.seconds / 2, speed)
        result = run_rounds(workload, args.seconds / 2, speed, Tracer())
        values = {
            name: statistics.median_low(layer[name] for layer in result.layers)
            for name in result.layers[0]
        }
        values["trace.overhead_s"] = result.wall_s() - plain.wall_s()
        result.attempted += plain.attempted
        result.failed += plain.failed
        result.problems += plain.problems
    else:
        result = run_rounds(workload, args.seconds, speed)
        wall = result.wall_s()
        print(
            f"{len(result.op_times)} rounds, {result.raw_s:.3f} busy seconds unscaled, "
            f"last speed factor {speed.factor:.4f}",
            file=sys.stderr,
        )
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall,
            "units_per_s": sum(units for units, _ in workload.ops) / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    units = declared[args.trace]
    if set(values) != set(units):
        print(f"error: measured {sorted(values)}, declared {sorted(units)}", file=sys.stderr)
        return 2
    for problem in result.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not result.problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
