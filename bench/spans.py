"""Per-layer spans recorded from the benchmark's side of the calls.

``Tracer`` replaces public functions of the mmsfair modules with timing
wrappers while an operation runs, and puts the originals back afterwards.
Every module attribute bound to a traced function is rebound, so calls made
through ``from .mms import maximin_share`` style imports are caught too.

Each span records its call count and its self time: its duration minus the
duration of the traced spans nested inside it.  The tracer's own bookkeeping
is charged to no span, so it shows only as traced minus untraced wall time.
"""

from __future__ import annotations

import math
import sys
import types
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

# Two-part shares whose integer-scaled total exceeds this take the oracle's
# wide path (``k2-wide``); the others take its bitset path (``k2-bitset``).
BITSET_TOTAL = 4_194_304

# (module, function, self-time metric, call-count metric or None)
SPANS = (
    ("mms", "maximin_share", "mms.share_s", "mms.share_calls"),
    ("mms", "approximation_ratio", "mms.ratio_self_s", "mms.ratio_calls"),
    ("instance", "validate_allocation", "instance.validate_s", None),
    ("instance", "parse_instance", "instance.parse_s", None),
    ("mechanisms", "run_mechanism", "mechanisms.run_s", "mechanisms.run_calls"),
    ("mechanisms", "best_two_partition", "mechanisms.two_partition_s", "mechanisms.two_partition_calls"),
    ("strategy", "verify_truthful_on_grid", "strategy.sweep_s", None),
    ("fixtures", "run_chain", "fixtures.chain_s", None),
    ("adversary", "exhaustive_common_ranking_ratio", "adversary.exhaustive_s", None),
    ("montecarlo", "montecarlo_randomized", "montecarlo.s", None),
    ("seqbuild", "build_sqrt_sequence", "seqbuild.build_s", None),
    ("cli", "main", "cli.self_s", None),
)
SHARE_CLASSES = ("k3plus", "k2-wide", "k2-bitset")
SWEEP_CASES = (
    "pick-seq.ordinal",
    "pr.ordinal",
    "pr.public-rankings",
    "pr-exact-2-4.public-rankings",
    "cut-and-choose.cardinal",
    "cli",
)


def share_class(row, parts: int) -> str:
    """Which oracle path a share query over the values ``row`` exercises."""
    if parts >= 3:
        return "k3plus"
    if parts != 2:
        return "other"
    scale = math.lcm(*(Fraction(v).denominator for v in row)) if row else 1
    total = sum(int(v * scale) for v in row)
    return "k2-wide" if total > BITSET_TOTAL else "k2-bitset"


class Tracer:
    def __init__(self, package: str = "mmsfair"):
        self.stack: list[float] = []  # nested duration of each open span
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.share_keys: set = set()
        self.cli_depth = 0
        mods = {
            name.split(".")[-1]: mod
            for name, mod in sys.modules.items()
            if name.startswith(package + ".")
        }
        wrappers = {}
        for mod_name, func, time_key, _ in SPANS:
            fn = getattr(mods[mod_name], func)
            key_of = {"mms.share_s": self._share_key, "strategy.sweep_s": self._sweep_key}.get(time_key)
            wrappers[fn] = self._span(fn, time_key, key_of)
        wrappers[mods["cli"].main] = self._cli(wrappers[mods["cli"].main])
        self._sites = [
            (mod, attr, value, wrappers[value])
            for mod in (sys.modules[package], *mods.values())
            for attr, value in vars(mod).items()
            if isinstance(value, types.FunctionType) and value in wrappers
        ]
        cls = mods["instance"].Instance
        original = cls.__dict__["from_rows"]
        self._sites.append(
            (cls, "from_rows", original,
             classmethod(self._span(original.__func__, "instance.build_s", None)))
        )

    def install(self) -> None:
        for owner, attr, _, wrapper in self._sites:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._sites:
            setattr(owner, attr, original)

    def _span(self, fn, time_key, key_of):
        stack, calls, self_s = self.stack, self.calls, self.self_s

        def span(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                nested = stack.pop()
                key = time_key if key_of is None else key_of(*args, **kwargs)
                calls[key] += 1
                self_s[key] += duration - nested
                if stack:
                    stack[-1] += perf_counter() - start

        return span

    def _cli(self, span):
        def main(*args, **kwargs):
            self.cli_depth += 1
            try:
                return span(*args, **kwargs)
            finally:
                self.cli_depth -= 1

        return main

    def _share_key(self, inst, player, parts, items=None) -> str:
        subset = tuple(range(inst.m)) if items is None else tuple(sorted(set(items)))
        row = inst.values[player]
        self.share_keys.add((row, parts, subset))
        return "mms.share_s." + share_class([row[j] for j in subset], parts)

    def _sweep_key(self, mech, model, *args, **kwargs) -> str:
        if self.cli_depth:
            return "strategy.sweep_s.cli"
        return f"strategy.sweep_s.{mech.name}.{model}"

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics accumulated since the last ``reset``."""
        out = {}
        for _, _, time_key, calls_key in SPANS:
            if time_key in ("mms.share_s", "strategy.sweep_s"):
                continue
            out[time_key] = self.self_s.get(time_key, 0.0)
            if calls_key:
                out[calls_key] = self.calls.get(time_key, 0)
        out["instance.build_s"] = self.self_s.get("instance.build_s", 0.0)
        share = [k for k in self.calls if k.startswith("mms.share_s.")]
        out["mms.share_calls"] = sum(self.calls[k] for k in share)
        out["mms.share_s"] = sum(self.self_s[k] for k in share)
        out["mms.share_distinct_ratio"] = (
            len(self.share_keys) / out["mms.share_calls"] if out["mms.share_calls"] else 0.0
        )
        for cls in SHARE_CLASSES:
            out[f"mms.share_s.{cls}"] = self.self_s.get(f"mms.share_s.{cls}", 0.0)
        for case in SWEEP_CASES:
            out[f"strategy.sweep_s.{case}"] = self.self_s.get(f"strategy.sweep_s.{case}", 0.0)
        return out

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.share_keys.clear()
