"""Command-line entry point.

Subcommands: ``mms`` (exact shares), ``run`` (run a mechanism and report
ratios), ``verify`` (grid truthfulness sweep), ``chain`` (impossibility
chains), ``adversary`` (ordinal counting bound), ``mc`` (Monte-Carlo
harness), ``seq`` (deadline-based sequence construction).

The commands only format: each returns its exit status and its output
lines, which :func:`main` prints in one place, writing ``--report`` where
the command has it.  Values, shares and ratios come from :mod:`mmsfair.mms`.

Every command is reproducible: seeds default to 0 and rational quantities
are printed exactly, never as decimals.  With ``--machine`` the output is
one ``key=value`` record per line.  With ``--stats`` the command also
writes, to stderr after its output, the hits, misses and size of each memo
(counted since the process started) and its wall time, as ``stats.*=``
lines; stdout is unchanged.  Exit status: 0 on success / no
violation, 1 when violations or failures were found, 2 on usage or input
errors, 3 on an unexpected error (its traceback goes to stderr).  A reader
that closes stdout early (``| head -1``) changes none of these: the command
stops printing, still writes ``--report``, prints nothing to stderr and
exits with the status it would have had.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
import time
import traceback
from fractions import Fraction

from . import instance, mechanisms, mms
from .adversary import (
    INFEASIBLE,
    exhaustive_common_ranking_ratio,
    ordinal_lower_bound_check,
)
from .fixtures import CONSISTENT, builtin_fixture, parse_fixture, run_chain
from .instance import BUDGET, Instance, parse_instance
from .mechanisms import (
    _SPECS,
    MECHANISM_NAMES,
    MODELS,
    Mechanism,
    MechanismError,
    run_mechanism,
    theoretical_ratio,
)
from .mms import UNBOUNDED, _player_ratios, approximation_ratio, maximin_share
from .montecarlo import mc_config, montecarlo_randomized, parse_distribution
from .seqbuild import (
    build_sqrt_sequence,
    sqrt_seq_params,
    verify_pick_positions,
    verify_schedule_demand,
)
from .strategy import verify_truthful_on_grid


# The memos --stats reports, by module and name.
_MEMOS = (
    ("instance._order", instance._order),
    ("mechanisms._outcome", mechanisms._outcome),
    ("mechanisms._proposal", mechanisms._proposal),
    ("mechanisms._sequence", mechanisms._sequence),
    ("mechanisms._shared_allocation", mechanisms._shared_allocation),
    ("mms._rated_term", mms._rated_term),
    ("mms._rated_share", mms._rated_share),
)

# The largest decimal exponent a rational flag takes: Fraction writes the
# power of ten out in full, and 1e30000000 took minutes.
_MAX_EXPONENT = 1000
_EXPONENT = re.compile(r"e([-+]?[\d_]+)", re.IGNORECASE)


def _rational(text: str) -> Fraction:
    """An exact rational as ``Fraction`` reads it (``6/3``, ``0.25``,
    ``1e1``), refused if its decimal exponent is past ``_MAX_EXPONENT``."""
    exponent = _EXPONENT.search(text)
    try:
        if exponent and abs(int(exponent[1])) > _MAX_EXPONENT:
            raise argparse.ArgumentTypeError(
                f"exponent of {text!r} is over {_MAX_EXPONENT} in magnitude"
            )
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from None


def _grid(text: str):
    """Grid values as exact rationals (:func:`_rational`); whole numbers
    become ``int`` so that sweeps over them run in integer arithmetic."""
    values = []
    for tok in text.split(","):
        tok = tok.strip()
        if tok:
            v = _rational(tok)
            values.append(v.numerator if v.denominator == 1 else v)
    if not values:
        raise argparse.ArgumentTypeError("empty grid")
    return tuple(values)


def _frac(x) -> str:
    if x is UNBOUNDED:
        return "unbounded"
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def _human(x) -> str:
    if x is UNBOUNDED:
        return "unbounded"
    return str(Fraction(x))


def _items(bundle) -> str:
    return ",".join(str(j + 1) for j in sorted(bundle)) if bundle else "-"


def _misreport(w, machine: bool) -> str:
    """Render a witness misreport: a value row or a ranking."""
    if hasattr(w, "order"):
        return "ranking " + ">".join(str(j + 1) for j in w.order)
    render = _frac if machine else _human
    return ",".join(render(v) for v in w)


def _read_text(path: str) -> str:
    """A UTF-8 file's text, with its line endings kept for the parsers'
    ``splitlines``; other bytes are refused by file and offset."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"not UTF-8 at byte offset {exc.start}: {path}") from None


def _load_instance(path: str) -> Instance:
    return parse_instance(_read_text(path))


def _mech_from_args(args) -> Mechanism:
    """The ``--mech`` mechanism with ``--epsilon``: ``sqrt-seq`` needs one
    and every other mechanism refuses one."""
    if args.epsilon is None and _SPECS[args.mech].takes_epsilon:
        raise MechanismError(f"{args.mech} needs --epsilon P/Q")
    return Mechanism(args.mech, args.epsilon)


def _cmd_mms(args) -> tuple[int, list[str]]:
    inst = _load_instance(args.instance)
    parts = args.parts if args.parts is not None else inst.n
    out = [] if args.machine else [
        f"instance: {inst.n} players, {inst.m} items; shares for {parts} bundles"
    ]
    for i in range(inst.n):
        share = maximin_share(inst, i, parts)
        if args.machine:
            out.append(f"mms.{i + 1}={_frac(share)}")
        else:
            out.append(f"player {i + 1}: mms = {_human(share)}")
    return 0, out


def _cmd_run(args) -> tuple[int, list[str]]:
    inst = _load_instance(args.instance)
    mech = _mech_from_args(args)
    alloc = run_mechanism(mech, args.model, inst, None, args.seed)
    values, shares, ratios = _player_ratios(inst, alloc)
    overall = approximation_ratio(inst, alloc)
    bound = theoretical_ratio(mech, inst.n, inst.m) if _SPECS[mech.name].bound else None

    if args.machine:
        out = [
            f"mechanism={mech}",
            f"model={args.model}",
            f"n={inst.n}",
            f"m={inst.m}",
            f"seed={args.seed}",
        ]
        for i in range(inst.n):
            out.append(f"bundle.{i + 1}={_items(alloc.bundles[i])}")
            out.append(f"value.{i + 1}={_frac(values[i])}")
            out.append(f"mms.{i + 1}={_frac(shares[i])}")
            out.append(f"ratio.{i + 1}={_frac(ratios[i])}")
        out.append(f"ratio.overall={_frac(overall)}")
        out.append("bound=" + (_frac(bound) if bound is not None else "none"))
    else:
        out = [f"mechanism {mech}, model {args.model}, n={inst.n}, m={inst.m}"]
        for i in range(inst.n):
            out.append(
                f"player {i + 1}: items {{{_items(alloc.bundles[i])}}}  "
                f"value {_human(values[i])}  mms {_human(shares[i])}  "
                f"ratio {_human(ratios[i])}"
            )
        tail = f" (theoretical bound {_human(bound)})" if bound is not None else ""
        out.append(f"overall ratio: {_human(overall)}{tail}")
    return 0, out


def _cmd_verify(args) -> tuple[int, list[str]]:
    mech = _mech_from_args(args)
    result = verify_truthful_on_grid(
        mech, args.model, args.n, args.m, args.grid, budget=args.budget
    )
    w = result.witness
    if args.machine:
        out = [
            f"mechanism={result.mechanism}",
            f"model={result.model}",
            f"instances={result.instances}",
            f"violations={result.violations}",
            f"complete={'true' if result.complete else 'false'}",
        ]
        if result.certificate:
            out.append(f"certificate={result.certificate}")
        if w is not None:
            for i, row in enumerate(w.instance_rows):
                out.append(f"witness.row.{i + 1}=" + ",".join(_frac(v) for v in row))
            out.append(f"witness.player={w.player + 1}")
            out.append(f"witness.misreport={_misreport(w.misreport, True)}")
            out.append(f"witness.truthful={_frac(w.truthful_value)}")
            out.append(f"witness.deviation={_frac(w.deviation_value)}")
    else:
        out = [
            f"mechanism {result.mechanism}, model {result.model}: "
            f"{result.instances} instances, {result.violations} violations"
            + ("" if result.complete else " (search not exhaustive)")
        ]
        if result.certificate:
            out.append(f"certificate: {result.certificate}")
        if w is not None:
            out.append(
                f"witness: player {w.player + 1} on instance "
                + " | ".join(
                    ",".join(_human(v) for v in row) for row in w.instance_rows
                )
            )
            out.append(
                f"  misreport {_misreport(w.misreport, False)} raises her value "
                f"{_human(w.truthful_value)} -> {_human(w.deviation_value)}"
            )
    return (1 if result.violations else 0), out


def _cmd_chain(args) -> tuple[int, list[str]]:
    if args.fixture_file is not None:
        fix = parse_fixture(_read_text(args.fixture_file), name=args.fixture_file)
    else:
        fix = builtin_fixture(args.fixture, epsilon=args.epsilon)
    # --epsilon is the fixture's, which only sqrt-seq also takes as its own
    eps = args.epsilon if _SPECS[args.mech].takes_epsilon else None
    mech = Mechanism(args.mech, eps)
    model = args.model if args.model else fix.model
    report = run_chain(fix, mech, model)
    if args.machine:
        out = [
            f"fixture={report.fixture}",
            f"mechanism={report.mechanism}",
            f"model={report.model}",
            f"threshold={_frac(report.threshold)}",
        ]
        for p in report.profiles:
            for i in range(2):
                out.append(f"profile.{p.index + 1}.ratio.{i + 1}={_frac(p.ratios[i])}")
            out.append(f"profile.{p.index + 1}.ok={'true' if p.meets_threshold else 'false'}")
        for e in report.edges:
            src, dst, player = e.edge
            out.append(f"edge.{src + 1}.{dst + 1}.{player + 1}.gain={_frac(e.gain)}")
        out.append(f"verdict={report.verdict}")
    else:
        out = [
            f"fixture {report.fixture} (threshold {_human(report.threshold)}), "
            f"mechanism {report.mechanism}, model {report.model}"
        ]
        for p in report.profiles:
            bundles = " | ".join(_items(b) for b in p.bundles)
            ratios = ", ".join(_human(r) for r in p.ratios)
            flag = "" if p.meets_threshold else "  BELOW THRESHOLD"
            out.append(f"profile {p.index + 1}: [{bundles}]  ratios {ratios}{flag}")
        for e in report.edges:
            src, dst, player = e.edge
            out.append(
                f"edge {src + 1}->{dst + 1} player {player + 1}: "
                f"truthful {_human(e.truthful_value)}, deviation "
                f"{_human(e.deviation_value)}, gain {_human(e.gain)}"
            )
        out.append(f"verdict: {report.verdict} ({report.detail})")
    return (0 if report.verdict == CONSISTENT else 1), out


def _cmd_adversary(args) -> tuple[int, list[str]]:
    if args.alpha is None and not args.exhaustive:
        raise MechanismError("nothing to do: pass --alpha and/or --exhaustive")
    out = []
    if args.alpha is not None:
        report = ordinal_lower_bound_check(args.n, args.m, args.alpha)
        if args.machine:
            out.append(f"alpha={_frac(report.alpha)}")
            out.append("terms=" + ",".join(str(t) for t in report.terms))
            out.append(f"total={report.total}")
            out.append(f"m={report.m}")
            out.append(f"verdict={report.verdict}")
        else:
            terms = " + ".join(str(t) for t in report.terms)
            rel = ">" if report.verdict == INFEASIBLE else "<="
            out.append(
                f"counting bound at alpha = {_human(report.alpha)}: "
                f"{terms} = {report.total} {rel} m = {report.m}"
            )
            out.append(f"verdict: {report.verdict}")
    if args.exhaustive:
        best = exhaustive_common_ranking_ratio(args.n, args.m)
        if args.machine:
            out.append(f"exhaustive.best={_frac(best)}")
        else:
            out.append(
                f"exhaustive search over {args.n}**{args.m} allocations: "
                f"best worst-case ratio {_human(best)}"
            )
    return 0, out


def _cmd_mc(args) -> tuple[int, list[str]]:
    dist = parse_distribution(args.dist)
    cfg = mc_config(args.n, args.m, dist, args.rho, args.trials, args.seed)
    result = montecarlo_randomized(cfg)
    if args.machine:
        out = [f"trials={result.trials}", f"success_rate={result.success_rate!r}"]
        for i in range(args.n):
            out.append(f"mean.{i + 1}={result.means[i]!r}")
            out.append(f"variance.{i + 1}={result.variances[i]!r}")
            out.append(f"threshold.{i + 1}={result.thresholds[i]!r}")
    else:
        out = [
            f"n={args.n}, m={args.m}, dist={dist}, rho={cfg.rho}, "
            f"trials={result.trials}, seed={args.seed}",
            f"success rate: {result.success_rate}",
        ]
        for i in range(args.n):
            out.append(
                f"player {i + 1}: mean {result.means[i]:.6f}, "
                f"variance {result.variances[i]:.6f}, "
                f"threshold a_i {result.thresholds[i]:.6f}"
            )
    return 0, out


def _cmd_seq(args) -> tuple[int, list[str]]:
    params = sqrt_seq_params(args.n, args.m, args.epsilon)
    seq = build_sqrt_sequence(params)
    violations = verify_pick_positions(seq, args.n, params.alpha)
    demand = verify_schedule_demand(params)
    if args.machine:
        out = [
            f"alpha={_frac(params.alpha)}",
            f"length={len(seq.picks)}",
            "picks=" + ",".join(str(p + 1) for p in seq.picks),
            f"position_violations={len(violations)}",
            f"demand_violations={len(demand)}",
        ]
    else:
        out = [
            f"n={args.n}, m={args.m}, epsilon={_human(args.epsilon)}, "
            f"alpha={_human(params.alpha)}"
        ]
        out += [str(p + 1) for p in seq.picks]
        for v in violations:
            out.append(
                f"VIOLATION: player {v.player + 1} pick {v.occurrence} at "
                f"position {v.position} > bound {v.bound}"
            )
        if not violations:
            out.append("all pick positions meet their deadlines")
        out.append(
            "deadline demand check: "
            + ("ok" if not demand else f"{len(demand)} violations")
        )
    return (1 if violations or demand else 0), out


def _print(lines: list[str], path: str | None) -> None:
    """Print a command's lines, then write them to ``path`` if one is given.
    A reader that closes the pipe early (``| head``) ends the printing
    quietly: stdout is pointed at the null device, so the interpreter's final
    flush raises nothing, and the command keeps its status."""
    text = "\n".join(lines)
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and kept: it holds
    no per-input state, so every :func:`main` call reuses it."""
    parser = argparse.ArgumentParser(
        prog="mmsfair",
        description="Maximin-share fair division workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument(
            "--machine", action="store_true", help="key=value output, one per line"
        )
        p.add_argument(
            "--stats", action="store_true",
            help="also write memo counters and wall time to stderr as stats.*= lines",
        )

    p = sub.add_parser("mms", help="exact maximin shares of an instance")
    p.add_argument("--instance", required=True, help="instance file")
    p.add_argument("--parts", type=int, default=None, help="bundle count (default n)")
    add_output(p)
    p.set_defaults(func=_cmd_mms)

    p = sub.add_parser("run", help="run a mechanism on an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--mech", required=True, choices=MECHANISM_NAMES)
    p.add_argument("--model", required=True, choices=MODELS)
    p.add_argument("--epsilon", type=_rational, default=None, help="sqrt-seq exponent offset")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", default=None, help="also write the report to this file")
    add_output(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("verify", help="exhaustive truthfulness sweep over a value grid")
    p.add_argument("--mech", required=True, choices=MECHANISM_NAMES)
    p.add_argument("--model", required=True, choices=MODELS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--grid", type=_grid, required=True, help="comma-separated values")
    p.add_argument("--budget", type=int, default=BUDGET)
    p.add_argument("--epsilon", type=_rational, default=None)
    add_output(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("chain", help="run a mechanism through an impossibility chain")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--fixture", help="built-in fixture name")
    source.add_argument("--fixture-file", help="fixture file to load")
    p.add_argument("--mech", required=True, choices=MECHANISM_NAMES)
    p.add_argument("--model", default=None, choices=MODELS, help="default: the fixture's model")
    p.add_argument("--epsilon", type=_rational, default=Fraction(1, 10))
    add_output(p)
    p.set_defaults(func=_cmd_chain)

    p = sub.add_parser("adversary", help="ordinal-model counting bound and exhaustive check")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--alpha", type=_rational, default=None)
    p.add_argument("--exhaustive", action="store_true")
    add_output(p)
    p.set_defaults(func=_cmd_adversary)

    p = sub.add_parser("mc", help="Monte-Carlo harness for the random mechanism")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--dist", default="uniform", help="uniform | discrete:K | bernoulli:P")
    p.add_argument("--rho", type=_rational, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    add_output(p)
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("seq", help="build and verify a deadline picking sequence")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--epsilon", type=_rational, required=True)
    add_output(p)
    p.set_defaults(func=_cmd_seq)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        status, lines = args.func(args)
        _print(lines, getattr(args, "report", None))
        return status
    except (OSError, KeyError, ValueError) as exc:
        if isinstance(exc, OSError):
            message = f"{exc.strerror}: {exc.filename}"
        else:
            message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3
    finally:
        if args.stats:
            _print_stats(time.perf_counter() - start)


def _print_stats(wall_s: float) -> None:
    """The ``--stats`` lines: each memo's hits, misses and size, then the
    command's wall time in seconds."""
    lines = []
    for name, memo in _MEMOS:
        info = memo.cache_info()
        lines += [
            f"stats.{name}.hits={info.hits}",
            f"stats.{name}.misses={info.misses}",
            f"stats.{name}.currsize={info.currsize}",
        ]
    lines.append(f"stats.wall_s={wall_s:.6f}")
    print("\n".join(lines), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
