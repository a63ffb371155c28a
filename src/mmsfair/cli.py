"""Command-line entry point.

Subcommands: ``mms`` (exact shares), ``run`` (run a mechanism and report
ratios), ``verify`` (grid truthfulness sweep), ``chain`` (impossibility
chains), ``adversary`` (ordinal counting bound), ``mc`` (Monte-Carlo
harness), ``seq`` (deadline-based sequence construction).

Every command is reproducible: seeds default to 0 and rational quantities
are printed exactly, never as decimals.  With ``--machine`` the output is
one ``key=value`` record per line.  Exit status: 0 on success / no
violation, 1 when violations or failures were found, 2 on usage or input
errors.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .adversary import (
    INFEASIBLE,
    exhaustive_common_ranking_ratio,
    ordinal_lower_bound_check,
)
from .fixtures import CONSISTENT, builtin_fixture, parse_fixture, run_chain
from .instance import Instance, InstanceError, parse_instance
from .mechanisms import (
    MECHANISM_NAMES,
    MODELS,
    SQRT_SEQ,
    Mechanism,
    MechanismError,
    mechanism,
    run_mechanism,
)
from .mms import UNBOUNDED, approximation_ratio, maximin_share
from .montecarlo import mc_config, montecarlo_randomized, parse_distribution
from .seqbuild import (
    InfeasibleParams,
    build_sqrt_sequence,
    sqrt_seq_params,
    theoretical_ratio,
    verify_pick_positions,
    verify_schedule_demand,
)
from .strategy import EnumerationLimitError, verify_truthful_on_grid


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from None


def _grid(text: str):
    """Grid values as exact rationals; whole numbers become ``int`` so that
    sweeps over them run in integer arithmetic."""
    values = []
    for tok in text.split(","):
        tok = tok.strip()
        if tok:
            v = Fraction(tok)
            values.append(v.numerator if v.denominator == 1 else v)
    if not values:
        raise argparse.ArgumentTypeError("empty grid")
    return tuple(values)


def _frac(x) -> str:
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


def _load_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def _mech_from_args(args) -> Mechanism:
    eps = getattr(args, "epsilon", None)
    if args.mech == SQRT_SEQ:
        if eps is None:
            raise MechanismError("sqrt-seq needs --epsilon P/Q")
        return mechanism(SQRT_SEQ, eps)
    return mechanism(args.mech)


class _Report:
    """Collects output lines and mirrors them to an optional report file."""

    def __init__(self):
        self.lines: list[str] = []

    def add(self, line: str = ""):
        self.lines.append(line)

    def emit(self, path: str | None = None) -> None:
        text = "\n".join(self.lines)
        print(text)
        if path:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")


def _cmd_mms(args) -> int:
    inst = _load_instance(args.instance)
    parts = args.parts if args.parts is not None else inst.n
    out = _Report()
    if not args.machine:
        out.add(f"instance: {inst.n} players, {inst.m} items; shares for {parts} bundles")
    for i in range(inst.n):
        share = maximin_share(inst, i, parts)
        if args.machine:
            out.add(f"mms.{i + 1}={_frac(share)}")
        else:
            out.add(f"player {i + 1}: mms = {_human(share)}")
    out.emit()
    return 0


def _cmd_run(args) -> int:
    inst = _load_instance(args.instance)
    mech = _mech_from_args(args)
    alloc = run_mechanism(mech, args.model, inst, None, args.seed)
    shares = [maximin_share(inst, i, inst.n) for i in range(inst.n)]
    values = [inst.value(i, alloc.bundles[i]) for i in range(inst.n)]
    ratios = [
        values[i] / shares[i] if shares[i] else None for i in range(inst.n)
    ]
    overall = approximation_ratio(inst, alloc)
    try:
        bound = theoretical_ratio(mech, inst.n, inst.m)
    except MechanismError:
        bound = None

    out = _Report()
    if args.machine:
        out.add(f"mechanism={mech}")
        out.add(f"model={args.model}")
        out.add(f"n={inst.n}")
        out.add(f"m={inst.m}")
        out.add(f"seed={args.seed}")
        for i in range(inst.n):
            out.add(f"bundle.{i + 1}={_items(alloc.bundles[i])}")
            out.add(f"value.{i + 1}={_frac(values[i])}")
            out.add(f"mms.{i + 1}={_frac(shares[i])}")
            out.add(
                f"ratio.{i + 1}="
                + (_frac(ratios[i]) if ratios[i] is not None else "unbounded")
            )
        out.add(
            "ratio.overall="
            + ("unbounded" if overall is UNBOUNDED else _frac(overall))
        )
        out.add("bound=" + (_frac(bound) if bound is not None else "none"))
    else:
        out.add(f"mechanism {mech}, model {args.model}, n={inst.n}, m={inst.m}")
        for i in range(inst.n):
            ratio = "unbounded" if ratios[i] is None else _human(ratios[i])
            out.add(
                f"player {i + 1}: items {{{_items(alloc.bundles[i])}}}  "
                f"value {_human(values[i])}  mms {_human(shares[i])}  ratio {ratio}"
            )
        tail = f" (theoretical bound {_human(bound)})" if bound is not None else ""
        out.add(f"overall ratio: {_human(overall)}{tail}")
    out.emit(args.report)
    return 0


def _cmd_verify(args) -> int:
    mech = _mech_from_args(args)
    result = verify_truthful_on_grid(
        mech, args.model, args.n, args.m, args.grid, budget=args.budget
    )
    out = _Report()
    if args.machine:
        out.add(f"mechanism={result.mechanism}")
        out.add(f"model={result.model}")
        out.add(f"instances={result.instances}")
        out.add(f"violations={result.violations}")
        out.add(f"complete={'true' if result.complete else 'false'}")
        if result.witness is not None:
            w = result.witness
            for i, row in enumerate(w.instance_rows):
                out.add(f"witness.row.{i + 1}=" + ",".join(_frac(v) for v in row))
            out.add(f"witness.player={w.player + 1}")
            out.add(f"witness.misreport={_misreport(w.misreport, True)}")
            out.add(f"witness.truthful={_frac(w.truthful_value)}")
            out.add(f"witness.deviation={_frac(w.deviation_value)}")
    else:
        out.add(
            f"mechanism {result.mechanism}, model {result.model}: "
            f"{result.instances} instances, {result.violations} violations"
            + ("" if result.complete else " (search not exhaustive)")
        )
        if result.certificate:
            out.add(f"certificate: {result.certificate}")
        if result.witness is not None:
            w = result.witness
            out.add(
                f"witness: player {w.player + 1} on instance "
                + " | ".join(
                    ",".join(_human(v) for v in row) for row in w.instance_rows
                )
            )
            out.add(
                f"  misreport {_misreport(w.misreport, False)} raises her value "
                f"{_human(w.truthful_value)} -> {_human(w.deviation_value)}"
            )
    out.emit()
    return 1 if result.violations else 0


def _cmd_chain(args) -> int:
    if args.fixture_file:
        with open(args.fixture_file, "r", encoding="utf-8") as fh:
            fix = parse_fixture(fh.read(), name=args.fixture_file)
    else:
        fix = builtin_fixture(args.fixture, epsilon=args.epsilon)
    mech = _mech_from_args(args)
    model = args.model if args.model else fix.model
    report = run_chain(fix, mech, model)
    out = _Report()
    if args.machine:
        out.add(f"fixture={report.fixture}")
        out.add(f"mechanism={report.mechanism}")
        out.add(f"model={report.model}")
        out.add(f"threshold={_frac(report.threshold)}")
        for p in report.profiles:
            for i in range(2):
                out.add(f"profile.{p.index + 1}.ratio.{i + 1}={_frac(p.ratios[i])}")
            out.add(
                f"profile.{p.index + 1}.ok="
                + ("true" if p.meets_threshold else "false")
            )
        for e in report.edges:
            src, dst, player = e.edge
            out.add(f"edge.{src + 1}.{dst + 1}.{player + 1}.gain={_frac(e.gain)}")
        out.add(f"verdict={report.verdict}")
    else:
        out.add(
            f"fixture {report.fixture} (threshold {_human(report.threshold)}), "
            f"mechanism {report.mechanism}, model {report.model}"
        )
        for p in report.profiles:
            bundles = " | ".join(_items(b) for b in p.bundles)
            ratios = ", ".join(_human(r) for r in p.ratios)
            flag = "" if p.meets_threshold else "  BELOW THRESHOLD"
            out.add(f"profile {p.index + 1}: [{bundles}]  ratios {ratios}{flag}")
        for e in report.edges:
            src, dst, player = e.edge
            out.add(
                f"edge {src + 1}->{dst + 1} player {player + 1}: "
                f"truthful {_human(e.truthful_value)}, deviation "
                f"{_human(e.deviation_value)}, gain {_human(e.gain)}"
            )
        out.add(f"verdict: {report.verdict} ({report.detail})")
    out.emit()
    return 0 if report.verdict == CONSISTENT else 1


def _cmd_adversary(args) -> int:
    out = _Report()
    status = 0
    if args.alpha is not None:
        report = ordinal_lower_bound_check(args.n, args.m, args.alpha)
        if args.machine:
            out.add(f"alpha={_frac(report.alpha)}")
            out.add("terms=" + ",".join(str(t) for t in report.terms))
            out.add(f"total={report.total}")
            out.add(f"m={report.m}")
            out.add(f"verdict={report.verdict}")
        else:
            terms = " + ".join(str(t) for t in report.terms)
            rel = ">" if report.verdict == INFEASIBLE else "<="
            out.add(
                f"counting bound at alpha = {_human(report.alpha)}: "
                f"{terms} = {report.total} {rel} m = {report.m}"
            )
            out.add(f"verdict: {report.verdict}")
    if args.exhaustive:
        best = exhaustive_common_ranking_ratio(args.n, args.m)
        if args.machine:
            out.add(f"exhaustive.best={_frac(best)}")
        else:
            out.add(
                f"exhaustive search over {args.n}**{args.m} allocations: "
                f"best worst-case ratio {_human(best)}"
            )
    if args.alpha is None and not args.exhaustive:
        raise MechanismError("nothing to do: pass --alpha and/or --exhaustive")
    out.emit()
    return status


def _cmd_mc(args) -> int:
    dist = parse_distribution(args.dist)
    cfg = mc_config(
        args.n, args.m, dist, float(args.rho), args.trials, args.seed
    )
    result = montecarlo_randomized(cfg)
    out = _Report()
    if args.machine:
        out.add(f"trials={result.trials}")
        out.add(f"success_rate={result.success_rate!r}")
        for i in range(args.n):
            out.add(f"mean.{i + 1}={result.means[i]!r}")
            out.add(f"variance.{i + 1}={result.variances[i]!r}")
            out.add(f"threshold.{i + 1}={result.thresholds[i]!r}")
    else:
        out.add(
            f"n={args.n}, m={args.m}, dist={dist}, rho={float(args.rho)}, "
            f"trials={result.trials}, seed={args.seed}"
        )
        out.add(f"success rate: {result.success_rate}")
        for i in range(args.n):
            out.add(
                f"player {i + 1}: mean {result.means[i]:.6f}, "
                f"variance {result.variances[i]:.6f}, "
                f"threshold a_i {result.thresholds[i]:.6f}"
            )
    out.emit()
    return 0


def _cmd_seq(args) -> int:
    params = sqrt_seq_params(args.n, args.m, args.epsilon)
    seq = build_sqrt_sequence(params)
    violations = verify_pick_positions(seq, args.n, params.alpha)
    demand = verify_schedule_demand(params) if args.n > 1 else []
    out = _Report()
    if args.machine:
        out.add(f"alpha={_frac(params.alpha)}")
        out.add(f"length={len(seq.picks)}")
        out.add("picks=" + ",".join(str(p + 1) for p in seq.picks))
        out.add(f"position_violations={len(violations)}")
        out.add(f"demand_violations={len(demand)}")
    else:
        out.add(
            f"n={args.n}, m={args.m}, epsilon={_human(args.epsilon)}, "
            f"alpha={_human(params.alpha)}"
        )
        for p in seq.picks:
            out.add(str(p + 1))
        if violations:
            for v in violations:
                out.add(
                    f"VIOLATION: player {v.player + 1} pick {v.occurrence} at "
                    f"position {v.position} > bound {v.bound}"
                )
        else:
            out.add("all pick positions meet their deadlines")
        out.add(
            "deadline demand check: "
            + ("ok" if not demand else f"{len(demand)} violations")
        )
    out.emit()
    return 1 if violations or demand else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmsfair",
        description="Maximin-share fair division workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_machine(p):
        p.add_argument(
            "--machine", action="store_true", help="key=value output, one per line"
        )

    p = sub.add_parser("mms", help="exact maximin shares of an instance")
    p.add_argument("--instance", required=True, help="instance file")
    p.add_argument("--parts", type=int, default=None, help="bundle count (default n)")
    add_machine(p)
    p.set_defaults(func=_cmd_mms)

    p = sub.add_parser("run", help="run a mechanism on an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--mech", required=True, choices=MECHANISM_NAMES)
    p.add_argument("--model", required=True, choices=MODELS)
    p.add_argument("--epsilon", type=_rational, default=None, help="sqrt-seq exponent offset")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", default=None, help="also write the report to this file")
    add_machine(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("verify", help="exhaustive truthfulness sweep over a value grid")
    p.add_argument("--mech", required=True, choices=MECHANISM_NAMES)
    p.add_argument("--model", required=True, choices=MODELS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--grid", type=_grid, required=True, help="comma-separated values")
    p.add_argument("--budget", type=int, default=1_000_000)
    p.add_argument("--epsilon", type=_rational, default=None)
    add_machine(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("chain", help="run a mechanism through an impossibility chain")
    p.add_argument("--fixture", default=None, help="built-in fixture name")
    p.add_argument("--fixture-file", default=None, help="fixture file to load instead")
    p.add_argument("--mech", required=True, choices=MECHANISM_NAMES)
    p.add_argument("--model", default=None, choices=MODELS, help="default: the fixture's model")
    p.add_argument("--epsilon", type=_rational, default=Fraction(1, 10))
    add_machine(p)
    p.set_defaults(func=_cmd_chain)

    p = sub.add_parser("adversary", help="ordinal-model counting bound and exhaustive check")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--alpha", type=_rational, default=None)
    p.add_argument("--exhaustive", action="store_true")
    add_machine(p)
    p.set_defaults(func=_cmd_adversary)

    p = sub.add_parser("mc", help="Monte-Carlo harness for the random mechanism")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--dist", default="uniform", help="uniform | discrete:K | bernoulli:P")
    p.add_argument("--rho", type=_rational, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    add_machine(p)
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("seq", help="build and verify a deadline picking sequence")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--epsilon", type=_rational, required=True)
    add_machine(p)
    p.set_defaults(func=_cmd_seq)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "chain" and not args.fixture and not args.fixture_file:
        parser.error("chain needs --fixture or --fixture-file")
    try:
        return args.func(args)
    except (
        InstanceError,
        MechanismError,
        InfeasibleParams,
        EnumerationLimitError,
        FileNotFoundError,
        KeyError,
        ValueError,
    ) as exc:
        if isinstance(exc, OSError):
            message = f"{exc.strerror}: {exc.filename}"
        else:
            message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
