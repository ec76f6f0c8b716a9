"""Command-line frontend: certify, run, verify, and bench subcommands.

Exit codes: 0 for success (certify: STRONG or WEAK verdict; verify: all
checks pass), 2 for a clean negative result (certify: NONE; verify:
failing checks), 1 for usage or parameter errors. Human-readable output
prints floats with 6 significant digits; CSV and JSON outputs keep full
precision.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from . import verify as verify_mod
from .errors import InvalidParameterError, PassiveGdError, _count
from .functions import BUILTIN_NAMES, builtin_function
from .interconnect import run_transformed
from .optim import (
    DEFAULT_MAX_ITER,
    ArmijoAlpha,
    ArmijoParams,
    ArmijoS,
    FixedAlpha,
    FixedS,
    GradNorm,
    MaxIter,
    PairedGrad,
    gd_run,
    gsgd_run,
)
from .passivity import Verdict, certify_step_size, nabla_indices
from .signals import _columns, _write_columns

__all__ = ["main", "build_parser"]


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _print_json(doc) -> None:
    """Print ``doc`` as strict JSON; a non-finite value ends in one error line."""
    try:
        text = json.dumps(doc, sort_keys=True, allow_nan=False)
    except ValueError:
        raise InvalidParameterError(
            "the result holds a non-finite value, which strict JSON cannot encode"
        ) from None
    print(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="passive-gd",
        description="Passivity-based certification and simulation of gradient descent",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cert = sub.add_parser("certify", help="classify a step size for sector (m, L)")
    p_cert.add_argument("--m", type=float, required=True)
    p_cert.add_argument("--L", type=float, required=True)
    p_cert.add_argument("--alpha", type=float, required=True)
    p_cert.add_argument("--json", action="store_true")

    p_run = sub.add_parser("run", help="run an optimizer or a feedback loop")
    p_run.add_argument("--function", default="oscillatory",
                       help=f"one of: {', '.join(BUILTIN_NAMES)}")
    p_run.add_argument("--m", type=float, default=1.0)
    p_run.add_argument("--L", type=float, required=True)
    p_run.add_argument("--x0", required=True,
                       help="comma-separated initial point, e.g. '5' or '1,1'")
    p_run.add_argument("--method", choices=("gd", "gsgd"), default="gd")
    p_run.add_argument("--alpha", type=float, help="fixed step size (gd)")
    p_run.add_argument("--s", type=float, help="fixed scheduling value (gsgd)")
    p_run.add_argument("--armijo", action="store_true",
                       help="backtracking schedule instead of a fixed value")
    p_run.add_argument("--cap", type=float, help="scheduling cap (gsgd armijo)")
    p_run.add_argument("--tol", type=float, default=1e-12)
    p_run.add_argument("--paired-tol", type=float,
                       help="enable the paired-gradient rule with this tolerance")
    p_run.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)
    p_run.add_argument("--mode", choices=("iterate", "loop"), default="iterate")
    p_run.add_argument("--steps", type=int, default=100,
                       help="loop-mode horizon")
    p_run.add_argument("--trace", help="write the trace to this CSV path")
    p_run.add_argument("--json", action="store_true")

    p_ver = sub.add_parser("verify", help="run a numerical verification suite")
    p_ver.add_argument("--suite", default="all",
                       help=f"one of: {', '.join(verify_mod.SUITE_NAMES)}")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--json", action="store_true")

    p_bench = sub.add_parser("bench", help="Monte Carlo benchmark over seeded x0")
    p_bench.add_argument("--config", help="JSON config; omit for the built-in spec")
    p_bench.add_argument("--out-dir", required=True)
    p_bench.add_argument("--seed", type=int, help="override the config seed")
    p_bench.add_argument("--threads", type=int, default=1,
                         help="threads that run the sample chunks")
    p_bench.add_argument("--json", action="store_true")
    return parser


def _cmd_certify(args) -> int:
    verdict = certify_step_size(args.m, args.L, args.alpha)
    base = nabla_indices(args.m, args.L)
    doc = {
        "verdict": verdict.verdict.value,
        "alpha": args.alpha,
        "d": verdict.d,
        "alpha_half": args.alpha / 2.0,
        "one_over_L": 1.0 / args.L,
        "p_scalar": (
            verdict.certificate.p_scalar if verdict.certificate.feasible else None
        ),
        "delta": base.delta,
        "epsilon": base.epsilon,
        "delta_bar": (
            verdict.transformed_indices.delta if verdict.transformed_indices else None
        ),
        "epsilon_bar": (
            verdict.transformed_indices.epsilon if verdict.transformed_indices else None
        ),
        "transformed_classification": (
            verdict.transformed_indices.classification.value
            if verdict.transformed_indices
            else None
        ),
    }
    if args.json:
        _print_json(doc)
    else:
        print(f"verdict: {verdict.verdict.value.upper()}")
        # Six digits can print a d beside 1/L as 1/L itself; then both print in full.
        d, inv_l = verdict.d, 1.0 / args.L
        fmt = repr if d != inv_l and _fmt(d) == _fmt(inv_l) else _fmt
        print(f"  alpha = {_fmt(args.alpha)}, d = alpha/2 = {fmt(d)}, 1/L = {fmt(inv_l)}")
        if doc["p_scalar"] is not None:
            print(f"  certificate scalar p = 1/alpha = {_fmt(doc['p_scalar'])}")
        else:
            print("  certificate: infeasible")
        print(f"  gradient indices: delta = {_fmt(base.delta)}, "
              f"epsilon = {_fmt(base.epsilon)}")
        if verdict.transformed_indices is not None:
            ti = verdict.transformed_indices
            print(f"  transformed indices: delta_bar = {_fmt(ti.delta)}, "
                  f"epsilon_bar = {_fmt(ti.epsilon)} ({ti.classification.value})")
        else:
            print("  transformed indices: undefined at this feedthrough")
    return 0 if verdict.verdict in (Verdict.STRONG, Verdict.WEAK) else 2


def _parse_x0(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",")])
    except ValueError:
        raise InvalidParameterError(
            f"--x0 must be comma-separated numbers, got {text!r}"
        ) from None


def _refuse_dropped_options(args) -> None:
    """Refuse an option that this ``run`` would drop, in one line naming it."""
    s, cap, armijo = args.s is not None, args.cap is not None, args.armijo
    if args.mode == "loop":
        checks = [(option, given, "with --mode loop") for option, given in (
            ("--method gsgd", args.method == "gsgd"), ("--s", s), ("--cap", cap),
            ("--armijo", armijo), ("--paired-tol", args.paired_tol is not None))]
    elif args.method == "gd":
        checks = [("--s", s, "with --method gd"), ("--cap", cap, "with --method gd"),
                  ("--alpha", args.alpha is not None and armijo, "with --armijo")]
    else:
        checks = [("--alpha", args.alpha is not None, "with --method gsgd"),
                  ("--s", s and armijo, "with --armijo"),
                  ("--cap", cap and not armijo, "without --armijo")]
    for option, given, where in checks:
        if given:
            raise InvalidParameterError(f"{option} is not used {where}")


def _cmd_run(args) -> int:
    _refuse_dropped_options(args)
    f = builtin_function(args.function, args.m, args.L)
    x0 = _parse_x0(args.x0)
    if args.mode == "loop":
        if args.alpha is None:
            raise InvalidParameterError("loop mode needs --alpha")
        trace = run_transformed(f, args.alpha, args.alpha / 2.0, x0, args.steps)
        if args.trace:
            # The last row holds the final state alone; its u1 .. y2 cells are blank.
            columns = {}
            for name, a in zip(("u1", "y1", "u2", "y2", "state"),
                               (trace.u1, trace.y1, trace.u2, trace.y2, trace.states)):
                columns.update(_columns(name, a, indexed=f.dim > 1))
            _write_columns(args.trace, columns, trace.steps + 1)
        final = trace.states[-1] + f.minimizer
        doc = {
            "mode": "loop",
            "steps": trace.steps,
            "final_x": final.tolist(),
        }
        if args.json:
            _print_json(doc)
        else:
            print(f"loop steps: {trace.steps}")
            print(f"final x: [{', '.join(_fmt(v) for v in final)}]")
        return 0

    stops = [GradNorm(args.tol)]
    if args.paired_tol is not None:
        stops.append(PairedGrad(args.paired_tol))
    stops.append(MaxIter(args.max_iter))
    if args.method == "gd":
        if args.armijo:
            schedule = ArmijoAlpha(ArmijoParams())
        elif args.alpha is not None:
            schedule = FixedAlpha(args.alpha)
        else:
            raise InvalidParameterError("gd needs --alpha or --armijo")
        trace = gd_run(f, x0, schedule, stops)
    else:
        if args.armijo:
            schedule = ArmijoS(ArmijoParams(), cap=args.cap)
        elif args.s is not None:
            schedule = FixedS(args.s)
        else:
            raise InvalidParameterError("gsgd needs --s or --armijo")
        trace = gsgd_run(f, x0, schedule, stops)
    if args.trace:
        columns = {**_columns("x", trace.iterates),
                   **_columns("g", trace.gradients), "step": trace.step_history}
        _write_columns(args.trace, columns, len(trace.iterates))
    final = trace.iterates[-1]
    # hypot does not square its arguments, so a finite gradient has a finite norm.
    grad_norm = math.hypot(*trace.gradients[-1])
    doc = {
        "mode": "iterate",
        "iterations": trace.iterations,
        "termination": trace.termination.value,
        "final_x": final.tolist(),
        "final_grad_norm": grad_norm,
    }
    if args.json:
        _print_json(doc)
    else:
        print(f"iterations: {trace.iterations} ({trace.termination.value})")
        print(f"final x: [{', '.join(_fmt(v) for v in final)}], "
              f"|grad| = {_fmt(doc['final_grad_norm'])}")
    return 0


def _cmd_verify(args) -> int:
    reports = verify_mod.run_suite(args.suite, args.seed)
    if args.json:
        _print_json([r.as_dict() for r in reports])
    else:
        for report in reports:
            status = "PASS" if report.passed else "FAIL"
            print(f"[{status}] suite {report.name}")
            for c in report.checks:
                mark = "ok " if c.passed else "BAD"
                print(f"  {mark} {c.label}: {_fmt(c.value)} "
                      f"(threshold {_fmt(c.threshold)})")
    return 0 if all(r.passed for r in reports) else 2


def _slug(label: str) -> str:
    return "".join(ch if ch.isalnum() else "-" for ch in label).strip("-")


def _cmd_bench(args) -> int:
    if args.config:
        with open(args.config) as fh:
            try:
                doc = json.load(fh)
            except ValueError as exc:
                raise InvalidParameterError(
                    f"config {args.config} is not valid JSON: {exc}"
                ) from None
    else:
        doc = bench_mod.default_config()
    if args.seed is not None and isinstance(doc, dict):
        doc["seed"] = args.seed
    f, spec = bench_mod.spec_from_config(doc)
    # Checked before the output directory exists, so a refused input leaves none.
    _count("threads", args.threads, 1)
    slugs = [_slug(m.label) for m in spec.methods]
    for i, s in enumerate(slugs):
        if not s:
            raise InvalidParameterError(f"method label {spec.methods[i].label!r} has no "
                                        "letter or digit to name its hist-*.csv file")
        if (j := slugs.index(s)) < i:
            raise InvalidParameterError(f"method labels {spec.methods[j].label!r} and "
                                        f"{spec.methods[i].label!r} both write hist-{s}.csv")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stats = bench_mod.run_monte_carlo(f, spec, threads=args.threads)
    for s in stats:
        bench_mod.export_histogram(s, out_dir / f"hist-{_slug(s.label)}.csv")
    bench_mod.write_summary_csv(stats, out_dir / "summary.csv")
    if args.json:
        _print_json(
            [
                {
                    "label": s.label,
                    "mean": s.mean,
                    "median": s.median,
                    "mode": s.mode,
                    "n": s.n,
                    "flagged": s.flagged,
                }
                for s in stats
            ]
        )
    else:
        print(f"{'label':<20} {'mean':>10} {'median':>8} {'mode':>6} "
              f"{'n':>8} {'flagged':>8}")
        for s in stats:
            print(f"{s.label:<20} {s.mean:>10.6g} {s.median:>8} {s.mode:>6} "
                  f"{s.n:>8} {s.flagged:>8}")
        print(f"wrote {out_dir / 'summary.csv'}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; map those to 1 and
        # keep 0 for --help.
        return 0 if exc.code == 0 else 1
    try:
        if args.command == "certify":
            return _cmd_certify(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_bench(args)
    except PassiveGdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
