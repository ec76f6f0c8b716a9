"""The three benchmark workloads: inputs, timed calls, output checks, traces.

Each workload is a closed loop: the next library call starts only after
the previous one returned. ``mc-paper`` alternates a call at one thread
with a call at two, so slow drifts of the machine hit both alike; the
other two workloads have no thread setting and make one-thread calls.

``mc-paper``   ``passive-gd bench`` through ``cli.main`` on the built-in
               default config (the paper's headline experiment).
``mc-custom``  ``run_monte_carlo`` on a user objective, which is the only
               input that reaches the per-sample fallback engine.
``verify-all`` ``passive-gd verify --suite all --json`` over a fixed block
               of verify seeds derived from the workload seed.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

import passive_gd
from passive_gd import bench as bench_mod
from passive_gd import cli
from passive_gd import interconnect as interconnect_mod
from passive_gd import passivity as passivity_mod
from passive_gd import verify as verify_mod
from passive_gd.bench import MethodSpec, MonteCarloSpec, default_methods, run_monte_carlo
from passive_gd.functions import (
    SectorFunction,
    diag_quadratic,
    oscillatory,
    quadratic,
    sector_membership_scan,
)
from passive_gd.optim import FixedAlpha, FixedS, GradNorm, MaxIter, Termination, gd_run, gsgd_run

from tracing import Tracer, counting_copy, patched, spanned

M, L = 1.0, 100.0
X0_LOW, X0_HIGH = -1e5, 1e5
TOL = 1e-12
# The six default labels in order, with the short names used in metrics.
SHORT = dict(zip(
    ("alpha=2/(m+L)", "s=sqrt(2/(m+L))", "alpha=2/L", "s=sqrt(2/L)",
     "alpha-armijo", "s-armijo"),
    ("alpha_mL", "s_mL", "alpha_L", "s_L", "alpha_armijo", "s_armijo"),
))
ARMIJO = ("alpha_armijo", "s_armijo")
# Acceptance criterion 8: (mean, median) of the four fixed-step methods on
# the default config. The mode is not checked: across seeds it moves by up
# to 2 while the mean moves by at most about 0.1.
TARGETS = {
    "alpha=2/(m+L)": (28.36, 27),
    "s=sqrt(2/(m+L))": (25.68, 25),
    "alpha=2/L": (32.12, 31),
    "s=sqrt(2/L)": (29.50, 28),
}
PREFIX = 100            # x0 prefix checked against the per-sample optimizers
CUSTOM_SAMPLES = 300    # mc-custom: samples per run_monte_carlo call
VERIFY_BLOCK = 6        # verify-all: verify seeds per block
VERIFY_SEED_RANGE = 50  # verify seeds are drawn from [0, VERIFY_SEED_RANGE)


class Ledger:
    """Counts library calls and failures; collects output mismatches."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []

    def call(self, label: str, fn, *args, **kwargs):
        """Run one library call; return ``(ok, result)``. An exception or a
        nonzero CLI exit code counts as failed and is reported on stderr."""
        self.attempted += 1
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a failing call must not stop the run
            self.failed += 1
            print(f"failed: {label}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return False, None
        return True, result

    def cli(self, label: str, argv: list[str]):
        """Run ``cli.main(argv)`` with stdout captured; ``(ok, stdout)``."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            ok, code = self.call(label, cli.main, argv)
        if ok and code != 0:
            self.failed += 1
            print(f"failed: {label}: exit code {code}", file=sys.stderr)
            ok = False
        return ok, buf.getvalue()

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.mismatches.append(message)
            print(f"incorrect: {message}", file=sys.stderr)


def histograms(stats) -> list[tuple]:
    return [(s.label, s.count_histogram, s.flagged) for s in stats]


def read_dir(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def custom_oscillatory() -> SectorFunction:
    """``oscillatory(1, 100)`` rebuilt as a user objective without the
    vectorized callables, so ``run_monte_carlo`` takes the fallback path."""
    builtin = oscillatory(M, L)
    return SectorFunction(
        dim=1, m=M, L=L, minimizer=np.zeros(1),
        value=builtin.value, gradient=builtin.gradient,
        elementwise_value=None, elementwise_gradient=None,
        name="custom-oscillatory",
    )


def mc_spec(seed: int, n_samples: int) -> MonteCarloSpec:
    return MonteCarloSpec(
        n_samples=n_samples, x0_low=X0_LOW, x0_high=X0_HIGH, seed=seed,
        tol=TOL, methods=default_methods(M, L),
    )


def updates_total(stats) -> int:
    """Iterate updates over all samples: each recorded count is updates + 1."""
    return sum((k - 1) * c for k, c in stats.count_histogram.items())


# --------------------------------------------------------------- self-tests

def check_counting_oracle(ledger: Ledger) -> None:
    """Hand-countable case: ``quadratic(100)`` with alpha = 1/L (or s with
    s^2 = 1/L) converges in one update. The vectorized gd kernel evaluates
    the gradient at x0 and at x1 (2 points per sample), the scheduled one
    also at s*x0 (3 points); the per-sample optimizers do the same, one
    point per call. Every sample records iteration count 2."""
    n = 64
    f = quadratic(L)
    custom = SectorFunction(dim=1, m=L, L=L, minimizer=np.zeros(1),
                            value=f.value, gradient=f.gradient, name="custom-quadratic")
    methods = (MethodSpec("gd", "gd", FixedAlpha(1.0 / L)),
               MethodSpec("gsgd", "gsgd", FixedS(float(np.sqrt(1.0 / L)))))
    for target, vectorized in ((f, True), (custom, False)):
        for method, grads in zip(methods, (2, 3)):
            tracer = Tracer()
            fc = counting_copy(target, tracer)
            spec = dataclasses.replace(mc_spec(7, n), x0_low=-1.0, x0_high=1.0,
                                       methods=(method,))
            with tracer.span("self-test") as s:
                ok, stats = ledger.call("run_monte_carlo (counting self-test)",
                                        run_monte_carlo, fc, spec, threads=1)
            if not ok:
                continue
            calls = grads if vectorized else grads * n
            where = f"counting self-test {target.name}/{method.kind}"
            ledger.expect(stats[0].count_histogram == {2: n} and stats[0].flagged == 0,
                          f"{where}: histogram {stats[0].count_histogram}")
            ledger.expect(s.points["grad"] == grads * n and s.calls["grad"] == calls,
                          f"{where}: {s.points['grad']} gradient points in "
                          f"{s.calls['grad']} calls, expected {grads * n} in {calls}")
            ledger.expect(s.points["value"] == 0,
                          f"{where}: {s.points['value']} value points, expected 0")


def check_negative_control(ledger: Ledger, reference) -> None:
    """A corrupted histogram must be told apart from the reference."""
    stats = reference[0]
    hist = dict(stats.count_histogram)
    k = min(hist)
    hist[k] += 1
    corrupted = [dataclasses.replace(stats, count_histogram=hist)] + list(reference[1:])
    ledger.expect(histograms(corrupted) != histograms(reference),
                  "negative control: a corrupted histogram compared equal")


# ---------------------------------------------------------------- mc-paper

class McPaper:
    name = "mc-paper"
    threads = (1, 2)

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.config = bench_mod.default_config()
        self.config["seed"] = seed
        self.work_dir = work_dir
        self.units = self.config["n_samples"] * len(self.config["methods"])
        self.reference: dict[str, bytes] | None = None

    def argv(self, threads: int, out: str) -> list[str]:
        return ["bench", "--out-dir", str(self.work_dir / out), "--seed", str(self.seed),
                "--threads", str(threads), "--json"]

    def call(self, ledger: Ledger, threads: int, out: str | None = None) -> bool:
        out = out or f"t{threads}"
        ok, _ = ledger.cli(f"bench --threads {threads}", self.argv(threads, out))
        return ok

    def warm_up(self, ledger: Ledger) -> None:
        if self.call(ledger, 1, "reference"):
            self.reference = read_dir(self.work_dir / "reference")
            self.check_statistics(ledger)
        self.check_prefix(ledger)

    def check(self, ledger: Ledger, threads: int, out: str | None = None) -> None:
        """Every CSV equals the reference run's byte for byte."""
        if self.reference is None:
            return
        got = read_dir(self.work_dir / (out or f"t{threads}"))
        ledger.expect(got == self.reference,
                      f"bench CSVs at --threads {threads} ({out or 'timed'}) differ "
                      "from the reference run")

    def check_statistics(self, ledger: Ledger) -> None:
        rows = {}
        with open(self.work_dir / "reference" / "summary.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                rows[row["label"]] = row
        ledger.expect(set(rows) == set(SHORT), f"summary labels {sorted(rows)}")
        if set(rows) != set(SHORT):
            return
        for label, (mean_t, median_t) in TARGETS.items():
            mean, median = float(rows[label]["mean"]), int(rows[label]["median"])
            ledger.expect(abs(mean - mean_t) <= 0.5 and abs(median - median_t) <= 1,
                          f"{label}: mean {mean} / median {median} vs target "
                          f"{mean_t} / {median_t}")
        ledger.expect(all(int(r["flagged"]) == 0 for r in rows.values()),
                      "flagged samples on the default config")
        mean = {label: float(r["mean"]) for label, r in rows.items()}
        ledger.expect(mean["alpha-armijo"] < mean["alpha=2/L"]
                      and mean["alpha-armijo"] < mean["alpha=2/(m+L)"]
                      and mean["s-armijo"] < mean["s=sqrt(2/L)"],
                      f"Armijo ordering of the means: {mean}")

    def check_prefix(self, ledger: Ledger) -> None:
        """The first PREFIX draws of the seeded x0 sequence give the same
        counts in the vectorized engine as in gd_run/gsgd_run per sample."""
        f = oscillatory(M, L)
        spec = mc_spec(self.seed, PREFIX)
        ok, stats = ledger.call("run_monte_carlo (prefix)", run_monte_carlo, f, spec, threads=1)
        if not ok:
            return
        x0 = np.random.default_rng(self.seed).uniform(X0_LOW, X0_HIGH, PREFIX)
        stops = [GradNorm(TOL), MaxIter(spec.max_iter)]
        for method, stat in zip(spec.methods, stats):
            runner = gd_run if method.kind == "gd" else gsgd_run
            hist: dict[int, int] = {}
            for x in x0:
                ok, trace = ledger.call(f"{runner.__name__} (prefix reference)",
                                        runner, f, np.array([x]), method.schedule, stops)
                if not ok:
                    return
                k = (trace.iterations + 1 if trace.termination is Termination.GRAD_NORM_MET
                     else spec.max_iter)
                hist[k] = hist.get(k, 0) + 1
            ledger.expect(stat.count_histogram == hist,
                          f"{method.label}: vectorized prefix histogram differs from "
                          "the per-sample reference")

    def traced(self, ledger: Ledger, tracer: Tracer) -> dict:
        t0 = time.perf_counter()
        self.call(ledger, 1, "untraced")
        untraced = time.perf_counter() - t0
        original = bench_mod.run_monte_carlo

        def per_method(f, spec, threads=None):
            fc = counting_copy(f, tracer)
            out = []
            for method in spec.methods:
                with tracer.span("bench.method", label=method.label, threads=threads,
                                 n=spec.n_samples) as s:
                    stats = original(fc, dataclasses.replace(spec, methods=(method,)),
                                     threads=threads)
                s.attrs["stats"] = stats[0]
                out.extend(stats)
            return out

        calls = {}
        with patched(
            (bench_mod, "run_monte_carlo", per_method),
            (bench_mod, "export_histogram",
             spanned(tracer, "cli.bench.export", bench_mod.export_histogram)),
            (bench_mod, "write_summary_csv",
             spanned(tracer, "cli.bench.export", bench_mod.write_summary_csv)),
        ):
            for threads in (1, 2):
                with tracer.span("cli.bench", threads=threads) as calls[threads]:
                    self.call(ledger, threads, f"traced{threads}")
        self.check(ledger, 1, "untraced")
        for threads in (1, 2):
            self.check(ledger, threads, f"traced{threads}")

        metrics = {f"trace.{self.name}.overhead_s": (calls[1].duration - untraced, "s")}
        by_method = {(s.attrs["label"], s.attrs["threads"]): s
                     for s in tracer.named("bench.method")}
        for label, m in SHORT.items():
            one, two = by_method.get((label, 1)), by_method.get((label, 2))
            if one is None or two is None or "stats" not in one.attrs:
                continue
            n = one.attrs["n"]
            stats = one.attrs["stats"]
            oracle_calls = one.calls["grad"] + one.calls["value"]
            metrics.update({
                f"bench.{m}.us_per_sample_run": (one.duration / n * 1e6, "us"),
                f"bench.{m}.self_s": (one.self_s, "s"),
                f"bench.{m}.iterations_per_sample": (stats.mean, "count"),
                f"bench.{m}.scaling_eff.threads2": (one.duration / (2 * two.duration), "ratio"),
                f"functions.{m}.oracle_s": (one.oracle_s, "s"),
                f"functions.{m}.grad_evals_per_sample": (one.points["grad"] / n, "count"),
                f"functions.{m}.points_per_call": (
                    (one.points["grad"] + one.points["value"]) / oracle_calls, "count"),
            })
            if m in ARMIJO:
                # One accepted trial per update; every other value point is
                # f(x) at the start of an update or a trial.
                updates = updates_total(stats)
                metrics[f"bench.{m}.accept_ratio"] = (
                    updates / (one.points["value"] - updates), "ratio")
                metrics[f"functions.{m}.value_evals_per_sample"] = (
                    one.points["value"] / n, "count")
        metrics["cli.bench.export_s"] = (
            sum(s.duration for s in calls[1].children if s.name == "cli.bench.export"), "s")
        return metrics


# --------------------------------------------------------------- mc-custom

class McCustom:
    name = "mc-custom"
    threads = (1,)

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.f = custom_oscillatory()
        self.spec = mc_spec(seed, CUSTOM_SAMPLES)
        self.units = self.spec.n_samples * len(self.spec.methods)
        self.config = {"function": self.f.name, "m": M, "L": L,
                       "n_samples": self.spec.n_samples, "x0_low": X0_LOW,
                       "x0_high": X0_HIGH, "seed": seed, "tol": TOL,
                       "methods": list(SHORT)}
        self.reference = None
        self.last = None

    def call(self, ledger: Ledger, threads: int) -> bool:
        ok, self.last = ledger.call(f"run_monte_carlo custom threads={threads}",
                                    run_monte_carlo, self.f, self.spec, threads=threads)
        return ok

    def warm_up(self, ledger: Ledger) -> None:
        ok, stats = ledger.call("run_monte_carlo built-in reference", run_monte_carlo,
                                oscillatory(M, L), self.spec, threads=1)
        if ok:
            self.reference = histograms(stats)
            check_negative_control(ledger, stats)
        if self.call(ledger, 1):
            self.check(ledger, 1)

    def check(self, ledger: Ledger, threads: int) -> None:
        """Histograms and flagged counts equal the built-in's on the same spec."""
        if self.reference is None or self.last is None:
            return
        ledger.expect(histograms(self.last) == self.reference,
                      f"custom-objective histograms at threads={threads} differ from "
                      "the built-in oscillatory")

    def traced(self, ledger: Ledger, tracer: Tracer) -> dict:
        t0 = time.perf_counter()
        self.call(ledger, 1)
        untraced = time.perf_counter() - t0
        self.check(ledger, 1)
        fc = counting_copy(self.f, tracer)
        traced_stats = []
        with tracer.span("mc-custom") as whole:
            for method in self.spec.methods:
                with tracer.span("optim.method", label=method.label) as s:
                    ok, stats = ledger.call(
                        f"run_monte_carlo custom {method.label}", run_monte_carlo, fc,
                        dataclasses.replace(self.spec, methods=(method,)), threads=1)
                if ok:
                    s.attrs["stats"] = stats[0]
                    traced_stats.extend(stats)
        self.last = traced_stats
        self.check(ledger, 1)

        metrics = {f"trace.{self.name}.overhead_s": (whole.duration - untraced, "s")}
        n = self.spec.n_samples
        for s in tracer.named("optim.method"):
            if "stats" not in s.attrs:
                continue
            m = SHORT[s.attrs["label"]]
            metrics.update({
                f"optim.{m}.us_per_iter": (
                    s.duration / updates_total(s.attrs["stats"]) * 1e6, "us"),
                f"optim.{m}.self_s": (s.self_s, "s"),
                f"functions.custom.{m}.grad_evals_per_sample": (s.points["grad"] / n, "count"),
            })
            if m in ARMIJO:
                metrics[f"functions.custom.{m}.value_evals_per_sample"] = (
                    s.points["value"] / n, "count")
        return metrics


# -------------------------------------------------------------- verify-all

def verify_seeds(seed: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.choice(VERIFY_SEED_RANGE, VERIFY_BLOCK, replace=False)]


class VerifyAll:
    name = "verify-all"
    threads = (1,)

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.block = verify_seeds(seed)
        self.config = {"suite": "all", "verify_seeds": self.block}
        self.next = 0
        self.last = ""

    def argv(self, verify_seed: int) -> list[str]:
        return ["verify", "--suite", "all", "--seed", str(verify_seed), "--json"]

    def call(self, ledger: Ledger, threads: int = 1, verify_seed: int | None = None) -> bool:
        """One verify call (verify has no thread setting). Without an
        explicit seed, successive calls walk the seed block in order."""
        if verify_seed is None:
            verify_seed = self.block[self.next % len(self.block)]
            self.next += 1
        ok, self.last = ledger.cli(f"verify --seed {verify_seed}", self.argv(verify_seed))
        if not ok:
            self.last = ""
        return ok

    def warm_up(self, ledger: Ledger) -> None:
        if self.call(ledger, 1, self.block[0]):
            self.check(ledger, 1)

    def check(self, ledger: Ledger, threads: int) -> None:
        """Every suite and every check in the JSON report has ``passed``."""
        if not self.last:
            return
        reports = json.loads(self.last)
        ledger.expect(
            len(reports) == 4 and all(
                r["passed"] and all(c["passed"] for c in r["checks"]) for r in reports),
            "verify --suite all reported a failing check")

    def traced(self, ledger: Ledger, tracer: Tracer) -> dict:
        seed = self.block[0]
        t0 = time.perf_counter()
        self.call(ledger, 1, seed)
        untraced = time.perf_counter() - t0
        self.check(ledger, 1)

        def counted(factory):
            return lambda *args: counting_copy(factory(*args), tracer)

        def traced_operator(factory):
            def make(*args, **kwargs):
                apply = factory(*args, **kwargs)
                return spanned(tracer, "interconnect.delta_bar_operator", apply,
                               lambda u: {"samples": u.horizon})
            return make

        replacements = [
            (verify_mod, name, counted(getattr(verify_mod, name)))
            for name in ("oscillatory", "quadratic", "diag_quadratic")
        ]
        replacements += [
            (verify_mod, f"suite_{suite}",
             spanned(tracer, f"verify.{suite}", getattr(verify_mod, f"suite_{suite}")))
            for suite in ("sector", "passivity", "loop", "counterexample")
        ]
        replacements += [
            (verify_mod, "central_difference_gradient",
             spanned(tracer, "functions.central_difference_gradient",
                     verify_mod.central_difference_gradient)),
            (verify_mod, "empirical_passivity_margin",
             spanned(tracer, "passivity.empirical_passivity_margin",
                     verify_mod.empirical_passivity_margin,
                     lambda op, indices, inputs, T: {"inputs": len(inputs)})),
            (verify_mod, "delta_bar_operator",
             traced_operator(verify_mod.delta_bar_operator)),
            (verify_mod, "certify_step_size",
             spanned(tracer, "passivity.certify_step_size", verify_mod.certify_step_size)),
            (verify_mod, "gd_passivity_certificate",
             spanned(tracer, "lti.gd_passivity_certificate",
                     verify_mod.gd_passivity_certificate)),
            (passivity_mod, "gd_passivity_certificate",
             spanned(tracer, "lti.gd_passivity_certificate",
                     passivity_mod.gd_passivity_certificate)),
            (interconnect_mod, "evaluate_delta_bar",
             spanned(tracer, "interconnect.evaluate_delta_bar",
                     interconnect_mod.evaluate_delta_bar)),
            (interconnect_mod, "run_transformed",
             spanned(tracer, "interconnect.run_transformed", interconnect_mod.run_transformed,
                     lambda f, alpha, d, x0, steps, *a, **k: {"f": f.name, "steps": steps})),
        ]
        with patched(*replacements):
            with tracer.span("cli.verify") as whole:
                self.call(ledger, 1, seed)
        self.check(ledger, 1)

        # verify's sector suite scans with a private copy of the membership
        # scan, so the public one is timed on the same built-ins and sizes.
        scan_points = 0
        with tracer.span("functions.sector_membership_scan") as scan:
            for f in (oscillatory(M, L), quadratic(L), diag_quadratic(M, L)):
                n = 100_000 if f.dim == 1 else 10_000
                ok, _ = ledger.call(f"sector_membership_scan {f.name}",
                                    sector_membership_scan, f, X0_LOW, X0_HIGH, n, seed)
                if ok:
                    scan_points += n

        def per(name, key=None):
            spans = tracer.named(name)
            total = sum(s.duration for s in spans)
            count = sum(s.attrs[key] for s in spans) if key else len(spans)
            return total / count if count else float("nan"), spans

        metrics = {f"trace.{self.name}.overhead_s": (whole.duration - untraced, "s")}
        for suite in ("sector", "passivity", "loop", "counterexample"):
            spans = tracer.named(f"verify.{suite}")
            if spans:
                metrics[f"verify.{suite}.wall_s"] = (spans[0].duration, "s")
        us_sample, _ = per("interconnect.delta_bar_operator", "samples")
        metrics["interconnect.delta_bar_operator.us_per_sample"] = (us_sample * 1e6, "us")
        _, evals = per("interconnect.evaluate_delta_bar")
        if evals:
            metrics["interconnect.evaluate_delta_bar.grad_evals_per_eval"] = (
                sum(s.total_points("grad") for s in evals) / len(evals), "count")
        loops = tracer.named("interconnect.run_transformed")
        for fname in ("oscillatory", "quadratic", "diag-quadratic"):
            mine = [s for s in loops if s.attrs["f"] == fname]
            steps = sum(s.attrs["steps"] for s in mine)
            if not steps:
                continue
            metrics[f"interconnect.run_transformed.{fname}.us_per_step"] = (
                sum(s.duration for s in mine) / steps * 1e6, "us")
            if fname == "oscillatory":
                metrics["interconnect.run_transformed.oscillatory.grad_evals_per_step"] = (
                    sum(s.total_points("grad") for s in mine) / steps, "count")
        us_input, _ = per("passivity.empirical_passivity_margin", "inputs")
        metrics["passivity.empirical_passivity_margin.us_per_input"] = (us_input * 1e6, "us")
        for name in ("passivity.certify_step_size", "lti.gd_passivity_certificate",
                     "functions.central_difference_gradient"):
            us_call, _ = per(name)
            metrics[f"{name}.us_per_call"] = (us_call * 1e6, "us")
        if scan_points:
            metrics["functions.sector_membership_scan.ns_per_point"] = (
                scan.duration / scan_points * 1e9, "ns")
        return metrics


WORKLOADS = {w.name: w for w in (McPaper, McCustom, VerifyAll)}


def provenance(workload, configs: dict, threads) -> dict:
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "config": configs,
        "passive_gd": passive_gd.__version__,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "threads": list(threads),
    }
