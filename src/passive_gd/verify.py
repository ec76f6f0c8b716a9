"""Named verification suites behind the ``verify`` CLI subcommand.

Each suite re-derives a claimed property numerically (sector membership,
empirical passivity margins, loop-transformation equivalence, and the
oscillating-coordinate stopping behavior) and reports the observed
margins against fixed thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError, _count
from .functions import (
    SectorFunction,
    _row_norms,
    central_difference_gradient,
    diag_quadratic,
    oscillatory,
    quadratic,
    row_gradient,
    sector_membership_scan,
)
from .interconnect import delta_bar_operator, loop_equivalence_report
from .lti import gd_passivity_certificate
from .optim import FixedAlpha, GradNorm, MaxIter, PairedGrad, Termination, gd_run
from .passivity import (
    Classification,
    PassivityIndices,
    Verdict,
    certify_step_size,
    empirical_passivity_margin,
    nabla_indices,
    transformed_indices,
)
from .signals import Signal, random_unit_energy

__all__ = ["CheckLine", "SuiteReport", "run_suite", "SUITE_NAMES"]

SUITE_NAMES = ("sector", "passivity", "loop", "counterexample", "all")


@dataclass(frozen=True)
class CheckLine:
    label: str
    value: float
    threshold: float
    passed: bool


@dataclass
class SuiteReport:
    name: str
    checks: list[CheckLine] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add_max(self, label: str, value: float, threshold: float):
        """Record a check that passes when value <= threshold."""
        self.checks.append(CheckLine(label, value, threshold, value <= threshold))

    def add_min(self, label: str, value: float, threshold: float):
        """Record a check that passes when value >= threshold."""
        self.checks.append(CheckLine(label, value, threshold, value >= threshold))

    def as_dict(self) -> dict:
        return {
            "suite": self.name,
            "passed": self.passed,
            "checks": [
                {
                    "label": c.label,
                    "value": c.value,
                    "threshold": c.threshold,
                    "passed": c.passed,
                }
                for c in self.checks
            ],
        }


def _builtins() -> list[SectorFunction]:
    return [oscillatory(1.0, 100.0), quadratic(100.0), diag_quadratic(1.0, 100.0)]


def suite_sector(seed: int) -> SuiteReport:
    report = SuiteReport("sector")
    for f in _builtins():
        n = 100_000 if f.dim == 1 else 10_000
        margin = sector_membership_scan(f, -1e5, 1e5, n, seed)[0]
        report.add_min(f"{f.name}: normalized co-coercivity residual", margin, -1e-9)
    rng = np.random.default_rng(seed + 1)
    for f in _builtins():
        x = rng.uniform(-10.0, 10.0, (1000, f.dim))
        g_fd = central_difference_gradient(f, x)
        if f.dim == 1:
            x, g_fd = x[:, 0], g_fd[:, 0]
        g = row_gradient(f)(x)
        err = _row_norms(g - g_fd) / (1.0 + _row_norms(g))
        report.add_max(f"{f.name}: gradient vs finite differences", float(np.max(err)), 1e-6)
    # Non-convexity witness: a negative second difference of the oscillatory
    # objective near pi.
    f = oscillatory(1.0, 100.0)
    h = 1e-4
    second = (f.value([np.pi + h]) - 2 * f.value([np.pi]) + f.value([np.pi - h])) / h**2
    report.add_max("oscillatory: second difference at pi", second, 0.0)
    return report


def suite_passivity(seed: int) -> SuiteReport:
    report = SuiteReport("passivity")
    m, L, d = 1.0, 100.0, 0.005
    f = oscillatory(m, L)
    inputs = random_unit_energy(1, 50, 100, seed)

    grad = row_gradient(f)

    # The objective is one-dimensional, so the gradient takes flat samples.
    def nabla_op(u: Signal) -> Signal:
        return Signal(grad(u.samples[:, 0] + f.minimizer))

    margin = empirical_passivity_margin(nabla_op, nabla_indices(m, L), inputs, 50)
    report.add_min("shifted gradient margin (100 inputs, T=50)", margin, -1e-9 * (1 + L))

    bar = transformed_indices(m, L, d)
    margin_bar = empirical_passivity_margin(
        delta_bar_operator(f, d), bar, inputs, 50
    )
    report.add_min(
        "transformed nonlinearity margin (d=0.005)", margin_bar, -1e-9 * (1 + L)
    )

    ident = PassivityIndices(0.5, 0.5, Classification.VSP)
    margin_id = empirical_passivity_margin(lambda u: u, ident, inputs, 50)
    report.add_max("identity operator margin (exact zero)", abs(margin_id), 1e-12)
    margin_neg = empirical_passivity_margin(
        lambda u: Signal(-u.samples), ident, inputs, 50
    )
    report.add_max("negation operator margin (must be negative)", margin_neg, -1e-3)

    # Every (alpha, ratio) pair of the 12 x 13 grid, checked in one call.
    alpha = np.repeat(np.geomspace(1e-3, 1.0, 12), 13)
    ratio = np.tile(np.linspace(0.1, 2.0, 13), 12)
    feasible = [c.feasible for c in gd_passivity_certificate(alpha, ratio * alpha)]
    grid_ok = 1.0 if np.array_equal(feasible, ratio >= 0.5) else 0.0
    report.add_min("certificate grid agrees with d >= alpha/2", grid_ok, 1.0)

    verdicts = (
        certify_step_size(m, L, 0.01).verdict is Verdict.STRONG
        and certify_step_size(m, L, 0.02).verdict is Verdict.WEAK
        and certify_step_size(m, L, 0.021).verdict is Verdict.NONE
        and certify_step_size(5.0, 5.0, 0.4).verdict is Verdict.NONE
    )
    report.add_min("verdict boundary cases", 1.0 if verdicts else 0.0, 1.0)
    return report


def suite_loop(seed: int) -> SuiteReport:
    report = SuiteReport("loop")
    rng = np.random.default_rng(seed)
    # The inputs have their own stream, so each seed keeps its draws of
    # alpha and x0.
    inputs = np.random.default_rng([seed, 1])
    for f in _builtins():
        alpha, x0 = np.empty(8), np.empty((8, f.dim))
        for i in range(8):
            alpha[i] = float(rng.uniform(0.05, 0.95)) * 2.0 / f.L
            x0[i] = rng.uniform(-50.0, 50.0, f.dim)
        r1, r2 = (inputs.standard_normal((100, f.dim)) for _ in range(2))
        devs, residuals = loop_equivalence_report(f, alpha, x0, 100, r1, r2)
        # np.max, unlike max(), keeps a NaN, which fails the check. The
        # states' threshold leaves room for the direct map's gain, which
        # carries the rounding of v over the 100 steps.
        report.add_max(f"{f.name}: transformed vs untransformed loop with inputs",
                       float(np.max(devs / (1.0 + _row_norms(x0)))), 1e-9)
        report.add_max(f"{f.name}: implicit-relation residual",
                       float(np.max(residuals)), 1e-12)
    return report


def _counterexample_run(f: SectorFunction, x0):
    """The paired run at alpha = 0.02, and the iterates and gradients of its
    trajectory to k = 2000: the paired run continued from its last iterate,
    whose row the continuation repeats and the join drops. The engine
    recomputes grad f there, so the rows are the uninterrupted run's bit for bit.
    """
    paired = gd_run(
        f, x0, FixedAlpha(0.02), [GradNorm(1e-12), PairedGrad(1e-10), MaxIter(2000)]
    )
    iterates, gradients = paired.iterates, paired.gradients
    if paired.iterations < 2000:
        rest = gd_run(f, iterates[-1], FixedAlpha(0.02),
                      [MaxIter(2000 - paired.iterations)])
        iterates = np.concatenate([iterates, rest.iterates[1:]])
        gradients = np.concatenate([gradients, rest.gradients[1:]])
    return paired, iterates, gradients


def suite_counterexample(seed: int) -> SuiteReport:
    report = SuiteReport("counterexample")
    f = diag_quadratic(1.0, 100.0)
    paired, iterates, gradients = _counterexample_run(f, np.array([1.0, 1.0]))
    x2 = iterates[:, 1]
    report.add_max("oscillating coordinate drift max| |x2|-1 |",
                   float(np.max(np.abs(np.abs(x2) - 1.0))), 1e-12)
    grad_norms = np.linalg.norm(gradients, axis=1)
    report.add_min("smallest gradient norm along run", float(np.min(grad_norms)), 1e-12)
    combined = iterates - 0.01 * gradients
    dev = np.linalg.norm(combined - f.minimizer, axis=1)
    report.add_max("||x - D grad - x*|| at k=2000", float(dev[-1]), 1e-6)
    first_hit = int(np.argmax(dev <= 1e-6)) if np.any(dev <= 1e-6) else -1
    report.add_min("first k with combined signal <= 1e-6", float(first_hit), 0.0)
    # The combined signal is (0.99*0.98^k, 0), so its energy is the
    # geometric sum 0.99^2/(1 - 0.98^2) = 24.75.
    energy = float(np.sum(dev * dev))
    report.add_max("combined signal energy error", abs(energy - 24.75), 1e-8)

    fired = paired.termination is Termination.PAIRED_GRAD_MET
    report.add_min("paired-gradient rule fired", 1.0 if fired else 0.0, 1.0)
    report.add_max("paired-gradient trigger iteration", float(paired.iterations), 2000.0)
    return report


def run_suite(name: str, seed: int = 0) -> list[SuiteReport]:
    _count("seed", seed, 0)
    if name == "sector":
        return [suite_sector(seed)]
    if name == "passivity":
        return [suite_passivity(seed)]
    if name == "loop":
        return [suite_loop(seed)]
    if name == "counterexample":
        return [suite_counterexample(seed)]
    if name == "all":
        return [
            suite_sector(seed),
            suite_passivity(seed),
            suite_loop(seed),
            suite_counterexample(seed),
        ]
    raise InvalidParameterError(
        f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}"
    )
