"""Named verification suites behind the ``verify`` CLI subcommand.

Each suite re-derives a claimed property numerically (sector membership,
empirical passivity margins, loop-transformation equivalence, and the
oscillating-coordinate stopping behavior) and reports the observed
margins against fixed thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .functions import (
    SectorFunction,
    _cocoercivity_block,
    central_difference_gradient,
    diag_quadratic,
    oscillatory,
    quadratic,
    row_gradient,
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


def _normalized_residual_min(f: SectorFunction, seed: int, n: int) -> float:
    points = np.random.default_rng(seed).uniform(-1e5, 1e5, (n, f.dim))
    residual, scale = _cocoercivity_block(f, points)
    return float(np.min(residual / scale))


def suite_sector(seed: int) -> SuiteReport:
    report = SuiteReport("sector")
    for f in _builtins():
        margin = _normalized_residual_min(f, seed, 100_000 if f.dim == 1 else 10_000)
        report.add_min(f"{f.name}: normalized co-coercivity residual", margin, -1e-9)
    rng = np.random.default_rng(seed + 1)
    for f in _builtins():
        worst = 0.0
        for _ in range(1000):
            x = rng.uniform(-10.0, 10.0, f.dim)
            g = np.asarray(f.gradient(x), dtype=float)
            g_fd = central_difference_gradient(f, x)
            err = np.linalg.norm(g - g_fd) / (1.0 + np.linalg.norm(g))
            worst = max(worst, float(err))
        report.add_max(f"{f.name}: gradient vs finite differences", worst, 1e-6)
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

    def nabla_op(u: Signal) -> Signal:
        return Signal(grad(u.samples + f.minimizer))

    margin = empirical_passivity_margin(nabla_op, nabla_indices(m, L), inputs, 50)
    report.add_min("shifted gradient margin (100 inputs, T=50)", margin, -1e-9 * (1 + L))

    bar = transformed_indices(m, L, d)
    margin_bar = empirical_passivity_margin(
        delta_bar_operator(f, d), bar, inputs, 50
    )
    report.add_min(
        "transformed nonlinearity margin (d=0.005)", margin_bar, -1e-9 * (1 + L)
    )

    ident = PassivityIndices(0.0, 0.5, 0.5, Classification.VSP)
    margin_id = empirical_passivity_margin(lambda u: u, ident, inputs, 50)
    report.add_max("identity operator margin (exact zero)", abs(margin_id), 1e-12)
    margin_neg = empirical_passivity_margin(
        lambda u: Signal(-u.samples), ident, inputs, 50
    )
    report.add_max("negation operator margin (must be negative)", margin_neg, -1e-3)

    grid_ok = 1.0
    for alpha in np.geomspace(1e-3, 1.0, 12):
        for ratio in np.linspace(0.1, 2.0, 13):
            feasible = gd_passivity_certificate(alpha, ratio * alpha).feasible
            if feasible != (ratio >= 0.5):
                grid_ok = 0.0
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
    for f in _builtins():
        worst = 0.0
        for _ in range(8):
            alpha = float(rng.uniform(0.05, 0.95)) * 2.0 / f.L
            x0 = rng.uniform(-50.0, 50.0, f.dim)
            dev = loop_equivalence_report(f, alpha, x0, 100)
            worst = max(worst, dev / (1.0 + float(np.linalg.norm(x0))))
        report.add_max(f"{f.name}: loop vs direct recursion", worst, 1e-9)
    return report


def suite_counterexample(seed: int) -> SuiteReport:
    report = SuiteReport("counterexample")
    f = diag_quadratic(1.0, 100.0)
    x0 = np.array([1.0, 1.0])
    full = gd_run(f, x0, FixedAlpha(0.02), [MaxIter(2000)])
    x2 = full.iterates.samples[:, 1]
    report.add_max("oscillating coordinate drift max| |x2|-1 |",
                   float(np.max(np.abs(np.abs(x2) - 1.0))), 1e-12)
    grad_norms = np.linalg.norm(full.gradients.samples, axis=1)
    report.add_min("smallest gradient norm along run", float(np.min(grad_norms)), 1e-12)
    combined = full.iterates.samples - 0.01 * full.gradients.samples
    dev = np.linalg.norm(combined - f.minimizer, axis=1)
    report.add_max("||x - D grad - x*|| at k=2000", float(dev[-1]), 1e-6)
    first_hit = int(np.argmax(dev <= 1e-6)) if np.any(dev <= 1e-6) else -1
    report.add_min("first k with combined signal <= 1e-6", float(first_hit), 0.0)
    # The combined signal is (0.99*0.98^k, 0), so its energy is the
    # geometric sum 0.99^2/(1 - 0.98^2) = 24.75.
    energy = float(np.sum(dev * dev))
    report.add_max("combined signal energy error", abs(energy - 24.75), 1e-8)

    paired = gd_run(
        f, x0, FixedAlpha(0.02), [GradNorm(1e-12), PairedGrad(1e-10), MaxIter(2000)]
    )
    fired = paired.termination is Termination.PAIRED_GRAD_MET
    report.add_min("paired-gradient rule fired", 1.0 if fired else 0.0, 1.0)
    report.add_max("paired-gradient trigger iteration", float(paired.iterations), 2000.0)
    return report


def run_suite(name: str, seed: int = 0) -> list[SuiteReport]:
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
    raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
