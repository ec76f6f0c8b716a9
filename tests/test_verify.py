"""A NaN anywhere in a verify fold fails its check instead of being skipped,
each suite's checks fail on their negative control, and the counterexample
suite's trajectory is one uninterrupted run."""

import dataclasses
import math

import numpy as np

import passive_gd.interconnect as interconnect
import passive_gd.verify as verify
from passive_gd.functions import diag_quadratic, quadratic
from passive_gd.interconnect import LoopTrace
from passive_gd.optim import FixedAlpha, MaxIter, PairedGrad, gd_run
from passive_gd.signals import Signal


def _failed_labels(report):
    return [c.label for c in report.checks if not c.passed]


def test_a_nan_loop_deviation_fails_the_loop_check(monkeypatch):
    # One block call of 8 draws per built-in under 100 steps of shared
    # inputs; a NaN deviation for the third oscillatory draw, or a NaN
    # residual for the fifth quadratic one, fails that check alone.
    calls = []

    def one_nan(f, alpha, x0, steps, r1, r2):
        calls.append((f.name, alpha.shape, x0.shape, steps, r1.shape, r2.shape))
        devs, residuals = np.zeros(len(alpha)), np.zeros(len(alpha))
        if f.name == "oscillatory":
            devs[2] = math.nan
        if f.name == "quadratic":
            residuals[4] = math.nan
        return devs, residuals

    monkeypatch.setattr(verify, "loop_equivalence_report", one_nan)
    report = verify.suite_loop(0)
    assert calls == [("oscillatory", (8,), (8, 1), 100, (100, 1), (100, 1)),
                     ("quadratic", (8,), (8, 1), 100, (100, 1), (100, 1)),
                     ("diag-quadratic", (8,), (8, 2), 100, (100, 2), (100, 2))]
    assert _failed_labels(report) == ["oscillatory: transformed vs untransformed loop with inputs",
                                      "quadratic: implicit-relation residual"]
    assert math.isnan(report.checks[0].value)
    assert not report.passed


def test_a_nan_state_makes_the_loop_deviation_nan(monkeypatch):
    # A NaN in the transformed row's state or output makes that row's
    # deviation or residual NaN.
    real = interconnect.run_transformed

    def nan_in(name):
        def run(*args):
            trace = real(*args)
            a = getattr(trace, name).copy()
            a[4, 0] = np.nan
            return dataclasses.replace(trace, **{name: a})
        return run

    f = quadratic(100.0)
    monkeypatch.setattr(interconnect, "run_transformed", nan_in("states"))
    dev, residual = interconnect.loop_equivalence_report(f, 0.01, [1.0], 10)
    assert math.isnan(dev) and residual == 0.0
    monkeypatch.setattr(interconnect, "run_transformed", nan_in("y2"))
    dev, residual = interconnect.loop_equivalence_report(f, 0.01, [1.0], 10)
    assert dev == 0.0 and math.isnan(residual)


_LOOP_LABELS = ["oscillatory", "quadratic", "diag-quadratic"]


def test_the_residual_check_fails_on_an_output_off_by_one_part_in_1e9(monkeypatch):
    # Negative control: every loop output y2 scaled by 1 + 1e-9 no longer
    # solves y2 = grad_shift(u2 + d*y2); the states, and so the state
    # check, are untouched.
    real = interconnect.run_transformed

    def perturbed(*args):
        trace = real(*args)
        return dataclasses.replace(trace, y2=trace.y2 * (1.0 + 1e-9))

    monkeypatch.setattr(interconnect, "run_transformed", perturbed)
    report = verify.suite_loop(0)
    assert _failed_labels(report) == [f"{name}: implicit-relation residual"
                                      for name in _LOOP_LABELS]


def test_the_input_check_fails_when_the_loop_drops_the_add_back(monkeypatch):
    # Negative control: a loop whose gradient argument is v = r2_bar + C xi,
    # without the + d*r1 that the transformation adds back, runs each row as
    # the correct loop under r2 - d*r1.
    real = interconnect.run_transformed

    def no_add_back(f, alpha, d, x0, steps, r1, r2):
        rows = [real(f, a, v, x, steps, r1, r2 - v * r1)
                for a, v, x in zip(alpha, d, x0)]
        return LoopTrace(*(np.stack([getattr(t, fl.name) for t in rows], axis=1)
                           for fl in dataclasses.fields(LoopTrace)))

    monkeypatch.setattr(interconnect, "run_transformed", no_add_back)
    report = verify.suite_loop(0)
    assert _failed_labels(report) == [
        f"{name}: transformed vs untransformed loop with inputs" for name in _LOOP_LABELS
    ]


def test_a_nan_finite_difference_fails_the_sector_check(monkeypatch):
    real = verify.central_difference_gradient

    def one_nan_row(f, x):
        g = real(f, x)
        if f.name == "diag-quadratic":
            g[17, 1] = np.nan
        return g

    monkeypatch.setattr(verify, "central_difference_gradient", one_nan_row)
    report = verify.suite_sector(0)
    assert _failed_labels(report) == ["diag-quadratic: gradient vs finite differences"]


def test_a_nan_margin_fails_the_passivity_check(monkeypatch):
    real = verify.delta_bar_operator

    def nan_operator(f, d):
        apply = real(f, d)

        def with_nan(u):
            y = apply(u).samples.copy()
            y[-1] = np.nan
            return Signal(y)

        return with_nan

    monkeypatch.setattr(verify, "delta_bar_operator", nan_operator)
    report = verify.suite_passivity(0)
    assert _failed_labels(report) == ["transformed nonlinearity margin (d=0.005)"]


_TRAJECTORY_LABELS = [
    "oscillating coordinate drift max| |x2|-1 |",
    "smallest gradient norm along run",
    "||x - D grad - x*|| at k=2000",
    "first k with combined signal <= 1e-6",
    "combined signal energy error",
]


def _trajectory_values(iterates, gradients):
    """The counterexample suite's five trajectory checks, as it computes them."""
    dev = np.linalg.norm(iterates - 0.01 * gradients, axis=1)
    return [
        float(np.max(np.abs(np.abs(iterates[:, 1]) - 1.0))),
        float(np.min(np.linalg.norm(gradients, axis=1))),
        float(dev[-1]),
        float(np.argmax(dev <= 1e-6)),
        abs(float(np.sum(dev * dev)) - 24.75),
    ]


def test_the_counterexample_trajectory_is_one_uninterrupted_run():
    # The paired run stops at k = 605 and its continuation runs to
    # k = 2000; joined, they are the uninterrupted run bit for bit.
    f = diag_quadratic(1.0, 100.0)
    full = gd_run(f, [1.0, 1.0], FixedAlpha(0.02), [MaxIter(2000)])
    paired, iterates, gradients = verify._counterexample_run(f, np.array([1.0, 1.0]))
    assert paired.iterations == 605
    assert iterates.shape == gradients.shape == (2001, 2)
    assert np.array_equal(iterates, full.iterates)
    assert np.array_equal(gradients, full.gradients)
    checks = verify.suite_counterexample(0).checks
    assert [(c.label, c.value) for c in checks] == [
        *zip(_TRAJECTORY_LABELS, _trajectory_values(full.iterates,
                                                    full.gradients)),
        ("paired-gradient rule fired", 1.0),
        ("paired-gradient trigger iteration", 605.0),
    ]
    assert all(c.passed for c in checks)


def test_the_paired_check_fails_when_the_rule_never_fires(monkeypatch):
    # Negative control: at a paired tolerance that never fires, the paired
    # run reaches the cap, so it is the whole trajectory and is not
    # continued. Only the rule's own check fails.
    unpatched = {c.label: c.value for c in verify.suite_counterexample(0).checks}
    runs = []

    def recording(*args):
        runs.append(gd_run(*args))
        return runs[-1]

    monkeypatch.setattr(verify, "PairedGrad", lambda tol: PairedGrad(1e-300))
    monkeypatch.setattr(verify, "gd_run", recording)
    report = verify.suite_counterexample(0)
    assert [r.iterations for r in runs] == [2000]
    assert _failed_labels(report) == ["paired-gradient rule fired"]
    values = {c.label: c.value for c in report.checks}
    assert [values[label] for label in _TRAJECTORY_LABELS] == [
        unpatched[label] for label in _TRAJECTORY_LABELS]
    assert values["paired-gradient trigger iteration"] == 2000.0
