"""A NaN anywhere in a verify fold fails its check instead of being skipped."""

import dataclasses
import math

import numpy as np

import passive_gd.interconnect as interconnect
import passive_gd.verify as verify
from passive_gd.functions import quadratic
from passive_gd.signals import Signal


def _failed_labels(report):
    return [c.label for c in report.checks if not c.passed]


def test_a_nan_loop_deviation_fails_the_loop_check(monkeypatch):
    # One block call of 8 draws per built-in; a NaN deviation for the
    # third oscillatory draw fails the oscillatory check alone.
    calls = []

    def third_draw_nan(f, alpha, x0, steps):
        calls.append((f.name, alpha.shape, x0.shape, steps))
        devs = np.zeros(len(alpha))
        if f.name == "oscillatory":
            devs[2] = math.nan
        return devs

    monkeypatch.setattr(verify, "loop_equivalence_report", third_draw_nan)
    report = verify.suite_loop(0)
    assert calls == [("oscillatory", (8,), (8, 1), 100), ("quadratic", (8,), (8, 1), 100),
                     ("diag-quadratic", (8,), (8, 2), 100)]
    assert _failed_labels(report) == ["oscillatory: loop vs direct recursion"]
    assert math.isnan(report.checks[0].value)
    assert not report.passed


def test_a_nan_state_makes_the_loop_deviation_nan(monkeypatch):
    real = interconnect.run_transformed

    def nan_state(*args):
        trace = real(*args)
        states = trace.states.samples.copy()
        states[4] = np.nan
        return dataclasses.replace(trace, states=Signal(states))

    monkeypatch.setattr(interconnect, "run_transformed", nan_state)
    assert math.isnan(interconnect.loop_equivalence_report(quadratic(100.0), 0.01, [1.0], 10))


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
