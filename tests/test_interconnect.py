import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import brentq

import passive_gd.interconnect as interconnect
from passive_gd.errors import (
    ContractionError,
    ConvergenceError,
    DivergenceError,
    InvalidParameterError,
    ShapeError,
)
from passive_gd.functions import (
    SectorFunction,
    diag_quadratic,
    oscillatory,
    quadratic,
    row_gradient,
)
from passive_gd.interconnect import (
    LoopTrace,
    delta_bar_operator,
    evaluate_delta_bar,
    loop_equivalence_report,
    run_transformed,
)
from passive_gd.optim import FixedAlpha, MaxIter, gd_run
from passive_gd.signals import Signal
from passive_gd.verify import run_suite


def _row(trace, i):
    """Row ``i`` of a block trace, as the trace of a point."""
    return LoopTrace(*(getattr(trace, fl.name)[:, i] for fl in dataclasses.fields(trace)))


@pytest.mark.parametrize("shape", [(1,), (1, 1)])
def test_a_loop_copies_the_callers_initial_state(shape):
    # A (1,) start is a point and a (1, 1) start a block of one row; either
    # way the trace shares no memory with the caller's start, which stays
    # writable, and its arrays are read-only.
    x0 = np.ones(shape)
    alpha = 0.1 if len(shape) == 1 else np.array([0.1])
    trace = run_transformed(quadratic(1.0), alpha, np.multiply(alpha, 0.5), x0, 3)
    x0[...] = 3.0
    assert trace.states[0].reshape(-1).tolist() == [1.0]
    assert x0.flags.writeable
    for fl in dataclasses.fields(trace):
        a = getattr(trace, fl.name)
        assert not np.shares_memory(a, x0)
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_untransformed_one_step_convergence():
    # alpha = 1/L drives a quadratic to its minimizer in one step.
    trace = run_transformed(quadratic(100.0), 0.01, 0.0, np.array([1.0]), 3)
    assert_allclose(trace.states[:3], [[1.0], [0.0], [0.0]], atol=1e-15)


def test_untransformed_zero_equilibrium():
    trace = run_transformed(quadratic(100.0), 0.02, 0.0, np.zeros(1), 5)
    for a in (trace.u1, trace.y1, trace.u2, trace.y2):
        assert_allclose(a, np.zeros((5, 1)))
    assert_allclose(trace.states, np.zeros((6, 1)))


def test_untransformed_oscillation_at_double_step():
    trace = run_transformed(quadratic(100.0), 0.02, 0.0, np.array([1.0]), 6)
    expected = [[(-1.0) ** k] for k in range(7)]
    assert_allclose(trace.states, expected, atol=1e-14)


def test_untransformed_wiring_identities():
    # At d = 0 the controller is strictly proper: y1 = xi, u2 = r2 + y1,
    # u1 = r1 - y2 and y2 = grad f(u2 + x*).
    rng = np.random.default_rng(6)
    f = oscillatory(1.0, 100.0)
    r1, r2 = (rng.standard_normal((10, 1)) for _ in range(2))
    trace = run_transformed(f, 0.01, 0.0, rng.standard_normal(1), 10, r1, r2)
    assert_allclose(trace.u1, r1 - trace.y2, atol=1e-12)
    assert_allclose(trace.u2, r2 + trace.y1, atol=1e-12)
    assert np.array_equal(trace.y1, trace.states[:-1])
    for k in range(10):
        assert_allclose(trace.y2[k], f.gradient(trace.u2[k] + f.minimizer), atol=1e-12)


def test_delta_bar_zero_fixed_point():
    for f in (oscillatory(1.0, 100.0), quadratic(100.0)):
        y = evaluate_delta_bar(f, 0.005, np.zeros(f.dim))
        assert_allclose(y, np.zeros(f.dim), atol=1e-15)


def test_delta_bar_linear_closed_form():
    # y = 100(u + 0.005 y) has solution y = 200 u.
    y = evaluate_delta_bar(quadratic(100.0), 0.005, np.array([1.0]))
    assert y[0] == pytest.approx(200.0, rel=1e-11)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("u", [1e153, 1e200, 1e300])
def test_delta_bar_at_amplitudes_whose_squares_overflow(u):
    # Past |y| = 1.3e154 the iterates' squares overflow. The stopping test
    # compares largest entries, finite there, so every row iterates to the
    # fixed point y = l*u/(1 - d*l) rather than stopping after its first
    # update, with no warning; a small row solved in the same block keeps
    # its bits.
    d = 0.004
    y = evaluate_delta_bar(quadratic(100.0), d, np.array([[u], [1.0]]))
    assert y[0, 0] == pytest.approx(100.0 * u / (1.0 - d * 100.0), rel=1e-12)
    assert y[1, 0] == evaluate_delta_bar(quadratic(100.0), d, np.array([1.0]))[0]
    x = np.array([u, -u])
    curvature = np.array([1.0, 100.0])
    assert_allclose(evaluate_delta_bar(diag_quadratic(1.0, 100.0), d, x),
                    curvature * x / (1.0 - d * curvature), rtol=1e-12)


def test_delta_bar_against_bisection_oracle():
    f = oscillatory(1.0, 100.0)
    d = 0.005
    for u in (0.3, -0.7, 1.2):
        y = evaluate_delta_bar(f, d, np.array([u]))
        root = brentq(
            lambda t: t - f.gradient(np.array([u + d * t]))[0],
            -1000.0,
            1000.0,
            xtol=1e-13,
        )
        assert y[0] == pytest.approx(root, abs=1e-9)
        residual = abs(y[0] - f.gradient(np.array([u + d * y[0]]))[0])
        assert residual <= 1e-11


def test_delta_bar_contraction_violation():
    with pytest.raises(ContractionError):
        evaluate_delta_bar(quadratic(100.0), 0.01, np.array([1.0]))
    with pytest.raises(ContractionError):
        evaluate_delta_bar(quadratic(100.0), 0.02, np.array([1.0]))
    # A block takes one feedthrough for all its rows, refused as a point's is.
    for bad in (0.01, 0.02):
        with pytest.raises(ContractionError):
            evaluate_delta_bar(quadratic(100.0), bad, np.ones((3, 1)))
    for bad in (np.nan, -0.001, 0.0, np.inf):
        with pytest.raises(InvalidParameterError, match="feedthrough"):
            evaluate_delta_bar(quadratic(100.0), bad, np.ones((3, 1)))
    # One feedthrough per row is not taken.
    for d in (np.array([0.002, 0.004, 0.003]), np.array([0.002])):
        with pytest.raises(ShapeError, match="must be a scalar"):
            evaluate_delta_bar(quadratic(100.0), d, np.ones((len(d), 1)))


def test_delta_bar_iteration_count_bound():
    calls = {"n": 0}
    base = quadratic(50.0)

    def counting_gradient(x):
        calls["n"] += 1
        return 50.0 * np.asarray(x, dtype=float)

    f = SectorFunction(
        dim=1, m=50.0, L=50.0, minimizer=np.zeros(1),
        value=base.value, gradient=counting_gradient,
    )
    d = 0.01  # d*L = 0.5
    tol = 1e-12  # the solver's stopping tolerance
    calls["n"] = 0
    y = evaluate_delta_bar(f, d, np.array([2.0]))
    iterations = calls["n"] - 1  # first call produces the starting point
    y0 = abs(50.0 * 2.0)
    bound = int(np.ceil(np.log(tol / y0) / np.log(d * 50.0))) + 1
    assert iterations <= bound + 1
    assert y[0] == pytest.approx(200.0, rel=1e-11)


@pytest.mark.parametrize("f, d, u", [
    (quadratic(100.0), 0.005, [1e307]),
    (oscillatory(1.0, 100.0), 0.005, [1e307]),
])
def test_a_non_finite_iterate_ends_the_solve_at_once(f, d, u):
    # At u = 1e307 and d = 0.005, quadratic(100)'s fixed point 200*u is past
    # the double range, so its row is infinite, and oscillatory's row goes
    # NaN. The solve stops at the first iterate that is not finite, rather
    # than after its 1000-iteration budget or at an unconverged update, and
    # numpy does not warn.
    calls, gradient = [], f.elementwise_gradient

    def counting_gradient(x):
        calls.append(len(x))
        return gradient(x)

    counted = dataclasses.replace(f, elementwise_gradient=counting_gradient)
    with pytest.raises(ConvergenceError, match="iterate is not finite for 1 of 2 points"):
        evaluate_delta_bar(counted, d, np.array([u, np.ones(f.dim)]))
    # One call gives the starting point and one the first update.
    assert calls == [2, 2]


@pytest.mark.filterwarnings("error")
def test_a_fixed_point_with_finite_entries_is_found_at_any_amplitude():
    # Both entries of this fixed point are finite though its Euclidean norm
    # is not; the stopping test measures each row by its largest entry, so
    # the solve reaches it, and a small row solved in the same block keeps
    # its bits.
    f, d, curvature = diag_quadratic(1.0, 100.0), 0.001, np.array([1.0, 100.0])
    u = np.array([[1.3e308, 1.2e306], [1.0, 1.0]])
    y = evaluate_delta_bar(f, d, u)
    assert_allclose(y[0], curvature * u[0] / (1.0 - d * curvature), rtol=1e-12)
    assert np.array_equal(y[1], evaluate_delta_bar(f, d, u[1]))


def test_delta_bar_operator_applies_per_sample():
    f = quadratic(100.0)
    op = delta_bar_operator(f, 0.005)
    u = Signal(np.array([[1.0], [2.0], [-0.5]]))
    y = op(u)
    assert_allclose(y.samples, 200.0 * u.samples, rtol=1e-10)


@pytest.mark.parametrize("d, error", [(np.nan, InvalidParameterError),
                                      (0.0, InvalidParameterError),
                                      (0.01, ContractionError),
                                      (np.array([0.005, 0.005]), ShapeError)])
def test_delta_bar_operator_refuses_its_feedthrough_when_built(d, error):
    # The feedthrough is checked once, when the operator is made, not when
    # it is first applied: NaN, zero, the ISP boundary d = 1/L and a row of
    # feedthroughs are all refused before any signal exists.
    with pytest.raises(error):
        delta_bar_operator(quadratic(100.0), d)


_DELTA_BAR_FUNCTIONS = {"oscillatory": oscillatory(1.0, 100.0), "quadratic": quadratic(100.0)}


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    name=st.sampled_from(sorted(_DELTA_BAR_FUNCTIONS)),
    d=st.floats(1e-4, 0.0099),
    samples=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=40),
)
def test_delta_bar_operator_equals_per_sample_solves(name, d, samples):
    # One batched solve must reproduce every per-sample solve bit for bit;
    # if any sample fails to converge, the batched solve fails too.
    f = _DELTA_BAR_FUNCTIONS[name]
    u = Signal(np.array(samples))
    try:
        expected = np.array([evaluate_delta_bar(f, d, uk) for uk in u.samples])
    except ConvergenceError:
        with pytest.raises(ConvergenceError):
            delta_bar_operator(f, d)(u)
    else:
        assert np.array_equal(delta_bar_operator(f, d)(u).samples, expected)


def test_delta_bar_operator_nan_sample_raises():
    u = Signal(np.array([[0.1], [np.nan], [-0.2]]))
    with pytest.raises(ConvergenceError):
        delta_bar_operator(oscillatory(1.0, 100.0), 0.005)(u)


def test_delta_bar_operator_empty_signal():
    y = delta_bar_operator(quadratic(100.0), 0.005)(Signal(np.zeros((0, 1))))
    assert y.samples.shape == (0, 1)


def test_a_block_solve_with_a_nan_row_raises():
    # A NaN row never converges, so the block solve raises and counts it;
    # without it, each row is solved exactly as its one-row solve.
    f = oscillatory(1.0, 100.0)
    with pytest.raises(ConvergenceError, match="for 1 of 3 points"):
        evaluate_delta_bar(f, 0.005, np.array([[0.1], [np.nan], [-0.2]]))
    assert np.array_equal(
        evaluate_delta_bar(f, 0.005, np.array([[0.1], [-0.2]])),
        [evaluate_delta_bar(f, 0.005, [0.1]), evaluate_delta_bar(f, 0.005, [-0.2])],
    )


def test_run_transformed_boundary_trace_regression():
    # alpha = 2/L without a constant Hessian keeps the algebraic elimination
    # every step; the trace was recorded before the solvers were merged.
    trace = run_transformed(oscillatory(1.0, 100.0), 0.02, 0.01, np.array([3.0]), 6)
    assert trace.states[:, 0].tolist() == [
        3.0, -0.4491264239378059, -0.18855987769902993, -0.03310546687094704,
        -0.0007537593690365302, 6.9751220890807005e-06, -6.97993866956824e-08,
    ]
    assert trace.y2[:, 0].tolist() == [
        172.4563211968903, -13.028327311938797, -7.772720541404144,
        -1.6175853750955251, -0.03803672455628054, 0.00035224607378881915,
    ]
    assert trace.u2[:, 0].tolist() == [
        1.275436788031097, -0.3188431508184179, -0.11083267228498848,
        -0.016929613119991783, -0.00037339212347372474, 3.452661351192509e-06,
    ]


def test_run_transformed_matches_untransformed_for_quadratic():
    # A d = 0 row is the strictly proper loop xi <- xi + alpha*(r1 - grad(r2 + xi))
    # under the same exogenous inputs, bit for bit; without inputs so is a
    # d = alpha/2 row. Every built-in has a zero minimizer.
    rng = np.random.default_rng(4)
    for f in _BUILTINS:
        x0 = np.linspace(1.0, 2.0, f.dim)
        r1, r2 = (rng.standard_normal((20, f.dim)) for _ in range(2))
        zeros = np.zeros((20, f.dim))
        for d, (e1, e2) in ((0.0, (r1, r2)), (0.005, (zeros, zeros))):
            trace = run_transformed(f, 0.01, d, x0, 20, e1, e2)
            xi = x0
            for k in range(20):
                assert np.array_equal(trace.states[k], xi)
                y2 = f.gradient(e2[k] + xi)
                assert np.array_equal(trace.y2[k], y2)
                xi = xi + 0.01 * (e1[k] - y2)
            assert np.array_equal(trace.states[20], xi)


def test_run_transformed_stationary_at_minimizer():
    f = oscillatory(1.0, 100.0)
    trace = run_transformed(f, 0.01, 0.005, np.zeros(1), 10)
    assert_allclose(trace.states, np.zeros((11, 1)), atol=1e-14)


def test_run_transformed_requires_halfstep_feedthrough():
    with pytest.raises(InvalidParameterError):
        run_transformed(quadratic(100.0), 0.01, 0.004, np.array([1.0]), 5)


def test_untransformed_rejects_feedthrough():
    # A row takes d = 0, the untransformed loop, or the transformation's
    # d = alpha/2; a block with any other feedthrough is refused whole.
    f = quadratic(100.0)
    alpha = np.array([0.02, 0.02, 0.02])
    run_transformed(f, alpha, np.array([0.0, 0.01, 0.0]), np.ones((3, 1)), 3)
    for bad in (0.004, 0.02):
        with pytest.raises(InvalidParameterError, match="d = 0 for the untransformed loop"):
            run_transformed(f, alpha, np.array([0.0, 0.0, bad]), np.ones((3, 1)), 3)


def test_run_transformed_wiring_identities():
    f = oscillatory(1.0, 100.0)
    trace = run_transformed(f, 0.012, 0.006, np.array([3.0]), 30)
    r1 = np.zeros((30, 1))
    r2_bar = np.zeros((30, 1))
    assert_allclose(trace.u1, r1 - trace.y2, atol=1e-12)
    assert_allclose(trace.u2, r2_bar + trace.y1, atol=1e-12)


def test_run_transformed_wiring_with_exogenous_inputs():
    rng = np.random.default_rng(33)
    f = oscillatory(1.0, 100.0)
    d = 0.004
    r1 = rng.standard_normal((25, 1))
    r2 = rng.standard_normal((25, 1))
    trace = run_transformed(f, 2 * d, d, np.array([1.5]), 25, r1=r1, r2=r2)
    r2_bar = r2 - d * r1
    assert_allclose(trace.u1, r1 - trace.y2, atol=1e-12)
    assert_allclose(trace.u2, r2_bar + trace.y1, atol=1e-12)
    # Controller relations: y1 = xi + d*u1 and xi' = xi + alpha*u1.
    xi = trace.states
    assert_allclose(trace.y1, xi[:-1] + d * trace.u1, atol=1e-12)
    assert_allclose(xi[1:], xi[:-1] + 2 * d * trace.u1, atol=1e-12)


def test_loop_equivalence_examples():
    # Without exogenous inputs the two loops are the same recursion bit
    # for bit, and the elimination solves the implicit relation to rounding.
    cases = [
        (quadratic(100.0), 0.01, [7.0], 100),
        (oscillatory(1.0, 100.0), 0.01, [5.0], 50),
        (quadratic(100.0), 0.02, [0.0], 50),
        # Boundary step size: x2 never converges, equivalence is still algebraic.
        (diag_quadratic(1.0, 100.0), 0.02, [1.0, 1.0], 100),
    ]
    for f, alpha, x0, steps in cases:
        dev, residual = loop_equivalence_report(f, alpha, np.array(x0), steps)
        assert dev == 0.0
        assert residual <= 1e-15


def test_run_transformed_boundary_nonquadratic_small_amplitude():
    # d*L = 1 without a constant Hessian keeps the algebraic elimination,
    # so the loop is the recursion bit for bit.
    f = oscillatory(1.0, 100.0)
    x0 = np.array([0.05])
    trace = run_transformed(f, 0.02, 0.01, x0, 10)
    x = x0.copy()
    for k in range(11):
        assert np.array_equal(trace.states[k], x)
        x = x - 0.02 * np.asarray(f.gradient(x))


def test_loop_equivalence_large_amplitude():
    # Far from the minimizer f'' of the oscillatory built-in grows like
    # L|x|/2, and the residual with it: the rounding of v is read through
    # that slope.
    f = oscillatory(1.0, 100.0)
    rng = np.random.default_rng(21)
    for _ in range(5):
        alpha = float(rng.uniform(0.05, 0.95)) * 2.0 / f.L
        x0 = rng.uniform(-5e4, 5e4, 1)
        r1, r2 = (rng.standard_normal((100, 1)) for _ in range(2))
        dev, residual = loop_equivalence_report(f, alpha, x0, 100, r1, r2)
        assert dev <= 1e-12 * (1.0 + np.linalg.norm(x0))
        assert residual <= 1e-14 * (1.0 + np.linalg.norm(x0))


def test_transformation_invariance_random_configs():
    rng = np.random.default_rng(8)
    for f in (quadratic(100.0), diag_quadratic(1.0, 100.0), oscillatory(1.0, 100.0)):
        for _ in range(5):
            alpha = float(rng.uniform(0.05, 0.95)) * 2.0 / f.L
            x0 = rng.uniform(-50.0, 50.0, f.dim)
            r1, r2 = (rng.standard_normal((100, f.dim)) for _ in range(2))
            dev, residual = loop_equivalence_report(f, alpha, x0, 100, r1, r2)
            assert dev <= 1e-12 * (1.0 + np.linalg.norm(x0))
            assert residual <= 1e-12


def test_loop_horizon_validation():
    f = quadratic(100.0)
    with pytest.raises(ShapeError):
        run_transformed(f, 0.01, 0.005, np.array([1.0]), 10, r1=np.zeros((5, 1)))


@pytest.mark.parametrize("f", [quadratic(100.0), diag_quadratic(1.0, 100.0)],
                         ids=lambda f: f.name)
@pytest.mark.parametrize("shape", ["flat", "wrong dim", "short", "3-D"])
def test_exogenous_inputs_of_any_other_shape_are_refused(f, shape):
    # An exogenous input is a (horizon, dim) array with horizon >= steps;
    # a flat array, one of another width, one shorter than the run and a
    # 3-D one are refused by the loop and by its equivalence report, for
    # r1 and r2 alike. A longer horizon is cut to the run.
    bad = {"flat": np.zeros(10), "wrong dim": np.zeros((10, f.dim + 1)),
           "short": np.zeros((9, f.dim)), "3-D": np.zeros((10, 1, f.dim))}[shape]
    x0 = np.ones(f.dim)
    for r in ({"r1": bad}, {"r2": bad}):
        with pytest.raises(ShapeError, match="exogenous input has shape"):
            run_transformed(f, 0.01, 0.005, x0, 10, **r)
        with pytest.raises(ShapeError, match="exogenous input has shape"):
            loop_equivalence_report(f, 0.01, x0, 10, **r)
    long = run_transformed(f, 0.01, 0.005, x0, 10, np.ones((12, f.dim)), np.ones((12, f.dim)))
    cut = run_transformed(f, 0.01, 0.005, x0, 10, np.ones((10, f.dim)), np.ones((10, f.dim)))
    assert np.array_equal(long.states, cut.states)


def test_block_shape_validation():
    f = oscillatory(1.0, 100.0)
    alpha = np.array([0.01, 0.012])
    cases = [
        (lambda: run_transformed(f, alpha, alpha[:1] / 2.0, np.ones((2, 1)), 3), "differ in shape"),
        (lambda: run_transformed(f, alpha, alpha / 2.0, np.ones((3, 1)), 3), "expected \\(2, 1\\)"),
        (lambda: loop_equivalence_report(f, alpha, np.ones(2), 3), "expected \\(2, 1\\)"),
        (lambda: evaluate_delta_bar(f, 0.005, np.ones((2, 2))), "expected \\(2, 1\\)"),
        (lambda: run_transformed(f, np.array([]), np.array([]), np.ones((0, 1)), 3),
         "at least one row"),
    ]
    for call, message in cases:
        with pytest.raises(ShapeError, match=message):
            call()


@pytest.mark.parametrize("seed", [65, 73, 135, 175])
def test_loop_suite_passes_on_high_gain_seeds(seed):
    # On these seeds the direct map's gain |1 - alpha f''(x)| is largest; it
    # multiplies, over 100 steps, the rounding by which the gradient
    # arguments of the transformed and the untransformed loop differ.
    (report,) = run_suite("loop", seed)
    assert report.passed, [(c.label, c.value) for c in report.checks]


# Loop check values, in suite order: per built-in, the two loops' worst
# state distance divided by 1 + |x0|, then the worst implicit-relation
# residual. On seeds 2 and 39 the re-solve of the transformed relation
# used to miss tolerance; 65 is a seed where the direct map's gain is large.
_LOOP_CHECK_VALUES = {
    2: [5.3110038698672726e-18, 1.2468906070872427e-15, 0.0, 2.1920970296759703e-16,
        5.291678585371825e-18, 1.6189434145927058e-16],
    39: [0.0, 9.97149719931394e-16, 2.855004534831433e-19, 1.9756081964411494e-16,
         1.802551334152796e-17, 1.921142166689162e-16],
    65: [9.51179774995865e-17, 1.1602624066372575e-15, 7.37298006585864e-17,
         2.197637567310493e-16, 1.5959489844481016e-17, 1.9969404174744783e-16],
}


@pytest.mark.parametrize("seed", sorted(_LOOP_CHECK_VALUES))
def test_loop_check_values_are_pinned(seed):
    (report,) = run_suite("loop", seed)
    assert [c.value for c in report.checks] == _LOOP_CHECK_VALUES[seed]


def test_run_suite_rejects_a_negative_seed():
    for name in ("loop", "all"):
        with pytest.raises(InvalidParameterError, match="seed must be >= 0, got -1"):
            run_suite(name, -1)


def test_the_loop_suite_makes_no_fixed_point_solve(monkeypatch):
    # verify seed 3 reaches amplitudes where the oscillatory relation has
    # several solutions; the elimination needs no solve to pick one.
    def no_solve(*args, **kwargs):
        raise AssertionError("the loop suite started a fixed-point solve")

    monkeypatch.setattr(interconnect, "_solve_fixed_point", no_solve)
    (report,) = run_suite("loop", 3)
    assert report.passed


def test_the_loop_takes_one_gradient_call_per_step():
    # One call for all rows of a block, d = alpha/2 and d = 0 rows alike.
    base = oscillatory(1.0, 100.0)
    calls = []

    def gradient(x):
        calls.append(np.shape(x))
        return base.gradient(x)

    f = SectorFunction(dim=1, m=1.0, L=100.0, minimizer=np.zeros(1), value=base.value,
                       gradient=gradient, elementwise_gradient=gradient)
    calls.clear()
    alpha = np.array([0.012, 0.017, 0.006])
    run_transformed(f, alpha, np.array([0.006, 0.0, 0.003]),
                    np.array([[37.0], [-4.0], [0.5]]), 25)
    assert calls == [(3, 1)] * 25


def test_the_report_reaches_the_loop_through_its_module_attribute(monkeypatch):
    # loop_equivalence_report makes one block call of run_transformed: each
    # row at d = alpha/2, then again at d = 0, under the caller's inputs. A
    # wrapper installed on the module attribute, as the benchmark's traced
    # pass does, sees that call.
    run, calls = interconnect.run_transformed, []

    def recording(f, alpha, d, x0, steps, r1, r2):
        calls.append((alpha, d, x0, steps, r1, r2))
        return run(f, alpha, d, x0, steps, r1, r2)

    monkeypatch.setattr(interconnect, "run_transformed", recording)
    f = diag_quadratic(1.0, 100.0)
    alpha, x0 = np.array([0.01, 0.015]), np.array([[1.0, -2.0], [3.0, 4.0]])
    r1, r2 = np.ones((10, 2)), np.full((10, 2), -0.5)
    loop_equivalence_report(f, alpha, x0, 10, r1, r2)
    ((a, d, x, steps, r1_seen, r2_seen),) = calls
    assert a.tolist() == [0.01, 0.015, 0.01, 0.015]
    assert d.tolist() == [0.005, 0.0075, 0.0, 0.0]
    assert x.tolist() == [[1.0, -2.0], [3.0, 4.0], [1.0, -2.0], [3.0, 4.0]]
    assert steps == 10 and r1_seen is r1 and r2_seen is r2


_BUILTINS = [oscillatory(1.0, 100.0), quadratic(100.0), diag_quadratic(1.0, 100.0)]


@pytest.mark.parametrize("f", _BUILTINS, ids=lambda f: f.name)
def test_block_rows_equal_one_row_calls_bit_for_bit(f):
    # Verify seed 2's fourth oscillatory draw, whose re-solve of the
    # implicit relation used to miss tolerance, three VSP rows, one of them
    # at d = 0, and an alpha = 2/L (ISP) row, under shared nonzero
    # exogenous inputs. The block's arrays hold the rows on their second
    # axis, and row i's arrays are those of its point call.
    rng = np.random.default_rng(17)
    alpha = np.array([0.004382219320598861, *rng.uniform(0.1, 1.9, 3) / f.L, 2.0 / f.L])
    d = alpha / 2.0
    d[2] = 0.0
    x0 = np.vstack([np.full(f.dim, -44.48533726669318),
                    rng.uniform(-50.0, 50.0, (3, f.dim)), np.full(f.dim, 3.0)])
    rng = np.random.default_rng(5)
    r1 = 1e-3 * rng.standard_normal((100, f.dim))
    r2 = 1e-3 * rng.standard_normal((100, f.dim))
    block = run_transformed(f, alpha, d, x0, 100, r1, r2)
    assert block.steps == 100
    for fl in dataclasses.fields(block):
        assert getattr(block, fl.name).shape == (101 if fl.name == "states" else 100, 5, f.dim)
    for i, (a, v, x) in enumerate(zip(alpha, d, x0)):
        one = run_transformed(f, a, v, x, 100, r1, r2)
        for fl in dataclasses.fields(one):
            assert np.array_equal(getattr(_row(block, i), fl.name), getattr(one, fl.name))
    devs, residuals = loop_equivalence_report(f, alpha, x0, 100, r1, r2)
    assert devs.shape == residuals.shape == (5,)
    assert list(zip(devs.tolist(), residuals.tolist())) == [
        loop_equivalence_report(f, a, x, 100, r1, r2) for a, x in zip(alpha, x0)
    ]


@pytest.mark.parametrize("f", _BUILTINS, ids=lambda f: f.name)
def test_a_block_with_one_row_past_the_boundary_is_refused(f):
    alpha = np.array([0.01, 2.1 / f.L, 0.015])
    x0 = np.ones((3, f.dim))
    with pytest.raises(ContractionError):
        run_transformed(f, 2.1 / f.L, 1.05 / f.L, x0[0], 5)
    with pytest.raises(ContractionError):
        run_transformed(f, alpha, alpha / 2.0, x0, 5)
    with pytest.raises(ContractionError):
        loop_equivalence_report(f, alpha, x0, 5)


def test_a_non_finite_loop_state_raises_divergence_without_warnings():
    # The second row's first state overflows; the error carries its last
    # finite iterate, and numpy does not warn on the way.
    f = diag_quadratic(1.0, 100.0)
    x0 = np.array([[1.0, -1.0], [1e308, -1e308]])
    with np.errstate(all="raise"), pytest.raises(DivergenceError, match="at step 1") as err:
        run_transformed(f, np.full(2, 0.019), np.full(2, 0.0095), x0, 30)
    assert np.array_equal(err.value.last_iterate, x0[1])


def _per_step_loop(f, alpha, d, x0, steps, r1, r2):
    """The block loop with every signal written inside its time loop."""
    n, dim = x0.shape
    u1, u2, y2 = (np.empty((steps, n, dim)) for _ in range(3))
    states = np.empty((steps + 1, n, dim))
    states[0] = x0 - f.minimizer
    d_col, alpha_col = d[:, None], alpha[:, None]
    r1_steps = r1[:steps, None]
    v_offset = (r2[:steps, None] - d_col * r1_steps) + d_col * r1_steps
    grad = row_gradient(f)
    for k in range(steps):
        xi = states[k]
        v = v_offset[k] + xi
        y2[k] = grad(v + f.minimizer)
        u2[k] = v - d_col * y2[k]
        u1[k] = r1_steps[k] - y2[k]
        states[k + 1] = xi + alpha_col * u1[k]
    return LoopTrace(u1, states[:-1] + d_col * u1, u2, y2, states)


def _quadratic_at_two():
    """3*(x - 2)^2/2 in the sector [1, 3], minimized away from 0."""
    def gradient(x):
        return 3.0 * (np.asarray(x, dtype=float) - 2.0)

    return SectorFunction(dim=1, m=1.0, L=3.0, minimizer=np.array([2.0]),
                          value=lambda x: 1.5 * float((x[0] - 2.0) ** 2),
                          gradient=gradient, elementwise_gradient=gradient, name="shifted")


@pytest.mark.parametrize("f", [*_BUILTINS, _quadratic_at_two()], ids=lambda f: f.name)
def test_the_loop_signals_are_the_per_step_ones_bit_for_bit(f):
    # The time loop carries only y2 and the state; u1, y1 and u2 are formed
    # after it over all steps. Rows at d = alpha/2 and at d = 0, one of
    # them at 2/L, under seeded exogenous inputs.
    rng = np.random.default_rng(29)
    alpha = np.array([0.3, 1.1, 2.0, 1.7, 0.8]) / f.L
    d = alpha / 2.0
    d[[1, 3]] = 0.0
    x0 = rng.uniform(-50.0, 50.0, (5, f.dim))
    r1, r2 = (rng.standard_normal((60, f.dim)) for _ in range(2))
    trace = run_transformed(f, alpha, d, x0, 60, r1, r2)
    reference = _per_step_loop(f, alpha, d, x0, 60, r1, r2)
    for fl in dataclasses.fields(LoopTrace):
        assert np.array_equal(getattr(trace, fl.name), getattr(reference, fl.name)), fl.name


def test_a_row_that_overflows_after_step_1_raises_divergence_at_its_step():
    # The second row, an untransformed one at a step far past 2/L, grows
    # 10^4-fold per step and overflows at step 2; the error carries its
    # state after step 1, and numpy does not warn on the way.
    f = diag_quadratic(1.0, 100.0)
    alpha, d = np.array([0.019, 100.01]), np.array([0.0095, 0.0])
    x0 = np.array([[1.0, -1.0], [1.0, 1e303]])
    with np.errstate(all="raise"), pytest.raises(DivergenceError, match="at step 2$") as err:
        run_transformed(f, alpha, d, x0, 30)
    after_one = run_transformed(f, alpha[1], 0.0, x0[1], 1).states[1]
    assert np.isfinite(after_one).all()
    assert np.array_equal(err.value.last_iterate, after_one)


def test_an_overflowing_boundary_start_raises_divergence_without_a_solve(monkeypatch):
    # At d = 1/L the overflowing probe goes straight into the state: the
    # loop stops at step 1 and no fixed point is started.
    def no_solve(*args, **kwargs):
        raise AssertionError("a boundary row was re-solved")

    monkeypatch.setattr(interconnect, "_solve_fixed_point", no_solve)
    x0 = np.array([1e308])
    with np.errstate(all="raise"), pytest.raises(DivergenceError, match="at step 1") as err:
        run_transformed(oscillatory(1.0, 100.0), 0.02, 0.01, x0, 30)
    assert np.array_equal(err.value.last_iterate, x0)


def _gd_at_boundary(f, x0, steps):
    """gd_run at alpha = 2/L: its trace, or the DivergenceError it raises."""
    try:
        return gd_run(f, x0, FixedAlpha(2.0 / f.L), [MaxIter(steps)])
    except DivergenceError as err:
        return err


def _assert_loop_is_the_recursion(trace, run):
    assert np.array_equal(trace.states, run.iterates)
    assert np.array_equal(trace.y2, run.gradients[:-1])


_BOUNDARY_FUNCTIONS = st.one_of(
    st.sampled_from(_BUILTINS),
    st.builds(
        lambda m, ratio: oscillatory(m, m * ratio),
        st.floats(0.01, 10.0), st.floats(1.5, 1e3),
    ),
)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    f=_BOUNDARY_FUNCTIONS,
    exponents=st.lists(st.floats(-3.0, 8.0), min_size=8, max_size=8),
    signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=8, max_size=8),
    steps=st.integers(1, 40),
)
def test_the_loop_at_two_over_l_is_the_recursion_bit_for_bit(f, exponents, signs, steps):
    # At alpha = 2/L (d = 1/L) every objective keeps the algebraic
    # elimination, so the point form and an 8-row block both equal gd_run:
    # states against iterates and y2 against gradients, or the same
    # DivergenceError.
    alpha = 2.0 / f.L
    x0 = (np.array(signs) * 10.0 ** np.array(exponents))[:, None] * np.ones(f.dim)
    runs = [_gd_at_boundary(f, x, steps) for x in x0]
    if isinstance(runs[0], DivergenceError):
        with pytest.raises(DivergenceError) as err:
            run_transformed(f, alpha, alpha / 2.0, x0[0], steps)
        assert np.array_equal(err.value.last_iterate, runs[0].last_iterate)
    else:
        _assert_loop_is_the_recursion(
            run_transformed(f, alpha, alpha / 2.0, x0[0], steps), runs[0]
        )
    diverged = [run for run in runs if isinstance(run, DivergenceError)]
    alphas = np.full(len(x0), alpha)
    if diverged:
        with pytest.raises(DivergenceError) as err:
            run_transformed(f, alphas, alphas / 2.0, x0, steps)
        assert any(np.array_equal(err.value.last_iterate, run.last_iterate) for run in diverged)
    else:
        block = run_transformed(f, alphas, alphas / 2.0, x0, steps)
        for i, run in enumerate(runs):
            _assert_loop_is_the_recursion(_row(block, i), run)


_EQUIVALENCE_FUNCTIONS = st.one_of(
    st.sampled_from(_BUILTINS),
    st.builds(
        lambda m, ratio: oscillatory(m, m * ratio),
        st.floats(0.01, 10.0), st.floats(1.5, 1e3),
    ),
    st.builds(quadratic, st.floats(0.01, 1e3)),
    st.builds(
        lambda m, ratio: diag_quadratic(m, m * ratio),
        st.floats(0.01, 10.0), st.floats(1.01, 1e3),
    ),
)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(
    f=_EQUIVALENCE_FUNCTIONS,
    frac=st.one_of(st.just(1.0), st.floats(1e-6, 1.0)),
    x0=st.lists(st.floats(-50.0, 50.0), min_size=2, max_size=2),
    seed=st.integers(0, 2**32 - 1),
    steps=st.integers(1, 60),
)
def test_the_transformed_loop_is_the_untransformed_one_to_rounding(f, frac, x0, seed, steps):
    # Under seeded exogenous inputs, for any alpha <= 2/L: the elimination
    # solves the implicit relation up to the rounding of (v - d*y2) + d*y2,
    # read through the slope of the gradient; and the rows at d = alpha/2
    # follow the rows at d = 0 up to the rounding of (r2 - d*r1) + d*r1,
    # carried by the map x - alpha*grad f(x). That map does not expand on
    # the quadratic family, so the state bound is checked there; on the
    # oscillatory family f'' grows with |x|, and the map can expand that
    # rounding past any fixed multiple of it.
    alpha = frac * 2.0 / f.L
    rng = np.random.default_rng(seed)
    r1, r2 = (rng.standard_normal((steps, f.dim)) for _ in range(2))
    x0 = np.array(x0[: f.dim])
    dev, residual = loop_equivalence_report(f, alpha, x0, steps, r1, r2)
    with np.errstate(divide="ignore"):
        assert residual <= np.divide(1e-12, 1.0 - alpha / 2.0 * f.L)
    if f.name in ("quadratic", "diag-quadratic"):
        assert dev <= 1e-12 * (1.0 + np.linalg.norm(x0))
