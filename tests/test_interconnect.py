import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import brentq

from passive_gd.errors import (
    AlgebraicLoopError,
    ContractionError,
    ConvergenceError,
    InvalidParameterError,
    ShapeError,
)
from passive_gd.functions import (
    SectorFunction,
    diag_quadratic,
    oscillatory,
    quadratic,
    shifted_gradient,
)
from passive_gd.interconnect import (
    BOUNDARY_MAX_ITER,
    DEFAULT_TOL,
    FeedbackLoop,
    _solve_fixed_point,
    delta_bar_operator,
    evaluate_delta_bar,
    loop_equivalence_report,
    run_transformed,
    run_untransformed,
)
from passive_gd.lti import gd_realization, modified_gd_realization
from passive_gd.signals import Signal


def _zero_loop(controller, f, xi0, steps):
    return FeedbackLoop.with_zero_inputs(controller, f, xi0, steps)


def test_untransformed_one_step_convergence():
    # alpha = 1/L drives a quadratic to its minimizer in one step.
    loop = _zero_loop(gd_realization(0.01), quadratic(100.0), np.array([1.0]), 3)
    trace = run_untransformed(loop, 3)
    assert_allclose(trace.states.samples[:3], [[1.0], [0.0], [0.0]], atol=1e-15)


def test_untransformed_zero_equilibrium():
    loop = _zero_loop(gd_realization(0.02), quadratic(100.0), np.zeros(1), 5)
    trace = run_untransformed(loop, 5)
    for sig in (trace.u1, trace.y1, trace.u2, trace.y2):
        assert_allclose(sig.samples, np.zeros((5, 1)))
    assert_allclose(trace.states.samples, np.zeros((6, 1)))


def test_untransformed_oscillation_at_double_step():
    loop = _zero_loop(gd_realization(0.02), quadratic(100.0), np.array([1.0]), 6)
    trace = run_untransformed(loop, 6)
    expected = [[(-1.0) ** k] for k in range(7)]
    assert_allclose(trace.states.samples, expected, atol=1e-14)


def test_untransformed_rejects_feedthrough():
    loop = _zero_loop(
        modified_gd_realization(0.02, 0.01), quadratic(100.0), np.zeros(1), 3
    )
    with pytest.raises(AlgebraicLoopError):
        run_untransformed(loop, 3)


def test_untransformed_wiring_identities():
    rng = np.random.default_rng(6)
    f = oscillatory(1.0, 100.0)
    loop = FeedbackLoop(
        controller=gd_realization(0.01),
        function=f,
        r1=Signal(rng.standard_normal((10, 1))),
        r2=Signal(rng.standard_normal((10, 1))),
        xi0=rng.standard_normal(1),
    )
    trace = run_untransformed(loop, 10)
    assert_allclose(
        trace.u1.samples, loop.r1.samples[:10] - trace.y2.samples, atol=1e-12
    )
    assert_allclose(
        trace.u2.samples, loop.r2.samples[:10] + trace.y1.samples, atol=1e-12
    )
    for k in range(10):
        assert_allclose(
            trace.y2.samples[k],
            shifted_gradient(f, trace.u2.samples[k]),
            atol=1e-12,
        )


def test_delta_bar_zero_fixed_point():
    for f in (oscillatory(1.0, 100.0), quadratic(100.0)):
        y = evaluate_delta_bar(f, 0.005, np.zeros(f.dim))
        assert_allclose(y, np.zeros(f.dim), atol=1e-15)


def test_delta_bar_linear_closed_form():
    # y = 100(u + 0.005 y) has solution y = 200 u.
    y = evaluate_delta_bar(quadratic(100.0), 0.005, np.array([1.0]))
    assert y[0] == pytest.approx(200.0, rel=1e-11)


def test_delta_bar_against_bisection_oracle():
    f = oscillatory(1.0, 100.0)
    d = 0.005
    for u in (0.3, -0.7, 1.2):
        y = evaluate_delta_bar(f, d, np.array([u]), tol=1e-13)
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
    tol = 1e-12
    calls["n"] = 0
    y = evaluate_delta_bar(f, d, np.array([2.0]), tol=tol)
    iterations = calls["n"] - 1  # first call produces the starting point
    y0 = abs(50.0 * 2.0)
    bound = int(np.ceil(np.log(tol / y0) / np.log(d * 50.0))) + 1
    assert iterations <= bound + 1
    assert y[0] == pytest.approx(200.0, rel=1e-11)


def test_delta_bar_operator_applies_per_sample():
    f = quadratic(100.0)
    op = delta_bar_operator(f, 0.005)
    u = Signal(np.array([[1.0], [2.0], [-0.5]]))
    y = op(u)
    assert_allclose(y.samples, 200.0 * u.samples, rtol=1e-10)


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


def test_damped_fixed_point_regression():
    # Damped solves from a zero start at d*L = 1, recorded before the plain
    # and damped solvers were merged; solved together as one block.
    f = oscillatory(1.0, 100.0)
    u = np.array([[0.004], [-0.02], [0.1]])
    y = _solve_fixed_point(
        f, 0.01, u, DEFAULT_TOL, BOUNDARY_MAX_ITER, y=np.zeros((3, 1)), damping=True
    )
    assert y[:, 0].tolist() == [0.41471839528339904, -1.8891846003792228, 17.868305399856077]


def test_run_transformed_boundary_trace_regression():
    # alpha = 2/L without a constant Hessian takes the damped branch every
    # step; the trace was recorded before the solvers were merged.
    trace = run_transformed(oscillatory(1.0, 100.0), 0.02, 0.01, np.array([3.0]), 6)
    assert trace.states.samples[:, 0].tolist() == [
        3.0, -0.4491264239378059, -0.18855987769902993, -0.03310546687094704,
        -0.0007537593690365302, 6.9751220890807005e-06, -6.97993866956824e-08,
    ]
    assert trace.y2.samples[:, 0].tolist() == [
        172.4563211968903, -13.028327311938797, -7.772720541404144,
        -1.6175853750955251, -0.03803672455628054, 0.00035224607378881915,
    ]
    assert trace.u2.samples[:, 0].tolist() == [
        1.275436788031097, -0.3188431508184179, -0.11083267228498848,
        -0.016929613119991783, -0.00037339212347372474, 3.452661351192509e-06,
    ]


def test_run_transformed_matches_untransformed_for_quadratic():
    f = quadratic(100.0)
    x0 = np.array([1.0])
    loop = _zero_loop(gd_realization(0.01), f, x0.copy(), 20)
    plain = run_untransformed(loop, 20)
    transformed = run_transformed(f, 0.01, 0.005, x0, 20)
    assert_allclose(
        transformed.states.samples, plain.states.samples, atol=1e-11
    )


def test_run_transformed_stationary_at_minimizer():
    f = oscillatory(1.0, 100.0)
    trace = run_transformed(f, 0.01, 0.005, np.zeros(1), 10)
    assert_allclose(trace.states.samples, np.zeros((11, 1)), atol=1e-14)


def test_run_transformed_requires_halfstep_feedthrough():
    with pytest.raises(InvalidParameterError):
        run_transformed(quadratic(100.0), 0.01, 0.004, np.array([1.0]), 5)


def test_run_transformed_wiring_identities():
    f = oscillatory(1.0, 100.0)
    trace = run_transformed(f, 0.012, 0.006, np.array([3.0]), 30)
    r1 = np.zeros((30, 1))
    r2_bar = np.zeros((30, 1))
    assert_allclose(trace.u1.samples, r1 - trace.y2.samples, atol=1e-12)
    assert_allclose(
        trace.u2.samples, r2_bar + trace.y1.samples, atol=1e-12
    )


def test_run_transformed_wiring_with_exogenous_inputs():
    rng = np.random.default_rng(33)
    f = oscillatory(1.0, 100.0)
    d = 0.004
    r1 = Signal(rng.standard_normal((25, 1)))
    r2 = Signal(rng.standard_normal((25, 1)))
    trace = run_transformed(f, 2 * d, d, np.array([1.5]), 25, r1=r1, r2=r2)
    r2_bar = r2.samples[:25] - d * r1.samples[:25]
    assert_allclose(trace.u1.samples, r1.samples[:25] - trace.y2.samples, atol=1e-12)
    assert_allclose(trace.u2.samples, r2_bar + trace.y1.samples, atol=1e-12)
    # Controller relations: y1 = xi + d*u1 and xi' = xi + alpha*u1.
    xi = trace.states.samples
    assert_allclose(trace.y1.samples, xi[:-1] + d * trace.u1.samples, atol=1e-12)
    assert_allclose(xi[1:], xi[:-1] + 2 * d * trace.u1.samples, atol=1e-12)


def test_loop_equivalence_examples():
    assert loop_equivalence_report(
        quadratic(100.0), 0.01, np.array([7.0]), 100
    ) <= 1e-9
    assert loop_equivalence_report(
        oscillatory(1.0, 100.0), 0.01, np.array([5.0]), 50
    ) <= 1e-9
    assert loop_equivalence_report(quadratic(100.0), 0.02, np.zeros(1), 50) == 0.0
    # Boundary step size: x2 never converges, equivalence is still algebraic.
    assert loop_equivalence_report(
        diag_quadratic(1.0, 100.0), 0.02, np.array([1.0, 1.0]), 100
    ) <= 1e-9


def test_run_transformed_boundary_nonquadratic_small_amplitude():
    # d*L = 1 without a constant Hessian exercises the damped iteration.
    f = oscillatory(1.0, 100.0)
    x0 = np.array([0.05])
    trace = run_transformed(f, 0.02, 0.01, x0, 10)
    x = x0.copy()
    for k in range(11):
        assert np.linalg.norm(trace.states.samples[k] - x) <= 1e-9
        x = x - 0.02 * np.asarray(f.gradient(x))


def test_loop_equivalence_large_amplitude():
    f = oscillatory(1.0, 100.0)
    rng = np.random.default_rng(21)
    for _ in range(5):
        alpha = float(rng.uniform(0.05, 0.95)) * 2.0 / f.L
        x0 = rng.uniform(-5e4, 5e4, 1)
        dev = loop_equivalence_report(f, alpha, x0, 100)
        assert dev <= 1e-9 * (1.0 + np.linalg.norm(x0))


def test_transformation_invariance_random_configs():
    rng = np.random.default_rng(8)
    for f in (quadratic(100.0), diag_quadratic(1.0, 100.0), oscillatory(1.0, 100.0)):
        for _ in range(5):
            alpha = float(rng.uniform(0.05, 0.95)) * 2.0 / f.L
            x0 = rng.uniform(-50.0, 50.0, f.dim)
            dev = loop_equivalence_report(f, alpha, x0, 100)
            assert dev <= 1e-9 * (1.0 + np.linalg.norm(x0))


def test_loop_horizon_validation():
    f = quadratic(100.0)
    with pytest.raises(ShapeError):
        run_transformed(
            f, 0.01, 0.005, np.array([1.0]), 10, r1=Signal.zeros(1, 5)
        )
