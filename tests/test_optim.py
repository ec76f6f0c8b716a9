import numpy as np
import pytest
from numpy.testing import assert_allclose

from passive_gd.errors import (
    DivergenceError,
    InvalidParameterError,
    LineSearchError,
    ShapeError,
)
from passive_gd.functions import diag_quadratic, oscillatory, quadratic
from passive_gd.optim import (
    ArmijoAlpha,
    ArmijoParams,
    ArmijoS,
    FixedAlpha,
    FixedS,
    GradNorm,
    MaxIter,
    PairedGrad,
    Termination,
    armijo_alpha,
    armijo_s,
    default_s_cap,
    gd_run,
    gsgd_run,
    paired_gradient_criterion,
)


def test_gd_one_step_at_inverse_curvature():
    trace = gd_run(
        quadratic(100.0), np.array([1.0]), FixedAlpha(0.01), [GradNorm(1e-12)]
    )
    assert trace.iterations == 1
    assert trace.termination is Termination.GRAD_NORM_MET
    assert_allclose(trace.iterates.samples, [[1.0], [0.0]])


def test_gd_oscillates_at_double_step():
    trace = gd_run(
        quadratic(100.0),
        np.array([1.0]),
        FixedAlpha(0.02),
        [GradNorm(1e-12), MaxIter(10)],
    )
    assert trace.termination is Termination.MAX_ITER_HIT
    assert trace.iterations == 10
    assert_allclose(np.abs(trace.iterates.samples[:, 0]), np.ones(11))


def test_gd_starts_converged():
    trace = gd_run(
        quadratic(100.0), np.zeros(1), FixedAlpha(0.01), [GradNorm(1e-12)]
    )
    assert trace.iterations == 0
    assert trace.termination is Termination.GRAD_NORM_MET


def test_gd_recursion_identity():
    f = oscillatory(1.0, 100.0)
    trace = gd_run(f, np.array([4.0]), FixedAlpha(0.015), [MaxIter(60)])
    x = trace.iterates.samples
    g = trace.gradients.samples
    for k, step in enumerate(trace.step_history):
        residual = x[k + 1] - x[k] + step * g[k]
        assert np.linalg.norm(residual) <= 1e-12 * (1.0 + np.linalg.norm(x[k]))


def test_gd_trace_gradients_match_function():
    f = oscillatory(1.0, 100.0)
    trace = gd_run(f, np.array([2.0]), FixedAlpha(0.01), [GradNorm(1e-12)])
    for k in range(trace.iterates.horizon):
        assert_allclose(
            trace.gradients.samples[k],
            f.gradient(trace.iterates.samples[k]),
            rtol=0,
            atol=0,
        )


def test_gd_divergence_raises():
    with np.errstate(over="ignore"), pytest.raises(DivergenceError) as info:
        gd_run(quadratic(100.0), np.array([1.0]), FixedAlpha(1e150), [MaxIter(10**5)])
    assert info.value.last_iterate is not None


def test_gd_rejects_scheduling_schedule():
    with pytest.raises(InvalidParameterError):
        gd_run(quadratic(1.0), np.zeros(1), FixedS(0.1), [MaxIter(5)])


def test_gsgd_one_step_scaled():
    trace = gsgd_run(
        quadratic(100.0), np.array([1.0]), FixedS(0.1), [GradNorm(1e-12)]
    )
    assert trace.iterations == 1
    assert_allclose(trace.iterates.samples[-1], [0.0])


def test_gsgd_negative_s_allowed():
    f = quadratic(100.0)
    trace = gsgd_run(f, np.array([1.0]), FixedS(-0.1), [GradNorm(1e-12), MaxIter(50)])
    # x <- x - (-0.1)*grad(-0.1*x) = x - 0.1*(10x)... identical to s = +0.1
    assert trace.iterations == 1


def test_gsgd_rejects_zero_s():
    with pytest.raises(InvalidParameterError):
        FixedS(0.0)


def test_gsgd_change_of_variables_matches_gd():
    rng = np.random.default_rng(12)
    for f in (oscillatory(1.0, 100.0), quadratic(100.0)):
        for _ in range(5):
            s = float(rng.uniform(0.2, 1.0)) * default_s_cap(f)
            x0 = rng.uniform(-100.0, 100.0, f.dim)
            gs = gsgd_run(f, x0, FixedS(s), [MaxIter(100)])
            gd = gd_run(f, s * x0, FixedAlpha(s * s), [MaxIter(100)])
            scaled = s * gs.iterates.samples
            dev = np.max(np.abs(scaled - gd.iterates.samples))
            assert dev <= 1e-9 * (1.0 + np.max(np.abs(gd.iterates.samples)))


def test_gsgd_recursion_identity():
    f = oscillatory(1.0, 100.0)
    trace = gsgd_run(f, np.array([3.0]), FixedS(0.12), [MaxIter(40)])
    x = trace.iterates.samples
    for k, s in enumerate(trace.step_history):
        expected = x[k] - s * np.asarray(f.gradient(s * x[k]))
        assert np.linalg.norm(x[k + 1] - expected) <= 1e-12 * (
            1.0 + np.linalg.norm(x[k])
        )


def test_certified_steps_converge_from_random_points():
    rng = np.random.default_rng(14)
    for f in (oscillatory(1.0, 100.0), quadratic(100.0), diag_quadratic(1.0, 100.0)):
        for _ in range(8):
            alpha = float(rng.uniform(0.05, 0.99)) * 2.0 / f.L
            for _ in range(5):
                x0 = rng.uniform(-1e5, 1e5, f.dim)
                trace = gd_run(
                    f, x0, FixedAlpha(alpha), [GradNorm(1e-12), MaxIter(10**6)]
                )
                assert trace.termination is Termination.GRAD_NORM_MET


def test_counterexample_combined_signal_energy():
    # The combined signal of the oscillating run is (0.99*0.98^k, 0); its
    # truncated energy at k=2000 equals the geometric sum 24.75 to
    # machine precision.
    f = diag_quadratic(1.0, 100.0)
    trace = gd_run(f, np.array([1.0, 1.0]), FixedAlpha(0.02), [MaxIter(2000)])
    combined = trace.iterates.samples - 0.01 * trace.gradients.samples
    energy = float(np.sum(combined * combined))
    assert energy == pytest.approx(0.99**2 / (1.0 - 0.98**2), rel=1e-12)
    assert energy == pytest.approx(24.75, rel=1e-10)


def test_armijo_alpha_accepts_full_step_on_scaled_quadratic():
    a = armijo_alpha(
        quadratic(1.0), np.array([1.0]), ArmijoParams(trial=1.0)
    )
    assert a == 1.0


def test_armijo_alpha_backtracks_on_stiff_quadratic():
    params = ArmijoParams(trial=1.0, shrink=0.5, decrease=1e-4)
    a = armijo_alpha(quadratic(100.0), np.array([1.0]), params)
    assert a <= 0.02
    # Independent route: first trial*shrink^j satisfying
    # (1 - 100a)^2 <= 1 - 2e-4 * 100 * a on the quadratic.
    trial = 1.0
    while not (1.0 - 100.0 * trial) ** 2 <= 1.0 - 2e-4 * 100.0 * trial:
        trial *= 0.5
    assert a == trial


def test_armijo_alpha_zero_gradient_rejected():
    with pytest.raises(InvalidParameterError):
        armijo_alpha(quadratic(1.0), np.zeros(1), ArmijoParams(trial=1.0))


def test_armijo_alpha_default_trial_is_certified_edge():
    f = quadratic(100.0)
    a = armijo_alpha(f, np.array([1.0]), ArmijoParams())
    assert a <= 2.0 / f.L


def test_armijo_s_backtracks_once_on_stiff_quadratic():
    f = quadratic(100.0)
    cap = np.sqrt(2.0 / 100.0)
    s = armijo_s(f, np.array([1.0]), ArmijoParams(), cap)
    # First trial s=cap maps x to -x (no decrease), one halving is accepted.
    assert s == pytest.approx(cap / 2.0, rel=1e-15)
    assert 0.0 < s <= cap


def test_armijo_s_zero_gradient_rejected():
    f = quadratic(100.0)
    with pytest.raises(InvalidParameterError):
        armijo_s(f, np.zeros(1), ArmijoParams(), 0.1)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_armijo_searches_fail_where_the_objective_overflows():
    # f(1e160) overflows to inf; without the check the test inf <= inf
    # passes after enough backtracks and the search returns s ~ 2e-15.
    f = oscillatory(1.0, 100.0)
    x = np.array([1e160])
    with pytest.raises(LineSearchError):
        armijo_s(f, x, ArmijoParams(), default_s_cap(f))
    with pytest.raises(LineSearchError):
        armijo_alpha(f, x, ArmijoParams())


def test_armijo_params_validation():
    with pytest.raises(InvalidParameterError):
        ArmijoParams(shrink=1.0)
    with pytest.raises(InvalidParameterError):
        ArmijoParams(trial=-1.0)
    with pytest.raises(InvalidParameterError):
        ArmijoParams(decrease=0.0)


def test_paired_gradient_criterion_examples():
    assert paired_gradient_criterion(
        np.array([1.0, 100.0]), np.array([1.0, -100.0]), 5.0
    )
    assert paired_gradient_criterion(np.zeros(2), np.zeros(2), 1e-300)
    assert not paired_gradient_criterion(
        np.array([1.0, 100.0]), np.array([1.0, -100.0]), 4.0
    )
    with pytest.raises(ShapeError):
        paired_gradient_criterion(np.zeros(2), np.zeros(3), 1.0)


def test_counterexample_run_closed_form():
    f = diag_quadratic(1.0, 100.0)
    trace = gd_run(
        f,
        np.array([1.0, 1.0]),
        FixedAlpha(0.02),
        [GradNorm(1e-12), PairedGrad(1e-10), MaxIter(5000)],
    )
    assert trace.termination is Termination.PAIRED_GRAD_MET
    x = trace.iterates.samples
    k = np.arange(x.shape[0])
    assert_allclose(x[:, 0], 0.98**k, rtol=1e-10)
    assert_allclose(x[:, 1], (-1.0) ** k, rtol=0, atol=1e-12)
    # Trigger index: (1.98 * 0.98^(k-1))^2 < 1e-10 first holds at k = 605.
    assert trace.iterations == 605
    # Sum of consecutive gradients only retains the contracting coordinate.
    g_now = trace.gradients.samples[-1]
    g_prev = trace.gradients.samples[-2]
    assert abs((g_now + g_prev)[1]) == 0.0


def test_stopping_rule_order_grad_norm_wins():
    # Both rules hold at the start; the gradient-norm rule is checked first.
    f = quadratic(1.0)
    trace = gd_run(
        f, np.zeros(1), FixedAlpha(0.5), [GradNorm(1e-6), PairedGrad(1e6), MaxIter(5)]
    )
    assert trace.termination is Termination.GRAD_NORM_MET


def test_armijo_run_without_grad_rule_survives_exact_convergence():
    # One-step exact convergence followed by cap-only iteration must not
    # trip the line search's nonzero-gradient precondition.
    f = quadratic(100.0)
    trace = gd_run(
        f, np.array([1.0]), ArmijoAlpha(ArmijoParams(trial=0.01)), [MaxIter(5)]
    )
    assert trace.iterations == 5
    assert_allclose(trace.iterates.samples[1:], np.zeros((5, 1)))
    gs = gsgd_run(f, np.array([1.0]), ArmijoS(ArmijoParams(trial=0.1)), [MaxIter(4)])
    assert_allclose(gs.iterates.samples[1:], np.zeros((4, 1)))


def test_max_iter_default_applied():
    f = quadratic(100.0)
    trace = gd_run(f, np.array([1.0]), FixedAlpha(0.02), [GradNorm(1e-12), MaxIter(7)])
    assert trace.iterations == 7
    assert len(trace.step_history) == 7
