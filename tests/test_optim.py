import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from passive_gd.errors import (
    DivergenceError,
    InvalidParameterError,
    LineSearchError,
)
from passive_gd.functions import SectorFunction, diag_quadratic, oscillatory, quadratic
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
    _CAP,
    _MET,
    _NONFINITE,
    _block_runner,
    _sqrt_bound,
    default_s_cap,
    gd_run,
    gsgd_run,
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


def test_gsgd_rejects_step_size_schedule():
    with pytest.raises(InvalidParameterError,
                       match="gsgd_run needs a scheduling schedule, got FixedAlpha"):
        gsgd_run(quadratic(1.0), np.zeros(1), FixedAlpha(0.1), [MaxIter(5)])


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


def _first_alpha(f, x, params):
    """The step that one update of the ArmijoAlpha schedule accepts at ``x``."""
    return gd_run(f, x, ArmijoAlpha(params), [MaxIter(1)]).step_history[0]


def _first_s(f, x, params, cap):
    """The scheduling value that one update of the ArmijoS schedule accepts at ``x``."""
    return gsgd_run(f, x, ArmijoS(params, cap), [MaxIter(1)]).step_history[0]


def test_armijo_alpha_accepts_full_step_on_scaled_quadratic():
    a = _first_alpha(quadratic(1.0), np.array([1.0]), ArmijoParams(trial=1.0))
    assert a == 1.0


def test_armijo_alpha_backtracks_on_stiff_quadratic():
    params = ArmijoParams(trial=1.0, shrink=0.5, decrease=1e-4)
    a = _first_alpha(quadratic(100.0), np.array([1.0]), params)
    assert a <= 0.02
    # Independent route: first trial*shrink^j satisfying
    # (1 - 100a)^2 <= 1 - 2e-4 * 100 * a on the quadratic.
    trial = 1.0
    while not (1.0 - 100.0 * trial) ** 2 <= 1.0 - 2e-4 * 100.0 * trial:
        trial *= 0.5
    assert a == trial


def test_armijo_alpha_default_trial_is_certified_edge():
    f = quadratic(100.0)
    a = _first_alpha(f, np.array([1.0]), ArmijoParams())
    assert a <= 2.0 / f.L


def test_armijo_s_backtracks_once_on_stiff_quadratic():
    f = quadratic(100.0)
    cap = np.sqrt(2.0 / 100.0)
    s = _first_s(f, np.array([1.0]), ArmijoParams(), cap)
    # First trial s=cap maps x to -x (no decrease), one halving is accepted.
    assert s == pytest.approx(cap / 2.0, rel=1e-15)
    assert 0.0 < s <= cap


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_armijo_searches_fail_where_the_objective_overflows():
    # f(1e160) overflows to inf; without the check the test inf <= inf
    # passes after enough backtracks and the search returns s ~ 2e-15.
    f = oscillatory(1.0, 100.0)
    x = np.array([1e160])
    with pytest.raises(LineSearchError):
        _first_s(f, x, ArmijoParams(), default_s_cap(f))
    with pytest.raises(LineSearchError):
        _first_alpha(f, x, ArmijoParams())


def test_armijo_search_without_an_acceptable_step_names_the_backtrack_cap():
    # A constant objective never shows the sufficient decrease the search needs.
    q = quadratic(100.0)
    f = SectorFunction(1, q.m, q.L, np.zeros(1), lambda x: 0.0, q.gradient)
    message = r"no acceptable step within 100 backtracks from trial 0\.02"
    with pytest.raises(LineSearchError, match=message):
        _first_alpha(f, np.ones(1), ArmijoParams())
    with pytest.raises(LineSearchError, match=message):
        gd_run(f, np.ones(1), ArmijoAlpha(ArmijoParams()), [MaxIter(5)])


def test_armijo_alpha_accepts_a_step_where_the_squared_gradient_overflows():
    # At 2.5e153, f is finite but <g, g> overflows, so c*a*<g, g> is inf
    # at every trial; <c*a*g, g> is finite for small enough a. The gain-
    # scheduled search converges from the same start.
    f = oscillatory(1.0, 100.0)
    schedule = ArmijoAlpha(ArmijoParams(trial=0.05))
    stops = [GradNorm(1e-12), MaxIter(5000)]
    x = np.array([2.5e153])
    with np.errstate(over="ignore"):
        assert np.isinf(np.dot(f.gradient(x), f.gradient(x)))
    assert np.isfinite(f.value(x))
    assert _first_alpha(f, x, schedule.params) == 0.025
    trace = gd_run(f, x, schedule, stops)
    assert trace.termination is Termination.GRAD_NORM_MET
    assert gsgd_run(f, x, ArmijoS(), stops).termination is Termination.GRAD_NORM_MET
    # In a block, rows with and without the overflow each take their own
    # run's count, on both a flat and an (n, 2) block.
    dq = diag_quadratic(1.0, 100.0)
    for fn, x0 in ((f, np.array([3.0, 2.5e153, -1e3, -2.5e153, 7e152])),
                   (dq, np.array([[1.0, 1.4e152], [3.0, -4.0], [-1.0, -1.4e152]]))):
        counts, reasons = _block_runner(fn, schedule, 1e-12, 5000)(x0)
        for x_i, count, reason in zip(x0, counts, reasons):
            one = gd_run(fn, np.atleast_1d(x_i), schedule, stops)
            assert one.termination is Termination.GRAD_NORM_MET
            assert (count, reason) == (one.iterations + 1, _MET)


def test_armijo_params_validation():
    with pytest.raises(InvalidParameterError):
        ArmijoParams(shrink=1.0)
    with pytest.raises(InvalidParameterError):
        ArmijoParams(trial=-1.0)
    with pytest.raises(InvalidParameterError):
        ArmijoParams(decrease=0.0)


def test_paired_gradient_rule_is_strict():
    # On l*x^2/2 with l = 1 and alpha = 1.5 the gradients are 1, -0.5, 0.25,
    # so the first pair sums to 0.5 and the rule compares 0.25 < tol.
    f = quadratic(1.0)
    for tol, iterations in ((0.25, 2), (np.nextafter(0.25, 1.0), 1)):
        trace = gd_run(
            f, np.array([1.0]), FixedAlpha(1.5),
            [GradNorm(1e-12), PairedGrad(tol), MaxIter(50)],
        )
        assert trace.termination is Termination.PAIRED_GRAD_MET
        assert trace.iterations == iterations


@pytest.mark.parametrize("rule", [GradNorm, PairedGrad])
def test_stopping_tolerances_must_be_positive(rule):
    for tol in (0.0, -1.0, float("nan")):
        with pytest.raises(InvalidParameterError, match="tolerance must be positive"):
            rule(tol)


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


def _counted(f):
    """A copy of ``f`` whose oracles count their calls in ``calls[0]``."""
    calls = [0]

    def count(oracle):
        def counted(x):
            calls[0] += 1
            return oracle(x)
        return counted

    copy = SectorFunction(
        dim=f.dim, m=f.m, L=f.L, minimizer=f.minimizer, value=count(f.value),
        gradient=count(f.gradient), elementwise_value=count(f.elementwise_value),
        elementwise_gradient=count(f.elementwise_gradient),
    )
    calls[0] = 0  # the constructor's check at the minimizer
    return copy, calls


def test_engine_stops_calling_the_oracle_once_no_row_is_left():
    # Once its last row leaves, the engine returns. An engine that went on
    # stepping the empty block would call the oracle up to the cap.
    f, calls = _counted(oscillatory(1.0, 100.0))
    with pytest.raises(LineSearchError, match="objective is inf"):
        gsgd_run(f, np.array([1e160]), ArmijoS(), [GradNorm(1e-12), MaxIter(500)])
    assert calls[0] <= 5
    f, calls = _counted(diag_quadratic(1.0, 100.0))
    with pytest.raises(DivergenceError, match="after 1 update$"):
        gd_run(f, np.array([1e308, -1e308]), FixedAlpha(0.019), [MaxIter(500)])
    assert calls[0] <= 5
    # Every row converges at the first update, so the block is done there.
    f, calls = _counted(quadratic(1.0))
    counts, reasons = _block_runner(f, FixedAlpha(1.0), 1e-12, 500)(np.array([1.0, -2.0, 3.0]))
    assert counts.tolist() == [2, 2, 2] and reasons.tolist() == [_MET] * 3
    assert calls[0] <= 3


def _half_square_norm():
    """f(x) = ||x||^2 / 2 on R^2, whose gradient is x: a custom function."""

    def value(x):
        return 0.5 * np.vecdot(x, x)

    def gradient(x):
        return np.array(x, dtype=float)

    return SectorFunction(dim=2, m=1.0, L=1.0, minimizer=np.zeros(2), value=value,
                          gradient=gradient, elementwise_value=value,
                          elementwise_gradient=gradient)


def test_finite_rows_whose_sums_overflow_are_not_flagged():
    # The first two rows sum past the largest double, as does the whole
    # block, but every entry stays finite, so every row runs to the cap.
    x0 = np.array([[1.5e308, 1.5e308], [-1.7e308, -1.7e308], [1.7e308, 0.0], [1.0, -1.0]])
    counts, reasons = _block_runner(_half_square_norm(), FixedAlpha(1e-3), 1e-12, 50)(x0)
    assert counts.tolist() == [50] * 4 and reasons.tolist() == [_CAP] * 4


@pytest.mark.parametrize("f, bad, good", [
    (quadratic(100.0), [1.7e308, np.inf], [1.0, -3.0, 0.5]),
    (diag_quadratic(1.0, 100.0), [[1.0, 1.7e308], [np.inf, 1.0]],
     [[1.0, 1.0], [3.0, -2.0], [-0.5, 0.25]]),
])
def test_only_the_rows_that_turn_inf_or_nan_are_flagged(f, bad, good):
    # The first update makes the first bad row inf and the second NaN
    # (inf - inf). The good rows keep the counts they get without them.
    x0 = np.concatenate([np.array(good[:1]), np.array(bad), np.array(good[1:])])
    runner = _block_runner(f, FixedAlpha(0.019), 1e-12, 5000, paired_tol=1e-20)
    with np.errstate(all="ignore"):
        first = x0[1:3] - 0.019 * f.elementwise_gradient(x0[1:3])
    assert np.isinf(first[0]).any() and np.isnan(first[1]).any()
    counts, reasons = runner(x0)
    want_counts, want_reasons = runner(np.array(good))
    assert reasons[1:3].tolist() == [_NONFINITE] * 2
    assert np.delete(counts, [1, 2]).tolist() == want_counts.tolist()
    assert np.delete(reasons, [1, 2]).tolist() == want_reasons.tolist()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(tol=st.floats(min_value=5e-324, max_value=1.7e308, allow_subnormal=True))
def test_sqrt_bound_is_the_least_square_whose_root_reaches_tol(tol):
    bound = _sqrt_bound(tol)
    assert math.sqrt(bound) >= tol
    assert bound == 0.0 or math.sqrt(math.nextafter(bound, 0.0)) < tol


def test_grad_norm_test_of_a_block_equals_the_linalg_norm_test():
    # Rows whose norms straddle tol by a few ulps stop at the start point
    # exactly when np.linalg.norm of their gradient is below tol; the tiny
    # step leaves the others in place, for the cap.
    rng = np.random.default_rng(5)
    for tol in (1e-150, 1e-12, 0.3, 7.0, 1e150):
        angle = rng.uniform(0.0, 2.0 * np.pi, 64)
        radius = tol * (1.0 + np.finfo(float).eps * rng.integers(-4, 5, 64))
        x0 = np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])
        counts, reasons = _block_runner(_half_square_norm(), FixedAlpha(1e-300), tol, 1)(x0)
        want = [np.linalg.norm(row) < tol for row in x0]
        assert reasons.tolist() == [_MET if w else _CAP for w in want]
        assert 0 < sum(want) < 64
