"""The engine against an independent reference, and the paper's invariants.

``gd_run``, ``gsgd_run`` and ``run_monte_carlo`` all run the same batched
engine, so comparing them with each other cannot catch a fault they share.
The reference below is a separate implementation of the four schedules,
the Armijo searches and the stopping rules, one sample at a time in plain
Python floats. It calls only the objective's point oracles ``f.value`` and
``f.gradient``, and evaluates f(x) afresh at every search. It writes each
floating-point expression in the engine's operation order, so the counts
must agree exactly.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from passive_gd.bench import MethodSpec, MonteCarloSpec, run_monte_carlo
from passive_gd.errors import ContractionError, DivergenceError, LineSearchError
from passive_gd.functions import diag_quadratic, oscillatory, quadratic
from passive_gd.interconnect import evaluate_delta_bar, run_transformed
from passive_gd.lti import gd_passivity_certificate
from passive_gd.optim import (
    _CAP,
    _FAILED,
    _MET,
    _NONFINITE,
    _PAIRED,
    MAX_BACKTRACKS,
    ArmijoAlpha,
    ArmijoParams,
    ArmijoS,
    FixedAlpha,
    FixedS,
    GradNorm,
    MaxIter,
    PairedGrad,
    Termination,
    _block_runner,
    default_s_cap,
    gd_run,
    gsgd_run,
)
from passive_gd.passivity import (
    Classification,
    Verdict,
    _feedthrough_class,
    certify_step_size,
)
from test_bench import _counting

_FUNCTIONS = {"oscillatory": oscillatory(1.0, 100.0), "quadratic": quadratic(100.0)}


def _reference(f, x, schedule, tol, max_iter, paired_tol=None):
    """``(updates, reason)`` of one run from the scalar ``x``; the reason is
    "met", "paired", "cap", "nonfinite" or "failed". The paired rule, on
    when ``paired_tol`` is given, tests the sum of consecutive gradients
    after the grad-norm test."""
    grad = lambda z: float(f.gradient(np.array([z]))[0])  # noqa: E731
    value = lambda z: float(f.value(np.array([z])))  # noqa: E731
    g, g_prev = grad(x), None
    for k in range(max_iter + 1):
        if abs(g) < tol:
            return k, "met"
        if paired_tol is not None and g_prev is not None:
            gsum = g + g_prev
            if gsum * gsum < paired_tol:
                return k, "paired"
        if k == max_iter:
            return k, "cap"
        if isinstance(schedule, FixedAlpha):
            x = x - schedule.alpha * g
        elif isinstance(schedule, FixedS):
            x = x - schedule.s * grad(schedule.s * x)
        else:
            p = schedule.params
            fx = value(x)
            if isinstance(schedule, ArmijoAlpha):
                t = p.trial if p.trial is not None else 2.0 / f.L
            else:
                cap = schedule.cap if schedule.cap is not None else math.sqrt(2.0 / f.L)
                t = min(p.trial if p.trial is not None else cap, cap)
            if not math.isfinite(fx):
                return k + 1, "failed"
            for _ in range(MAX_BACKTRACKS + 1):
                if isinstance(schedule, ArmijoAlpha):
                    d = g
                    ok = value(x - t * d) <= fx - p.decrease * t * (g * g)
                else:
                    d = grad(t * x)
                    ok = value(x - t * d) <= fx - p.decrease * t * (g * d)
                if ok:
                    break
                t *= p.shrink
            else:
                return k + 1, "failed"
            x = x - t * d
        if not math.isfinite(x):
            return k + 1, "nonfinite"
        g_prev, g = g, grad(x)


_schedules = st.one_of(
    # Fixed steps up to 3x and 1.8x the certified edge, so some runs diverge.
    st.builds(lambda r: FixedAlpha(r * 0.02), st.floats(0.05, 3.0)),
    st.builds(lambda r: FixedS(r * math.sqrt(0.02)), st.floats(-1.8, 1.8).filter(
        lambda r: abs(r) > 0.05)),
    st.builds(
        lambda trial, shrink, decrease: ArmijoAlpha(ArmijoParams(trial, shrink, decrease)),
        st.one_of(st.none(), st.floats(1e-3, 1.0)),
        st.floats(0.1, 0.9),
        st.floats(1e-4, 0.5),
    ),
    st.builds(
        lambda trial, shrink, decrease, cap: ArmijoS(ArmijoParams(trial, shrink, decrease), cap),
        st.one_of(st.none(), st.floats(1e-3, 1.0)),
        st.floats(0.1, 0.9),
        st.floats(1e-4, 0.5),
        st.one_of(st.none(), st.floats(1e-3, 0.5)),
    ),
)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the reference's own overflows
@settings(max_examples=80, derandomize=True, deadline=None)
@given(
    name=st.sampled_from(sorted(_FUNCTIONS)),
    schedule=_schedules,
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1.0, 1e3, 1e5, 1e160]),
)
@example(name="quadratic", schedule=FixedAlpha(0.06), seed=0, scale=1e160)
@example(name="oscillatory", schedule=FixedS(0.25), seed=1, scale=1e160)
def test_engine_counts_equal_the_reference(name, schedule, seed, scale):
    f = _FUNCTIONS[name]
    kind = "gd" if isinstance(schedule, (FixedAlpha, ArmijoAlpha)) else "gsgd"
    spec = MonteCarloSpec(12, -scale, scale, seed, 1e-12, (MethodSpec("m", kind, schedule),),
                          max_iter=300)
    x0 = np.random.default_rng(seed).uniform(-scale, scale, spec.n_samples)
    reference = [_reference(f, float(x), schedule, spec.tol, spec.max_iter) for x in x0]
    counts = [k + 1 if reason == "met" else spec.max_iter for k, reason in reference]
    vals, freq = np.unique(counts, return_counts=True)
    (stat,) = run_monte_carlo(f, spec)
    assert stat.count_histogram == {int(v): int(c) for v, c in zip(vals, freq)}
    assert stat.flagged == sum(reason != "met" for _, reason in reference)

    runner = gd_run if kind == "gd" else gsgd_run
    for x, (k, reason) in list(zip(x0, reference))[:3]:
        if reason == "nonfinite":
            try:
                runner(f, np.array([x]), schedule, [GradNorm(spec.tol), MaxIter(spec.max_iter)])
            except DivergenceError as exc:
                assert str(exc).endswith(f"after {k} update{'' if k == 1 else 's'}")
            else:
                raise AssertionError("no DivergenceError")
            continue
        if reason == "failed":
            try:
                runner(f, np.array([x]), schedule, [GradNorm(spec.tol), MaxIter(spec.max_iter)])
            except LineSearchError:
                continue
            raise AssertionError("no LineSearchError")
        trace = runner(f, np.array([x]), schedule, [GradNorm(spec.tol), MaxIter(spec.max_iter)])
        assert trace.iterations == k
        expected = Termination.GRAD_NORM_MET if reason == "met" else Termination.MAX_ITER_HIT
        assert trace.termination is expected


_CODES = {"met": _MET, "paired": _PAIRED, "cap": _CAP, "nonfinite": _NONFINITE,
          "failed": _FAILED}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the reference's own overflows
@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    name=st.sampled_from(sorted(_FUNCTIONS)),
    schedule=_schedules,
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1.0, 1e3, 1e160]),
    paired_tol=st.sampled_from([1e-20, 1e-6, 1.0, 1e4]),
)
# At alpha = 2/L the quadratic's iterate flips sign, so its gradients cancel.
@example(name="quadratic", schedule=FixedAlpha(0.02), seed=0, scale=1.0, paired_tol=1e-6)
@example(name="oscillatory", schedule=FixedAlpha(0.02), seed=2, scale=1e3, paired_tol=1.0)
def test_engine_paired_stops_equal_the_reference(name, schedule, seed, scale, paired_tol):
    # Block runs with the paired rule on give the reference's counts and
    # stop reasons exactly, and a single run its termination.
    f = _FUNCTIONS[name]
    tol, max_iter = 1e-12, 300
    x0 = np.random.default_rng(seed).uniform(-scale, scale, 12)
    reference = [_reference(f, float(x), schedule, tol, max_iter, paired_tol) for x in x0]
    counts, reasons = _block_runner(f, schedule, tol, max_iter, paired_tol)(x0)
    assert counts.tolist() == [
        k + 1 if reason in ("met", "paired") else max_iter for k, reason in reference]
    assert reasons.tolist() == [_CODES[reason] for _, reason in reference]

    runner = gd_run if isinstance(schedule, (FixedAlpha, ArmijoAlpha)) else gsgd_run
    stops = [GradNorm(tol), PairedGrad(paired_tol), MaxIter(max_iter)]
    ended = [(x, k, reason) for x, (k, reason) in zip(x0, reference)
             if reason in ("met", "paired", "cap")]
    for x, k, reason in ended[:3]:
        trace = runner(f, np.array([x]), schedule, stops)
        assert trace.iterations == k
        assert trace.termination is list(Termination)[_CODES[reason]]


def _vecdot_reference(f, x, alpha, tol, paired_tol, max_iter):
    """``(count, code)`` of one fixed-step run from the row ``x``, its stop
    tests on the row's own ``np.vecdot``: the grad-norm rule first, then
    the sum of consecutive gradients."""
    g, g_prev = f.gradient(x), None
    for k in range(max_iter + 1):
        if math.sqrt(np.vecdot(g, g)) < tol:
            return k + 1, _MET
        if g_prev is not None and np.vecdot(g + g_prev, g + g_prev) < paired_tol:
            return k + 1, _PAIRED
        if k == max_iter:
            return max_iter, _CAP
        x = x - alpha * g
        if not np.isfinite(x).all():
            return max_iter, _NONFINITE
        g_prev, g = g, f.gradient(x)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the reference's own overflows
@pytest.mark.parametrize("alpha", [0.02, 0.019, 0.0200001])
def test_diag_quadratic_stop_codes_equal_a_per_row_vecdot_reference(alpha):
    # Row A = (1e-6, 0) sets tol to its own first gradient norm, so it is
    # not met at k = 0; at k = 1 its gradient is smaller and its gradient
    # sum below paired_tol, so both rules fire and the grad-norm rule wins.
    # Row B sets paired_tol to its own sum at k = 1, so it is not paired
    # there. Row C pairs below it at k = 1, row D overflows. The seeded
    # rows span magnitudes, so some run to the cap.
    f = diag_quadratic(1.0, 100.0)
    rows = np.array([[1e-6, 0.0], [5e-5, 1e-3], [4e-5, 1e-3], [1.0, 1.7e308]])
    g_a, g_b = f.gradient(rows[0]), f.gradient(rows[1])
    tol = math.sqrt(np.vecdot(g_a, g_a))
    g_b1 = f.gradient(rows[1] - alpha * g_b)
    paired_tol = float(np.vecdot(g_b1 + g_b, g_b1 + g_b))
    rng = np.random.default_rng(7)
    seeded = rng.uniform(-1.0, 1.0, (12, 2)) * 10.0 ** rng.integers(-6, 4, (12, 1))
    x0 = np.concatenate([rows, seeded])
    max_iter = 600
    want = [_vecdot_reference(f, x, alpha, tol, paired_tol, max_iter) for x in x0]
    runner = _block_runner(f, FixedAlpha(alpha), tol, max_iter, paired_tol)
    counts, reasons = runner(x0)
    assert list(zip(counts.tolist(), reasons.tolist())) == want
    if alpha == 0.02:
        assert want[:3] == [(2, _MET), (3, _PAIRED), (2, _PAIRED)]
        assert {_CAP, _PAIRED} <= {code for _, code in want[4:]}
    # One-row blocks take the same tests.
    for x, (count, code) in zip(x0, want):
        counts, reasons = runner(x[None])
        assert (counts.tolist(), reasons.tolist()) == ([count], [code])


_BUILTINS = [oscillatory(1.0, 100.0), quadratic(100.0), diag_quadratic(1.0, 100.0)]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    i=st.integers(0, len(_BUILTINS) - 1),
    frac=st.floats(0.01, 1.0),
    sign=st.sampled_from([1.0, -1.0]),
    x0=st.lists(st.floats(-100.0, 100.0), min_size=2, max_size=2),
)
def test_scheduled_run_is_a_rescaled_fixed_step_run(i, frac, sign, x0):
    # x <- x - s*grad(s*x) from x0 is x_bar/s, where x_bar <- x_bar -
    # s^2*grad(x_bar) from s*x0. Floating point makes the two runs differ
    # in the last bits, which the bound of acceptance criterion 9 covers.
    f = _BUILTINS[i]
    s = sign * frac * default_s_cap(f)
    x0 = np.array(x0[: f.dim])
    gs = gsgd_run(f, x0, FixedS(s), [MaxIter(100)])
    gd = gd_run(f, s * x0, FixedAlpha(s * s), [MaxIter(100)])
    scale = 1.0 + float(np.max(np.abs(gd.iterates)))
    assert_allclose(s * gs.iterates, gd.iterates, rtol=0, atol=1e-9 * scale)


def test_single_run_oracle_points():
    # From x0 = 1e4 on oscillatory(1, 100), a run with k updates and T
    # search trials evaluates f at x0 and at each trial, and grad f at x0,
    # at each new iterate and, for the scheduled search, at each trial.
    # The searches start at 2/L and sqrt(2/L) and halve, so accepting
    # start/2^j takes j + 1 trials.
    f = oscillatory(1.0, 100.0)
    cases = [
        (gsgd_run, ArmijoS(), default_s_cap(f), (19, 39, 20)),
        (gd_run, ArmijoAlpha(), 2.0 / f.L, (18, 19, 19)),
    ]
    for runner, schedule, start, (updates, grads, values) in cases:
        counted, points = _counting(f)
        trace = runner(counted, np.array([1e4]), schedule, [GradNorm(1e-12)])
        k = trace.iterations
        trials = sum(1 + round(math.log2(start / t)) for t in trace.step_history)
        assert trace.termination is Termination.GRAD_NORM_MET
        assert points["value"] == 1 + trials
        assert points["grad"] == (1 + trials + k if runner is gsgd_run else 1 + k)
        assert (k, points["grad"], points["value"]) == (updates, grads, values)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    L=st.floats(1e-3, 1e3),
    ratio=st.one_of(st.just(1.0), st.floats(1e-3, 1.0)),
    frac=st.one_of(st.just(1.0), st.floats(1e-6, 1.0 - 1e-9), st.floats(1.0 + 1e-9, 10.0)),
)
@example(L=0.3, ratio=0.9999999999999999, frac=1.0)  # m one ulp below L
def test_certified_step_sizes_end_at_two_over_L(L, ratio, frac):
    # STRONG below 2/L, WEAK at 2/L exactly when m < L, NONE above it.
    m = ratio * L
    alpha = 2.0 / L if frac == 1.0 else frac * 2.0 / L
    verdict = certify_step_size(m, L, alpha).verdict
    if frac < 1.0:
        assert verdict is Verdict.STRONG
    elif frac == 1.0:
        assert verdict is (Verdict.WEAK if m < L else Verdict.NONE)
    else:
        assert verdict is Verdict.NONE


# Step sizes at and around 2/L: the boundary itself, its float neighbours,
# and relative offsets just outside the 1e-12 equality tolerance.
_NEAR_TWO_OVER_L = {
    "at": lambda b: b,
    "ulp above": lambda b: float(np.nextafter(b, np.inf)),
    "ulp below": lambda b: float(np.nextafter(b, 0.0)),
    "2e-12 above": lambda b: b * (1.0 + 2e-12),
    "2e-12 below": lambda b: b * (1.0 - 2e-12),
}


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    L=st.floats(1e-3, 1e3),
    ratio=st.one_of(st.just(1.0), st.floats(1e-3, 1.0)),
    where=st.one_of(st.sampled_from(sorted(_NEAR_TWO_OVER_L)), st.floats(1e-3, 3.0)),
)
def test_verdict_and_loop_simulator_read_one_feedthrough_rule(L, ratio, where):
    # The verdict, the loop simulator's refusal and the standalone solver's
    # refusal all follow the feedthrough class of d = alpha/2.
    m = ratio * L
    b = 2.0 / L
    alpha = _NEAR_TWO_OVER_L[where](b) if isinstance(where, str) else where * b
    d = alpha / 2.0
    cls = _feedthrough_class(L, d)
    verdict = certify_step_size(m, L, alpha).verdict
    assert (verdict is Verdict.STRONG) == (cls is Classification.VSP)
    assert (verdict is Verdict.WEAK) == (cls is Classification.ISP and m < L)
    f = quadratic(L)
    try:
        run_transformed(f, alpha, d, np.ones(1), 3)
    except ContractionError:
        refused = True
    else:
        refused = False
    assert refused == (cls is Classification.NONE)
    try:
        evaluate_delta_bar(f, d, np.zeros(1))
    except ContractionError:
        accepted = False
    else:
        accepted = True
    assert accepted == (cls is Classification.VSP)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    alpha=st.floats(1e-6, 1e3),
    ratio=st.one_of(st.just(1.0), st.floats(1e-3, 1e3)),
)
def test_halfstep_feedthrough_is_the_certificate_edge(alpha, ratio):
    # p = 1/alpha certifies the controller exactly when d >= alpha/2. The
    # check's tolerance, 1e-10 scaled by the block matrix, also accepts d
    # up to about that far below alpha/2; draws in that band are skipped.
    d = ratio * alpha / 2.0
    assume(d >= alpha / 2.0 or alpha - 2.0 * d > 1e-9 * (1.0 + alpha))
    assert gd_passivity_certificate(alpha, d).feasible == (d >= alpha / 2.0)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    i=st.integers(0, len(_BUILTINS) - 1),
    frac=st.floats(1e-6, 1.0 - 1e-9),
    x0=st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=2),
)
def test_loop_steps_are_direct_steps(i, frac, x0):
    # One direct step x - alpha*grad f(x) from each of the loop's own states
    # reproduces the loop's next state bit for bit: without exogenous inputs
    # the elimination makes the loop step and the direct step the same
    # arithmetic, even as alpha nears 2/L.
    f = _BUILTINS[i]
    alpha = frac * 2.0 / f.L
    trace = run_transformed(f, alpha, alpha / 2.0, np.array(x0[: f.dim]), 60)
    x = trace.states + f.minimizer
    direct = x[:-1] - alpha * np.array([f.gradient(xk) for xk in x[:-1]])
    defect = np.linalg.norm(x[1:] - direct, axis=1) / (1.0 + np.linalg.norm(x[:-1], axis=1))
    assert np.max(defect) == 0.0
