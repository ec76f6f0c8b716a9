import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from passive_gd import functions as functions_mod
from passive_gd.errors import InvalidParameterError, ShapeError
from passive_gd.functions import (
    _BLOCK_ROWS,
    SectorFunction,
    _cocoercivity_block,
    _row_dot,
    _row_norms,
    builtin_function,
    central_difference_gradient,
    diag_quadratic,
    oscillatory,
    quadratic,
    sector_membership_scan,
)
from passive_gd.interconnect import evaluate_delta_bar, run_transformed
from passive_gd.verify import suite_sector


@pytest.mark.parametrize("shape", [(1,), (1, 1)])
def test_the_minimizer_is_a_copy_of_the_callers_array(shape):
    # The stationarity check passed at 0; a later write by the caller
    # must not move the minimizer, nor make the caller's array read-only.
    q = quadratic(1.0)
    m = np.zeros(shape)
    f = SectorFunction(1, 1.0, 1.0, m, q.value, q.gradient)
    m[0] = 3.0
    assert f.minimizer.tolist() == [0.0]
    assert m.flags.writeable


def test_oscillatory_at_minimizer():
    f = oscillatory(1.0, 100.0)
    assert f.value(np.zeros(1)) == pytest.approx(0.0, abs=1e-15)
    assert_allclose(f.gradient(np.zeros(1)), [0.0])


def test_oscillatory_derivative_at_pi():
    # Analytic derivative at pi: the sine term vanishes, leaving (L+m)/2 * pi.
    f = oscillatory(1.0, 100.0)
    expected = 101.0 / 2.0 * np.pi
    assert f.gradient(np.array([np.pi]))[0] == pytest.approx(expected, rel=1e-14)
    fd = central_difference_gradient(f, np.array([np.pi]))
    assert fd[0] == pytest.approx(expected, rel=1e-8)


def test_oscillatory_value_at_pi_against_quadrature():
    f = oscillatory(1.0, 100.0)
    direct = (99.0 / 4.0) * ((101.0 / 99.0) * np.pi**2 + 2.0 * np.pi)
    assert f.value(np.array([np.pi])) == pytest.approx(direct, rel=1e-14)
    # Independent route: integrate the analytic derivative from 0 to pi.
    integral, err = quad(lambda t: f.gradient(np.array([t]))[0], 0.0, np.pi)
    assert err < 1e-9
    assert integral == pytest.approx(direct, rel=1e-10)


def test_oscillatory_requires_strict_sector():
    with pytest.raises(InvalidParameterError):
        oscillatory(1.0, 1.0)
    with pytest.raises(InvalidParameterError):
        oscillatory(2.0, 1.0)


def test_quadratic_examples():
    f = quadratic(100.0)
    assert f.value(np.array([1.0])) == 50.0
    assert f.gradient(np.array([1.0]))[0] == 100.0
    g = quadratic(2.0)
    assert g.value(np.array([-3.0])) == 9.0
    assert g.gradient(np.array([-3.0]))[0] == -6.0
    assert quadratic(1.0).value(np.zeros(1)) == 0.0
    with pytest.raises(InvalidParameterError):
        quadratic(0.0)


def test_diag_quadratic_examples():
    f = diag_quadratic(1.0, 100.0)
    assert f.value(np.array([1.0, 1.0])) == pytest.approx(50.5)
    assert_allclose(f.gradient(np.array([1.0, 1.0])), [1.0, 100.0])
    assert_allclose(f.gradient(np.zeros(2)), [0.0, 0.0])
    g = diag_quadratic(1.0, 2.0)
    assert g.value(np.array([2.0, 0.0])) == pytest.approx(2.0)
    assert_allclose(g.gradient(np.array([2.0, 0.0])), [2.0, 0.0])
    with pytest.raises(InvalidParameterError):
        diag_quadratic(2.0, 2.0)


def _shifted_quadratic(l, x_star):
    """l*(x - x*)^2/2, a scalar quadratic minimized away from 0."""
    return SectorFunction(
        dim=1, m=l, L=l, minimizer=np.array([x_star]),
        value=lambda x: 0.5 * l * float((x[0] - x_star) ** 2),
        gradient=lambda x: l * (np.asarray(x, dtype=float) - x_star),
    )


def test_shifted_gradient_maps_zero_to_zero():
    # The loop's gradient block is the shifted gradient grad f(. + x*): one
    # untransformed step from x* gives y2 = grad f(0 + x*) = 0.
    for f in (oscillatory(1.0, 100.0), quadratic(100.0), diag_quadratic(1.0, 100.0),
              _shifted_quadratic(3.0, 2.0)):
        trace = run_transformed(f, 0.005, 0.0, f.minimizer, 1)
        assert_allclose(trace.y2, np.zeros((1, f.dim)))
        assert_allclose(trace.states[0], np.zeros(f.dim))
    assert run_transformed(quadratic(100.0), 0.005, 0.0, np.array([1.0]), 1).y2[0, 0] == 100.0
    assert_allclose(
        run_transformed(diag_quadratic(1.0, 100.0), 0.005, 0.0, np.ones(2), 1).y2,
        [[1.0, 100.0]],
    )
    # Away from a zero minimizer the shift is what the block evaluates.
    trace = run_transformed(_shifted_quadratic(3.0, 2.0), 0.005, 0.0, np.array([3.0]), 1)
    assert trace.states[0, 0] == 1.0 and trace.y2[0, 0] == 3.0


def test_shifted_gradient_shape_error():
    with pytest.raises(ShapeError):
        run_transformed(quadratic(1.0), 0.5, 0.0, np.array([1.0, 2.0]), 1)
    with pytest.raises(ShapeError):
        evaluate_delta_bar(quadratic(1.0), 0.5, np.array([1.0, 2.0]))


def _residual_at(f, x):
    """The raw residual at one point: the one-row case of the block."""
    residual, _ = _cocoercivity_block(f, f.check_point(x)[None, :])
    return float(residual[0])


def test_cocoercivity_residual_examples():
    # For m = L the sector inequality is an identity.
    assert _residual_at(quadratic(1.0), np.array([2.0])) == pytest.approx(
        0.0, abs=1e-14
    )
    f = oscillatory(1.0, 100.0)
    assert _residual_at(f, np.zeros(1)) == pytest.approx(0.0, abs=1e-14)
    assert _residual_at(f, np.array([3.0])) >= 0.0


def test_cocoercivity_residual_nonnegative_at_random_points():
    rng = np.random.default_rng(2)
    for f in (oscillatory(1.0, 100.0), quadratic(3.0), diag_quadratic(1.0, 100.0)):
        for _ in range(200):
            x = rng.uniform(-1e5, 1e5, f.dim)
            g = np.asarray(f.gradient(x))
            scale = 1.0 + float(np.dot(x, x)) + float(np.dot(g, g))
            assert _residual_at(f, x) >= -1e-9 * scale


def _scan_draw(f, lo, hi, n, seed):
    """The scan's draw, with the raw residual and scale at each point."""
    points = np.random.default_rng(seed).uniform(lo, hi, (n, f.dim))
    return (points, *_cocoercivity_block(f, points))


def test_sector_membership_scan():
    f = oscillatory(1.0, 100.0)
    worst, argmin = sector_membership_scan(f, -1e5, 1e5, 10_000, seed=0)
    points, residual, scale = _scan_draw(f, -1e5, 1e5, 10_000, 0)
    i = int(np.argmin(residual / scale))
    assert worst == float(np.min(residual / scale)) and np.array_equal(argmin, points[i])
    assert worst >= -1e-9
    j = int(np.argmin(residual))
    assert residual[j] >= -1e-6 * (1.0 + points[j, 0] ** 2)
    q = quadratic(1.0)
    worst_q, _ = sector_membership_scan(q, -10.0, 10.0, 1000, seed=1)
    _, residual_q, _ = _scan_draw(q, -10.0, 10.0, 1000, 1)
    assert abs(worst_q) <= 1e-9 and np.max(np.abs(residual_q)) <= 1e-9
    dq = diag_quadratic(1.0, 100.0)
    worst_d, _ = sector_membership_scan(dq, -1.0, 1.0, 1000, seed=2)
    _, residual_d, _ = _scan_draw(dq, -1.0, 1.0, 1000, 2)
    assert worst_d >= -1e-12 and np.min(residual_d) >= -1e-12
    with pytest.raises(InvalidParameterError):
        sector_membership_scan(f, 1.0, -1.0, 10, seed=0)
    with pytest.raises(InvalidParameterError):
        sector_membership_scan(f, -1.0, 1.0, 0, seed=0)
    with pytest.raises(InvalidParameterError, match="seed must be >= 0, got -1"):
        sector_membership_scan(f, -1.0, 1.0, 10, seed=-1)


def _one_block_scan(f, lo, hi, n, seed, block=_cocoercivity_block):
    """The reference scan: one draw of all ``n`` points and one residual pass."""
    points = np.random.default_rng(seed).uniform(lo, hi, (n, f.dim))
    residual, scale = block(f, points)
    normalized = residual / scale
    i = int(np.argmin(normalized))
    return float(normalized[i]), points[i]


def _assert_same_scan(got, want):
    """Value and point bit for bit, a NaN value matching only a NaN."""
    assert np.array_equal(np.float64(got[0]), np.float64(want[0]), equal_nan=True)
    assert np.signbit(got[0]) == np.signbit(want[0])
    assert got[1].tobytes() == want[1].tobytes()


B = _BLOCK_ROWS


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflowing range
@pytest.mark.parametrize("n", [B - 1, B, B + 1, 3 * B + 5])
@pytest.mark.parametrize("make", [lambda: oscillatory(1.0, 100.0),
                                  lambda: diag_quadratic(1.0, 100.0)],
                         ids=("oscillatory", "diag-quadratic"))
def test_streamed_scan_equals_one_block(make, n):
    # The scan draws and scans B rows at a time; its minimum and point are
    # those of one draw of all n points, also where residuals are NaN.
    f = make()
    for (lo, hi), seed in (((-1e5, 1e5), 3), ((-1e160, 1e160), 4)):
        got = sector_membership_scan(f, lo, hi, n, seed)
        _assert_same_scan(got, _one_block_scan(f, lo, hi, n, seed))
    assert np.isnan(got[0])


@pytest.mark.parametrize("make", [lambda: oscillatory(1.0, 100.0),
                                  lambda: diag_quadratic(1.0, 100.0)],
                         ids=("oscillatory", "diag-quadratic"))
def test_scan_of_an_overflowing_range_does_not_warn(make):
    # Squares of +-1e160 overflow, so the residual is NaN by design; the
    # scan returns the NaN and its point without a numpy warning.
    f = make()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sector_membership_scan(f, -1e160, 1e160, 1000, 0)
    with np.errstate(all="ignore"):
        want = _one_block_scan(f, -1e160, 1e160, 1000, 0)
    assert np.isnan(got[0])
    _assert_same_scan(got, want)


def _tied_block(nan_above):
    """A stand-in residual in {0, -1, -2, -3} at points in [0, 1), with
    scale 1, so the minimum -3 recurs in every block; NaN above ``nan_above``."""

    def block(f, points):
        x = points[:, 0]
        residual = np.where(x > nan_above, np.nan, -np.floor(4.0 * x))
        return residual, np.ones_like(residual)

    return block


@pytest.mark.parametrize("nan_above", [1.0, 0.999], ids=("ties", "nan"))
def test_streamed_scan_keeps_the_first_tie_and_the_first_nan(monkeypatch, nan_above):
    f = oscillatory(1.0, 100.0)
    n = 3 * B + 5
    block = _tied_block(nan_above)
    want = _one_block_scan(f, 0.0, 1.0, n, 5, block)
    # The reference's point recurs in later blocks: a tie or a NaN there.
    x = np.random.default_rng(5).uniform(0.0, 1.0, n)
    hits = np.flatnonzero(x > nan_above if nan_above < 1.0 else x >= 0.75)
    assert hits[0] < B <= hits[-1]
    assert x[hits[0]] == want[1][0]
    monkeypatch.setattr(functions_mod, "_cocoercivity_block", block)
    _assert_same_scan(sector_membership_scan(f, 0.0, 1.0, n, 5), want)


def test_sector_scan_memory_does_not_grow_with_the_sample_count():
    # One draw of 10**6 points peaked at 48.8 MB; a block of B rows needs
    # about 2 MB whatever the sample count.
    f = oscillatory(1.0, 100.0)
    tracemalloc.start()
    try:
        sector_membership_scan(f, -1e5, 1e5, 10**6, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6


@pytest.mark.parametrize("seed", [0, 7])
def test_sector_suite_runs_the_membership_scan(seed):
    checks = {c.label: c.value for c in suite_sector(seed).checks}
    for f in (oscillatory(1.0, 100.0), quadratic(100.0), diag_quadratic(1.0, 100.0)):
        n = 100_000 if f.dim == 1 else 10_000
        worst, _ = sector_membership_scan(f, -1e5, 1e5, n, seed)
        assert checks[f"{f.name}: normalized co-coercivity residual"] == worst


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    for f in (oscillatory(1.0, 100.0), quadratic(7.0), diag_quadratic(0.5, 20.0)):
        for _ in range(50):
            x = rng.uniform(-20.0, 20.0, f.dim)
            g = np.asarray(f.gradient(x))
            fd = central_difference_gradient(f, x)
            assert np.linalg.norm(g - fd) <= 1e-6 * (1.0 + np.linalg.norm(g))


def _point_central_difference(f, x):
    """The finite difference of one point, with one ``f.value`` call per side."""
    g = np.empty_like(x)
    for i in range(f.dim):
        h = 1e-6 * (1.0 + abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f.value(xp) - f.value(xm)) / (2.0 * h)
    return g


def _point_oracle_copy(f):
    """``f`` without its block callables, so its blocks go row by row."""
    return SectorFunction(f.dim, f.m, f.L, f.minimizer, f.value, f.gradient, name=f.name)


@pytest.mark.parametrize("f", [oscillatory(1.0, 100.0), quadratic(7.0),
                               diag_quadratic(0.5, 20.0)], ids=lambda f: f.name)
def test_block_central_difference_equals_the_stacked_point_calls(f):
    x = np.random.default_rng(9).uniform(-20.0, 20.0, (300, f.dim))
    block = central_difference_gradient(f, x)
    points = np.array([central_difference_gradient(f, row) for row in x])
    reference = np.array([_point_central_difference(f, row) for row in x])
    assert block.shape == x.shape
    assert np.array_equal(block, points)
    assert np.array_equal(block, reference)
    assert np.array_equal(central_difference_gradient(_point_oracle_copy(f), x), block)


def test_central_difference_refuses_a_block_of_the_wrong_width():
    with pytest.raises(ShapeError):
        central_difference_gradient(diag_quadratic(1.0, 100.0), np.ones((4, 3)))
    with pytest.raises(ShapeError):
        central_difference_gradient(quadratic(1.0), np.ones(3))


def test_oscillatory_is_nonconvex():
    f = oscillatory(1.0, 100.0)
    h = 1e-4
    x = np.pi
    second = (
        f.value(np.array([x + h]))
        - 2.0 * f.value(np.array([x]))
        + f.value(np.array([x - h]))
    ) / h**2
    assert second < -50.0


def test_elementwise_callables_agree_with_pointwise():
    # Bit for bit, at magnitudes from 1e-150 to 1e150: row i of a block
    # maps to the point oracle at row i. A one-dimensional block is flat,
    # any other is (n, dim).
    rng = np.random.default_rng(0)
    for f in (oscillatory(1.0, 100.0), quadratic(100.0), diag_quadratic(1.0, 100.0)):
        shape = 400 if f.dim == 1 else (400, f.dim)
        xs = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-150.0, 150.0, shape)
        vals = f.elementwise_value(xs)
        grads = f.elementwise_gradient(xs)
        assert vals.shape == (400,) and grads.shape == xs.shape, f.name
        for i, x in enumerate(xs):
            point = np.atleast_1d(x)
            assert np.float64(f.value(point)).tobytes() == vals[i].tobytes(), f.name
            assert f.gradient(point).tobytes() == np.atleast_1d(grads[i]).tobytes(), f.name


def _same_bits(a, b):
    """NaN in the same places and the same bits everywhere else."""
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and a[~nan].tobytes() == b[~nan].tobytes())


_EDGE_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, np.inf, -np.inf, np.nan]),
    st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([-1.0, 1.0]),
              st.integers(-300, 308)),
    st.floats(),
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(values=st.lists(_EDGE_VALUES, min_size=1, max_size=16))
def test_fused_oracle_equals_the_block_callables(values):
    # The fused oracle returns each block callable's result bit for bit,
    # from 0 and subnormals up to 1e308, infinities and NaN. A copy made
    # by dataclasses.replace has none, so a copy with counted oracles
    # sees every evaluation. The quadratics have none.
    f = oscillatory(1.0, 100.0)
    xs = np.array(values)
    with np.errstate(all="ignore"):
        vals, grads = f._value_and_gradient(xs)
        assert _same_bits(vals, f.elementwise_value(xs))
        assert _same_bits(grads, f.elementwise_gradient(xs))
    assert dataclasses.replace(f, name="copy")._value_and_gradient is None
    assert quadratic(100.0)._value_and_gradient is None
    assert diag_quadratic(1.0, 100.0)._value_and_gradient is None


@settings(max_examples=200, derandomize=True, deadline=None)
@given(values=st.lists(_EDGE_VALUES, min_size=2, max_size=16))
def test_one_row_blocks_keep_the_oracle_bits(values):
    # A one-row block, (1, dim) or a flat one-element block at dim 1, gives
    # the bits of the point oracle and of its row in the full block, from
    # signed zeros and subnormals to infinities and NaN. diag-quadratic
    # multiplies a one-row block by a coefficient row of its own shape.
    for f in (oscillatory(1.0, 100.0), quadratic(100.0), diag_quadratic(1.0, 100.0)):
        n = len(values) // f.dim
        xs = np.array(values[: n * f.dim])
        xs = xs if f.dim == 1 else xs.reshape(n, f.dim)
        with np.errstate(all="ignore"):
            vals, grads = f.elementwise_value(xs), f.elementwise_gradient(xs)
            for i in range(n):
                one = xs[i:i + 1]
                v, g = f.elementwise_value(one), f.elementwise_gradient(one)
                assert v.shape == (1,) and g.shape == one.shape, f.name
                point = one.reshape(-1)
                assert (v.tobytes() == vals[i:i + 1].tobytes()
                        == np.float64(f.value(point)).tobytes()), f.name
                assert g.tobytes() == grads[i:i + 1].tobytes() == f.gradient(point).tobytes(), f.name


@settings(max_examples=200, derandomize=True, deadline=None)
@given(bounds=st.lists(st.floats(1e-300, 1e300), min_size=2, max_size=2, unique=True),
       values=st.lists(_EDGE_VALUES, min_size=1, max_size=16))
def test_oscillatory_oracles_are_the_docstring_formulas(bounds, values):
    # The block, point and fused oracles take their coefficients as 0-d
    # arrays; each returns the bits of the docstring's formula written
    # with Python-float coefficients, in the same operand order, NaN
    # payloads and signed zeros included.
    m, L = sorted(bounds)
    f = oscillatory(m, L)

    def value(x):
        return (L - m) / 4.0 * (
            (L + m) / (L - m) * x * x + 2.0 * np.sin(x) - 2.0 * x * np.cos(x)
        )

    def gradient(x):
        return 0.5 * (L + m) * x + 0.5 * (L - m) * x * np.sin(x)

    xs = np.array(values)
    with np.errstate(all="ignore"):
        fused = f._value_and_gradient(xs)
        assert f.elementwise_value(xs).tobytes() == fused[0].tobytes() == value(xs).tobytes()
        assert (f.elementwise_gradient(xs).tobytes() == fused[1].tobytes()
                == gradient(xs).tobytes())
        for x in xs:
            point = np.array([x])
            assert np.float64(f.value(point)).tobytes() == value(point).tobytes()
            assert f.gradient(point).tobytes() == gradient(point).tobytes()


_WIDTH_ONE_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-160, 1e-160, 1.0,
                    -2.5, 1e200, -1e200, 1.7e308, np.inf, -np.inf, np.nan]


@pytest.mark.parametrize("lead", [(), (3,)])
def test_width_one_row_dot_and_norms_equal_vecdot_and_linalg_norm(lead):
    # Blocks of width-1 rows take the flat product plus +0.0; np.vecdot
    # sums from +0.0, so -2.5 * 0.0 must come out +0.0, as it does there.
    # Every pair of edge values (signed zeros, subnormals, overflowing
    # squares, infinities, NaN) and a seeded draw, as (n, 1) blocks and
    # as (steps, n, 1) stacks.
    a, b = (v.reshape(-1) for v in np.meshgrid(_WIDTH_ONE_EDGES, _WIDTH_ONE_EDGES))
    draw = np.random.default_rng(21).standard_normal((2, 64)) * 10.0 ** np.arange(-4, 4, 0.125)
    a, b = np.concatenate([a, draw[0]]), np.concatenate([b, draw[1]])
    n = len(a) // 3 * 3 if lead else len(a)
    a, b = a[:n].reshape(*lead, -1, 1), b[:n].reshape(*lead, -1, 1)
    with np.errstate(all="ignore"):
        assert _same_bits(_row_dot(a, b), np.vecdot(a, b))
        assert _same_bits(_row_dot(a, a), np.vecdot(a, a))
        norms = np.array([np.linalg.norm(row) for row in a.reshape(-1, 1)])
        assert _same_bits(_row_norms(a), norms.reshape(a.shape[:-1]))
    assert not np.signbit(_row_dot(np.array([[-2.5]]), np.array([[0.0]]))[0])


def test_builtin_lookup():
    assert builtin_function("oscillatory", 1.0, 100.0).name == "oscillatory"
    assert builtin_function("quadratic", 1.0, 100.0).m == 100.0
    assert builtin_function("diag-quadratic", 1.0, 100.0).dim == 2
    with pytest.raises(InvalidParameterError):
        builtin_function("cubic", 1.0, 100.0)
