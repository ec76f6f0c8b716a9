import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from passive_gd.errors import InvalidParameterError, ShapeError
from passive_gd.functions import diag_quadratic, quadratic
from passive_gd.interconnect import run_transformed
from passive_gd.lti import (
    PositiveRealCertificate,
    _block_matrix,
    _positive_real,
    gd_passivity_certificate,
)


def _controller(alpha, d, dim=1):
    """The controller (I, alpha*I, I, d*I) as one-element stacks of A, B, C, D."""
    eye = np.eye(dim)[None]
    return eye, alpha * eye, eye, d * eye


def _check(A, B, C, D, p):
    """The stacked positive-real test on the one realization in the stacks."""
    feasible, max_eig = _positive_real(A, B, C, D, np.array([p]))
    return bool(feasible[0]), float(max_eig[0])


def test_modified_gd_realization():
    # On the modified controller (I, alpha*I, I, alpha/2*I) the candidate
    # p = 1/alpha zeroes every block: A'PA - P, A'PB - C' and B'PB - 2d.
    for alpha in (0.01, 2.0):
        M = _block_matrix(*_controller(alpha, alpha / 2.0), np.array([1.0 / alpha]))
        assert_allclose(M, np.zeros((1, 2, 2)), atol=1e-15)
    M = _block_matrix(*_controller(0.01, 0.003), np.array([100.0]))
    assert_allclose(M[0], [[0.0, 0.0], [0.0, 0.004]], atol=1e-15)
    with pytest.raises(InvalidParameterError):
        gd_passivity_certificate(0.01, 0.0)


# The controller's state-space step as the loop runs it: xi' = xi + alpha*u1
# and y1 = xi + d*u1, with u1 = r1 - y2.


def test_simulate_one_step():
    # y2 = 0.2 * 5 = 1, so u1 = -1 and xi' = 5 - 1.
    trace = run_transformed(quadratic(0.2), 1.0, 0.0, np.array([5.0]), 1)
    assert_allclose(trace.u1, [[-1.0]])
    assert_allclose(trace.states, [[5.0], [4.0]])
    assert_allclose(trace.y1, [[5.0]])


def test_simulate_zero_equilibrium():
    trace = run_transformed(diag_quadratic(1.0, 2.0), 0.3, 0.15, np.zeros(2), 6)
    assert_allclose(trace.states, np.zeros((7, 2)))
    for a in (trace.u1, trace.y1, trace.u2, trace.y2):
        assert_allclose(a, np.zeros((6, 2)))


def test_simulate_feedthrough_at_zero_state():
    # At xi = 0 with r2 = 0 the gradient block reads 0, so u1 = r1 = 2 and
    # y1 = d*u1 = 1.
    trace = run_transformed(quadratic(1.0), 1.0, 0.5, np.zeros(1), 1, r1=[[2.0]])
    assert_allclose(trace.u1, [[2.0]])
    assert_allclose(trace.y1, [[1.0]])


def test_simulate_linearity():
    # With a quadratic the loop is linear in its start and exogenous inputs.
    rng = np.random.default_rng(11)
    f = diag_quadratic(1.0, 2.0)
    a, b = 1.7, -0.4
    runs = []
    for _ in range(2):
        x0 = rng.standard_normal(2)
        r1, r2 = (rng.standard_normal((8, 2)) for _ in range(2))
        runs.append((x0, r1, r2))
    combined = tuple(a * p + b * q for p, q in zip(*runs))
    for d in (0.0, 0.025):
        t1, t2, t3 = (
            run_transformed(f, 0.05, d, x0, 8, r1, r2)
            for x0, r1, r2 in (*runs, combined)
        )
        for name in ("u1", "y1", "u2", "y2", "states"):
            want = a * getattr(t1, name) + b * getattr(t2, name)
            assert_allclose(getattr(t3, name), want, atol=1e-12)


def test_simulate_dimension_mismatch():
    f = diag_quadratic(1.0, 2.0)
    with pytest.raises(ShapeError):
        run_transformed(f, 0.5, 0.0, np.zeros(2), 3, r1=np.zeros((3, 1)))
    with pytest.raises(ShapeError):
        run_transformed(f, 0.5, 0.0, np.zeros(2), 3, r2=np.zeros((3, 1)))
    with pytest.raises(ShapeError):
        run_transformed(f, 0.5, 0.0, np.zeros(1), 3)


def test_strictly_proper_system_never_certifies():
    # A zero feedthrough leaves B'PB positive definite, so no scalar
    # storage matrix can work.
    for alpha in (0.01, 0.5, 1.0):
        for p in (0.1, 1.0, 1.0 / alpha, 100.0):
            feasible, eig = _check(*_controller(alpha, 0.0, dim=2), p)
            assert not feasible and eig > 0.0


def test_positive_real_check_boundary_cases():
    feasible, eig = _check(*_controller(0.01, 0.005), 100.0)
    assert feasible and abs(eig) < 1e-12
    feasible, eig = _check(*_controller(0.01, 0.004), 100.0)
    assert not feasible and eig > 1e-4
    feasible, _ = _check(*_controller(1.0, 1.0), 1.0)
    assert feasible


def test_positive_real_check_requires_square():
    A, B, C, D = np.eye(1), np.ones((1, 2)), np.ones((1, 1)), np.zeros((1, 2))
    with pytest.raises(ShapeError):
        _check(A[None], B[None], C[None], D[None], 1.0)


def test_certificate_examples():
    cert = gd_passivity_certificate(0.01, 0.005)
    assert isinstance(cert, PositiveRealCertificate) and cert.feasible
    assert cert.p_scalar == pytest.approx(100.0)
    report = gd_passivity_certificate(0.01, 0.0049)
    assert isinstance(report, PositiveRealCertificate)
    assert not report.feasible and report.max_eigenvalue_M > 0.0
    cert2 = gd_passivity_certificate(2.0, 1.5)
    assert cert2.feasible and cert2.p_scalar == pytest.approx(0.5)
    with pytest.raises(InvalidParameterError):
        gd_passivity_certificate(-1.0, 0.5)


def test_certificate_matches_halfstep_predicate_on_grid():
    # Feasibility must coincide with d >= alpha/2 away from the boundary.
    for alpha in np.geomspace(1e-3, 1.0, 20):
        for ratio in np.linspace(0.1, 2.0, 21):
            d = ratio * alpha
            if abs(d - alpha / 2.0) <= 1e-12 * alpha:
                continue
            result = gd_passivity_certificate(alpha, d)
            assert result.feasible == (d >= alpha / 2.0), (alpha, d)


def test_certificate_soundness():
    rng = np.random.default_rng(5)
    for _ in range(50):
        alpha = float(rng.uniform(1e-3, 1.0))
        d = alpha / 2.0 * float(rng.uniform(1.0, 4.0))
        result = gd_passivity_certificate(alpha, d)
        assert result.feasible
        ok, eig = _check(*_controller(alpha, d), result.p_scalar)
        assert ok and eig <= 1e-10 * (1.0 + max(1.0, result.p_scalar))


def test_certified_controller_dissipation_bound():
    # For a certified controller (I, alpha*I, I, d*I), the truncated inner
    # product <u, y>_T is at least -p/2 * ||xi0||^2 on any input.
    rng = np.random.default_rng(17)
    for _ in range(20):
        alpha = float(rng.uniform(0.01, 1.0))
        d = alpha / 2.0 * float(rng.uniform(1.0, 3.0))
        cert = gd_passivity_certificate(alpha, d)
        assert cert.feasible
        u = rng.standard_normal((20, 2)) * 3.0
        xi = xi0 = rng.standard_normal(2)
        y = np.empty_like(u)
        for k, uk in enumerate(u):
            y[k] = xi + d * uk
            xi = xi + alpha * uk
        beta = -0.5 * cert.p_scalar * float(np.dot(xi0, xi0))
        for T in (1, 5, 20):
            ip = float(np.sum(u[:T] * y[:T]))
            assert ip >= beta - 1e-9 * (1.0 + abs(beta))


def _bits(cert):
    """A certificate's fields, with each float as its IEEE-754 bytes."""
    return (struct.pack("d", cert.p_scalar), struct.pack("d", cert.max_eigenvalue_M),
            cert.feasible)


# The 12 x 13 grid that verify's passivity suite checks in one call.
_GRID_ALPHA = np.repeat(np.geomspace(1e-3, 1.0, 12), 13)
_GRID_D = np.tile(np.linspace(0.1, 2.0, 13), 12) * _GRID_ALPHA


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(1e-6, 1e2),
            st.one_of(st.just(0.5), st.floats(1e-3, 4.0)),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_block_certificate_equals_the_scalar_calls(pairs):
    # A ratio of exactly 0.5 gives d = alpha/2, the boundary of the check.
    alpha = np.array([a for a, _ in pairs] + list(_GRID_ALPHA))
    d = np.array([a * r for a, r in pairs] + list(_GRID_D))
    block = gd_passivity_certificate(alpha, d)
    assert len(block) == len(alpha)
    for a, dd, cert in zip(alpha, d, block):
        assert isinstance(cert, PositiveRealCertificate)
        assert _bits(cert) == _bits(gd_passivity_certificate(float(a), float(dd)))


def test_block_certificate_on_the_verify_grid_agrees_with_the_half_step_rule():
    block = gd_passivity_certificate(_GRID_ALPHA, _GRID_D)
    assert [c.feasible for c in block] == list(_GRID_D >= _GRID_ALPHA / 2.0)
    assert gd_passivity_certificate(np.array([]), np.array([])) == []


@pytest.mark.parametrize("alpha, d", [
    (np.array([0.1, 0.2]), np.array([0.05])),
    (0.1, np.array([0.05])),
    (np.array([0.1]), 0.05),
    (np.full((2, 2), 0.1), np.full((2, 2), 0.05)),
])
def test_block_certificate_refuses_mismatched_shapes(alpha, d):
    with pytest.raises(ShapeError, match="two scalars or two"):
        gd_passivity_certificate(alpha, d)


def _reference_check(A, B, C, D, p):
    """The positive-real test written out for one matrix."""
    P = p * np.eye(len(A))
    M = np.block([
        [A.T @ P @ A - P, A.T @ P @ B - C.T],
        [(A.T @ P @ B - C.T).T, B.T @ P @ B - (D + D.T)],
    ])
    M = 0.5 * (M + M.T)
    max_eig = float(np.linalg.eigvalsh(M)[-1])
    return max_eig <= 1e-10 * (1.0 + float(np.max(np.abs(M)))), max_eig


def _assert_check_equals_reference(A, B, C, D, p):
    """The stacked test on one-element stacks against the reference, bit for bit."""
    ok, eig = _check(A[None], B[None], C[None], D[None], p)
    want_ok, want_eig = _reference_check(A, B, C, D, p)
    assert ok is want_ok
    assert struct.pack("d", eig) == struct.pack("d", want_eig)


def test_positive_real_check_equals_a_per_matrix_reference_on_dim_2():
    rng = np.random.default_rng(29)
    for _ in range(200):
        alpha = float(10 ** rng.uniform(-4, 1))
        p = float(10 ** rng.uniform(-2, 3))
        for d in (alpha * float(rng.uniform(0.01, 3.0)), alpha / 2.0, 0.0):
            _assert_check_equals_reference(*(m[0] for m in _controller(alpha, d, 2)), p)
    # Just below d = alpha/2 the largest eigenvalue is alpha*r, which crosses
    # the scaled tolerance 1e-10 at r = 1e-8.
    for r in np.geomspace(1e-12, 1e-4, 17):
        _assert_check_equals_reference(
            *(m[0] for m in _controller(0.01, 0.005 * (1 - r), 2)), 100.0)


def test_positive_real_check_equals_a_per_matrix_reference_on_general_systems():
    rng = np.random.default_rng(31)
    for _ in range(200):
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        A, B = rng.standard_normal((n, n)), rng.standard_normal((n, m))
        C, D = rng.standard_normal((m, n)), rng.standard_normal((m, m))
        _assert_check_equals_reference(A, B, C, D, float(10 ** rng.uniform(-2, 2)))
