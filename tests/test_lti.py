import numpy as np
import pytest
from numpy.testing import assert_allclose

from passive_gd.errors import InvalidParameterError, ShapeError
from passive_gd.lti import (
    InfeasibilityReport,
    PositiveRealCertificate,
    StateSpaceRealization,
    gd_passivity_certificate,
    gd_realization,
    modified_gd_realization,
    positive_real_check,
    simulate,
)
from passive_gd.signals import Signal, inner_product_truncated


def test_gd_realization_scalar():
    ss = gd_realization(0.01, dim=1)
    assert_allclose(ss.A, [[1.0]])
    assert_allclose(ss.B, [[0.01]])
    assert_allclose(ss.C, [[1.0]])
    assert_allclose(ss.D, [[0.0]])
    assert ss.is_strictly_proper


def test_gd_realization_identity_blocks():
    ss = gd_realization(1.0, dim=2)
    assert_allclose(ss.A, np.eye(2))
    assert_allclose(ss.B, np.eye(2))
    assert_allclose(ss.C, np.eye(2))
    assert_allclose(ss.D, np.zeros((2, 2)))


def test_gd_realization_rejects_nonpositive_alpha():
    with pytest.raises(InvalidParameterError):
        gd_realization(0.0)
    with pytest.raises(InvalidParameterError):
        gd_realization(-1.0)


def test_modified_gd_realization():
    ss = modified_gd_realization(0.01, 0.005, dim=1)
    assert_allclose(ss.D, [[0.005]])
    assert ss.alpha == 0.01 and ss.d == 0.005
    ss2 = modified_gd_realization(2.0, 1.0, dim=1)
    assert_allclose(ss2.D, [[1.0]])
    with pytest.raises(InvalidParameterError):
        modified_gd_realization(0.01, 0.0)


def test_realization_shape_validation():
    with pytest.raises(ShapeError):
        StateSpaceRealization(np.eye(2), np.ones((3, 1)), np.eye(2), np.zeros((2, 1)))


def test_simulate_one_step():
    ss = gd_realization(1.0, dim=1)
    states, y = simulate(ss, Signal(np.array([[-1.0]])), np.array([5.0]))
    assert_allclose(states.samples, [[5.0], [4.0]])
    assert_allclose(y.samples, [[5.0]])


def test_simulate_zero_equilibrium():
    ss = modified_gd_realization(0.3, 0.2, dim=2)
    states, y = simulate(ss, Signal.zeros(2, 6), np.zeros(2))
    assert_allclose(states.samples, np.zeros((7, 2)))
    assert_allclose(y.samples, np.zeros((6, 2)))


def test_simulate_feedthrough_at_zero_state():
    ss = modified_gd_realization(1.0, 0.5, dim=1)
    _, y = simulate(ss, Signal(np.array([[2.0]])), np.zeros(1))
    assert_allclose(y.samples, [[1.0]])


def test_simulate_general_realization_hand_computed():
    ss = StateSpaceRealization(
        np.array([[0.0, 1.0], [0.0, 0.0]]),
        np.array([[0.0], [1.0]]),
        np.array([[1.0, 0.0]]),
        np.array([[2.0]]),
    )
    u = Signal(np.array([[1.0], [3.0]]))
    states, y = simulate(ss, u, np.array([1.0, 2.0]))
    assert_allclose(states.samples, [[1.0, 2.0], [2.0, 1.0], [1.0, 3.0]])
    assert_allclose(y.samples, [[3.0], [8.0]])


def test_strictly_proper_system_never_certifies():
    # A zero feedthrough leaves B'PB positive definite, so no scalar
    # storage matrix can work.
    for alpha in (0.01, 0.5, 1.0):
        for p in (0.1, 1.0, 1.0 / alpha, 100.0):
            feasible, eig = positive_real_check(gd_realization(alpha, dim=2), p)
            assert not feasible and eig > 0.0


def test_simulate_dimension_mismatch():
    ss = gd_realization(1.0, dim=2)
    with pytest.raises(ShapeError):
        simulate(ss, Signal.zeros(1, 3), np.zeros(2))
    with pytest.raises(ShapeError):
        simulate(ss, Signal.zeros(2, 3), np.zeros(1))


def test_simulate_linearity():
    rng = np.random.default_rng(11)
    ss = modified_gd_realization(0.05, 0.04, dim=2)
    u1 = Signal(rng.standard_normal((8, 2)))
    u2 = Signal(rng.standard_normal((8, 2)))
    xi1 = rng.standard_normal(2)
    xi2 = rng.standard_normal(2)
    a, b = 1.7, -0.4
    s1, y1 = simulate(ss, u1, xi1)
    s2, y2 = simulate(ss, u2, xi2)
    s3, y3 = simulate(ss, Signal(a * u1.samples + b * u2.samples), a * xi1 + b * xi2)
    assert_allclose(s3.samples, a * s1.samples + b * s2.samples, atol=1e-12)
    assert_allclose(y3.samples, a * y1.samples + b * y2.samples, atol=1e-12)


def test_positive_real_check_boundary_cases():
    feasible, eig = positive_real_check(modified_gd_realization(0.01, 0.005), 100.0)
    assert feasible and abs(eig) < 1e-12
    feasible, eig = positive_real_check(modified_gd_realization(0.01, 0.004), 100.0)
    assert not feasible and eig > 1e-4
    feasible, _ = positive_real_check(modified_gd_realization(1.0, 1.0), 1.0)
    assert feasible


def test_positive_real_check_requires_square():
    ss = StateSpaceRealization(
        np.eye(1), np.ones((1, 2)), np.ones((1, 1)), np.zeros((1, 2))
    )
    with pytest.raises(ShapeError):
        positive_real_check(ss, 1.0)


def test_certificate_examples():
    cert = gd_passivity_certificate(0.01, 0.005)
    assert isinstance(cert, PositiveRealCertificate)
    assert cert.p_scalar == pytest.approx(100.0)
    report = gd_passivity_certificate(0.01, 0.0049)
    assert isinstance(report, InfeasibilityReport)
    assert not report.feasible
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
        ok, eig = positive_real_check(
            modified_gd_realization(alpha, d), result.p_scalar
        )
        assert ok and eig <= 1e-10 * (1.0 + max(1.0, result.p_scalar))


def test_certified_controller_dissipation_bound():
    # For a certified controller, <u, y>_T >= -p/2 * ||xi0||^2 on any input.
    rng = np.random.default_rng(17)
    for _ in range(20):
        alpha = float(rng.uniform(0.01, 1.0))
        d = alpha / 2.0 * float(rng.uniform(1.0, 3.0))
        cert = gd_passivity_certificate(alpha, d)
        assert cert.feasible
        ss = modified_gd_realization(alpha, d, dim=2)
        u = Signal(rng.standard_normal((20, 2)) * 3.0)
        xi0 = rng.standard_normal(2)
        _, y = simulate(ss, u, xi0)
        beta = -0.5 * cert.p_scalar * float(np.dot(xi0, xi0))
        for T in (1, 5, 20):
            ip = inner_product_truncated(u, y, T)
            assert ip >= beta - 1e-9 * (1.0 + abs(beta))
