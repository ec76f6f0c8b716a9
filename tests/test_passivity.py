import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from passive_gd.errors import (
    ContractionError,
    DegenerateSectorError,
    InvalidParameterError,
    ShapeError,
)
from passive_gd.functions import diag_quadratic, oscillatory
from passive_gd.interconnect import delta_bar_operator
from passive_gd.lti import gd_passivity_certificate
from passive_gd.passivity import (
    Classification,
    PassivityIndices,
    Verdict,
    certify_step_size,
    empirical_passivity_margin,
    nabla_indices,
    transformed_indices,
)
from passive_gd.signals import Signal, random_unit_energy


def test_nabla_indices_values():
    idx = nabla_indices(1.0, 100.0)
    assert idx.delta == pytest.approx(100.0 / 101.0, rel=1e-15)
    assert idx.epsilon == pytest.approx(1.0 / 101.0, rel=1e-15)
    assert idx.classification is Classification.VSP
    sym = nabla_indices(1.0, 1.0)
    assert sym.delta == 0.5 and sym.epsilon == 0.5
    two = nabla_indices(2.0, 2.0)
    assert two.delta == 1.0 and two.epsilon == 0.25
    with pytest.raises(InvalidParameterError):
        nabla_indices(-1.0, 2.0)
    with pytest.raises(InvalidParameterError):
        nabla_indices(3.0, 2.0)


_NORMAL = (Fraction(sys.float_info.min), Fraction(sys.float_info.max))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(
    exponents=st.lists(st.floats(-308.25, 308.25), min_size=2, max_size=2),
    gap=st.one_of(st.none(), st.integers(1, 52)),
)
def test_indices_are_their_exact_values_at_any_sector_scale(exponents, gap):
    # delta = mL/(m+L), epsilon = 1/(m+L) and the ISP delta_bar = mL/(L-m)
    # at d = 1/L against exact rational values, over log-uniform
    # 10**-308.25 <= m <= L <= 10**308.25, the valid sector range, where m
    # may be subnormal and m*L overflows or underflows on much of it;
    # ``gap`` puts m within 2**-gap of L, where L - m cancels. Each must be
    # within 1e-15 relative wherever the exact value is a normal double.
    m, l = sorted(10.0 ** np.array(exponents))
    if gap is not None:
        m = l * (1.0 - 2.0**-gap)
    m, l = float(m), float(l)
    # An L below 1/DBL_MAX has no finite reciprocal and is refused.
    assume(1.0 / l < math.inf)
    M, L = Fraction(m), Fraction(l)
    base = nabla_indices(m, l)
    pairs = [(base.delta, M * L / (M + L)), (base.epsilon, 1 / (M + L))]
    if m < l:
        isp = transformed_indices(m, l, 1.0 / l)
        assert isp.classification is Classification.ISP
        pairs.append((isp.delta, M * L / (L - M)))
    for got, exact in pairs:
        if _NORMAL[0] <= exact <= _NORMAL[1]:
            assert abs(Fraction(got) - exact) <= Fraction(1, 10**15) * exact, (m, l)


@pytest.mark.parametrize("m, l, alpha, verdict", [
    # m*L overflows: d = 5e-162 < 1/L = 1e-160, so the step is certified.
    (1e160, 1e160, 1e-161, Verdict.STRONG),
    (1e200, 1e300, 1e-301, Verdict.STRONG),
    # m + L overflows as well; d is far past 1/L.
    (1e308, 1e308, 1e-300, Verdict.NONE),
    # m*L underflows to zero.
    (1e-300, 1e-300, 1.0, Verdict.STRONG),
])
def test_certify_at_extreme_sector_bounds_gives_finite_indices(m, l, alpha, verdict):
    result = certify_step_size(m, l, alpha)
    assert result.verdict is verdict
    base = nabla_indices(m, l)
    assert 0.0 < base.delta < math.inf
    exact = Fraction(m) * Fraction(l) / (Fraction(m) + Fraction(l))
    assert base.delta == pytest.approx(float(exact), rel=1e-15)
    if result.transformed_indices is not None:
        assert math.isfinite(result.transformed_indices.delta)
        assert math.isfinite(result.transformed_indices.epsilon)


def test_transformed_indices_vsp_case():
    idx = transformed_indices(1.0, 100.0, 0.005)
    assert idx.delta == pytest.approx(1.0, rel=1e-12)
    assert idx.epsilon == pytest.approx(0.004975, rel=1e-12)
    assert idx.classification is Classification.VSP


def test_transformed_indices_isp_root():
    idx = transformed_indices(1.0, 100.0, 0.01)
    assert abs(idx.epsilon) <= 1e-12
    assert idx.delta == pytest.approx(100.0 / 99.0, rel=1e-12)
    assert idx.classification is Classification.ISP


def test_transformed_indices_past_root():
    idx = transformed_indices(1.0, 100.0, 0.02)
    assert idx.classification is Classification.NONE
    assert idx.epsilon < 0.0


def test_transformed_indices_errors():
    with pytest.raises(ContractionError):
        transformed_indices(1.0, 100.0, 0.52)  # beyond (m+L)/(2mL) = 0.505
    with pytest.raises(DegenerateSectorError):
        transformed_indices(2.0, 2.0, 0.5)  # d = 1/L with m == L
    with pytest.raises(InvalidParameterError):
        transformed_indices(1.0, 100.0, 0.0)


def test_quadratic_root_structure():
    rng = np.random.default_rng(9)
    for _ in range(100):
        m = float(rng.uniform(0.5, 5.0))
        L = m * float(rng.uniform(1.5, 200.0))
        base = nabla_indices(m, L)
        for root in (1.0 / L, 1.0 / m):
            q = base.epsilon - root + base.delta * root * root
            assert abs(q) <= 1e-12


def test_classification_sweep_over_feedthrough():
    m, L = 1.0, 100.0
    for d in np.linspace(1e-4, 1.0 / L - 1e-6, 25):
        assert transformed_indices(m, L, d).classification is Classification.VSP
    assert transformed_indices(m, L, 1.0 / L).classification is Classification.ISP
    for d in np.linspace(1.0 / L + 1e-6, 1.0 / m * 0.5, 25):
        assert transformed_indices(m, L, d).classification is Classification.NONE


def test_certify_examples():
    assert certify_step_size(1.0, 100.0, 0.01).verdict is Verdict.STRONG
    assert certify_step_size(1.0, 100.0, 0.02).verdict is Verdict.WEAK
    assert certify_step_size(1.0, 100.0, 0.021).verdict is Verdict.NONE
    assert certify_step_size(5.0, 5.0, 2.0 / 5.0).verdict is Verdict.NONE
    with pytest.raises(InvalidParameterError):
        certify_step_size(1.0, 100.0, 0.0)


def test_certify_cross_validates_certificate():
    rng = np.random.default_rng(13)
    for _ in range(40):
        m = float(rng.uniform(0.5, 3.0))
        L = m * float(rng.uniform(1.2, 100.0))
        alpha = float(rng.uniform(0.01, 2.5)) / L
        verdict = certify_step_size(m, L, alpha)
        cert = gd_passivity_certificate(alpha, alpha / 2.0)
        strong = (
            cert.feasible
            and verdict.transformed_indices is not None
            and verdict.transformed_indices.classification is Classification.VSP
        )
        assert (verdict.verdict is Verdict.STRONG) == strong


def test_margin_identity_operator_is_zero():
    idx = PassivityIndices(0.5, 0.5, Classification.VSP)
    inputs = random_unit_energy(1, 20, 10, seed=3)
    margin = empirical_passivity_margin(lambda u: u, idx, inputs, 20)
    assert margin == pytest.approx(0.0, abs=1e-12)


def test_margin_negation_operator_is_negative():
    idx = PassivityIndices(0.5, 0.5, Classification.VSP)
    inputs = random_unit_energy(1, 20, 10, seed=4)
    margin = empirical_passivity_margin(
        lambda u: Signal(-u.samples), idx, inputs, 20
    )
    assert margin < -1e-3


def test_margin_of_shifted_gradient():
    f = oscillatory(1.0, 100.0)
    idx = nabla_indices(1.0, 100.0)
    inputs = random_unit_energy(1, 50, 100, seed=5)

    def op(u):
        return Signal(np.array([f.gradient(uk + f.minimizer) for uk in u.samples]))

    margin = empirical_passivity_margin(op, idx, inputs, 50)
    assert margin >= -1e-9 * (1.0 + f.L)


def test_margin_requires_inputs():
    idx = PassivityIndices(0.5, 0.5, Classification.VSP)
    with pytest.raises(InvalidParameterError):
        empirical_passivity_margin(lambda u: u, idx, [], 5)


@pytest.mark.parametrize("T", [0, -1, 0.5, -math.inf])
def test_margin_refuses_a_horizon_below_one(T):
    # A horizon below one sample is refused as any other bad count is.
    idx = PassivityIndices(0.5, 0.5, Classification.VSP)
    with pytest.raises(InvalidParameterError, match="horizon T must be"):
        empirical_passivity_margin(lambda u: u, idx, [Signal(np.ones((3, 1)))], T)


def _per_input_minimum(op, idx, inputs, T):
    """The margin as one ``op`` call per input, each on the whole input."""
    margins = []
    for u in inputs:
        u, y = u.samples[:T], op(u).samples[:T]
        margins.append(
            float(np.sum(u * y))
            - idx.delta * float(np.sum(u * u))
            - idx.epsilon * float(np.sum(y * y))
        )
    return min(margins)


@pytest.mark.parametrize("f, d", [(oscillatory(1.0, 100.0), 0.005),
                                  (diag_quadratic(1.0, 100.0), 0.004)])
def test_margin_of_delta_bar_equals_the_per_input_minimum(f, d):
    # One stacked solve gives each row the bits of its own input's solve,
    # and the inputs run past T, so the stacking also truncates them.
    idx = transformed_indices(f.m, f.L, d)
    inputs = random_unit_energy(f.dim, 60, 40, seed=6)
    op = delta_bar_operator(f, d)
    assert empirical_passivity_margin(op, idx, inputs, 50) == _per_input_minimum(
        op, idx, inputs, 50
    )


def test_margin_calls_the_operator_once_on_the_stacked_inputs():
    calls = []

    def op(u):
        calls.append(u.horizon)
        return Signal(2.0 * u.samples)

    idx = PassivityIndices(0.5, 0.5, Classification.VSP)
    inputs = random_unit_energy(2, 30, 7, seed=7)
    margin = empirical_passivity_margin(op, idx, inputs, 20)
    assert calls == [7 * 20]
    assert margin == _per_input_minimum(op, idx, inputs, 20)


@pytest.mark.parametrize("op, inputs, match", [
    (lambda u: u, [Signal(np.ones((4, 1)))], "shorter than T"),
    (lambda u: u, [Signal(np.ones((5, 1))), Signal(np.ones((5, 2)))], "dimensions differ"),
    (lambda u: Signal(np.hstack([u.samples, u.samples])), [Signal(np.ones((5, 1)))],
     "changed dimension"),
    (lambda u: Signal(u.samples[:-1]), [Signal(np.ones((5, 1)))] * 2, "sample count"),
    (lambda u: Signal(np.vstack([u.samples, u.samples])), [Signal(np.ones((5, 1)))],
     "sample count"),
])
def test_margin_refuses_mismatched_shapes(op, inputs, match):
    idx = PassivityIndices(0.5, 0.5, Classification.VSP)
    with pytest.raises(ShapeError, match=match):
        empirical_passivity_margin(op, idx, inputs, 5)


def test_a_nan_margin_is_the_worst_margin():
    def op(u):
        y = u.samples.copy()
        y[25] = np.nan  # the sixth of the ten inputs, which are 5 samples each
        return Signal(y)

    idx = PassivityIndices(0.5, 0.5, Classification.VSP)
    inputs = random_unit_energy(1, 5, 10, seed=8)
    assert np.isnan(empirical_passivity_margin(op, idx, inputs, 5))
