import math

import numpy as np
import pytest

from passive_gd.errors import (
    ContractionError,
    DegenerateSectorError,
    HorizonError,
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
    assert idx.beta == 0.0
    assert idx.classification is Classification.VSP
    sym = nabla_indices(1.0, 1.0)
    assert sym.delta == 0.5 and sym.epsilon == 0.5
    two = nabla_indices(2.0, 2.0)
    assert two.delta == 1.0 and two.epsilon == 0.25
    with pytest.raises(InvalidParameterError):
        nabla_indices(-1.0, 2.0)
    with pytest.raises(InvalidParameterError):
        nabla_indices(3.0, 2.0)


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
    idx = PassivityIndices(0.0, 0.5, 0.5, Classification.VSP)
    inputs = random_unit_energy(1, 20, 10, seed=3)
    margin = empirical_passivity_margin(lambda u: u, idx, inputs, 20)
    assert margin == pytest.approx(0.0, abs=1e-12)


def test_margin_negation_operator_is_negative():
    idx = PassivityIndices(0.0, 0.5, 0.5, Classification.VSP)
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
    idx = PassivityIndices(0.0, 0.0, 0.0, Classification.PASSIVE)
    with pytest.raises(InvalidParameterError):
        empirical_passivity_margin(lambda u: u, idx, [], 5)


@pytest.mark.parametrize("T", [0, -1, 0.5, -math.inf])
def test_margin_refuses_a_horizon_below_one(T):
    idx = PassivityIndices(0.0, 0.5, 0.5, Classification.VSP)
    with pytest.raises(HorizonError, match="horizon must be positive"):
        empirical_passivity_margin(lambda u: u, idx, [Signal(np.ones((3, 1)))], T)


def _per_input_minimum(op, idx, inputs, T):
    """The margin as one ``op`` call per input, each on the whole input."""
    margins = []
    for u in inputs:
        u, y = u.samples[:T], op(u).samples[:T]
        margins.append(
            float(np.sum(u * y))
            - idx.beta
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

    idx = PassivityIndices(0.0, 0.5, 0.5, Classification.VSP)
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
    idx = PassivityIndices(0.0, 0.5, 0.5, Classification.VSP)
    with pytest.raises(ShapeError, match=match):
        empirical_passivity_margin(op, idx, inputs, 5)


def test_a_nan_margin_is_the_worst_margin():
    def op(u):
        y = u.samples.copy()
        y[25] = np.nan  # the sixth of the ten inputs, which are 5 samples each
        return Signal(y)

    idx = PassivityIndices(0.0, 0.5, 0.5, Classification.VSP)
    inputs = random_unit_energy(1, 5, 10, seed=8)
    assert np.isnan(empirical_passivity_margin(op, idx, inputs, 5))
