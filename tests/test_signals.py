from unittest import mock

import numpy as np
import pytest
from numpy.testing import assert_allclose

from passive_gd.errors import HorizonError, ShapeError
from passive_gd.signals import (
    Signal,
    inner_product_truncated,
    norm_sq_truncated,
    random_unit_energy,
    truncate,
)


def test_truncate_basic():
    u = Signal(np.array([[1.0], [2.0], [3.0]]))
    t = truncate(u, 2)
    assert t.horizon == 2
    assert_allclose(t.samples, [[1.0], [2.0]])


def test_truncate_to_empty():
    u = Signal(np.array([[1.0], [2.0]]))
    t = truncate(u, 0)
    assert t.horizon == 0
    assert t.dim == 1


def test_truncate_vector_valued():
    u = Signal(np.array([[1.0, 1.0], [2.0, 2.0]]))
    t = truncate(u, 1)
    assert_allclose(t.samples, [[1.0, 1.0]])
    assert t.dim == 2


def test_truncate_beyond_horizon_raises():
    u = Signal(np.array([[1.0]]))
    with pytest.raises(HorizonError):
        truncate(u, 2)
    with pytest.raises(HorizonError):
        truncate(u, -1)


def test_inner_product_examples():
    u = Signal(np.array([[1.0], [2.0], [3.0]]))
    y = Signal(np.array([[1.0], [1.0], [1.0]]))
    assert inner_product_truncated(u, y, 2) == 3.0
    assert inner_product_truncated(u, y, 3) == 6.0
    z = Signal.zeros(1, 3)
    assert inner_product_truncated(u, z, 3) == 0.0


def test_inner_product_dimension_mismatch():
    u = Signal.zeros(1, 3)
    y = Signal.zeros(2, 3)
    with pytest.raises(ShapeError):
        inner_product_truncated(u, y, 2)


def test_inner_product_horizon_errors():
    u = Signal.zeros(1, 3)
    with pytest.raises(HorizonError):
        inner_product_truncated(u, u, 4)
    with pytest.raises(HorizonError):
        inner_product_truncated(u, u, 0)


def test_norm_sq_examples():
    u = Signal(np.array([[3.0], [4.0]]))
    assert norm_sq_truncated(u, 2) == 25.0
    v = Signal(np.array([[1.0, 1.0]]))
    assert norm_sq_truncated(v, 1) == 2.0
    assert norm_sq_truncated(Signal.zeros(3, 5), 5) == 0.0


def test_samples_are_immutable():
    u = Signal(np.array([[1.0], [2.0]]))
    with pytest.raises(ValueError):
        u.samples[0, 0] = 9.0


@pytest.mark.parametrize("shape, order", [((3,), "C"), ((3, 1), "C"), ((2, 2), "F")])
def test_a_signal_copies_the_callers_array(shape, order):
    # The caller's array stays writable, and writing to it leaves the
    # signal's C-ordered samples as they were.
    samples = np.zeros(shape, order=order)
    u = Signal(samples)
    samples[0] = 5.0
    assert not u.samples.any() and u.samples.flags.c_contiguous
    assert samples.flags.writeable


def test_signal_rejects_higher_rank_arrays():
    with pytest.raises(ShapeError):
        Signal(np.zeros((2, 2, 2)))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bilinear_form_properties(seed):
    rng = np.random.default_rng(seed)
    for _ in range(20):
        dim = int(rng.integers(1, 4))
        horizon = int(rng.integers(2, 12))
        u = Signal(rng.standard_normal((horizon, dim)))
        y = Signal(rng.standard_normal((horizon, dim)))
        T = int(rng.integers(1, horizon + 1))
        # symmetry
        assert inner_product_truncated(u, y, T) == pytest.approx(
            inner_product_truncated(y, u, T), rel=1e-14, abs=1e-14
        )
        # truncation consistency
        assert inner_product_truncated(u, y, T) == pytest.approx(
            inner_product_truncated(truncate(u, T), truncate(y, T), T),
            rel=1e-14,
            abs=1e-14,
        )
        # Cauchy-Schwarz
        lhs = inner_product_truncated(u, y, T) ** 2
        rhs = norm_sq_truncated(u, T) * norm_sq_truncated(y, T)
        assert lhs <= rhs * (1.0 + 1e-12) + 1e-12


def test_monotone_energy():
    rng = np.random.default_rng(3)
    u = Signal(rng.standard_normal((15, 2)))
    energies = [norm_sq_truncated(u, T) for T in range(1, 16)]
    assert all(b >= a - 1e-15 for a, b in zip(energies, energies[1:]))


def test_random_unit_energy_signals():
    sigs = random_unit_energy(2, 10, 5, seed=42)
    assert len(sigs) == 5
    for s in sigs:
        assert s.dim == 2 and s.horizon == 10
        assert norm_sq_truncated(s, 10) == pytest.approx(1.0, rel=1e-12)
    again = random_unit_energy(2, 10, 5, seed=42)
    for a, b in zip(sigs, again):
        assert_allclose(a.samples, b.samples)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_random_unit_energy_equals_one_draw_per_signal(dim):
    for seed in (0, 7, 31):
        rng = np.random.default_rng(seed)
        for sig in random_unit_energy(dim, 40, 25, seed):
            raw = rng.standard_normal((40, dim))
            want = raw / np.sqrt(np.sum(raw * raw))
            assert sig.samples.tobytes() == want.tobytes()


def test_random_unit_energy_turns_a_zero_signal_into_a_unit_impulse():
    draw = np.ones((3, 4, 2))
    draw[1] = 0.0
    with mock.patch("numpy.random.default_rng") as rng:
        rng.return_value.standard_normal.return_value = draw
        sigs = random_unit_energy(2, 4, 3, seed=0)
    impulse = np.zeros((4, 2))
    impulse[0, 0] = 1.0
    assert sigs[1].samples.tolist() == impulse.tolist()
    assert sigs[0].samples.tolist() == sigs[2].samples.tolist() == (
        np.ones((4, 2)) / np.sqrt(8.0)).tolist()
