from unittest import mock

import numpy as np
import pytest
from numpy.testing import assert_allclose

from passive_gd.errors import ShapeError
from passive_gd.signals import Signal, random_unit_energy


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


def test_random_unit_energy_signals():
    sigs = random_unit_energy(2, 10, 5, seed=42)
    assert len(sigs) == 5
    for s in sigs:
        assert s.dim == 2 and s.horizon == 10
        assert np.sum(s.samples * s.samples) == pytest.approx(1.0, rel=1e-12)
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
