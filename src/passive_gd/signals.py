"""Finite-horizon discrete-time signals, and the column writer behind ``run --trace``."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError, _count

__all__ = [
    "Signal",
    "random_unit_energy",
]


@dataclass(frozen=True)
class Signal:
    """A finite sequence of real vectors indexed by discrete time.

    ``samples`` has shape ``(horizon, dim)``; row ``k`` is the value at
    time step ``k``. Instances are immutable value types.
    """

    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        # A copy, so the caller's array stays writable and never aliases it.
        arr = np.array(self.samples, dtype=float, order="C")
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2:
            raise ShapeError(f"signal samples must be 2-D, got shape {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    @property
    def horizon(self) -> int:
        return self.samples.shape[0]

    @property
    def dim(self) -> int:
        return self.samples.shape[1]


def random_unit_energy(dim: int, horizon: int, count: int, seed: int) -> list[Signal]:
    """Seeded Gaussian signals, each scaled to unit truncated energy.

    One ``(count, horizon, dim)`` draw gives the signals that ``count``
    draws of ``(horizon, dim)`` would, and one reduction their energies.
    A signal of zero energy becomes the unit impulse in its first entry.
    """
    for name, v in (("dim", dim), ("horizon", horizon), ("count", count)):
        _count(name, v, 1)
    _count("seed", seed, 0)
    raw = np.random.default_rng(seed).standard_normal((count, horizon, dim))
    flat = raw.reshape(count, -1)
    energy = np.sqrt(np.sum(flat * flat, axis=1))
    zero = energy == 0.0
    raw[zero, 0, 0] = 1.0
    energy[zero] = 1.0
    return [Signal(u) for u in raw / energy[:, None, None]]


def _columns(name: str, samples: np.ndarray, indexed: bool = True) -> dict:
    """The columns of ``samples`` named ``name_0, name_1, ...``, or ``name``
    alone when ``indexed`` is false."""
    return {
        f"{name}_{i}" if indexed else name: samples[:, i] for i in range(samples.shape[1])
    }


def _write_columns(path, columns: dict, rows: int) -> None:
    """Write ``k`` and the named columns for steps 0 .. rows-1, with floats to
    17 significant digits; a column shorter than ``rows`` leaves its last
    cells blank."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", *columns])
        for k in range(rows):
            writer.writerow(
                [k] + [f"{c[k]:.17g}" if k < len(c) else "" for c in columns.values()]
            )
