"""Objective functions with sector-bounded gradients.

Each built-in carries its sector bounds ``(m, L)`` and minimizer, an
analytic gradient, and (for the quadratic family) a constant Hessian.
One-dimensional built-ins also expose elementwise callables so that
batches of scalar points can be evaluated in one vectorized pass;
``row_gradient`` and ``row_value`` give every function the same
block-of-rows interface, on which the co-coercivity residual is written
once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import InvalidParameterError, ShapeError

__all__ = [
    "SectorFunction",
    "oscillatory",
    "quadratic",
    "diag_quadratic",
    "builtin_function",
    "BUILTIN_NAMES",
    "shifted_gradient",
    "row_gradient",
    "row_value",
    "cocoercivity_residual",
    "sector_membership_scan",
    "central_difference_gradient",
]

_STATIONARITY_TOL = 1e-12


@dataclass(frozen=True)
class SectorFunction:
    """A differentiable objective whose gradient lies in the sector [m, L].

    Parameters
    ----------
    dim : int
        Input dimension.
    m, L : float
        Lower and upper sector bounds, 0 < m <= L.
    minimizer : np.ndarray
        The unique global minimizer; the gradient must vanish there.
    value : callable
        Maps a shape ``(dim,)`` vector to a float.
    gradient : callable
        Maps a shape ``(dim,)`` vector to a shape ``(dim,)`` vector.
    hessian : np.ndarray, optional
        Constant Hessian, present only for the quadratic family.
    elementwise_value, elementwise_gradient : callable, optional
        For ``dim == 1`` only: ufunc-style callables mapping an array of
        scalar points to an array of the same shape. Used through
        ``row_gradient`` and ``row_value`` by the batched engines.
    """

    dim: int
    m: float
    L: float
    minimizer: np.ndarray = field(repr=False)
    value: Callable[[np.ndarray], float] = field(repr=False)
    gradient: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    hessian: Optional[np.ndarray] = field(default=None, repr=False)
    elementwise_value: Optional[Callable] = field(default=None, repr=False)
    elementwise_gradient: Optional[Callable] = field(default=None, repr=False)
    name: str = ""

    def __post_init__(self):
        if not (0.0 < self.m <= self.L):
            raise InvalidParameterError(
                f"sector bounds must satisfy 0 < m <= L, got m={self.m}, L={self.L}"
            )
        x_star = np.asarray(self.minimizer, dtype=float).reshape(-1)
        if x_star.shape != (self.dim,):
            raise ShapeError(
                f"minimizer has shape {x_star.shape}, expected ({self.dim},)"
            )
        x_star.setflags(write=False)
        object.__setattr__(self, "minimizer", x_star)
        g_star = np.linalg.norm(np.asarray(self.gradient(x_star), dtype=float))
        if g_star > _STATIONARITY_TOL:
            raise InvalidParameterError(
                f"gradient norm at the minimizer is {g_star:.3e}, "
                f"expected <= {_STATIONARITY_TOL:.0e}"
            )

    def check_point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.shape != (self.dim,):
            raise ShapeError(f"point has shape {x.shape}, expected ({self.dim},)")
        return x


def oscillatory(m: float, L: float) -> SectorFunction:
    """Scalar non-convex test function with gradient in the sector [m, L].

    f(x) = (L - m)/4 * ((L + m)/(L - m) * x^2 + 2 sin x - 2 x cos x),
    minimized at 0. Its derivative collapses to
    f'(x) = (L + m)/2 * x + (L - m)/2 * x sin x, so f'(x)/x stays inside
    [m, L] for all x.
    """
    if not (0.0 < m < L):
        raise InvalidParameterError(
            f"oscillatory requires 0 < m < L, got m={m}, L={L}"
        )

    def f_elem(x):
        x = np.asarray(x, dtype=float)
        return (L - m) / 4.0 * (
            (L + m) / (L - m) * x * x + 2.0 * np.sin(x) - 2.0 * x * np.cos(x)
        )

    def g_elem(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * (L + m) * x + 0.5 * (L - m) * x * np.sin(x)

    return SectorFunction(
        dim=1,
        m=m,
        L=L,
        minimizer=np.zeros(1),
        value=lambda x: float(f_elem(x)[0]),
        gradient=lambda x: np.atleast_1d(g_elem(x)),
        elementwise_value=f_elem,
        elementwise_gradient=g_elem,
        name="oscillatory",
    )


def quadratic(l: float) -> SectorFunction:
    """Scalar quadratic l*x^2/2 with m = L = l."""
    if l <= 0.0:
        raise InvalidParameterError(f"curvature must be positive, got {l}")

    def f_elem(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * l * x * x

    def g_elem(x):
        return l * np.asarray(x, dtype=float)

    return SectorFunction(
        dim=1,
        m=l,
        L=l,
        minimizer=np.zeros(1),
        value=lambda x: float(f_elem(x)[0]),
        gradient=lambda x: np.atleast_1d(g_elem(x)),
        hessian=np.array([[l]]),
        elementwise_value=f_elem,
        elementwise_gradient=g_elem,
        name="quadratic",
    )


def diag_quadratic(m: float, l: float) -> SectorFunction:
    """Two-dimensional quadratic with Hessian diag(m, l) and 0 < m < l."""
    if not (0.0 < m < l):
        raise InvalidParameterError(
            f"diag_quadratic requires 0 < m < l, got m={m}, l={l}"
        )
    diag = np.array([m, l])
    return SectorFunction(
        dim=2,
        m=m,
        L=l,
        minimizer=np.zeros(2),
        value=lambda x: float(0.5 * np.dot(diag * x, x)),
        gradient=lambda x: diag * np.asarray(x, dtype=float),
        hessian=np.diag(diag),
        name="diag-quadratic",
    )


BUILTIN_NAMES = ("oscillatory", "quadratic", "diag-quadratic")


def builtin_function(name: str, m: float, L: float) -> SectorFunction:
    """Look up a built-in by CLI name."""
    if name == "oscillatory":
        return oscillatory(m, L)
    if name == "quadratic":
        return quadratic(L)
    if name == "diag-quadratic":
        return diag_quadratic(m, L)
    raise InvalidParameterError(
        f"unknown function {name!r}; choose from {', '.join(BUILTIN_NAMES)}"
    )


def shifted_gradient(f: SectorFunction, u) -> np.ndarray:
    """Gradient evaluated at ``u + minimizer``; maps zero to zero."""
    u = f.check_point(u)
    return np.asarray(f.gradient(u + f.minimizer), dtype=float)


def row_gradient(f: SectorFunction) -> Callable[[np.ndarray], np.ndarray]:
    """The gradient of ``f`` as a map over the rows of a block of points.

    A block is a flat ``(n,)`` array when ``dim == 1`` and an ``(n, dim)``
    array otherwise. One-dimensional functions with an elementwise
    gradient take one vectorized call per block; any other function takes
    one ``f.gradient`` call per row, on a ``(dim,)`` view. Each row's value
    is the one ``f.gradient`` gives for that row.
    """
    if f.dim == 1 and f.elementwise_gradient is not None:
        return f.elementwise_gradient
    gradient, dim = f.gradient, f.dim

    def per_row(points: np.ndarray) -> np.ndarray:
        grads = [gradient(x) for x in points.reshape(-1, dim)]
        return np.array(grads, dtype=float).reshape(points.shape)

    return per_row


def row_value(f: SectorFunction) -> Callable[[np.ndarray], np.ndarray]:
    """The objective of ``f`` as a map from a block of points to ``(n,)`` values.

    Blocks and dispatch are as in :func:`row_gradient`: one elementwise
    call per block for one-dimensional functions that have one, else one
    ``f.value`` call per row.
    """
    if f.dim == 1 and f.elementwise_value is not None:
        return f.elementwise_value
    value, dim = f.value, f.dim

    def per_row(points: np.ndarray) -> np.ndarray:
        return np.array([value(x) for x in points.reshape(-1, dim)], dtype=float)

    return per_row


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row dot products of two blocks, bitwise ``np.dot`` of each row pair."""
    return a * b if a.ndim == 1 else np.vecdot(a, b)


def _cocoercivity_block(f: SectorFunction, points: np.ndarray):
    """Co-coercivity residual and its scale at each row of ``points``, shape ``(n, dim)``.

    The scale is 1 + ||x - x*||^2 + ||grad f(x)||^2. A one-dimensional
    block is evaluated flat, through ``row_gradient``.
    """
    x = points[:, 0] if f.dim == 1 else points
    dx = x - f.minimizer
    g = row_gradient(f)(x)
    s = f.m + f.L
    c = f.m * f.L / s
    # In place, to keep the peak memory of a large block low. The flat
    # layout keeps the elementwise order (c*dx)*dx.
    residual = _row_dot(dx, g)
    residual -= c * dx * dx if x.ndim == 1 else c * _row_dot(dx, dx)
    gg = _row_dot(g, g)
    residual -= gg / s
    scale = 1.0 + _row_dot(dx, dx)
    scale += gg
    return residual, scale


def cocoercivity_residual(f: SectorFunction, x) -> float:
    """Slack of the sector inequality at ``x``; non-negative on members.

    residual = <x - x*, grad f(x)> - mL/(m+L) ||x - x*||^2
               - 1/(m+L) ||grad f(x)||^2
    """
    residual, _ = _cocoercivity_block(f, f.check_point(x)[None, :])
    return float(residual[0])


def sector_membership_scan(
    f: SectorFunction, lo: float, hi: float, n_samples: int, seed: int
) -> tuple[float, np.ndarray]:
    """Minimum co-coercivity residual over seeded uniform samples in [lo, hi]^dim."""
    if not lo < hi:
        raise InvalidParameterError(f"empty sample range [{lo}, {hi}]")
    if n_samples < 1:
        raise InvalidParameterError(f"n_samples must be >= 1, got {n_samples}")
    points = np.random.default_rng(seed).uniform(lo, hi, (n_samples, f.dim))
    residual, _ = _cocoercivity_block(f, points)
    i = int(np.argmin(residual))
    return float(residual[i]), points[i]


def central_difference_gradient(f: SectorFunction, x, rel_step: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient with per-coordinate step h = rel_step*(1+|x_i|)."""
    x = f.check_point(x)
    g = np.empty_like(x)
    for i in range(f.dim):
        h = rel_step * (1.0 + abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f.value(xp) - f.value(xm)) / (2.0 * h)
    return g
