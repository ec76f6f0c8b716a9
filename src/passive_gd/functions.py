"""Objective functions with sector-bounded gradients.

Each built-in carries its sector bounds ``(m, L)``, its minimizer and an
analytic gradient. Each is written once, as block callables that
evaluate a whole block of points in one vectorized pass; its point
oracles are their one-row case.
``oscillatory``, whose value and gradient share sin x, also has a fused
value-and-gradient oracle that computes both from the same expressions
and evaluates sin x once.
``row_gradient`` and ``row_value`` give every function the same
block-of-rows interface, on which the co-coercivity residual is written
once. ``_BLOCK_ROWS`` is the package's one row-block size: a pass over
many points, such as the sector scan here or ``bench``'s Monte Carlo
chunks, takes them that many rows at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import InvalidParameterError, ShapeError, _count, _interval, _positive, _sector

__all__ = [
    "SectorFunction",
    "oscillatory",
    "quadratic",
    "diag_quadratic",
    "builtin_function",
    "BUILTIN_NAMES",
    "row_gradient",
    "row_value",
    "sector_membership_scan",
    "central_difference_gradient",
]

_STATIONARITY_TOL = 1e-12
_REL_STEP = 1e-6  # central_difference_gradient's h = _REL_STEP * (1 + |x_i|)
# Rows per block of a large pass, which keeps its working set small. On
# bench's default config at one thread (a 2-core x86_64 host), 8192 rows
# took 6% more CPU time, and 32768 and 65536 rows 1-2% more.
_BLOCK_ROWS = 16384


@dataclass(frozen=True)
class SectorFunction:
    """A differentiable objective whose gradient lies in the sector [m, L].

    Parameters
    ----------
    dim : int
        Input dimension.
    m, L : float
        Lower and upper sector bounds, finite, with 0 < m <= L.
    minimizer : np.ndarray
        The unique global minimizer; the gradient must vanish there.
    value : callable
        Maps a shape ``(dim,)`` vector to a float.
    gradient : callable
        Maps a shape ``(dim,)`` vector to a shape ``(dim,)`` vector.
    elementwise_value, elementwise_gradient : callable, optional
        Block callables, for any ``dim``: they map a flat ``(n,)`` block
        when ``dim == 1`` and an ``(n, dim)`` block otherwise to ``(n,)``
        values and to gradients of the block's shape. Used through
        ``row_gradient`` and ``row_value`` by every kernel, each of which
        hands a one-dimensional objective flat blocks: the engine, the
        fixed-point solve, the loop simulator and the scans.

    ``oscillatory`` also carries a private fused block oracle,
    ``_value_and_gradient``, which returns both block callables' results
    bit for bit from one pass. Only the built-in constructors set it, and
    ``dataclasses.replace`` drops it, so a copy with replaced oracles
    never reaches the originals through it.
    """

    dim: int
    m: float
    L: float
    minimizer: np.ndarray = field(repr=False)
    value: Callable[[np.ndarray], float] = field(repr=False)
    gradient: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    elementwise_value: Optional[Callable] = field(default=None, repr=False)
    elementwise_gradient: Optional[Callable] = field(default=None, repr=False)
    name: str = ""
    _value_and_gradient: Optional[Callable] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        _sector(self.m, self.L)
        x_star = np.array(self.minimizer, dtype=float).reshape(-1)
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


def _from_blocks(dim, m, L, value, gradient, *, name, value_and_gradient=None):
    """A built-in ``SectorFunction``, minimized at 0, from its block callables.

    ``value`` and ``gradient`` are the ``elementwise_*`` fields and accept
    array-likes. The point oracles are their one-row case: a point is a
    flat block of one row when ``dim == 1`` and otherwise a single row,
    which the callables map along its last axis. ``value_and_gradient``,
    when given, is the fused block oracle.
    """
    f = SectorFunction(
        dim=dim, m=m, L=L, minimizer=np.zeros(dim),
        value=(lambda x: float(value(x)[0])) if dim == 1 else (lambda x: float(value(x))),
        gradient=gradient, elementwise_value=value,
        elementwise_gradient=gradient, name=name,
    )
    object.__setattr__(f, "_value_and_gradient", value_and_gradient)
    return f


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

    # 0-d coefficients multiply a small block faster than floats, to the
    # same bits: numpy converts a Python float operand on every call.
    quarter, ratio, two, mid, half_width = (
        np.array(c, dtype=float)
        for c in ((L - m) / 4.0, (L + m) / (L - m), 2.0, 0.5 * (L + m), 0.5 * (L - m))
    )

    # Both formulas take sin x as an operand; the fused oracle evaluates
    # it once and passes it to each.
    def value_at(x, sin_x):
        return quarter * (ratio * x * x + two * sin_x - two * x * np.cos(x))

    def gradient_at(x, sin_x):
        return mid * x + half_width * x * sin_x

    def value(x):
        x = np.asarray(x, dtype=float)
        return value_at(x, np.sin(x))

    def gradient(x):
        x = np.asarray(x, dtype=float)
        return gradient_at(x, np.sin(x))

    def value_and_gradient(x):
        x = np.asarray(x, dtype=float)
        sin_x = np.sin(x)
        return value_at(x, sin_x), gradient_at(x, sin_x)

    return _from_blocks(1, m, L, value, gradient, name="oscillatory",
                        value_and_gradient=value_and_gradient)


def quadratic(l: float) -> SectorFunction:
    """Scalar quadratic l*x^2/2 with m = L = l."""
    _positive("curvature", l)
    diag, half = np.array([l]), np.array([0.5 * l])
    return _from_blocks(1, l, l, lambda x: half * x * x, lambda x: diag * x,
                        name="quadratic")


def diag_quadratic(m: float, l: float) -> SectorFunction:
    """Two-dimensional quadratic with Hessian diag(m, l) and 0 < m < l.

    Its value is half a dot product, which rounds apart from the order
    ((l/2) x) x of ``quadratic`` at subnormal values and near overflow.
    """
    if not (0.0 < m < l):
        raise InvalidParameterError(
            f"diag_quadratic requires 0 < m < l, got m={m}, l={l}"
        )
    diag = np.array([m, l])
    # A one-row block is multiplied by a coefficient row of its own shape,
    # to the same products: numpy's broadcasting setup for operands of two
    # shapes costs more than the product of one row. A point has length 2,
    # so it keeps ``diag``.
    row = diag[None]

    def scaled(x):
        return (row if len(x) == 1 else diag) * x

    return _from_blocks(2, m, l, lambda x: 0.5 * np.vecdot(scaled(x), x),
                        scaled, name="diag-quadratic")


BUILTIN_NAMES = ("oscillatory", "quadratic", "diag-quadratic")


def builtin_function(name: str, m: float, L: float) -> SectorFunction:
    """Look up a built-in by CLI name."""
    if name == "oscillatory":
        return oscillatory(m, L)
    if name == "quadratic":
        _sector(m, L)
        return quadratic(L)
    if name == "diag-quadratic":
        return diag_quadratic(m, L)
    raise InvalidParameterError(
        f"unknown function {name!r}; choose from {', '.join(BUILTIN_NAMES)}"
    )


def row_gradient(f: SectorFunction) -> Callable[[np.ndarray], np.ndarray]:
    """The gradient of ``f`` as a map over the rows of a block of points.

    A block is a flat ``(n,)`` array when ``dim == 1`` and an ``(n, dim)``
    array otherwise. A function with an elementwise (block) gradient, as
    every built-in has, takes one call per block; any other function takes
    one ``f.gradient`` call per row, on a ``(dim,)`` view. Each row's value
    is the one ``f.gradient`` gives for that row.
    """
    if f.elementwise_gradient is not None:
        return f.elementwise_gradient
    gradient, dim = f.gradient, f.dim

    def per_row(points: np.ndarray) -> np.ndarray:
        grads = [gradient(x) for x in points.reshape(-1, dim)]
        return np.array(grads, dtype=float).reshape(points.shape)

    return per_row


def row_value(f: SectorFunction) -> Callable[[np.ndarray], np.ndarray]:
    """The objective of ``f`` as a map from a block of points to ``(n,)`` values.

    Blocks and dispatch are as in :func:`row_gradient`: one elementwise
    call per block for functions that have one, else one ``f.value`` call
    per row.
    """
    if f.elementwise_value is not None:
        return f.elementwise_value
    value, dim = f.value, f.dim

    def per_row(points: np.ndarray) -> np.ndarray:
        return np.array([value(x) for x in points.reshape(-1, dim)], dtype=float)

    return per_row


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row dot products of two blocks, bitwise ``np.dot`` of each row pair.

    A flat block's rows are scalars, whose dot is their product. Rows of
    width 1 take the flat product too, far cheaper than ``np.vecdot``, plus
    +0.0, since ``np.vecdot`` sums from +0.0 and so turns -0.0 into +0.0.
    """
    if a.ndim == 1:
        return a * b
    if a.shape[-1] == 1:
        return a[..., 0] * b[..., 0] + 0.0
    return np.vecdot(a, b)


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Per-row Euclidean norms of a block, bitwise ``np.linalg.norm`` of each row."""
    return np.sqrt(_row_dot(a, a))


def _cocoercivity_block(f: SectorFunction, points: np.ndarray):
    """Co-coercivity residual and its scale at each row of ``points``, shape ``(n, dim)``.

    residual = <x - x*, grad f(x)> - mL/(m+L) ||x - x*||^2
               - 1/(m+L) ||grad f(x)||^2
    is the slack of the sector inequality, non-negative on members. The
    scale is 1 + ||x - x*||^2 + ||grad f(x)||^2. A one-dimensional block
    is evaluated flat, through ``row_gradient``.
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


def sector_membership_scan(
    f: SectorFunction, lo: float, hi: float, n_samples: int, seed: int
) -> tuple[float, np.ndarray]:
    """Minimum normalized co-coercivity residual over seeded uniform samples.

    Draws ``n_samples`` points uniformly from [lo, hi]^dim and returns the
    minimum of residual / scale (see ``_cocoercivity_block``) and a copy of
    the first point where it occurs; a NaN residual, where squares
    overflow, is the minimum, as for ``np.argmin``, and numpy does not
    warn. The scale makes one threshold hold at any amplitude, and
    ``verify --suite sector`` checks this minimum. The points are
    drawn and scanned ``_BLOCK_ROWS`` rows at a time from one generator,
    which gives the draws of one ``(n_samples, dim)`` call, so memory does
    not grow with ``n_samples``.
    """
    _interval(lo, hi, "sample")
    _count("n_samples", n_samples, 1)
    _count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    worst = point = None
    for start in range(0, n_samples, _BLOCK_ROWS):
        points = rng.uniform(lo, hi, (min(_BLOCK_ROWS, n_samples - start), f.dim))
        with np.errstate(over="ignore", invalid="ignore"):
            residual, scale = _cocoercivity_block(f, points)
            residual /= scale
        i = int(np.argmin(residual))
        # As np.argmin over all rows: a tie keeps the earlier point, and
        # the first NaN, once found, stays.
        new = residual[i]
        if worst is None or not np.isnan(worst) and (new < worst or np.isnan(new)):
            worst, point = new, points[i].copy()
    return float(worst), point


def central_difference_gradient(f: SectorFunction, x) -> np.ndarray:
    """Central finite-difference gradient with per-coordinate step h = 1e-6*(1+|x_i|).

    ``x`` is a point, giving a ``(dim,)`` gradient, or an ``(n, dim)``
    block of points, giving an ``(n, dim)`` block; a point is the block's
    one-row case. Each coordinate's ``+h`` and ``-h`` perturbations of the
    whole block are evaluated with one ``row_value`` call each, so every
    row's result is the one its point form gives.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        return central_difference_gradient(f, f.check_point(x)[None])[0]
    if x.shape[1] != f.dim:
        raise ShapeError(f"block has shape {x.shape}, expected (n, {f.dim})")
    value = row_value(f)
    g = np.empty_like(x)
    for i in range(f.dim):
        h = _REL_STEP * (1.0 + np.abs(x[:, i]))
        xp = x.copy()
        xm = x.copy()
        xp[:, i] += h
        xm[:, i] -= h
        if f.dim == 1:
            xp, xm = xp[:, 0], xm[:, 0]
        g[:, i] = (value(xp) - value(xm)) / (2.0 * h)
    return g
