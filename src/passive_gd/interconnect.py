"""Negative feedback loops coupling an LTI controller with a gradient block.

The controller is the fixed-step update (I, alpha*I, I, d*I). The
untransformed loop, d = 0, is delay-free only because it is strictly
proper. After the loop transformation both blocks carry the feedthrough
d, so each step contains the algebraic loop y2 = grad_shift(u2 + d*y2).
Wiring algebra solves it exactly: the inner gradient argument
v = u2 + d*y2 = r2 + C xi is loop-free, so one gradient call gives
y2 = grad_shift(v), and u2 = v - d*y2. The transformed loop
takes that elimination on every row, for d = alpha/2 in (0, 1/L]; at
d = 0 the same step is the untransformed loop, u2 = v. With zero
exogenous inputs and a zero minimizer, as every built-in has, both equal
the recursion x <- x - alpha*grad f(x) bit for bit.

``loop_equivalence_report`` checks the transformation's own claim. It
runs every row at d = alpha/2 and at d = 0 in one block under shared
exogenous inputs, and gives the worst distance between the two states,
which differ only by the rounding of (r2 - d*r1) + d*r1 in v, and the
worst per-step residual of the implicit relation, which the elimination
solves up to the rounding of (v - d*y2) + d*y2.

``evaluate_delta_bar`` and ``delta_bar_operator`` evaluate the
transformed nonlinearity on inputs that no loop produced (the passivity
margin), so they solve y = grad_shift(u + d*y) by fixed-point iteration.
It contracts with factor d * sup|f''| over the region the iterates visit.
For the quadratic family that factor is d*L, but a sector bound through
the minimizer does not cap the second derivative, so at large amplitude
the oscillatory built-in may lose contraction (and the relation its
uniqueness).

The transformed loop and its equivalence report take a point, or an
``(n, dim)`` block of rows with one alpha and d per row; every step of a
block runs once for all rows, and each row's result is bitwise that of
its point. A point is the block's one-row case: its ``LoopTrace`` holds
row 0 of the block's arrays. Their exogenous inputs are ``(horizon,
dim)`` arrays shared by every row. ``evaluate_delta_bar`` takes one d for
a point or for every row of a block. The loop, the report and the solve
hand a one-dimensional objective's gradient flat ``(n,)`` blocks, as its
``SectorFunction`` documents; their results keep their ``dim`` axis.

Which side of 1/L the feedthrough is on is decided exactly by the
verdict's rule, ``passivity._feedthrough_class``: the double nearest 1/L
is the edge. A transformed row's d must equal alpha/2 exactly, which
halving a double gives wherever alpha/2 is normal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractionError,
    ConvergenceError,
    DivergenceError,
    InvalidParameterError,
    ShapeError,
    _count,
    _finite,
    _positive,
)
from .functions import SectorFunction, _row_norms, row_gradient
from .passivity import Classification, _feedthrough_class
from .signals import Signal

__all__ = [
    "LoopTrace",
    "evaluate_delta_bar",
    "delta_bar_operator",
    "run_transformed",
    "loop_equivalence_report",
]

# Loop constants are 0-d arrays: numpy converts a Python float operand on
# every call, which on a one-row block costs as much as the arithmetic.
_ONE = np.array(1.0)
_ULP_FLOOR = np.array(8.0 * np.finfo(float).eps)
# The fixed-point solve's stopping tolerance and iteration budget.
_TOL = np.array(1e-12)
_MAX_ITER = 1000


@dataclass(frozen=True)
class LoopTrace:
    """The loop's signals as read-only arrays, ``(steps, dim)`` for a point
    and ``(steps, n, dim)`` for a block; ``states`` is one step longer, its
    last entry the final state."""

    u1: np.ndarray
    y1: np.ndarray
    u2: np.ndarray
    y2: np.ndarray
    states: np.ndarray

    @property
    def steps(self) -> int:
        return len(self.u1)


def _check_feedthrough(f: SectorFunction, d) -> None:
    """Refuse a feedthrough unless it is one VSP value."""
    if np.ndim(d):
        raise ShapeError(f"the feedthrough d must be a scalar, got shape {np.shape(d)}")
    _positive("feedthrough", d)
    if _feedthrough_class(f.L, d) is not Classification.VSP:
        raise ContractionError(
            f"d = {d} is not below 1/L = {1.0 / f.L}: "
            "the standalone fixed point is not contractive"
        )


def _check_block(f: SectorFunction, x, n: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if not n:
        raise ShapeError("a block needs at least one row")
    if x.shape != (n, f.dim):
        raise ShapeError(f"block has shape {x.shape}, expected ({n}, {f.dim})")
    return x


# Overflow is left to the finiteness test on each iterate's floor, so
# numpy does not warn.
@np.errstate(over="ignore", invalid="ignore")
def _solve_fixed_point(f: SectorFunction, d: float, u: np.ndarray) -> np.ndarray:
    """Solve y = grad_shift(u + d*y) for every row of the ``(n, dim)`` block ``u``.

    A one-dimensional objective iterates on the flat ``(n,)`` block, as the
    engine does, and the result is reshaped to ``(n, 1)`` once, on return.
    Each row starts at grad_shift(u), stops on its own once its update's
    largest entry is within ``_TOL`` and leaves the active set; the others
    keep iterating. An iterate that is not finite raises ConvergenceError at
    once, as do rows still active after ``_MAX_ITER`` iterations.
    """
    grad = row_gradient(f)
    # Each row is measured by its largest absolute entry, finite on every
    # finite row; a flat block's rows are its entries.
    largest = np.abs if f.dim == 1 else (lambda a: np.abs(a).max(axis=1))
    # The shift to the minimizer is hoisted out of the loop; for the zero
    # minimizer of every built-in, (u + x*) + d*y is bitwise (u + d*y) + x*.
    z = (u[:, 0] if f.dim == 1 else u) + f.minimizer
    y = grad(z)
    n = len(u)
    out, rows = np.empty_like(y), np.arange(n)
    for _ in range(_MAX_ITER):
        y_next = grad(z + d * y)
        # The tolerance is floored at a few ulps of the iterate magnitude;
        # below that, rounding noise keeps the differences from shrinking.
        floor = _ULP_FLOOR * (_ONE + largest(y_next))
        # The floor is finite exactly where the iterate is, so one reduction
        # finds a row that overflowed or went NaN, which cannot converge.
        if not floor.max() < math.inf:
            raise ConvergenceError(
                "fixed point iterate is not finite for "
                f"{np.count_nonzero(~np.isfinite(floor))} of {n} points"
            )
        done = largest(y_next - y) <= np.maximum(_TOL, floor)
        # Finished rows are copied out and the active block compacted only
        # on iterations where some finish.
        if 1 in done.tobytes():
            out[rows[done]] = y_next[done]
            keep = ~done
            rows, z, y_next = rows[keep], z[keep], y_next[keep]
            if not rows.size:
                return out.reshape(n, f.dim)
        y = y_next
    raise ConvergenceError(
        f"fixed point did not reach tol={_TOL} within {_MAX_ITER} iterations "
        f"for {len(y)} of {n} points"
    )


def evaluate_delta_bar(f: SectorFunction, d: float, u) -> np.ndarray:
    """Solve y = grad_shift(u + d*y) by fixed-point iteration.

    ``u`` is a point, or an ``(n, dim)`` block whose rows iterate together
    and each stop on their own; the one feedthrough ``d`` serves them all.
    The iteration starts at grad_shift(u) and stops once the update's
    largest entry is within 1e-12, floored at 8 ulps of the iterate's
    largest entry, within 1000 iterations. Requires a VSP feedthrough,
    d < 1/L. That bounds the slope of the gradient only along chords
    through the minimizer, not f'', so the iteration is guaranteed to
    contract only for the quadratic family (factor d*L); elsewhere it may
    raise ConvergenceError.
    """
    block = np.ndim(u) == 2
    u = _check_block(f, u, len(u)) if block else f.check_point(u)[None]
    _check_feedthrough(f, d)
    y = _solve_fixed_point(f, d, u)
    return y if block else y[0]


def delta_bar_operator(f: SectorFunction, d: float):
    """Signal-to-signal form of the transformed nonlinearity (memoryless).

    ``d`` is checked once, here. All time steps of a signal are solved
    together, as one block call of ``evaluate_delta_bar``.
    """
    _check_feedthrough(f, d)

    def apply(u: Signal) -> Signal:
        if u.dim != f.dim:
            raise ShapeError(f"signal dim {u.dim} does not match function dim {f.dim}")
        if not u.horizon:
            return u
        return Signal(evaluate_delta_bar(f, d, u.samples))

    return apply


def _loop_rows(f: SectorFunction, alpha, d, x0, steps: int):
    """The ``(n,)`` alpha and d and ``(n, dim)`` starts of a point or block call.

    Each row is checked as the point call checks its one row.
    """
    block = np.ndim(alpha) == 1
    alpha, d = np.atleast_1d(alpha), np.atleast_1d(d)
    if d.shape != alpha.shape:
        raise ShapeError(f"alpha and d differ in shape: {alpha.shape} vs {d.shape}")
    for a, v in zip(alpha, d):
        _positive("step size", a)
        if v == 0.0:
            continue
        _positive("feedthrough", v)
        if v != a / 2.0:
            raise InvalidParameterError(
                "this loop is configured with d = alpha/2, or d = 0 for the "
                f"untransformed loop; got d={v}, alpha={a}"
            )
    _count("steps", steps, 1)
    x0 = _check_block(f, x0, len(alpha)) if block else f.check_point(x0)[None]
    for row in x0:
        _finite("x0", row)
    return alpha.astype(float), d.astype(float), x0


def _exogenous(r, steps: int, dim: int) -> np.ndarray:
    """The first ``steps`` samples of an exogenous input; None is zero."""
    if r is None:
        return np.zeros((steps, dim))
    r = np.asarray(r, dtype=float)
    if r.ndim != 2 or r.shape[0] < steps or r.shape[1] != dim:
        raise ShapeError(
            f"exogenous input has shape {r.shape}, expected (horizon, {dim}) "
            f"with horizon >= {steps} steps"
        )
    return r[:steps]


# Overflow is left to the finiteness test on each new state, so numpy
# does not warn.
@np.errstate(over="ignore", invalid="ignore")
def run_transformed(
    f: SectorFunction,
    alpha,
    d,
    x0,
    steps: int,
    r1=None,
    r2=None,
):
    """Simulate the loop-transformed interconnection for ``steps`` steps.

    ``x0`` is a point, with scalar ``alpha`` and ``d``, and the result a
    LoopTrace of ``(steps, dim)`` arrays; or an ``(n, dim)`` block, with
    ``(n,)`` ``alpha`` and ``d``, and the result one LoopTrace of
    ``(steps, n, dim)`` arrays, every step run once for all rows. The
    exogenous inputs r1, r2 of the untransformed loop are array-likes of
    shape ``(horizon, dim)`` with ``horizon >= steps``, zero when omitted,
    and shared by the rows; a row sees r2_bar = r2 - d*r1. Each row runs
    the controller (I, alpha*I, I, d*I) with d = alpha/2, or with d = 0,
    which is the untransformed, strictly proper loop. Its state is the
    shifted iterate, so ``x0`` is converted through the minimizer. Every
    row takes the algebraic elimination of the module docstring, one
    gradient call per step, so with zero exogenous inputs and a zero
    minimizer its trace equals the recursion x <- x - alpha*grad f(x) bit
    for bit. A row past d = 1/L refuses the call. A state that turns non-finite raises
    DivergenceError, which carries the last finite iterate of the first
    such row.
    """
    block = np.ndim(alpha) == 1
    alpha, d, x0 = _loop_rows(f, alpha, d, x0, steps)
    n, dim = x0.shape
    r1, r2 = _exogenous(r1, steps, dim), _exogenous(r2, steps, dim)

    # As in _check_feedthrough, the largest d decides whether any row is past 1/L.
    if _feedthrough_class(f.L, d.max()) is Classification.NONE:
        raise ContractionError(
            f"d = {d.max()} is past 1/L = {1.0 / f.L}: the transformed loop is not certified"
        )
    # A one-dimensional objective runs on flat (n,) rows, and its signals get
    # their dim axis after the run.
    shape = (n,) if dim == 1 else (n, dim)
    y2, states = np.empty((steps, *shape)), np.empty((steps + 1, *shape))
    states[0] = (x0 - f.minimizer).reshape(shape)
    d_col, alpha_col, r1_steps, r2_steps = (
        a if dim == 1 else a[:, None] for a in (d, alpha, r1, r2))
    # v = r2_bar + d*r1 + C xi, with r2_bar = r2 - d*r1; at d = 0 it is r2 + C xi.
    v_offset = (r2_steps - d_col * r1_steps) + d_col * r1_steps
    grad = row_gradient(f)
    # The time loop carries only the recursion; the other signals are
    # formed after it over all steps, bitwise their per-step values.
    for k in range(steps):
        xi = states[k]
        y2[k] = grad((v_offset[k] + xi) + f.minimizer)
        states[k + 1] = xi + alpha_col * (r1_steps[k] - y2[k])
        if 0 in np.isfinite(states[k + 1]).tobytes():
            row = np.flatnonzero(~np.isfinite(states[k + 1].reshape(n, dim)).all(axis=1))[0]
            raise DivergenceError(
                f"loop state became non-finite at step {k + 1}",
                last_iterate=xi[row] + f.minimizer,
            )
    u1 = r1_steps - y2
    u2 = (v_offset + states[:-1]) - d_col * y2
    y1 = states[:-1] + d_col * u1
    signals = [a.reshape(len(a), n, dim) for a in (u1, y1, u2, y2, states)]
    for a in signals:
        a.setflags(write=False)
    return LoopTrace(*(signals if block else (a[:, 0] for a in signals)))


def loop_equivalence_report(
    f: SectorFunction,
    alpha,
    x0,
    steps: int,
    r1=None,
    r2=None,
):
    """The loop transformation's claim, checked on a point or a block of starts.

    Every row runs at d = alpha/2 and, as the untransformed loop, at d = 0,
    all in one block call of ``run_transformed`` under the shared
    exogenous ``(horizon, dim)`` inputs r1, r2 (zero by default). Returns
    ``(deviation, residual)``: the worst distance
    max_k ||xi_transformed[k] - xi_untransformed[k]|| between the two
    states, and the worst per-step
    implicit-relation residual ||grad_shift(u2 + d*y2) - y2|| / (1 +
    ||y2||), evaluated after the run in one gradient call over all steps
    and rows. Each is a float for a point ``x0`` with scalar ``alpha``,
    and ``(n,)`` for an ``(n, dim)`` block with ``(n,)`` ``alpha``.
    """
    block = np.ndim(alpha) == 1
    alpha, d, x0 = _loop_rows(f, alpha, np.divide(alpha, 2.0), x0, steps)
    n = len(alpha)
    d = np.concatenate([d, np.zeros(n)])
    trace = run_transformed(
        f, np.concatenate([alpha, alpha]), d, np.concatenate([x0, x0]), steps, r1, r2
    )
    y2 = trace.y2
    # One gradient call over every step and row, as one block of rows.
    z = (trace.u2 + d[:, None] * y2 + f.minimizer).reshape(-1, f.dim)
    y = row_gradient(f)(z[:, 0] if f.dim == 1 else z).reshape(y2.shape)
    relation = _row_norms(y - y2) / (_ONE + _row_norms(y2))
    # np.max, unlike max(), keeps a NaN, which fails a check on it.
    states = trace.states
    devs = np.max(_row_norms(states[:, :n] - states[:, n:]), axis=0)
    residuals = np.max(np.maximum(relation[:, :n], relation[:, n:]), axis=0)
    if block:
        return devs, residuals
    return float(devs[0]), float(residuals[0])
