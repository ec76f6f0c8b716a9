"""Negative feedback loops coupling an LTI controller with a gradient block.

The untransformed loop is delay-free only because the controller is
strictly proper. After the loop transformation both blocks carry the
feedthrough d, so each step contains an algebraic loop. Wiring algebra
eliminates the outer pass-through exactly (the inner gradient argument
v = r2 + C xi is loop-free), which pins the transformed nonlinearity
input u2 = v - d * grad_shift(v); the transformed output is then
re-solved numerically from the implicit relation y = grad_shift(u2 + d*y).
Each per-step solve starts at the algebraic elimination's output
probe = grad_shift(v), which solves the relation up to rounding, and
still iterates to the solver tolerance, so the state trajectory inherits
that tolerance rather than being copied from the untransformed recursion.

The standalone fixed-point iteration contracts with factor d * sup|f''|
over the region the iterates visit. For the quadratic family that factor
is d*L, but a sector bound through the minimizer does not cap the second
derivative, so the oscillatory built-in loses contraction (and the
implicit relation loses uniqueness) at large amplitude. The loop
executor therefore keeps the iteration result only when it returns the
loop-consistent branch, uses the exact linear solve whenever a constant
Hessian is available, and falls back to the algebraic elimination
otherwise; plain iteration from grad_shift(u) remains the standalone
evaluation route.

Which side of 1/L the feedthrough is on is decided by the verdict's rule,
``passivity._feedthrough_class``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AlgebraicLoopError,
    ContractionError,
    ConvergenceError,
    InvalidParameterError,
    ShapeError,
    _count,
    _finite,
    _positive,
)
from .functions import SectorFunction, _row_norms, row_gradient, shifted_gradient
from .lti import StateSpaceRealization, modified_gd_realization
from .passivity import Classification, _close, _feedthrough_class
from .signals import Signal

__all__ = [
    "FeedbackLoop",
    "LoopTrace",
    "run_untransformed",
    "evaluate_delta_bar",
    "delta_bar_operator",
    "run_transformed",
    "loop_equivalence_report",
]

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 1000
BOUNDARY_MAX_ITER = 10_000
# Loop constants are 0-d arrays: numpy converts a Python float operand on
# every call, which on a one-row block costs as much as the arithmetic.
_ONE = np.array(1.0)
_HALF = np.array(0.5)
_ULP_FLOOR = np.array(8.0 * np.finfo(float).eps)


@dataclass(frozen=True)
class FeedbackLoop:
    """Controller and gradient block with exogenous inputs r1, r2."""

    controller: StateSpaceRealization
    function: SectorFunction
    r1: Signal
    r2: Signal
    xi0: np.ndarray

    def __post_init__(self):
        ss = self.controller
        if not (ss.n_inputs == ss.n_outputs == self.function.dim):
            raise ShapeError(
                f"controller is {ss.n_outputs}x{ss.n_inputs} but the function "
                f"has dimension {self.function.dim}"
            )
        if self.r1.horizon != self.r2.horizon:
            raise ShapeError(
                f"r1 and r2 horizons differ: {self.r1.horizon} vs {self.r2.horizon}"
            )
        if self.r1.dim != self.function.dim or self.r2.dim != self.function.dim:
            raise ShapeError("exogenous inputs must match the loop dimension")
        xi = np.asarray(self.xi0, dtype=float).reshape(-1)
        if xi.shape != (ss.n_states,):
            raise ShapeError(f"xi0 has shape {xi.shape}, expected ({ss.n_states},)")
        xi.setflags(write=False)
        object.__setattr__(self, "xi0", xi)


@dataclass(frozen=True)
class LoopTrace:
    """Per-step loop signals; ``states`` includes the final state."""

    u1: Signal
    y1: Signal
    u2: Signal
    y2: Signal
    states: Signal
    steps: int


def run_untransformed(loop: FeedbackLoop, steps: int) -> LoopTrace:
    """Execute the strictly proper loop step by step."""
    ss = loop.controller
    if not ss.is_strictly_proper:
        raise AlgebraicLoopError(
            "controller has nonzero feedthrough, so the loop is delay-free "
            "in both directions; use run_transformed instead"
        )
    _count("steps", steps, 1)
    if loop.r1.horizon < steps:
        raise ShapeError(
            f"exogenous horizon {loop.r1.horizon} is shorter than {steps} steps"
        )
    dim = loop.function.dim
    u1 = np.empty((steps, dim))
    y1 = np.empty((steps, dim))
    u2 = np.empty((steps, dim))
    y2 = np.empty((steps, dim))
    states = np.empty((steps + 1, ss.n_states))
    states[0] = loop.xi0
    for k in range(steps):
        y1[k] = ss.C @ states[k]
        u2[k] = loop.r2.samples[k] + y1[k]
        y2[k] = shifted_gradient(loop.function, u2[k])
        u1[k] = loop.r1.samples[k] - y2[k]
        states[k + 1] = ss.A @ states[k] + ss.B @ u1[k]
    return LoopTrace(
        u1=Signal(u1), y1=Signal(y1), u2=Signal(u2), y2=Signal(y2),
        states=Signal(states), steps=steps,
    )


def _check_feedthrough(f: SectorFunction, d: float):
    _positive("feedthrough", d)
    if _feedthrough_class(f.L, d) is not Classification.VSP:
        raise ContractionError(
            f"d*L = {d * f.L} is not below 1 (boundary tolerance 1e-12): "
            "the standalone fixed point is not contractive"
        )


def _solve_fixed_point(
    f: SectorFunction,
    d: float,
    u: np.ndarray,
    tol: float,
    max_iter: int,
    y: np.ndarray | None = None,
    damping: bool = False,
) -> np.ndarray:
    """Solve y = grad_shift(u + d*y) for every row of the ``(n, dim)`` block ``u``.

    ``y`` holds the start rows; by default each row starts at
    grad_shift(u). Each row stops on its own once its update is within
    ``tol`` and leaves the active set; the others keep iterating. With
    ``damping`` every update is averaged 1/2 with the current iterate: at
    d*L = 1 the plain iteration is only non-expansive, and the averaging
    restores convergence wherever the local curvature is strictly below L.
    """
    grad = row_gradient(f)
    d, tol = np.array(float(d)), np.array(float(tol))  # 0-d, as _ONE above
    # The shift to the minimizer is hoisted out of the loop; for the zero
    # minimizer of every built-in, (u + x*) + d*y is bitwise (u + d*y) + x*.
    z = u + f.minimizer
    if y is None:
        y = grad(z)
    n = len(u)
    # Finished rows are copied out and the active block compacted only on
    # iterations where some, but not all, rows finish; a block whose rows
    # all finish together is returned as it stands.
    out = rows = None
    for _ in range(max_iter):
        y_next = grad(z + d * y)
        if damping:
            y_next = _HALF * y + _HALF * y_next
        # The tolerance is floored at a few ulps of the iterate magnitude;
        # below that, rounding noise keeps the differences from shrinking.
        floor = _ULP_FLOOR * (_ONE + _row_norms(y_next))
        done = _row_norms(y_next - y) <= np.maximum(tol, floor)
        n_done = np.count_nonzero(done)
        if n_done == len(y_next):
            if rows is None:
                return y_next
            out[rows] = y_next
            return out
        if n_done:
            if rows is None:
                out, rows = np.empty_like(y_next), np.arange(n)
            out[rows[done]] = y_next[done]
            keep = ~done
            rows, z, y_next = rows[keep], z[keep], y_next[keep]
        y = y_next
    kind = "damped fixed point" if damping else "fixed point"
    raise ConvergenceError(
        f"{kind} did not reach tol={tol} within {max_iter} iterations "
        f"for {len(y)} of {n} points"
    )


def evaluate_delta_bar(
    f: SectorFunction,
    d: float,
    u,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    *,
    y0=None,
) -> np.ndarray:
    """Solve y = grad_shift(u + d*y) by fixed-point iteration.

    The iteration starts at ``y0`` when it is given and at grad_shift(u)
    otherwise, and stops once an update is within ``tol``. Requires a VSP
    feedthrough, d < 1/L. That bounds the slope of the gradient only along
    chords through the minimizer, not f'', so the iteration is guaranteed
    to contract only for the quadratic family (factor d*L); elsewhere it
    may raise ConvergenceError.
    """
    _check_feedthrough(f, d)
    y = None if y0 is None else f.check_point(y0)[None]
    return _solve_fixed_point(f, d, f.check_point(u)[None], tol, max_iter, y=y)[0]


def _on_branch(y_fp: np.ndarray, probe: np.ndarray) -> bool:
    return bool(
        np.linalg.norm(y_fp - probe) <= 1e-6 * (1.0 + np.linalg.norm(probe))
    )


def delta_bar_operator(f: SectorFunction, d: float):
    """Signal-to-signal form of the transformed nonlinearity (memoryless).

    All time steps of a signal are solved together in one fixed point, to
    ``DEFAULT_TOL`` within ``DEFAULT_MAX_ITER`` iterations.
    """

    def apply(u: Signal) -> Signal:
        if u.dim != f.dim:
            raise ShapeError(f"signal dim {u.dim} does not match function dim {f.dim}")
        _check_feedthrough(f, d)
        return Signal(_solve_fixed_point(f, d, u.samples, DEFAULT_TOL, DEFAULT_MAX_ITER))

    return apply


def run_transformed(
    f: SectorFunction,
    alpha: float,
    d: float,
    x0,
    steps: int,
    r1: Signal | None = None,
    r2: Signal | None = None,
) -> LoopTrace:
    """Simulate the loop-transformed interconnection for ``steps`` steps.

    The configuration is pinned to d = alpha/2. The controller state is
    the shifted iterate, so ``x0`` is converted through the minimizer.
    At an ISP feedthrough d = 1/L the per-step loop is solved in closed
    form for the quadratic family and by damped iteration otherwise; past
    1/L the loop is refused. Each per-step fixed point iterates to
    ``DEFAULT_TOL``, within ``DEFAULT_MAX_ITER`` iterations
    (``BOUNDARY_MAX_ITER`` at the boundary).
    """
    dim = f.dim
    controller = modified_gd_realization(alpha, d, dim=dim)
    if not _close(d, alpha / 2.0):
        raise InvalidParameterError(
            f"this loop is configured with d = alpha/2; got d={d}, alpha={alpha}"
        )
    _count("steps", steps, 1)
    x0 = f.check_point(x0)
    _finite("x0", x0)
    if r1 is None:
        r1 = Signal.zeros(dim, steps)
    if r2 is None:
        r2 = Signal.zeros(dim, steps)
    if r1.horizon < steps or r2.horizon < steps:
        raise ShapeError("exogenous horizons are shorter than the requested steps")
    if r1.dim != dim or r2.dim != dim:
        raise ShapeError("exogenous inputs must match the function dimension")

    classification = _feedthrough_class(f.L, d)
    if classification is Classification.NONE:
        raise ContractionError(
            f"d*L = {d * f.L} > 1: no certified evaluation scheme for this loop"
        )
    at_boundary = classification is Classification.ISP
    u1 = np.empty((steps, dim))
    y1 = np.empty((steps, dim))
    u2 = np.empty((steps, dim))
    y2 = np.empty((steps, dim))
    states = np.empty((steps + 1, dim))
    states[0] = x0 - f.minimizer
    r2_bar = r2.samples[:steps] - d * r1.samples[:steps]

    loop_matrix = None if f.hessian is None else np.eye(dim) - d * f.hessian
    for k in range(steps):
        xi = states[k]
        c_xi = controller.C @ xi
        # v is the inner gradient argument; the wiring makes it loop-free:
        # v = r2_bar + d*r1 + C xi = r2 + C xi.
        v = r2_bar[k] + d * r1.samples[k] + c_xi
        probe = shifted_gradient(f, v)
        u2[k] = v - d * probe
        if f.hessian is not None:
            if at_boundary:
                # I - d*H is singular; the joint loop solution is the probe.
                y2[k] = probe
            else:
                y2[k] = np.linalg.solve(loop_matrix, f.hessian @ u2[k])
        elif at_boundary:
            y_fp = _solve_fixed_point(
                f, d, u2[k : k + 1], DEFAULT_TOL, BOUNDARY_MAX_ITER, y=probe[None],
                damping=True,
            )[0]
            y2[k] = y_fp if _on_branch(y_fp, probe) else probe
        else:
            # The implicit relation can be multivalued away from the
            # minimizer, where local curvature exceeds the sector slope; the
            # iteration result is kept only when it lands on the
            # loop-consistent branch, otherwise the exact elimination wins.
            # The iteration starts at the probe, which solves the relation up
            # to rounding, so it usually stops after its first update.
            try:
                y_fp = evaluate_delta_bar(f, d, u2[k], y0=probe)
            except ConvergenceError:
                y2[k] = probe
            else:
                y2[k] = y_fp if _on_branch(y_fp, probe) else probe
        u1[k] = r1.samples[k] - y2[k]
        y1[k] = c_xi + controller.D @ u1[k]
        states[k + 1] = controller.A @ xi + controller.B @ u1[k]
    return LoopTrace(
        u1=Signal(u1), y1=Signal(y1), u2=Signal(u2), y2=Signal(y2),
        states=Signal(states), steps=steps,
    )


def loop_equivalence_report(
    f: SectorFunction, alpha: float, x0, steps: int
) -> float:
    """Worst deviation between the raw recursion and the transformed loop.

    Returns max over k <= steps of ||x_direct[k] - (xi_loop[k] + x*)||.
    """
    x0 = f.check_point(x0)
    trace = run_transformed(f, alpha, alpha / 2.0, x0, steps)
    x = x0.copy()
    devs = []
    for k in range(steps + 1):
        loop_x = trace.states.samples[k] + f.minimizer
        devs.append(float(np.linalg.norm(x - loop_x)))
        if k < steps:
            x = x - alpha * np.asarray(f.gradient(x), dtype=float)
    # np.max, unlike max(), keeps a NaN deviation.
    return float(np.max(devs))
