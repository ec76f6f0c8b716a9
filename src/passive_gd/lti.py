"""Discrete-time LTI blocks and positive-real passivity certificates.

The two controller realizations used throughout are scalar multiples of
identity blocks, so the certificate search is restricted to the family
P = p*I, for which p = 1/alpha is the unique feasible shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from .errors import ShapeError, _positive
from .signals import Signal

__all__ = [
    "StateSpaceRealization",
    "PositiveRealCertificate",
    "gd_realization",
    "modified_gd_realization",
    "simulate",
    "positive_real_check",
    "gd_passivity_certificate",
]


@dataclass(frozen=True)
class StateSpaceRealization:
    """An (A, B, C, D) quadruple for xi[k+1] = A xi[k] + B u[k], y = C xi + D u."""

    A: np.ndarray = field(repr=False)
    B: np.ndarray = field(repr=False)
    C: np.ndarray = field(repr=False)
    D: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name in ("A", "B", "C", "D"):
            mat = np.atleast_2d(np.asarray(getattr(self, name), dtype=float))
            mat.setflags(write=False)
            object.__setattr__(self, name, mat)
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ShapeError(f"A must be square, got {self.A.shape}")
        if self.B.shape[0] != n:
            raise ShapeError(f"B must have {n} rows, got {self.B.shape}")
        if self.C.shape[1] != n:
            raise ShapeError(f"C must have {n} columns, got {self.C.shape}")
        if self.D.shape != (self.C.shape[0], self.B.shape[1]):
            raise ShapeError(
                f"D must be {self.C.shape[0]}x{self.B.shape[1]}, got {self.D.shape}"
            )

    @property
    def n_states(self) -> int:
        return self.A.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.B.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.C.shape[0]

    @property
    def is_square(self) -> bool:
        return self.n_inputs == self.n_outputs

    @property
    def is_strictly_proper(self) -> bool:
        return bool(np.all(self.D == 0.0))


@dataclass(frozen=True)
class PositiveRealCertificate:
    """Storage candidate P = p_scalar * I, ``feasible`` if the block matrix is <= 0."""

    p_scalar: float
    max_eigenvalue_M: float
    feasible: bool


def gd_realization(alpha: float, dim: int = 1) -> StateSpaceRealization:
    """Strictly proper controller (I, alpha*I, I, 0) of the fixed-step update."""
    _positive("step size", alpha)
    eye = np.eye(dim)
    return StateSpaceRealization(eye, alpha * eye, eye, np.zeros((dim, dim)))


def modified_gd_realization(alpha: float, d: float, dim: int = 1) -> StateSpaceRealization:
    """Loop-transformed controller (I, alpha*I, I, d*I) with feedthrough d > 0."""
    _positive("step size", alpha)
    _positive("feedthrough", d)
    eye = np.eye(dim)
    return StateSpaceRealization(eye, alpha * eye, eye, d * eye)


def simulate(ss: StateSpaceRealization, u: Signal, xi0) -> tuple[Signal, Signal]:
    """Run the recursion over the input horizon.

    Returns ``(states, y)`` where ``states`` has horizon ``u.horizon + 1``
    (it includes the final state) and ``y`` has horizon ``u.horizon``.
    """
    if u.dim != ss.n_inputs:
        raise ShapeError(f"input dim {u.dim} does not match B columns {ss.n_inputs}")
    xi = np.asarray(xi0, dtype=float).reshape(-1)
    if xi.shape != (ss.n_states,):
        raise ShapeError(f"xi0 has shape {xi.shape}, expected ({ss.n_states},)")
    T = u.horizon
    states = np.empty((T + 1, ss.n_states))
    outputs = np.empty((T, ss.n_outputs))
    states[0] = xi
    for k in range(T):
        uk = u.samples[k]
        outputs[k] = ss.C @ states[k] + ss.D @ uk
        states[k + 1] = ss.A @ states[k] + ss.B @ uk
    return Signal(states), Signal(outputs)


def _block_matrix(ss: StateSpaceRealization, p_scalar: float) -> np.ndarray:
    P = p_scalar * np.eye(ss.n_states)
    top_left = ss.A.T @ P @ ss.A - P
    off_diag = ss.A.T @ P @ ss.B - ss.C.T
    corner = ss.B.T @ P @ ss.B - (ss.D + ss.D.T)
    return np.block([[top_left, off_diag], [off_diag.T, corner]])


def positive_real_check(
    ss: StateSpaceRealization, p_scalar: float
) -> tuple[bool, float]:
    """Test whether P = p_scalar*I makes the positive-real block matrix <= 0.

    The matrix is symmetrized before the eigenvalue computation and the
    semidefiniteness threshold is scaled by its largest entry, so exact
    boundary cases survive rounding.
    """
    if not ss.is_square:
        raise ShapeError(
            f"positive-real test needs a square system, got {ss.n_inputs} inputs "
            f"and {ss.n_outputs} outputs"
        )
    _positive("p_scalar", p_scalar)
    M = _block_matrix(ss, p_scalar)
    M = 0.5 * (M + M.T)
    max_eig = float(np.linalg.eigvalsh(M)[-1])
    tol = 1e-10 * (1.0 + float(np.max(np.abs(M))))
    return max_eig <= tol, max_eig


def gd_passivity_certificate(alpha: float, d: float) -> PositiveRealCertificate:
    """Certify the modified controller with the closed-form candidate p = 1/alpha.

    The candidate is always submitted to the numeric positive-real check,
    which succeeds exactly when d >= alpha/2 up to the scaled tolerance.
    """
    ss = modified_gd_realization(alpha, d, dim=1)
    p_scalar = 1.0 / alpha
    feasible, max_eig = positive_real_check(ss, p_scalar)
    return PositiveRealCertificate(p_scalar, max_eig, feasible)
