"""Discrete-time LTI blocks and positive-real passivity certificates.

The two controller realizations used throughout are scalar multiples of
identity blocks, so the certificate search is restricted to the family
P = p*I, for which p = 1/alpha is the unique feasible shape.

The positive-real test runs on a stack of realizations at once: one
broadcast block matrix and one ``eigvalsh`` call for the whole stack.
``positive_real_check`` is its one-matrix case, and
``gd_passivity_certificate`` takes a pair of scalars or of ``(n,)``
arrays, the scalar pair being the one-row case of the arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from .errors import ShapeError, _positive, _positive_entries
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
            mat = np.atleast_2d(np.array(getattr(self, name), dtype=float))
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


def _t(M: np.ndarray) -> np.ndarray:
    """The transpose of every matrix in a stack."""
    return np.swapaxes(M, -1, -2)


def _block_matrix(A, B, C, D, p: np.ndarray) -> np.ndarray:
    """The block matrix of each realization in the ``(k, ., .)`` stacks, with
    storage P = p[i]*I for the ``(k,)`` scalars ``p``."""
    P = p[:, None, None] * np.eye(A.shape[-1])
    top_left = _t(A) @ P @ A - P
    off_diag = _t(A) @ P @ B - _t(C)
    corner = _t(B) @ P @ B - (D + _t(D))
    return np.concatenate(
        [
            np.concatenate([top_left, off_diag], axis=-1),
            np.concatenate([_t(off_diag), corner], axis=-1),
        ],
        axis=-2,
    )


def _positive_real(A, B, C, D, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positive-real test on a stack of realizations: ``(k,)`` arrays of
    the verdicts and of the largest eigenvalues."""
    if B.shape[-1] != C.shape[-2]:
        raise ShapeError(
            f"positive-real test needs a square system, got {B.shape[-1]} inputs "
            f"and {C.shape[-2]} outputs"
        )
    _positive_entries("p_scalar", p)
    M = _block_matrix(A, B, C, D, p)
    M = 0.5 * (M + _t(M))
    max_eig = np.linalg.eigvalsh(M)[:, -1]
    tol = 1e-10 * (1.0 + np.max(np.abs(M), axis=(-2, -1)))
    return max_eig <= tol, max_eig


def positive_real_check(
    ss: StateSpaceRealization, p_scalar: float
) -> tuple[bool, float]:
    """Test whether P = p_scalar*I makes the positive-real block matrix <= 0.

    The matrix is symmetrized before the eigenvalue computation and the
    semidefiniteness threshold is scaled by its largest entry, so exact
    boundary cases survive rounding. This is the one-matrix case of the
    stacked test behind ``gd_passivity_certificate``.
    """
    p = np.atleast_1d(p_scalar)
    if p.shape != (1,):
        raise ShapeError(f"p_scalar must be a scalar, got shape {np.shape(p_scalar)}")
    feasible, max_eig = _positive_real(ss.A[None], ss.B[None], ss.C[None], ss.D[None], p)
    return bool(feasible[0]), float(max_eig[0])


def gd_passivity_certificate(
    alpha, d
) -> PositiveRealCertificate | list[PositiveRealCertificate]:
    """Certify the modified controller with the closed-form candidate p = 1/alpha.

    The candidate is always submitted to the numeric positive-real check,
    which succeeds exactly when d >= alpha/2 up to the scaled tolerance.
    Scalars ``alpha`` and ``d`` give one ``PositiveRealCertificate``;
    ``(n,)`` arrays give a list of ``n``, checked as one stack of scalar
    realizations. A scalar pair is the one-row case, so it gives the bits
    of the same pair inside an array.
    """
    alpha, d = np.asarray(alpha), np.asarray(d)
    if alpha.shape != d.shape or alpha.ndim > 1:
        raise ShapeError(
            "alpha and d must be two scalars or two (n,) arrays of one length, "
            f"got shapes {alpha.shape} and {d.shape}"
        )
    scalar = alpha.ndim == 0
    alpha, d = alpha.reshape(-1), d.reshape(-1)
    _positive_entries("step size", alpha)
    _positive_entries("feedthrough", d)
    # A subnormal alpha overflows p to inf, which the p_scalar check refuses.
    with np.errstate(over="ignore"):
        p = 1.0 / alpha
    # The realization (I, alpha*I, I, d*I) at dim 1, for every pair.
    ones = np.ones((len(alpha), 1, 1))
    B, D = (v.reshape(-1, 1, 1) * ones for v in (alpha, d))
    feasible, max_eig = _positive_real(ones, B, ones, D, p)
    certs = [
        PositiveRealCertificate(*row)
        for row in zip(p.tolist(), max_eig.tolist(), feasible.tolist())
    ]
    return certs[0] if scalar else certs
