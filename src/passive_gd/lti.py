"""Positive-real passivity certificates for the gradient-descent controller.

The controller of the loop-transformed update is (I, alpha*I, I, d*I), a
scalar multiple of identity blocks, so the certificate search is
restricted to the family P = p*I, for which p = 1/alpha is the unique
feasible shape.

The positive-real test runs on a stack of realizations at once: one
broadcast block matrix and one ``eigvalsh`` call for the whole stack.
``gd_passivity_certificate`` takes a pair of scalars or of ``(n,)``
arrays, the scalar pair being the one-row case of the arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, _positive_entries

__all__ = [
    "PositiveRealCertificate",
    "gd_passivity_certificate",
]


@dataclass(frozen=True)
class PositiveRealCertificate:
    """Storage candidate P = p_scalar * I, ``feasible`` if the block matrix is <= 0."""

    p_scalar: float
    max_eigenvalue_M: float
    feasible: bool


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
    the verdicts and of the largest eigenvalues.

    Each block matrix is symmetrized before the eigenvalue computation and
    its semidefiniteness threshold is scaled by its largest entry, so exact
    boundary cases survive rounding.
    """
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
