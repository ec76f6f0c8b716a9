"""Positive-real passivity certificates for the gradient-descent controller.

The controller of the loop-transformed update is (I, alpha*I, I, d*I), a
scalar multiple of identity blocks, so the certificate search is
restricted to the family P = p*I, for which p = 1/alpha is the unique
feasible shape. With P = p*I the positive-real condition of a pair is the
2x2 block matrix of the scalar realization (1, alpha, 1, d):
[[0, p*alpha - 1], [p*alpha - 1, alpha*p*alpha - 2d]].

``gd_passivity_certificate`` takes a pair of scalars or of ``(n,)``
arrays, the scalar pair being the one-row case of the arrays, and makes
one ``eigvalsh`` call on the ``(n, 2, 2)`` stack of these matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, _finite_reciprocal, _positive_entries

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


def gd_passivity_certificate(
    alpha, d
) -> PositiveRealCertificate | list[PositiveRealCertificate]:
    """Certify the modified controller with the closed-form candidate p = 1/alpha.

    The candidate is always submitted to the numeric positive-real check,
    which succeeds exactly when d >= alpha/2 up to a tolerance scaled by
    the matrix's largest entry, so exact boundary cases survive rounding.
    Scalars ``alpha`` and ``d`` give one ``PositiveRealCertificate``;
    ``(n,)`` arrays give a list of ``n``, checked as one stack of block
    matrices. A scalar pair is the one-row case, so it gives the bits of
    the same pair inside an array.
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
    # A subnormal alpha overflows p to inf; the first such step is refused by name.
    with np.errstate(over="ignore"):
        p = 1.0 / alpha
    over = np.isinf(p)
    if 1 in over.tobytes():
        _finite_reciprocal("step size", "alpha", alpha[over.argmax()])
    M = np.zeros((len(alpha), 2, 2))
    M[:, 0, 1] = M[:, 1, 0] = p * alpha - 1.0
    M[:, 1, 1] = alpha * p * alpha - (d + d)
    max_eig = np.linalg.eigvalsh(M)[:, -1]
    feasible = max_eig <= 1e-10 * (1.0 + np.max(np.abs(M), axis=(-2, -1)))
    certs = [
        PositiveRealCertificate(*row)
        for row in zip(p.tolist(), max_eig.tolist(), feasible.tolist())
    ]
    return certs[0] if scalar else certs
