"""Passivity indices of the shifted gradient and step-size certification.

For a gradient in the sector [m, L], the shifted-gradient operator is
very strictly passive with input index delta = mL/(m+L) and output index
epsilon = 1/(m+L). Closing positive feedback d*I around it rescales the
indices; each index is the double nearest its exact value. With d = alpha/2
the controller is passive, and the side of 1/L that d is on, decided
exactly by ``_feedthrough_class``, gives the verdict.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    ContractionError,
    DegenerateSectorError,
    InvalidParameterError,
    ShapeError,
    _count,
    _finite_reciprocal,
    _positive,
    _sector,
)
from .lti import PositiveRealCertificate, gd_passivity_certificate
from .signals import Signal

__all__ = [
    "Classification",
    "Verdict",
    "PassivityIndices",
    "StepSizeVerdict",
    "nabla_indices",
    "transformed_indices",
    "certify_step_size",
    "empirical_passivity_margin",
]


class Classification(enum.Enum):
    ISP = "isp"
    VSP = "vsp"
    NONE = "none"


class Verdict(enum.Enum):
    STRONG = "strong"
    WEAK = "weak"
    NONE = "none"


_VERDICT_OF_CLASS = {Classification.VSP: Verdict.STRONG, Classification.ISP: Verdict.WEAK}


@dataclass(frozen=True)
class PassivityIndices:
    """Input and output indices (delta, epsilon) and the class they give."""

    delta: float
    epsilon: float
    classification: Classification


@dataclass(frozen=True)
class StepSizeVerdict:
    alpha: float
    d: float
    verdict: Verdict
    transformed_indices: Optional[PassivityIndices]
    certificate: PositiveRealCertificate


def _feedthrough_class(l: float, d: float) -> Classification:
    """ISP at d == 1.0 / l, VSP below it, NONE above it. That double is the
    one nearest 1/L, so the side is exact; ISP reads its half-ulp as 1/L."""
    inv = 1.0 / l
    if d == inv:
        return Classification.ISP
    return Classification.VSP if d < inv else Classification.NONE


def _nearest(name: str, num: int, den: int) -> float:
    """The double nearest num/den, which int/int division rounds once."""
    try:
        return num / den
    except OverflowError:
        raise InvalidParameterError(f"{name} is past the double range") from None


def nabla_indices(m: float, l: float) -> PassivityIndices:
    """Indices of the shifted gradient, which is VSP, each nearest its exact value."""
    _sector(m, l)
    (mp, mq), (lp, lq) = float(m).as_integer_ratio(), float(l).as_integer_ratio()
    s = mp * lq + lp * mq
    return PassivityIndices(mp * lp / s, mq * lq / s, Classification.VSP)


def transformed_indices(m: float, l: float, d: float) -> PassivityIndices:
    """Indices after closing positive feedback d*I around the shifted gradient.

    delta_bar = delta / (1 - 2*delta*d) = mL / D
    epsilon_bar = (epsilon - d + delta*d^2) / (1 - 2*delta*d) = (1 - dm)(1 - dL) / D

    with D = m + L - 2mLd, each the double nearest its exact value. The
    class is VSP for d < 1/L and NONE past it. At the double nearest 1/L
    it is ISP (m < L required) and d is taken as 1/L exactly, so
    epsilon_bar = 0 and delta_bar = mL/(L - m). D <= 0 is m == L at ISP
    and past the VSP root elsewhere.
    """
    _sector(m, l)
    _positive("feedthrough", d)
    classification = _feedthrough_class(l, d)
    isp = classification is Classification.ISP
    (mp, mq), (lp, lq) = float(m).as_integer_ratio(), float(l).as_integer_ratio()
    # At ISP, d is taken as 1/L exactly.
    dp, dq = (lq, lp) if isp else float(d).as_integer_ratio()
    den = dq * (lp * mq + mp * lq) - 2 * mp * dp * lp
    if den <= 0:
        if isp:
            raise DegenerateSectorError(f"d = 1/L = {d} with m == L leaves no ISP margin")
        raise ContractionError(f"d={d} violates 2*d*m*L < m + L for m={m}, L={l}")
    return PassivityIndices(
        delta=_nearest("delta_bar", mp * lp * dq, den),
        epsilon=_nearest("epsilon_bar", (dq * mq - dp * mp) * (dq * lq - dp * lp), dq * den),
        classification=classification,
    )


def certify_step_size(m: float, l: float, alpha: float) -> StepSizeVerdict:
    """Classify a step size with feedthrough d = alpha/2.

    With a feasible certificate, a VSP transformed class (alpha < 2/L)
    gives STRONG by the passivity theorem and an ISP one (alpha = 2/L,
    m < L) WEAK by the weak passivity theorem; anything else is NONE.
    """
    _sector(m, l)
    _positive("step size", alpha)
    # The certificate's storage is p = 1/alpha.
    _finite_reciprocal("step size", "alpha", alpha)
    d, inv, edge = alpha / 2.0, 1.0 / l, 2.0 / l
    # The class is d's side of 1.0 / l; the verdict is alpha's side of 2.0 / l.
    # Below 2^-1021 alpha/2 can round and 2.0 / l need not be 2 * (1.0 / l),
    # so the two sides can disagree.
    if (d > inv) - (d < inv) != (alpha > edge) - (alpha < edge):
        raise InvalidParameterError(
            f"step size alpha={alpha} is below 2^-1021, where alpha/2 = {d} does not "
            f"place it against 2/L (1/L = {inv})"
        )
    try:
        indices = transformed_indices(m, l, d)
    except (ContractionError, DegenerateSectorError):
        indices = None
    certificate = gd_passivity_certificate(alpha, d)
    verdict = Verdict.NONE
    if indices is not None and certificate.feasible:
        verdict = _VERDICT_OF_CLASS.get(indices.classification, Verdict.NONE)
    return StepSizeVerdict(
        alpha=alpha,
        d=d,
        verdict=verdict,
        transformed_indices=indices,
        certificate=certificate,
    )


def empirical_passivity_margin(
    op: Callable[[Signal], Signal],
    indices: PassivityIndices,
    inputs: list[Signal],
    T: int,
) -> float:
    """Worst slack of the passivity inequality over the given inputs.

    margin = min_u [ <u, op(u)>_T - delta*||u||^2_2T
                     - epsilon*||op(u)||^2_2T ]

    ``op`` must be memoryless: sample k of its output depends on sample k
    of its input alone. The first ``T`` samples of every input are
    stacked into one signal, ``op`` is called once on it, and each
    input's margin is taken from its own rows. A non-negative result is
    consistent with the claimed classification; a NaN margin makes the
    result NaN.
    """
    if not inputs:
        raise InvalidParameterError("need at least one input signal")
    _count("horizon T", T, 1)
    dim = inputs[0].dim
    for u in inputs:
        if u.horizon < T:
            raise ShapeError(f"input horizon {u.horizon} is shorter than T={T}")
        if u.dim != dim:
            raise ShapeError(f"input dimensions differ: {dim} vs {u.dim}")
    n = len(inputs)
    stacked = np.concatenate([u.samples[:T] for u in inputs])
    y = op(Signal(stacked))
    if y.dim != dim:
        raise ShapeError(f"operator changed dimension: {dim} -> {y.dim}")
    if y.horizon != n * T:
        raise ShapeError(f"operator changed the sample count: {n * T} -> {y.horizon}")
    # Row i of each (n, T*dim) view is input i's first T samples, so every
    # term is one reduction over all inputs.
    u, y_u = stacked.reshape(n, -1), y.samples.reshape(n, -1)
    margins = (
        np.sum(u * y_u, axis=1)
        - indices.delta * np.sum(u * u, axis=1)
        - indices.epsilon * np.sum(y_u * y_u, axis=1)
    )
    return float(np.min(margins))
