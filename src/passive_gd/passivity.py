"""Passivity indices of the shifted gradient and step-size certification.

For a gradient in the sector [m, L], the shifted-gradient operator is
very strictly passive with input index delta = mL/(m+L) and output index
epsilon = 1/(m+L). Closing positive feedback d*I around it rescales the
indices. With d = alpha/2 the controller is passive, and the side of 1/L
that d is on, decided only by ``_feedthrough_class``, gives the verdict.
"""

from __future__ import annotations

import enum
import math
import sys
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

_REL_TOL = 1e-12


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


def _close(a: float, b: float, rel: float = _REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _normal(v: float) -> bool:
    """Whether ``v`` is a finite double at or above the least normal one."""
    return sys.float_info.min <= v < math.inf


def _feedthrough_class(l: float, d: float) -> Classification:
    """ISP at d = 1/L (relative tolerance 1e-12), VSP below it, NONE above it."""
    if _close(d, 1.0 / l):
        return Classification.ISP
    return Classification.VSP if d < 1.0 / l else Classification.NONE


def nabla_indices(m: float, l: float) -> PassivityIndices:
    """Indices of the shifted gradient, which is VSP."""
    _sector(m, l)
    # mL/(m+L) keeps its bits wherever m*L is a normal double. Where the
    # product overflows or loses bits, m/(1 + m/L) has neither problem;
    # m + L can overflow only where m*L does.
    p = m * l
    return PassivityIndices(
        delta=p / (m + l) if _normal(p) else m / (1.0 + m / l),
        epsilon=1.0 / (m + l),
        classification=Classification.VSP,
    )


def transformed_indices(m: float, l: float, d: float) -> PassivityIndices:
    """Indices after closing positive feedback d*I around the shifted gradient.

    delta_bar = delta / (1 - 2*delta*d)
    epsilon_bar = (epsilon - d + delta*d^2) / (1 - 2*delta*d)

    Classified VSP for d < 1/L, ISP exactly at d = 1/L (m < L required),
    NONE past the VSP root. At d = 1/L the indices take their closed forms
    delta_bar = mL/(L - m) and epsilon_bar = 0: evaluated there, the
    denominator 1 - 2*delta*d cancels to rounding noise, and to zero or
    below when m is within a few ulps of L.
    """
    _sector(m, l)
    _positive("feedthrough", d)
    classification = _feedthrough_class(l, d)
    if classification is Classification.ISP:
        if m == l:
            raise DegenerateSectorError(
                f"d = 1/L = {d} with m == L leaves no ISP margin"
            )
        # As in nabla_indices: m*(L/(L - m)) where m*L is not a normal double.
        p = m * l
        return PassivityIndices(
            delta=p / (l - m) if _normal(p) else m * (l / (l - m)),
            epsilon=0.0,
            classification=classification,
        )
    base = nabla_indices(m, l)
    delta, epsilon = base.delta, base.epsilon
    contraction = 1.0 - 2.0 * delta * d
    if contraction <= 0.0:
        raise ContractionError(
            f"d={d} violates d < (m+L)/(2mL) = {(m + l) / (2 * m * l)}"
        )
    delta_bar = delta / contraction
    epsilon_bar = (epsilon - d + delta * d * d) / contraction
    return PassivityIndices(
        delta=delta_bar,
        epsilon=epsilon_bar,
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
    d = alpha / 2.0
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
