"""Fixed-step and gain-scheduled gradient iterations with stopping rules.

The gain-scheduled update x <- x - s*grad(s*x) reduces to the plain
update with step alpha = s^2 under the change of variables x_bar = s*x,
so a constant schedule reproduces fixed-step behavior exactly. The
paired-gradient stopping rule accepts runs whose consecutive gradients
cancel, which covers step sizes at the stability boundary where a
coordinate oscillates forever.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import DivergenceError, InvalidParameterError, LineSearchError, ShapeError
from .functions import SectorFunction
from .signals import Signal

__all__ = [
    "ArmijoParams",
    "FixedAlpha",
    "ArmijoAlpha",
    "FixedS",
    "ArmijoS",
    "GradNorm",
    "PairedGrad",
    "MaxIter",
    "Termination",
    "RunTrace",
    "gd_run",
    "gsgd_run",
    "armijo_alpha",
    "armijo_s",
    "paired_gradient_criterion",
    "default_s_cap",
]

DEFAULT_MAX_ITER = 10**6
MAX_BACKTRACKS = 100


@dataclass(frozen=True)
class ArmijoParams:
    """Backtracking parameters; ``trial=None`` defers to the certified edge.

    With no explicit trial, the first candidate is 2/L for the step-size
    search and the scheduling cap sqrt(2/L) for the scheduled search.
    """

    trial: Optional[float] = None
    shrink: float = 0.5
    decrease: float = 1e-4

    def __post_init__(self):
        if self.trial is not None and self.trial <= 0.0:
            raise InvalidParameterError(f"trial must be positive, got {self.trial}")
        if not 0.0 < self.shrink < 1.0:
            raise InvalidParameterError(f"shrink must be in (0,1), got {self.shrink}")
        if not 0.0 < self.decrease < 1.0:
            raise InvalidParameterError(
                f"decrease coefficient must be in (0,1), got {self.decrease}"
            )


@dataclass(frozen=True)
class FixedAlpha:
    alpha: float

    def __post_init__(self):
        if self.alpha <= 0.0:
            raise InvalidParameterError(f"alpha must be positive, got {self.alpha}")


@dataclass(frozen=True)
class ArmijoAlpha:
    params: ArmijoParams = ArmijoParams()


@dataclass(frozen=True)
class FixedS:
    s: float

    def __post_init__(self):
        if self.s == 0.0:
            raise InvalidParameterError("scheduling value s must be nonzero")


@dataclass(frozen=True)
class ArmijoS:
    params: ArmijoParams = ArmijoParams()
    cap: Optional[float] = None

    def __post_init__(self):
        if self.cap is not None and self.cap <= 0.0:
            raise InvalidParameterError(f"cap must be positive, got {self.cap}")


AlphaSchedule = Union[FixedAlpha, ArmijoAlpha]
SSchedule = Union[FixedS, ArmijoS]


@dataclass(frozen=True)
class GradNorm:
    tol: float

    def __post_init__(self):
        if self.tol <= 0.0:
            raise InvalidParameterError(f"tolerance must be positive, got {self.tol}")


@dataclass(frozen=True)
class PairedGrad:
    tol: float

    def __post_init__(self):
        if self.tol <= 0.0:
            raise InvalidParameterError(f"tolerance must be positive, got {self.tol}")


@dataclass(frozen=True)
class MaxIter:
    cap: int

    def __post_init__(self):
        if self.cap < 1:
            raise InvalidParameterError(f"iteration cap must be >= 1, got {self.cap}")


StoppingRule = Union[GradNorm, PairedGrad, MaxIter]


class Termination(enum.Enum):
    GRAD_NORM_MET = "grad-norm-met"
    PAIRED_GRAD_MET = "paired-grad-met"
    MAX_ITER_HIT = "max-iter-hit"


@dataclass(frozen=True)
class RunTrace:
    """Iterate and gradient history of one optimizer run."""

    iterates: Signal
    gradients: Signal
    iterations: int
    termination: Termination
    step_history: tuple[float, ...]


def default_s_cap(f: SectorFunction) -> float:
    """Largest scheduling magnitude certified for this function."""
    return float(np.sqrt(2.0 / f.L))


def paired_gradient_criterion(g_now, g_prev, tol: float) -> bool:
    """True when the squared norm of the gradient sum drops below ``tol``."""
    g_now = np.asarray(g_now, dtype=float).reshape(-1)
    g_prev = np.asarray(g_prev, dtype=float).reshape(-1)
    if g_now.shape != g_prev.shape:
        raise ShapeError(f"gradient shapes differ: {g_now.shape} vs {g_prev.shape}")
    s = g_now + g_prev
    return float(np.dot(s, s)) < tol


def _finite_start_value(f: SectorFunction, x: np.ndarray) -> float:
    """f(x) for a line search; no decrease can be measured from a non-finite one."""
    fx = f.value(x)
    if not np.isfinite(fx):
        raise LineSearchError(f"objective is {fx} at the search's start point")
    return fx


def armijo_alpha(f: SectorFunction, x, params: ArmijoParams) -> float:
    """Largest trial*shrink^j satisfying the sufficient-decrease condition."""
    x = f.check_point(x)
    g = np.asarray(f.gradient(x), dtype=float)
    gg = float(np.dot(g, g))
    if gg == 0.0:
        raise InvalidParameterError("line search requires a nonzero gradient")
    a = params.trial if params.trial is not None else 2.0 / f.L
    fx = _finite_start_value(f, x)
    for _ in range(MAX_BACKTRACKS + 1):
        if f.value(x - a * g) <= fx - params.decrease * a * gg:
            return a
        a *= params.shrink
    raise LineSearchError(
        f"no acceptable step within {MAX_BACKTRACKS} backtracks from trial "
        f"{params.trial if params.trial is not None else 2.0 / f.L}"
    )


def armijo_s(f: SectorFunction, x, params: ArmijoParams, cap: float) -> float:
    """Backtrack scheduling values from the cap under a composite decrease test.

    Accepts s when f(x - s*grad(s*x)) <= f(x) - c*s*<grad(x), grad(s*x)>.
    The returned value lies in (0, cap].
    """
    if cap <= 0.0:
        raise InvalidParameterError(f"cap must be positive, got {cap}")
    x = f.check_point(x)
    gx = np.asarray(f.gradient(x), dtype=float)
    if float(np.dot(gx, gx)) == 0.0:
        raise InvalidParameterError("line search requires a nonzero gradient")
    s = params.trial if params.trial is not None else cap
    s = min(s, cap)
    fx = _finite_start_value(f, x)
    for _ in range(MAX_BACKTRACKS + 1):
        gs = np.asarray(f.gradient(s * x), dtype=float)
        if f.value(x - s * gs) <= fx - params.decrease * s * float(np.dot(gx, gs)):
            return s
        s *= params.shrink
    raise LineSearchError(
        f"no acceptable scheduling value within {MAX_BACKTRACKS} backtracks from {cap}"
    )


def _normalize_stops(stops: Sequence[StoppingRule]):
    grad_rule = None
    paired_rule = None
    max_rule = None
    for rule in stops:
        if isinstance(rule, GradNorm) and grad_rule is None:
            grad_rule = rule
        elif isinstance(rule, PairedGrad) and paired_rule is None:
            paired_rule = rule
        elif isinstance(rule, MaxIter) and max_rule is None:
            max_rule = rule
    if max_rule is None:
        max_rule = MaxIter(DEFAULT_MAX_ITER)
    return grad_rule, paired_rule, max_rule


def _check_stops(grad_rule, paired_rule, max_rule, g, g_prev, k):
    # Evaluation order is fixed: gradient norm, paired gradients, cap.
    if grad_rule is not None and float(np.linalg.norm(g)) < grad_rule.tol:
        return Termination.GRAD_NORM_MET
    if (
        paired_rule is not None
        and g_prev is not None
        and paired_gradient_criterion(g, g_prev, paired_rule.tol)
    ):
        return Termination.PAIRED_GRAD_MET
    if k >= max_rule.cap:
        return Termination.MAX_ITER_HIT
    return None


def _finish(iterates, gradients, k, termination, steps) -> RunTrace:
    return RunTrace(
        iterates=Signal(np.array(iterates)),
        gradients=Signal(np.array(gradients)),
        iterations=k,
        termination=termination,
        step_history=tuple(steps),
    )


def gd_run(
    f: SectorFunction,
    x0,
    schedule: AlphaSchedule,
    stops: Sequence[StoppingRule],
) -> RunTrace:
    """Run x <- x - alpha*grad(x) until the first stopping rule fires."""
    if not isinstance(schedule, (FixedAlpha, ArmijoAlpha)):
        raise InvalidParameterError(
            f"gd_run needs a step-size schedule, got {type(schedule).__name__}"
        )
    x = f.check_point(x0)
    grad_rule, paired_rule, max_rule = _normalize_stops(stops)
    g = np.asarray(f.gradient(x), dtype=float)
    iterates = [x.copy()]
    gradients = [g.copy()]
    steps: list[float] = []
    g_prev = None
    k = 0
    while True:
        term = _check_stops(grad_rule, paired_rule, max_rule, g, g_prev, k)
        if term is not None:
            return _finish(iterates, gradients, k, term, steps)
        if isinstance(schedule, FixedAlpha):
            a = schedule.alpha
        elif float(np.dot(g, g)) == 0.0:
            # Exactly at the minimizer the update is a no-op for any step,
            # so the line search is skipped and the trial recorded.
            a = schedule.params.trial if schedule.params.trial is not None else 2.0 / f.L
        else:
            a = armijo_alpha(f, x, schedule.params)
        x = x - a * g
        if not np.all(np.isfinite(x)):
            raise DivergenceError(
                f"iterate became non-finite after {k + 1} updates",
                last_iterate=iterates[-1],
            )
        g_prev = g
        g = np.asarray(f.gradient(x), dtype=float)
        k += 1
        iterates.append(x.copy())
        gradients.append(g.copy())
        steps.append(a)


def gsgd_run(
    f: SectorFunction,
    x0,
    schedule: SSchedule,
    stops: Sequence[StoppingRule],
) -> RunTrace:
    """Run x <- x - s*grad(s*x) until the first stopping rule fires."""
    if not isinstance(schedule, (FixedS, ArmijoS)):
        raise InvalidParameterError(
            f"gsgd_run needs a scheduling schedule, got {type(schedule).__name__}"
        )
    x = f.check_point(x0)
    grad_rule, paired_rule, max_rule = _normalize_stops(stops)
    cap = None
    if isinstance(schedule, ArmijoS):
        cap = schedule.cap if schedule.cap is not None else default_s_cap(f)
    g = np.asarray(f.gradient(x), dtype=float)
    iterates = [x.copy()]
    gradients = [g.copy()]
    steps: list[float] = []
    g_prev = None
    k = 0
    while True:
        term = _check_stops(grad_rule, paired_rule, max_rule, g, g_prev, k)
        if term is not None:
            return _finish(iterates, gradients, k, term, steps)
        if isinstance(schedule, FixedS):
            s = schedule.s
        elif float(np.dot(g, g)) == 0.0:
            # A sector-bounded gradient vanishes only at the minimizer,
            # where the scheduled update is a no-op for any s.
            s = cap
        else:
            s = armijo_s(f, x, schedule.params, cap)
        x = x - s * np.asarray(f.gradient(s * x), dtype=float)
        if not np.all(np.isfinite(x)):
            raise DivergenceError(
                f"iterate became non-finite after {k + 1} updates",
                last_iterate=iterates[-1],
            )
        g_prev = g
        g = np.asarray(f.gradient(x), dtype=float)
        k += 1
        iterates.append(x.copy())
        gradients.append(g.copy())
        steps.append(s)
