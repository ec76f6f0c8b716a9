"""Fixed-step and gain-scheduled gradient iterations with stopping rules.

The gain-scheduled update x <- x - s*grad(s*x) reduces to the plain
update with step alpha = s^2 under the change of variables x_bar = s*x,
so a constant schedule reproduces fixed-step behavior exactly. The
paired-gradient stopping rule accepts runs whose consecutive gradients
cancel, which covers step sizes at the stability boundary where a
coordinate oscillates forever.

Every iteration and every Armijo search runs in one batched engine over
a block of start points, a flat ``(n,)`` array for one-dimensional
functions and ``(n, dim)`` otherwise: ``gd_run``/``gsgd_run`` run it on
one row and record the trace, and ``bench`` runs it on blocks of samples.

An Armijo trial gives f and grad f at its trial point, and the accepted
trial is the next iterate, so the update reuses both. A function with a
fused oracle (``oscillatory``) gives them from one pass; any other
function evaluates f at each trial and grad f once on the accepted
block. Every sample tries the first value in one whole-block call; only
the rejected ones backtrack.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import DivergenceError, InvalidParameterError, LineSearchError
from .errors import _count, _finite, _grad_norm_tolerance, _positive
from .functions import SectorFunction, _row_dot, row_gradient, row_value

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
        if self.trial is not None:
            _positive("trial", self.trial)
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
        _positive("alpha", self.alpha)


@dataclass(frozen=True)
class ArmijoAlpha:
    params: ArmijoParams = ArmijoParams()


@dataclass(frozen=True)
class FixedS:
    s: float

    def __post_init__(self):
        _positive("scheduling value |s|", abs(self.s))


@dataclass(frozen=True)
class ArmijoS:
    params: ArmijoParams = ArmijoParams()
    cap: Optional[float] = None

    def __post_init__(self):
        if self.cap is not None:
            _positive("cap", self.cap)


AlphaSchedule = Union[FixedAlpha, ArmijoAlpha]
SSchedule = Union[FixedS, ArmijoS]

# The schedules that each iteration takes: a step size alpha for gd, a
# scheduling value s for gsgd.
_SCHEDULES = {"gd": (FixedAlpha, ArmijoAlpha), "gsgd": (FixedS, ArmijoS)}


def _check_schedule(kind: str, schedule, label: Optional[str] = None) -> None:
    """Refuse ``schedule`` unless the iteration ``kind`` takes it.

    The message names ``gd_run`` or ``gsgd_run``, or the bench method
    ``label`` when one is given.
    """
    if not (isinstance(kind, str) and kind in _SCHEDULES):
        raise InvalidParameterError(
            f"method {label!r}: kind must be 'gd' or 'gsgd', got {kind!r}"
        )
    if not isinstance(schedule, _SCHEDULES[kind]):
        who = f"{kind}_run" if label is None else f"method {label!r}: {kind}"
        what = "step-size" if kind == "gd" else "scheduling"
        raise InvalidParameterError(
            f"{who} needs a {what} schedule, got {type(schedule).__name__}"
        )


@dataclass(frozen=True)
class GradNorm:
    tol: float

    def __post_init__(self):
        _grad_norm_tolerance(self.tol)


@dataclass(frozen=True)
class PairedGrad:
    tol: float

    def __post_init__(self):
        _positive("tolerance", self.tol)


@dataclass(frozen=True)
class MaxIter:
    cap: int

    def __post_init__(self):
        _count("iteration cap", self.cap, 1)


StoppingRule = Union[GradNorm, PairedGrad, MaxIter]


class Termination(enum.Enum):
    GRAD_NORM_MET = "grad-norm-met"
    PAIRED_GRAD_MET = "paired-grad-met"
    MAX_ITER_HIT = "max-iter-hit"


@dataclass(frozen=True)
class RunTrace:
    """Iterate and gradient history of one optimizer run.

    ``iterates`` and ``gradients`` are read-only ``(iterations + 1, dim)``
    arrays, row k the value after k updates; ``step_history`` is the
    read-only ``(iterations,)`` array of the step size or scheduling value
    that each update took.
    """

    iterates: np.ndarray
    gradients: np.ndarray
    iterations: int
    termination: Termination
    step_history: np.ndarray


def default_s_cap(f: SectorFunction) -> float:
    """Largest scheduling magnitude certified for this function."""
    return float(np.sqrt(2.0 / f.L))


# Why the engine stopped a sample. The first three codes index the
# members of Termination; the last two are failures.
_MET, _PAIRED, _CAP, _NONFINITE, _FAILED = range(5)


def _normalize_stops(stops: Sequence[StoppingRule]):
    """The rule of each kind, or None; the cap defaults to DEFAULT_MAX_ITER.

    Refuses a bare rule, an entry that is not a rule and a second rule of
    one kind, so that no rule is silently dropped.
    """
    rules = dict.fromkeys((GradNorm, PairedGrad, MaxIter))
    if type(stops) in rules:
        raise InvalidParameterError(f"stops must be a sequence of rules, got {stops!r}")
    for rule in stops:
        kind = type(rule)
        if kind not in rules:
            raise InvalidParameterError(
                f"a stop must be a GradNorm, PairedGrad or MaxIter rule, got {rule!r}"
            )
        if rules[kind] is not None:
            raise InvalidParameterError(f"stops hold a second {kind.__name__} rule: {rule!r}")
        rules[kind] = rule
    grad_rule, paired_rule, max_rule = rules.values()
    return grad_rule, paired_rule, max_rule or MaxIter(DEFAULT_MAX_ITER)


def _first_trial(f: SectorFunction, schedule) -> float:
    """The first value that the Armijo search of ``schedule`` tries."""
    p = schedule.params
    if isinstance(schedule, ArmijoAlpha):
        return p.trial if p.trial is not None else 2.0 / f.L
    cap = schedule.cap if schedule.cap is not None else default_s_cap(f)
    return min(p.trial if p.trial is not None else cap, cap)


def _search_error(f: SectorFunction, schedule, x) -> LineSearchError:
    """The error of an Armijo search of ``schedule`` that failed from ``x``."""
    with np.errstate(over="ignore", invalid="ignore"):
        fx = f.value(x)
    if not np.isfinite(fx):
        return LineSearchError(f"objective is {fx} at the search's start point")
    return LineSearchError(
        f"no acceptable step within {MAX_BACKTRACKS} backtracks from trial "
        f"{_first_trial(f, schedule)}"
    )


def _sqrt_bound(tol: float) -> float:
    """The least double T with sqrt(T) >= tol.

    A correctly rounded sqrt is monotone, so sqrt(y) < tol exactly when y < T.
    """
    t = tol * tol
    while t > 0.0 and math.sqrt(t) >= tol:
        t = math.nextafter(t, 0.0)
    while math.sqrt(t) < tol:
        t = math.nextafter(t, math.inf)
    return t


def _col(t, x: np.ndarray):
    """Per-sample values ``t`` shaped to scale the rows of the block ``x``."""
    return t if x.ndim == 1 or not isinstance(t, np.ndarray) else t[:, None]


def _backtrack(trial, x: np.ndarray, fx: np.ndarray, start: float, shrink: float):
    """Shrink each sample's trial value from ``start`` until its trial passes.

    ``trial(rows, t)`` tries the samples ``rows`` at their values ``t``; it
    returns the pass mask and the trial points with f and grad f there,
    grad f None when the oracle gives none. Every sample tries ``start``
    in one whole-block call (``rows`` a slice, so nothing is gathered),
    and only the rejected ones go on, by index. A sample fails when its
    f(x) is not finite, since no decrease can be measured from there; it
    then tries nothing, so the first trial goes by index and grad f is
    left to the caller. A sample also fails when no trial passes within
    MAX_BACKTRACKS backtracks. Returns the accepted values, points, f and
    grad f, which are junk at failed samples, and the failed mask.
    """
    t = np.full(fx.shape, start)
    failed = ~np.isfinite(fx)
    if 1 in failed.tobytes():
        rows, tries = np.nonzero(~failed)[0], MAX_BACKTRACKS + 1
        x_new, f_new, g_new = x.copy(), fx.copy(), None
    else:
        ok, x_new, f_new, g_new = trial(slice(None), start)
        rows, tries = np.nonzero(~ok)[0], MAX_BACKTRACKS
        if rows.size:
            t[rows] *= shrink
            # f and grad f may be arrays the oracle owns; write into copies.
            f_new = np.array(f_new, dtype=float)
            g_new = None if g_new is None else np.array(g_new, dtype=float)
    for _ in range(tries):
        if rows.size == 0:
            break
        ok, *tried = trial(rows, t[rows])
        for new, got in zip((x_new, f_new, g_new), tried):
            if new is not None:
                new[rows[ok]] = got[ok]
        rows = rows[~ok]
        t[rows] *= shrink
    failed[rows] = True
    return t, x_new, f_new, g_new, failed


def _step_rule(f: SectorFunction, schedule, grad, value):
    """The update rule of ``schedule`` over a block of active samples.

    ``step(x, g, fx)`` takes the iterates, their gradients and, for the
    Armijo rules, their objective values, and returns ``(t, x_new, f_new,
    g_new, failed)``: the values t of the update, the new iterates, f and
    grad f there and the samples whose search failed. The fixed rules
    compute x - t*d and leave the last three None. An Armijo trial gives
    f and grad f at its point, so the accepted trial is the next iterate
    and its f and grad f carry over to the next update; grad f comes from
    the function's fused oracle, and is None without one, for the caller
    to evaluate on the accepted block.
    """
    # 0-d values multiply a small block faster than floats, to the same bits.
    if isinstance(schedule, FixedAlpha):
        alpha = np.array(schedule.alpha, dtype=float)
        return lambda x, g, fx: (alpha, x - alpha * g, None, None, None)
    if isinstance(schedule, FixedS):
        s = np.array(schedule.s, dtype=float)
        return lambda x, g, fx: (s, x - s * grad(s * x), None, None, None)
    p = schedule.params
    c = p.decrease
    start = _first_trial(f, schedule)
    at = f._value_and_gradient or (lambda x: (value(x), None))

    if isinstance(schedule, ArmijoAlpha):

        def armijo_alpha(x, g, fx):
            gg = _row_dot(g, g)
            # Where <g, g> overflows, c*a*gg is inf at every trial; there
            # the decrease is <c*a*g, g>, finite once a is small enough.
            over = np.isinf(gg)
            over = over if 1 in over.tobytes() else None

            def trial(rows, a):
                xr, gr = x[rows], g[rows]
                ar = _col(a, xr)
                x_t = xr - ar * gr
                f_t, g_t = at(x_t)
                decrease = c * a * gg[rows]
                if over is not None:
                    scaled = _row_dot(c * ar * gr, gr)
                    decrease = np.where(over[rows], scaled, decrease)
                return f_t <= fx[rows] - decrease, x_t, f_t, g_t

            return _backtrack(trial, x, fx, start, p.shrink)

        return armijo_alpha

    def armijo_s(x, g, fx):
        def trial(rows, s):
            xr = x[rows]
            sr = _col(s, xr)
            gs = grad(sr * xr)
            x_t = xr - sr * gs
            f_t, g_t = at(x_t)
            return f_t <= fx[rows] - c * s * _row_dot(g[rows], gs), x_t, f_t, g_t

        return _backtrack(trial, x, fx, start, p.shrink)

    return armijo_s


def _keep(mask, *arrays):
    """Each array's entries under ``mask``; None stays None."""
    return [a if a is None else a[mask] for a in arrays]


def _run_block(step, grad, value, x0, tol, paired_tol, max_iter, trace=None):
    """Run one method on a block of samples; return per-sample counts and stop codes.

    The stopping rules are tested in a fixed order: a gradient norm below
    ``tol``, then consecutive gradients whose sum has a squared norm below
    ``paired_tol``, then the ``max_iter`` cap; a rule whose tolerance is
    None is off. Counts are 1-based: a sample that a rule stops after k updates counts
    k + 1. Only the active samples are carried from update to update. A
    sample whose iterate turns non-finite or whose line search fails
    leaves at once; it and every sample stopped by the cap count
    ``max_iter``. Stop codes are ``_MET``, ``_PAIRED``, ``_CAP``,
    ``_NONFINITE`` or ``_FAILED``. A list ``trace``, for a block of one
    row, gets ``(x, g, t)`` at the start (t None) and after each update.
    Overflow is left to the finiteness tests, so numpy does not warn.

    A one-row block pays mostly numpy's per-call cost, so each update makes
    few numpy calls. A mask is read through its bytes, since numpy stores a
    bool as one byte, 0 or 1: ``1 in mask.tobytes()`` is a fifth of the cost
    of ``np.count_nonzero`` on one row and is no slower on a large block.
    Finiteness looks for a 0 in ``np.isfinite(x)`` (a sum of finite entries
    may overflow), and ``GradNorm`` compares <g, g> with ``_sqrt_bound(tol)``.
    With both rules on a block of rows, one stacked test takes them: g and
    g + g_prev are written into one ``(2, n, dim)`` buffer, allocated again
    only when rows leave, whose row dots are compared with the ``(2, 1)``
    column of both thresholds, and one mask read tells whether either fired.
    """
    gate = None if tol is None else np.array(tol if x0.ndim == 1 else _sqrt_bound(tol))
    paired_tol = None if paired_tol is None else np.array(paired_tol)
    gates = pair = None
    if x0.ndim == 2 and gate is not None and paired_tol is not None:
        gates = np.array([[gate], [paired_tol]])
    counts = np.full(len(x0), max_iter, dtype=np.int64)
    reasons = np.full(len(x0), _MET, dtype=np.int8)
    idx = np.arange(len(x0))
    with np.errstate(over="ignore", invalid="ignore"):
        x, g, g_prev, fx, k = x0, grad(x0), None, None, 0
        if trace is not None:
            trace.append((x, g, None))
        while True:
            if gates is not None and g_prev is not None:
                if pair is None or pair.shape[1] != len(g):
                    pair = np.empty((2, *g.shape))
                    g_now, g_sum = pair
                g_now[...] = g
                np.add(g, g_prev, out=g_sum)
                hits = _row_dot(pair, pair) < gates
                done = met = None
                if 1 in hits.tobytes():
                    met, paired = hits
                    done = met | paired
            else:
                done = met = None if gate is None else (
                    np.abs(g) if g.ndim == 1 else _row_dot(g, g)) < gate
                if paired_tol is not None and g_prev is not None:
                    gsum = g + g_prev
                    paired = _row_dot(gsum, gsum) < paired_tol
                    done = paired if met is None else met | paired
            if done is not None and 1 in done.tobytes():
                counts[idx[done]] = k + 1
                if paired_tol is not None:
                    reasons[idx[done if met is None else done & ~met]] = _PAIRED
                idx, x, g, fx = _keep(~done, idx, x, g, fx)
            if idx.size == 0 or k == max_iter:
                reasons[idx] = _CAP
                return counts, reasons
            if fx is None and value is not None:
                fx = value(x)
            k += 1
            t, x, fx, g_new, failed = step(x, g, fx)
            if (0 in np.isfinite(x).tobytes()
                    or failed is not None and 1 in failed.tobytes()):
                drop = ~np.isfinite(x) if x.ndim == 1 else ~np.isfinite(x).all(axis=1)
                reasons[idx[drop]] = _NONFINITE
                if failed is not None:
                    reasons[idx[failed]] = _FAILED
                    drop |= failed
                idx, x, g, fx, g_new = _keep(~drop, idx, x, g, fx, g_new)
            # Only the paired rule reads g_prev; without it no stale gradient block stays alive.
            g_prev, g = None if paired_tol is None else g, grad(x) if g_new is None else g_new
            if trace is not None and idx.size:
                trace.append((x, g, t))


def _block_runner(f: SectorFunction, schedule, tol, max_iter, paired_tol=None):
    """``runner(x0, trace=None)``: ``_run_block`` of ``schedule`` on the block ``x0``."""
    grad = row_gradient(f)
    value = row_value(f) if isinstance(schedule, (ArmijoAlpha, ArmijoS)) else None
    step = _step_rule(f, schedule, grad, value)
    return lambda x0, trace=None: _run_block(
        step, grad, value, x0, tol, paired_tol, max_iter, trace
    )


def _run_one(f: SectorFunction, x0, schedule, stops: Sequence[StoppingRule]) -> RunTrace:
    """Run the engine on ``x0`` as a block of one row and record its trace."""
    x = f.check_point(x0)
    _finite("x0", x)
    grad_rule, paired_rule, max_rule = _normalize_stops(stops)
    runner = _block_runner(f, schedule, grad_rule and grad_rule.tol, max_rule.cap,
                           paired_rule and paired_rule.tol)
    trace = []
    _, (reason,) = runner(x if f.dim == 1 else x[None, :], trace)
    iterates, gradients, (_, *steps) = zip(*trace)
    if reason == _NONFINITE:
        n = len(iterates)
        raise DivergenceError(
            f"iterate became non-finite after {n} update{'s' * (n != 1)}",
            last_iterate=iterates[-1].reshape(-1).copy(),
        )
    if reason == _FAILED:
        raise _search_error(f, schedule, iterates[-1].reshape(-1))
    # New arrays, so the caller's x0 is neither aliased nor made read-only.
    iterates, gradients = (np.concatenate(a).reshape(-1, f.dim) for a in (iterates, gradients))
    steps = np.reshape(steps, -1)
    for a in (iterates, gradients, steps):
        a.setflags(write=False)
    return RunTrace(iterates, gradients, len(steps), list(Termination)[reason], steps)


def gd_run(
    f: SectorFunction,
    x0,
    schedule: AlphaSchedule,
    stops: Sequence[StoppingRule],
) -> RunTrace:
    """Run x <- x - alpha*grad(x) until the first stopping rule fires."""
    _check_schedule("gd", schedule)
    return _run_one(f, x0, schedule, stops)


def gsgd_run(
    f: SectorFunction,
    x0,
    schedule: SSchedule,
    stops: Sequence[StoppingRule],
) -> RunTrace:
    """Run x <- x - s*grad(s*x) until the first stopping rule fires."""
    _check_schedule("gsgd", schedule)
    return _run_one(f, x0, schedule, stops)
