"""Monte Carlo benchmark over uniformly sampled initial conditions.

Every method sees the same seeded x0 sequence, drawn from
[x0_low, x0_high]^dim, so the per-method statistics form a paired
comparison. Iteration counts are 1-based: the convergence check that
passes is counted, so a sample that starts at the minimizer records 1.
Samples that exhaust the iteration budget are recorded at the cap and
flagged rather than dropped; samples with a non-finite iterate or a
failed line search are treated the same way.

One batched engine runs every method on every objective. It iterates a
block of samples at once, a flat ``(n,)`` array for one-dimensional
functions and ``(n, dim)`` otherwise, and evaluates the objective
through ``row_gradient``/``row_value``: one vectorized call per block for
a one-dimensional built-in, one ``f.gradient``/``f.value`` call per row
for any other function. Each sample follows the arithmetic of
``gd_run``/``gsgd_run``, so its count is theirs. A sample's arithmetic
never depends on its neighbors, and the chunk layout is fixed, so results
are bit-identical for any worker count.
"""

from __future__ import annotations

import csv
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidParameterError
from .functions import SectorFunction, builtin_function, row_gradient, row_value
from .optim import (
    ArmijoAlpha,
    ArmijoParams,
    ArmijoS,
    FixedAlpha,
    FixedS,
    MAX_BACKTRACKS,
    default_s_cap,
)

__all__ = [
    "MethodSpec",
    "MonteCarloSpec",
    "SummaryStats",
    "run_monte_carlo",
    "mode_of",
    "export_histogram",
    "write_summary_csv",
    "default_methods",
    "default_config",
    "spec_from_config",
    "THREADS_ENV_VAR",
]

THREADS_ENV_VAR = "PASSIVE_GD_THREADS"
_CHUNK = 16384


@dataclass(frozen=True)
class MethodSpec:
    label: str
    kind: str  # "gd" or "gsgd"
    schedule: object

    def __post_init__(self):
        if self.kind == "gd":
            if not isinstance(self.schedule, (FixedAlpha, ArmijoAlpha)):
                raise InvalidParameterError(
                    f"method {self.label!r}: gd needs a step-size schedule"
                )
        elif self.kind == "gsgd":
            if not isinstance(self.schedule, (FixedS, ArmijoS)):
                raise InvalidParameterError(
                    f"method {self.label!r}: gsgd needs a scheduling schedule"
                )
        else:
            raise InvalidParameterError(
                f"method {self.label!r}: kind must be 'gd' or 'gsgd', got {self.kind!r}"
            )


@dataclass(frozen=True)
class MonteCarloSpec:
    n_samples: int
    x0_low: float
    x0_high: float
    seed: int
    tol: float
    methods: tuple[MethodSpec, ...]
    max_iter: int = 10**6

    def __post_init__(self):
        if self.n_samples < 1:
            raise InvalidParameterError(f"n_samples must be >= 1, got {self.n_samples}")
        if not self.x0_low < self.x0_high:
            raise InvalidParameterError(
                f"empty initial-condition range [{self.x0_low}, {self.x0_high}]"
            )
        if self.tol <= 0.0:
            raise InvalidParameterError(f"tolerance must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise InvalidParameterError(f"max_iter must be >= 1, got {self.max_iter}")
        object.__setattr__(self, "methods", tuple(self.methods))


@dataclass(frozen=True)
class SummaryStats:
    label: str
    mean: float
    median: int
    mode: int
    count_histogram: dict[int, int] = field(repr=False)
    n: int = 0
    flagged: int = 0


def mode_of(counts: Sequence[int]) -> int:
    """Most frequent value; ties break toward the smallest."""
    if len(counts) == 0:
        raise InvalidParameterError("mode of an empty sample is undefined")
    vals, freq = np.unique(np.asarray(counts, dtype=np.int64), return_counts=True)
    return int(vals[np.argmax(freq)])


def _summarize(label: str, counts: np.ndarray, flagged: np.ndarray) -> SummaryStats:
    vals, freq = np.unique(counts, return_counts=True)
    hist = {int(v): int(c) for v, c in zip(vals, freq)}
    # Median of an even-length sample is the lower middle order statistic,
    # so it is always an observed count.
    median = int(np.sort(counts)[(counts.size - 1) // 2])
    return SummaryStats(
        label=label,
        mean=float(counts.mean()),
        median=median,
        mode=int(vals[np.argmax(freq)]),
        count_histogram=hist,
        n=int(counts.size),
        flagged=int(flagged.sum()),
    )


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-sample dot products of two blocks, bitwise ``np.dot`` of each row pair."""
    if a.ndim == 1:
        return a * b
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _converged(g: np.ndarray, tol: float) -> np.ndarray:
    """The ``GradNorm`` test of each sample, as ``gd_run`` makes it."""
    norm = np.abs(g) if g.ndim == 1 else np.sqrt(_row_dot(g, g))
    return norm < tol


def _col(t, x: np.ndarray):
    """Per-sample values ``t`` shaped to scale the rows of the block ``x``."""
    return t if x.ndim == 1 or np.ndim(t) == 0 else t[:, None]


def _backtrack(accepts, fx: np.ndarray, start: float, shrink: float):
    """Shrink each sample's trial value from ``start`` until ``accepts`` passes it.

    ``accepts(rows, t)`` tests the trials of the samples ``rows`` at their
    values ``t`` and returns the pass mask and the objective at each trial
    point. A sample fails its search when its f(x) is not finite, since
    no decrease can be measured from there, or when no trial passes
    within MAX_BACKTRACKS backtracks. Returns the accepted values, the
    objective at the accepted trial points and the failed mask.
    """
    t = np.full(fx.shape, start)
    f_new = np.empty_like(fx)
    failed = ~np.isfinite(fx)
    rows = np.nonzero(~failed)[0]
    for _ in range(MAX_BACKTRACKS + 1):
        if rows.size == 0:
            break
        ok, f_trial = accepts(rows, t[rows])
        f_new[rows[ok]] = f_trial[ok]
        rows = rows[~ok]
        t[rows] *= shrink
    failed[rows] = True
    return t, f_new, failed


def _step_rule(f: SectorFunction, schedule, grad, value):
    """The update rule of ``schedule`` over a block of active samples.

    ``step(x, g, fx)`` takes the iterates, their gradients and, for the
    Armijo rules, their objective values, and returns ``(t, d, f_new,
    failed)`` for the update x <- x - t*d: the objective at the new
    iterates and the samples whose search failed, both None for the fixed
    rules. An accepted Armijo trial point is the new iterate, computed by
    the same expression from the same operands, so its objective value
    carries over to the next update and the scheduled search's
    grad(s*x) is the update direction.
    """
    if isinstance(schedule, FixedAlpha):
        alpha = schedule.alpha
        return lambda x, g, fx: (alpha, g, None, None)
    if isinstance(schedule, FixedS):
        s = schedule.s
        return lambda x, g, fx: (s, grad(s * x), None, None)
    p = schedule.params
    c = p.decrease
    if isinstance(schedule, ArmijoAlpha):
        start = p.trial if p.trial is not None else 2.0 / f.L

        def armijo_alpha(x, g, fx):
            gg = _row_dot(g, g)

            def accepts(rows, a):
                xr = x[rows]
                f_trial = value(xr - _col(a, xr) * g[rows])
                return f_trial <= fx[rows] - c * a * gg[rows], f_trial

            a, f_new, failed = _backtrack(accepts, fx, start, p.shrink)
            return a, g, f_new, failed

        return armijo_alpha
    cap = schedule.cap if schedule.cap is not None else default_s_cap(f)
    start = min(p.trial if p.trial is not None else cap, cap)

    def armijo_s(x, g, fx):
        d = np.zeros_like(x)

        def accepts(rows, s):
            xr = x[rows]
            sr = _col(s, xr)
            gs = grad(sr * xr)
            f_trial = value(xr - sr * gs)
            ok = f_trial <= fx[rows] - c * s * _row_dot(g[rows], gs)
            d[rows[ok]] = gs[ok]
            return ok, f_trial

        s, f_new, failed = _backtrack(accepts, fx, start, p.shrink)
        return s, d, f_new, failed

    return armijo_s


def _keep(mask, *arrays):
    """Each array's entries under ``mask``; None stays None."""
    return [a if a is None else a[mask] for a in arrays]


def _run_block(step, grad, value, x0: np.ndarray, tol: float, max_iter: int):
    """Run one method on a block of samples; return per-sample counts and flags.

    Only the active samples are carried from update to update. A sample
    leaves the set when it converges, or is flagged at the cap when its
    iterate turns non-finite or its line search fails; samples still
    active after ``max_iter`` updates are flagged at the cap too.
    """
    counts = np.ones(len(x0), dtype=np.int64)
    flagged = np.zeros(len(x0), dtype=bool)
    g = grad(x0)
    idx = np.nonzero(~_converged(g, tol))[0]
    x, g = x0[idx], g[idx]
    fx = None if value is None else value(x)
    k = 0
    while idx.size and k < max_iter:
        k += 1
        t, d, fx, failed = step(x, g, fx)
        x = x - _col(t, x) * d
        drop = ~np.isfinite(x) if x.ndim == 1 else ~np.isfinite(x).all(axis=1)
        if failed is not None:
            drop |= failed
        if drop.any():
            counts[idx[drop]] = max_iter
            flagged[idx[drop]] = True
            idx, x, fx = _keep(~drop, idx, x, fx)
        g = grad(x)
        done = _converged(g, tol)
        if done.any():
            counts[idx[done]] = k + 1
            idx, x, g, fx = _keep(~done, idx, x, g, fx)
    counts[idx] = max_iter
    flagged[idx] = True
    return counts, flagged


def _block_runner(f: SectorFunction, method: MethodSpec, tol: float, max_iter: int):
    grad = row_gradient(f)
    armijo = isinstance(method.schedule, (ArmijoAlpha, ArmijoS))
    value = row_value(f) if armijo else None
    step = _step_rule(f, method.schedule, grad, value)
    return lambda x0: _run_block(step, grad, value, x0, tol, max_iter)


def _resolve_threads(threads: Optional[int]) -> int:
    if threads is not None:
        return max(1, threads)
    env = os.environ.get(THREADS_ENV_VAR, "")
    if not env.strip():
        return 1
    try:
        return max(1, int(env))
    except ValueError:
        raise InvalidParameterError(
            f"{THREADS_ENV_VAR} must be an integer, got {env!r}"
        ) from None


def run_monte_carlo(
    f: SectorFunction,
    spec: MonteCarloSpec,
    threads: Optional[int] = None,
) -> list[SummaryStats]:
    """Run every configured method on the same x0 sequence and summarize.

    ``threads`` overrides the PASSIVE_GD_THREADS environment variable;
    results do not depend on the worker count.
    """
    n = spec.n_samples
    rng = np.random.default_rng(spec.seed)
    # For dim == 1 the flat draw is the same sequence as an (n, 1) draw.
    x0 = rng.uniform(spec.x0_low, spec.x0_high, n if f.dim == 1 else (n, f.dim))
    chunks = [x0[i : i + _CHUNK] for i in range(0, n, _CHUNK)]
    n_threads = _resolve_threads(threads)
    results = []
    for method in spec.methods:
        runner = _block_runner(f, method, spec.tol, spec.max_iter)
        if n_threads == 1 or len(chunks) == 1:
            parts = [runner(c) for c in chunks]
        else:
            with ThreadPoolExecutor(max_workers=n_threads) as pool:
                parts = list(pool.map(runner, chunks))
        counts = np.concatenate([p[0] for p in parts])
        flagged = np.concatenate([p[1] for p in parts])
        results.append(_summarize(method.label, counts, flagged))
    return results


def export_histogram(stats: SummaryStats, path) -> None:
    """Write ``iterations,count`` rows sorted by iteration count."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iterations", "count"])
        for iterations in sorted(stats.count_histogram):
            writer.writerow([iterations, stats.count_histogram[iterations]])


def write_summary_csv(stats_list: Sequence[SummaryStats], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "mean", "median", "mode", "n", "flagged"])
        for s in stats_list:
            writer.writerow(
                [s.label, f"{s.mean:.17g}", s.median, s.mode, s.n, s.flagged]
            )


def default_methods(m: float, L: float) -> tuple[MethodSpec, ...]:
    """The six benchmark configurations for sector bounds (m, L)."""
    return (
        MethodSpec("alpha=2/(m+L)", "gd", FixedAlpha(2.0 / (m + L))),
        MethodSpec("s=sqrt(2/(m+L))", "gsgd", FixedS(float(np.sqrt(2.0 / (m + L))))),
        MethodSpec("alpha=2/L", "gd", FixedAlpha(2.0 / L)),
        MethodSpec("s=sqrt(2/L)", "gsgd", FixedS(float(np.sqrt(2.0 / L)))),
        MethodSpec("alpha-armijo", "gd", ArmijoAlpha(ArmijoParams())),
        MethodSpec("s-armijo", "gsgd", ArmijoS(ArmijoParams())),
    )


def default_config(m: float = 1.0, L: float = 100.0) -> dict:
    return {
        "function": {"name": "oscillatory", "m": m, "L": L},
        "n_samples": 100_000,
        "x0_low": -1e5,
        "x0_high": 1e5,
        "seed": 0,
        "tol": 1e-12,
        "max_iter": 10**6,
        "methods": [
            {"label": "alpha=2/(m+L)", "kind": "gd",
             "schedule": {"type": "fixed-alpha", "alpha": 2.0 / (m + L)}},
            {"label": "s=sqrt(2/(m+L))", "kind": "gsgd",
             "schedule": {"type": "fixed-s", "s": float(np.sqrt(2.0 / (m + L)))}},
            {"label": "alpha=2/L", "kind": "gd",
             "schedule": {"type": "fixed-alpha", "alpha": 2.0 / L}},
            {"label": "s=sqrt(2/L)", "kind": "gsgd",
             "schedule": {"type": "fixed-s", "s": float(np.sqrt(2.0 / L))}},
            {"label": "alpha-armijo", "kind": "gd",
             "schedule": {"type": "armijo-alpha"}},
            {"label": "s-armijo", "kind": "gsgd",
             "schedule": {"type": "armijo-s"}},
        ],
    }


_REQUIRED = object()


def _field(doc, key: str, where: str, cast=None, default=_REQUIRED):
    """Read ``doc[key]`` through ``cast``; malformed input is an InvalidParameterError.

    An optional key whose default is None may also be given as JSON null.
    """
    if not isinstance(doc, dict):
        raise InvalidParameterError(f"{where} must be a JSON object")
    value = doc.get(key, default)
    if value is _REQUIRED:
        raise InvalidParameterError(f"{where} is missing the key {key!r}")
    if cast is None or (value is None and default is None):
        return value
    try:
        return cast(value)
    except (TypeError, ValueError):
        raise InvalidParameterError(
            f"{where}.{key} must be a number, got {value!r}"
        ) from None


def _schedule_from_config(doc, where: str):
    kind = _field(doc, "type", where, default=None)
    if kind == "fixed-alpha":
        return FixedAlpha(_field(doc, "alpha", where, float))
    if kind == "fixed-s":
        return FixedS(_field(doc, "s", where, float))
    params = ArmijoParams(
        trial=_field(doc, "trial", where, float, None),
        shrink=_field(doc, "shrink", where, float, 0.5),
        decrease=_field(doc, "decrease", where, float, 1e-4),
    )
    if kind == "armijo-alpha":
        return ArmijoAlpha(params)
    if kind == "armijo-s":
        return ArmijoS(params, cap=_field(doc, "cap", where, float, None))
    raise InvalidParameterError(f"unknown schedule type {kind!r}")


def spec_from_config(doc: dict) -> tuple[SectorFunction, MonteCarloSpec]:
    """Build the target function and Monte Carlo spec from a config document.

    A missing key or a value of the wrong type raises InvalidParameterError
    naming it.
    """
    fn = _field(doc, "function", "config")
    f = builtin_function(
        _field(fn, "name", "function"),
        _field(fn, "m", "function", float, 1.0),
        _field(fn, "L", "function", float),
    )
    method_docs = _field(doc, "methods", "config")
    if not isinstance(method_docs, list):
        raise InvalidParameterError("config.methods must be a JSON list")
    methods = []
    for i, m in enumerate(method_docs):
        where = f"methods[{i}]"
        methods.append(MethodSpec(
            _field(m, "label", where),
            _field(m, "kind", where),
            _schedule_from_config(_field(m, "schedule", where), f"{where}.schedule"),
        ))
    spec = MonteCarloSpec(
        n_samples=_field(doc, "n_samples", "config", int),
        x0_low=_field(doc, "x0_low", "config", float),
        x0_high=_field(doc, "x0_high", "config", float),
        seed=_field(doc, "seed", "config", int),
        tol=_field(doc, "tol", "config", float),
        methods=tuple(methods),
        max_iter=_field(doc, "max_iter", "config", int, 10**6),
    )
    return f, spec
