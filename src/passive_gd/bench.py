"""Monte Carlo benchmark over uniformly sampled initial conditions.

Every method sees the same seeded x0 sequence, drawn chunk by chunk from
[x0_low, x0_high]^dim, so the per-method statistics form a paired
comparison. Iteration counts are 1-based: the convergence check that
passes is counted, so a sample that starts at the minimizer records 1.
Samples that exhaust the iteration budget are recorded at the cap and
flagged rather than dropped; samples with a non-finite iterate or a
failed line search are treated the same way.

This module holds the specs, the sampling, the threading, the statistics,
the CSV export and the config parsing. The iterations themselves run in
``optim``'s batched engine, the one that ``gd_run``/``gsgd_run`` run on a
single row, so each sample's count is theirs. The samples run in chunks
of the package's one block size, on up to ``threads`` threads, the caller
included, in 9 bytes per sample plus one chunk per thread. Samples never
interact and the chunks are fixed, so any thread count gives the same bits.
"""

from __future__ import annotations

import csv
import threading
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InvalidParameterError, _count, _grad_norm_tolerance, _interval
from .functions import _BLOCK_ROWS, SectorFunction, builtin_function
from .optim import ArmijoAlpha, ArmijoParams, ArmijoS, FixedAlpha, FixedS
from .optim import _CAP, DEFAULT_MAX_ITER, _block_runner, _check_schedule

__all__ = [
    "MethodSpec",
    "MonteCarloSpec",
    "SummaryStats",
    "run_monte_carlo",
    "export_histogram",
    "write_summary_csv",
    "default_methods",
    "default_config",
    "spec_from_config",
]


@dataclass(frozen=True)
class MethodSpec:
    label: str
    kind: str  # "gd" or "gsgd"
    schedule: object

    def __post_init__(self):
        _check_schedule(self.kind, self.schedule, self.label)


@dataclass(frozen=True)
class MonteCarloSpec:
    n_samples: int
    x0_low: float
    x0_high: float
    seed: int
    tol: float
    methods: tuple[MethodSpec, ...]
    max_iter: int = DEFAULT_MAX_ITER

    def __post_init__(self):
        _count("n_samples", self.n_samples, 1)
        _count("seed", self.seed, 0)
        _interval(self.x0_low, self.x0_high, "initial-condition")
        _grad_norm_tolerance(self.tol)
        _count("max_iter", self.max_iter, 1)
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


def _summarize(label: str, counts: np.ndarray, reasons: np.ndarray) -> SummaryStats:
    """One method's statistics from its counts and stop codes, with one sort."""
    vals, freq = np.unique(counts, return_counts=True)
    hist = {int(v): int(c) for v, c in zip(vals, freq)}
    # Median of an even-length sample is the lower middle order statistic,
    # so it is always an observed count: the first value whose cumulative
    # count passes that statistic's index.
    middle = np.searchsorted(np.cumsum(freq), (counts.size - 1) // 2, side="right")
    return SummaryStats(
        label=label,
        mean=float(counts.mean()),
        median=int(vals[middle]),
        # np.unique sorts vals, so argmax breaks ties toward the smallest value.
        mode=int(vals[np.argmax(freq)]),
        count_histogram=hist,
        n=int(counts.size),
        flagged=int(np.count_nonzero(reasons >= _CAP)),
    )


def _run_chunks(runner, chunks, n_chunks: int, n_threads: int) -> list:
    """``runner`` of each chunk, in chunk order, on the calling thread and
    ``min(n_threads, n_chunks) - 1`` helpers, which take ``(index, chunk)`` pairs
    from the one iterator ``chunks`` under one lock, so only running chunks are held.
    After a failure no thread takes a new chunk, and every helper has stopped
    when an interrupt or exit, or else the lowest-index exception, is raised.
    """
    lock = threading.Lock()
    parts, failures = [None] * n_chunks, {}

    def work():
        try:
            while not failures:
                with lock:
                    i, chunk = next(chunks, (None, None))
                if i is None:
                    return
                try:
                    parts[i] = runner(chunk)
                except Exception as exc:
                    failures[i] = exc
        except BaseException as exc:  # an interrupt or exit, in any thread
            failures[-1] = exc

    helpers = [threading.Thread(target=work) for _ in range(min(n_threads, n_chunks) - 1)]
    for t in helpers:
        t.start()
    work()
    for t in helpers:
        t.join()
    if failures:
        raise failures[min(failures)]
    return parts


def run_monte_carlo(
    f: SectorFunction,
    spec: MonteCarloSpec,
    threads: int = 1,
) -> list[SummaryStats]:
    """Run every configured method on the same x0 sequence and summarize.

    ``threads`` counts the calling thread. Results do not depend on it.
    Each method draws x0 one chunk at a time, as ``sector_membership_scan``
    does, and writes its counts and stop codes in place: a run holds 9 bytes
    per sample plus one chunk's working set per thread.
    """
    _count("threads", threads, 1)
    n, row = spec.n_samples, () if f.dim == 1 else (f.dim,)
    counts, reasons = np.empty(n, np.int64), np.empty(n, np.int8)

    def run(chunk):
        rows, x0 = chunk
        counts[rows], reasons[rows] = runner(x0)

    results = []
    for method in spec.methods:
        runner = _block_runner(f, method.schedule, spec.tol, spec.max_iter)
        # Blocks drawn in sequence are bitwise one (n, dim) draw, or one flat draw.
        rng, starts = np.random.default_rng(spec.seed), range(0, n, _BLOCK_ROWS)
        draws = ((i, (slice(s, s + _BLOCK_ROWS), rng.uniform(
            spec.x0_low, spec.x0_high, (min(_BLOCK_ROWS, n - s), *row))))
            for i, s in enumerate(starts))
        _run_chunks(run, draws, len(starts), threads)
        results.append(_summarize(method.label, counts, reasons))
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
    return _methods_from_config(default_config(m, L)["methods"])


def default_config(m: float = 1.0, L: float = 100.0) -> dict:
    return {
        "function": {"name": "oscillatory", "m": m, "L": L},
        "n_samples": 100_000,
        "x0_low": -1e5,
        "x0_high": 1e5,
        "seed": 0,
        "tol": 1e-12,
        "max_iter": DEFAULT_MAX_ITER,
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
    A numeric key refuses a boolean or a string, which ``int`` and ``float``
    would convert, and an ``int`` key refuses a float such as 1.5, which
    ``int`` would truncate.
    """
    if not isinstance(doc, dict):
        raise InvalidParameterError(f"{where} must be a JSON object")
    value = doc.get(key, default)
    if value is _REQUIRED:
        raise InvalidParameterError(f"{where} is missing the key {key!r}")
    if cast is None or (value is None and default is None):
        return value
    if cast is int and isinstance(value, float) and not value.is_integer():
        raise InvalidParameterError(f"{where}.{key} must be an integer, got {value!r}")
    if isinstance(value, (bool, str)):
        raise InvalidParameterError(f"{where}.{key} must be a number, got {value!r}")
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


def _methods_from_config(method_docs) -> tuple[MethodSpec, ...]:
    if not isinstance(method_docs, list) or not method_docs:
        raise InvalidParameterError("config.methods must be a JSON list of at least one method")
    methods = []
    for i, m in enumerate(method_docs):
        where = f"methods[{i}]"
        if not isinstance(label := _field(m, "label", where), str):
            raise InvalidParameterError(f"{where}.label must be a string, got {label!r}")
        methods.append(MethodSpec(
            label,
            _field(m, "kind", where),
            _schedule_from_config(_field(m, "schedule", where), f"{where}.schedule"),
        ))
    return tuple(methods)


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
    methods = _methods_from_config(_field(doc, "methods", "config"))
    spec = MonteCarloSpec(
        n_samples=_field(doc, "n_samples", "config", int),
        x0_low=_field(doc, "x0_low", "config", float),
        x0_high=_field(doc, "x0_high", "config", float),
        seed=_field(doc, "seed", "config", int),
        tol=_field(doc, "tol", "config", float),
        methods=methods,
        max_iter=_field(doc, "max_iter", "config", int, DEFAULT_MAX_ITER),
    )
    return f, spec
