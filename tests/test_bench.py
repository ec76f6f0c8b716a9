import csv
import dataclasses
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from passive_gd import bench as bench_mod
from passive_gd.bench import (
    MethodSpec,
    MonteCarloSpec,
    _run_chunks,
    _summarize,
    default_config,
    default_methods,
    export_histogram,
    run_monte_carlo,
    spec_from_config,
    write_summary_csv,
)
from passive_gd.errors import DivergenceError, InvalidParameterError, LineSearchError
from passive_gd.functions import _BLOCK_ROWS, diag_quadratic, oscillatory, quadratic
from passive_gd.optim import (
    ArmijoAlpha,
    ArmijoParams,
    ArmijoS,
    FixedAlpha,
    FixedS,
    GradNorm,
    MaxIter,
    Termination,
    _block_runner,
    _CAP,
    _FAILED,
    _MET,
    default_s_cap,
    gd_run,
    gsgd_run,
)


def _small_spec(methods, n=300, seed=11):
    return MonteCarloSpec(
        n_samples=n,
        x0_low=-1e5,
        x0_high=1e5,
        seed=seed,
        tol=1e-12,
        methods=tuple(methods),
        max_iter=10**6,
    )


def test_mode_of_examples():
    def mode(counts):
        counts = np.array(counts)
        return _summarize("x", counts, np.zeros(counts.size, dtype=bool)).mode

    assert mode([3, 3, 5]) == 3
    assert mode([2, 2, 7, 7]) == 2
    assert mode([7, 7, 2, 2]) == 2
    assert mode([9]) == 9


def test_histogram_export_round_trip(tmp_path):
    from passive_gd.bench import SummaryStats

    stats = SummaryStats("x", 21.5, 21, 23, {23: 2, 20: 1}, n=3, flagged=0)
    path = tmp_path / "hist.csv"
    export_histogram(stats, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iterations", "count"]
    assert rows[1] == ["20", "1"]
    assert rows[2] == ["23", "2"]
    parsed = {int(r[0]): int(r[1]) for r in rows[1:]}
    assert parsed == stats.count_histogram


def test_histogram_export_empty(tmp_path):
    from passive_gd.bench import SummaryStats

    stats = SummaryStats("empty", 0.0, 0, 0, {}, n=0, flagged=0)
    path = tmp_path / "hist.csv"
    export_histogram(stats, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["iterations", "count"]]


def test_counts_match_per_sample_runs():
    # The vectorized engine must agree sample by sample with the scalar
    # optimizer route, for every schedule kind.
    f = oscillatory(1.0, 100.0)
    methods = [
        MethodSpec("fixed-a", "gd", FixedAlpha(2.0 / 101.0)),
        MethodSpec("fixed-s", "gsgd", FixedS(float(np.sqrt(2.0 / 101.0)))),
        MethodSpec("armijo-a", "gd", ArmijoAlpha(ArmijoParams())),
        MethodSpec("armijo-s", "gsgd", ArmijoS(ArmijoParams())),
    ]
    spec = _small_spec(methods, n=300, seed=11)
    stats = run_monte_carlo(f, spec)
    rng = np.random.default_rng(spec.seed)
    x0 = rng.uniform(spec.x0_low, spec.x0_high, spec.n_samples)
    for method, stat in zip(methods, stats):
        runner = gd_run if method.kind == "gd" else gsgd_run
        counts = np.empty(spec.n_samples, dtype=np.int64)
        for i, x in enumerate(x0):
            trace = runner(
                f,
                np.array([x]),
                method.schedule,
                [GradNorm(spec.tol), MaxIter(spec.max_iter)],
            )
            assert trace.termination is Termination.GRAD_NORM_MET
            counts[i] = trace.iterations + 1
        vals, freq = np.unique(counts, return_counts=True)
        assert stat.count_histogram == {
            int(v): int(c) for v, c in zip(vals, freq)
        }, method.label


def test_sample_at_minimizer_counts_one_check():
    f = oscillatory(1.0, 100.0)
    spec = MonteCarloSpec(
        n_samples=4,
        x0_low=-1e-300,
        x0_high=1e-300,
        seed=0,
        tol=1e-12,
        methods=(MethodSpec("a", "gd", FixedAlpha(0.01)),),
    )
    stats = run_monte_carlo(f, spec)
    assert stats[0].count_histogram == {1: 4}
    assert stats[0].flagged == 0


def test_max_iter_cap_is_flagged():
    f = oscillatory(1.0, 100.0)
    spec = MonteCarloSpec(
        n_samples=50,
        x0_low=-1e5,
        x0_high=1e5,
        seed=3,
        tol=1e-12,
        methods=(MethodSpec("capped", "gd", FixedAlpha(2.0 / 101.0)),),
        max_iter=5,
    )
    stats = run_monte_carlo(f, spec)
    assert stats[0].flagged > 0
    assert max(stats[0].count_histogram) == 5


def _without_elementwise(f):
    return dataclasses.replace(f, elementwise_value=None, elementwise_gradient=None)


def _nan_outside(f, radius):
    """``f`` with value NaN where |x| > radius, so no Armijo test passes there."""

    def value(x):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x) > radius, np.nan, f.elementwise_value(x))

    return dataclasses.replace(
        f, value=lambda x: float(value(x)[0]), elementwise_value=value
    )


def test_failed_line_search_is_flagged_not_raised():
    # Samples outside the radius fail every backtrack; they are flagged at
    # the cap while the other samples converge, in the vectorized engine
    # and in the per-sample fallback alike.
    f = _nan_outside(oscillatory(1.0, 100.0), 5e4)
    methods = [m for m in default_methods(1.0, 100.0) if "armijo" in m.label]
    spec = _small_spec(methods, n=40, seed=5)
    x0 = np.random.default_rng(spec.seed).uniform(spec.x0_low, spec.x0_high, 40)
    bad = int(np.sum(np.abs(x0) > 5e4))
    assert 0 < bad < 40
    vectorized = run_monte_carlo(f, spec)
    fallback = run_monte_carlo(_without_elementwise(f), spec)
    assert vectorized == fallback
    for stat in vectorized:
        assert stat.flagged == bad
        assert stat.count_histogram[spec.max_iter] == bad


def test_overflowing_start_points_are_flagged():
    # x0 in +-1e160 overflows f; the Armijo methods flag those samples.
    f = oscillatory(1.0, 100.0)
    spec = MonteCarloSpec(
        n_samples=8,
        x0_low=-1e160,
        x0_high=1e160,
        seed=0,
        tol=1e-12,
        methods=default_methods(1.0, 100.0),
        max_iter=20,
    )
    vectorized = run_monte_carlo(f, spec)
    assert vectorized == run_monte_carlo(_without_elementwise(f), spec)
    armijo = [s for s in vectorized if "armijo" in s.label]
    assert [s.count_histogram for s in armijo] == [{20: 8}, {20: 8}]
    assert all(s.flagged == 8 for s in armijo)


def _reference_counts(f, spec, method, x0):
    """Per-sample counts and flags from ``gd_run``/``gsgd_run``."""
    runner = gd_run if method.kind == "gd" else gsgd_run
    counts = np.empty(len(x0), dtype=np.int64)
    flagged = np.zeros(len(x0), dtype=bool)
    stops = [GradNorm(spec.tol), MaxIter(spec.max_iter)]
    for i, x in enumerate(x0):
        try:
            trace = runner(f, np.atleast_1d(x), method.schedule, stops)
        except (DivergenceError, LineSearchError):
            counts[i], flagged[i] = spec.max_iter, True
            continue
        if trace.termination is Termination.GRAD_NORM_MET:
            counts[i] = trace.iterations + 1
        else:
            counts[i], flagged[i] = spec.max_iter, True
    return counts, flagged


def test_two_dimensional_counts_match_per_sample_runs():
    # x0 is drawn from [low, high]^2; at alpha = 2/L the stiff coordinate
    # oscillates forever, so those runs hit the cap and are flagged.
    f = diag_quadratic(1.0, 100.0)
    methods = [
        MethodSpec("fixed-a", "gd", FixedAlpha(2.0 / 101.0)),
        MethodSpec("fixed-s", "gsgd", FixedS(float(np.sqrt(2.0 / 101.0)))),
        MethodSpec("edge-a", "gd", FixedAlpha(2.0 / 100.0)),
        MethodSpec("armijo-a", "gd", ArmijoAlpha(ArmijoParams())),
        MethodSpec("armijo-s", "gsgd", ArmijoS(ArmijoParams())),
    ]
    spec = MonteCarloSpec(16, -1.0, 1.0, 3, 0.1, tuple(methods), max_iter=300)
    x0 = np.random.default_rng(spec.seed).uniform(-1.0, 1.0, (16, 2))
    stats = run_monte_carlo(f, spec)
    assert any(0 < s.flagged < 16 for s in stats)
    for method, stat in zip(methods, stats):
        counts, flagged = _reference_counts(f, spec, method, x0)
        vals, freq = np.unique(counts, return_counts=True)
        assert stat.count_histogram == {int(v): int(c) for v, c in zip(vals, freq)}
        assert stat.flagged == flagged.sum(), method.label


_BUILTINS = {
    "oscillatory": oscillatory(1.0, 100.0),
    "quadratic": quadratic(100.0),
    "diag-quadratic": diag_quadratic(1.0, 100.0),
}


@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    name=st.sampled_from(sorted(_BUILTINS)),
    seed=st.integers(0, 2**32 - 1),
    low=st.floats(-1e6, 1e6),
    width=st.floats(1e-3, 1e6),
    n=st.integers(1, 12),
)
def test_per_row_oracle_equals_vectorized_oracle(name, seed, low, width, n):
    # The engine's two oracle layouts, one elementwise call per block and
    # one f.gradient/f.value call per row, give the same statistics. On
    # the quadratics, alpha = 2/L maps the stiff coordinate x to -x, so
    # those runs hit the cap.
    f = _BUILTINS[name]
    spec = MonteCarloSpec(
        n, low, low + width, seed, 1e-12, default_methods(f.m, f.L), max_iter=500
    )
    assert run_monte_carlo(f, spec) == run_monte_carlo(_without_elementwise(f), spec)


def _counting(f):
    """A copy of ``f`` whose value and elementwise oracles count the points
    they evaluate. ``f.gradient`` is left as it is, since the constructor
    calls it once."""
    points = {"value": 0, "grad": 0}

    def counted(fn, kind):
        def call(x):
            points[kind] += np.size(x)
            return fn(x)

        return call

    copy = dataclasses.replace(
        f,
        value=counted(f.value, "value"),
        elementwise_value=counted(f.elementwise_value, "value"),
        elementwise_gradient=counted(f.elementwise_gradient, "grad"),
    )
    return copy, points


@pytest.mark.parametrize("seed", range(8))
def test_armijo_oracle_points_per_sample(seed):
    # A converging sample with k updates and T trials evaluates f at its
    # start point and at each trial: the accepted trial is the next
    # iterate, whose value carries over. s-armijo's accepted trial also
    # gives the update direction grad(s*x). T is counted independently
    # from the accepted values of the per-sample run: the searches start
    # at 2/L and sqrt(2/L) and halve, so accepting start/2^j takes j + 1
    # trials.
    f = oscillatory(1.0, 100.0)
    for method, start in zip(default_methods(1.0, 100.0)[4:], (2.0 / f.L, default_s_cap(f))):
        spec = _small_spec([method], n=1, seed=seed)
        x0 = np.random.default_rng(seed).uniform(spec.x0_low, spec.x0_high, 1)
        runner = gd_run if method.kind == "gd" else gsgd_run
        trace = runner(f, x0, method.schedule, [GradNorm(spec.tol)])
        k = trace.iterations
        trials = sum(1 + round(np.log2(start / t)) for t in trace.step_history)
        counted, points = _counting(oscillatory(1.0, 100.0))
        (stat,) = run_monte_carlo(counted, spec)
        assert stat.count_histogram == {k + 1: 1} and stat.flagged == 0
        assert points["value"] == 1 + trials, method.label
        grads = 1 + trials + k if method.kind == "gsgd" else 1 + k
        assert points["grad"] == grads, method.label


def test_overflowing_objective_fails_the_search_at_once():
    # f(x0) overflows to inf for x0 in +-1e160: the Armijo methods flag
    # such a sample after one evaluation of f instead of creeping on
    # toward the cap, in both oracle layouts.
    spec = MonteCarloSpec(
        n_samples=8, x0_low=-1e160, x0_high=1e160, seed=0, tol=1e-12,
        methods=default_methods(1.0, 100.0)[4:], max_iter=2000,
    )
    counted, points = _counting(oscillatory(1.0, 100.0))
    for target in (counted, _without_elementwise(counted)):
        for method in spec.methods:
            points["value"] = 0
            (stat,) = run_monte_carlo(target, dataclasses.replace(spec, methods=(method,)))
            assert stat.count_histogram == {2000: 8} and stat.flagged == 8
            assert points["value"] <= 8, method.label


def _recording(f):
    """A copy of ``f`` that records the points each oracle kind evaluates.

    The copy keeps ``f``'s fused oracle, recorded as both kinds, when it
    has one, so the engine takes the same path as on ``f``.
    """
    points = {"value": [], "grad": []}

    def recorded(fn, *kinds):
        def call(x):
            for kind in kinds:
                points[kind].append(np.ravel(x))
            return fn(x)

        return None if fn is None else call

    copy = dataclasses.replace(
        f,
        value=recorded(f.value, "value"),
        gradient=recorded(f.gradient, "grad"),
        elementwise_value=recorded(f.elementwise_value, "value"),
        elementwise_gradient=recorded(f.elementwise_gradient, "grad"),
    )
    object.__setattr__(copy, "_value_and_gradient",
                       recorded(f._value_and_gradient, "value", "grad"))
    return copy, points


_TERMINATION_REASONS = {Termination.GRAD_NORM_MET: _MET, Termination.MAX_ITER_HIT: _CAP}


@pytest.mark.parametrize("method, start", [
    (MethodSpec("alpha-trial-0.05", "gd", ArmijoAlpha(ArmijoParams(trial=0.05))), 0.05),
    (MethodSpec("s-cap-0.25", "gsgd", ArmijoS(ArmijoParams(), cap=0.25)), 0.25),
], ids=("alpha-armijo", "s-armijo"))
def test_mixed_block_rows_match_their_single_runs(method, start):
    # One block mixes ordinary starts, overflowing ones (f(x0) = inf) and
    # starts whose first trial is rejected: the first trials 0.05 and
    # 0.25 lie past the certified 2/L and sqrt(2/L). Each row's count and
    # stop reason are those of its own single run, with trials on the
    # fused oracle (the built-in) or on value and gradient calls (the
    # fallback), on the whole block or on chunks in two threads. A failed
    # row is evaluated only at its start point.
    f = oscillatory(1.0, 100.0)
    x0 = np.random.default_rng(3).uniform(-1e3, 1e3, 24)
    overflowing = [2, 9, 17]
    x0[overflowing] = [1e160, -1e160, 3e159]
    tol, max_iter = 1e-12, 500
    runner = gd_run if method.kind == "gd" else gsgd_run
    want = np.empty((2, len(x0)), dtype=np.int64)
    first_accepted = []
    for i, x in enumerate(x0):
        try:
            trace = runner(f, [x], method.schedule, [GradNorm(tol), MaxIter(max_iter)])
        except LineSearchError:
            want[:, i] = max_iter, _FAILED
            continue
        reason = _TERMINATION_REASONS[trace.termination]
        want[:, i] = trace.iterations + 1 if reason == _MET else max_iter, reason
        first_accepted.append(trace.step_history[0] == start)
    assert list(np.flatnonzero(want[1] == _FAILED)) == overflowing
    assert 0 < sum(first_accepted) < len(first_accepted)
    for target in (f, _without_elementwise(f)):
        recorded, points = _recording(target)
        counts, reasons = _block_runner(recorded, method.schedule, tol, max_iter)(x0)
        assert np.array_equal(counts, want[0]) and np.array_equal(reasons, want[1])
        for kind in ("value", "grad"):
            seen = np.concatenate(points[kind])
            assert sorted(seen[np.abs(seen) > 1e6]) == sorted(x0[overflowing]), kind
        with ThreadPoolExecutor(max_workers=2) as pool:
            parts = list(pool.map(_block_runner(target, method.schedule, tol, max_iter),
                                  np.array_split(x0, 3)))
        assert np.array_equal(np.concatenate([p[0] for p in parts]), counts)
        assert np.array_equal(np.concatenate([p[1] for p in parts]), reasons)


def _read_only(fn):
    """``fn`` with its result marked read-only."""

    def call(x):
        out = fn(x)
        out.setflags(write=False)
        return out

    return call


@pytest.mark.parametrize("schedule", [
    ArmijoAlpha(ArmijoParams(trial=0.05)), ArmijoS(ArmijoParams(), cap=0.25),
], ids=("alpha-armijo", "s-armijo"))
def test_read_only_block_results_are_never_written(schedule):
    # A custom block objective may return arrays that it owns, here
    # read-only ones. Rows that reject the first trial backtrack into the
    # engine's own arrays, so every count and stop reason is the built-in's.
    f = oscillatory(1.0, 100.0)
    custom = dataclasses.replace(
        f, elementwise_value=_read_only(f.elementwise_value),
        elementwise_gradient=_read_only(f.elementwise_gradient),
    )
    x0 = np.random.default_rng(3).uniform(-1e3, 1e3, 24)
    want = _block_runner(f, schedule, 1e-12, 500)(x0)
    got = _block_runner(custom, schedule, 1e-12, 500)(x0)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_determinism_across_thread_counts():
    f = oscillatory(1.0, 100.0)
    spec = _small_spec(
        [
            MethodSpec("a", "gd", FixedAlpha(0.02)),
            MethodSpec("b", "gsgd", ArmijoS(ArmijoParams())),
        ],
        n=40000,
        seed=5,
    )
    one = run_monte_carlo(f, spec, threads=1)
    for threads in (2, 3, 4):
        assert run_monte_carlo(f, spec, threads=threads) == one


@pytest.mark.parametrize("threads, n, helpers", [
    (1, 3 * _BLOCK_ROWS, []),
    (4, 100, []),
    (2, 3 * _BLOCK_ROWS, [1]),
    (3, 3 * _BLOCK_ROWS, [2]),
    (8, 3 * _BLOCK_ROWS, [2]),
])
def test_threads_count_the_calling_thread(threads, n, helpers):
    # --threads N runs N threads, the caller included, and never more
    # than there are chunks: one pool of min(N, chunks) - 1 helpers per
    # method, none when that is 0.
    sizes = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kw):
            sizes.append(max_workers)
            super().__init__(max_workers, **kw)

    f = quadratic(1.0)
    spec = _small_spec([MethodSpec("a", "gd", FixedAlpha(1.0))] * 2, n=n)
    with mock.patch.object(bench_mod, "ThreadPoolExecutor", RecordingPool):
        run_monte_carlo(f, spec, threads=threads)
    assert sizes == helpers * 2


def _fake_runner(fail_in, ran):
    """A ``_block_runner`` stand-in whose runners sleep briefly, record the
    chunk and raise in the threads that ``fail_in`` picks."""

    def make(*args):
        def runner(chunk):
            ran.append(len(chunk))
            if fail_in(threading.current_thread()):
                raise ZeroDivisionError("chunk failed")
            time.sleep(0.01)
            return np.ones(len(chunk), dtype=np.int64), np.zeros(len(chunk), dtype=np.int8)

        return runner

    return make


@pytest.mark.parametrize("where", ["caller", "helper"])
def test_a_failing_chunk_stops_every_thread_and_is_raised(where):
    # 10 chunks on 3 threads; the first chunk that the caller (or a
    # helper) runs raises. The failure reaches the caller, the other
    # threads take no new chunk, and no helper is left running.
    main = threading.main_thread()
    fail_in = (lambda t: t is main) if where == "caller" else (lambda t: t is not main)
    ran = []
    spec = _small_spec([MethodSpec("a", "gd", FixedAlpha(1.0))], n=10 * _BLOCK_ROWS)
    before = set(threading.enumerate())
    with mock.patch.object(bench_mod, "_block_runner", _fake_runner(fail_in, ran)):
        with pytest.raises(ZeroDivisionError, match="chunk failed"):
            run_monte_carlo(quadratic(1.0), spec, threads=3)
    assert set(threading.enumerate()) <= before
    assert len(ran) < 10


def test_chunks_come_back_in_order_under_contention():
    # More threads than cores, a short switch interval and many small
    # chunks: each chunk runs once and its result lands at its index.
    chunks = [np.arange(i, i + 3) for i in range(200)]
    ran = []

    def runner(chunk):
        ran.append(int(chunk[0]))
        return chunk * 2

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        parts = _run_chunks(runner, chunks, 8)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(ran) == list(range(200))
    assert all(np.array_equal(p, c * 2) for p, c in zip(parts, chunks, strict=True))


def test_determinism_repeated_run():
    f = oscillatory(1.0, 100.0)
    spec = _small_spec([MethodSpec("a", "gd", FixedAlpha(0.02))], n=2000, seed=9)
    assert run_monte_carlo(f, spec) == run_monte_carlo(f, spec)


def test_paired_sampling_improvement_ordering():
    # Scheduled variants beat their step-size counterparts on the mean.
    f = oscillatory(1.0, 100.0)
    spec = _small_spec(default_methods(1.0, 100.0)[:4], n=5000, seed=1)
    stats = {s.label: s for s in run_monte_carlo(f, spec)}
    assert stats["s=sqrt(2/(m+L))"].mean < stats["alpha=2/(m+L)"].mean
    assert stats["s=sqrt(2/L)"].mean < stats["alpha=2/L"].mean


def test_summary_csv_format(tmp_path):
    f = oscillatory(1.0, 100.0)
    spec = _small_spec([MethodSpec("a", "gd", FixedAlpha(0.02))], n=100, seed=2)
    stats = run_monte_carlo(f, spec)
    path = tmp_path / "summary.csv"
    write_summary_csv(stats, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["label", "mean", "median", "mode", "n", "flagged"]
    assert rows[1][0] == "a"
    assert float(rows[1][1]) == stats[0].mean


def test_config_round_trip():
    doc = default_config()
    f, spec = spec_from_config(doc)
    assert f.name == "oscillatory"
    assert spec.n_samples == 100_000
    assert len(spec.methods) == 6
    labels = [m.label for m in spec.methods]
    assert labels == [
        "alpha=2/(m+L)",
        "s=sqrt(2/(m+L))",
        "alpha=2/L",
        "s=sqrt(2/L)",
        "alpha-armijo",
        "s-armijo",
    ]


def test_method_kind_schedule_mismatch_rejected():
    with pytest.raises(InvalidParameterError):
        MethodSpec("bad", "gd", FixedS(0.1))
    with pytest.raises(InvalidParameterError):
        MethodSpec("bad", "gsgd", FixedAlpha(0.1))
    with pytest.raises(InvalidParameterError):
        MethodSpec("bad", "newton", FixedAlpha(0.1))


@pytest.mark.parametrize("kind, schedule, message", [
    ("gd", FixedS(0.1), "gd needs a step-size schedule, got FixedS"),
    ("gd", ArmijoS(), "gd needs a step-size schedule, got ArmijoS"),
    ("gsgd", FixedAlpha(0.1), "gsgd needs a scheduling schedule, got FixedAlpha"),
    ("gsgd", None, "gsgd needs a scheduling schedule, got NoneType"),
    ("newton", FixedAlpha(0.1), "kind must be 'gd' or 'gsgd', got 'newton'"),
    (["gd"], FixedAlpha(0.1), "kind must be 'gd' or 'gsgd', got ['gd']"),
])
def test_a_method_and_a_single_run_refuse_a_schedule_alike(kind, schedule, message):
    # MethodSpec and gd_run/gsgd_run check one table of which schedules
    # each iteration takes; a config's kind may be any JSON value.
    with pytest.raises(InvalidParameterError) as info:
        MethodSpec("bad", kind, schedule)
    assert str(info.value) == f"method 'bad': {message}"
    if kind in ("gd", "gsgd"):
        run = gd_run if kind == "gd" else gsgd_run
        with pytest.raises(InvalidParameterError) as info:
            run(quadratic(1.0), np.ones(1), schedule, [MaxIter(5)])
        assert str(info.value) == message.replace(kind, f"{kind}_run", 1)


def test_spec_validation():
    with pytest.raises(InvalidParameterError):
        MonteCarloSpec(0, -1.0, 1.0, 0, 1e-12, ())
    with pytest.raises(InvalidParameterError):
        MonteCarloSpec(10, 1.0, -1.0, 0, 1e-12, ())
    with pytest.raises(InvalidParameterError):
        MonteCarloSpec(10, -1.0, 1.0, 0, 0.0, ())
    with pytest.raises(InvalidParameterError, match="tolerance must be positive"):
        MonteCarloSpec(10, -1.0, 1.0, 0, float("nan"), ())
    with pytest.raises(InvalidParameterError, match="seed"):
        MonteCarloSpec(10, -1.0, 1.0, -1, 1e-12, ())


@pytest.mark.parametrize("key, value", [("seed", 1.5), ("n_samples", 2.7), ("max_iter", 1e999)])
def test_config_rejects_non_integral_integer_keys(key, value):
    doc = default_config()
    doc[key] = value
    with pytest.raises(InvalidParameterError, match=f"config.{key} must be an integer"):
        spec_from_config(doc)


@pytest.mark.parametrize("key, value", [
    ("seed", True), ("n_samples", "7"), ("tol", True), ("tol", "1e-12"), ("max_iter", False),
    ("x0_low", "-1"), ("tol", [1]),
])
def test_config_rejects_booleans_and_strings_for_numeric_keys(key, value):
    doc = default_config()
    doc[key] = value
    with pytest.raises(InvalidParameterError, match=f"config.{key} must be a number"):
        spec_from_config(doc)


def test_config_rejects_booleans_and_strings_in_nested_numbers():
    doc = default_config()
    doc["function"]["L"] = "100"
    with pytest.raises(InvalidParameterError, match="function.L must be a number"):
        spec_from_config(doc)
    doc = default_config()
    doc["methods"][0]["schedule"]["alpha"] = True
    with pytest.raises(InvalidParameterError,
                       match=r"methods\[0\]\.schedule\.alpha must be a number"):
        spec_from_config(doc)


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["methods"][0]["schedule"].update(type="newton"),
     "unknown schedule type 'newton'"),
    (lambda doc: doc.update(methods={}), "config.methods must be a JSON list"),
])
def test_config_refuses_malformed_methods(edit, message):
    doc = default_config()
    edit(doc)
    with pytest.raises(InvalidParameterError, match=message):
        spec_from_config(doc)


def test_config_with_a_nan_tolerance_is_refused():
    doc = default_config()
    doc["tol"] = float("nan")
    with pytest.raises(InvalidParameterError, match="tolerance must be positive, got nan"):
        spec_from_config(doc)


def test_config_accepts_integral_floats_for_integer_keys():
    doc = default_config()
    doc.update(n_samples=1e5, seed=3.0, max_iter=1e6)
    _, spec = spec_from_config(doc)
    assert (spec.n_samples, spec.seed, spec.max_iter) == (100_000, 3, 10**6)
    assert all(type(v) is int for v in (spec.n_samples, spec.seed, spec.max_iter))
