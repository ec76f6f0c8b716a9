"""Tests of the benchmark's own checks and counters.

    PYTHONPATH=src python3 -m pytest -q benchmarks/test_harness.py

They sit outside the library's ``testpaths``, so the main suite does not
collect them.
"""

import dataclasses
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from passive_gd.functions import oscillatory  # noqa: E402

import workloads as wl  # noqa: E402
from tracing import Tracer, counting_copy  # noqa: E402


def test_counting_oracle_gives_hand_counted_totals():
    ledger = wl.Ledger()
    wl.check_counting_oracle(ledger)
    assert ledger.mismatches == []
    assert (ledger.attempted, ledger.failed) == (4, 0)


def test_corrupted_histogram_is_caught(tmp_path):
    ledger = wl.Ledger()
    workload = wl.McCustom(3, tmp_path)
    workload.spec = dataclasses.replace(workload.spec, n_samples=20)
    workload.warm_up(ledger)
    assert ledger.mismatches == []
    stats = workload.last[0]
    hist = dict(stats.count_histogram)
    hist[max(hist)] += 1
    workload.last = [dataclasses.replace(stats, count_histogram=hist)] + workload.last[1:]
    workload.check(ledger, 1)
    assert len(ledger.mismatches) == 1


def test_changed_bench_csv_is_caught(tmp_path):
    ledger = wl.Ledger()
    workload = wl.McPaper(0, tmp_path)
    (tmp_path / "t1").mkdir()
    (tmp_path / "t1" / "hist-a.csv").write_bytes(b"iterations,count\n2,5\n")
    workload.reference = {"hist-a.csv": b"iterations,count\n2,4\n"}
    workload.check(ledger, 1)
    assert len(ledger.mismatches) == 1


def test_failed_calls_are_counted_not_raised(capsys):
    ledger = wl.Ledger()
    ok, _ = ledger.call("boom", lambda: 1 / 0)
    ok_cli, _ = ledger.cli("bad bench", ["bench"])
    assert (ok, ok_cli) == (False, False)
    assert (ledger.attempted, ledger.failed) == (2, 2)
    assert ledger.mismatches == []
    assert "boom" in capsys.readouterr().err


def test_self_time_subtracts_children_and_oracle():
    tracer = Tracer()
    f = counting_copy(oscillatory(1.0, 100.0), tracer)
    with tracer.span("outer") as outer:
        f.elementwise_gradient(list(range(10)))
        with tracer.span("inner") as inner:
            f.gradient([0.5])
    assert (outer.points["grad"], outer.calls["grad"]) == (10, 1)
    assert (inner.points["grad"], outer.total_points("grad")) == (1, 11)
    expected = outer.duration - inner.duration - outer.oracle_s
    assert abs(outer.self_s - expected) < 1e-12
    assert 0.0 < outer.oracle_s < outer.duration
