import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import passive_gd
from passive_gd.cli import main
from passive_gd.bench import default_config
from passive_gd.functions import builtin_function, oscillatory
from passive_gd.optim import ArmijoAlpha, ArmijoParams, GradNorm, MaxIter, gd_run


def test_certify_exit_codes(capsys):
    # 0.0201 is just past 2/L = 0.02, where the verdict drops to NONE.
    for alpha, code, verdict in [("0.01", 0, "STRONG"), ("0.02", 0, "WEAK"),
                                 ("0.0201", 2, "NONE"), ("0.05", 2, "NONE")]:
        assert main(["certify", "--m", "1", "--L", "100", "--alpha", alpha]) == code
        out, err = capsys.readouterr()
        assert f"verdict: {verdict}" in out.splitlines() and err == ""
    assert main(["certify", "--m", "1", "--L", "100", "--alpha", "-1"]) == 1
    assert "error" in capsys.readouterr().err


def test_certify_json_contents(capsys):
    assert main(["certify", "--m", "1", "--L", "100", "--alpha", "0.01", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "strong"
    assert doc["p_scalar"] == pytest.approx(100.0)
    assert doc["delta"] == pytest.approx(100.0 / 101.0)
    assert doc["epsilon"] == pytest.approx(1.0 / 101.0)
    assert doc["delta_bar"] == pytest.approx(1.0)
    assert doc["epsilon_bar"] == pytest.approx(0.004975)


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not valid JSON")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("m, L, alpha, code, verdict, delta", [
    # m*L overflows, and with it mL/(m+L); d = 5e-162 < 1/L = 1e-160.
    ("1e160", "1e160", "1e-161", 0, "strong", 5e159),
    ("1e200", "1e300", "1e-301", 0, "strong", 1e200),
    # m + L overflows as well; d is far past 1/L.
    ("1e308", "1e308", "1e-300", 2, "none", 5e307),
    # m*L underflows to zero.
    ("1e-300", "1e-300", "1", 0, "strong", 5e-301),
])
def test_certify_at_extreme_sector_bounds(capsys, m, L, alpha, code, verdict, delta):
    # The indices stay finite and nonzero, so the verdict follows d against
    # 1/L and --json prints no NaN or Infinity.
    argv = ["certify", "--m", m, "--L", L, "--alpha", alpha]
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert f"verdict: {verdict.upper()}" in out and err == ""
    assert main(argv + ["--json"]) == code
    out, err = capsys.readouterr()
    doc = _strict_json(out)
    assert doc["verdict"] == verdict and err == ""
    assert doc["delta"] == delta


def test_run_gd_writes_trace(tmp_path, capsys):
    trace_path = tmp_path / "trace.csv"
    code = main([
        "run", "--function", "quadratic", "--L", "100", "--x0", "1",
        "--method", "gd", "--alpha", "0.01", "--trace", str(trace_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "iterations: 1" in out
    with open(trace_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "x_0", "g_0", "step"]
    assert len(rows) == 3  # header + two iterates
    assert rows[1][3] == "0.01"
    assert rows[2][3] == ""


def test_run_loop_mode_writes_loop_trace(tmp_path, capsys):
    trace_path = tmp_path / "loop.csv"
    code = main([
        "run", "--function", "oscillatory", "--m", "1", "--L", "100",
        "--x0", "2", "--alpha", "0.01", "--mode", "loop", "--steps", "20",
        "--trace", str(trace_path),
    ])
    assert code == 0
    with open(trace_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "u1", "y1", "u2", "y2", "state"]
    # 20 steps and the final state, after the header.
    assert len(rows) == 22


def test_run_loop_mode_two_dimensional_columns(tmp_path):
    trace_path = tmp_path / "loop2d.csv"
    code = main([
        "run", "--function", "diag-quadratic", "--m", "1", "--L", "100",
        "--x0", "1,1", "--alpha", "0.01", "--mode", "loop", "--steps", "5",
        "--trace", str(trace_path),
    ])
    assert code == 0
    with open(trace_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "k",
        "u1_0", "u1_1", "y1_0", "y1_1", "u2_0", "u2_1",
        "y2_0", "y2_1", "state_0", "state_1",
    ]
    assert len(rows) == 7


@pytest.mark.parametrize("function, x0, alpha", [
    ("oscillatory", [2.0], 0.01),
    ("diag-quadratic", [1.0, 1.0], 0.015),
])
def test_run_loop_mode_trace_holds_the_recursion_and_the_wiring(tmp_path, function, x0, alpha):
    # Row k holds the iterate x_k of x <- x - alpha*grad f(x) as the state,
    # y2 = grad f(state), u1 = -y2, u2 = state - d*y2 and y1 = state + d*u1
    # at d = alpha/2, each as .17g text; the row after the last step holds
    # the final state alone. So the loop trace reads as the iterate trace of
    # the same recursion, run by gd for as many steps.
    steps, d = 50, alpha / 2.0
    common = ["run", "--function", function, "--m", "1", "--L", "100",
              "--x0", ",".join(map(str, x0)), "--alpha", str(alpha)]
    path, iterate_path = tmp_path / "loop.csv", tmp_path / "iterates.csv"
    assert main(common + ["--mode", "loop", "--steps", str(steps), "--trace", str(path)]) == 0
    assert main(common + ["--method", "gd", "--max-iter", str(steps), "--tol", "1e-300",
                          "--trace", str(iterate_path)]) == 0
    rows, iterates = ([*csv.DictReader(p.read_text().splitlines())] for p in (path, iterate_path))
    f = builtin_function(function, 1.0, 100.0)
    assert len(rows) == len(iterates) == steps + 1

    def cells(row, name):
        return [row[name if f.dim == 1 else f"{name}_{i}"] for i in range(f.dim)]

    def iterate_cells(row, name):
        return [row[f"{name}_{i}"] for i in range(f.dim)]

    assert [cells(r, "state") for r in rows] == [iterate_cells(r, "x") for r in iterates]
    assert ([cells(r, "y2") for r in rows[:steps]]
            == [iterate_cells(r, "g") for r in iterates[:steps]])

    def text(values):
        return [f"{v:.17g}" for v in values]

    x = np.array(x0)
    for k, row in enumerate(rows):
        assert row["k"] == str(k)
        assert cells(row, "state") == text(x)
        if k == steps:
            for name in ("u1", "y1", "u2", "y2"):
                assert cells(row, name) == [""] * f.dim
            break
        y2 = f.gradient(x)
        u1 = -y2
        assert cells(row, "y2") == text(y2)
        assert cells(row, "u1") == text(u1)
        assert cells(row, "u2") == text(x - d * y2)
        assert cells(row, "y1") == text(x + d * u1)
        x = x - alpha * y2


_OSCILLATORY = ["run", "--function", "oscillatory", "--m", "1", "--L", "100"]


@pytest.mark.parametrize("argv", [
    _OSCILLATORY + ["--x0", "5", "--method", "gd", "--alpha", "0.0198", "--trace", "TRACE"],
    _OSCILLATORY + ["--x0", "5", "--method", "gsgd", "--armijo"],
    _OSCILLATORY + ["--x0", "2", "--alpha", "0.01", "--mode", "loop", "--steps", "50",
                    "--trace", "TRACE"],
    _OSCILLATORY + ["--x0", "98", "--alpha", "0.02", "--mode", "loop", "--steps", "30"],
    ["run", "--method", "gd", "--armijo", "--m", "1", "--L", "100", "--x0", "5"],
    ["run", "--m", "1", "--L", "100", "--x0", "5", "--alpha", "7", "--max-iter", "100",
     "--json"],
])
def test_readme_runs_exit_zero_with_nothing_on_stderr(tmp_path, capsys, argv):
    # RuntimeWarnings are errors in this suite, so a stray numpy warning
    # fails the run as it would show on stderr from the command line.
    argv = [str(tmp_path / "trace.csv") if a == "TRACE" else a for a in argv]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    if "--json" in argv:
        _strict_json(out)


def test_run_paired_gradient_rule_via_cli(capsys):
    code = main([
        "run", "--function", "diag-quadratic", "--m", "1", "--L", "100",
        "--x0", "1,1", "--method", "gd", "--alpha", "0.02",
        "--paired-tol", "1e-10", "--max-iter", "5000", "--json",
    ])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["termination"] == "paired-grad-met"
    assert doc["iterations"] == 605


def test_run_gsgd_json(capsys):
    code = main([
        "run", "--function", "quadratic", "--L", "100", "--x0", "1",
        "--method", "gsgd", "--s", "0.1", "--json",
    ])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["iterations"] == 1
    assert doc["termination"] == "grad-norm-met"


def test_run_missing_schedule_flag(capsys):
    code = main([
        "run", "--function", "quadratic", "--L", "100", "--x0", "1",
        "--method", "gd",
    ])
    assert code == 1
    assert "needs" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--mode", "loop"], "loop mode needs --alpha"),
    (["--method", "gsgd"], "gsgd needs --s or --armijo"),
])
def test_run_without_its_step_flag_prints_one_error_line(capsys, argv, message):
    assert main(["run", "--function", "quadratic", "--L", "100", "--x0", "1"] + argv) == 1
    _assert_one_error_line(capsys, message)


def test_run_gd_armijo_json_matches_the_library(capsys):
    code = main(["run", "--method", "gd", "--armijo", "--m", "1", "--L", "100",
                 "--x0", "5", "--json"])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    trace = gd_run(oscillatory(1.0, 100.0), np.array([5.0]), ArmijoAlpha(ArmijoParams()),
                   [GradNorm(1e-12), MaxIter(10**6)])
    assert json.loads(out) == {
        "mode": "iterate",
        "iterations": trace.iterations,
        "termination": trace.termination.value,
        "final_x": trace.iterates[-1].tolist(),
        "final_grad_norm": math.hypot(*trace.gradients[-1]),
    }


def test_certify_text_at_a_degenerate_boundary(capsys):
    # m == L at alpha = 2/L: the transformed indices are undefined.
    assert main(["certify", "--m", "5", "--L", "5", "--alpha", "0.4"]) == 2
    out, err = capsys.readouterr()
    assert "verdict: NONE" in out and err == ""
    assert "transformed indices: undefined at this feedthrough" in out


def test_verify_counterexample_suite(capsys):
    assert main(["verify", "--suite", "counterexample"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out


def test_verify_loop_suite_seeded(capsys):
    assert main(["verify", "--suite", "loop", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] suite loop" in out
    assert "transformed vs untransformed loop with inputs" in out
    assert "implicit-relation residual" in out


def test_verify_unknown_suite(capsys):
    assert main(["verify", "--suite", "nonsense"]) == 1
    assert "unknown suite" in capsys.readouterr().err


def test_verify_json_schema(capsys):
    assert main(["verify", "--suite", "counterexample", "--json"]) == 0
    docs = json.loads(capsys.readouterr().out)
    assert docs[0]["suite"] == "counterexample"
    assert docs[0]["passed"] is True
    assert all("label" in c and "value" in c for c in docs[0]["checks"])


def _small_bench_config(tmp_path, n=2000):
    doc = default_config()
    doc["n_samples"] = n
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_bench_writes_outputs(tmp_path, capsys):
    cfg = _small_bench_config(tmp_path)
    out_dir = tmp_path / "out"
    code = main([
        "bench", "--config", str(cfg), "--out-dir", str(out_dir), "--json",
    ])
    assert code == 0
    stats = json.loads(capsys.readouterr().out)
    assert len(stats) == 6
    summary = out_dir / "summary.csv"
    assert summary.exists()
    hist_files = sorted(out_dir.glob("hist-*.csv"))
    assert len(hist_files) == 6
    with open(summary, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["label", "mean", "median", "mode", "n", "flagged"]
    assert len(rows) == 7


def test_bench_byte_identical_reruns(tmp_path):
    cfg = _small_bench_config(tmp_path)
    dirs = [tmp_path / "a", tmp_path / "b", tmp_path / "c"]
    for out_dir, flag in zip(dirs, ([], [], ["--threads", "4"])):
        assert main(["bench", "--config", str(cfg), "--out-dir", str(out_dir), *flag]) == 0
    ref = sorted(p.name for p in dirs[0].iterdir())
    for other in dirs[1:]:
        assert sorted(p.name for p in other.iterdir()) == ref
        for name in ref:
            assert (dirs[0] / name).read_bytes() == (other / name).read_bytes()


def test_help_exits_zero():
    assert main(["--help"]) == 0


def test_usage_error_maps_to_one():
    assert main(["certify", "--m", "1"]) == 1


def _assert_one_error_line(capsys, *fragments):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    for fragment in fragments:
        assert fragment in err


def test_bench_config_missing_key(tmp_path, capsys):
    doc = default_config()
    del doc["function"]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    assert main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 1
    _assert_one_error_line(capsys, "'function'")


def test_bench_config_missing_nested_key(tmp_path, capsys):
    doc = default_config()
    del doc["methods"][1]["schedule"]["s"]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    assert main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 1
    _assert_one_error_line(capsys, "methods[1].schedule", "'s'")


def test_bench_config_not_json(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text("n_samples: 10\n")
    assert main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 1
    _assert_one_error_line(capsys, "not valid JSON")


def test_bench_config_not_an_object(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text("[1, 2]")
    assert main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 1
    _assert_one_error_line(capsys, "JSON object")


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_bench_rejects_a_thread_count_below_one(tmp_path, capsys, threads):
    cfg = _small_bench_config(tmp_path, n=10)
    out = tmp_path / "out"
    assert main(["bench", "--config", str(cfg), "--out-dir", str(out),
                 "--threads", threads]) == 1
    assert capsys.readouterr().err == f"error: threads must be >= 1, got {threads}\n"
    assert not out.exists()


def test_run_armijo_from_overflowing_start(capsys):
    code = main([
        "run", "--function", "oscillatory", "--m", "1", "--L", "100",
        "--x0", "1e160", "--method", "gsgd", "--armijo", "--max-iter", "50",
    ])
    assert code == 1
    _assert_one_error_line(capsys, "inf")


def test_bench_two_dimensional_config(tmp_path, capsys):
    doc = default_config()
    doc.update(function={"name": "diag-quadratic", "m": 1.0, "L": 100.0},
               n_samples=20, x0_low=-1.0, x0_high=1.0, tol=1e-3, max_iter=400)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    code = main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path), "--json"])
    assert code == 0, capsys.readouterr().err
    stats = {s["label"]: s for s in json.loads(capsys.readouterr().out)}
    assert all(s["n"] == 20 for s in stats.values())
    # The stiff coordinate oscillates forever at alpha = 2/L.
    assert stats["alpha=2/L"]["flagged"] == 20
    assert stats["alpha-armijo"]["flagged"] == 0


def _cli_subprocess(*argv):
    """Run the CLI in a fresh interpreter, where numpy's warnings reach stderr."""
    env = {**os.environ, "PYTHONPATH": str(Path(passive_gd.__file__).resolve().parents[1])}
    code = "import sys; from passive_gd.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-c", code, *map(str, argv)],
                          capture_output=True, text=True, env=env, timeout=300)


def test_run_from_overflowing_start_prints_only_the_error_line():
    result = _cli_subprocess("run", "--function", "oscillatory", "--m", "1", "--L", "100",
                             "--x0", "1e160", "--method", "gsgd", "--armijo")
    assert result.returncode == 1
    assert result.stderr == "error: objective is inf at the search's start point\n"


def test_run_with_an_overflowing_final_gradient_writes_nothing_to_stderr():
    result = _cli_subprocess("run", "--function", "oscillatory", "--m", "1", "--L", "100",
                             "--x0", "1e160", "--method", "gd", "--alpha", "1e-6",
                             "--max-iter", "3", "--json")
    assert result.returncode == 0
    assert result.stderr == ""
    # The gradient's square overflows, but the gradient and its norm are finite.
    doc = json.loads(result.stdout)
    x = doc["final_x"][0]
    assert doc["final_grad_norm"] == abs(oscillatory(1.0, 100.0).gradient(np.array([x]))[0])
    assert math.isfinite(doc["final_grad_norm"])


def test_loop_mode_with_a_non_finite_state_prints_only_the_error_line():
    result = _cli_subprocess("run", "--function", "diag-quadratic", "--m", "1", "--L", "100",
                             "--x0", "1e308,-1e308", "--alpha", "0.019", "--mode", "loop",
                             "--steps", "30", "--json")
    assert result.returncode == 1 and result.stdout == ""
    assert result.stderr == "error: loop state became non-finite at step 1\n"


def test_loop_mode_at_two_over_l_from_an_overflowing_start_prints_only_the_error_line():
    result = _cli_subprocess("run", "--function", "oscillatory", "--m", "1", "--L", "100",
                             "--x0", "1e308", "--alpha", "0.02", "--mode", "loop",
                             "--steps", "30")
    assert result.returncode == 1 and result.stdout == ""
    assert result.stderr == "error: loop state became non-finite at step 1\n"


def test_loop_mode_with_an_overflowing_norm_writes_nothing_to_stderr():
    # The solver's tolerance floor squares the state's norm, which
    # overflows; the states stay finite.
    result = _cli_subprocess("run", "--function", "oscillatory", "--m", "1", "--L", "100",
                             "--x0", "1e300", "--alpha", "0.019", "--mode", "loop",
                             "--steps", "30", "--json")
    assert result.returncode == 0 and result.stderr == ""
    assert json.loads(result.stdout)["final_x"] == [7.618428467197503e286]


def test_bench_with_overflowing_samples_writes_nothing_to_stderr(tmp_path):
    doc = default_config()
    doc.update(n_samples=2000, x0_low=-1e160, x0_high=1e160, max_iter=2000)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    result = _cli_subprocess("bench", "--config", cfg, "--out-dir", tmp_path / "out", "--json")
    assert result.returncode == 0
    assert result.stderr == ""
    stats = {s["label"]: s for s in json.loads(result.stdout)}
    assert stats["s-armijo"]["flagged"] == 2000


@pytest.mark.parametrize("x0", ["abc", "", "1,,2"])
def test_run_with_a_non_numeric_start_point_prints_one_error_line(x0):
    result = _cli_subprocess("run", "--function", "oscillatory", "--m", "1", "--L", "100",
                             "--x0", x0)
    assert result.returncode == 1
    assert result.stderr == f"error: --x0 must be comma-separated numbers, got {x0!r}\n"


def test_verify_rejects_a_negative_seed(capsys):
    assert main(["verify", "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"


def test_bench_rejects_a_negative_seed(tmp_path, capsys):
    assert main(["bench", "--seed", "-1", "--out-dir", str(tmp_path / "out")]) == 1
    _assert_one_error_line(capsys, "seed must be >= 0, got -1")
    assert not (tmp_path / "out").exists()


def test_bench_config_with_a_non_integral_seed(tmp_path, capsys):
    doc = default_config()
    doc["seed"] = 1.5
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    assert main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 1
    _assert_one_error_line(capsys, "config.seed must be an integer, got 1.5")


@pytest.mark.parametrize("value, shown", [(True, "True"), ("7", "'7'")])
def test_bench_config_with_a_non_numeric_seed(tmp_path, capsys, value, shown):
    doc = default_config()
    doc["seed"] = value
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    assert main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: config.seed must be a number, got {shown}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", ["--tol", "--paired-tol"])
def test_run_with_a_nan_tolerance_prints_one_error_line(capsys, flag):
    assert main(["run", "--L", "100", "--x0", "1", "--alpha", "0.01", flag, "nan",
                 "--max-iter", "1000", "--json"]) == 1
    assert capsys.readouterr().err == "error: tolerance must be positive, got nan\n"


@pytest.mark.parametrize("argv, message", [
    (["certify", "--m", "1", "--L", "100", "--alpha", "nan"],
     "step size must be positive, got nan"),
    (["certify", "--m", "1", "--L", "100", "--alpha", "inf"],
     "step size must be positive, got inf"),
    (["certify", "--m", "1", "--L", "inf", "--alpha", "0.01"],
     "sector bounds must satisfy 0 < m <= L, got m=1.0, L=inf"),
    (["run", "--L", "100", "--x0", "nan", "--alpha", "0.01", "--mode", "loop", "--json"],
     "x0 must be finite, got [nan]"),
    (["run", "--L", "100", "--x0", "1,inf", "--function", "diag-quadratic",
      "--alpha", "0.01", "--json"],
     "x0 must be finite, got [1.0, inf]"),
    (["run", "--function", "quadratic", "--m", "nan", "--L", "100", "--x0", "1",
      "--alpha", "0.01"],
     "sector bounds must satisfy 0 < m <= L, got m=nan, L=100.0"),
    # 1/L overflows; against it every feedthrough read ISP, so --L 2e-310
    # gave WEAK with an infinite epsilon and --L 1e-310 gave NONE.
    (["certify", "--m", "1e-310", "--L", "1e-310", "--alpha", "1", "--json"],
     "sector bound L must have a finite reciprocal, got L=1e-310"),
    (["certify", "--m", "1e-310", "--L", "2e-310", "--alpha", "1", "--json"],
     "sector bound L must have a finite reciprocal, got L=2e-310"),
    (["certify", "--m", "1e-310", "--L", "1e-310", "--alpha", "1"],
     "sector bound L must have a finite reciprocal, got L=1e-310"),
    # A subnormal step's reciprocal overflows too; these named p_scalar and
    # the feedthrough, neither of them a flag.
    (["certify", "--m", "1", "--L", "100", "--alpha", "1e-320"],
     "step size must have a finite reciprocal, got alpha=1e-320"),
    (["certify", "--m", "1", "--L", "100", "--alpha", "5e-324"],
     "step size must have a finite reciprocal, got alpha=5e-324"),
])
def test_non_finite_parameters_print_one_error_line(capsys, argv, message):
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_bench_config_with_a_nan_step_size(tmp_path, capsys):
    doc = default_config()
    doc["methods"][0]["schedule"]["alpha"] = float("nan")
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    assert main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: alpha must be positive, got nan\n"
    assert not (tmp_path / "out").exists()


# The fuzz values: the text a flag gets, and as config values the JSON tokens
# NaN, Infinity, -Infinity, -0, 1e999, "", "abc", true and "7".
_FUZZ_TEXT = ["nan", "inf", "-inf", "-0", "1e999", "", "abc", "true", "7"]
_FUZZ_JSON = [json.loads(t) for t in
              ["NaN", "Infinity", "-Infinity", "-0", "1e999", '""', '"abc"', "true", '"7"']]

_RUN = ["run", "--m", "1", "--L", "100", "--x0", "5", "--max-iter", "100", "--json"]
_FUZZ_FLAGS = [
    (["certify", "--m", "1", "--L", "100", "--alpha", "0.01", "--json"], flag)
    for flag in ("--m", "--L", "--alpha")
] + [
    (_RUN + ["--alpha", "0.0198", "--tol", "1e-12", "--paired-tol", "1e-10"], flag)
    for flag in ("--m", "--L", "--x0", "--alpha", "--tol", "--paired-tol", "--max-iter")
] + [
    (_RUN + ["--method", "gsgd", "--s", "0.1"], "--s"),
    (_RUN + ["--method", "gsgd", "--armijo", "--cap", "0.1"], "--cap"),
] + [
    (_RUN + ["--alpha", "0.01", "--mode", "loop", "--steps", "50"], flag)
    for flag in ("--x0", "--alpha", "--steps")
] + [
    (["verify", "--suite", "counterexample", "--seed", "0", "--json"], "--seed"),
    (["bench", "--seed", "0", "--json"], "--seed"),
]
_FUZZ_KEYS = [
    ("n_samples",), ("x0_low",), ("x0_high",), ("seed",), ("tol",), ("max_iter",),
    ("function", "m"), ("function", "L"), ("methods", 0, "schedule", "alpha"),
    ("methods", 1, "schedule", "s"), ("methods", 4, "schedule", "trial"),
    ("methods", 4, "schedule", "shrink"), ("methods", 4, "schedule", "decrease"),
    ("methods", 5, "schedule", "cap"),
]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(_FUZZ_FLAGS + _FUZZ_KEYS), st.integers(0, len(_FUZZ_TEXT) - 1))
def test_bad_numeric_inputs_end_in_one_error_line_or_a_clean_result(target, i):
    """Each fuzzed input ends in one ``error:`` line and exit 1, in argparse's
    usage error and exit 1, or in exit 0 or 2 with strict JSON and no stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        doc = default_config()
        doc.update(n_samples=10, max_iter=100)
        if isinstance(target[0], list):
            argv, flag = list(target[0]), target[1]
            argv[argv.index(flag) + 1] = _FUZZ_TEXT[i]
        else:
            *parents, key = target
            node = doc
            for p in parents:
                node = node[p]
            node[key] = _FUZZ_JSON[i]
            argv = ["bench", "--json"]
        if argv[0] == "bench":
            cfg = Path(tmp) / "config.json"
            cfg.write_text(json.dumps(doc))
            argv += ["--config", str(cfg), "--out-dir", str(Path(tmp) / "out")]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in err
    lines = err.splitlines()
    if code == 1:
        one_line = len(lines) == 1 and lines[0].startswith("error: ")
        usage = len(lines) > 1 and lines[0].startswith("usage:") and "error:" in lines[-1]
        assert one_line or usage, (argv, err)
        assert out == ""
    else:
        assert code in (0, 2) and err == "", (argv, code, err)
        json.dumps(json.loads(out), allow_nan=False)
