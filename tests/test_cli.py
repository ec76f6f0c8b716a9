import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import passive_gd
from passive_gd.cli import main
from passive_gd.bench import default_config


def test_certify_exit_codes(capsys):
    assert main(["certify", "--m", "1", "--L", "100", "--alpha", "0.01"]) == 0
    assert "STRONG" in capsys.readouterr().out
    assert main(["certify", "--m", "1", "--L", "100", "--alpha", "0.02"]) == 0
    assert "WEAK" in capsys.readouterr().out
    assert main(["certify", "--m", "1", "--L", "100", "--alpha", "0.05"]) == 2
    assert "NONE" in capsys.readouterr().out
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
    assert len(rows) == 21


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
    assert len(rows) == 6


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


def test_verify_counterexample_suite(capsys):
    assert main(["verify", "--suite", "counterexample"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out


def test_verify_loop_suite_seeded(capsys):
    assert main(["verify", "--suite", "loop", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] suite loop" in out
    assert "loop vs direct recursion" in out


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


def test_bench_byte_identical_reruns(tmp_path, monkeypatch):
    cfg = _small_bench_config(tmp_path)
    dirs = [tmp_path / "a", tmp_path / "b", tmp_path / "c"]
    for i, out_dir in enumerate(dirs):
        if i == 2:
            monkeypatch.setenv("PASSIVE_GD_THREADS", "4")
        assert main(["bench", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
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


def test_bench_rejects_non_integer_thread_count(tmp_path, capsys, monkeypatch):
    cfg = _small_bench_config(tmp_path, n=10)
    monkeypatch.setenv("PASSIVE_GD_THREADS", "abc")
    assert main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 1
    _assert_one_error_line(capsys, "PASSIVE_GD_THREADS", "'abc'")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
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
    assert json.loads(result.stdout)["final_grad_norm"] == float("inf")


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
