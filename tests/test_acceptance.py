"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (visible under ``pytest -s``). The
checks pin the certification boundary, the certificate grid, the index
formulas, sector membership, loop-transformation equivalence, the
empirical passivity margin of the transformed nonlinearity, the
oscillating-coordinate counterexample, the Monte Carlo statistics, the
gain-scheduling change of variables, and byte-level determinism of the
CLI outputs.
"""

import json
import time

import numpy as np
import pytest

from passive_gd.bench import MonteCarloSpec, default_methods, run_monte_carlo
from passive_gd.cli import main
from passive_gd.functions import (
    central_difference_gradient,
    diag_quadratic,
    oscillatory,
    quadratic,
)
from passive_gd.interconnect import (
    delta_bar_operator,
    loop_equivalence_report,
)
from passive_gd.lti import gd_passivity_certificate
from passive_gd.optim import (
    FixedAlpha,
    FixedS,
    GradNorm,
    MaxIter,
    PairedGrad,
    Termination,
    gd_run,
    gsgd_run,
)
from passive_gd.passivity import (
    Classification,
    Verdict,
    certify_step_size,
    empirical_passivity_margin,
    nabla_indices,
    transformed_indices,
)
from passive_gd.signals import random_unit_energy


def _report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")
    assert ok, f"{criterion}{suffix}"


def test_criterion_01_certification_boundary():
    m, L = 1.0, 100.0
    ok = True
    for alpha in (0.001, 0.005, 0.01, 0.0199):
        ok &= certify_step_size(m, L, alpha).verdict is Verdict.STRONG
    ok &= certify_step_size(m, L, 0.02).verdict is Verdict.WEAK
    for alpha in (0.0201, 0.05):
        ok &= certify_step_size(m, L, alpha).verdict is Verdict.NONE
    for mm in (1.0, 5.0, 100.0):
        ok &= certify_step_size(mm, mm, 2.0 / mm).verdict is Verdict.NONE
    _report("1 certification boundary", ok)


def test_criterion_02_certificate_grid():
    t0 = time.time()
    mismatches = 0
    total = 0
    for alpha in np.geomspace(1e-3, 1.0, 50):
        for ratio in np.linspace(0.1, 2.0, 50):
            d = ratio * alpha
            if abs(d - alpha / 2.0) <= 1e-10 * alpha:
                continue
            total += 1
            if gd_passivity_certificate(alpha, d).feasible != (d >= alpha / 2.0):
                mismatches += 1
    elapsed = time.time() - t0
    _report(
        "2 certificate grid",
        mismatches == 0 and elapsed < 1.0,
        f"{total} points, {mismatches} mismatches, {elapsed:.2f}s",
    )


def test_criterion_03_index_formulas():
    base = nabla_indices(1.0, 100.0)
    ok = abs(base.delta - 100.0 / 101.0) <= 1e-15 * (100.0 / 101.0)
    ok &= abs(base.epsilon - 1.0 / 101.0) <= 1e-15 * (1.0 / 101.0)
    bar = transformed_indices(1.0, 100.0, 0.005)
    ok &= abs(bar.delta - 1.0) <= 1e-12
    ok &= abs(bar.epsilon - 0.004975) <= 1e-12 * 0.004975
    isp = transformed_indices(1.0, 100.0, 0.01)
    ok &= abs(isp.epsilon) <= 1e-12
    ok &= isp.classification is Classification.ISP
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(100):
        m = float(rng.uniform(0.5, 5.0))
        L = m * float(rng.uniform(1.5, 200.0))
        idx = nabla_indices(m, L)
        for root in (1.0 / L, 1.0 / m):
            worst = max(worst, abs(idx.epsilon - root + idx.delta * root * root))
    ok &= worst <= 1e-12
    _report("3 index formulas", ok, f"worst root residual {worst:.2e}")


def test_criterion_04_sector_membership():
    t0 = time.time()
    f = oscillatory(1.0, 100.0)
    rng = np.random.default_rng(404)
    x = rng.uniform(-1e5, 1e5, 100_000)
    dx = x - f.minimizer[0]
    g = f.elementwise_gradient(x)
    s = f.m + f.L
    residuals = dx * g - (f.m * f.L / s) * dx * dx - g * g / s
    scale = 1.0 + dx * dx + g * g
    worst_norm = float(np.min(residuals / scale))
    ok = worst_norm >= -1e-9
    worst_fd = 0.0
    for _ in range(1000):
        xi = np.array([rng.uniform(-100.0, 100.0)])
        ga = f.gradient(xi)
        fd = central_difference_gradient(f, xi)
        worst_fd = max(
            worst_fd, float(np.linalg.norm(ga - fd) / (1.0 + np.linalg.norm(ga)))
        )
    ok &= worst_fd <= 1e-6
    elapsed = time.time() - t0
    ok &= elapsed < 5.0
    _report(
        "4 sector membership",
        ok,
        f"min residual/scale {worst_norm:.2e}, fd error {worst_fd:.2e}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_05_loop_equivalence():
    # The transformed loop against the untransformed one under seeded
    # exogenous inputs, and the implicit relation of the transformed loop.
    rng = np.random.default_rng(505)
    builtins = [oscillatory(1.0, 100.0), quadratic(100.0), diag_quadratic(1.0, 100.0)]
    devs, residuals = [], []
    for i in range(20):
        f = builtins[i % 3]
        alpha = float(rng.uniform(0.05, 0.95)) * 2.0 / f.L
        x0 = rng.uniform(-100.0, 100.0, f.dim)
        r1, r2 = (rng.standard_normal((100, f.dim)) for _ in range(2))
        dev, residual = loop_equivalence_report(f, alpha, x0, 100, r1, r2)
        devs.append(dev / (1.0 + float(np.linalg.norm(x0))))
        residuals.append(residual)
    # np.max, unlike max(), keeps a NaN, which fails the check.
    worst, worst_residual = np.max(devs), np.max(residuals)
    _report(
        "5 loop equivalence",
        worst <= 1e-12 and worst_residual <= 1e-12,
        f"worst scaled deviation {worst:.2e}, worst residual {worst_residual:.2e}",
    )


def test_criterion_06_transformed_nonlinearity_margin():
    m, L, d = 1.0, 100.0, 0.005
    f = oscillatory(m, L)
    indices = transformed_indices(m, L, d)
    inputs = random_unit_energy(1, 50, 100, seed=606)
    margin = empirical_passivity_margin(delta_bar_operator(f, d), indices, inputs, 50)
    scale = 1.0 + L
    _report(
        "6 transformed nonlinearity margin",
        margin >= -1e-9 * scale,
        f"margin {margin:.3e}",
    )


def _counterexample_traces():
    f = diag_quadratic(1.0, 100.0)
    x0 = np.array([1.0, 1.0])
    full = gd_run(f, x0, FixedAlpha(0.02), [MaxIter(2000)])
    paired = gd_run(
        f, x0, FixedAlpha(0.02), [GradNorm(1e-12), PairedGrad(1e-10), MaxIter(2000)]
    )
    return f, full, paired


def test_criterion_07_counterexample_oscillation_and_stopping():
    f, full, paired = _counterexample_traces()
    x2 = full.iterates[:201, 1]
    ok = bool(np.max(np.abs(np.abs(x2) - 1.0)) <= 1e-12)
    grad_norms = np.linalg.norm(full.gradients, axis=1)
    ok &= bool(np.min(grad_norms) >= 1e-12)
    ok &= paired.termination is Termination.PAIRED_GRAD_MET
    ok &= paired.iterations <= 2000
    _report(
        "7 counterexample oscillation/stopping",
        ok,
        f"paired trigger at k={paired.iterations}",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the stated bound is arithmetically unattainable: the combined "
        "signal decays like 0.99*0.98^k, which is 1.74e-2 at k=200 and "
        "first drops below 1e-6 at k=684"
    ),
)
def test_criterion_07_combined_signal_bound_at_k200():
    f, full, _ = _counterexample_traces()
    combined = full.iterates - 0.01 * full.gradients
    dev = np.linalg.norm(combined[200] - f.minimizer)
    _report("7 combined signal at k=200", dev <= 1e-6, f"deviation {dev:.3e}")


def test_criterion_07_combined_signal_converges():
    f, full, _ = _counterexample_traces()
    combined = full.iterates - 0.01 * full.gradients
    dev = np.linalg.norm(combined - f.minimizer, axis=1)
    first = int(np.argmax(dev <= 1e-6))
    ok = dev[-1] <= 1e-6 and bool(np.any(dev <= 1e-6))
    _report(
        "7 combined signal converges",
        ok,
        f"first k with dev<=1e-6 is {first}, final dev {dev[-1]:.2e}",
    )


def test_criterion_08_monte_carlo_statistics():
    t0 = time.time()
    f = oscillatory(1.0, 100.0)
    spec = MonteCarloSpec(
        n_samples=100_000,
        x0_low=-1e5,
        x0_high=1e5,
        seed=808,
        tol=1e-12,
        methods=default_methods(1.0, 100.0),
        max_iter=10**6,
    )
    stats = {s.label: s for s in run_monte_carlo(f, spec)}
    elapsed = time.time() - t0
    targets = {
        "alpha=2/(m+L)": (28.36, 27, 23),
        "s=sqrt(2/(m+L))": (25.68, 25, 20),
        "alpha=2/L": (32.12, 31, 27),
        "s=sqrt(2/L)": (29.50, 28, 23),
    }
    ok = elapsed < 60.0
    details = []
    for label, (mean_t, med_t, mode_t) in targets.items():
        s = stats[label]
        ok &= abs(s.mean - mean_t) <= 0.5
        ok &= abs(s.median - med_t) <= 1
        ok &= abs(s.mode - mode_t) <= 1
        ok &= s.flagged == 0
        details.append(f"{label}: {s.mean:.2f}/{s.median}/{s.mode}")
    # Backtracking means depend on line-search parameters, so assert the
    # improvement over the fixed-step runs instead of exact values.
    ok &= stats["alpha-armijo"].mean < stats["alpha=2/L"].mean
    ok &= stats["alpha-armijo"].mean < stats["alpha=2/(m+L)"].mean
    ok &= stats["s-armijo"].mean < stats["s=sqrt(2/L)"].mean
    details.append(
        f"armijo: {stats['alpha-armijo'].mean:.2f}/{stats['s-armijo'].mean:.2f}"
    )
    _report(
        "8 Monte Carlo statistics", ok, "; ".join(details) + f"; {elapsed:.1f}s"
    )


def test_criterion_09_gain_scheduling_equivalence():
    rng = np.random.default_rng(909)
    builtins = [oscillatory(1.0, 100.0), quadratic(100.0), diag_quadratic(1.0, 100.0)]
    worst = 0.0
    for i in range(20):
        f = builtins[i % 3]
        s = float(rng.uniform(0.1, 1.0)) * float(np.sqrt(2.0 / f.L))
        x0 = rng.uniform(-100.0, 100.0, f.dim)
        gs = gsgd_run(f, x0, FixedS(s), [MaxIter(100)])
        gd = gd_run(f, s * x0, FixedAlpha(s * s), [MaxIter(100)])
        dev = float(np.max(np.abs(s * gs.iterates - gd.iterates)))
        scale = 1.0 + float(np.max(np.abs(gd.iterates)))
        worst = max(worst, dev / scale)
    _report(
        "9 gain-scheduling equivalence", worst <= 1e-9, f"worst deviation {worst:.2e}"
    )


def test_criterion_10_cli_determinism(tmp_path, capsys):
    from passive_gd.bench import default_config

    doc = default_config()
    doc["n_samples"] = 20_000
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))

    outputs = []
    for name, threads in (("r1", "1"), ("r2", "1"), ("r3", "3")):
        out_dir = tmp_path / name
        code = main([
            "bench", "--config", str(cfg), "--out-dir", str(out_dir),
            "--threads", threads, "--json",
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        files = {
            p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
        }
        outputs.append((stdout, files))
    ok = outputs[0] == outputs[1] == outputs[2]

    for args in (
        ["certify", "--m", "1", "--L", "100", "--alpha", "0.01", "--json"],
        ["verify", "--suite", "counterexample", "--seed", "3", "--json"],
    ):
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        ok &= first == second
    _report("10 CLI determinism", ok)
