"""passive-gd benchmark: one workload per run, closed loop, checked outputs.

    python3 benchmarks/run.py --workload mc-paper --seed 1 --seconds 30 --trace 0

``--trace 0`` times the workload's library calls for ``--seconds`` seconds
and prints the end-to-end metrics. ``--trace 1`` makes one traced pass of
every workload instead and prints the per-layer metrics. The last line of
standard output is the result object; the line before it is the run's
provenance record. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("mc-paper", "mc-custom", "verify-all")
SETUP_PROBES = 7   # fresh interpreters per run; setup_s is their median
MIN_ROUNDS = 3     # timed rounds (one call per thread count) per run
REF_LOOP = 300_000  # reference kernel: pure-Python loop length
REF_STEPS = 4_000   # reference kernel: scalar gradient steps on numpy arrays


class NothingMeasured(Exception):
    pass


def git_commit() -> str:
    """The checked-out commit, read from .git without starting git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def probe_setup(workload: str, seed: int, work_dir: Path) -> dict:
    """Median import and input-building times over fresh interpreters.
    One extra probe runs first and is discarded, so bytecode caches are
    written before timing."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    argv = [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload,
            "--seed", str(seed), "--work-dir", str(work_dir)]
    runs = []
    for _ in range(SETUP_PROBES + 1):
        out = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                             timeout=120, check=True)
        runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
    runs = runs[1:]
    return {
        "setup_s": statistics.median(r["import_s"] + r["inputs_s"] for r in runs),
        "import_s": statistics.median(r["import_s"] for r in runs),
        "inputs_s": statistics.median(r["inputs_s"] for r in runs),
    }


def reference_s() -> float:
    """Wall time of a fixed reference kernel: a pure-Python float loop and a
    scalar gradient iteration on one-element numpy arrays. It is the
    benchmark's own code and never changes with the library, so its time
    follows only how fast the host runs at that moment. Of the candidate
    kernels tried (README.md), this pair followed the call times of all
    three workloads most closely."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(REF_LOOP):
        s += (i * 0.5) % 7.0
    x = np.array([0.3])
    for _ in range(REF_STEPS):
        g = 100.0 * x + np.sin(x)
        x = x - 0.01 * g
        float(np.linalg.norm(g))
    return time.perf_counter() - t0


def timed_run(workload, ledger, seconds: float) -> tuple[dict, dict]:
    """Closed loop of rounds, each one call per thread count of the
    workload, until ``seconds`` have passed (at least MIN_ROUNDS rounds).
    The reference kernel runs between calls. Each call's time is divided by
    the mean of the reference times just before and just after it, which
    cancels the host's speed drift. Only the library call is inside the
    timed region; its output is checked after."""
    workload.warm_up(ledger)
    reference_s()
    times = {t: [] for t in workload.threads}
    rel = {t: [] for t in workload.threads}
    refs = [reference_s()]
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        for threads in workload.threads:
            t0 = time.perf_counter()
            ok = workload.call(ledger, threads)
            elapsed = time.perf_counter() - t0
            refs.append(reference_s())
            if ok:
                times[threads].append(elapsed)
                rel[threads].append(2 * elapsed / (refs[-2] + refs[-1]))
                workload.check(ledger, threads)
        rounds += 1
    if not all(times.values()):
        raise NothingMeasured("no timed library call succeeded")
    call_s = {t: statistics.median(v) for t, v in times.items()}
    metrics = {"call_rel": (statistics.median(rel[1]), "ratio")}
    derived = {
        "reference_s": {"value": statistics.median(refs), "unit": "s", "count": len(refs)},
        "call_s": {f"threads{t}": {"value": v, "unit": "s", "count": len(times[t])}
                   for t, v in call_s.items()},
        "call_rel": {f"threads{t}": {"value": statistics.median(v), "unit": "ratio",
                                     "count": len(v)} for t, v in rel.items()},
    }
    if workload.name == "verify-all":
        derived["verify_s"] = {"value": call_s[1], "unit": "s", "count": len(times[1])}
    else:
        derived.update({
            f"sample_runs_per_s{'' if t == 1 else f'.threads{t}'}": {
                "value": workload.units / call_s[t], "unit": "1/s",
                "count": len(times[t]), "sample_runs_per_call": workload.units}
            for t in times
        })
    derived["call_times_s"] = {f"threads{t}": v for t, v in times.items()}
    derived["reference_times_s"] = refs
    return metrics, derived


def traced_run(seed: int, work_dir: Path, ledger) -> tuple[dict, dict]:
    """One traced pass of every workload, each after an untraced call of
    the same inputs that gives the tracing overhead. Returns the metrics
    and each workload's config."""
    import workloads as wl
    from tracing import Tracer

    wl.check_counting_oracle(ledger)
    metrics, configs = {}, {}
    for name in WORKLOAD_NAMES:
        workload = wl.WORKLOADS[name](seed, work_dir / name)
        workload.warm_up(ledger)
        metrics.update(workload.traced(ledger, Tracer()))
        configs[name] = workload.config
    return metrics, configs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "passive_gd" / "__init__.py").is_file():
        print(f"error: no passive_gd sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as wl

    work_dir = HERE / ".work" / str(os.getpid())
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        setup = probe_setup(args.workload, args.seed, work_dir)
        ledger = wl.Ledger()
        workload = wl.WORKLOADS[args.workload](args.seed, work_dir)
        if args.trace:
            metrics, configs = traced_run(args.seed, work_dir, ledger)
            metrics["setup.import_s"] = (setup["import_s"], "s")
            metrics["setup.inputs_s"] = (setup["inputs_s"], "s")
            derived = {}
        else:
            metrics, derived = timed_run(workload, ledger, args.seconds)
            configs = {workload.name: workload.config}
            metrics["setup_s"] = (setup["setup_s"], "s")
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    except NothingMeasured as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass

    record = wl.provenance(workload, configs, [1, 2] if args.trace else workload.threads)
    record.update(git_commit=git_commit(), trace=bool(args.trace),
                  seconds=args.seconds, setup=setup, metrics=derived,
                  mismatches=ledger.mismatches)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": not ledger.mismatches,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
