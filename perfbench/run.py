"""Benchmark of fracstep on its convergence ladders, a long solve and a
spatial ladder.

    python3 perfbench/run.py --workload ladders --seed 0 --seconds 10 --trace 0

Run from the root of a checkout; fracstep is imported from ``src/``. Each
round of a workload runs in a fresh interpreter, so every cache the program
fills starts cold, with ``FRACSTEP_THREADS`` unset and one BLAS thread. A run
repeats rounds, one after the other, until ``--seconds`` have passed and at
least MIN_ROUNDS rounds have run, and reports medians over them. ``--trace 1`` runs one
untraced and one traced round and reports per-layer metrics from the latter,
with the difference of their wall times as ``trace.overhead_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; check details go to
standard error. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_ONLY = 4        # set-up-only processes per run, beside each round's own set-up
MIN_ROUNDS = 2        # a single round's wall time varies by 20% on a shared host
BUDGET_S = 175.0      # a run ends within this, or fails
MODULES = ("cli", "harness", "schemes", "baselines", "cq", "numkit", "meshfem", "reference")

sys.path.insert(0, str(HERE))


def child_env():
    env = dict(os.environ)
    env.pop("FRACSTEP_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(mode, args, trace, deadline):
    cmd = [
        sys.executable, str(HERE / "run.py"), "--child", mode,
        "--workload", args.workload, "--seed", str(args.seed), "--trace", str(trace),
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def import_fracstep():
    """fracstep's modules from this checkout's src/, by module name."""
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("fracstep")
    if Path(pkg.__file__).resolve().parent != SRC / "fracstep":
        raise ImportError(f"fracstep imported from {pkg.__file__}, not from {SRC}")
    # import_module, because the package re-exports the function mlf under
    # the name of its submodule fracstep.mlf
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"fracstep.{m}") for m in MODULES}
    )


def child(args):
    """One set-up, or one round: set-up, the job list timed, then the checks.

    numpy is imported before the set-up clock starts, so set-up is fracstep's
    own import and assembly.
    """
    import numpy  # noqa: F401
    import workloads

    t0 = time.perf_counter()
    fs = import_fracstep()
    rec = None
    if args.trace:
        import tracer

        rec = tracer.Recorder()
        tracer.install(rec, vars(fs))
        rec.enabled = True
    for M in workloads.MESHES[args.workload]:
        fs.meshfem.fem_system(M)
    setup_s = time.perf_counter() - t0
    if args.child == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    jobs = workloads.jobs(args.workload, args.seed)
    for job in jobs:
        job.prepare(out_dir)
    ran = []
    t1 = time.perf_counter()
    for job in jobs:
        try:
            job.run(fs, out_dir)
            ran.append(job)
        except Exception:
            print(f"[error] {job.name}:\n{traceback.format_exc()}", file=sys.stderr)
    wall_s = time.perf_counter() - t1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if rec is not None:
        rec.enabled = False

    # A job that raised counts in "failed" and is not judged, so "correct"
    # speaks of the jobs that ran; a clean run also has failed == 0.
    correct = True
    for job in ran:
        try:
            print(f"[pass] {job.name}: {job.judge(fs, out_dir)}", file=sys.stderr)
        except Exception as exc:
            correct = False
            print(f"[FAIL] {job.name}: {exc!r}", file=sys.stderr)
    result = {
        "correct": correct, "attempted": len(jobs), "failed": len(jobs) - len(ran),
        "wall_s": wall_s, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
    }
    if rec is not None:
        result["layers"] = rec.metrics()
        rec.save(OUT / f"trace-{args.workload}.npz")
    print(json.dumps(result))
    return 0


def parent(args):
    deadline = time.monotonic() + BUDGET_S
    if args.trace:
        rounds = [run_child("round", args, 0, deadline), run_child("round", args, 1, deadline)]
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in rounds[1]["layers"].items()}
        metrics["trace.overhead_s"] = {
            "value": rounds[1]["wall_s"] - rounds[0]["wall_s"], "unit": "s"
        }
    else:
        setups = [run_child("setup", args, 0, deadline)["setup_s"] for _ in range(SETUP_ONLY)]
        rounds = []
        start = time.monotonic()
        while len(rounds) < MIN_ROUNDS or time.monotonic() - start < args.seconds:
            rounds.append(run_child("round", args, 0, deadline))
        setups += [r["setup_s"] for r in rounds]
        metrics = {
            "wall_s": {"value": statistics.median(r["wall_s"] for r in rounds), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {
                "value": statistics.median(r["peak_rss_mb"] for r in rounds), "unit": "MiB"
            },
        }
    for k, r in enumerate(rounds):
        print(f"{args.workload} round {k + 1}: wall_s {r['wall_s']} s, "
              f"setup_s {r['setup_s']} s")
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']} {m['unit']}")
    result = {
        "correct": all(r["correct"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    print(f"{args.workload}: {len(rounds)} round(s), "
          f"{result['attempted']} operations attempted, {result['failed']} failed")
    print(json.dumps(result))
    return 0


def main(argv=None):
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", choices=("setup", "round"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "fracstep" / "__init__.py").is_file():
        print(f"no fracstep sources under {SRC}", file=sys.stderr)
        return 2
    return child(args) if args.child else parent(args)


if __name__ == "__main__":
    raise SystemExit(main())
