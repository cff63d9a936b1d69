#!/usr/bin/env python3
"""hexspec benchmark: one workload per invocation, each round in a fresh
process, outputs checked against independent references.

    python3 perfbench/run.py --workload butterfly --seed 1 --seconds 10 --trace 0

With --trace 0 the last stdout line is a JSON object with the end-to-end
metrics (setup_s, solve_s, peak_rss_mb); with --trace 1 it carries the
per-layer metrics of one traced round, plus trace.overhead_s, the traced
minus an untraced solve_s.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("butterfly", "bands", "spectra", "lyapunov")
SETUP_PROBES = 3          # set-up-only processes per timed run, besides the rounds
DEADLINE_S = 170.0        # a run ends well inside 180 s
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_threads": {v: "1" for v in BLAS_VARS},
    }


def child_env() -> dict:
    env = dict(os.environ)
    # one BLAS thread: the matrices are small, the butterfly's own pool stays
    # within nproc, and LAPACK rounding (which decides the Dirac-edge fault
    # count) is the same in every run
    env.update({v: "1" for v in BLAS_VARS})
    env.pop("HEXSPEC_THREADS", None)
    return env


def run_child(args, mode: str, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--out-dir", str(OUT_DIR)]
    env = child_env()
    env["PERFBENCH_T0"] = repr(time.monotonic())
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("no time left for another process")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"{mode} process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[1]
    if last in ("ms", "bytes"):
        return last
    return "s" if last == "s" or last.endswith("_s") else "count"


def timed_run(args, deadline: float) -> tuple[list[dict], list[float]]:
    setups = [run_child(args, "setup", deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    rounds = []
    t0 = time.monotonic()
    while True:
        r0 = time.monotonic()
        rounds.append(run_child(args, "round", deadline))
        now = time.monotonic()
        # whole rounds only; stop once the measuring time is used, or when
        # another round would not fit before the deadline
        if now - t0 >= args.seconds or now + 1.5 * (now - r0) > deadline:
            break
    return rounds, setups + [r["setup_s"] for r in rounds]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "hexspec" / "__init__.py").is_file():
        print(f"no hexspec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    env = environment()
    print(json.dumps({"environment": env}))

    try:
        if args.trace:
            rounds = [run_child(args, "round", deadline), run_child(args, "trace", deadline)]
            layers = dict(rounds[1]["layers"])
            layers["trace.overhead_s"] = rounds[1]["solve_s"] - rounds[0]["solve_s"]
            metrics = {k: metric(v, layer_unit(k)) for k, v in sorted(layers.items())}
        else:
            rounds, setups = timed_run(args, deadline)
            metrics = {
                "setup_s": metric(statistics.median(setups), "s"),
                "solve_s": metric(statistics.median(r["solve_s"] for r in rounds), "s"),
                "peak_rss_mb": metric(statistics.median(r["peak_rss_mb"] for r in rounds),
                                      "MB"),
            }
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    for i, r in enumerate(rounds):
        print(json.dumps({"round": i, **{k: v for k, v in r.items() if k != "layers"}}))
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "rounds": rounds}
    (OUT_DIR / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({
        "correct": all(r["correct"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
