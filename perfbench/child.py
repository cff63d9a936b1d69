"""One fresh process of the benchmark: set up one workload, and in mode
``round`` run and check it, in mode ``trace`` run it traced and probe layers,
in mode ``setup`` only set up.  Prints one JSON object as its last line.

graph._hill_side is an lru_cache, so a second butterfly in one process skips
the Hill layer; every measured round therefore gets a process of its own.
Set-up is timed from PERFBENCH_T0, the parent's time.monotonic() just
before it started this process (CLOCK_MONOTONIC is system-wide on Linux).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

T_START = float(os.environ.get("PERFBENCH_T0", time.monotonic()))
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

KERNEL_BATCHES = (1, 64, 2049)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def kernel_probe(V) -> dict[str, float]:
    """Median of 3 timed discriminant_batch calls (4096 RK4 steps) at
    batch sizes 1, 64 and 2049, with the workload's potential."""
    import numpy as np
    from hexspec import hill

    out = {}
    for b in KERNEL_BATCHES:
        lams = np.linspace(1.0, 250.0, b) if b > 1 else np.array([10.0])
        times = []
        for _ in range(3):
            t = time.perf_counter()
            hill.discriminant_batch(V, lams)
            times.append(time.perf_counter() - t)
        out[f"hill.kernel_b{b}.ms"] = 1e3 * statistics.median(times)
    return out


def warm_butterfly(wl, inp) -> dict[str, float]:
    """Warm reruns (Hill side cached) with the flux pool at 1 and 2 threads."""
    from hexspec import graph

    out = {}
    for name, threads in (("t1", 1), ("t2", min(2, os.cpu_count() or 1))):
        t = time.perf_counter()
        graph.butterfly(inp["V"], wl.q_max, wl.n_bands, threads=threads)
        out[f"graph.butterfly.warm_{name}_s"] = time.perf_counter() - t
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "round", "trace"), required=True)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args()

    import hexspec
    if not Path(hexspec.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"hexspec imported from {hexspec.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    work_dir = Path(args.out_dir) / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        inp = wl.inputs(args.seed, work_dir)
        setup_s = time.monotonic() - T_START
        result = {"setup_s": setup_s}
        if args.mode == "setup":
            print(json.dumps(result))
            return 0

        tracer = None
        if args.mode == "trace":
            import tracing
            tracer = tracing.install()
        t = time.perf_counter()
        out = wl.solve(inp)
        solve_s = time.perf_counter() - t
        rss = peak_rss_mb()
        if tracer is not None:
            tracer.uninstall()
        report = wl.check(inp, out)
        result.update(solve_s=solve_s, peak_rss_mb=rss, attempted=report.attempted,
                      failed=report.failed, correct=report.correct,
                      n_errors=report.n_errors, errors=report.errors)
        if tracer is not None:
            from hexspec.potentials import PotentialSpec

            layers = tracing.layer_metrics(tracer)
            layers["cli.output.bytes"] = float(wl.output_bytes(inp))
            layers.update(kernel_probe(inp.get("V", PotentialSpec.zero())))
            warm = {"graph.butterfly.warm_t1_s": 0.0, "graph.butterfly.warm_t2_s": 0.0}
            if wl.name == "butterfly":
                warm = warm_butterfly(wl, inp)
            layers.update(warm)
            result["layers"] = layers
            spans = Path(args.out_dir) / f"spans-{args.workload}-seed{args.seed}.json"
            spans.write_text(json.dumps(tracer.dump()))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
