#!/usr/bin/env python3
"""epashrink benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload study-desk --seed 1 --seconds 20 --trace 0

--trace 0 times whole rounds of the workload for --seconds and reports the
end-to-end metrics; --trace 1 runs a third of the time untraced and the rest
with spans around every public epashrink function, and reports per-layer
totals per round and the tracing overhead (a round's timed operations,
traced against untraced). Timings are reference times: wall times scaled by
the host's speed, sampled next to each operation (hostclock.py). Every
output is checked against independent references; a failed check exits 1. The last line of stdout is
the JSON result; the same numbers go to perfbench/results/BENCH_<label>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import bootstrap  # noqa: E402  (exits unless the checkout's epashrink loads)

import numpy  # noqa: E402
import scipy  # noqa: E402

from hostclock import HostClock  # noqa: E402
from reference import CheckFailure  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 3
BENCHMARK = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}

# the workload-specific names under which these timings were first specified
ALIASES = {
    "study-desk": {"ops_per_s": "study_denoises_per_s"},
    "denoise-large": {"op_a_ms": "denoise_esr_ms", "op_b_ms": "denoise_hard_ms"},
    "cli-cold": {"op_a_ms": "cli_denoise_ms", "op_b_ms": "cli_coeffs_ms"},
    "rule-profile": {"op_a_ms": "rule_stats_dexp_ms", "op_b_ms": "rule_stats_gauss_ms"},
}


def fingerprint() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine()}


def measure_setup(workload: str, seed: int, work: Path) -> tuple:
    """Wall and reference times of fresh processes that import epashrink and
    make the inputs."""
    clock = HostClock()
    walls, refs = [], []
    for i in range(SETUP_PROBES):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--setup-only", str(work / f"probe{i}")]
        code, _, wall, ref = clock.run(cmd, env=bootstrap.child_env(),
                                       stdout=subprocess.DEVNULL)
        if code != 0:
            raise RuntimeError(f"set-up probe exited {code}")
        walls.append(wall)
        refs.append(ref)
    return walls, refs


def run_rounds(w, seconds: float, tracer=None) -> int:
    """Whole rounds until `seconds` have passed; returns how many."""
    rounds = 0
    end = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < end:
        w.round(tracer)
        rounds += 1
    return rounds


def measure(args, work: Path) -> tuple:
    setup_walls, setup_refs = measure_setup(args.workload, args.seed, work)
    w = WORKLOADS[args.workload](args.seed, work / "main")
    w.warmup()
    extra = {"setup_probes_wall_s": setup_walls, "setup_probes_ref_s": setup_refs}
    if not args.trace:
        run_rounds(w, args.seconds)
        metrics = w.finish()
        metrics["setup_s"] = statistics.median(setup_refs)
        metrics["peak_rss_mb"] = getattr(w, "peak_rss_mb", 0.0) or (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        names = [m["name"] for m in BENCHMARK["end_to_end"]]
        extra["aliases"] = {alias: metrics[name] for name, alias in
                            ALIASES[args.workload].items()}
    else:
        run_rounds(w, args.seconds / 3.0)
        plain = w.round_ref_s()
        w.clear_times()
        tracer = Tracer()
        tracer.install()
        try:
            traced_rounds = run_rounds(w, args.seconds * 2.0 / 3.0, tracer)
        finally:
            tracer.uninstall()
        traced = w.round_ref_s()
        metrics = layer_metrics(tracer.spans, traced_rounds)
        w.finish()
        names = [m["name"] for m in BENCHMARK["per_layer"]]
        extra.update({"trace_overhead": traced / plain - 1.0, "untraced_round_s": plain,
                      "traced_round_s": traced, "traced_rounds": traced_rounds,
                      "spans": len(tracer.spans)})
    extra.update({"rounds": w.rounds, "failures": w.failures[:8], **w.notes})
    return w, {name: metrics[name] for name in names}, extra


def report(args, w, metrics: dict, extra: dict) -> None:
    fp = fingerprint()
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# machine: " + ", ".join(f"{k}={v}" for k, v in fp.items()))
    for name, value in metrics.items():
        print(f"  {name:36s} {value:14.6g} {UNITS[name]}")
    for alias, value in extra.get("aliases", {}).items():
        print(f"  ({alias} = {value:.6g})")
    if "wall_figures" in extra:
        print(f"  host speed {extra['host_speed']:.3f} of reference; wall-clock medians: "
              + ", ".join(f"{k} {v:.6g}" for k, v in extra["wall_figures"].items()))
    if "trace_overhead" in extra:
        print(f"  tracing overhead: {100 * extra['trace_overhead']:+.1f}% on a round's timed "
              f"operations ({extra['untraced_round_s']:.4f} s untraced, "
              f"{extra['traced_round_s']:.4f} s traced; sums of median reference times)")
    print(f"  operations: attempted {w.attempted}, failed {w.failed}")
    for line in w.failures[:4]:
        print(f"    failed: {line}")
    result = {"correct": True, "attempted": w.attempted, "failed": w.failed,
              "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}}
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"BENCH_{label}.json").write_text(json.dumps(
        {"label": label, "workload": args.workload, "seed": args.seed,
         "seconds": args.seconds, "trace": args.trace, "machine": fp,
         **result, "details": extra}, indent=2) + "\n")
    print(json.dumps(result))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.setup_only:
        WORKLOADS[args.workload](args.seed, Path(args.setup_only))
        return 0
    if hasattr(os, "sched_setaffinity"):
        # one CPU for this process and its children, so that the host-speed
        # samples are taken on the CPU the timed work runs on
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = HERE / "work" / f"{args.workload}-{os.getpid()}"
    try:
        w, metrics, extra = measure(args, work)
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report(args, w, metrics, extra)
    return 0


if __name__ == "__main__":
    sys.exit(main())
