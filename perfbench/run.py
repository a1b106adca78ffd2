"""Benchmark for slaterkit, end to end (``--trace 0``) and per layer (``--trace 1``).

Usage::

    python3 perfbench/run.py --workload library --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 1

Workloads (``spec.json`` gives the reasons): ``library`` drives the public
API in process, ``cli`` starts one CLI process per operation.  Each runs
in fresh worker processes (``worker.py``)
as a closed loop with one client; this script uses only the standard
library.  It prints a table and, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones below: the workload's
operations run for ``--seconds`` (finishing the round in progress), with
``batch_repeats`` ``--batch`` CLI processes spread between its rounds.
Throughput is verified operations over the time of all attempts, so it
averages the cost of every input drawn; latencies are percentiles of the
verified operations, ``batch_files_per_s`` uses the median batch time, and
``setup_s`` is the median over ``setup_probes`` fresh processes (the timed
one included) of the time from process start to the first timed operation.
Medians keep the figures steady on a machine whose speed drifts.
With ``--trace 1`` a separate worker records spans around every public
function of the package and reports the per-layer metrics of
``tracing.LAYER_METRICS``; no timed run installs a wrapper.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("library", "cli")

#: end-to-end metrics and their units
END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "batch_files_per_s": "files/s",
}
#: a whole run must end within this many seconds
RUN_LIMIT_S = 170.0


def percentile(sorted_values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (NumPy's default)."""
    k = (len(sorted_values) - 1) * p / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (k - lo)


def spawn(mode: str, workload: str, seed: int, seconds: float, tmp: Path,
          deadline: float) -> tuple[dict, float]:
    """Run one worker; returns its JSON result and the monotonic start time."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode, "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--tmp", str(tmp)]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode}/{workload} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), started


def timed_run(workload: str, seed: int, seconds: float, tmp: Path, deadline: float,
              spec: dict) -> tuple[dict, dict]:
    result, started = spawn("timed", workload, seed, seconds, tmp, deadline)
    setups = [result["ready_at"] - started]
    for _ in range(spec["setup_probes"] - 1):
        probe, probe_started = spawn("setup", workload, seed, seconds, tmp, deadline)
        setups.append(probe["ready_at"] - probe_started)
    lat = sorted(result["latencies_s"])
    tail_p = spec["workloads"][workload]["tail_percentile"]
    if not lat:
        raise RuntimeError(f"no operation of {workload} passed its reference check")
    tail = percentile(lat, tail_p)
    values = {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": len(lat) / result["busy_s"],
        "latency_p50_ms": 1e3 * percentile(lat, 50),
        "latency_tail_ms": 1e3 * tail,
        "peak_rss_mb": result["peak_rss_mb"],
        "batch_files_per_s": result["batch_files"] / statistics.median(result["batch_s"]),
    }
    info = {
        "tail": f"p{tail_p} with {sum(1 for x in lat if x > tail)} of {len(lat)} samples beyond",
        "failed_ratio": f"{result['failed'] / result['attempted']:.4g} "
                        f"({result['failed']} of {result['attempted']})",
        "setup samples (s)": " ".join(f"{s:.3f}" for s in setups),
        "batch runs (s)": " ".join(f"{s:.3f}" for s in result["batch_s"]),
        "environment": json.dumps(result["environment"]),
    }
    report = {"correct": result["failed"] == 0, "attempted": result["attempted"],
              "failed": result["failed"],
              "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}}
    return report, info


def traced_run(workload: str, seed: int, tmp: Path, deadline: float) -> tuple[dict, dict]:
    sys.path.insert(0, str(HERE))
    import tracing

    result, _ = spawn("trace", workload, seed, 0.0, tmp, deadline)
    metrics = {k: {"value": result["metrics"][k], "unit": unit}
               for k, unit in tracing.LAYER_METRICS.items()}
    info = {
        "tracing overhead": f"{result['metrics']['trace.overhead_ratio']:+.1%} "
                            f"({result['ops']} operations: {result['traced_s']:.3f} s traced, "
                            f"{result['untraced_s']:.3f} s untraced)",
        "failed_ratio": f"{result['failed'] / result['attempted']:.4g} "
                        f"({result['failed']} of {result['attempted']})",
        "spans": result["spans_file"],
        "environment": json.dumps(result["environment"]),
    }
    report = {"correct": result["failed"] == 0, "attempted": result["attempted"],
              "failed": result["failed"], "metrics": metrics}
    return report, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "slaterkit" / "__init__.py").is_file():
        print(f"perfbench: no slaterkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        deadline = time.monotonic() + RUN_LIMIT_S
        tmp = ROOT / ".bench_tmp" / f"{name}-{os.getpid()}"
        try:
            if args.trace:
                report, info = traced_run(name, args.seed, tmp, deadline)
            else:
                report, info = timed_run(name, args.seed, args.seconds, tmp, deadline, spec)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        print(f"== {name} (seed {args.seed}, trace {args.trace})")
        for key, metric in report["metrics"].items():
            print(f"  {key:48s} {metric['value']:14.6g} {metric['unit']}")
        for key, text in info.items():
            print(f"  {key}: {text}")
        print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    # a terminated run still reaches ``spawn``'s clean-up, which kills the worker's group
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sys.exit(main())
