"""One benchmark process: builds a workload from its seed, then times or traces it.

Modes (``--mode``):

``setup``
    import, generate inputs, warm up; report when that finished.
``timed``
    ``setup``, then the closed loop for ``--seconds`` with the ``--batch``
    processes between its rounds, with no wrappers installed.
``trace``
    ``setup`` with wrappers installed, one traced pass over the first
    round of operations, the wrappers removed, the same pass untraced, a
    traced ``--batch`` phase and a fresh ``-X importtime`` import.

The last stdout line is one JSON object; ``run.py`` turns it into metrics.
``ready_at`` is ``time.monotonic()`` at the end of set-up, which on Linux
shares its clock with the parent that started this process.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import itertools
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

DRIVER = [sys.executable, str(HERE / "cli_driver.py")]
SPANS_OUT = ROOT / ".bench_out"


def run_ops(rounds, seconds=None, tracer=None, between_rounds=None):
    """Closed loop with one client: the next operation starts when the last ends.

    With ``seconds`` the rounds cycle until the operations have taken that
    long, always finishing the round in progress; without, each round runs
    once.  ``between_rounds()`` runs after each round, outside the timed
    operations.  Returns verified latencies (s), failures and the time of
    all attempts, verified or not.
    """
    latencies, failed, busy_s, i = [], 0, 0.0, 0
    for r in itertools.count():
        if (r == len(rounds)) if seconds is None else (r > 0 and busy_s >= seconds):
            break
        if r > 0 and between_rounds is not None:
            between_rounds()
        for op in rounds[r % len(rounds)]:
            if tracer is not None:
                tracer.op = i
            t0 = time.perf_counter()
            try:
                ok = bool(op())
            except Exception:  # a raising operation is a failed one; the loop goes on
                ok = False
                if failed < 3:
                    traceback.print_exc()
            elapsed = time.perf_counter() - t0
            busy_s += elapsed
            if ok:
                latencies.append(elapsed)
            else:
                failed += 1
                if failed <= 3:
                    print(f"perfbench: operation {i} failed its reference check",
                          file=sys.stderr)
            i += 1
    return latencies, failed, busy_s


def write_batch(wl) -> Path:
    directory = wl.tmp / "batch"
    directory.mkdir(parents=True, exist_ok=True)
    for name, doc, _ in wl.batch_files:
        workloads.skio.dump(doc, str(directory / name))
    return directory


def run_batch(wl, directory: Path, prefix, repeats: int):
    """``slaterkit <cmd> DIR --batch`` in fresh processes; wall times include start-up."""
    times, failed = [], 0
    for _ in range(repeats):
        t0 = time.perf_counter()
        code, report = workloads.run_cli(prefix, wl.batch_command + [str(directory), "--batch"])
        times.append(time.perf_counter() - t0)
        ok = code == 0 and all(name in report and "error" not in report[name] and check(report[name])
                               for name, _, check in wl.batch_files)
        failed += not ok
    return times, failed


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                      "numpy.libs", "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
            "blas_threads": threads}


def import_times() -> dict:
    """``import slaterkit.cli`` in a fresh interpreter, with ``-X importtime``."""
    code = ("import time; t = time.perf_counter(); import slaterkit.cli; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], cwd=ROOT,
                          env=workloads.cli_env(), capture_output=True, text=True,
                          timeout=120, check=True)
    scipy_us = 0
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[2].strip() == "scipy.optimize":
            scipy_us = max(scipy_us, int(parts[1]))
    return {"cli.import_s": float(proc.stdout.strip().splitlines()[-1]),
            "cli.import.scipy_optimize_s": scipy_us / 1e6}


def timed(wl, seconds: float, repeats: int) -> dict:
    """The closed loop, with the ``--batch`` processes spread between its rounds.

    Spreading the batch processes over the whole run, instead of running
    them back to back after it, lets their median ride out a slow spell of
    the machine as the loop's figures do.
    """
    directory = write_batch(wl)
    wl.warm_up()
    batch_s, batch_failed, due = [], 0, 0.0

    def batch_if_due():
        nonlocal batch_failed, due
        if len(batch_s) < repeats and time.perf_counter() >= due:
            times, failed_batches = run_batch(wl, directory, workloads.PLAIN_CLI, 1)
            batch_s.extend(times)
            batch_failed += failed_batches
            due = time.perf_counter() + seconds / repeats

    ready_at = time.monotonic()
    latencies, failed, busy_s = run_ops(wl.timed_rounds(), seconds, between_rounds=batch_if_due)
    times, failed_batches = run_batch(wl, directory, workloads.PLAIN_CLI, repeats - len(batch_s))
    batch_s.extend(times)
    batch_failed += failed_batches
    # for cli, the largest child: an operation's process or a batch process
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    return {"ready_at": ready_at, "latencies_s": latencies, "failed": failed + batch_failed,
            "attempted": len(latencies) + failed + repeats, "busy_s": busy_s,
            "peak_rss_mb": peak_rss_mb, "batch_files": len(wl.batch_files),
            "batch_s": batch_s, "environment": environment()}


def traced(wl_cls, seed: int, tmp: Path) -> dict:
    spans_dir = tmp / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    driver = DRIVER + ["--spans", str(spans_dir), "--"]
    tracer = tracing.Tracer()
    in_process = wl_cls.name != "cli"
    patches = tracing.install(tracer) if in_process else []
    try:
        wl = wl_cls(seed, tmp)
        directory = write_batch(wl)
        wl.warm_up()
        ops = wl.trace_ops()
        if not in_process:
            wl.prefix = driver
        _, failed_traced, traced_s = run_ops([ops], tracer=tracer)
    finally:
        tracing.uninstall(patches)
    leftovers = tracing.leftover_wrappers()
    if not in_process:
        wl.prefix = workloads.PLAIN_CLI
    _, failed_plain, plain_s = run_ops([ops])
    _, batch_failed = run_batch(wl, directory, driver, 1)

    children, threads = [], 0
    for path in sorted(spans_dir.glob("spans-*.json")):
        child = json.loads(path.read_text(encoding="utf-8"))
        children.append(child)
        threads = max(threads, child["counters"].get("cli.batch.threads", 0))
    counters = {"cli.batch.threads": threads, "mixed.oracle_gap_max": wl.gap_max,
                "trace.overhead_ratio": traced_s / plain_s - 1.0, **import_times()}
    metrics = tracing.layer_metrics([tracer.spans] + [c["spans"] for c in children], counters)
    SPANS_OUT.mkdir(exist_ok=True)
    out = SPANS_OUT / f"spans-{wl_cls.name}-seed{seed}.json"
    out.write_text(json.dumps({"workload": wl_cls.name, "seed": seed, "spans": tracer.spans,
                               "children": children}), encoding="utf-8")
    failed = failed_traced + failed_plain + batch_failed + bool(leftovers)
    if leftovers:
        print(f"perfbench: wrappers left installed: {leftovers}", file=sys.stderr)
    return {"metrics": metrics, "failed": failed, "attempted": 2 * len(ops) + 1,
            "traced_s": traced_s, "untraced_s": plain_s, "ops": len(ops),
            "spans_file": str(out.relative_to(ROOT)), "environment": environment()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "timed", "trace"), required=True)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--tmp", required=True)
    args = parser.parse_args(argv)
    tmp = Path(args.tmp)
    tmp.mkdir(parents=True, exist_ok=True)
    wl_cls = workloads.WORKLOADS[args.workload]
    if args.mode == "trace":
        result = traced(wl_cls, args.seed, tmp)
    else:
        wl = wl_cls(args.seed, tmp)
        if args.mode == "setup":
            write_batch(wl)
            wl.warm_up()
            result = {"ready_at": time.monotonic()}
        else:
            result = timed(wl, args.seconds, workloads.SPEC["batch_repeats"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
