"""Run ``slaterkit.cli.main`` in this process with spans around the package's functions.

Usage::

    python perfbench/cli_driver.py --spans DIR -- <slaterkit arguments>

Writes ``DIR/spans-<pid>-<ns>.json`` and exits with the CLI's exit code, or
with 5 if any wrapper survives its removal.  The traced ``cli`` runs and the
traced ``--batch`` phases launch this instead of ``python -m slaterkit.cli``.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

import slaterkit.cli  # noqa: E402


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spans", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)
    cli_args = opts.cli_args[1:] if opts.cli_args[:1] == ["--"] else opts.cli_args

    tracer = tracing.Tracer()
    tracer.op = f"cli-{os.getpid()}"
    pool = concurrent.futures.ThreadPoolExecutor

    class CountingPool(pool):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tracer.counters["cli.batch.threads"] = self._max_workers

    patches = tracing.install(tracer)
    concurrent.futures.ThreadPoolExecutor = CountingPool
    try:
        code = slaterkit.cli.main(cli_args)
    finally:
        concurrent.futures.ThreadPoolExecutor = pool
        tracing.uninstall(patches)
    tracer.dump(os.path.join(opts.spans, f"spans-{os.getpid()}-{time.time_ns()}.json"))
    leftovers = tracing.leftover_wrappers()
    if leftovers:
        print(f"perfbench: wrappers left installed: {leftovers}", file=sys.stderr)
        return 5
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
