"""Runs one workload's commands in-process, as a closed loop with one client.

Usage: python3 perfbench/worker.py PLAN.json RESULT.json

The plan lists the command lines, the run length and whether to trace.
The worker runs the first command once untimed as a warm-up, then whole
passes over every command until the run length has elapsed, and writes
per-pass timings, a machine-speed calibration taken before each pass, exit
statuses, output digests and (when tracing) the per-layer counters to
RESULT.json.  With tracing on, passes alternate
between untraced and traced so both see the same machine state.

The parent sets BLAS thread counts and PYTHONPATH before this process
starts; the program is imported only here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import time

# at least this many passes, and with tracing this many of each kind
MIN_PASSES = 4


def inventory(out_dir) -> dict[str, str]:
    """sha256 of every file in a run directory, manifest included."""
    digests = {}
    if not os.path.isdir(out_dir):
        return digests
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def peak_rss_mb() -> float:
    """High-water resident set of this process image, from /proc/self/status.

    getrusage's ru_maxrss is not used: Linux carries it over from the parent
    through fork and exec, so it would report the parent's peak whenever
    that is the larger.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def calibration_s() -> float:
    """Wall time of a fixed computation that does not touch the program.

    The mix of interpreter-bound scalar steps and array sweeps is like the
    program's own.  Timed next to every pass, it gauges how fast the shared
    machine runs at that moment, so the parent can take that out of the
    pass times.
    """
    import numpy as np

    start = time.perf_counter()
    small = np.linspace(0.0, 1.0, 16)
    acc = 0.0
    for i in range(2000):
        acc += float(np.dot(small, small * (math.tanh(i * 1e-3) + math.log1p(i))))
    big = np.linspace(0.0, 50.0, 50_000)
    for _ in range(16):
        acc += float(np.sum(np.log(np.abs(np.cos(big)) + 1.0)))
    return time.perf_counter() - start


def run_command(main, argv) -> tuple[float, object]:
    """Wall time and exit status of one command; an exception is its status."""
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            status = main(argv)
    except Exception as exc:  # a raising command is a failed command, not a crash
        status = f"raised {type(exc).__name__}: {exc}"
    return time.perf_counter() - start, status


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    import curieweiss.cli

    tracer = None
    if plan["trace"]:
        from tracer import Tracer
        tracer = Tracer()
    commands = plan["commands"]
    run_command(curieweiss.cli.main, commands[0]["argv"])

    passes = []
    first_digests = None
    min_passes = 2 * MIN_PASSES if tracer else MIN_PASSES
    started = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - started < plan["seconds"]:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        calib = calibration_s()
        times, statuses = [], []
        try:
            for i, cmd in enumerate(commands):
                if traced:
                    tracer.request = i
                dt, status = run_command(curieweiss.cli.main, cmd["argv"])
                times.append(dt)
                statuses.append(status)
        finally:
            if traced:
                tracer.uninstall()
        digests = [inventory(cmd["out"]) for cmd in commands]
        if first_digests is None:
            first_digests = digests
        record = {
            "traced": traced,
            "calib_s": calib,
            "times": times,
            "statuses": statuses,
            "identical": [d == f for d, f in zip(digests, first_digests)],
        }
        if traced:
            record["layers"] = tracer.take()
        passes.append(record)

    result = {"passes": passes, "peak_rss_mb": peak_rss_mb()}
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
