"""Benchmark of the curieweiss command line.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in workloads.py, or ``all`` to run every one
in turn.  The run generates the workload's config files from the seed,
times a fresh interpreter importing the program (set-up), then runs the
commands in a separate worker process for S seconds and checks every
command's outputs against the reference computations.  With --trace 1 the
worker alternates untraced and traced passes and the run reports the
per-layer metrics instead of the end-to-end ones.  Times are reported at a
reference machine speed (see scaled_times).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Any fault of the benchmark itself
(the program missing, a worker crash) exits with status 1 and prints no
result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from worker import calibration_s  # noqa: E402
from workloads import FAULTS, WORKLOADS, config_text  # noqa: E402

SOURCE = "src"
WORK = ".perfbench"
SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3
TIME_LIMIT_S = 170.0
# worker.calibration_s on the reference machine: the 2-vCPU Intel Xeon
# virtual machine of the README, at its usual speed
REFERENCE_CALIB_S = 0.022
IMPORT_PROGRAM = "import curieweiss.cli"


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(SOURCE), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def fresh_import(env, *flags) -> subprocess.CompletedProcess:
    done = subprocess.run([sys.executable, *flags, "-c", IMPORT_PROGRAM], env=env,
                          capture_output=True, text=True, timeout=60)
    if done.returncode != 0:
        raise BenchError(f"importing the program failed: {done.stderr.strip()[-500:]}")
    return done


def setup_seconds(env) -> float:
    """Median wall time of a fresh interpreter importing curieweiss.cli.

    Each import is scaled to the reference machine speed, like the passes,
    by a calibration timed just before it.
    """
    fresh_import(env)  # untimed: writes the bytecode cache of a new checkout
    times = []
    for _ in range(SETUP_REPEATS):
        calib = calibration_s()
        start = time.perf_counter()
        fresh_import(env)
        times.append((time.perf_counter() - start) * REFERENCE_CALIB_S / calib)
    return statistics.median(times)


def import_times(env) -> dict:
    """Cumulative import seconds of numpy, scipy and curieweiss, from -X importtime."""
    runs = []
    for _ in range(IMPORTTIME_REPEATS):
        stderr = fresh_import(env, "-X", "importtime").stderr
        runs.append({f"import.{p}_s": outermost_cumulative(stderr, p)
                     for p in ("numpy", "scipy", "curieweiss")})
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


def outermost_cumulative(importtime: str, package: str) -> float:
    """Sum of cumulative times of the outermost imports of a package's modules.

    -X importtime prints a module after the modules it imported, indented
    two spaces per level; reading backwards gives each module's ancestors.
    """
    total, ancestors = 0, []
    for line in reversed(importtime.splitlines()):
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        name = name.strip()
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        mine = name == package or name.startswith(package + ".")
        if mine and not any(a[1] for a in ancestors):
            total += int(cumulative)
        ancestors.append((depth, mine))
    return total * 1e-6


def build_plan(workload: str, seed: int, work: str) -> list[dict]:
    commands = WORKLOADS[workload](seed)
    os.makedirs(os.path.join(work, "configs"))
    for i, cmd in enumerate(commands):
        path = os.path.join(work, "configs", f"{i:02d}.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(config_text(cmd["config"]))
        cmd["out"] = os.path.join(work, "out", f"{i:02d}")
        cmd["argv"] = [cmd["kind"], "--config", path, "--out", cmd["out"], *cmd["extra_args"]]
    return commands


def run_worker(commands, seconds, trace, work, env, deadline) -> dict:
    plan_path = os.path.join(work, "plan.json")
    result_path = os.path.join(work, "result.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump({"commands": commands, "seconds": seconds, "trace": trace}, fh)
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), plan_path,
                             result_path], env=env, stderr=subprocess.PIPE, text=True)
    try:
        _, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("the worker ran past the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"the worker failed: {stderr.strip()[-1000:]}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def check_outputs(cmd) -> list[str]:
    try:
        return checks.CHECKS[cmd["kind"]](cmd, cmd["out"])
    except Exception as exc:  # unreadable or incomplete output fails the command
        return [f"output not checkable: {type(exc).__name__}: {exc}"]


def score(commands, result) -> dict:
    """Attempted and failed command counts; which commands failed and why."""
    problems = [check_outputs(cmd) for cmd in commands]
    attempted = failed = 0
    why: dict[int, set] = {}
    for rec in result["passes"]:
        for i, cmd in enumerate(commands):
            reasons = list(problems[i])
            status = rec["statuses"][i]
            if status != cmd["expect_exit"]:
                reasons.append(f"exit status {status!r}, predicted {cmd['expect_exit']}")
            if not rec["identical"][i]:
                reasons.append("files differ from the first pass")
            attempted += 1
            if reasons:
                failed += 1
                why.setdefault(i, set()).update(reasons)
    unexpected = [i for i in why if commands[i]["fault"] is None]
    return {"attempted": attempted, "failed": failed, "why": why,
            "correct": not unexpected}


def scaled_times(passes) -> list[list[float]]:
    """Command times of each pass at the reference machine speed.

    The machine's speed drifts by up to a factor of two over minutes as
    other tenants come and go, and a run cannot outlast that drift.  Each
    pass's times are scaled by REFERENCE_CALIB_S over the calibration time
    the worker measured just before that pass.
    """
    return [[t * REFERENCE_CALIB_S / p["calib_s"] for t in p["times"]] for p in passes]


def end_to_end(result, setup_s) -> dict:
    passes = scaled_times(result["passes"])
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(sum(p) for p in passes), "s"),
        "op_median_s": (statistics.median(statistics.median(p) for p in passes), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def per_layer(result, imports) -> dict:
    traced = [p for p in result["passes"] if p["traced"]]
    plain = [p for p in result["passes"] if not p["traced"]]
    out = {}
    for key in traced[0]["layers"]:
        unit = "s" if key.endswith("_s") else "bytes" if key.endswith("bytes") else "count"
        out[key] = (statistics.median(p["layers"][key] for p in traced), unit)
    for key, value in imports.items():
        out[key] = (value, "s")
    overhead = (statistics.median(sum(p) for p in scaled_times(traced))
                - statistics.median(sum(p) for p in scaled_times(plain)))
    out["trace.overhead_s"] = (overhead, "s")
    return out


def run_workload(workload: str, seed: int, seconds: int, trace: bool, deadline: float) -> dict:
    if not os.path.isfile(os.path.join(SOURCE, "curieweiss", "cli.py")):
        raise BenchError(f"no program source under {SOURCE}/curieweiss; run from the repository root")
    env = program_env()
    work = os.path.join(WORK, f"{workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        commands = build_plan(workload, seed, work)
        if trace:
            imports = import_times(env)
        else:
            setup_s = setup_seconds(env)
        result = run_worker(commands, seconds, trace, work, env, deadline)
        scored = score(commands, result)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            os.rmdir(WORK)
    scored["metrics"] = per_layer(result, imports) if trace else end_to_end(result, setup_s)
    scored["passes"] = len(result["passes"])
    scored["commands"] = commands
    return scored


def report(workload: str, seed: int, res: dict) -> None:
    print(f"workload {workload}  seed {seed}  passes {res['passes']}  "
          f"commands per pass {len(res['commands'])}")
    print(f"  attempted {res['attempted']}  failed {res['failed']}  correct {res['correct']}")
    for name, (value, unit) in res["metrics"].items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    for i, reasons in sorted(res["why"].items()):
        cmd = res["commands"][i]
        cfg = cmd["config"]
        print(f"  failed: {' '.join(cmd['argv'][:1] + cmd['extra_args'])} "
              f"(T = {cfg['temperature']!r}, g = {cfg['coupling_g']!r})")
        if cmd["fault"]:
            print(f"    known fault {cmd['fault']}: {FAULTS[cmd['fault']]}")
        else:
            print("    UNEXPECTED: not a known fault")
        for reason in sorted(reasons):
            print(f"      {reason}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + TIME_LIMIT_S * len(names)
    try:
        results = {}
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                         deadline)
            report(name, args.seed, results[name])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    prefix = len(names) > 1
    metrics = {
        (f"{name}.{key}" if prefix else key): {"value": value, "unit": unit}
        for name, res in results.items() for key, (value, unit) in res["metrics"].items()
    }
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
