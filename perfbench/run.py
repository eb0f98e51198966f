"""gphier benchmark: seeded desk-scale workloads, end to end and per layer.

    python3 perfbench/run.py --workload {cubic-m12,sweep-m8,battery-m16,cli-m10,all}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; gphier is imported from ``src/``.  Each
repetition is a fresh process (perfbench/worker.py) that runs only the named
workload, with numpy's BLAS/OpenMP pools pinned to one thread.  Repetitions
run one after another, never side by side, until the next one would end
after ``--seconds``; at least one full cycle always runs.

``--trace 0`` cycles through one plain repetition and two setup-only ones
and reports the end-to-end metrics: the median ``run_s`` of the plain
repetitions, the median ``setup_s`` of all of them, and the largest
``peak_rss_mb`` of the plain ones.  ``--trace 1`` cycles through plain, spans-only and
tracemalloc repetitions (see worker.py) and reports the per-layer metrics:
times and counts from the spans-only ones, the traced peak from the
tracemalloc ones, and ``trace.overhead_s``, the spans-only minus the plain
median ``run_s``.  End-to-end numbers never come from a traced repetition.
Failed operations are counted in ``failed`` out of ``attempted``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Per-run records and
the traced repetitions' spans go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import MEMORY_METRICS, PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("cubic-m12", "sweep-m8", "battery-m16", "cli-m10")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
RUN_LIMIT_S = 170  # a run must end within 180 s, even when a worker hangs
# Repetition kinds, repeated in this order (see worker.py).  Setup-only
# repetitions are cheap extra samples of setup_s.
PLAIN_CYCLE = ("plain", "setup", "setup")
TRACE_CYCLE = ("plain", "spans", "memory")

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MiB"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _read_first(path, prefix=None):
    try:
        with open(path) as fh:
            for line in fh:
                if prefix is None or line.startswith(prefix):
                    return line.split(":", 1)[-1].strip() if prefix else line.strip()
    except OSError:
        pass
    return None


def environment_stamp(env: dict, versions: dict) -> dict:
    """Versions as the worker imported them, plus the machine and thread setting."""
    return {
        **versions,
        "cpu_model": _read_first("/proc/cpuinfo", "model name"),
        "nproc": len(os.sched_getaffinity(0)),
        "l3": _read_first("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "threads": {var: env[var] for var in THREAD_VARS},
    }


def run_repetition(workload: str, seed: int, mode: str, workdir: Path,
                   env: dict, timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode,
         str(workdir)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{workload} worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 env: dict) -> dict:
    """Repetitions until the next would overrun ``seconds``; returns the result."""
    run_dir = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    cycle = TRACE_CYCLE if trace else PLAIN_CYCLE
    reps, longest = [], {}
    start = time.perf_counter()
    while True:
        mode = cycle[len(reps) % len(cycle)]
        spent = time.perf_counter() - start
        if len(reps) >= len(cycle) and spent + longest[mode] > seconds:
            break
        reps.append(run_repetition(workload, seed, mode, run_dir / f"rep{len(reps)}",
                                   env, timeout=max(1.0, RUN_LIMIT_S - spent)))
        longest[mode] = max(longest.get(mode, 0.0), time.perf_counter() - start - spent)

    by_mode = {m: [r for r in reps if r["mode"] == m] for m in cycle}
    plain = by_mode["plain"]
    if trace:
        units = PER_LAYER
        sources = {name: by_mode["memory" if name in MEMORY_METRICS else "spans"]
                   for name in units}
        values = {name: statistics.median(r["layers"][name] for r in sources[name])
                  for name in units if name != "trace.overhead_s"}
        values["trace.overhead_s"] = (
            statistics.median(r["run_s"] for r in by_mode["spans"])
            - statistics.median(r["run_s"] for r in plain))
    else:
        units = END_TO_END_UNITS
        sources = {"setup_s": plain + by_mode["setup"], "run_s": plain,
                   "peak_rss_mb": plain}
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in sources["setup_s"]),
            "run_s": statistics.median(r["run_s"] for r in plain),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in plain),
        }
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    record = {
        "workload": workload, "seed": seed, "trace": trace,
        "samples": {name: len(sources[name]) for name in units},
        "repetitions": reps, "correct": failed == 0, "attempted": attempted,
        "failed": failed, "metrics": metrics,
        "environment": environment_stamp(env, reps[0]["versions"]),
    }
    (run_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def print_report(record: dict):
    print(f"workload {record['workload']} seed {record['seed']}: "
          f"{len(record['repetitions'])} processes, one at a time")
    for name, m in record["metrics"].items():
        how = "max" if name == "peak_rss_mb" else "median"
        n = record["samples"][name]
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']:<6} ({how} of {n})")
    print(f"  {'ops_failed':<40} {record['failed']:>14d} count  "
          f"(out of ops_attempted {record['attempted']})")
    for r in record["repetitions"]:
        for failure in r["failures"]:
            print(f"  FAILED {failure}")
    print("env: " + json.dumps(record["environment"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "gphier" / "__init__.py").is_file():
        print(f"error: gphier sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = _worker_env()
    try:
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        for name in names:
            record = run_workload(name, args.seed, args.seconds, bool(args.trace), env)
            print_report(record)
            print(json.dumps({key: record[key] for key in
                              ("correct", "attempted", "failed", "metrics")}),
                  flush=True)
    except (BenchError, subprocess.SubprocessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
