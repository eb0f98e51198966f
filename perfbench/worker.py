"""One repetition of one workload in a fresh process.

    python3 perfbench/worker.py WORKLOAD SEED MODE WORKDIR

MODE is "plain" (no tracing), "setup" (stop after the input generation, an
extra ``setup_s`` sample), "spans" (spans only: the per-layer times) or
"memory" (spans and tracemalloc: the traced peak).  tracemalloc makes every
Python allocation slower, which would distort the per-layer times, so the
two kinds of traced repetition are kept apart.

run.py starts it with gphier's ``src`` on PYTHONPATH and the BLAS/OpenMP
pools pinned to one thread.  The clock starts before gphier (and numpy) is
imported, so ``setup_s`` is the import plus the seeded input generation.
The process prints one JSON record as the last line of its standard output.
A plain repetition never starts tracemalloc, so its ``ru_maxrss`` is the
peak resident set of a process that ran only this workload.
"""

import time

T_START = time.perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import SETUP_OP, Tracer, layer_metrics  # noqa: E402

MODES = ("plain", "setup", "spans", "memory")


def run_operations(ops, traced_as):
    """Time each operation's calls into gphier, then check its result.

    An exception or a failed check is recorded and the remaining
    operations still run.  Only ``run()`` is inside the timed interval.
    """
    op_seconds, failures = [], []
    for op_name, run, check in ops:
        t0 = time.perf_counter()
        try:
            with traced_as(op_name):
                result = run()
        except Exception:
            op_seconds.append(time.perf_counter() - t0)
            failures.append((op_name, traceback.format_exc(limit=3)))
            continue
        op_seconds.append(time.perf_counter() - t0)
        try:
            failures.extend((op_name, p) for p in check(result))
        except Exception:
            failures.append((op_name, traceback.format_exc(limit=3)))
        del result
    return op_seconds, failures


def main(argv) -> int:
    name, seed, mode, workdir = argv[0], int(argv[1]), argv[2], Path(argv[3])
    if mode not in MODES:
        raise SystemExit(f"unknown mode {mode!r}")
    inputs_dir = workdir / "inputs"
    inputs_dir.mkdir(parents=True, exist_ok=True)
    tracer = None
    if mode in ("spans", "memory"):
        tracer = Tracer()
    if mode == "memory":
        import tracemalloc

    def traced_as(op_id, group="op"):
        return tracer.operation(op_id, group) if tracer else contextlib.nullcontext()

    with tracer or contextlib.nullcontext():
        if mode == "memory":
            tracemalloc.start()
        import workloads

        with traced_as(SETUP_OP, group="setup"):
            ops = workloads.SETUPS[name](seed, inputs_dir)
        setup_s = time.perf_counter() - T_START
        if mode == "setup":
            ops = []
        if mode == "memory":
            tracemalloc.reset_peak()
        op_seconds, failures = run_operations(ops, traced_as)
        if mode == "memory":
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
    shutil.rmtree(inputs_dir)

    record = {
        "mode": mode,
        "setup_s": setup_s,
        "run_s": sum(op_seconds),
        "op_seconds": op_seconds,
        "attempted": len(ops),
        "failed": len({op for op, _ in failures}),
        "failures": [f"{op}: {why}" for op, why in failures],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": workloads.versions(),
    }
    if tracer is not None:
        record["layers"] = layer_metrics(tracer.spans, peak if mode == "memory" else None)
        tracer.write(workdir / "spans.jsonl")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
