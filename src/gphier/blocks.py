"""One thread pool for the independent blocks of full-size array passes.

numpy releases the interpreter lock inside its loops, so blocks of a pass
over a level-sized kernel run in parallel on threads.  Callers keep every
block's elementwise operations as in a serial loop and combine block
results in block order, so the output does not depend on the worker count.
rows(fn, mat) is the one place a full-size pass is cut into blocks: row
slices of a 2-d view of about BLOCK entries each, so that no temporary
grows with the kernel.

WORKERS is the number of CPUs in the process's affinity mask (so
``taskset -c 0`` gives the serial path).  The pool is created on first use;
with one worker, fewer than two items, or when called from a pool thread
(a nested wait could deadlock), map_blocks runs serially on the caller.
deal and map_items keep passes over fewer than MIN_POOLED array entries
in one run, on the caller.  The pool runs only the blocks of the pass the
caller is waiting on, never work ahead of it.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)

# Passes over fewer array entries stay on the calling thread: on a 2-core
# VM the pool made solves on 2^18-entry kernels (M=8, k=3) slower and
# solves on 10^6-entry ones (M=10, k=3) faster.
MIN_POOLED = 1 << 19

BLOCK = 1 << 16  # entries per block of a full-size pass

_pool = None
_pool_lock = threading.Lock()
_local = threading.local()


def _mark_pool_thread():
    _local.in_pool = True


def _executor() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(WORKERS, thread_name_prefix="gphier-blocks",
                                       initializer=_mark_pool_thread)
        return _pool


def _forget_pool():
    # a forked child inherits the executor but none of its threads
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def map_blocks(fn, items) -> list:
    """[fn(x) for x in items], in item order, with the items spread over the pool."""
    items = list(items)
    if WORKERS < 2 or len(items) < 2 or getattr(_local, "in_pool", False):
        return [fn(x) for x in items]
    return list(_executor().map(fn, items))


def deal(items, entries: int) -> list:
    """items dealt round-robin into at most WORKERS runs.

    entries is the number of array entries the whole pass touches; below
    MIN_POOLED there is a single run, because handing small blocks to pool
    threads costs more than it saves.
    """
    parts = max(1, min(WORKERS, len(items))) if entries >= MIN_POOLED else 1
    return [items[i::parts] for i in range(parts)]


def map_items(fn, items, entries: int, scratch=lambda: None) -> list:
    """[fn(x, buffers) for x in items], in item order.

    The items are dealt to the runs of deal(items, entries).  Each run gets
    one buffer set, made by scratch() here on the calling thread, so that
    pool threads allocate no buffers of their own.
    """
    runs = deal(items, entries)
    done = map_blocks(lambda job: [fn(x, job[1]) for x in job[0]],
                      [(run, scratch()) for run in runs])
    return [done[i % len(runs)][i // len(runs)] for i in range(len(items))]


def rows(fn, mat: np.ndarray, scratch=None) -> list:
    """[fn(r, *bufs)] for the row slices r of the 2-d array mat, in row order.

    Each slice holds about BLOCK entries (at least one row).  bufs are the
    run's buffers, made on the calling thread by scratch(shape) for the
    widest slice's shape and cut to r's rows; by default one buffer with
    mat[r]'s shape and dtype.
    """
    height, width = mat.shape
    step = max(1, BLOCK // width)
    shape = (min(step, height), width)
    scratch = scratch or (lambda shape: (np.empty(shape, dtype=mat.dtype),))
    return map_items(
        lambda s, bufs: fn(slice(s, s + step), *(b[:min(step, height - s)] for b in bufs)),
        range(0, height, step), mat.size, lambda: scratch(shape))
