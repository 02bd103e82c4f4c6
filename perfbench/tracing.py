"""In-memory span recorder that wraps cqrt's public functions from outside.

A span is (name, start, end, parent, thread id, work, bytes, cpu): `parent`
is the index of the enclosing span on the same thread (-1 at a thread's top
level), `work` counts the items the call processed, `bytes` the file bytes it
moved, and `cpu` the CPU time of its thread during the call.  In the thread
pool a span's wall time also holds the time its thread waited for the
interpreter lock; its CPU time does not.  Spans stay in memory until the run
writes them out.

Wrapping is by identity: every attribute of a loaded `cqrt` module that is the
wrapped function object is replaced, so a call is traced however the caller
looked the function up (`cqrt.simulate_ensemble`, `cli.simulate_ensemble`, or
the `log_derivative_masked` global that `sde` calls).
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time

import numpy as np


def _size(value):
    return int(np.size(value))


def _file_bytes(path):
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _read_rows(result):
    _, cols = result
    return len(cols[0]) if cols else 0


# (module, function, span name, work(args, kwargs, result), bytes(args, kwargs, result))
# The timing-only set is always installed: it marks the start of the measured
# call, which ends set-up, and times it.
TIMING_POINTS = (
    ("cqrt.sde", "simulate_ensemble", "sde.simulate", None, None),
    ("cqrt.fpe", "fp_solve", "fpe.solve", None, None),
)

LAYER_POINTS = (
    ("cqrt.sde", "_integrate_chunk", "sde.chunk", None, None),
    ("cqrt.sde", "standard_normals", "noise", lambda a, k, r: _size(r), None),
    ("cqrt.sde", "log_derivative_masked", "drift", lambda a, k, r: _size(r[0]), None),
    ("cqrt.sde", "crossing_interpolation", "crossing", lambda a, k, r: _size(r[0]), None),
    ("cqrt.stats", "extract_point_set_a", "stats.extract", lambda a, k, r: _size(r), None),
    ("cqrt.stats", "extract_point_set_b", "stats.extract", lambda a, k, r: _size(r), None),
    # the CLI's own set-A/B extraction; it reads the pool inside the span
    ("cqrt.cli", "_pool_samples", "stats.extract", lambda a, k, r: _size(r), None),
    ("cqrt.stats", "build_density", "stats.histogram", None, None),
    ("cqrt.stats", "pearson", "stats.pearson", None, None),
    ("cqrt.serialize", "write_table", "serialize.write", None,
     lambda a, k, r: _file_bytes(a[0] if a else k["path"])),
    ("cqrt.serialize", "read_table", "serialize.read", lambda a, k, r: _read_rows(r),
     lambda a, k, r: _file_bytes(a[0] if a else k["path"])),
    ("cqrt.fpe", "fp_step", "fpe.step", lambda a, k, r: _size(r.rho), None),
    ("cqrt.fpe", "fp_initial", "fpe.initial", None, None),
    ("cqrt.fpe", "drift_field", "fpe.drift_field", None, None),
)


# spans whose last return value is kept: the ensemble the CLI does not return
KEEP_RESULTS = ("sde.simulate",)


class Tracer:
    """Records spans around wrapped functions; one instance per process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, tid, work, bytes, cpu]
        self.results = {}  # span name -> last return value, for KEEP_RESULTS
        self._local = threading.local()
        self._lock = threading.Lock()

    def _wrap(self, func, name, work, nbytes):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1,
                    threading.get_ident(), 0, 0, 0.0]
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(index)
            cpu = time.thread_time()
            try:
                result = func(*args, **kwargs)
            finally:
                span[7] = time.thread_time() - cpu
                span[2] = time.perf_counter()
                stack.pop()
            if work is not None:
                span[5] = work(args, kwargs, result)
            if nbytes is not None:
                span[6] = nbytes(args, kwargs, result)
            if name in KEEP_RESULTS:
                tracer.results[name] = result
            return result

        return wrapper

    def install(self, points):
        """Wrap each listed function that exists; returns the names wrapped."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "cqrt" or key.startswith("cqrt."))]
        installed = []
        for module_name, attr, name, work, nbytes in points:
            func = getattr(sys.modules.get(module_name), attr, None)
            if func is None:
                continue
            wrapper = self._wrap(func, name, work, nbytes)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is func:
                        setattr(module, key, wrapper)
            installed.append(f"{module_name}.{attr}")
        return installed


def self_times(spans, cpu=False):
    """Per span: its wall (or CPU) time minus that of the spans directly under
    it, which are on its own thread."""
    def length(s):
        return s[7] if cpu else s[2] - s[1]

    out = [length(s) for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= length(s)
    return out


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    end = -float("inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total
