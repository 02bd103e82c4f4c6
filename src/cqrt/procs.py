"""Forked worker processes, the one module of the package that forks.

Both marches, sde.simulate_ensemble and fpe.fp_solve, run on one process per
share of their work: the calling process takes share 0 and forked workers
one share each.  The work holds the interpreter lock, so threads measured no
faster than serial.  Shares are equal and contiguous (share_bounds), and the
arrays that the processes fill in place are anonymous shared mappings
(shared_empty).  forked is the one message protocol: each message runs one
round of every share, and the results come back in share order.  A single
worker runs the share here, so a serial run starts no process and never
imports multiprocessing.  On Python 3.12 and later, os.fork warns
(DeprecationWarning) in a process that runs other threads, as numpy's BLAS
does.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import os

import numpy as np


def worker_count(threads: int, items: int, work: int, min_work: int) -> int:
    """The number of processes that share `items` (paths or grid rows):
    `threads` of them, at most one per item; 0 means one per usable CPU once
    `work` reaches min_work, and serially below it.  Below 0 is a ValueError,
    and a platform without fork runs serially."""
    if threads < 0:
        raise ValueError(f"threads must be >= 0 (0: one per usable CPU), got {threads}")
    if not hasattr(os, "fork"):
        return 1
    if threads == 0:
        if work < min_work:
            return 1
        threads = usable_cpus()
    return min(threads, items)


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def share_bounds(items: int, workers: int) -> list:
    """The equal contiguous shares of `items` among `workers` processes:
    share k is [bounds[k], bounds[k + 1]), bounds[k] = k * items // workers."""
    return [items * k // workers for k in range(workers + 1)]


def shared_empty(shape, dtype=float) -> np.ndarray:
    """np.empty(shape, dtype) in an anonymous shared mapping, which forked
    processes write in place."""
    dtype = np.dtype(dtype)
    count = math.prod(np.atleast_1d(shape))
    return np.frombuffer(mmap.mmap(-1, max(1, count * dtype.itemsize)), dtype,
                         count).reshape(shape)


@contextlib.contextmanager
def forked(workers: int, serve, *args):
    """Yields run(message), which runs serve(k, message, *args), an iterable
    of share k's results, for every share k in [0, workers) and returns all
    the results in share order: share 0 in this process and share k in
    forked worker k, which gets the message over its pipe.

    A worker finishes its whole share before it replies, one message per
    result and then None, and this process reads the replies after its own
    share.  run raises the exception that a worker's serve raised, and
    ChildProcessError if a worker has exited.  A worker holds no end of
    another worker's pipe, so its exit ends its pipe.  On the way out the
    pipes are closed and every worker is killed and joined.  One worker
    forks nothing: run calls serve here.
    """
    if workers == 1:
        yield lambda message: list(serve(0, message, *args))
        return
    import multiprocessing  # here, so that serial runs and `import cqrt.cli` never load it

    context = multiprocessing.get_context("fork")
    conns, procs = [], []
    try:
        for k in range(1, workers):
            conn, theirs = context.Pipe()
            procs.append(context.Process(target=_worker, args=(theirs, [*conns, conn], serve,
                                                                k, args), daemon=True))
            procs[-1].start()
            theirs.close()
            conns.append(conn)

        def run(message):
            for conn in conns:
                _pipe_call(conn.send, message)
            results = list(serve(0, message, *args))
            for conn in conns:
                while (reply := _pipe_call(conn.recv)) is not None:
                    results.append(reply)
            return results

        yield run
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            proc.kill()
            proc.join()


def _worker(conn, inherited, serve, k, args):
    """Worker k of forked: it closes the pipe ends it inherited from this
    process's parent, so that they end when the parent does, then serves
    each message until its pipe ends."""
    for end in inherited:
        end.close()
    while True:
        try:
            message = conn.recv()
        except EOFError:
            return
        try:
            replies = [*serve(k, message, *args), None]
        except Exception as exc:
            replies = [exc]
        for reply in replies:
            conn.send(reply)


def _pipe_call(method, *args):
    """method(*args) on a worker's pipe end: raises the exception the worker
    sent, and ChildProcessError if the worker has exited."""
    try:
        reply = method(*args)
    except (EOFError, ConnectionError):
        raise ChildProcessError("a worker exited before its share was done") from None
    if isinstance(reply, BaseException):
        raise reply
    return reply
