"""Contiguous ranges of items, one per CPU, each run in a forked process; no numpy."""
from __future__ import annotations

import os
import sys
import tempfile
from contextlib import ExitStack, contextmanager


def cpu_count() -> int:
    """CPUs this process may run on, or 1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def range_bounds(n: int) -> list[int]:
    """Bounds of ``n`` items split into contiguous ranges, one per CPU, never more than ``n``.

    Range ``r`` is ``[bounds[r], bounds[r + 1])``.
    """
    ranges = min(n, cpu_count())
    return [n * r // ranges for r in range(ranges + 1)]


@contextmanager
def run_in_ranges(bounds: list[int], job):
    """Fork one worker running ``job(lo, hi, out)`` per range of ``bounds``; yield ``join``.

    ``with run_in_ranges(bounds, job) as join:`` hands control back to the
    caller while the workers run, so the caller can do its own work (a
    range of its own, say) in the block.  ``join()`` waits for every worker
    and returns the ``out`` files, rewound, in range order.  ``out`` is one
    of the anonymous binary temporary files opened before the fork, one per
    range: the only way a job's results reach the caller.  Where ``os.fork``
    is missing, each range runs in the caller before the block starts.

    A worker never returns into the caller's code: it flushes ``out`` and
    leaves through ``os._exit``, which flushes no buffer, with status 0 only
    when its job returned; a job that raised prints its traceback to stderr
    first.  Every worker is reaped and every file closed when the block
    ends, however it ends.  A worker that failed or was killed makes
    ``join``, or the end of a block that never called it, raise
    ``ChildProcessError`` (an ``OSError``); an exception from the block
    itself wins over it.

    Forking is safe here although numpy may have started BLAS threads: the
    jobs run only ufuncs, reductions, a Philox generator they create
    themselves, float formatting and file writes, none of which needs a lock
    that another thread could hold.
    """
    workers, failed = [], []

    def reap() -> None:
        while workers:
            status = os.waitpid(workers[0], 0)[1]
            del workers[0]
            if status != 0:
                failed.append(os.waitstatus_to_exitcode(status))

    def join() -> list:
        reap()
        if failed:
            raise ChildProcessError(f"{len(failed)} worker(s) failed, exit codes "
                                    f"{failed} (negative: killed by that signal)")
        for file in files:
            file.seek(0)
        return files

    with ExitStack() as stack:
        files = [stack.enter_context(tempfile.TemporaryFile()) for _ in bounds[1:]]
        try:
            for r, out in enumerate(files):
                if not hasattr(os, "fork"):
                    job(bounds[r], bounds[r + 1], out)
                    continue
                pid = os.fork()
                if pid == 0:
                    status = 1
                    try:
                        job(bounds[r], bounds[r + 1], out)
                        out.flush()
                        status = 0
                    except Exception:
                        import traceback  # only a failing worker needs it

                        traceback.print_exc()
                        sys.stderr.flush()
                    finally:
                        os._exit(status)
                workers.append(pid)
            yield join
        finally:
            reap()
        join()
