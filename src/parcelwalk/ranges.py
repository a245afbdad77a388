"""Contiguous ranges of items, one per CPU, each run in a forked process; no numpy."""
from __future__ import annotations

import os
import sys
import tempfile


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


def run_in_ranges(bounds: list[int], job) -> list:
    """Run ``job(lo, hi, out)`` for every range of ``bounds``; return the ``out`` files.

    ``out`` is one of the anonymous binary temporary files opened before the
    fork, one per range: the only way a job's results reach the caller.  The
    caller runs range 0 itself after forking one worker per other range.  A
    worker never returns into the caller's code: it flushes ``out`` and
    leaves through ``os._exit``, which flushes no buffer, with status 0 only
    when its job returned; a job that raised prints its traceback to stderr
    first.  Every worker is reaped however range 0 ends; one that failed or
    was killed makes this raise ``ChildProcessError`` (an ``OSError``).  On
    any exception every file is closed; otherwise they come back rewound, in
    range order, for the caller to read and close.

    Forking is safe here although numpy may have started BLAS threads: the
    jobs run only ufuncs, reductions, a Philox generator they create
    themselves, float formatting and file writes, none of which needs a lock
    that another thread could hold.
    """
    files, workers = [], []
    try:
        try:
            files.extend(tempfile.TemporaryFile() for _ in bounds[1:])
            for r in range(1, len(files)):
                pid = os.fork()
                if pid == 0:
                    status = 1
                    try:
                        job(bounds[r], bounds[r + 1], files[r])
                        files[r].flush()
                        status = 0
                    except Exception:
                        import traceback  # only a failing worker needs it

                        traceback.print_exc()
                        sys.stderr.flush()
                    finally:
                        os._exit(status)
                workers.append(pid)
            job(bounds[0], bounds[1], files[0])
        finally:
            statuses = [os.waitpid(pid, 0)[1] for pid in workers]
        failed = [os.waitstatus_to_exitcode(status) for status in statuses if status != 0]
        if failed:
            raise ChildProcessError(f"{len(failed)} worker(s) failed, exit codes {failed} "
                                    "(negative: killed by that signal)")
    except BaseException:
        for file in files:
            file.close()
        raise
    for file in files:
        file.seek(0)
    return files
