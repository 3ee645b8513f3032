"""Jobs 0..n-1 run in forked worker processes, their results read in order.

Worker ``w`` of ``W`` runs jobs ``w, w+W, ...`` and pickles each result down
its own pipe, which the caller reads round-robin; a full pipe blocks its
worker, so about one result per worker is held at a time. No thread is
started. A fork copies only the calling thread, so a job must take no lock
that another thread of the caller may hold.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import traceback
from collections.abc import Callable, Iterator


class WorkerTraceback(Exception):
    """A job's traceback in its worker: the cause of its exception in the caller."""


def worker_count(jobs: int) -> int:
    """One worker per usable CPU, at most one per job; 1 (in-process)
    where the platform cannot fork."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), jobs))


@contextlib.contextmanager
def forked(job: Callable[[int], object], jobs: int, workers: int) -> Iterator[Iterator]:
    """Fork ``workers`` processes on entry that make ``job(0), ...,
    job(jobs - 1)``, and give an iterator over the results in job order.

    A job's exception is raised by the iterator, from a ``WorkerTraceback``
    that holds its traceback in the worker, and a worker that ends
    before sending a result raises ``ChildProcessError``. Leaving the block
    kills and reaps every worker, whether or not its results were read.
    """
    pids, pipes = [], []
    try:
        for w in range(workers):
            read_fd, write_fd = os.pipe()
            pipes.append(open(read_fd, "rb"))
            with open(write_fd, "wb") as out:  # the caller's end closes after the fork
                pid = os.fork()
                # A worker leaves by os._exit, which runs no exit handler and
                # flushes none of the caller's open files. It closes every read
                # end it inherited, its own too, so if the caller dies its next
                # write fails and it leaves.
                if pid == 0:
                    try:
                        for pipe in pipes:
                            pipe.close()
                        for i in range(w, jobs, workers):
                            try:
                                message = (None, job(i))
                            except Exception as exc:  # noqa: BLE001 - raised by the caller
                                message = (traceback.format_exc(), exc)
                            out.write(pickle.dumps(message, pickle.HIGHEST_PROTOCOL))
                            out.flush()
                            if message[0]:
                                break
                    finally:
                        os._exit(0)
                pids.append(pid)

        def results():
            for i in range(jobs):
                try:
                    failure, value = pickle.load(pipes[i % workers])
                except (EOFError, pickle.UnpicklingError):
                    raise ChildProcessError(f"worker {i % workers} ended before job {i}") from None
                if failure:
                    raise value from WorkerTraceback(failure)
                yield value

        yield results()
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
