import contextlib
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import foodsec
from foodsec.ingest import FormatError
from foodsec.workers import ordered_map, worker_count


@contextlib.contextmanager
def deadline(seconds):
    """Raise ``TimeoutError`` in the test if the block outlasts ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def big(i):
    """A result well past a pipe's buffer, so workers block on the parent."""
    return str(i) * 300_000


@pytest.mark.parametrize("jobs,workers", [(0, 2), (1, 2), (5, 1), (5, 2), (7, 3), (2, 3)])
def test_results_come_in_job_order(jobs, workers):
    with deadline(30):
        assert list(ordered_map(big, jobs, workers)) == [big(i) for i in range(jobs)]
    assert_no_child_left()


def test_a_job_error_is_raised_in_the_caller():
    def job(i):
        if i == 3:
            raise FormatError(f"bad job {i}")
        return i

    assert_no_child_left()
    with deadline(30), pytest.raises(FormatError, match="^bad job 3$"):
        list(ordered_map(job, 6, 2))
    assert_no_child_left()


@pytest.mark.parametrize("end", [
    lambda: os.kill(os.getpid(), signal.SIGKILL),
    lambda: os._exit(0),
], ids=["killed", "early-exit"])
def test_a_lost_worker_raises_instead_of_hanging(end):
    def job(i):
        if i == 1:
            end()
        return big(i)

    start = time.monotonic()
    with deadline(30), pytest.raises(ChildProcessError, match="before job 1"):
        list(ordered_map(job, 4, 2))
    assert time.monotonic() - start < 5
    assert_no_child_left()


def test_a_consumer_that_stops_early_leaves_no_worker():
    with deadline(30):
        with pytest.raises(RuntimeError, match="consumer"):
            for _ in ordered_map(big, 8, 2):
                raise RuntimeError("consumer stops")
        assert_no_child_left()
        results = ordered_map(big, 8, 2)
        assert next(results) == big(0)
        results.close()
    assert_no_child_left()


# A caller that takes one result and waits, so both workers block writing a
# result past the pipe's buffer. It is given a pipe's write end, unused, which
# every worker inherits.
BLOCKED_CALLER = """
import time
from foodsec.workers import ordered_map
results = ordered_map(lambda i: str(i) * 300_000, 8, 2)
next(results)
print("started", flush=True)
time.sleep(60)
"""


def test_workers_leave_when_the_caller_is_killed():
    src = str(Path(foodsec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    read_fd, write_fd = os.pipe()
    caller = subprocess.Popen([sys.executable, "-c", BLOCKED_CALLER], env=env,
                              pass_fds=(write_fd,), stdout=subprocess.PIPE,
                              start_new_session=True)
    os.close(write_fd)
    try:
        with deadline(30):
            assert caller.stdout.readline() == b"started\n"
        caller.kill()
        caller.wait()
        # the workers hold the last write ends: end of file once all have left
        assert select.select([read_fd], [], [], 5)[0], "a worker outlived its caller by 5 s"
        assert os.read(read_fd, 1) == b""
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(caller.pid, signal.SIGKILL)
        caller.wait()
        caller.stdout.close()
        os.close(read_fd)


def test_the_callers_buffered_file_keeps_its_bytes(tmp_path):
    def fails(i):
        raise ValueError("worker fails")

    path = tmp_path / "held.txt"
    with open(path, "w", encoding="utf-8") as held:
        held.write("written before the fork, not flushed\n")
        with deadline(30):
            assert list(ordered_map(lambda i: i * i, 5, 2)) == [0, 1, 4, 9, 16]
            with pytest.raises(ValueError):
                list(ordered_map(fails, 3, 2))
        held.write("written after\n")
    assert path.read_text(encoding="utf-8") == (
        "written before the fork, not flushed\nwritten after\n"
    )


def test_worker_count_is_capped_by_jobs_and_usable_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4096)))
    assert worker_count(10) == 10
    assert worker_count(100_000) == 4096
    assert worker_count(0) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert worker_count(200) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 7})
    assert worker_count(200) == 3
    monkeypatch.delattr(os, "fork")
    assert worker_count(200) == 1
