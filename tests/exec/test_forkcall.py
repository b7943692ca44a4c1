"""Tests for the fork-one-call helper, :mod:`repro.exec.forkcall`."""

import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.exec import forkcall

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="platform has no os.fork")


# Called functions are module-level, like anything a child runs.

def where(tag):
    return os.getpid(), tag


def refuse(parent):
    raise ValueError(f"raised in {'the parent' if os.getpid() == parent else 'a child'}")


def stall_in_child(parent):
    if os.getpid() != parent:
        time.sleep(600)  # killed long before this ends
    return "computed here"


def no_fork():
    raise AssertionError("the helper forked")


@needs_fork
def test_result_is_the_childs_value(two_cpus):
    call = forkcall.start(where, "x")
    assert call.started
    child = call.pid
    assert call.result() == (child, "x")
    assert child != os.getpid()
    with pytest.raises(ChildProcessError):  # reaped by result()
        os.waitpid(child, os.WNOHANG)


@needs_fork
def test_a_child_that_raises_reraises_from_the_in_process_rerun(two_cpus):
    call = forkcall.start(refuse, os.getpid())
    assert call.started
    with pytest.raises(ValueError, match="raised in the parent"):
        call.result()


@needs_fork
def test_a_killed_child_still_gives_the_value(two_cpus):
    call = forkcall.start(stall_in_child, os.getpid())
    os.kill(call.pid, signal.SIGKILL)
    assert call.result() == "computed here"


@needs_fork
def test_cancel_kills_and_reaps_the_child(two_cpus):
    call = forkcall.start(stall_in_child, os.getpid())
    child = call.pid
    call.cancel()
    with pytest.raises(ChildProcessError):
        os.waitpid(child, os.WNOHANG)
    call.cancel()  # idempotent
    assert call.pid is None


def _report_from_daemon(conn):
    call = forkcall.start(where, "daemon")
    conn.send((call.started, call.result(), os.getpid()))
    conn.close()


@needs_fork
def test_forks_inside_a_daemonic_process(two_cpus):
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    process = context.Process(target=_report_from_daemon, args=(sender,), daemon=True)
    process.start()
    sender.close()
    try:
        assert receiver.poll(60), "the daemonic process sent nothing"
        started, (value_pid, tag), daemon_pid = receiver.recv()
    finally:
        process.join(60)
    assert not process.is_alive() and process.exitcode == 0
    assert started and tag == "daemon"
    assert value_pid not in (daemon_pid, os.getpid())


@needs_fork
def test_the_child_flushes_no_inherited_stdio():
    # Without PYTHONUNBUFFERED, stdout to a pipe is block-buffered, so it
    # holds "x" when the child forks; a child that left through a normal
    # exit would flush its copy and print it twice.
    script = textwrap.dedent(
        """
        import os, sys
        os.sched_getaffinity = lambda pid: {0, 1}
        from repro.exec import forkcall
        print("x", end="")
        call = forkcall.start(os.getpid)
        assert call.started and call.result() != os.getpid()
        call = forkcall.start(int, "not a number")
        try:
            call.result()
        except ValueError:
            pass
        """
    )
    buffered = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        env=buffered,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "x"
    assert done.stderr == ""


def test_one_usable_cpu_starts_no_process(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    call = forkcall.start(where, "here")
    assert not call.started and call.pid is None
    assert call.result() == (os.getpid(), "here")
    call.cancel()


def test_no_fork_starts_no_process(monkeypatch, two_cpus):
    monkeypatch.delattr(os, "fork", raising=False)
    call = forkcall.start(where, "here")
    assert not call.started and call.pid is None
    assert call.result() == (os.getpid(), "here")
