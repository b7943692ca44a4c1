"""One call in a forked child, beside the caller's own work.

:func:`start` forks a child that computes ``fn(*args)`` and returns a
:class:`ForkedCall` at once; the caller works on, then takes the value
with :meth:`ForkedCall.result` or drops it with
:meth:`ForkedCall.cancel`.  AutoTM's budget ladder uses it to solve the
next budget while the current one is solved in-process.  The contract
is the sweep engine's: parallelism changes wall-clock only.

* **Always a value.**  :meth:`~ForkedCall.result` returns the child's
  value.  If the child raised, died or was never started, it computes
  ``fn(*args)`` in-process instead, so an exception surfaces exactly as
  it would serially, and a lost child costs time, never a result.
* **When it forks.**  Only where ``os.fork`` exists and more than one
  CPU is usable, both read at call time.  Otherwise no process starts,
  and ``fn`` runs in-process when its result is asked for.
* **os.fork and a pipe, not multiprocessing.**  Service jobs run in
  daemonic processes, and multiprocessing (``ProcessPoolExecutor``
  included) refuses to start children there.  The child inherits the
  caller's memory, so ``fn`` and its arguments are never pickled; only
  the value comes back, pickled, through the pipe.
* **How the child leaves.**  Only through ``os._exit``, whatever
  happens: it never unwinds into the caller's stack, runs no ``atexit``
  handler, never flushes the stdio buffers it inherited, and writes
  nothing but its value.
* **Threads.**  The child has only the thread that forked it.  A
  library that keeps worker threads between calls must stop them
  before the fork, or the child may wait on a thread it does not have
  (:func:`repro.autotm.ilp.release_threads` does this for HiGHS).
* **No child outlives its caller, with one exception.**
  :meth:`~ForkedCall.cancel` SIGKILLs the child and reaps it, and
  callers cancel in a ``finally``.  If the whole process is killed (a
  service job's timeout, say), the orphan runs until ``fn`` returns and
  then exits, so ``fn``'s own bound (HiGHS's time limit) bounds it.
* **Same priority.**  The child is not niced.  A wall-clock limit
  inside ``fn``, like HiGHS's time limit, must not run out sooner in
  the child than in-process: a starved HiGHS solve that hits its limit
  is not a success, and the ladder would fall back to the greedy plan.
"""

from __future__ import annotations

import os
import pickle
import signal
from typing import Any, Callable, NoReturn, Optional, Tuple


def _usable_cpus() -> int:
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        return len(affinity(0))
    return os.cpu_count() or 1


def _child(fn: Callable[..., Any], args: Tuple[Any, ...], read_fd: int, write_fd: int) -> NoReturn:
    """The forked side: send ``fn(*args)``, exit 0 only once it is sent."""
    status = 1
    try:
        os.close(read_fd)
        payload = pickle.dumps(fn(*args), protocol=pickle.HIGHEST_PROTOCOL)
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)


class ForkedCall:
    """``fn(*args)``, computed in a child if one could be started."""

    def __init__(self, fn: Callable[..., Any], args: Tuple[Any, ...]) -> None:
        self._fn = fn
        self._args = args
        #: Whether a child was forked for this call.
        self.started = False
        #: The child's process id until it is reaped.
        self.pid: Optional[int] = None
        self._pipe: Optional[int] = None

    def _fork(self) -> None:
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:  # no process to spare: the call runs in-process
            os.close(read_fd)
            os.close(write_fd)
            return
        if pid == 0:
            _child(self._fn, self._args, read_fd, write_fd)
        os.close(write_fd)
        self.started, self.pid, self._pipe = True, pid, read_fd

    def result(self) -> Any:
        """The child's value, or ``fn(*args)`` computed here if there is none."""
        if self.pid is not None:
            pipe, self._pipe = self._pipe, None
            with os.fdopen(pipe, "rb") as reader:
                payload = reader.read()
            _, status = os.waitpid(self.pid, 0)
            self.pid = None
            if os.waitstatus_to_exitcode(status) == 0:
                return pickle.loads(payload)
        return self._fn(*self._args)

    def cancel(self) -> None:
        """Kill and reap the child, if one is running; idempotent."""
        if self._pipe is not None:
            os.close(self._pipe)
            self._pipe = None
        if self.pid is not None:
            pid, self.pid = self.pid, None
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def start(fn: Callable[..., Any], *args: Any) -> ForkedCall:
    """Begin ``fn(*args)`` in a forked child, where forking helps."""
    call = ForkedCall(fn, args)
    if hasattr(os, "fork") and _usable_cpus() > 1:
        call._fork()
    return call
