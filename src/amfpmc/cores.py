"""One helper thread beside the caller, and the one rule for when to start it.

A Helper runs tasks on one thread, in the order they were submitted. The
caller runs any task the helper has not begun by the time its result is
needed, so a busy or slow helper costs no more than doing the work in
line. Every task runs under the numpy error state of the thread that
submitted it, and an exception is raised in the caller. Work is placed by
the caller, never split inside a numpy call, so results do not depend on
which thread ran what.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Optional

import numpy as np


class _Task:
    """One call for the helper thread, which the caller runs itself if the helper has not begun it.

    Either way it runs once, under the numpy error state of the thread that
    made it: numpy keeps its error state per thread (a context variable
    since numpy 2, which a new thread does not inherit), so without it the
    CLI's errstate(all="ignore") or a caller's errstate(all="raise") would
    not hold in the helper's part of the work.
    """

    def __init__(self, fn, args):
        self.fn, self.args = fn, args
        self.errstate = dict(np.geterr(), call=np.geterrcall())
        self._taken = threading.Lock()
        self._done = threading.Event()
        self.value = self.error = None

    def run(self) -> None:
        """Run the call here, unless another thread has taken it, then drop the call and its arguments."""
        if not self._taken.acquire(blocking=False):
            return
        try:
            with np.errstate(**self.errstate):
                self.value = self.fn(*self.args)
        except BaseException as exc:  # raised again by result(), in the caller
            self.error = exc
        finally:
            self.fn = self.args = None
            self._done.set()

    def wait(self) -> None:
        """Return once the call has run: here, if the helper has not begun it."""
        self.run()
        self._done.wait()

    def result(self):
        self.wait()
        if self.error is not None:
            raise self.error
        return self.value


class Helper:
    """One helper thread, which runs submitted tasks in order until close().

    A task writes its arrays into buffers its caller made; of its own it
    allocates only vectors of batch or drug length, such as index arrays,
    so the helper thread's memory stays small. A task should not call a
    name the benchmark's tracer wraps (perfbench/spans.py), whose spans nest
    by call order on one thread.
    """

    def __init__(self):
        self._tasks: deque = deque()
        self._queued = threading.Semaphore(0)
        self._thread = threading.Thread(target=self._serve, name="amfpmc-helper", daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while True:
            self._queued.acquire()
            task = self._tasks.popleft()
            if task is None:
                return
            task.run()

    def _put(self, task: Optional[_Task]) -> None:
        self._tasks.append(task)
        self._queued.release()

    def submit(self, fn, *args) -> _Task:
        """Queue fn(*args) for the helper; the task's result() runs it here if the helper has not begun it."""
        task = _Task(fn, args)
        self._put(task)
        return task

    def close(self) -> None:
        """Finish every task submitted and end the thread."""
        self._put(None)
        self._thread.join()

    def run_beside(self, fn, helper_args: tuple, own_args: tuple) -> None:
        """fn(*helper_args) on the helper while the caller runs fn(*own_args).

        Returns once both are done; the caller runs both when the helper has
        not begun its part by then. The caller's exception comes first, and
        nothing is raised before the helper's part has finished.
        """
        task = self.submit(fn, *helper_args)
        try:
            fn(*own_args)
        finally:
            task.wait()
        task.result()

    def ahead(self, items):
        """The iterator's items in order, the helper taking item s + 1 while the caller uses item s.

        The caller takes the first item, and any the helper has not begun
        when it is needed. Item s + 2 is asked for only once item s + 1 is
        in hand, so the iterator is advanced one item at a time, in order,
        whichever thread advances it.
        """
        end = object()
        item = next(items, end)
        while item is not end:
            pending = self.submit(next, items, end)
            yield item
            item = pending.result()


_CURRENT: ContextVar[Optional[Helper]] = ContextVar("amfpmc_helper", default=None)


def current() -> Optional[Helper]:
    """The helper of the innermost open helper() block on this thread, or None."""
    return _CURRENT.get()


class _Ran:
    """A call run in line, with the wait() and result() of a _Task.

    It takes no lock, event or error state: a _Task's cost a few percent of
    a small training step.
    """

    def __init__(self, fn, args):
        self.value = self.error = None
        try:
            self.value = fn(*args)
        except BaseException as exc:  # raised again by result()
            self.error = exc

    def wait(self) -> None:
        pass

    result = _Task.result


def start(fn, *args):
    """fn(*args) as a task of the current() helper, or run here and now when there is none.

    Either way the returned task's result() returns or raises what the call
    did, once it has run.
    """
    beside = current()
    return _Ran(fn, args) if beside is None else beside.submit(fn, *args)


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@contextmanager
def helper(wanted: bool):
    """A Helper, which current() returns while the block is open, or None.

    None unless the caller wants one and the process may run on two CPUs:
    on one CPU a second thread only takes turns with the first. On exit the
    helper finishes its tasks and its thread ends, before any exception of
    the block is passed on.
    """
    if not wanted or usable_cpus() < 2:
        yield None
        return
    beside = Helper()
    token = _CURRENT.set(beside)
    try:
        yield beside
    finally:
        _CURRENT.reset(token)
        beside.close()
