"""One helper thread beside the caller, and the one rule for when to start it.

helper() starts one thread that runs the tasks of a queue.SimpleQueue in
the order they were put on it. The caller runs any task the helper has not
begun by the time its result is needed, so a busy or slow helper costs no
more than doing the work in line. Every task runs under the numpy error
state of the thread that made it, and an exception is raised in the
caller. Work is placed by the caller, never split inside a numpy call, so
results do not depend on which thread ran what. start, run_beside and
ahead put work on the queue of the innermost open helper() block on this
thread, and run it in line when there is none, so a caller writes one path
for both.

A task is guarded by one lock, which the thread that runs it holds while
it runs. When the helper reaches a task the caller has taken, it waits on
that lock and then skips the task, so the tasks queued behind it wait too.
Training queues "prepare step s + 1", then the step's head branch, then its
Adam half, and the caller takes a task only when it needs its result, when
every task queued behind it has run: no work waits that would not wait
anyway. A task never waits on another task, so one lock per task cannot
deadlock.

helper() also places its two threads: where the calling thread may run on
two or more CPUs, the helper runs on the highest of them and the caller on
the rest until the block ends, when the caller gets its own mask back. Left
to the kernel, the two threads can share one CPU for a whole training run.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from queue import SimpleQueue
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
        self._lock = threading.Lock()
        self.value = self.error = None

    def run(self) -> None:
        """Run the call here unless it has run, waiting while another thread runs it; then drop
        the call and its arguments."""
        with self._lock:
            if self.fn is None:
                return
            try:
                with np.errstate(**self.errstate):
                    self.value = self.fn(*self.args)
            except BaseException as exc:  # raised again by result(), in the caller
                self.error = exc
            finally:
                self.fn = self.args = None

    wait = run

    def result(self):
        self.wait()
        if self.error is not None:
            raise self.error
        return self.value


#: The task queue of the innermost open helper() block on this thread, or None.
_CURRENT: ContextVar[Optional[SimpleQueue]] = ContextVar("amfpmc_helper", default=None)


class _Ran:
    """A call run in line, with the wait() and result() of a _Task.

    It takes no lock or error state: a _Task's cost a few percent of a
    small training step.
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
    """fn(*args) as a task on the open helper() block's queue, or run here and now when there is none.

    Either way the returned task's result() returns or raises what the call
    did, once it has run.
    """
    tasks = _CURRENT.get()
    if tasks is None:
        return _Ran(fn, args)
    task = _Task(fn, args)
    tasks.put(task)
    return task


def run_beside(fn, helper_args: tuple, own_args: tuple) -> None:
    """fn(*helper_args) as a start() task while the caller runs fn(*own_args).

    Returns once both are done; the caller runs both when the helper has
    not begun its part by then, or when there is no helper. The caller's
    exception comes first, and nothing is raised before the helper's part
    has finished.
    """
    task = start(fn, *helper_args)
    try:
        fn(*own_args)
    finally:
        task.wait()
    task.result()


def ahead(items):
    """The iterator's items in order, a start() task taking item s + 1 while the caller uses item s.

    The caller takes the first item, and any the helper has not begun
    when it is needed; with no helper, item s + 1 is taken before item s is
    handed over. Item s + 2 is asked for only once item s + 1 is in hand,
    so the iterator is advanced one item at a time, in order, whichever
    thread advances it.
    """
    end = object()
    item = next(items, end)
    while item is not end:
        pending = start(next, items, end)
        yield item
        item = pending.result()


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _pin(cpus) -> bool:
    """Limit the calling thread to the CPUs in cpus; False, with nothing changed, if refused."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:  # forbidden by a sandbox, or a CPU gone from the cpuset since the mask was read
        return False
    return True


def _serve(tasks: SimpleQueue, cpus) -> None:
    if cpus:
        _pin(cpus)
    for task in iter(tasks.get, None):
        task.run()


@contextmanager
def helper(wanted: bool):
    """A block in which one helper thread takes this thread's start() tasks.

    The thread is started only if the caller wants one and the process may
    run on two CPUs: on one CPU a second thread only takes turns with the
    first. On exit the helper runs every task left on its queue and its
    thread ends, before any exception of the block is passed on.

    Where the calling thread's affinity mask holds two or more CPUs, the
    helper pins itself to the highest of them and the caller narrows its
    own mask to the rest for the block; after the helper has ended, the
    caller's mask is set back to what it was, also when the block raises.
    A thread the caller starts inside the block inherits the narrowed mask.
    Nothing is pinned where the platform has no sched_setaffinity, where
    the mask holds one CPU, or for the thread whose call the kernel
    refuses: there the threads run where the kernel puts them. Placing
    threads changes no result.

    A task writes its arrays into buffers its caller made; of its own it
    allocates only vectors of batch or drug length, such as index arrays,
    so the helper thread's memory stays small. A task should not call a
    name the benchmark's tracer wraps (perfbench/spans.py), whose spans nest
    by call order on one thread.
    """
    if not wanted or usable_cpus() < 2:
        yield
        return
    mask = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else set()
    top = {max(mask)} if len(mask) >= 2 else set()
    tasks = SimpleQueue()
    thread = threading.Thread(target=_serve, args=(tasks, top), name="amfpmc-helper", daemon=True)
    thread.start()
    narrowed = bool(top) and _pin(mask - top)
    token = _CURRENT.set(tasks)
    try:
        yield
    finally:
        _CURRENT.reset(token)
        tasks.put(None)
        thread.join()
        if narrowed:
            _pin(mask)
