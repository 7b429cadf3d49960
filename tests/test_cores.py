"""The helper thread module: task order, who runs what, errors and the one-CPU rule."""

import os
import subprocess
import sys
import threading
import time
import weakref

import numpy as np
import pytest

import amfpmc
from amfpmc import cores

SRC = os.path.dirname(os.path.dirname(amfpmc.__file__))


class Recorded:
    """An iterator over range(n) that records which thread took each item."""

    def __init__(self, n):
        self.items = iter(range(n))
        self.takers = []

    def __iter__(self):
        return self

    def __next__(self):
        item = next(self.items)
        self.takers.append(threading.get_ident())
        return item


def _open_helper(monkeypatch):
    """A helper block, even on one CPU."""
    monkeypatch.setattr(cores, "usable_cpus", lambda: 2)
    return cores.helper(True)


@pytest.fixture(params=["helper", "in line"])
def beside(request, monkeypatch):
    """Whether a helper block is open, even on one CPU: with none, tasks run in line.

    With no block, no thread may be started.
    """
    before = threading.active_count()
    if request.param == "in line":
        yield False
        assert threading.active_count() == before
        return
    with _open_helper(monkeypatch):
        assert threading.active_count() == before + 1
        yield True


def test_ahead_on_a_busy_helper_leaves_every_item_to_the_caller(beside):
    release = threading.Event()
    blocker = cores.start(release.wait, 10) if beside else None
    items = Recorded(5)
    got = []
    for item in cores.ahead(items):
        # the item in hand has been taken, and no later one; in line, the
        # next one is taken before the item in hand is handed over
        assert len(items.takers) == min(item + 1 + (not beside), 5)
        got.append(item)
    release.set()
    assert blocker is None or blocker.result() is True
    assert got == [0, 1, 2, 3, 4]
    assert items.takers == [threading.get_ident()] * 5


def test_ahead_takes_one_item_beyond_the_one_in_hand(beside):
    items = Recorded(50)
    got = []
    for item in cores.ahead(items):
        assert item + 1 <= len(items.takers) <= item + 2
        got.append(item)
    assert got == list(range(50))
    if not beside:
        assert set(items.takers) == {threading.get_ident()}


def test_ahead_of_nothing_yields_nothing(beside):
    assert list(cores.ahead(iter(()))) == []


def test_run_beside_raises_the_callers_error_after_the_helpers_part(beside):
    events = []
    started = threading.Event()

    def part(who):
        if who == "helper":
            started.set()
            time.sleep(0.05)
            events.append("helper done")
            raise KeyError(who)
        started.wait(10)
        raise ValueError(who)

    with pytest.raises(ValueError):
        cores.run_beside(part, ("helper",), ("caller",))
    assert events == ["helper done"]
    # with the caller's part clean, the helper's error comes through
    with pytest.raises(KeyError):
        cores.run_beside(lambda who: None if who == "caller" else part(who), ("helper",), ("caller",))


def test_a_task_drops_its_call_once_it_has_run(monkeypatch):
    # a finished task that is still held keeps no argument of its call alive,
    # whichever thread ran it: the helper, the caller, or start() in line
    arrays = [np.arange(3.0) for _ in range(3)]
    refs = [weakref.ref(a) for a in arrays]
    in_line = cores.start(np.sum, arrays[2])
    release = threading.Event()
    with _open_helper(monkeypatch):
        blocker = cores.start(release.wait, 10)
        queued = [cores.start(np.sum, arrays[0]), cores.start(np.sum, arrays[1])]
        del arrays
        assert refs[0]() is not None and refs[1]() is not None and refs[2]() is None
        assert queued[0].result() == 3.0  # run by the caller, the helper being blocked
        assert refs[0]() is None and refs[1]() is not None
        release.set()
    # the helper runs the other before the block ends
    assert blocker.result() is True and queued[1].result() == in_line.result() == 3.0
    assert refs[1]() is None


def test_the_helper_waits_for_a_task_the_caller_took_then_runs_the_next(monkeypatch):
    # the caller takes a task while the helper is blocked, and releases the
    # helper from inside it: the helper reaches the task while it runs
    events = []
    release = threading.Event()

    def taken():
        events.append(("taken", threading.get_ident()))
        release.set()
        time.sleep(0.05)
        events.append(("taken done", threading.get_ident()))
        return "value"

    def after():
        events.append(("after", threading.get_ident()))

    with _open_helper(monkeypatch):
        blocker = cores.start(release.wait, 10)
        task = cores.start(taken)
        cores.start(after)
        assert task.result() == "value"
    me = threading.get_ident()
    [(_, helper_thread)] = [event for event in events if event[0] == "after"]
    assert events == [("taken", me), ("taken done", me), ("after", helper_thread)]
    assert helper_thread != me and blocker.result() is True
    assert task.result() == "value" and len(events) == 3  # not run again, its result kept


def test_tasks_run_under_the_submitters_error_state(beside):
    with np.errstate(divide="raise"):
        task = cores.start(np.divide, 1.0, np.zeros(1))
    with pytest.raises(FloatingPointError):
        task.result()
    with np.errstate(divide="ignore"):
        task = cores.start(np.divide, 1.0, np.zeros(1))
    assert np.isinf(task.result()).all()


def in_line():
    """Whether a start() task on this thread runs in line: no helper block is open here."""
    return isinstance(cores.start(int), cores._Ran)


def test_helper_not_wanted_is_none():
    with cores.helper(False):
        assert in_line()


def test_one_usable_cpu_gives_no_helper(monkeypatch):
    monkeypatch.setattr(cores, "usable_cpus", lambda: 1)
    before = threading.active_count()
    with cores.helper(True):
        assert in_line() and threading.active_count() == before


def test_helper_takes_tasks_inside_its_block_only(monkeypatch):
    before = threading.active_count()
    with _open_helper(monkeypatch):
        assert not in_line()
        assert threading.active_count() == before + 1
        seen = []  # a thread started inside the block runs its tasks in line
        other = threading.Thread(target=lambda: seen.append(in_line()))
        other.start()
        other.join()
        assert seen == [True]
    assert in_line()
    assert threading.active_count() == before


def test_importing_the_cli_loads_no_logging_or_futures():
    # concurrent.futures imports logging, which costs set-up time in every run
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, amfpmc.cli; print(sorted({'logging', 'concurrent.futures'} & set(sys.modules)))"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
