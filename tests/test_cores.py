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


@pytest.fixture(params=["helper", "in line"])
def beside(request, monkeypatch):
    """An open helper block's Helper, even on one CPU, or None: no open block, so tasks run in line.

    With no block, no thread may be started.
    """
    before = threading.active_count()
    if request.param == "in line":
        yield None
        assert threading.active_count() == before
        return
    monkeypatch.setattr(cores, "usable_cpus", lambda: 2)
    with cores.helper(True) as helper:
        assert threading.active_count() == before + 1
        yield helper


def test_ahead_on_a_busy_helper_leaves_every_item_to_the_caller(beside):
    release = threading.Event()
    blocker = beside.submit(release.wait, 10) if beside else None
    items = Recorded(5)
    got = []
    for item in cores.ahead(items):
        # the item in hand has been taken, and no later one; in line, the
        # next one is taken before the item in hand is handed over
        assert len(items.takers) == min(item + 1 + (beside is None), 5)
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
    if beside is None:
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


def test_a_task_drops_its_call_once_it_has_run():
    # a finished task that is still held keeps no argument of its call alive,
    # whichever thread ran it: the helper, the caller, or start() in line
    def payloads(n):
        arrays = [np.arange(3.0) for _ in range(n)]
        return arrays, [weakref.ref(a) for a in arrays]

    helper = cores.Helper()
    release = threading.Event()
    blocker = helper.submit(release.wait, 10)
    arrays, refs = payloads(3)
    queued = [helper.submit(np.sum, arrays[0]), helper.submit(np.sum, arrays[1])]
    in_line = cores.start(np.sum, arrays[2])
    del arrays
    assert refs[0]() is not None and refs[1]() is not None and refs[2]() is None
    assert queued[0].result() == 3.0  # run by the caller, the helper being blocked
    assert refs[0]() is None and refs[1]() is not None
    release.set()
    helper.close()  # the helper runs the other before it ends
    assert blocker.result() is True and queued[1].result() == in_line.result() == 3.0
    assert refs[1]() is None


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
    with cores.helper(False) as beside:
        assert beside is None and in_line()


def test_one_usable_cpu_gives_no_helper(monkeypatch):
    monkeypatch.setattr(cores, "usable_cpus", lambda: 1)
    before = threading.active_count()
    with cores.helper(True) as beside:
        assert beside is None and threading.active_count() == before


@pytest.mark.skipif(cores.usable_cpus() < 2, reason="a helper needs two usable CPUs")
def test_helper_takes_tasks_inside_its_block_only():
    before = threading.active_count()
    with cores.helper(True) as beside:
        assert isinstance(beside, cores.Helper) and not in_line()
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
