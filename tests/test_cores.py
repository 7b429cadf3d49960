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


@pytest.fixture
def beside():
    helper = cores.Helper()
    yield helper
    helper.close()


def test_ahead_on_a_busy_helper_leaves_every_item_to_the_caller(beside):
    release = threading.Event()
    blocker = beside.submit(release.wait, 10)
    items = Recorded(5)
    got = []
    for item in beside.ahead(items):
        # the item in hand has been taken, and no later one
        assert len(items.takers) == item + 1
        got.append(item)
    release.set()
    assert blocker.result() is True
    assert got == [0, 1, 2, 3, 4]
    assert items.takers == [threading.get_ident()] * 5


def test_ahead_takes_one_item_beyond_the_one_in_hand(beside):
    items = Recorded(50)
    got = []
    for item in beside.ahead(items):
        assert item + 1 <= len(items.takers) <= item + 2
        got.append(item)
    assert got == list(range(50))


def test_ahead_of_nothing_yields_nothing(beside):
    assert list(beside.ahead(iter(()))) == []


def test_run_beside_raises_the_callers_error_after_the_helpers_part():
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

    helper = cores.Helper()
    try:
        with pytest.raises(ValueError):
            helper.run_beside(part, ("helper",), ("caller",))
        assert events == ["helper done"]
        # with the caller's part clean, the helper's error comes through
        with pytest.raises(KeyError):
            helper.run_beside(lambda who: None if who == "caller" else part(who),
                              ("helper",), ("caller",))
    finally:
        helper.close()


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
        task = beside.submit(np.divide, 1.0, np.zeros(1))
    with pytest.raises(FloatingPointError):
        task.result()
    with np.errstate(divide="ignore"):
        task = beside.submit(np.divide, 1.0, np.zeros(1))
    assert np.isinf(task.result()).all()


def test_helper_not_wanted_is_none():
    with cores.helper(False) as beside:
        assert beside is None and cores.current() is None


def test_one_usable_cpu_gives_no_helper(monkeypatch):
    monkeypatch.setattr(cores, "usable_cpus", lambda: 1)
    before = threading.active_count()
    with cores.helper(True) as beside:
        assert beside is None and threading.active_count() == before


@pytest.mark.skipif(cores.usable_cpus() < 2, reason="a helper needs two usable CPUs")
def test_helper_is_current_inside_its_block_only():
    before = threading.active_count()
    with cores.helper(True) as beside:
        assert cores.current() is beside
        assert threading.active_count() == before + 1
        seen = []  # a thread started inside the block has no current helper
        other = threading.Thread(target=lambda: seen.append(cores.current()))
        other.start()
        other.join()
        assert seen == [None]
    assert cores.current() is None
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
