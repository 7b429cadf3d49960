"""Training with a helper thread gives the bits of training on one thread.

pipeline.train takes a helper thread (model.step_helper) when the model has
at least HELPER_MIN_PARAMETERS parameters and the process may run on two
CPUs. The runs without it are made in a fresh interpreter pinned to one CPU
with os.sched_setaffinity, the way a one-CPU machine or `taskset -c 0`
runs them.
"""

import hashlib
import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import amfpmc
from amfpmc import model as model_mod
from amfpmc import pipeline
from amfpmc.graph import HOLDOUT, RETROSPECTIVE
from amfpmc.model import DrawnMasks, Hyperparameters
from amfpmc.pipeline import attach_targets, train, training_graph

SRC = os.path.dirname(os.path.dirname(amfpmc.__file__))
TESTS = os.path.dirname(os.path.abspath(__file__))
N_DRUGS, N_CLASSES, DIM = 260, 5, 512

# (mode, training rows, batch size, dropout); 260 rows in batches of 37 end
# in a 1-row batch, 300 in batches of 64 in a 44-row one
CONFIGS = [
    (HOLDOUT, 260, 37, 0.3),
    (HOLDOUT, 260, 37, 0.0),
    (HOLDOUT, 300, 64, 0.3),
    (RETROSPECTIVE, 260, 37, 0.3),
    (RETROSPECTIVE, 300, 64, 0.0),
]

needs_two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="the helper thread needs two usable CPUs",
)


def _run(mode, m, batch, dropout, learning_rate=0.01):
    """Parameters trained on m distinct seeded pairs, two epochs."""
    rng = np.random.default_rng(m + batch)
    keys = rng.choice(N_DRUGS * N_DRUGS, size=4 * m, replace=False)
    i, j = np.divmod(keys, N_DRUGS)
    keep = np.flatnonzero(i < j)[:m]
    low = 0 if mode == HOLDOUT else 1
    labels = rng.integers(low, N_CLASSES, m)
    if mode == RETROSPECTIVE:
        labels[::3] = 0  # sampled no-interaction rows, trained on but not stored
    rows = np.column_stack([i[keep], j[keep], labels])
    graph = training_graph(N_DRUGS, N_CLASSES, mode, rows)
    hp = Hyperparameters(embedding_dim=DIM, dropout=dropout, epochs=2, batch_size=batch,
                         learning_rate=learning_rate, alpha=0.6, seed=m)
    return train(attach_targets(rows, graph, hp.alpha), hp, N_DRUGS, N_CLASSES)


def _digest(config):
    return hashlib.sha256(_run(*config).flat.tobytes()).hexdigest()


def digests():
    return [_digest(config) for config in CONFIGS]


# pins the process to one CPU, checks that no step got drawn masks, and
# prints the digests of CONFIGS
ONE_CPU = """
import json, os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
sys.path.insert(0, sys.argv[1])
import test_step_helper as t
from amfpmc import pipeline
seen = []
backward = pipeline.backward
def recording(*args, **kwargs):
    seen.append(type(kwargs["rng"]).__name__)
    return backward(*args, **kwargs)
pipeline.backward = recording
print(json.dumps({"digests": t.digests(), "rngs": sorted(set(seen))}))
"""


def _recorded_backward(monkeypatch):
    """Record, for each backward call, the rng's type and the live thread count."""
    calls = []
    backward = pipeline.backward

    def recording(*args, **kwargs):
        calls.append((type(kwargs["rng"]), threading.active_count()))
        return backward(*args, **kwargs)

    monkeypatch.setattr(pipeline, "backward", recording)
    return calls


def _task_count():
    return len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None


@needs_two_cpus
def test_helper_and_one_cpu_give_the_same_bits(monkeypatch):
    calls = _recorded_backward(monkeypatch)
    with_helper = digests()
    assert {rng for rng, _ in calls} == {DrawnMasks}
    proc = subprocess.run([sys.executable, "-c", ONE_CPU, TESTS], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC), timeout=300)
    assert proc.returncode == 0, proc.stderr
    one_cpu = json.loads(proc.stdout)
    assert one_cpu["rngs"] == ["Generator"]
    assert one_cpu["digests"] == with_helper


def test_small_model_trains_on_one_thread(monkeypatch):
    calls = _recorded_backward(monkeypatch)
    monkeypatch.setattr(model_mod, "HELPER_MIN_PARAMETERS", N_DRUGS * DIM * 2)
    before = threading.active_count()
    _run(HOLDOUT, 260, 37, 0.3)
    assert calls and all(rng is np.random.Generator and count == before for rng, count in calls)


@needs_two_cpus
def test_no_thread_outlives_train(monkeypatch):
    calls = _recorded_backward(monkeypatch)
    before = threading.active_count(), _task_count()
    _run(HOLDOUT, 300, 64, 0.3)
    assert {count for _, count in calls} == {before[0] + 1}
    assert (threading.active_count(), _task_count()) == before


@needs_two_cpus
def test_helper_errors_reach_the_caller_after_the_helper_stops(monkeypatch):
    # a diverged run raises what a run on one thread raises, and its helper
    # has ended by then
    before = threading.active_count(), _task_count()
    raised = []
    for threshold in (model_mod.HELPER_MIN_PARAMETERS, np.inf):
        monkeypatch.setattr(model_mod, "HELPER_MIN_PARAMETERS", threshold)
        with np.errstate(all="raise"), pytest.raises(ArithmeticError) as info:
            _run(HOLDOUT, 300, 64, 0.3, learning_rate=1e200)
        raised.append(type(info.value))
        assert (threading.active_count(), _task_count()) == before
    assert raised[0] is raised[1] is FloatingPointError


@needs_two_cpus
def test_helper_runs_under_the_callers_error_state(monkeypatch):
    # warnings are errors in this suite: a helper under numpy's default
    # error state would warn, and raise, where the caller ignores
    runs = []
    for threshold in (model_mod.HELPER_MIN_PARAMETERS, np.inf):
        monkeypatch.setattr(model_mod, "HELPER_MIN_PARAMETERS", threshold)
        with np.errstate(all="ignore"):
            runs.append(_run(HOLDOUT, 300, 64, 0.3, learning_rate=1e200).flat)
    assert not np.isfinite(runs[0]).all()
    assert runs[0].tobytes() == runs[1].tobytes()


@needs_two_cpus
def test_concurrent_runs_keep_their_bits(monkeypatch):
    # three runs at once, each on its own thread with its own helper, and a
    # short switch interval: more threads than CPUs, switching inside steps
    monkeypatch.setattr(model_mod, "HELPER_MIN_PARAMETERS", np.inf)
    want = [_digest(config) for config in CONFIGS[:3]]
    monkeypatch.undo()
    calls = _recorded_backward(monkeypatch)
    got = [None] * len(want)

    def run(k):
        got[k] = _digest(CONFIGS[k])

    threads = [threading.Thread(target=run, args=(k,)) for k in range(len(want))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert {rng for rng, _ in calls} == {DrawnMasks}
    assert got == want
