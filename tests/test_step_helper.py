"""Training with a helper thread gives the bits of training on one thread.

pipeline.train takes a helper thread (cores.helper) when the model has
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
from amfpmc import cores, pipeline
from amfpmc.errors import NonFiniteError
from amfpmc.graph import HOLDOUT, RETROSPECTIVE
from amfpmc.model import HELPER_MIN_PARAMETERS, Hyperparameters, backward, init_model
from amfpmc.pipeline import attach_targets, train, training_graph

SRC = os.path.dirname(os.path.dirname(amfpmc.__file__))
TESTS = os.path.dirname(os.path.abspath(__file__))
N_DRUGS, N_CLASSES, DIM = 260, 5, 512

# retrospective d = 64, the retro-wide width: 1,010 drugs are just above
# HELPER_MIN_PARAMETERS (2**16), and drug 0 is in a third of the rows, so a
# batch's scatter runs about 20 rounds
RETRO_DRUGS, RETRO_DIM = 1010, 64

# (mode, training rows, batch size, dropout[, drugs, width, hub]); 260 rows
# in batches of 37 end in a 1-row batch, 300 in batches of 64 in a 44-row one
CONFIGS = [
    (HOLDOUT, 260, 37, 0.3),
    (HOLDOUT, 260, 37, 0.0),
    (HOLDOUT, 300, 64, 0.3),
    (RETROSPECTIVE, 260, 37, 0.3),
    (RETROSPECTIVE, 300, 64, 0.0),
    (RETROSPECTIVE, 300, 64, 0.3, RETRO_DRUGS, RETRO_DIM, True),
    (RETROSPECTIVE, 300, 64, 0.0, RETRO_DRUGS, RETRO_DIM, True),
]

needs_two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="the helper thread needs two usable CPUs",
)


def _run(mode, m, batch, dropout, n_drugs=N_DRUGS, dim=DIM, hub=False, learning_rate=0.01):
    """Parameters trained on m distinct seeded pairs, two epochs.

    With hub, drug 0 is paired with drugs 1 .. m // 3 and the other rows
    leave it out.
    """
    rng = np.random.default_rng(m + batch)
    keys = rng.choice(n_drugs * n_drugs, size=4 * m, replace=False)
    i, j = np.divmod(keys, n_drugs)
    keep = np.flatnonzero((i < j) & (i > 0) if hub else i < j)[:m]
    i, j = i[keep], j[keep]
    if hub:
        i[: m // 3], j[: m // 3] = 0, np.arange(1, m // 3 + 1)
    low = 0 if mode == HOLDOUT else 1
    labels = rng.integers(low, N_CLASSES, m)
    if mode == RETROSPECTIVE:
        labels[::3] = 0  # sampled no-interaction rows, trained on but not stored
    rows = np.column_stack([i, j, labels])
    graph = training_graph(n_drugs, N_CLASSES, mode, rows)
    hp = Hyperparameters(embedding_dim=dim, dropout=dropout, epochs=2, batch_size=batch,
                         learning_rate=learning_rate, alpha=0.6, seed=m)
    return train(attach_targets(rows, graph, hp.alpha), hp, n_drugs, N_CLASSES)


def _digest(config):
    return hashlib.sha256(_run(*config).flat.tobytes()).hexdigest()


def digests():
    return [_digest(config) for config in CONFIGS]


# pins the process to one CPU, records the live thread count in each
# backward call, and prints it with the digests of CONFIGS
ONE_CPU = """
import json, os, sys, threading
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
sys.path.insert(0, sys.argv[1])
import test_step_helper as t
from amfpmc import pipeline
before = threading.active_count()
seen = []
backward = pipeline.backward
def recording(*args, **kwargs):
    seen.append(threading.active_count())
    return backward(*args, **kwargs)
pipeline.backward = recording
print(json.dumps({"digests": t.digests(), "extra_threads": sorted({n - before for n in seen})}))
"""


def _helper_threads():
    return sum(thread.name == "amfpmc-helper" for thread in threading.enumerate())


def _recorded_backward(monkeypatch):
    """Record, for each backward call, the live thread count and how many of those threads are helpers."""
    calls = []
    backward = pipeline.backward

    def recording(*args, **kwargs):
        calls.append((threading.active_count(), _helper_threads()))
        return backward(*args, **kwargs)

    monkeypatch.setattr(pipeline, "backward", recording)
    return calls


def _task_count():
    return len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None


@needs_two_cpus
def test_helper_and_one_cpu_give_the_same_bits(monkeypatch):
    before = threading.active_count()
    calls = _recorded_backward(monkeypatch)
    with_helper = digests()
    assert set(calls) == {(before + 1, 1)}
    proc = subprocess.run([sys.executable, "-c", ONE_CPU, TESTS], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC), timeout=300)
    assert proc.returncode == 0, proc.stderr
    one_cpu = json.loads(proc.stdout)
    assert one_cpu["extra_threads"] == [0]
    assert one_cpu["digests"] == with_helper


def test_retrospective_d64_shape_is_just_above_the_threshold():
    size = init_model(RETRO_DRUGS, N_CLASSES, Hyperparameters(embedding_dim=RETRO_DIM)).flat.size
    assert HELPER_MIN_PARAMETERS <= size < 1.01 * HELPER_MIN_PARAMETERS


def test_small_model_trains_on_one_thread(monkeypatch):
    # grid-small's model: the paper's 572 drugs at d = 32
    calls = _recorded_backward(monkeypatch)
    before = threading.active_count()
    params = _run(HOLDOUT, 260, 37, 0.3, n_drugs=572, dim=32)
    assert params.flat.size < pipeline.HELPER_MIN_PARAMETERS
    assert calls and set(calls) == {(before, 0)}


@needs_two_cpus
def test_backward_gives_the_same_loss_and_gradients_with_a_helper():
    rng = np.random.default_rng(5)
    params = init_model(300, 7, Hyperparameters(embedding_dim=64, seed=5))
    I = rng.integers(0, 300, 512)
    J = (I + 1 + rng.integers(0, 299, I.size)) % 300
    T = rng.dirichlet(np.ones(7), size=I.size)
    weights = rng.random(7) + 0.5
    masks = [rng.random((I.size, 64)) >= 0.3 for _ in range(2)]
    runs = []
    for wanted in (False, True):
        with cores.helper(wanted):
            assert isinstance(cores.start(int), cores._Ran) != wanted  # in line without a helper
            runs.append(backward(params, I, J, T, weights, dropout=0.3, masks=masks))
    (loss, grads), (helper_loss, helper_grads) = runs
    assert isinstance(helper_loss, float) and helper_loss.hex() == loss.hex()
    assert helper_grads.flat.tobytes() == grads.flat.tobytes()


@needs_two_cpus
def test_no_thread_outlives_train(monkeypatch):
    calls = _recorded_backward(monkeypatch)
    before = threading.active_count(), _task_count()
    _run(HOLDOUT, 300, 64, 0.3)
    assert {count for count, _ in calls} == {before[0] + 1}
    assert (threading.active_count(), _task_count()) == before


@needs_two_cpus
def test_helper_errors_reach_the_caller_after_the_helper_stops(monkeypatch):
    # a diverged run raises what a run on one thread raises, and its helper
    # has ended by then
    before = threading.active_count(), _task_count()
    raised = []
    for threshold in (pipeline.HELPER_MIN_PARAMETERS, np.inf):
        monkeypatch.setattr(pipeline, "HELPER_MIN_PARAMETERS", threshold)
        with np.errstate(all="raise"), pytest.raises(ArithmeticError) as info:
            _run(HOLDOUT, 300, 64, 0.3, learning_rate=1e200)
        raised.append(type(info.value))
        assert (threading.active_count(), _task_count()) == before
    assert raised[0] is raised[1] is FloatingPointError


@needs_two_cpus
def test_helper_runs_under_the_callers_error_state(monkeypatch):
    # warnings are errors in this suite: a helper under numpy's default
    # error state would warn, and raise, where the caller ignores. Both runs
    # diverge to the same bits and are refused after their last step.
    runs = []
    adam_step = pipeline.adam_step

    def recording(params, *args):
        runs[-1] = params.flat
        return adam_step(params, *args)

    monkeypatch.setattr(pipeline, "adam_step", recording)
    for threshold in (pipeline.HELPER_MIN_PARAMETERS, np.inf):
        monkeypatch.setattr(pipeline, "HELPER_MIN_PARAMETERS", threshold)
        runs.append(None)
        with np.errstate(all="ignore"), pytest.raises(NonFiniteError):
            _run(HOLDOUT, 300, 64, 0.3, learning_rate=1e200)
    assert not np.isfinite(runs[0]).all()
    assert runs[0].tobytes() == runs[1].tobytes()


@needs_two_cpus
def test_concurrent_runs_keep_their_bits(monkeypatch):
    # three runs at once, each on its own thread with its own helper, and a
    # short switch interval: more threads than CPUs, switching inside steps
    monkeypatch.setattr(pipeline, "HELPER_MIN_PARAMETERS", np.inf)
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
    # each run's backward calls see its own helper, and at most the other two
    assert calls and {helpers for _, helpers in calls} <= {1, 2, 3}
    assert got == want
