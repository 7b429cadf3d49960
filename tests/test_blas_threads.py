"""amfpmc runs one BLAS thread per process, and leaves the environment as it found it.

Each check runs in a fresh interpreter, because the pin acts only when
``import amfpmc`` is the first thing to load numpy; this test process loaded
numpy long ago.
"""

import json
import os
import subprocess
import sys

import pytest

import amfpmc
from amfpmc.cli import main

SRC = os.path.dirname(os.path.dirname(amfpmc.__file__))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Imports the modules named in argv, then amfpmc, and prints as JSON whether
# `import amfpmc` left os.environ as it was, and the OS threads of the process
# after one BLAS-sized product before it (when argv names a module) and after
# it. /proc/self/task is absent off Linux: the counts are then null.
PROBE = """
import json, os, sys

def threads():
    import numpy as np
    np.ones((256, 512)) @ np.ones((512, 65))
    task = "/proc/self/task"
    return len(os.listdir(task)) if os.path.isdir(task) else None

before = None
for name in sys.argv[1:]:
    __import__(name)
    before = threads()
env = dict(os.environ)
import amfpmc
print(json.dumps({"env_kept": dict(os.environ) == env and list(os.environ) == list(env),
                  "before": before, "after": threads()}))
"""


def _probe(*first):
    # an explicit 2 for OpenBLAS; the other two variables unset
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(OPENBLAS_NUM_THREADS="2", PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", PROBE, *first], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_pins_one_thread_and_restores_the_environment():
    probe = _probe()
    assert probe["env_kept"]
    if probe["after"] is None:
        pytest.skip("no /proc/self/task to count threads in")
    assert probe["after"] == 1


def test_numpy_imported_first_keeps_its_threads():
    probe = _probe("numpy")
    assert probe["env_kept"]
    assert probe["after"] == probe["before"]


def test_model_file_does_not_depend_on_the_thread_count(tmp_path):
    # 2,433 edges in batches of 1,000: without the one-thread pin, OpenBLAS
    # 0.3.31 at 2 threads rounds some products here differently, and the two
    # model files differ from line 3 on
    data = tmp_path / "t0.tsv"
    assert main(["synth", "--n", "200", "--blocks", "4", "--k", "20", "--p", "0.15",
                 "--seed", "1", "--out-t0", str(data)]) == 0
    models = []
    for threads in ("1", "2"):
        out = tmp_path / f"model-{threads}.txt"
        env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "amfpmc.cli", "train", "--interactions", str(data),
             "--mode", "holdout", "--dim", "64", "--batch", "1000", "--epochs", "1",
             "--seed", "3", "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        models.append(out.read_bytes())
    assert models[0] == models[1]
