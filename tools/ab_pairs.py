"""Alternate benchmark iterations of two checkouts on one set of inputs.

    python tools/ab_pairs.py PARENT CHANGE --workload retro-wide --seed 23 --pairs 10

PARENT and CHANGE are the roots of two source checkouts. The workload's
inputs are generated once, with PARENT's perfbench/workloads.py, into a
temporary directory. Each pair then runs PARENT's and CHANGE's own
perfbench/worker.py once each, in fresh processes: parent first in even
pairs, change first in odd ones, after one discarded warm-up iteration of
each. Prints, for setup_s, run_s, cpu_s and peak_rss_mb, each side's median
and quartiles and the number of pairs in which the change is lower, and
whether the report digests agree. cpu_s is the user plus system time of the
whole worker process, set-up included. Nothing is written under either
checkout.

Each worker gets the BLAS thread variables set to the number of usable cores,
as perfbench/run.py sets them. A tree whose amfpmc pins one BLAS thread on
import ignores them; a tree without the pin runs that many threads.

peak_rss_mb moves with the length of the checkout path, so checkouts whose
absolute paths differ in length are refused.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile

METRICS = ("setup_s", "run_s", "cpu_s", "peak_rss_mb")


def worker(root: str, manifest: str, workload: str, work_dir: str) -> dict:
    """One untraced iteration of root's worker; its result JSON, with the worker's cpu_s."""
    result_path = os.path.join(work_dir, "result.json")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    cmd = [sys.executable, os.path.join(root, "perfbench", "worker.py"), manifest, workload,
           "0", "run", result_path]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(cmd, env=env, cwd=root, capture_output=True, text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise RuntimeError(f"worker of {root} exited {proc.returncode}: {tail[0]}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    os.remove(result_path)
    result["cpu_s"] = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    src = os.path.join(root, "src") + os.sep
    if not os.path.realpath(result["amfpmc_file"]).startswith(src):
        raise RuntimeError(f"worker of {root} imported amfpmc from {result['amfpmc_file']}")
    return result


def summary(values: list[float]) -> tuple[float, float, float]:
    """(median, lower quartile, upper quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, default=10)
    args = p.parse_args(argv)

    roots = {side: os.path.realpath(path) for side, path in
             (("parent", args.parent), ("change", args.change))}
    for root in roots.values():
        if not os.path.isfile(os.path.join(root, "perfbench", "worker.py")):
            print(f"error: no perfbench/worker.py under {root}", file=sys.stderr)
            return 2
    if len(roots["parent"]) != len(roots["change"]):
        print(f"error: checkout paths differ in length ({roots['parent']!r}, "
              f"{roots['change']!r}); peak_rss_mb moves with it", file=sys.stderr)
        return 2
    if args.pairs < 1:
        print(f"error: --pairs must be >= 1, got {args.pairs}", file=sys.stderr)
        return 2

    sys.path[:0] = [os.path.join(roots["parent"], "perfbench"), os.path.join(roots["parent"], "src")]
    from workloads import generate_inputs, get_workload

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as work_dir:
        try:
            generate_inputs(get_workload(args.workload), args.seed, work_dir)
            manifest = os.path.join(work_dir, "manifest.json")
            for side in runs:
                worker(roots[side], manifest, args.workload, work_dir)
            for k in range(args.pairs):
                for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                    runs[side].append(worker(roots[side], manifest, args.workload, work_dir))
        except (KeyError, RuntimeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    out = {"workload": args.workload, "seed": args.seed, "pairs": args.pairs,
           "digests_equal": len({r["digest"] for side in runs.values() for r in side}) == 1}
    print(f"# {args.workload} seed={args.seed} pairs={args.pairs} "
          f"digests {'equal' if out['digests_equal'] else 'DIFFER'}")
    print(f"{'metric':<12} {'parent median [q1, q3]':>30} {'change median [q1, q3]':>30} "
          f"{'change lower':>13}")
    for name in METRICS:
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        wins = sum(c < q for q, c in zip(parent, change))
        (pm, p1, p3), (cm, c1, c3) = summary(parent), summary(change)
        print(f"{name:<12} {pm:>12.4f} [{p1:.4f}, {p3:.4f}] {cm:>12.4f} [{c1:.4f}, {c3:.4f}] "
              f"{wins:>7d} of {args.pairs}")
        out[name] = {"parent": parent, "change": change, "change_lower": wins}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
