"""Benchmark entry point for amfpmc.

    python3 perfbench/run.py --workload holdout-paper --seed 1 --seconds 56 --trace 0

Run from the root of a source checkout. It generates the workload's
inputs from the seed, then starts one fresh worker process per iteration
(so import cost and peak RSS belong to that iteration alone) until the
measurement window of ``--seconds`` is used up. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` alternates untraced and traced iterations
and reports the per-layer metrics. ``--workload all`` runs every workload
and prints a table. ``--smoke`` switches to tiny shapes.

Every iteration's output is checked: the report digest must repeat across
iterations and match the reference of the same seed and shape kept in
``.perfbench_out/ledger.json``, quality must clear the workload's floors,
and traced counts must repeat exactly. The last line of standard output is
one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import asdict

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans as tracing  # noqa: E402
from workloads import WORKLOADS, generate_inputs, get_workload  # noqa: E402

OUT_DIR = ".perfbench_out"
RUN_LIMIT_S = 170.0     # hard cap on one invocation, below the 180 s a run may take


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, bad arguments)."""


def _units(bench: dict, key: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in bench[key]}


def code_hash(root: str) -> str:
    """Digest of the package and benchmark sources, recorded in the ledger."""
    h = hashlib.sha256()
    for sub in (os.path.join("src", "amfpmc"), "perfbench"):
        base = os.path.join(root, sub)
        for name in sorted(os.listdir(base)):
            if name.endswith(".py"):
                h.update(name.encode())
                with open(os.path.join(base, name), "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def nproc() -> int:
    """CPUs this process may run on; also the workers' BLAS thread count."""
    return len(os.sched_getaffinity(0))


def machine_record() -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": nproc(),
    }


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    threads = str(nproc())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


class Runner:
    """Starts worker processes one at a time and keeps their results."""

    def __init__(self, root, wl, manifest_path, smoke, warm_manifest_path, work_dir,
                 hard_deadline):
        self.root = root
        self.wl = wl
        self.manifest_path = manifest_path
        self.smoke = smoke
        self.warm_manifest_path = warm_manifest_path
        self.work_dir = work_dir
        self.hard_deadline = hard_deadline
        self.env = child_env(root)
        self.attempted = 0
        self.results: list[dict] = []
        self.failures: list[str] = []   # one entry per failed iteration

    def fail(self, results: list[dict], reason: str) -> None:
        """Mark iterations failed by an output check."""
        for r in results:
            if not r.get("failed"):
                r["failed"] = True
                self.failures.append(f"{r['mode']}: {reason}")

    def child(self, mode: str, warm_up: bool = False) -> dict | None:
        """Run one worker; a warm-up runs the tiny shape and is not kept."""
        path = os.path.join(self.work_dir, f"result-{mode}.json")
        manifest, smoke = ((self.warm_manifest_path, True) if warm_up
                           else (self.manifest_path, self.smoke))
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), manifest,
               self.wl.name, "1" if smoke else "0", mode, path]
        self.attempted += 1
        started = time.perf_counter()
        timeout = self.hard_deadline - started
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=self.root, capture_output=True,
                                  text=True, timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            self.failures.append(f"{mode}: worker exceeded the run time limit")
            return None
        wall = time.perf_counter() - started
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            self.failures.append(f"{mode}: worker exited {proc.returncode}: {tail[0]}")
            return None
        with open(path, encoding="utf-8") as fh:
            res = json.load(fh)
        os.remove(path)
        res["mode"] = mode
        res["wall_s"] = wall
        src = os.path.realpath(os.path.join(self.root, "src"))
        if not os.path.realpath(res["amfpmc_file"]).startswith(src + os.sep):
            self.failures.append(f"{mode}: imported amfpmc from {res['amfpmc_file']}, not {src}")
            return None
        if not warm_up:
            self.results.append(res)
        return res

    def of(self, *modes: str) -> list[dict]:
        return [r for r in self.results if r["mode"] in modes]


def _fits(runner: Runner, deadline: float, modes: tuple[str, ...]) -> bool:
    """True if one more round of these modes should end before the deadline."""
    est = 0.0
    for mode in modes:
        walls = [r["wall_s"] for r in runner.of(mode)]
        est += max(walls) if walls else 0.0
    return time.perf_counter() + est <= deadline


def measure(runner: Runner, seconds: float, trace: bool) -> None:
    # Warm-up on the tiny shape: compiles bytecode and pages in every library
    # the run touches; without it the first timed iteration is slower.
    runner.child("run", warm_up=True)
    deadline = time.perf_counter() + seconds
    modes = ("run", "trace") if trace else ("run",)
    while True:
        for mode in modes:
            runner.child(mode)
        if not _fits(runner, deadline, modes) or len(runner.failures) > 0:
            break


def _reference(ledger: dict, key: str, field: str, value, code: str):
    """The ledger's reference for field, recording value if there is none yet.

    A reference is written once and never overwritten, so a run that fails
    the comparison cannot move it.
    """
    entry = ledger.setdefault(key, {})
    if field not in entry:
        entry[field] = value
        entry.setdefault("code", {})[field] = code
    return entry[field]


def _recorded(ledger: dict, key: str) -> str:
    codes = ledger[key]["code"]
    return (f" (recorded with code {', '.join(sorted(set(codes.values())))}; remove "
            f"{OUT_DIR}/ledger.json to accept a report change that was intended)")


def check_outputs(runner: Runner, ledger: dict, key: str, code: str) -> dict:
    """Apply the output checks; returns the facts that fed them.

    The ledger holds one reference digest and one set of exact counts per
    workload shape and seed, with the code hash each was recorded with. It is
    keyed without the code, so a source change that alters a report fails
    here until the ledger is reset on purpose.
    """
    wl = runner.wl
    iters = runner.of("run", "trace")
    facts: dict = {}
    if iters:
        digest = iters[0]["digest"]
        for r in iters[1:]:
            if r["digest"] != digest:
                runner.fail([r], "report digest differs within the run")
        ref = _reference(ledger, key, "digest", digest, code)
        if ref != digest:
            runner.fail(iters, f"report digest {digest[:12]} differs from the reference "
                               f"{ref[:12]} of this seed and shape{_recorded(ledger, key)}")
        facts["digest"] = digest
        for r in iters:
            for name, floor in wl.floors.items():
                if r[name] is None or r[name] < floor:
                    runner.fail([r], f"{name} {r[name]} below the quality floor {floor}")
    traced = runner.of("trace")
    layer = []
    for r in traced:
        m = tracing.layer_metrics(r["spans"])
        problem = tracing.check_run_identity(m, r["spans"])
        if problem:
            runner.fail([r], problem)
        layer.append(m)
    if layer:
        counts = {c: layer[0][c] for c in tracing.EXACT_COUNTS}
        for r, m in zip(traced[1:], layer[1:]):
            if {c: m[c] for c in tracing.EXACT_COUNTS} != counts:
                runner.fail([r], "counts differ between traced iterations")
        ref = _reference(ledger, key, "counts", counts, code)
        if ref != counts:
            runner.fail(traced, f"counts {counts} differ from the reference {ref}"
                                f"{_recorded(ledger, key)}")
        facts["counts"] = counts
        facts["layer"] = layer
    return facts


def end_to_end_metrics(runner: Runner) -> tuple[dict, dict]:
    runs = runner.of("run")
    first = runs[0]
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "run_s": statistics.median(r["run_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "accuracy": first["accuracy"],
        "micro_auroc": first["micro_auroc"],
        "macro_auroc": first["macro_auroc"],
    }
    samples = {"setup_s": [r["setup_s"] for r in runs], "run_s": [r["run_s"] for r in runs],
               "peak_rss_mb": [r["peak_rss_mb"] for r in runs]}
    return values, samples


def per_layer_metrics(runner: Runner, facts: dict) -> tuple[dict, dict]:
    """The traced iteration with the median traced run time, plus trace overhead."""
    layer = sorted(facts["layer"], key=lambda m: m["trace.run_s"])
    chosen = dict(layer[(len(layer) - 1) // 2])
    untraced = statistics.median(r["run_s"] for r in runner.of("run"))
    chosen["trace.overhead_s"] = chosen["trace.run_s"] - untraced
    return chosen, {"trace.run_s": [m["trace.run_s"] for m in layer],
                    "run_s": [r["run_s"] for r in runner.of("run")]}


def run_workload(root: str, bench: dict, name: str, seed: int, seconds: float,
                 trace: bool, smoke: bool) -> dict:
    started = time.perf_counter()
    wl = get_workload(name, smoke=smoke)
    tag = f"{wl.name}-seed{seed}" + ("-smoke" if smoke else "")
    out_root = os.path.join(root, OUT_DIR)
    in_dir = os.path.join(out_root, "inputs", tag)
    sys.path.insert(0, os.path.join(root, "src"))
    warm_dir = os.path.join(out_root, "inputs", f"{wl.name}-seed{seed}-warmup")
    t = time.perf_counter()
    generate_inputs(wl, seed, in_dir)
    gen_s = time.perf_counter() - t
    generate_inputs(get_workload(name, smoke=True), seed, warm_dir)

    runner = Runner(root, wl, os.path.join(in_dir, "manifest.json"), smoke,
                    os.path.join(warm_dir, "manifest.json"), in_dir, started + RUN_LIMIT_S)
    measure(runner, seconds, trace)

    ledger_path = os.path.join(out_root, "ledger.json")
    ledger = {}
    if os.path.exists(ledger_path):
        with open(ledger_path, encoding="utf-8") as fh:
            ledger = json.load(fh)
    shape = hashlib.sha256(json.dumps(asdict(wl), sort_keys=True).encode()).hexdigest()[:16]
    facts = check_outputs(runner, ledger, f"{tag}|{shape}", code_hash(root))
    with open(ledger_path, "w", encoding="utf-8") as fh:
        json.dump(ledger, fh, indent=1, sort_keys=True)

    key = "per_layer" if trace else "end_to_end"
    units = _units(bench, key)
    values, samples = {}, {}
    if runner.of("run") and (not trace or facts.get("layer")):
        values, samples = (per_layer_metrics(runner, facts) if trace
                           else end_to_end_metrics(runner))
        missing = set(units) - set(values)
        if missing:
            raise BenchError(f"metrics not produced: {sorted(missing)}")
    result = {
        "workload": wl.name,
        "seed": seed,
        "smoke": smoke,
        "trace": int(trace),
        "seconds": seconds,
        "input_generation_s": gen_s,
        "machine": machine_record(),
        "samples": samples,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures,
        "facts": {k: v for k, v in facts.items() if k != "layer"},
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items() if n in values},
    }
    os.makedirs(os.path.join(out_root, "results"), exist_ok=True)
    with open(os.path.join(out_root, "results", f"{tag}-trace{int(trace)}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    if trace:
        os.makedirs(os.path.join(out_root, "spans"), exist_ok=True)
        with open(os.path.join(out_root, "spans", f"{tag}.jsonl"), "w", encoding="utf-8") as fh:
            for r in runner.of("trace"):
                for s in r["spans"]:
                    fh.write(json.dumps(s) + "\n")
    return result


def _print_table(result: dict) -> None:
    counts = {k: len(v) for k, v in result["samples"].items()}
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"samples={counts} attempted={result['attempted']} "
          f"failed={result['failed']} failed_frac={result['failed'] / result['attempted']:.4f}")
    for name, m in result["metrics"].items():
        print(f"{result['workload']:<14} {name:<28} {m['value']:>16.6f} {m['unit']}")
    for reason in result["failures"]:
        print(f"# failed: {reason}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny shapes, for the benchmark's own test")
    args = p.parse_args(argv)

    root = os.getcwd()
    try:
        if not os.path.isfile(os.path.join(root, "src", "amfpmc", "__init__.py")):
            raise BenchError(f"no amfpmc sources under {os.path.join(root, 'src')}; "
                             "run from the root of a source checkout")
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = [run_workload(root, bench, n, args.seed, args.seconds, bool(args.trace),
                                args.smoke) for n in names]
    except (BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print("# machine " + json.dumps(results[0]["machine"], sort_keys=True))
    for r in results:
        _print_table(r)
    if len(results) == 1 and not results[0]["metrics"]:
        print("error: no iteration completed", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    final = results[0]["metrics"] if len(results) == 1 else {
        f"{r['workload']}/{n}": m for r in results for n, m in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": final}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
