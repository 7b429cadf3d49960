"""One timed iteration of a workload, in a fresh process.

Usage: worker.py <manifest.json> <workload> <smoke 0|1> <run|trace> <result.json>

Set-up (timed as ``setup_s``) imports ``amfpmc``, parses the inputs and
builds the graph(s); ``run`` then goes from the loaded graph(s) to the
report written (``run_s``), calling the library in the order the CLI
subcommand does. ``trace`` does the same with layer wrappers installed and
also returns the spans. Quality numbers and the report digest are taken
after the timed region. The result is written as JSON.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans as tracing  # noqa: E402
from workloads import get_workload  # noqa: E402


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


class _NoSpans:
    """Stand-in recorder for untraced runs: no spans, no wrappers."""

    def span(self, name):
        return contextlib.nullcontext({"counts": {}})


def setup(wl, manifest, rec, formats, pipeline):
    files = manifest["files"]
    K = manifest["n_classes"]
    with rec.span("bench.setup"):
        graphs = []
        for tag in ("t0", "t1") if wl.shape.mode == "retrospective" else ("t0",):
            with rec.span("formats.parse") as sp:
                records = formats.parse_interactions_file(files[tag], "indices")
            sp["counts"] = {"records": len(records)}
            with rec.span("formats.graph"):
                graphs.append(formats.graph_from_index_records(records, wl.shape.mode, K))
        if wl.shape.mode == "retrospective":
            graphs = list(pipeline.reconcile_rosters(*graphs))
    return graphs


def run(wl, manifest, graphs, rec, hp, out_dir, amfpmc):
    """Timed part; returns (digest payload, report or None, grid results or None)."""
    formats, pipeline = amfpmc.formats, amfpmc.pipeline
    seed = manifest["seed"]
    report_path = os.path.join(out_dir, f"report-{os.getpid()}.json")
    with rec.span("bench.run"):
        if wl.name == "holdout-paper":
            result = pipeline.holdout_evaluate(graphs[0], hp, k=wl.k, seed=seed)
            report = result.mean
        elif wl.name == "retro-wide":
            split = pipeline.retrospective_split(
                graphs[0], graphs[1], negative_ratio=wl.negative_ratio, seed=seed,
                test_pair_cap=wl.test_pair_cap,
            )
            report = pipeline.retrospective_evaluate(split, hp)
        else:
            g = graphs[0]
            best, results = pipeline.grid_search(
                g.edge_list(), g.n_drugs, g.n_classes, g.mode, hp,
                pipeline.GridSpec(wl.grid), seed=seed, objective="accuracy",
            )
            report = None
        if report is not None:
            with rec.span("formats.report_write"):
                formats.write_report(report, report_path, "structured")
    if report is not None:
        os.remove(report_path)
        return formats.report_to_dict(report), report, None
    payload = [[sorted(h.__dict__.items()), s] for h, s in results]
    return payload, None, (best, results)


def grid_best_report(graphs, best, seed, pipeline):
    """Validation report of the selected grid candidate (untimed, for AUROC)."""
    import numpy as np

    g = graphs[0]
    train_items, val_items = pipeline.stratified_validation_split(g.edge_list(), 0.2, seed)
    train_graph = pipeline.build_graph(g.n_drugs, g.n_classes, g.mode, train_items)
    labeled = pipeline.attach_targets(train_items, train_graph, best.alpha)
    params = pipeline.train(labeled, best, g.n_drugs, g.n_classes)
    probs = pipeline.score_pairs(params, [(i, j) for i, j, _ in val_items])
    return pipeline.multiclass_report(probs, np.array([c for *_, c in val_items]))


def main(argv: list[str]) -> int:
    manifest_path, workload, smoke, mode, result_path = argv
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    wl = get_workload(workload, smoke=smoke == "1")
    out_dir = os.path.dirname(os.path.abspath(result_path))

    t0 = time.perf_counter()
    import amfpmc
    import amfpmc.formats
    import amfpmc.pipeline

    if mode == "trace":
        rec = tracing.Recorder(run_id=f"{workload}-{manifest['seed']}-{os.getpid()}")
        rec.install(amfpmc.pipeline, amfpmc.metrics)
    else:
        rec = _NoSpans()
    graphs = setup(wl, manifest, rec, amfpmc.formats, amfpmc.pipeline)
    t1 = time.perf_counter()
    out = {
        "setup_s": t1 - t0,
        "amfpmc_file": amfpmc.__file__,
    }
    hp = amfpmc.Hyperparameters(**wl.hp, seed=manifest["seed"])
    t1 = time.perf_counter()
    payload, report, grid = run(wl, manifest, graphs, rec, hp, out_dir, amfpmc)
    t2 = time.perf_counter()
    if mode == "trace":
        rec.remove()
    out["run_s"] = t2 - t1
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["digest"] = _digest(payload)
    if grid is not None:
        best, results = grid
        report = grid_best_report(graphs, best, manifest["seed"], amfpmc.pipeline)
        out["accuracy"] = max(s for _, s in results)
        if report.accuracy != out["accuracy"]:
            raise RuntimeError("recomputed best grid candidate disagrees with grid_search")
    else:
        out["accuracy"] = report.accuracy
    out["micro_auroc"] = report.micro_auroc
    out["macro_auroc"] = report.macro_auroc
    if mode == "trace":
        out["spans"] = rec.spans
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
