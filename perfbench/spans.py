"""In-memory span recorder, layer-boundary wrappers and per-layer metrics.

A span records its name, start, end, parent span and run id, plus counts
taken at the boundary (pairs, edges, scores). Wrappers are installed on the
names ``amfpmc.pipeline`` binds for its layer calls, and on the ranking
functions ``amfpmc.metrics`` calls internally, then removed after the run;
nothing under ``src/`` changes. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Callable, Optional

# (module attribute, span name, counts taken from (args, result))
PIPELINE_WRAPS: list[tuple[str, str, Optional[Callable]]] = [
    ("build_graph", "graph.build", lambda a, r: {"edges": r.num_edges}),
    ("attach_targets", "propagation.targets", lambda a, r: {"pairs": len(a[0])}),
    ("train", "pipeline.train", None),
    ("init_model", "model.init", None),
    ("backward", "model.backward", None),
    ("adam_step", "model.adam", None),
    ("score_pairs", "model.score",
     lambda a, r: {"pairs": len(a[1]), "bytes": 3 * len(a[1]) * a[0].embedding_dim * 8}),
    ("multiclass_report", "metrics.report", None),
    ("retrospective_split", "pipeline.split", None),
    ("reconcile_rosters", "pipeline.reconcile", None),
]
METRICS_WRAPS: list[tuple[str, str, Optional[Callable]]] = [
    ("roc_auc", "metrics.roc_auc", lambda a, r: {"scores": len(a[0])}),
    ("average_precision", "metrics.average_precision", lambda a, r: {"scores": len(a[0])}),
    ("midranks", "metrics.midranks", None),
]


class Recorder:
    """Collects spans of one process; ``span`` nests by call order."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str, counter: Optional[Callable] = None) -> None:
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = original(*args, **kwargs)
            if counter is not None:
                record["counts"] = counter(args, result)
            return result

        self._installed.append((module, attr, original))
        setattr(module, attr, traced)

    def install(self, pipeline_module, metrics_module) -> None:
        for attr, name, counter in PIPELINE_WRAPS:
            self.wrap(pipeline_module, attr, name, counter)
        for attr, name, counter in METRICS_WRAPS:
            self.wrap(metrics_module, attr, name, counter)

    def remove(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)


def _durations(spans: list[dict]) -> tuple[dict[int, float], dict[int, float]]:
    total = {s["id"]: s["end"] - s["start"] for s in spans}
    self_time = dict(total)
    for s in spans:
        if s["parent"] is not None:
            self_time[s["parent"]] -= total[s["id"]]
    return total, self_time


# The run-phase layer self times; with pipeline.self_s they sum to trace.run_s.
RUN_PHASE_PARTS = (
    "pipeline.self_s",
    "pipeline.split_s",
    "pipeline.train_self_s",
    "graph.build_s",
    "propagation.targets_s",
    "model.self_s",
    "metrics.report_s",
    "formats.report_write_s",
)


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced iteration (root spans bench.setup, bench.run)."""
    total, self_time = _durations(spans)

    def tot(name: str) -> float:
        return sum(total[s["id"]] for s in spans if s["name"] == name)

    def own(name: str) -> float:
        return sum(self_time[s["id"]] for s in spans if s["name"] == name)

    def calls(name: str) -> int:
        return sum(1 for s in spans if s["name"] == name)

    def count(name: str, key: str) -> int:
        return sum(s["counts"].get(key, 0) for s in spans if s["name"] == name)

    m: dict[str, float] = {
        "formats.parse_s": tot("formats.parse"),
        "formats.records": count("formats.parse", "records"),
        "formats.graph_s": tot("formats.graph"),
        "formats.report_write_s": tot("formats.report_write"),
        "graph.build_s": tot("graph.build"),
        "graph.build_calls": calls("graph.build"),
        "graph.edges_added": count("graph.build", "edges"),
        "pipeline.reconcile_s": tot("pipeline.reconcile"),
        "pipeline.split_s": tot("pipeline.split"),
        "pipeline.train_self_s": own("pipeline.train"),
        "pipeline.self_s": own("bench.run"),
        "propagation.targets_s": tot("propagation.targets"),
        "propagation.pairs": count("propagation.targets", "pairs"),
        "model.init_s": tot("model.init"),
        "model.backward_s": tot("model.backward"),
        "model.adam_s": tot("model.adam"),
        "model.steps": calls("model.adam"),
        "model.score_s": tot("model.score"),
        "model.scored_pairs": count("model.score", "pairs"),
        "model.score_bytes_computed": count("model.score", "bytes"),
        "metrics.report_s": tot("metrics.report"),
        "metrics.report_calls": calls("metrics.report"),
        "metrics.scores_ranked": count("metrics.roc_auc", "scores")
        + count("metrics.average_precision", "scores"),
        "metrics.roc_auc_s": tot("metrics.roc_auc"),
        "metrics.average_precision_s": tot("metrics.average_precision"),
        "metrics.midranks_s": tot("metrics.midranks"),
        "trace.setup_s": tot("bench.setup"),
        "trace.run_s": tot("bench.run"),
    }
    targets_s = m["propagation.targets_s"]
    m["propagation.pairs_per_s"] = m["propagation.pairs"] / targets_s if targets_s > 0 else 0.0
    m["model.self_s"] = m["model.init_s"] + m["model.backward_s"] + m["model.adam_s"] + m["model.score_s"]
    steps = m["model.steps"]
    m["model.step_ms"] = 1000.0 * (m["model.backward_s"] + m["model.adam_s"]) / steps if steps else 0.0
    return m


# Exact counts: each must repeat bit for bit across runs of one seed.
EXACT_COUNTS = (
    "model.steps",
    "propagation.pairs",
    "model.scored_pairs",
    "metrics.scores_ranked",
    "graph.edges_added",
    "formats.records",
)


# Spans that may sit directly under bench.run.
_RUN_CHILDREN = {
    "graph.build", "propagation.targets", "pipeline.train", "model.score",
    "metrics.report", "pipeline.split", "formats.report_write",
}


def check_run_identity(m: dict[str, float], spans: list[dict]) -> Optional[str]:
    """None if run-phase self times tile trace.run_s, else the reason they do not."""
    run_children = {s["id"] for s in spans if s["name"] == "bench.run"}
    unknown = {
        s["name"] for s in spans
        if s["parent"] in run_children and s["name"] not in _RUN_CHILDREN
    }
    if unknown:
        return f"unexpected spans directly under bench.run: {sorted(unknown)}"
    parts = sum(m[p] for p in RUN_PHASE_PARTS)
    if abs(parts - m["trace.run_s"]) > 1e-6 * max(1.0, m["trace.run_s"]):
        return f"layer self times sum to {parts:.9f} s, traced run is {m['trace.run_s']:.9f} s"
    return None
