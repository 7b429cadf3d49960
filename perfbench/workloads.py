"""Workload definitions and seeded input generation.

Each workload fixes an input shape and the hyperparameters of its timed run.
Inputs are index-mode TSV files generated from the seed with the planted
block model of ``amfpmc.synth``; the planted block pairs are remapped onto
the workload's class count with Zipf-skewed class sizes, so every class has
support and a few classes hold most edges, as in the Deng set.

``amfpmc`` is imported inside the functions that need it, so the worker can
time the package import as part of set-up.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, replace

WORKLOADS = ("holdout-paper", "retro-wide", "grid-small")
CLASS_MAP_SEED = 20230207


@dataclass(frozen=True)
class Shape:
    """Input shape: planted blocks remapped onto ``classes`` classes."""

    drugs: int
    blocks: int
    classes: int
    edge_probability: float
    label_noise: float
    mode: str
    # fraction of edges present only in the second snapshot (retrospective)
    held_out: float = 0.0


@dataclass(frozen=True)
class Workload:
    name: str
    shape: Shape
    hp: dict
    k: int = 5
    negative_ratio: float = 1.0
    test_pair_cap: int = 0
    grid: dict = field(default_factory=dict)
    # lowest accepted accuracy / micro_auroc / macro_auroc (see README.md)
    floors: dict = field(default_factory=dict)


# holdout-paper: the paper's 572 drugs, 65 classes and hyperparameters (d=512,
# dropout 0.3, batch 256, lr 0.01, alpha 0.8); one epoch and ~4.8k edges
# (1/8 of the paper's 37k), so one 5-fold evaluation takes a few seconds and
# a run holds enough iterations for a steady median.
HOLDOUT_SHAPE = Shape(
    drugs=572, blocks=20, classes=65, edge_probability=0.03, label_noise=0.05, mode="holdout"
)

_FULL = {
    "holdout-paper": Workload(
        name="holdout-paper",
        shape=HOLDOUT_SHAPE,
        hp=dict(embedding_dim=512, dropout=0.3, epochs=1, batch_size=256,
                learning_rate=0.01, alpha=0.8),
        k=5,
        floors={"accuracy": 0.08, "micro_auroc": 0.74, "macro_auroc": 0.45},
    ),
    # retro-wide: 1,200 drugs, class 0 = no interaction, 1..35 the common
    # phrases, 36 = "other"; T1 = T0 plus 20% held-out edges (~29k T0 edges).
    # The ~661k-pair test universe is enumerated in full by the split and
    # then capped at 10k pairs, so an iteration takes a few seconds. d, epochs
    # and batch as specified; alpha is the CLI default, and class balancing
    # is off (--no-balance): balanced weights push class 0, which is 99% of
    # the test pairs, down ~30x, so accuracy falls to ~0.002 and, with a
    # 40k-pair test set, varied 25% between seeds by counting noise alone.
    "retro-wide": Workload(
        name="retro-wide",
        shape=Shape(drugs=1200, blocks=12, classes=37, edge_probability=0.0504,
                    label_noise=0.05, mode="retrospective", held_out=0.2),
        hp=dict(embedding_dim=64, dropout=0.3, epochs=2, batch_size=1024,
                learning_rate=0.01, alpha=0.6, balance_classes=False),
        negative_ratio=1.0,
        test_pair_cap=10_000,
        floors={"accuracy": 0.65, "micro_auroc": 0.97, "macro_auroc": 0.65},
    ),
    # grid-small: the holdout-paper graph, d=32, alpha x batch_size.
    "grid-small": Workload(
        name="grid-small",
        shape=HOLDOUT_SHAPE,
        hp=dict(embedding_dim=32, dropout=0.3, epochs=2, batch_size=256,
                learning_rate=0.01, alpha=0.8),
        grid={"batch_size": [16, 32, 64, 128, 256, 512], "alpha": [0.2, 0.4, 0.6, 0.8]},
        floors={"accuracy": 0.15, "micro_auroc": 0.76, "macro_auroc": 0.5},
    ),
}

# Tiny shapes for the smoke test and the warm-up: same code paths, well
# under a second per iteration, no quality floors.
_SMOKE_HOLDOUT = Shape(drugs=60, blocks=4, classes=8, edge_probability=0.3,
                       label_noise=0.05, mode="holdout")
_SMOKE = {
    "holdout-paper": replace(_FULL["holdout-paper"], shape=_SMOKE_HOLDOUT,
                             hp={**_FULL["holdout-paper"].hp, "embedding_dim": 16}, floors={}),
    "retro-wide": replace(
        _FULL["retro-wide"],
        shape=Shape(drugs=80, blocks=3, classes=7, edge_probability=0.2,
                    label_noise=0.05, mode="retrospective", held_out=0.2),
        hp={**_FULL["retro-wide"].hp, "embedding_dim": 8},
        test_pair_cap=1_000,
        floors={},
    ),
    "grid-small": replace(_FULL["grid-small"], shape=_SMOKE_HOLDOUT,
                          hp={**_FULL["grid-small"].hp, "embedding_dim": 8},
                          grid={"batch_size": [32, 64], "alpha": [0.2, 0.8]}, floors={}),
}


def get_workload(name: str, smoke: bool = False) -> Workload:
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return (_SMOKE if smoke else _FULL)[name]


def zipf_class_map(n_planted: int, n_classes: int, first_class: int, rng) -> list[int]:
    """Output class of each planted class; class c gets about 1/(c+1) of them.

    Every output class receives at least one planted class, so every class
    has support.
    """
    if n_planted < n_classes:
        raise ValueError(f"{n_planted} planted classes cannot cover {n_classes} classes")
    weights = [1.0 / (c + 1) for c in range(n_classes)]
    total = sum(weights)
    counts = [max(1, round(n_planted * w / total)) for w in weights]
    counts[0] += n_planted - sum(counts)
    targets = [first_class + c for c, cnt in enumerate(counts) for _ in range(cnt)]
    order = rng.permutation(n_planted)
    out = [0] * n_planted
    for slot, planted in enumerate(order):
        out[int(planted)] = targets[slot]
    return out


def _write_edges(path: str, edges) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i, j, c in edges:
            fh.write(f"D{i:04d}\tD{j:04d}\t{c}\n")


def generate_inputs(workload: Workload, seed: int, out_dir: str) -> dict:
    """Write the workload's TSV inputs and manifest to out_dir; return the manifest."""
    import numpy as np

    from amfpmc.synth import SyntheticConfig, generate_synthetic

    shape = workload.shape
    offset = 1 if shape.mode == "retrospective" else 0
    data = generate_synthetic(SyntheticConfig(
        n_drugs=shape.drugs,
        n_blocks=shape.blocks,
        n_classes=shape.blocks**2 + offset,
        edge_probability=shape.edge_probability,
        label_noise=shape.label_noise,
        holdout_fraction=shape.held_out,
        seed=seed,
        mode=shape.mode,
    ))
    B = shape.blocks
    planted = [(g, h) for g in range(B) for h in range(g, B)]
    # The class structure is part of the workload, not of the seed: a fixed
    # generator assigns planted block pairs to classes, and the seed draws
    # the edges, label noise, splits and training randomness.
    rng = np.random.default_rng(CLASS_MAP_SEED)
    remap_list = zipf_class_map(len(planted), shape.classes - offset, offset, rng)
    remap = {g * B + h + offset: remap_list[q] for q, (g, h) in enumerate(planted)}

    os.makedirs(out_dir, exist_ok=True)
    files = {}
    snapshots = [("t0", data.graph_t0)]
    if shape.mode == "retrospective":
        snapshots.append(("t1", data.graph_t1))
    for tag, graph in snapshots:
        path = os.path.join(out_dir, f"{tag}.tsv")
        _write_edges(path, [(i, j, remap[c]) for i, j, c in graph.edge_list()])
        files[tag] = path

    manifest = {
        "workload": workload.name,
        "seed": seed,
        "shape": asdict(shape),
        "files": files,
        "n_classes": shape.classes,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    return manifest
