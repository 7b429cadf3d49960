"""Typed stochastic block model used as a desk-scale oracle.

Drugs are partitioned into contiguous blocks; every unordered block pair
(g, h) with g <= h owns one fixed interaction class, so block membership is
a closed-form ground truth for every evaluation. Edges are sampled
independently, a noise fraction gets a wrong class, and a held-out fraction
is present only in the second snapshot (T1 = T0 plus held-out edges).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError
from .graph import HOLDOUT, RETROSPECTIVE, Roster, TypedInteractionGraph, check_mode


@dataclass(frozen=True)
class SyntheticConfig:
    """Block-model shape and noise, checked when built (constructor or dataclasses.replace)."""

    n_drugs: int = 200
    n_blocks: int = 4
    n_classes: int = 16
    edge_probability: float = 0.3
    label_noise: float = 0.0
    holdout_fraction: float = 0.2
    seed: int = 0
    mode: str = HOLDOUT

    def __post_init__(self):
        check_mode(self.mode)
        if self.n_blocks < 1 or self.n_drugs < 2 * self.n_blocks:
            raise InvalidConfigError("need n_blocks >= 1 and at least 2 drugs per block")
        required = self.n_blocks**2 + (1 if self.mode == RETROSPECTIVE else 0)
        if self.n_classes < required:
            raise InvalidConfigError(
                f"{self.n_blocks} blocks need at least {required} classes, got {self.n_classes}"
            )
        if not 0.0 <= self.edge_probability <= 1.0:
            raise InvalidConfigError("edge_probability must be in [0, 1]")
        if not 0.0 <= self.label_noise < 1.0:
            raise InvalidConfigError("label_noise must be in [0, 1)")
        if self.label_noise > 0.0 and self.n_blocks * (self.n_blocks + 1) // 2 < 2:
            raise InvalidConfigError("label noise needs at least 2 planted classes")
        if not 0.0 <= self.holdout_fraction < 1.0:
            raise InvalidConfigError("holdout_fraction must be in [0, 1)")
        if self.seed < 0:
            raise InvalidConfigError(f"seed must be >= 0, got {self.seed}")

    @property
    def class_offset(self) -> int:
        return 1 if self.mode == RETROSPECTIVE else 0


@dataclass
class SyntheticData:
    """Two snapshots plus the planted ground truth.

    held_out holds the (i, j, class) rows present only in T1, i < j, in
    ascending (i, j) order.
    """

    config: SyntheticConfig
    graph_t0: TypedInteractionGraph
    graph_t1: TypedInteractionGraph
    block_of: np.ndarray
    held_out: np.ndarray

    def block_pair_class(self, g: int, h: int) -> int:
        """Planted class of block pair (g, h), order-insensitive."""
        g, h = min(g, h), max(g, h)
        return g * self.config.n_blocks + h + self.config.class_offset


def synthetic_roster(n_drugs: int) -> Roster:
    return Roster([f"D{i:04d}" for i in range(n_drugs)])


def generate_synthetic(cfg: SyntheticConfig) -> SyntheticData:
    """Sample the two snapshots; deterministic given cfg.seed."""
    rng = np.random.default_rng(cfg.seed)
    n, B = cfg.n_drugs, cfg.n_blocks
    block_of = (np.arange(n) * B) // n

    iu, ju = np.triu_indices(n, k=1)
    sampled = rng.random(iu.size) < cfg.edge_probability
    iu, ju = iu[sampled], ju[sampled]
    g = np.minimum(block_of[iu], block_of[ju])
    h = np.maximum(block_of[iu], block_of[ju])
    classes = g * B + h + cfg.class_offset

    if cfg.label_noise > 0.0 and iu.size:
        # corrupt between planted classes only, never into indices the block
        # map does not use
        used = np.array(
            sorted({g_ * B + h_ + cfg.class_offset for g_ in range(B) for h_ in range(g_, B)}),
            dtype=np.int64,
        )
        noisy = rng.random(iu.size) < cfg.label_noise
        current_pos = np.searchsorted(used, classes[noisy])
        wrong_pos = rng.integers(0, used.size - 1, size=int(noisy.sum()))
        wrong_pos = wrong_pos + (wrong_pos >= current_pos)
        classes = classes.copy()
        classes[noisy] = used[wrong_pos]

    m = iu.size
    order = rng.permutation(m)
    n_held = int(round(cfg.holdout_fraction * m))
    held_idx = order[:n_held]
    kept_idx = order[n_held:]

    roster = synthetic_roster(n)
    edges = np.column_stack([iu, ju, classes])
    t0 = TypedInteractionGraph(n, cfg.n_classes, cfg.mode, edges[kept_idx], roster=roster)
    t1 = TypedInteractionGraph(n, cfg.n_classes, cfg.mode, edges, roster=roster)
    return SyntheticData(cfg, t0, t1, block_of, edges[np.sort(held_idx)])
