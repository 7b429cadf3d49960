"""Shared-embedding factorization network over drug pairs.

Both input slots read the same embedding matrix E and the same per-drug bias
vector b, so the network cannot decompose the symmetric adjacency matrix
asymmetrically. For a pair (i, j):

    h        = drop(E[i]) * drop(E[j])          elementwise product
    logits_k = (W h)_k + c_k + u_k * (b[i] + b[j])
    probs    = softmax(logits)

Dropout masks are inverted and drawn independently per slot during training
only; with training off the forward pass is exactly symmetric in (i, j).
Training minimizes class-weighted cross-entropy against soft targets with
hand-written gradients and a plain Adam optimizer, all in float64 so runs are
bitwise reproducible given a seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    EmptyBatchError,
    InvalidConfigError,
    InvalidDimensionsError,
    SelfLoopError,
    ShapeMismatchError,
)
from .graph import Roster
from .propagation import check_alpha

LOG_CLAMP = 1e-12
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
#: Elements per Adam slice (whole rows); any value gives the same bits.
ADAM_BLOCK = 1 << 15


@dataclass
class Hyperparameters:
    """Training knobs; defaults follow the tuned holdout configuration."""

    embedding_dim: int = 512
    dropout: float = 0.3
    epochs: int = 15
    batch_size: int = 256
    learning_rate: float = 0.01
    alpha: float = 0.6
    seed: int = 0
    balance_classes: bool = True

    def validate(self) -> "Hyperparameters":
        if self.embedding_dim < 1:
            raise InvalidDimensionsError("embedding_dim must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise InvalidDimensionsError("dropout must be in [0, 1)")
        if self.epochs < 0:
            raise InvalidDimensionsError("epochs must be >= 0")
        if self.batch_size < 1:
            raise InvalidDimensionsError("batch_size must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise InvalidDimensionsError("learning_rate must be positive and finite")
        check_alpha(self.alpha)
        return self


@dataclass
class ModelParameters:
    """All trainable arrays (or backward's gradients); both slots share embeddings and drug_bias."""

    embeddings: np.ndarray    # (n, d)
    drug_bias: np.ndarray     # (n,)
    class_proj: np.ndarray    # (K, d)
    class_bias: np.ndarray    # (K,)
    bias_coupling: np.ndarray  # (K,)

    @property
    def n_drugs(self) -> int:
        return self.embeddings.shape[0]

    @property
    def n_classes(self) -> int:
        return self.class_proj.shape[0]

    @property
    def embedding_dim(self) -> int:
        return self.embeddings.shape[1]

    def arrays(self) -> list[np.ndarray]:
        return [self.embeddings, self.drug_bias, self.class_proj, self.class_bias, self.bias_coupling]

    def copy(self) -> "ModelParameters":
        return ModelParameters(*(a.copy() for a in self.arrays()))


@dataclass
class OptimizerState:
    """Adam first/second moment accumulators plus the step counter."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0

    @classmethod
    def for_params(cls, params: ModelParameters) -> "OptimizerState":
        return cls(
            m=[np.zeros_like(a) for a in params.arrays()],
            v=[np.zeros_like(a) for a in params.arrays()],
        )


def check_model_dimensions(n_drugs: int, n_classes: int, embedding_dim: int) -> None:
    """The model's dimension rule: n_drugs >= 2, n_classes >= 2, embedding_dim >= 1."""
    if n_drugs < 2:
        raise InvalidDimensionsError("need at least 2 drugs")
    if n_classes < 2:
        raise InvalidDimensionsError("need at least 2 classes")
    if embedding_dim < 1:
        raise InvalidDimensionsError("embedding_dim must be >= 1")


def init_model(
    n_drugs: int,
    n_classes: int,
    hp: Hyperparameters,
    rng: Optional[np.random.Generator] = None,
) -> ModelParameters:
    """Seeded initialization: E, W uniform on +-1/sqrt(d); b, c zero; u one."""
    check_model_dimensions(n_drugs, n_classes, hp.embedding_dim)
    hp.validate()
    if rng is None:
        rng = np.random.default_rng(hp.seed)
    d = hp.embedding_dim
    scale = 1.0 / np.sqrt(d)
    return ModelParameters(
        embeddings=rng.uniform(-scale, scale, size=(n_drugs, d)),
        drug_bias=np.zeros(n_drugs, dtype=np.float64),
        class_proj=rng.uniform(-scale, scale, size=(n_classes, d)),
        class_bias=np.zeros(n_classes, dtype=np.float64),
        bias_coupling=np.ones(n_classes, dtype=np.float64),
    )


def softmax(logits: np.ndarray) -> np.ndarray:
    """exp(z) / sum exp(z) for z = logits - max, in one new array; logits is left as it is."""
    z = logits - logits.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def _as_index_arrays(i, j) -> tuple[np.ndarray, np.ndarray]:
    I = np.atleast_1d(np.asarray(i, dtype=np.int64))
    J = np.atleast_1d(np.asarray(j, dtype=np.int64))
    if I.shape != J.shape:
        raise ShapeMismatchError("pair index arrays differ in shape")
    if np.any(I == J):
        raise SelfLoopError("forward pass on a self pair")
    return I, J


def _drop(x: np.ndarray, mask: np.ndarray, dropout: float) -> None:
    """x *= mask / (1 - dropout), in place and bitwise.

    x * True is x and True / keep is 1.0 / keep, so a kept entry gets the
    same product; a dropped one becomes x * 0.0 either way, sign included.
    """
    x *= mask
    x *= 1.0 / (1.0 - dropout)


def _head(params: ModelParameters, h: np.ndarray, pair_bias: np.ndarray) -> np.ndarray:
    """(B, K) logits h @ W.T + c + u * pair_bias[:, None], summed in that order in place."""
    logits = h @ params.class_proj.T
    logits += params.class_bias
    logits += params.bias_coupling * pair_bias[:, None]
    return logits


def _forward_parts(params: ModelParameters, I: np.ndarray, J: np.ndarray, dropout: float,
                   rng: Optional[np.random.Generator]):
    """Gather both slots, drop out (the i mask drawn before the j mask), multiply, project.

    Returns (Ei, Ej, masks, h, pair_bias, logits): the slot rows after dropout,
    the two boolean keep masks or None, their product, b[i] + b[j] and the
    (B, K) logits.
    """
    Ei = params.embeddings[I]
    Ej = params.embeddings[J]
    masks = None
    if dropout > 0.0:
        if rng is None:
            raise InvalidConfigError("dropout requires an rng")
        masks = (rng.random(Ei.shape) >= dropout, rng.random(Ej.shape) >= dropout)
        _drop(Ei, masks[0], dropout)
        _drop(Ej, masks[1], dropout)
    h = Ei * Ej
    pair_bias = params.drug_bias[I] + params.drug_bias[J]
    return Ei, Ej, masks, h, pair_bias, _head(params, h, pair_bias)


def forward_batch(params: ModelParameters, i, j) -> np.ndarray:
    """Inference logits for a batch of pairs, shape (B, K); symmetric in (i, j).

    The product is formed in the i slot's gather, so two (B, d) arrays are
    live at most, not three as in training.
    """
    I, J = _as_index_arrays(i, j)
    h = params.embeddings[I]
    h *= params.embeddings[J]
    return _head(params, h, params.drug_bias[I] + params.drug_bias[J])


def predict(params: ModelParameters, i: int, j: int) -> np.ndarray:
    """Softmax class distribution for one pair; symmetric in (i, j)."""
    return predict_batch(params, [i], [j])[0]


def predict_batch(params: ModelParameters, i, j) -> np.ndarray:
    """Softmax class distributions for a batch of pairs, shape (B, K)."""
    return softmax(forward_batch(params, i, j))


def _weighted_cross_entropy(probs: np.ndarray, targets: np.ndarray, class_weights: np.ndarray):
    """Per-sample weights w[argmax t] and the batch mean of w * cross_entropy(t, p)."""
    # the weight is looked up at the argmax of the (possibly soft) target
    w = class_weights[np.argmax(targets, axis=1)]
    ce = -(targets * np.log(np.maximum(probs, LOG_CLAMP))).sum(axis=1)
    return w, float(np.mean(w * ce))


def loss(probs: np.ndarray, targets: np.ndarray, class_weights: np.ndarray) -> float:
    """Mean over the batch of w[argmax t] * cross_entropy(t, p)."""
    probs = np.asarray(probs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if probs.shape != targets.shape:
        raise ShapeMismatchError(f"probs {probs.shape} vs targets {targets.shape}")
    if class_weights.shape != (probs.shape[1],):
        raise ShapeMismatchError("class_weights length must equal the class count")
    return _weighted_cross_entropy(probs, targets, class_weights)[1]


def _scatter_rows(index: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """Sum rows[k] into row index[k] of an (n, d) zero matrix, bitwise as np.add.at.

    np.add.at adds in index order, and a stable sort keeps that order within
    each target row. The targets are ranked by occurrence count, most first,
    so those still pending at round r are a prefix of one (targets, d)
    accumulator, and round r adds each one's r-th occurrence with one slice
    +=. Round 0 computes x + 0.0, which is 0.0 + x bitwise, so a -0.0 entry
    lands as +0.0 as in add.at. The dense result is written once, at the end.
    """
    order = np.argsort(index, kind="stable")
    sorted_index = index[order]
    starts = np.flatnonzero(np.r_[True, sorted_index[1:] != sorted_index[:-1]])
    counts = np.diff(starts, append=index.size)
    most_first = np.argsort(-counts, kind="stable")
    starts, counts = starts[most_first], counts[most_first]
    # allocated before the accumulator: the other order left a training run
    # with a higher peak RSS on the benchmark's retrospective workload
    out = np.zeros((n, rows.shape[1]), dtype=np.float64)
    acc = rows[order[starts]]
    acc += 0.0
    # targets with more than r occurrences, for r = 1 .. largest count - 1
    pending = np.searchsorted(-counts, -np.arange(1, counts[0]), "left")
    for r, k in enumerate(pending, 1):
        acc[:k] += rows[order[starts[:k] + r]]
    out[sorted_index[starts]] = acc
    return out


def backward(
    params: ModelParameters,
    i,
    j,
    targets: np.ndarray,
    class_weights: np.ndarray,
    dropout: float = 0.0,
    rng: Optional[np.random.Generator] = None,
) -> tuple[float, ModelParameters]:
    """Loss and exact analytic gradients for one mini-batch, as ModelParameters.

    Shared parameters accumulate contributions from both slots; embedding rows
    and bias entries of drugs absent from the batch keep zero gradient.
    """
    I, J = _as_index_arrays(i, j)
    if I.size == 0:
        raise EmptyBatchError("empty batch")
    T = np.asarray(targets, dtype=np.float64)
    if T.shape != (I.size, params.n_classes):
        raise ShapeMismatchError(f"targets shape {T.shape}, expected {(I.size, params.n_classes)}")
    B = I.size

    Ei, Ej, masks, h, pair_bias, logits = _forward_parts(params, I, J, dropout, rng)
    P = softmax(logits)
    w, batch_loss = _weighted_cross_entropy(P, T, class_weights)

    # d(mean loss)/dlogits; softmax-cross-entropy collapses to w * (p - t) / B
    G = (w[:, None] * (P - T)) / B

    grad_W = G.T @ h
    grad_c = G.sum(axis=0)
    grad_u = (G * pair_bias[:, None]).sum(axis=0)

    # gradient rows of the i slot, then of the j slot, in the order add.at would sum them
    dh = G @ params.class_proj
    dE = np.empty((2 * B, params.embedding_dim), dtype=np.float64)
    np.multiply(dh, Ej, out=dE[:B])
    np.multiply(dh, Ei, out=dE[B:])
    if masks is not None:
        _drop(dE[:B], masks[0], dropout)
        _drop(dE[B:], masks[1], dropout)
    slots = np.concatenate([I, J])
    grad_E = _scatter_rows(slots, dE, params.n_drugs)

    # bincount sums in index order from 0.0, the bits of np.add.at into zeros
    db_pair = G @ params.bias_coupling
    grad_b = np.bincount(slots, weights=np.concatenate([db_pair, db_pair]),
                         minlength=params.n_drugs)

    return batch_loss, ModelParameters(grad_E, grad_b, grad_W, grad_c, grad_u)


def adam_step(
    params: ModelParameters,
    grads: ModelParameters,
    state: OptimizerState,
    learning_rate: float,
) -> tuple[ModelParameters, OptimizerState]:
    """One in-place Adam update with standard constants and bias correction.

    Each array is updated ADAM_BLOCK elements (whole rows) at a time, through
    two scratch buffers, so the live slices stay in cache. Every operation is
    elementwise and runs in the order of
    p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), so the result does not
    depend on the block size.
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for p, g, m, v in zip(params.arrays(), grads.arrays(), state.m, state.v):
        if p.shape != g.shape:
            raise ShapeMismatchError("gradient shape disagrees with parameter shape")
        rows = min(len(p), max(1, ADAM_BLOCK // max(1, p[0].size)))
        buffers = np.empty((2, rows) + p.shape[1:], dtype=np.float64)
        for lo in range(0, len(p), rows):
            ps, gs, ms, vs = (x[lo : lo + rows] for x in (p, g, m, v))
            num, den = buffers[:, : len(ps)]
            ms *= ADAM_BETA1
            ms += np.multiply(1.0 - ADAM_BETA1, gs, out=num)
            vs *= ADAM_BETA2
            vs += np.multiply(1.0 - ADAM_BETA2, np.square(gs, out=num), out=num)
            np.multiply(learning_rate, np.divide(ms, bc1, out=num), out=num)
            np.add(np.sqrt(np.divide(vs, bc2, out=den), out=den), ADAM_EPS, out=den)
            ps -= np.divide(num, den, out=num)
    return params, state


def gradient_check(
    params: ModelParameters,
    i,
    j,
    targets: np.ndarray,
    class_weights: np.ndarray,
    eps: float = 1e-5,
) -> float:
    """Max relative error of analytic vs central finite-difference gradients.

    Dropout must be off (the loss has to be a deterministic function of the
    parameters). Relative error uses a small absolute floor so that exactly
    untouched parameters compare as zero against zero.
    """
    _, analytic = backward(params, i, j, targets, class_weights)

    def loss_at() -> float:
        probs = predict_batch(params, i, j)
        return loss(probs, targets, class_weights)

    worst = 0.0
    for arr, g in zip(params.arrays(), analytic.arrays()):
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            up = loss_at()
            flat[idx] = orig - eps
            down = loss_at()
            flat[idx] = orig
            numeric = (up - down) / (2.0 * eps)
            denom = max(abs(gflat[idx]) + abs(numeric), 1e-6)
            worst = max(worst, abs(gflat[idx] - numeric) / denom)
    return worst


def export_embeddings(params: ModelParameters, roster: Roster) -> tuple[list[str], np.ndarray]:
    """External ids paired with a copy of the embedding matrix, roster order."""
    if len(roster) != params.n_drugs:
        raise ShapeMismatchError("roster size disagrees with the embedding row count")
    return roster.external_ids, params.embeddings.copy()
