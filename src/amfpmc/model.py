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
bitwise reproducible given a seed. backward takes a step's keep masks (and,
if made ahead, its scatter plan) from its caller, and fills the gradient
holder it is handed, one per training run. Through cores, a helper
thread may compute backward's head gradients and loss while the caller
computes the embedding gradients, and run half of each Adam update; none of
it changes a bit, and every matrix product runs whole on one thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import cores
from .errors import (
    EmptyBatchError,
    InvalidConfigError,
    InvalidDimensionsError,
    ShapeMismatchError,
)
from .graph import check_pairs
from .propagation import check_alpha

LOG_CLAMP = 1e-12
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
#: Elements per Adam slice; any value gives the same bits.
ADAM_BLOCK = 1 << 15
#: Parameter count from which a training run takes a helper thread.
HELPER_MIN_PARAMETERS = 1 << 16


@dataclass(frozen=True)
class Hyperparameters:
    """Training knobs; defaults follow the tuned holdout configuration.

    Checked when built, by the constructor or dataclasses.replace, so every
    instance is valid.
    """

    embedding_dim: int = 512
    dropout: float = 0.3
    epochs: int = 15
    batch_size: int = 256
    learning_rate: float = 0.01
    alpha: float = 0.6
    seed: int = 0
    balance_classes: bool = True

    def __post_init__(self):
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
        if self.seed < 0:
            raise InvalidConfigError(f"seed must be >= 0, got {self.seed}")


def parameter_shapes(n_drugs: int, n_classes: int, embedding_dim: int) -> list[tuple[int, ...]]:
    """Shapes of E, b, W, c and u, in the order they lie in ModelParameters.flat."""
    return [(n_drugs, embedding_dim), (n_drugs,), (n_classes, embedding_dim), (n_classes,), (n_classes,)]


class ModelParameters:
    """All trainable arrays (or backward's gradients) as views of one float64 vector.

    flat holds E (n, d), b (n,), W (K, d), c (K,) and u (K,) one after the
    other; it defaults to zeros. Both slots share embeddings and drug_bias.
    """

    def __init__(self, n_drugs: int, n_classes: int, embedding_dim: int,
                 flat: Optional[np.ndarray] = None):
        shapes = parameter_shapes(n_drugs, n_classes, embedding_dim)
        ends = np.cumsum([math.prod(shape) for shape in shapes])
        self.flat = np.zeros(ends[-1], dtype=np.float64) if flat is None else flat
        if self.flat.shape != (ends[-1],) or self.flat.dtype != np.float64:
            raise ShapeMismatchError(f"flat parameters {self.flat.dtype} {self.flat.shape}, "
                                     f"expected float64 ({ends[-1]},)")
        (self.embeddings, self.drug_bias, self.class_proj, self.class_bias,
         self.bias_coupling) = (part.reshape(shape) for part, shape in
                                zip(np.split(self.flat, ends[:-1]), shapes))

    def __reduce__(self):
        # pickled as the vector, so the views are rebuilt onto the copy
        return ModelParameters, (self.n_drugs, self.n_classes, self.embedding_dim, self.flat)

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


@dataclass
class OptimizerState:
    """Adam first/second moment vectors, laid out as ModelParameters.flat, plus the step counter."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def for_params(cls, params: ModelParameters) -> "OptimizerState":
        return cls(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat))


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
    if rng is None:
        rng = np.random.default_rng(hp.seed)
    d = hp.embedding_dim
    scale = 1.0 / np.sqrt(d)
    params = ModelParameters(n_drugs, n_classes, d)
    params.embeddings[...] = rng.uniform(-scale, scale, size=(n_drugs, d))
    params.class_proj[...] = rng.uniform(-scale, scale, size=(n_classes, d))
    params.bias_coupling[...] = 1.0
    return params


def softmax(logits: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """exp(z) / sum exp(z) for z = logits - max, written to out.

    out defaults to one new array, which leaves logits as it is; out=logits
    normalizes in place, to the same bits.
    """
    z = np.subtract(logits, logits.max(axis=-1, keepdims=True), out=out)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def _drop(x: np.ndarray, mask: np.ndarray, dropout: float) -> None:
    """x *= mask / (1 - dropout), in place and bitwise.

    x * True is x and True / keep is 1.0 / keep, so a kept entry gets the
    same product; a dropped one becomes x * 0.0 either way, sign included.
    """
    x *= mask
    x *= 1.0 / (1.0 - dropout)


def _head(params: ModelParameters, h: np.ndarray, pair_bias: np.ndarray) -> np.ndarray:
    """(B, K) logits h @ W.T + c + u * pair_bias[:, None], summed in that order."""
    logits = h @ params.class_proj.T
    logits += params.class_bias
    logits += params.bias_coupling * pair_bias[:, None]
    return logits


def _forward_parts(params: ModelParameters, I: np.ndarray, J: np.ndarray, dropout: float, masks):
    """Gather both slots in one array, drop out, multiply, project.

    masks is the i slot's keep mask, then the j slot's. Returns (slots, h,
    pair_bias, logits): the (2B, d) slot rows after dropout, the j slot's
    over the i slot's, the product of the halves, b[i] + b[j] and the (B, K)
    logits.
    """
    B = I.size
    slots = params.embeddings[np.concatenate([J, I])]
    Ej, Ei = slots[:B], slots[B:]
    if dropout > 0.0:
        _drop(Ei, masks[0], dropout)
        _drop(Ej, masks[1], dropout)
    h = Ei * Ej
    pair_bias = params.drug_bias[I] + params.drug_bias[J]
    return slots, h, pair_bias, _head(params, h, pair_bias)


def forward_batch(params: ModelParameters, i, j) -> np.ndarray:
    """Inference logits for a batch of pairs, shape (B, K); symmetric in (i, j).

    The j rows are multiplied into the i slot's gather, so two (B, d) arrays
    are live, not three as in training.
    """
    I, J = check_pairs(i, j, params.n_drugs)
    h = params.embeddings[I]
    h *= params.embeddings[J]
    return _head(params, h, params.drug_bias[I] + params.drug_bias[J])


def predict(params: ModelParameters, i: int, j: int) -> np.ndarray:
    """Softmax class distribution for one pair; symmetric in (i, j)."""
    return predict_batch(params, [i], [j])[0]


def predict_batch(params: ModelParameters, i, j) -> np.ndarray:
    """Softmax class distributions for a batch of pairs, shape (B, K).

    The logits are normalized in place, so no second (B, K) array is held.
    """
    logits = forward_batch(params, i, j)
    return softmax(logits, out=logits)


def _sample_weights(targets: np.ndarray, class_weights: np.ndarray) -> np.ndarray:
    """w[argmax t] per sample: the weight is looked up at the argmax of the (possibly soft) target."""
    return class_weights[np.argmax(targets, axis=1)]


def _mean_weighted_ce(probs: np.ndarray, targets: np.ndarray, w: np.ndarray,
                      out: Optional[np.ndarray] = None) -> float:
    """The batch mean of w * cross_entropy(t, p); out=probs computes it in place of probs."""
    logs = np.log(np.maximum(probs, LOG_CLAMP, out=out), out=out)
    ce = -np.multiply(targets, logs, out=out).sum(axis=1)
    return float(np.mean(w * ce))


def loss(probs: np.ndarray, targets: np.ndarray, class_weights: np.ndarray) -> float:
    """Mean over the batch of w[argmax t] * cross_entropy(t, p)."""
    probs = np.asarray(probs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if probs.shape != targets.shape:
        raise ShapeMismatchError(f"probs {probs.shape} vs targets {targets.shape}")
    if class_weights.shape != (probs.shape[1],):
        raise ShapeMismatchError("class_weights length must equal the class count")
    return _mean_weighted_ce(probs, targets, _sample_weights(targets, class_weights))


def _scatter_plan(index: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """(targets, rounds): how _scatter_planned sums rows[k] into row index[k] of out, bitwise as np.add.at.

    np.add.at adds in index order, and a stable sort keeps that order within
    each target row. The targets are ranked by occurrence count, most first,
    so those still pending at round r are a prefix of them, and rounds[r]
    holds the positions in index of their r-th occurrences. The plan reads
    index alone, so it can be made before the rows exist.
    """
    order = np.argsort(index, kind="stable")
    sorted_index = index[order]
    starts = np.flatnonzero(np.r_[True, sorted_index[1:] != sorted_index[:-1]])
    counts = np.diff(starts, append=index.size)
    most_first = np.argsort(-counts, kind="stable")
    starts, counts = starts[most_first], counts[most_first]
    # targets with more than r occurrences, for r = 0 .. largest count - 1
    pending = np.searchsorted(-counts, -np.arange(counts[0]), "left")
    return sorted_index[starts], [order[starts[:k] + r] for r, k in enumerate(pending)]


def _scatter_planned(plan, rows: np.ndarray, out: np.ndarray) -> None:
    """Sum rows into out, an (n, d) zero matrix, as the _scatter_plan plan says.

    One (targets, d) accumulator takes round 0's rows and each later round
    is one slice +=. Round 0 computes x + 0.0, which is 0.0 + x bitwise, so
    a -0.0 entry lands as +0.0 as in add.at. The dense result is written
    once, at the end.
    """
    targets, rounds = plan
    acc = rows[rounds[0]]
    acc += 0.0
    for at in rounds[1:]:
        acc[: at.size] += rows[at]
    out[targets] = acc


def backward(
    params: ModelParameters,
    i,
    j,
    targets: np.ndarray,
    class_weights: np.ndarray,
    dropout: float = 0.0,
    masks=None,
    plan=None,
    grads: Optional[ModelParameters] = None,
) -> tuple[float, ModelParameters]:
    """Loss and exact analytic gradients for one mini-batch, as ModelParameters.

    Shared parameters accumulate contributions from both slots; embedding rows
    and bias entries of drugs absent from the batch keep zero gradient. With
    dropout, masks is the i and then the j slot's (B, d) boolean keep mask.
    The embedding gradients are scattered by plan, which defaults to
    _scatter_plan(np.concatenate([I, J])); a training step makes it ahead.
    The gradients are written into grads, a holder of the model's shapes,
    whatever it held: its embedding rows are zeroed first and the rest is
    overwritten whole. The holder is returned, so a training run passes one
    to every step; grads defaults to fresh zeros.

    Once the logit gradient G is known, the head branch (the W, c, u and b
    gradients and the loss) runs as a cores.start task, on the helper inside
    an open cores.helper block and in line before the embedding branch
    otherwise, while this thread computes the embedding gradients. The two
    write disjoint parts of the gradients and are joined before returning.
    """
    I, J = check_pairs(i, j, params.n_drugs)
    if I.size == 0:
        raise EmptyBatchError("empty batch")
    T = np.asarray(targets, dtype=np.float64)
    if T.shape != (I.size, params.n_classes):
        raise ShapeMismatchError(f"targets shape {T.shape}, expected {(I.size, params.n_classes)}")
    B = I.size
    if dropout > 0.0:
        if masks is None:
            raise InvalidConfigError("dropout requires keep masks")
        shapes = [np.shape(mask) for mask in masks]
        if shapes != [(B, params.embedding_dim)] * 2:
            raise ShapeMismatchError(f"keep masks {shapes}, expected two of {(B, params.embedding_dim)}")
    if grads is None:
        grads = ModelParameters(params.n_drugs, params.n_classes, params.embedding_dim)
    elif grads.embeddings.shape != params.embeddings.shape or grads.n_classes != params.n_classes:
        raise ShapeMismatchError(f"gradient holder {grads.embeddings.shape} with {grads.n_classes} "
                                 f"classes, expected {params.embeddings.shape} with {params.n_classes}")
    else:
        grads.embeddings.fill(0.0)

    # Each forward array is dropped at its last use and dE is computed in
    # place of the slot rows. Without a helper the head branch runs first and
    # frees h and P, so the scatter runs beside dE and the gradient vector
    # only: a step at the paper's shape (572 drugs, K = 65, d = 512, B = 256,
    # dropout 0.3) peaks at 6.8 MB under tracemalloc, against 11.5 MB with
    # Ei, Ej, h, dh and the masks held through the scatter. With a helper,
    # h and P live until the head branch has run.
    dE, h, pair_bias, logits = _forward_parts(params, I, J, dropout, masks)
    P = softmax(logits, out=logits)
    del logits
    w = _sample_weights(T, class_weights)

    # d(mean loss)/dlogits; softmax-cross-entropy collapses to w * (p - t) / B
    G = np.subtract(P, T)
    G *= w[:, None]
    G /= B

    slots = np.concatenate([I, J])
    head = cores.start(_head_gradients, params, grads, G, h, P, T, w, pair_bias, slots)
    del h, P, pair_bias
    try:
        # dh times the j rows (the upper half) is the i slot's gradient, and
        # times the i rows the j slot's: the i slot's rows, then the j slot's,
        # the order add.at would sum them
        dh = G @ params.class_proj
        np.multiply(dh, dE[:B], out=dE[:B])
        np.multiply(dh, dE[B:], out=dE[B:])
        del dh
        if dropout > 0.0:
            _drop(dE[:B], masks[0], dropout)
            _drop(dE[B:], masks[1], dropout)
        _scatter_planned(_scatter_plan(slots) if plan is None else plan, dE, grads.embeddings)
    finally:
        head.wait()
    return head.result(), grads


def _head_gradients(params, grads, G, h, P, T, w, pair_bias, slots) -> float:
    """backward's W, c, u and b gradients, written into grads, and the batch loss.

    The loss is computed in place of P, which then holds G * pair_bias, so
    the branch allocates only vectors of batch or drug length.
    """
    batch_loss = _mean_weighted_ce(P, T, w, out=P)
    np.matmul(G.T, h, out=grads.class_proj)
    np.sum(G, axis=0, out=grads.class_bias)
    np.sum(np.multiply(G, pair_bias[:, None], out=P), axis=0, out=grads.bias_coupling)
    # bincount sums in index order from 0.0, the bits of np.add.at into zeros
    db_pair = G @ params.bias_coupling
    grads.drug_bias[...] = np.bincount(slots, weights=np.concatenate([db_pair, db_pair]),
                                       minlength=params.n_drugs)
    return batch_loss


def adam_step(
    params: ModelParameters,
    grads: ModelParameters,
    state: OptimizerState,
    learning_rate: float,
) -> tuple[ModelParameters, OptimizerState]:
    """One in-place Adam update of params.flat with standard constants and bias correction.

    The vector is updated ADAM_BLOCK elements at a time, through two scratch
    buffers, so the live slices stay in cache. Every operation is
    elementwise and runs in the order of
    p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), so the result does not
    depend on the block size, nor on which thread updates which half: the
    upper half is a cores.run_beside task, which the helper of an open
    cores.helper block takes.
    """
    p, g, m, v = params.flat, grads.flat, state.m, state.v
    if not p.shape == g.shape == m.shape == v.shape:
        raise ShapeMismatchError("gradient or moment shape disagrees with parameter shape")
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    mid = p.size // 2
    buffers = np.empty((2, 2, min(p.size - mid, ADAM_BLOCK)), dtype=np.float64)
    cores.run_beside(_adam_slices,
                     (p[mid:], g[mid:], m[mid:], v[mid:], learning_rate, bc1, bc2, buffers[1]),
                     (p[:mid], g[:mid], m[:mid], v[:mid], learning_rate, bc1, bc2, buffers[0]))
    return params, state


def _adam_slices(p, g, m, v, learning_rate: float, bc1: float, bc2: float,
                 buffers: np.ndarray) -> None:
    """The Adam update of adam_step over the vectors p, g, m and v, one ADAM_BLOCK slice at a time.

    buffers is a (2, >= min(p.size, ADAM_BLOCK)) float64 scratch array.
    """
    for lo in range(0, p.size, ADAM_BLOCK):
        ps, gs, ms, vs = (x[lo : lo + ADAM_BLOCK] for x in (p, g, m, v))
        num, den = buffers[:, : ps.size]
        ms *= ADAM_BETA1
        ms += np.multiply(1.0 - ADAM_BETA1, gs, out=num)
        vs *= ADAM_BETA2
        vs += np.multiply(1.0 - ADAM_BETA2, np.square(gs, out=num), out=num)
        np.multiply(learning_rate, np.divide(ms, bc1, out=num), out=num)
        np.add(np.sqrt(np.divide(vs, bc2, out=den), out=den), ADAM_EPS, out=den)
        ps -= np.divide(num, den, out=num)


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
    flat, gflat = params.flat, analytic.flat
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
