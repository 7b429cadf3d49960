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
bitwise reproducible given a seed. A large training run may take one helper
thread (step_helper), which draws the next step's dropout masks and runs half
of each Adam update; neither changes a bit.
"""

from __future__ import annotations

import math
import os
import threading
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Optional

import numpy as np

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
#: Uniform draws per piece of a dropout mask draw; any value gives the same masks.
MASK_BLOCK = 1 << 14
#: Parameter count from which a training run takes a helper thread.
HELPER_MIN_PARAMETERS = 1 << 17


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


def _draw_keep_mask(rng: np.random.Generator, dropout: float, mask: np.ndarray,
                    block: np.ndarray) -> None:
    """mask[...] = rng.random(mask.shape) >= dropout, a few rows at a time through block.

    block is a (rows, d) float64 array. Generator.random fills it in C order,
    so the pieces take the draws of one rng.random(mask.shape), in order.
    """
    for lo in range(0, len(mask), len(block)):
        rows = mask[lo : lo + len(block)]
        np.greater_equal(rng.random(out=block[: len(rows)]), dropout, out=rows)


def _mask_block(rows: int, d: int) -> np.ndarray:
    """The float block _draw_keep_mask draws through: at most MASK_BLOCK entries, or one row."""
    return np.empty((min(rows, max(1, MASK_BLOCK // d)), d), dtype=np.float64)


class DrawnMasks:
    """Stands in for the Generator of one backward call with keep masks drawn ahead.

    random(shape) hands out the next mask, the i slot's first. For
    0 < dropout < 1 a boolean mask >= dropout is the mask itself, so a step
    written as rng.random(shape) >= dropout gets the masks the Generator
    would have given it.
    """

    def __init__(self, masks):
        self._masks = iter(masks)

    def random(self, shape) -> np.ndarray:
        return next(self._masks)


def _keep_masks(rng, shape: tuple[int, int], dropout: float):
    """The i and j slots' boolean keep masks of shape (B, d), rng.random(shape) >= dropout each, i first."""
    if rng is None:
        raise InvalidConfigError("dropout requires an rng")
    if isinstance(rng, DrawnMasks):
        return rng.random(shape), rng.random(shape)
    # the i mask's rows, then the j mask's: the order of two draws of shape
    masks = np.empty((2 * shape[0], shape[1]), dtype=bool)
    if masks.size <= MASK_BLOCK:  # one piece: a block would only add calls
        np.greater_equal(rng.random(masks.shape), dropout, out=masks)
    else:
        _draw_keep_mask(rng, dropout, masks, _mask_block(*masks.shape))
    return masks[: shape[0]], masks[shape[0] :]


def _head(params: ModelParameters, h: np.ndarray, pair_bias: np.ndarray) -> np.ndarray:
    """(B, K) logits h @ W.T + c + u * pair_bias[:, None], summed in that order."""
    logits = h @ params.class_proj.T
    logits += params.class_bias
    logits += params.bias_coupling * pair_bias[:, None]
    return logits


def _forward_parts(params: ModelParameters, I: np.ndarray, J: np.ndarray, dropout: float,
                   rng: Optional[np.random.Generator]):
    """Gather both slots in one array, drop out (the i mask drawn before the j mask), multiply, project.

    Returns (slots, masks, h, pair_bias, logits): the (2B, d) slot rows after
    dropout, the j slot's over the i slot's, the two boolean keep masks or
    None, the product of the halves, b[i] + b[j] and the (B, K) logits.
    """
    B = I.size
    slots = params.embeddings[np.concatenate([J, I])]
    Ej, Ei = slots[:B], slots[B:]
    masks = None
    if dropout > 0.0:
        masks = _keep_masks(rng, Ei.shape, dropout)
        _drop(Ei, masks[0], dropout)
        _drop(Ej, masks[1], dropout)
    h = Ei * Ej
    pair_bias = params.drug_bias[I] + params.drug_bias[J]
    return slots, masks, h, pair_bias, _head(params, h, pair_bias)


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


def _scatter_rows(index: np.ndarray, rows: np.ndarray, out: np.ndarray) -> None:
    """Sum rows[k] into row index[k] of out, an (n, d) zero matrix, bitwise as np.add.at.

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
    acc = rows[order[starts]]
    acc += 0.0
    # targets with more than r occurrences, for r = 1 .. largest count - 1
    pending = np.searchsorted(-counts, -np.arange(1, counts[0]), "left")
    for r, k in enumerate(pending, 1):
        acc[:k] += rows[order[starts[:k] + r]]
    out[sorted_index[starts]] = acc


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
    and bias entries of drugs absent from the batch keep zero gradient. With
    dropout, rng is the Generator the keep masks are drawn from, or a
    DrawnMasks that holds them.
    """
    I, J = check_pairs(i, j, params.n_drugs)
    if I.size == 0:
        raise EmptyBatchError("empty batch")
    T = np.asarray(targets, dtype=np.float64)
    if T.shape != (I.size, params.n_classes):
        raise ShapeMismatchError(f"targets shape {T.shape}, expected {(I.size, params.n_classes)}")
    B = I.size

    # Each forward array is dropped at its last use, dE is computed in place
    # of the slot rows, and the W, c, u and b gradients are formed before the
    # embedding rows are scattered, so _scatter_rows runs beside dE and the
    # gradient vector only. A step at the paper's shape (572 drugs, K = 65,
    # d = 512, B = 256, dropout 0.3) peaks at 6.8 MB under tracemalloc,
    # against 11.5 MB with Ei, Ej, h, dh and the masks held through the
    # scatter. The gradient vector is still allocated after dE: allocated
    # first, it multiplied a step's page faults.
    dE, masks, h, pair_bias, logits = _forward_parts(params, I, J, dropout, rng)
    P = softmax(logits)
    del logits
    w, batch_loss = _weighted_cross_entropy(P, T, class_weights)

    # d(mean loss)/dlogits; softmax-cross-entropy collapses to w * (p - t) / B
    G = (w[:, None] * (P - T)) / B
    del P

    # dh times the j rows (the upper half) is the i slot's gradient, and
    # times the i rows the j slot's: the i slot's rows, then the j slot's,
    # the order add.at would sum them
    dh = G @ params.class_proj
    np.multiply(dh, dE[:B], out=dE[:B])
    np.multiply(dh, dE[B:], out=dE[B:])
    del dh
    if masks is not None:
        _drop(dE[:B], masks[0], dropout)
        _drop(dE[B:], masks[1], dropout)
    del masks
    grads = ModelParameters(params.n_drugs, params.n_classes, params.embedding_dim)
    np.matmul(G.T, h, out=grads.class_proj)
    del h
    np.sum(G, axis=0, out=grads.class_bias)
    np.sum(G * pair_bias[:, None], axis=0, out=grads.bias_coupling)

    # bincount sums in index order from 0.0, the bits of np.add.at into zeros
    slots = np.concatenate([I, J])
    db_pair = G @ params.bias_coupling
    grads.drug_bias[...] = np.bincount(slots, weights=np.concatenate([db_pair, db_pair]),
                                       minlength=params.n_drugs)
    _scatter_rows(slots, dE, grads.embeddings)
    return batch_loss, grads


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
    depend on the block size, nor on which thread updates which half: inside
    a training run with a step_helper, the helper updates the upper half.
    """
    p, g, m, v = params.flat, grads.flat, state.m, state.v
    if not p.shape == g.shape == m.shape == v.shape:
        raise ShapeMismatchError("gradient or moment shape disagrees with parameter shape")
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    helper = _STEP_HELPER.get()
    if helper is None:
        buffers = np.empty((2, min(p.size, ADAM_BLOCK)), dtype=np.float64)
        _adam_slices(p, g, m, v, learning_rate, bc1, bc2, buffers)
    else:
        mid = p.size // 2
        helper.run_beside(_adam_slices,
                          (p[mid:], g[mid:], m[mid:], v[mid:], learning_rate, bc1, bc2,
                           helper.adam_buffers[1]),
                          (p[:mid], g[:mid], m[:mid], v[:mid], learning_rate, bc1, bc2,
                           helper.adam_buffers[0]))
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


# -- the helper thread of a training run ----------------------------------------


class _Task:
    """One call for the helper thread, which the caller runs itself if the helper has not begun it.

    Either way it runs once, under the numpy error state of the thread that
    made it: numpy keeps its error state per thread (a context variable
    since numpy 2, which a new thread does not inherit), so without it the
    CLI's errstate(all="ignore") or a caller's errstate(all="raise") would
    not hold in the helper's part of the work.
    """

    def __init__(self, fn, args):
        self.fn, self.args = fn, args
        self.errstate = dict(np.geterr(), call=np.geterrcall())
        self._taken = threading.Lock()
        self._done = threading.Event()
        self.value = self.error = None

    def run(self) -> None:
        """Run the call here, unless another thread has taken it."""
        if not self._taken.acquire(blocking=False):
            return
        try:
            with np.errstate(**self.errstate):
                self.value = self.fn(*self.args)
        except BaseException as exc:  # raised again by result(), in the caller
            self.error = exc
        finally:
            self._done.set()

    def wait(self) -> None:
        """Return once the call has run: here, if the helper has not begun it."""
        self.run()
        self._done.wait()

    def result(self):
        self.wait()
        if self.error is not None:
            raise self.error
        return self.value


class StepHelper:
    """One helper thread of a training run, and the arrays it writes into.

    The caller allocates every array the helper writes: the keep masks of
    two steps (the one in use and the next), the float block they are drawn
    through and Adam's scratch buffers for both halves. The helper never
    calls a pipeline name that a tracer may wrap, only numpy and the
    Generator.
    """

    def __init__(self, params: ModelParameters, batch_rows: int, dropout: float):
        d = params.embedding_dim
        self._dropout = dropout
        self.adam_buffers = np.empty((2, 2, min(params.flat.size, ADAM_BLOCK)), dtype=np.float64)
        # two steps' i and j masks; of no rows, so none is drawn, without dropout
        self._masks = np.empty((2, 2 * batch_rows if dropout > 0.0 else 0, d), dtype=bool)
        self._block = _mask_block(2 * batch_rows, d)
        self._tasks: deque = deque()
        self._queued = threading.Semaphore(0)
        self._thread = threading.Thread(target=self._serve, name="amfpmc-step-helper", daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while True:
            self._queued.acquire()
            task = self._tasks.popleft()
            if task is None:
                return
            task.run()

    def _put(self, task: Optional[_Task]) -> None:
        self._tasks.append(task)
        self._queued.release()

    def _submit(self, fn, *args) -> _Task:
        task = _Task(fn, args)
        self._put(task)
        return task

    def close(self) -> None:
        """Finish every task submitted and end the thread."""
        self._put(None)
        self._thread.join()

    def run_beside(self, fn, helper_args: tuple, own_args: tuple) -> None:
        """fn(*helper_args) on the helper while the caller runs fn(*own_args).

        Returns once both are done; the caller runs both when the helper has
        not begun its part by then. The caller's exception comes first, and
        nothing is raised before the helper's part has finished.
        """
        task = self._submit(fn, *helper_args)
        try:
            fn(*own_args)
        finally:
            task.wait()
        task.result()

    def prefetch(self, batches, rng: np.random.Generator):
        """(rows, DrawnMasks) for each batch of rows that batches yields.

        The helper takes step s + 1's rows and keep masks while the caller
        runs step s; the caller takes them itself if the helper has not begun
        by the time they are needed. Step s + 2's are asked for only once
        step s + 1's are drawn, so the draws are made one at a time and in
        the serial order: batches draws an epoch's permutation before its
        first step's masks, and each step's i mask comes before its j mask.
        """
        def draw(masks):
            rows = next(batches, None)
            if rows is None:
                return None
            masks = masks[: 2 * rows.size]
            _draw_keep_mask(rng, self._dropout, masks, self._block)
            return rows, DrawnMasks(np.split(masks, 2))

        k = 0
        pending = self._submit(draw, self._masks[k])
        while (step := pending.result()) is not None:
            k ^= 1
            pending = self._submit(draw, self._masks[k])
            yield step


_STEP_HELPER: ContextVar[Optional[StepHelper]] = ContextVar("step_helper", default=None)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@contextmanager
def step_helper(params: ModelParameters, batch_rows: int, dropout: float):
    """A StepHelper for one training run, which adam_step uses while it is open, or None.

    None where one thread does as well: when the process may run on one CPU
    only, or when the model has fewer than HELPER_MIN_PARAMETERS parameters,
    where handing work over costs more than it saves. On exit the
    helper finishes its tasks and its thread ends, before any exception of
    the run is passed on.
    """
    if params.flat.size < HELPER_MIN_PARAMETERS or _usable_cpus() < 2:
        yield None
        return
    helper = StepHelper(params, batch_rows, dropout)
    token = _STEP_HELPER.set(helper)
    try:
        yield helper
    finally:
        _STEP_HELPER.reset(token)
        helper.close()


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
