import copy
import dataclasses
import math
import pickle
import re
import tracemalloc

import numpy as np
import pytest

from amfpmc import cores, formats
from amfpmc import model as model_mod
from amfpmc import pipeline
from amfpmc.errors import (
    AmfpmcError,
    EmptyBatchError,
    InvalidConfigError,
    InvalidDimensionsError,
    SelfLoopError,
    ShapeMismatchError,
    UnknownDrugError,
)
from amfpmc.metrics import class_weights
from amfpmc.model import (
    Hyperparameters,
    ModelParameters,
    OptimizerState,
    adam_step,
    backward,
    forward_batch,
    gradient_check,
    init_model,
    loss,
    predict,
    predict_batch,
    softmax,
)
from amfpmc.graph import build_graph
from amfpmc.pipeline import LabeledPairs, attach_targets, train
from amfpmc.propagation import check_alpha, propagate_targets
from amfpmc.synth import SyntheticConfig


def tiny_hp(d=4, seed=0, **kw):
    return Hyperparameters(embedding_dim=d, dropout=0.0, epochs=1, batch_size=4,
                           learning_rate=0.01, alpha=0.0, seed=seed, **kw)


def random_model(rng, n=None, d=None, K=None):
    """Tiny model with all parameter groups randomized away from init zeros."""
    n = n or int(rng.integers(4, 11))
    d = d or int(rng.integers(2, 9))
    K = K or int(rng.integers(2, 7))
    params = init_model(n, K, tiny_hp(d=d, seed=int(rng.integers(0, 1 << 30))))
    params.drug_bias[:] = rng.uniform(-0.5, 0.5, n)
    params.class_bias[:] = rng.uniform(-0.5, 0.5, K)
    params.bias_coupling[:] = rng.uniform(0.5, 1.5, K)
    return params


def random_batch(rng, params, size=6):
    n, K = params.n_drugs, params.n_classes
    I = rng.integers(0, n, size)
    J = (I + 1 + rng.integers(0, n - 1, size)) % n
    T = rng.dirichlet(np.ones(K), size=size)
    w = class_weights(rng.integers(1, 10, K))
    return I, J, T, w


def keep_masks(seed, shape, dropout):
    """The i and then the j slot's keep masks: rng.random(shape) >= dropout twice, from one Generator."""
    rng = np.random.default_rng(seed)
    return [rng.random(shape) >= dropout for _ in range(2)]


class TestInit:
    def test_same_seed_is_bitwise_identical(self):
        a = init_model(5, 3, tiny_hp(seed=9))
        b = init_model(5, 3, tiny_hp(seed=9))
        for x, y in zip(a.arrays(), b.arrays()):
            assert np.array_equal(x, y)

    def test_shapes(self):
        p = init_model(3, 2, tiny_hp(d=4))
        assert p.embeddings.shape == (3, 4)
        assert p.class_proj.shape == (2, 4)
        assert p.drug_bias.shape == (3,)
        assert p.class_bias.shape == (2,)
        assert p.bias_coupling.shape == (2,)

    def test_different_seed_differs(self):
        a = init_model(5, 3, tiny_hp(seed=1))
        b = init_model(5, 3, tiny_hp(seed=2))
        assert not np.array_equal(a.embeddings, b.embeddings)

    def test_init_ranges_and_zeros(self):
        p = init_model(50, 8, tiny_hp(d=16))
        bound = 1.0 / math.sqrt(16)
        assert np.all(np.abs(p.embeddings) <= bound)
        assert np.all(np.abs(p.class_proj) <= bound)
        assert np.all(p.drug_bias == 0.0)
        assert np.all(p.class_bias == 0.0)
        assert np.all(p.bias_coupling == 1.0)

    def test_dimension_validation(self):
        with pytest.raises(InvalidDimensionsError):
            init_model(1, 3, tiny_hp())
        with pytest.raises(InvalidDimensionsError):
            init_model(3, 1, tiny_hp())

    @pytest.mark.parametrize("alpha", [-0.1, 1.5, float("nan")])
    def test_alpha_checked_as_propagation_does(self, alpha):
        with pytest.raises(InvalidConfigError) as from_hp:
            Hyperparameters(alpha=alpha)
        with pytest.raises(InvalidConfigError) as from_propagation:
            check_alpha(alpha)
        assert str(from_hp.value) == str(from_propagation.value)


@pytest.mark.parametrize("kind, field, value", [
    (Hyperparameters, "embedding_dim", 0),
    (Hyperparameters, "dropout", 1.0),
    (Hyperparameters, "learning_rate", float("nan")),
    (Hyperparameters, "alpha", 1.5),
    (Hyperparameters, "seed", -1),
    (SyntheticConfig, "n_classes", 3),
    (SyntheticConfig, "label_noise", 1.0),
    (SyntheticConfig, "mode", "neither"),
], ids=lambda v: v.__name__ if isinstance(v, type) else None)
def test_no_configuration_holds_a_bad_value(kind, field, value):
    # dataclasses.replace refuses what the constructor refuses, with its message,
    # and a built configuration cannot be changed
    config = kind()
    with pytest.raises(AmfpmcError) as built:
        kind(**{field: value})
    with pytest.raises(type(built.value), match=re.escape(str(built.value))):
        dataclasses.replace(config, **{field: value})
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(config, field, value)


class TestParameterVector:
    def test_views_lie_in_flat_in_file_order(self):
        params = random_model(np.random.default_rng(40), n=5, d=3, K=4)
        assert params.flat.tobytes() == np.concatenate([a.ravel() for a in params.arrays()]).tobytes()
        _, grads = backward(params, [0, 2], [1, 4], np.full((2, 4), 0.25), np.ones(4))
        for p, g in zip(params.arrays(), grads.arrays()):
            assert g.shape == p.shape and np.shares_memory(g, grads.flat)
        with pytest.raises(ShapeMismatchError):
            ModelParameters(5, 4, 3, np.zeros(params.flat.size + 1))

    @pytest.mark.parametrize("how", ["deepcopy", "read_model", "pickle"])
    def test_a_copy_has_views_of_its_own_vector(self, tmp_path, how):
        params = random_model(np.random.default_rng(41))
        if how == "deepcopy":
            got = copy.deepcopy(params)
        elif how == "read_model":
            formats.write_model(params, str(tmp_path / "model.txt"))
            got = formats.read_model(str(tmp_path / "model.txt"))
        else:
            got = pickle.loads(pickle.dumps(params))
        assert got.flat.tobytes() == params.flat.tobytes()
        assert not np.shares_memory(got.flat, params.flat)
        for view in got.arrays():
            assert np.shares_memory(view, got.flat)
        before = got.embeddings.copy()
        ones = ModelParameters(got.n_drugs, got.n_classes, got.embedding_dim, np.ones(got.flat.size))
        adam_step(got, ones, OptimizerState.for_params(got), 0.01)
        assert np.all(got.embeddings < before)


class TestForward:
    def test_hand_computed_single_logit(self):
        # d=1, K=1: h = 2*3, logit = 0.5*6 + 0.1 + 1*(0+0) = 3.1
        params = ModelParameters(n_drugs=2, n_classes=1, embedding_dim=1)
        params.embeddings[:] = [[2.0], [3.0]]
        params.class_proj[:] = 0.5
        params.class_bias[:] = 0.1
        params.bias_coupling[:] = 1.0
        assert forward_batch(params, [0], [1])[0, 0] == pytest.approx(3.1, abs=1e-12)

    def test_zero_embedding_gives_class_bias(self):
        params = init_model(4, 3, tiny_hp())
        params.embeddings[1] = 0.0
        assert np.allclose(forward_batch(params, [1], [2])[0], params.class_bias)

    def test_exact_symmetry(self):
        rng = np.random.default_rng(5)
        params = random_model(rng)
        for _ in range(50):
            i, j = rng.integers(0, params.n_drugs, 2)
            if i == j:
                continue
            assert np.array_equal(forward_batch(params, [i], [j]), forward_batch(params, [j], [i]))

    @pytest.mark.parametrize("call", [
        lambda params, i, j: forward_batch(params, [i], [j]),
        lambda params, i, j: predict(params, i, j),
        lambda params, i, j: backward(params, [i], [j], np.full((1, 3), 1 / 3), np.ones(3)),
        lambda params, i, j: pipeline.score_pairs(params, [(i, j)]),
    ], ids=["forward_batch", "predict", "backward", "score_pairs"])
    @pytest.mark.parametrize("i, j, error, message", [
        (2, 2, SelfLoopError, "self loop on drug 2"),
        (-1, 0, UnknownDrugError, r"drug index -1 outside 0\.\.3"),
        (-5, 1, UnknownDrugError, r"drug index -5 outside 0\.\.3"),
        (0, 4, UnknownDrugError, r"drug index 4 outside 0\.\.3"),
        (0.9, 1.7, ShapeMismatchError, "expected integers"),
    ], ids=["self-pair", "minus-one", "minus-five", "n", "floats"])
    def test_bad_pair_refused(self, call, i, j, error, message):
        # the graph's rule: no index wraps around, is truncated or names one drug twice
        params = init_model(4, 3, tiny_hp())
        with pytest.raises(error, match=message):
            call(params, i, j)


class TestPredict:
    def test_sums_to_one(self):
        rng = np.random.default_rng(6)
        params = random_model(rng)
        p = predict(params, 0, 1)
        assert abs(p.sum() - 1.0) < 1e-9
        assert np.all(p > 0)

    def test_symmetric(self):
        rng = np.random.default_rng(7)
        params = random_model(rng)
        assert np.array_equal(predict(params, 0, 3), predict(params, 3, 0))

    def test_logit_shift_invariance(self):
        rng = np.random.default_rng(8)
        params = random_model(rng)
        before = predict(params, 0, 1)
        params.class_bias += 7.5
        after = predict(params, 0, 1)
        assert np.allclose(before, after, atol=1e-9)


class TestLoss:
    def test_perfect_prediction_is_zero(self):
        probs = np.eye(4)[[0, 2, 3]]
        targets = probs.copy()
        assert loss(probs, targets, np.ones(4)) <= 1e-10

    def test_uniform_prediction_ln_k(self):
        probs = np.full((1, 4), 0.25)
        targets = np.eye(4)[[1]]
        assert loss(probs, targets, np.ones(4)) == pytest.approx(math.log(4), abs=1e-12)

    def test_weights_scale_linearly(self):
        rng = np.random.default_rng(9)
        probs = rng.dirichlet(np.ones(5), size=8)
        targets = rng.dirichlet(np.ones(5), size=8)
        w = rng.uniform(0.5, 2.0, 5)
        assert loss(probs, targets, 2 * w) == 2 * loss(probs, targets, w)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            loss(np.ones((2, 3)) / 3, np.ones((2, 4)) / 4, np.ones(3))


class TestBackward:
    def test_untouched_rows_get_zero_gradient(self):
        rng = np.random.default_rng(10)
        params = random_model(rng, n=8)
        K = params.n_classes
        T = rng.dirichlet(np.ones(K), size=2)
        _, grads = backward(params, [1, 1], [4, 4], T, np.ones(K))
        touched = {1, 4}
        for row in range(8):
            if row not in touched:
                assert np.all(grads.embeddings[row] == 0.0)
                assert grads.drug_bias[row] == 0.0
        assert np.any(grads.embeddings[1] != 0.0)

    def test_duplicated_batch_same_mean_gradient(self):
        rng = np.random.default_rng(11)
        params = random_model(rng)
        I, J, T, w = random_batch(rng, params)
        _, g1 = backward(params, I, J, T, w)
        _, g2 = backward(params, np.r_[I, I], np.r_[J, J], np.vstack([T, T]), w)
        for a, b in zip(g1.arrays(), g2.arrays()):
            assert np.allclose(a, b, atol=1e-14)

    def test_empty_batch(self):
        params = init_model(4, 3, tiny_hp())
        with pytest.raises(EmptyBatchError):
            backward(params, [], [], np.zeros((0, 3)), np.ones(3))

    def test_gradient_check_random_tiny_models(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            params = random_model(rng)
            I, J, T, w = random_batch(rng, params)
            assert gradient_check(params, I, J, T, w, eps=1e-5) < 1e-4

    def test_gradient_check_eps_halving_stays_sane(self):
        rng = np.random.default_rng(13)
        params = random_model(rng)
        I, J, T, w = random_batch(rng, params)
        err = gradient_check(params, I, J, T, w, eps=1e-5)
        err_half = gradient_check(params, I, J, T, w, eps=5e-6)
        assert err_half <= 10 * err + 1e-8

    def test_gradient_check_constant_zero_model(self):
        params = ModelParameters(n_drugs=4, n_classes=3, embedding_dim=3)
        params.bias_coupling[:] = 1.0
        T = np.full((2, 3), 1 / 3)
        _, grads = backward(params, [0, 1], [2, 3], T, np.ones(3))
        assert max(np.abs(a).max() for a in grads.arrays()) < 1e-12
        assert gradient_check(params, [0, 1], [2, 3], T, np.ones(3)) < 1e-6

    def test_dropout_gradients_follow_the_masks(self):
        rng = np.random.default_rng(14)
        params = random_model(rng, n=6, d=4, K=3)
        I, J, T, w = random_batch(rng, params)
        g_a = backward(params, I, J, T, w, dropout=0.5, masks=keep_masks(0, (I.size, 4), 0.5))[1]
        g_b = backward(params, I, J, T, w, dropout=0.5, masks=keep_masks(0, (I.size, 4), 0.5))[1]
        g_c = backward(params, I, J, T, w, dropout=0.5, masks=keep_masks(1, (I.size, 4), 0.5))[1]
        for a, b in zip(g_a.arrays(), g_b.arrays()):
            assert np.array_equal(a, b)
        assert any(not np.array_equal(a, c) for a, c in zip(g_a.arrays(), g_c.arrays()))
        with pytest.raises(InvalidConfigError):
            backward(params, I, J, T, w, dropout=0.5)
        for masks in (keep_masks(0, (4,), 0.5), keep_masks(0, (I.size, 4), 0.5)[:1]):
            with pytest.raises(ShapeMismatchError):
                backward(params, I, J, T, w, dropout=0.5, masks=masks)

    @pytest.mark.parametrize("with_helper", [False, True])
    def test_a_filled_holder_gives_the_bits_of_fresh_gradients(self, monkeypatch, with_helper):
        # train passes one holder to every step; a step over other drugs has
        # filled it, so each of those rows would keep its stale gradient
        # unless backward zeroes it
        monkeypatch.setattr(cores, "usable_cpus", lambda: 2)
        rng = np.random.default_rng(48)
        n, K, d, B = 40, 5, 16, 8
        params = random_model(rng, n=n, d=d, K=K)
        I, J, T, w = random_batch(rng, params, size=B)
        masks = keep_masks(5, (B, d), 0.3)
        want_loss, want = backward(params, I, J, T, w, 0.3, masks)
        others = np.setdiff1d(np.arange(n), np.r_[I, J])[: 2 * B]
        holder = ModelParameters(n, K, d)
        with cores.helper(with_helper) as beside:
            assert (beside is not None) == with_helper
            backward(params, others[:B], others[B:], T, w, 0.3, keep_masks(6, (B, d), 0.3), None, holder)
            assert holder.embeddings[others].any() and holder.drug_bias[others].any()
            got_loss, got = backward(params, I, J, T, w, 0.3, masks, None, holder)
        assert got is holder
        assert got_loss.hex() == want_loss.hex()
        assert holder.flat.tobytes() == want.flat.tobytes()

    @pytest.mark.parametrize("shape", [(41, 5, 16), (40, 6, 16), (40, 5, 15), (20, 5, 32)])
    def test_a_holder_of_another_shape_is_refused(self, shape):
        # (20, 5, 32) has the model's embedding size but not its rows
        rng = np.random.default_rng(49)
        params = random_model(rng, n=40, d=16, K=5)
        I, J, T, w = random_batch(rng, params)
        holder = ModelParameters(*shape)
        holder.flat[...] = 1.0
        with pytest.raises(ShapeMismatchError):
            backward(params, I, J, T, w, grads=holder)
        assert (holder.flat == 1.0).all()

    @pytest.mark.parametrize("dropout, mask_block", [(0.0, None), (0.3, None), (0.3, 5 * 16)])
    def test_training_steps_give_the_generators_masks_and_plan(self, monkeypatch, dropout, mask_block):
        # each step as train takes it, against one Generator's permutation
        # and (B, d) draws in train's order and _scatter_plan of its slots;
        # a 5-row block does not divide a step's 2B mask rows
        if mask_block:
            monkeypatch.setattr(pipeline, "MASK_BLOCK", mask_block)
        rng = np.random.default_rng(46)
        n, K, d, m, batch = 30, 5, 16, 100, 37
        I = rng.integers(0, n, m)
        rows = np.column_stack([I, (I + 1 + rng.integers(0, n - 1, m)) % n, rng.integers(0, K, m)])
        pairs = attach_targets(rows, build_graph(n, K, "holdout", rows[::3]), 0.4)
        hp = Hyperparameters(embedding_dim=d, dropout=dropout, epochs=2, batch_size=batch, alpha=0.4)
        draws, drawn = np.random.default_rng(3), np.random.default_rng(3)
        steps = pipeline._training_steps(pairs, drawn, hp)
        for _ in range(hp.epochs):
            order = draws.permutation(m)
            for start in range(0, m, batch):
                idx = order[start : start + batch]
                want_I, want_J, want_T = pairs.batch(idx)
                want_masks = [draws.random((idx.size, d)) >= dropout for _ in range(2)] if dropout else None
                I, J, T, masks, plan = next(steps)
                assert_bitwise_equal([I, J, T], [want_I, want_J, want_T])
                if dropout:
                    assert_bitwise_equal(masks, want_masks)
                else:
                    assert masks is None
                want_plan = model_mod._scatter_plan(np.concatenate([I, J]))
                assert_bitwise_equal([plan[0], *plan[1]], [want_plan[0], *want_plan[1]])
        assert next(steps, None) is None
        assert drawn.bit_generator.state == draws.bit_generator.state

    def test_scatter_runs_beside_the_gradients_only(self):
        # the paper's step (572 drugs, 65 classes, d = 512, B = 256, dropout
        # 0.3): the forward arrays are dropped before the embedding rows are
        # scattered, so the peak is dE, the gradient vector and the scatter's
        # accumulator and one round of rows, each at most (distinct drugs, d)
        n, K, d, B = 572, 65, 512, 256
        rng = np.random.default_rng(45)
        params = random_model(rng, n=n, d=d, K=K)
        I, J, T, w = random_batch(rng, params, size=B)
        masks = keep_masks(0, (B, d), 0.3)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _, grads = backward(params, I, J, T, w, 0.3, masks)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        distinct = np.unique(np.concatenate([I, J])).size
        # and a few (B, K) arrays; keeping Ei, Ej, h and dh through the
        # scatter adds 4 MB
        assert peak <= 2 * B * d * 8 + grads.flat.nbytes + 2 * distinct * d * 8 + 4 * B * K * 8, peak


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        params = init_model(4, 3, tiny_hp())
        before = copy.deepcopy(params)
        grads = ModelParameters(params.n_drugs, params.n_classes, params.embedding_dim)
        state = OptimizerState.for_params(params)
        adam_step(params, grads, state, 0.05)
        for a, b in zip(params.arrays(), before.arrays()):
            assert np.array_equal(a, b)

    def test_first_step_moves_by_lr_sign(self):
        # closed form: after bias correction the first step is lr * g / (|g| + eps)
        params = init_model(4, 3, tiny_hp())
        before = params.class_bias.copy()
        grads = ModelParameters(params.n_drugs, params.n_classes, params.embedding_dim)
        grads.class_bias[:] = np.array([0.5, -0.25, 1.0])
        state = OptimizerState.for_params(params)
        adam_step(params, grads, state, 0.01)
        delta = params.class_bias - before
        assert np.allclose(delta, -0.01 * np.sign(grads.class_bias), atol=1e-6)

    def test_mismatched_gradient_is_refused_before_the_step(self):
        params = init_model(4, 3, tiny_hp())
        state = OptimizerState.for_params(params)
        with pytest.raises(ShapeMismatchError):
            adam_step(params, init_model(5, 3, tiny_hp()), state, 0.01)
        assert state.step == 0 and not state.m.any()

    def test_two_runs_bitwise_identical(self):
        def run():
            rng = np.random.default_rng(55)
            params = init_model(6, 4, tiny_hp(d=5, seed=3))
            state = OptimizerState.for_params(params)
            for _ in range(20):
                I, J, T, w = random_batch(rng, params)
                _, grads = backward(params, I, J, T, w)
                adam_step(params, grads, state, 0.01)
            return params

        a, b = run(), run()
        for x, y in zip(a.arrays(), b.arrays()):
            assert np.array_equal(x, y)


# -- bitwise references: the straightforward forms the fast paths must equal --


def reference_backward(params, i, j, targets, class_weights, dropout=0.0, masks=None, plan=None,
                       grads=None):
    """Two np.add.at row scatters over freshly multiplied slot gradients; plan and grads are not read."""
    I = np.asarray(i, dtype=np.int64)
    J = np.asarray(j, dtype=np.int64)
    T = np.asarray(targets, dtype=np.float64)
    B = I.size
    Ei = params.embeddings[I]
    Ej = params.embeddings[J]
    mask_i = mask_j = None
    if dropout > 0.0:
        mask_i = masks[0] / (1.0 - dropout)
        mask_j = masks[1] / (1.0 - dropout)
        Ei = Ei * mask_i
        Ej = Ej * mask_j
    h = Ei * Ej
    pair_bias = params.drug_bias[I] + params.drug_bias[J]
    logits = h @ params.class_proj.T + params.class_bias + params.bias_coupling * pair_bias[:, None]
    P = softmax(logits)
    w = class_weights[np.argmax(T, axis=1)]
    batch_loss = float(np.mean(w * -(T * np.log(np.maximum(P, 1e-12))).sum(axis=1)))
    G = (w[:, None] * (P - T)) / B
    dh = G @ params.class_proj
    dEi = dh * Ej
    dEj = dh * Ei
    if mask_i is not None:
        dEi = dEi * mask_i
        dEj = dEj * mask_j
    grads = ModelParameters(params.n_drugs, params.n_classes, params.embedding_dim)
    np.add.at(grads.embeddings, I, dEi)
    np.add.at(grads.embeddings, J, dEj)
    db_pair = G @ params.bias_coupling
    np.add.at(grads.drug_bias, I, db_pair)
    np.add.at(grads.drug_bias, J, db_pair)
    grads.class_proj[:] = G.T @ h
    grads.class_bias[:] = G.sum(axis=0)
    grads.bias_coupling[:] = (G * pair_bias[:, None]).sum(axis=0)
    return batch_loss, grads


def reference_adam_step(params, grads, state, learning_rate):
    """The textbook update, the whole vector at once."""
    state.step += 1
    bc1 = 1.0 - 0.9**state.step
    bc2 = 1.0 - 0.999**state.step
    p, g, m, v = params.flat, grads.flat, state.m, state.v
    m *= 0.9
    m += (1.0 - 0.9) * g
    v *= 0.999
    v += (1.0 - 0.999) * np.square(g)
    p -= learning_rate * (m / bc1) / (np.sqrt(v / bc2) + 1e-8)
    return params, state


def test_planned_scatter_equals_add_at():
    # one plan, made from the index alone, serves several row sets: heavy
    # duplicates (drug 7 in 40 slots, so 40 rounds) and -0.0 entries, whole
    # rows of them included
    rng = np.random.default_rng(47)
    n, d = 50, 8
    index = np.concatenate([np.full(40, 7), np.full(12, 3), rng.integers(0, n, 150)])
    rng.shuffle(index)
    plan = model_mod._scatter_plan(index)
    assert len(plan[1]) == np.bincount(index).max() > 5
    for _ in range(3):
        rows = rng.standard_normal((index.size, d))
        rows[rng.random(rows.shape) < 0.5] = -0.0
        rows[index == 3] = -0.0
        rows[np.flatnonzero(index == 7)[::2], :3] = -0.0
        expected = np.zeros((n, d))
        got = np.zeros((n, d))
        np.add.at(expected, index, rows)
        model_mod._scatter_planned(plan, rows, got)
        assert got.tobytes() == expected.tobytes()


def assert_bitwise_equal(xs, ys):
    assert len(xs) == len(ys)
    for x, y in zip(xs, ys):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()


class TestBitwiseReferences:
    def test_row_scatter_equals_add_at(self):
        rng = np.random.default_rng(31)
        n, d = 9, 6
        indices = [
            rng.integers(0, n, 40),        # heavy repeats
            np.full(25, 4),                # one target, 25 rounds
            rng.permutation(n),            # all distinct, one round
            np.array([2, 7, 2, 2, 0, 7]),
        ]
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-320])
        for index in indices:
            rows = rng.standard_normal((index.size, d))
            rows[rng.random(rows.shape) < 0.4] = -0.0
            rows[::3, 0] = rng.choice(special, rows[::3, 0].size)
            rows[1::4, 1] = np.inf
            rows[2::5, 1] = -np.inf
            expected = np.zeros((n, d))
            got = np.zeros((n, d))
            with np.errstate(invalid="ignore"):
                np.add.at(expected, index, rows)
                model_mod._scatter_planned(model_mod._scatter_plan(index), rows, got)
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n, rows_in, d", [(572, 512, 512), (1200, 2048, 64)])
    def test_row_scatter_equals_add_at_at_bench_shapes(self, n, rows_in, d):
        # the holdout batch (2B = 512 rows of d = 512 over 572 drugs) and the
        # retrospective one (2B = 2048 rows of d = 64 over 1,200 drugs), with
        # hub drugs drawn ~1/rank so some rows repeat dozens of times
        rng = np.random.default_rng(n)
        hubs = 1.0 / np.arange(1, n + 1)
        index = rng.permutation(n)[rng.choice(n, rows_in, p=hubs / hubs.sum())]
        assert np.bincount(index).max() >= 20
        rows = rng.standard_normal((rows_in, d))
        rows[rng.random(rows.shape) < 0.3] = -0.0
        special = np.array([np.inf, -np.inf, np.nan, 5e-324, -1e-310, -0.0])
        cells = rng.random(rows.shape) < 0.01
        rows[cells] = rng.choice(special, int(cells.sum()))
        rows[index == np.bincount(index).argmax(), : d // 4] = -0.0
        expected = np.zeros((n, d))
        got = np.zeros((n, d))
        with np.errstate(invalid="ignore"):
            np.add.at(expected, index, rows)
            model_mod._scatter_planned(model_mod._scatter_plan(index), rows, got)
        assert got.tobytes() == expected.tobytes()

    def test_backward_at_paper_width_equals_add_at_reference(self):
        # d = 512, B = 256 and dropout 0.3 as in the paper's training step
        rng = np.random.default_rng(34)
        params = random_model(rng, n=572, d=512, K=65)
        hubs = 1.0 / np.arange(1, 573)
        I = rng.choice(572, 256, p=hubs / hubs.sum())
        J = (I + 1 + rng.integers(0, 571, I.size)) % 572
        T = rng.dirichlet(np.ones(65), size=I.size)
        w = class_weights(rng.integers(1, 10, 65))
        params.embeddings[::7, ::3] = -0.0
        for seed in (0, 1):
            masks = keep_masks(seed, (I.size, 512), 0.3)
            loss_new, new = backward(params, I, J, T, w, 0.3, masks)
            loss_ref, ref = reference_backward(params, I, J, T, w, 0.3, masks)
            assert loss_new == loss_ref
            assert_bitwise_equal(new.arrays(), ref.arrays())

    def test_backward_equals_add_at_reference(self):
        rng = np.random.default_rng(32)
        for n, d, K, size, dropout in [(5, 3, 2, 30, 0.0), (12, 16, 4, 50, 0.4), (40, 7, 5, 8, 0.3)]:
            params = random_model(rng, n=n, d=d, K=K)
            I, J, T, w = random_batch(rng, params, size=size)
            masks = keep_masks(int(rng.integers(1 << 30)), (size, d), dropout)
            loss_new, new = backward(params, I, J, T, w, dropout, masks)
            loss_ref, ref = reference_backward(params, I, J, T, w, dropout, masks)
            assert loss_new == loss_ref
            assert_bitwise_equal(new.arrays(), ref.arrays())

    @pytest.mark.parametrize("block", [1, 4, 12, 64, None])
    def test_sliced_adam_equals_textbook_update(self, monkeypatch, block):
        # None keeps the module's block size, with an embedding matrix that
        # spans two full slices and a short third one
        rng = np.random.default_rng(33)
        d = 9
        n = 37 if block else 2 * (model_mod.ADAM_BLOCK // d) + 11
        if block:
            monkeypatch.setattr(model_mod, "ADAM_BLOCK", block)
        params = random_model(rng, n=n, d=d, K=5)
        ref_params = copy.deepcopy(params)
        state = OptimizerState.for_params(params)
        ref_state = OptimizerState.for_params(ref_params)
        for _ in range(4):
            grads = ModelParameters(n, 5, d, rng.standard_normal(params.flat.size))
            grads.embeddings[rng.random(n) < 0.5] = 0.0
            grads.drug_bias[::2] = -0.0
            adam_step(params, grads, state, 0.01)
            reference_adam_step(ref_params, grads, ref_state, 0.01)
        assert state.step == ref_state.step == 4
        assert_bitwise_equal(params.arrays(), ref_params.arrays())
        assert_bitwise_equal([state.m, state.v], [ref_state.m, ref_state.v])

    @pytest.mark.parametrize("n, K, d, batch", [(40, 5, 16, 32), (300, 7, 128, 64)])
    def test_train_equals_reference_steps(self, monkeypatch, n, K, d, batch):
        # per-batch targets propagated over the graph, against reference steps
        # fed rows gathered from the whole propagate_targets matrix
        rng = np.random.default_rng(n)
        I = rng.integers(0, n, 5 * batch)
        J = (I + 1 + rng.integers(0, n - 1, I.size)) % n
        labels = rng.integers(0, K, I.size)
        rows = np.column_stack([I, J, labels])
        # every other distinct pair is stored, with its first row's class
        first = np.unique(np.minimum(I, J) * n + np.maximum(I, J), return_index=True)[1]
        graph = build_graph(n, K, "holdout", rows[first[::2]])
        pairs = attach_targets(rows, graph, 0.37)
        hp = Hyperparameters(embedding_dim=d, dropout=0.3, epochs=2, batch_size=batch,
                             learning_rate=0.01, alpha=0.37, seed=7)
        fast = train(pairs, hp, n, K)
        eager = propagate_targets(graph, *pairs.items.T, 0.37)
        batched = []

        def eager_batch(self, idx, out=None, scratch=None):
            batched.append(idx.size)
            I, J, _ = self.items[idx].T
            return I, J, eager[idx]

        monkeypatch.setattr(pipeline, "backward", reference_backward)
        monkeypatch.setattr(pipeline, "adam_step", reference_adam_step)
        monkeypatch.setattr(LabeledPairs, "batch", eager_batch)
        ref = train(pairs, hp, n, K)
        # every step of the reference run took its targets from the eager matrix
        assert sum(batched) == hp.epochs * len(pairs) and len(batched) == 2 * 5
        assert_bitwise_equal(fast.arrays(), ref.arrays())

    def test_softmax_equals_three_temporary_form(self):
        rng = np.random.default_rng(35)
        logits = rng.standard_normal((300, 9)) * 40.0
        logits[::5] = 3.0                                 # all-equal rows
        logits[1::7, 0] = 800.0                           # exp overflows without the shift
        logits[2::7, :4] = -1e300
        logits[3::11, 2] = -0.0
        for x in (logits, logits[0], logits[:, :1], logits[::3, ::2]):
            before = x.copy()
            z = x - x.max(axis=-1, keepdims=True)
            e = np.exp(z)
            want = e / e.sum(axis=-1, keepdims=True)
            got = softmax(x)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert x.tobytes() == before.tobytes()

    def test_forward_batch_equals_three_temporary_form(self):
        rng = np.random.default_rng(36)
        for n, d, K, size in [(5, 3, 2, 1), (40, 7, 5, 300), (572, 512, 65, 256)]:
            params = random_model(rng, n=n, d=d, K=K)
            params.embeddings[::3, ::2] = -0.0
            I, J, _, _ = random_batch(rng, params, size=size)
            h = params.embeddings[I] * params.embeddings[J]
            pair_bias = params.drug_bias[I] + params.drug_bias[J]
            want = h @ params.class_proj.T + params.class_bias + params.bias_coupling * pair_bias[:, None]
            assert model_mod._forward_parts(params, I, J, 0.0, None)[-1].tobytes() == want.tobytes()
            assert model_mod.forward_batch(params, I, J).tobytes() == want.tobytes()
            assert predict_batch(params, I, J).tobytes() == softmax(want).tobytes()
