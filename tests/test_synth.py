import numpy as np
import pytest

from amfpmc.errors import EmptyDatasetError, InvalidConfigError
from amfpmc.metrics import multiclass_report
from amfpmc.pipeline import train
from amfpmc.synth import SyntheticConfig, generate_synthetic


def test_deterministic_given_seed():
    cfg = SyntheticConfig(n_drugs=40, n_blocks=2, n_classes=4, edge_probability=0.3,
                          label_noise=0.1, holdout_fraction=0.2, seed=9)
    a = generate_synthetic(cfg)
    b = generate_synthetic(cfg)
    assert np.array_equal(a.graph_t0.edge_list(), b.graph_t0.edge_list())
    assert np.array_equal(a.graph_t1.edge_list(), b.graph_t1.edge_list())
    assert np.array_equal(a.held_out, b.held_out)


def test_t1_is_t0_plus_held_out():
    cfg = SyntheticConfig(n_drugs=40, n_blocks=2, n_classes=4, edge_probability=0.4,
                          holdout_fraction=0.25, seed=10)
    data = generate_synthetic(cfg)
    t1_edges = set(map(tuple, data.graph_t1.edge_list().tolist()))
    t0_edges = set(map(tuple, data.graph_t0.edge_list().tolist()))
    held_out = set(map(tuple, data.held_out.tolist()))
    assert t0_edges | held_out == t1_edges
    assert not t0_edges & held_out
    assert len(held_out) == len(data.held_out) == int(round(0.25 * len(t1_edges)))
    assert data.held_out.tolist() == sorted(data.held_out.tolist())


def test_complete_noiseless_graph_is_fully_determined():
    cfg = SyntheticConfig(n_drugs=20, n_blocks=2, n_classes=4, edge_probability=1.0,
                          label_noise=0.0, holdout_fraction=0.2, seed=11)
    data = generate_synthetic(cfg)
    assert data.graph_t1.num_edges == 20 * 19 // 2
    for i, j, c in data.graph_t1.edge_list():
        assert c == data.block_pair_class(int(data.block_of[i]), int(data.block_of[j]))
    # reading the block map scores the held-out edges perfectly
    probs = np.zeros((len(data.held_out), cfg.n_classes))
    for row, (i, j, _) in enumerate(data.held_out):
        probs[row, data.block_pair_class(int(data.block_of[i]), int(data.block_of[j]))] = 1.0
    rep = multiclass_report(probs, [c for _, _, c in data.held_out])
    assert rep.accuracy == 1.0 and rep.macro_auroc == 1.0


def test_zero_probability_graph_is_empty_and_training_fails():
    cfg = SyntheticConfig(n_drugs=20, n_blocks=2, n_classes=4, edge_probability=0.0, seed=12)
    data = generate_synthetic(cfg)
    assert data.graph_t0.num_edges == 0
    from amfpmc.model import Hyperparameters

    with pytest.raises(EmptyDatasetError):
        train([], Hyperparameters(embedding_dim=4), 20, 4)


def test_noise_stays_among_planted_classes():
    cfg = SyntheticConfig(n_drugs=60, n_blocks=3, n_classes=9, edge_probability=0.5,
                          label_noise=0.3, holdout_fraction=0.0, seed=13)
    data = generate_synthetic(cfg)
    planted = {data.block_pair_class(g, h) for g in range(3) for h in range(g, 3)}
    flipped = 0
    for i, j, c in data.graph_t1.edge_list():
        assert c in planted
        if c != data.block_pair_class(int(data.block_of[i]), int(data.block_of[j])):
            flipped += 1
    m = data.graph_t1.num_edges
    assert abs(flipped / m - 0.3) < 0.05


def test_retrospective_mode_reserves_class_zero():
    cfg = SyntheticConfig(n_drugs=40, n_blocks=2, n_classes=5, edge_probability=0.4,
                          seed=14, mode="retrospective")
    data = generate_synthetic(cfg)
    assert data.graph_t0.mode == "retrospective"
    assert all(c >= 1 for _, _, c in data.graph_t1.edge_list())
    assert data.block_pair_class(0, 0) == 1


def test_config_validation():
    with pytest.raises(InvalidConfigError):
        SyntheticConfig(n_drugs=40, n_blocks=2, n_classes=3)  # needs 4
    with pytest.raises(InvalidConfigError):
        SyntheticConfig(n_drugs=40, n_blocks=2, n_classes=4, mode="retrospective")
    with pytest.raises(InvalidConfigError):
        SyntheticConfig(n_drugs=3, n_blocks=2, n_classes=4)
    with pytest.raises(InvalidConfigError):
        SyntheticConfig(edge_probability=1.5)
    with pytest.raises(InvalidConfigError):
        SyntheticConfig(label_noise=1.0)
    with pytest.raises(InvalidConfigError):
        SyntheticConfig(holdout_fraction=1.0)


def test_block_sizes_contiguous_and_even():
    cfg = SyntheticConfig(n_drugs=10, n_blocks=3, n_classes=9, edge_probability=0.5, seed=15)
    data = generate_synthetic(cfg)
    assert data.block_of.tolist() == sorted(data.block_of.tolist())
    sizes = np.bincount(data.block_of)
    assert sizes.max() - sizes.min() <= 1
