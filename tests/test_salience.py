"""Activation statistics and the four salience heuristics."""

import numpy as np
import pytest

from convprune.finetune import Triplet, triplet_loss
from convprune.network import forward_features, init_network
from convprune.pooling import sqp_pool
from convprune.salience import (ActivationStats, LayerStats, collect_activation_stats,
                                salience_h1, salience_h2, salience_h3, salience_h4)
from convprune.tensor import ShapeError

from util import ArrayDataset


def one_conv_arch(c_in=1, c_out=1, h=1, w=2, kernel=1):
    return {"input_shape": [c_in, h, w],
            "layers": [{"kind": "conv", "channels": c_out, "kernel": kernel,
                        "stride": 1, "padding": 0}]}


# ---------------------------------------------------------------------------
# Activation statistics
# ---------------------------------------------------------------------------

def test_stats_constant_channel():
    model = init_network(one_conv_arch(), seed=0)
    images = [np.full((1, 1, 2), -3.0) for _ in range(5)]
    stats = collect_activation_stats(model, images)
    layer = stats.layers[0]
    assert layer.mean_abs[0] == pytest.approx(3.0, abs=1e-15)
    assert layer.variance[0] == pytest.approx(0.0, abs=1e-15)
    assert stats.sample_count == 5


def test_stats_plus_minus_one():
    model = init_network(one_conv_arch(), seed=0)
    stats = collect_activation_stats(model, [np.array([[[1.0, -1.0]]])])
    layer = stats.layers[0]
    # population over the two positions: mean 0, variance 1, mean_abs 1
    assert layer.mean_abs[0] == pytest.approx(1.0)
    assert layer.variance[0] == pytest.approx(1.0)


def test_stats_streaming_equals_one_shot():
    arch = {"input_shape": [2, 8, 8],
            "layers": [{"kind": "conv", "channels": 3, "kernel": 3, "stride": 1, "padding": 1},
                       {"kind": "relu"},
                       {"kind": "conv", "channels": 4, "kernel": 3, "stride": 1, "padding": 1}]}
    model = init_network(arch, seed=1)
    rng = np.random.default_rng(0)
    images = [rng.standard_normal((2, 8, 8)) for _ in range(7)]
    stats = collect_activation_stats(model, images)
    # whole-dataset oracle: gather every conv input and reduce in one shot
    gathered = {}
    for img in images:
        conv_inputs = []
        forward_features(model, img, conv_inputs=conv_inputs)
        for idx, act in conv_inputs:
            gathered.setdefault(idx, []).append(act)
    for idx, acts in gathered.items():
        allv = np.concatenate([a.reshape(a.shape[0], -1) for a in acts], axis=1)
        assert np.abs(stats.layers[idx].mean_abs - np.abs(allv).mean(axis=1)).max() < 1e-10
        assert np.abs(stats.layers[idx].variance - allv.var(axis=1)).max() < 1e-10


def test_stats_reject_empty_sequence():
    model = init_network(one_conv_arch(), seed=0)
    with pytest.raises(ValueError, match="at least one"):
        collect_activation_stats(model, [])


# ---------------------------------------------------------------------------
# h1
# ---------------------------------------------------------------------------

def test_h1_absolute_values():
    model = init_network(one_conv_arch(c_in=2), seed=0)
    layer = model.layers[0]
    layer.weights[:] = np.array([0.1, -0.5]).reshape(1, 2, 1, 1)
    smap = salience_h1(model)
    assert np.array_equal(smap.scores[0].reshape(-1), [0.1, 0.5])


def test_h1_zero_layer():
    model = init_network(one_conv_arch(), seed=0)
    model.layers[0].weights[:] = 0.0
    assert not salience_h1(model).scores[0].any()


def test_h1_matches_elementwise_oracle_and_masks():
    model = init_network({"input_shape": [3, 8, 8],
                          "layers": [{"kind": "conv", "channels": 4, "kernel": 3,
                                      "stride": 1, "padding": 1}]}, seed=2)
    layer = model.layers[0]
    layer.mask[0, 0] = False
    layer.weights[0, 0] = 0.0
    smap = salience_h1(model)
    expected = np.abs(layer.weights)
    expected[0, 0] = 0.0
    assert np.array_equal(smap.scores[0], expected)
    smap.validate(model)


# ---------------------------------------------------------------------------
# h3 / h4
# ---------------------------------------------------------------------------

def fabricated_stats(mean_abs, variance):
    return ActivationStats(layers={0: LayerStats(mean_abs=np.asarray(mean_abs, dtype=float),
                                                 variance=np.asarray(variance, dtype=float),
                                                 position_count=10)},
                           sample_count=10, fingerprint="fab")


def test_h3_direct_values():
    model = init_network(one_conv_arch(c_in=2), seed=0)
    model.layers[0].weights[:] = 0.5
    smap = salience_h3(model, fabricated_stats([1.0, 2.0], [0.0, 0.0]))
    assert np.array_equal(smap.scores[0].reshape(-1), [0.5, 1.0])


def test_h3_zero_mean_channel_zeroes_scores():
    model = init_network(one_conv_arch(c_in=2), seed=1)
    smap = salience_h3(model, fabricated_stats([0.0, 1.0], [1.0, 1.0]))
    assert not smap.scores[0][:, 0].any()


def test_h3_linearity_in_mean():
    model = init_network(one_conv_arch(c_in=2), seed=2)
    a = salience_h3(model, fabricated_stats([1.0, 3.0], [0, 0])).scores[0]
    b = salience_h3(model, fabricated_stats([2.0, 3.0], [0, 0])).scores[0]
    assert np.allclose(b[:, 0], 2 * a[:, 0])
    assert np.array_equal(b[:, 1], a[:, 1])


def test_h4_direct_values():
    model = init_network(one_conv_arch(c_in=2), seed=0)
    model.layers[0].weights[:] = 0.5
    smap = salience_h4(model, fabricated_stats([0.0, 0.0], [1.0, 4.0]))
    assert np.allclose(smap.scores[0].reshape(-1), [0.25, 1.0])


def test_h4_even_in_weight_sign():
    model = init_network(one_conv_arch(c_in=2), seed=3)
    stats = fabricated_stats([1.0, 1.0], [1.0, 2.0])
    a = salience_h4(model, stats).scores[0]
    model.layers[0].weights *= -1
    b = salience_h4(model, stats).scores[0]
    assert np.array_equal(a, b)


def test_h3_rejects_mismatched_stats():
    model = init_network(one_conv_arch(c_in=2), seed=0)
    with pytest.raises(ShapeError, match="channels"):
        salience_h3(model, fabricated_stats([1.0], [1.0]))


def test_h3_h4_streaming_equals_batch_scores():
    arch = {"input_shape": [2, 6, 6],
            "layers": [{"kind": "conv", "channels": 3, "kernel": 3, "stride": 1, "padding": 1}]}
    model = init_network(arch, seed=4)
    rng = np.random.default_rng(2)
    images = [rng.standard_normal((2, 6, 6)) for _ in range(6)]
    stats_stream = collect_activation_stats(model, images)
    allv = np.concatenate([img.reshape(2, -1) for img in images], axis=1)
    stats_batch = ActivationStats(
        layers={0: LayerStats(mean_abs=np.abs(allv).mean(axis=1), variance=allv.var(axis=1),
                              position_count=allv.shape[1])},
        sample_count=len(images))
    for fn in (salience_h3, salience_h4):
        a = fn(model, stats_stream).scores[0]
        b = fn(model, stats_batch).scores[0]
        assert np.abs(a - b).max() < 1e-10


# ---------------------------------------------------------------------------
# h2
# ---------------------------------------------------------------------------

def micro_setup(seed=0, weight_scale=1e-3):
    """One-conv micro pipeline with O(1) biases so the loss has bounded
    curvature in the (tiny) weights."""
    arch = {"input_shape": [1, 4, 4],
            "layers": [{"kind": "conv", "channels": 2, "kernel": 2, "stride": 1, "padding": 0}]}
    model = init_network(arch, seed=seed)
    rng = np.random.default_rng(seed)
    layer = model.layers[0]
    layer.weights[:] = rng.uniform(-weight_scale, weight_scale, size=layer.weights.shape)
    layer.bias[:] = np.array([0.6, 0.4])
    images = {f"img{i}": rng.uniform(0.0, 1.0, size=(1, 4, 4)) for i in range(6)}
    dataset = ArrayDataset(images)
    triplets = [Triplet("img0", "img1", "img2"), Triplet("img3", "img4", "img5"),
                Triplet("img1", "img0", "img4"), Triplet("img5", "img2", "img3")]
    return model, dataset, triplets


def mean_pipeline_loss(model, dataset, triplets, margin=0.1):
    total = 0.0
    for t in triplets:
        descs = [sqp_pool(forward_features(model, dataset.load_image(i))).values
                 for i in (t.query, t.positive, t.negative)]
        total += triplet_loss(descs[0], descs[1], descs[2], margin)
    return total / len(triplets)


def test_h2_first_order_ablation_agreement():
    model, dataset, triplets = micro_setup()
    smap = salience_h2(model, triplets, dataset, pooling="sqp", margin=0.1)
    layer = model.layers[0]
    base = mean_pipeline_loss(model, dataset, triplets)
    flat_w = layer.weights.reshape(-1)
    flat_s = smap.scores[0].reshape(-1)
    for k in range(flat_w.size):
        orig = flat_w[k]
        flat_w[k] = 0.0
        ablated = mean_pipeline_loss(model, dataset, triplets)
        flat_w[k] = orig
        assert abs(flat_s[k] - abs(base - ablated)) <= 1e-5


def test_h2_duplicated_triplet_invariance():
    model, dataset, triplets = micro_setup(seed=1)
    one = salience_h2(model, triplets[:1], dataset, margin=0.1)
    two = salience_h2(model, triplets[:1] * 2, dataset, margin=0.1)
    assert np.abs(one.scores[0] - two.scores[0]).max() < 1e-12


def test_h2_all_inactive_hinges_warns_and_zeroes():
    model, dataset, _ = micro_setup(seed=2)
    # query == positive gives similarity exactly 1; a margin below the
    # 1 - K(q, n) gap keeps every hinge inactive
    t = Triplet("img0", "img0", "img1")
    dq = sqp_pool(forward_features(model, dataset.load_image("img0"))).values
    dn = sqp_pool(forward_features(model, dataset.load_image("img1"))).values
    from convprune.retrieval import similarity
    k_n = similarity(dq, dn)
    assert k_n < 1.0
    margin = (1.0 - k_n) / 2
    with pytest.warns(RuntimeWarning, match="inactive"):
        smap = salience_h2(model, [t], dataset, margin=margin)
    assert not smap.scores[0].any()


def test_h2_requires_triplets():
    model, dataset, _ = micro_setup()
    with pytest.raises(ValueError, match="nonempty"):
        salience_h2(model, [], dataset)

