"""Triplet loss, sampling, and the mask-preserving SGD loop."""

import os
import sys

import numpy as np
import pytest

from convprune import finetune as finetune_module
from convprune.finetune import (FinetuneConfig, TrainingDiverged, Triplet, descriptor_of,
                                finetune, sample_triplets, sgd_batch_step, split_descriptors,
                                train_baseline, triplet_gradients, triplet_loss,
                                triplet_loss_op)
from convprune.network import clone_model, compact_model, forward_features, init_network
from convprune.pooling import sqp_pool
from convprune.pruner import apply_pruning
from convprune.retrieval import similarity
from convprune.salience import salience_h1, salience_h2
from convprune.tensor import GradientTape, ShapeError

from util import (CHANNEL_PLAN, ArrayDataset, build_dataset, channel_structured_model,
                  fd_gradient, reference_triplet_grads, rel_error)


def vec_with_cosine(k):
    """Unit vector whose cosine against [1, 0] is exactly k."""
    return np.array([k, np.sqrt(1.0 - k * k)])


# ---------------------------------------------------------------------------
# Loss values
# ---------------------------------------------------------------------------

def test_loss_inactive_hinge():
    q = np.array([1.0, 0.0])
    assert triplet_loss(q, vec_with_cosine(0.9), vec_with_cosine(0.2), 0.1) == 0.0


def test_loss_active_hinge_value():
    q = np.array([1.0, 0.0])
    loss = triplet_loss(q, vec_with_cosine(0.5), vec_with_cosine(0.45), 0.1)
    assert loss == pytest.approx(0.05, abs=1e-12)


def test_loss_perfect_positive():
    q = np.array([0.3, 0.4])
    neg = np.array([1.0, 0.0])
    assert similarity(q, neg) < 1.0 - 0.1
    assert triplet_loss(q, q.copy(), neg, 0.1) == 0.0


def test_loss_zero_exactly_at_margin_gap_and_continuous():
    q = np.array([1.0, 0.0])
    m = 0.1
    # gap exactly m: hinge is exactly 0 (boundary belongs to the flat side)
    pos, neg = vec_with_cosine(0.6), vec_with_cosine(0.5)
    assert triplet_loss(q, pos, neg, m) == pytest.approx(0.0, abs=1e-12)
    # marginally inside the margin: loss is the (tiny) violation
    neg = vec_with_cosine(0.5 + 1e-6)
    assert triplet_loss(q, pos, neg, m) == pytest.approx(1e-6, rel=1e-3)


def test_loss_rejects_bad_margin():
    with pytest.raises(ValueError):
        triplet_loss(np.ones(2), np.ones(2), np.ones(2), 0.0)


def test_loss_op_degenerate_descriptors_well_defined():
    tape = GradientTape()
    zero = np.zeros(3)
    q = np.ones(3)
    with pytest.warns(RuntimeWarning, match="degenerate"):
        loss = triplet_loss_op(q, zero, zero.copy(), 0.1, tape)
    assert float(loss) == pytest.approx(0.1)  # both similarities defined as 0


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def fake_dataset(tmp_path, n_instances=4, n_images=7, seed=0):
    rng = np.random.default_rng(seed)
    images = [[rng.uniform(0.0, 1.0, size=(1, 8, 8)) for _ in range(n_images)]
              for _ in range(n_instances)]
    return build_dataset(tmp_path, images)


def test_sampling_deterministic(tmp_path):
    ds = fake_dataset(tmp_path / "d")
    a = sample_triplets(ds, 20, seed=3)
    b = sample_triplets(ds, 20, seed=3)
    c = sample_triplets(ds, 20, seed=4)
    assert a == b
    assert a != c


def test_sampling_label_constraints(tmp_path):
    ds = fake_dataset(tmp_path / "d")
    for t in sample_triplets(ds, 100, seed=0):
        assert len({t.query, t.positive, t.negative}) == 3
        assert ds.label_of(t.query) == ds.label_of(t.positive)
        assert ds.label_of(t.query) != ds.label_of(t.negative)


def test_sampling_rejects_single_instance(tmp_path):
    rng = np.random.default_rng(0)
    images = [[rng.uniform(size=(1, 4, 4)) for _ in range(6)]]
    ds = build_dataset(tmp_path / "one", images)
    with pytest.raises(ValueError, match=">= 2 instances"):
        sample_triplets(ds, 5)


def test_sampling_rejects_no_positive_pairs(tmp_path):
    rng = np.random.default_rng(0)
    # 6 images per instance: exactly one lands in the train split
    images = [[rng.uniform(size=(1, 4, 4)) for _ in range(6)] for _ in range(3)]
    ds = build_dataset(tmp_path / "lonely", images)
    assert all(len([i for i in ds.split('train') if i.label == l]) == 1 for l in range(3))
    with pytest.raises(ValueError, match="positive pair"):
        sample_triplets(ds, 5)


def test_hard_mining_picks_planted_negative(tmp_path):
    ds = fake_dataset(tmp_path / "d", n_instances=6)
    train = ds.split("train")
    q_label = train[0].label
    # plant descriptors: one wrong-instance item at cosine 0.99, rest at 0.3
    descriptors = {}
    planted = None
    for it in train:
        if it.label == q_label:
            descriptors[it.item_id] = np.array([1.0, 0.0])
        elif planted is None:
            planted = it.item_id
            descriptors[it.item_id] = vec_with_cosine(0.99)
        else:
            descriptors[it.item_id] = vec_with_cosine(0.3)
    triplets = sample_triplets(ds, 50, mode="hard", seed=1, descriptors=descriptors,
                               pool_size=len(train))
    for t in triplets:
        if ds.label_of(t.query) == q_label:
            assert t.negative == planted


def test_hard_mining_needs_descriptors(tmp_path):
    ds = fake_dataset(tmp_path / "d")
    with pytest.raises(ValueError, match="descriptors"):
        sample_triplets(ds, 5, mode="hard")


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

def test_zero_loss_stream_leaves_model_bit_identical(tmp_path):
    rng = np.random.default_rng(7)
    img_a = rng.uniform(0.0, 1.0, size=(1, 8, 8))
    img_b = rng.uniform(0.0, 1.0, size=(1, 8, 8))
    # identical copies within each instance: K(q, pos) == 1 for every triplet
    ds = build_dataset(tmp_path / "const", [[img_a.copy() for _ in range(7)],
                                            [img_b.copy() for _ in range(7)]])
    arch = {"input_shape": [1, 8, 8],
            "layers": [{"kind": "conv", "channels": 4, "kernel": 3, "stride": 1, "padding": 1},
                       {"kind": "relu"}, {"kind": "maxpool2"}]}
    model = init_network(arch, seed=1)
    da = sqp_pool(forward_features(model, img_a)).values
    db = sqp_pool(forward_features(model, img_b)).values
    k_cross = similarity(da, db)
    assert k_cross < 1.0
    margin = (1.0 - k_cross) / 2
    cfg = FinetuneConfig(margin=margin, learning_rate=0.5, epochs=3, seed=0)
    tuned, log = finetune(model, ds, cfg)
    assert all(e["mean_loss"] == 0.0 for e in log)
    assert all(e["active_fraction"] == 0.0 for e in log)
    for (_, a), (_, b) in zip(model.conv_layers(), tuned.conv_layers()):
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)


def test_single_step_descends_on_active_triplet(tmp_path):
    ds = fake_dataset(tmp_path / "d", seed=3)
    arch = {"input_shape": [1, 8, 8],
            "layers": [{"kind": "conv", "channels": 4, "kernel": 3, "stride": 1, "padding": 1},
                       {"kind": "relu"}, {"kind": "maxpool2"}]}
    model = init_network(arch, seed=2)
    cfg = FinetuneConfig(margin=0.2, learning_rate=1e-4, epochs=1, seed=0)

    def loss_of(t):
        descs = [sqp_pool(forward_features(model, ds.load_image(i))).values
                 for i in (t.query, t.positive, t.negative)]
        return triplet_loss(descs[0], descs[1], descs[2], cfg.margin)

    triplet = sample_triplets(ds, 1, seed=9)[0]
    before = loss_of(triplet)
    assert before > 0.0  # planted active hinge
    sgd_batch_step(model, [triplet], ds, cfg)
    assert loss_of(triplet) < before


def test_mask_preservation_and_count(small_dataset, small_arch):
    model = init_network(small_arch, seed=3)
    pruned, _ = apply_pruning(model, salience_h1(model), 0.5)
    masked_before = sum(int((~l.mask).sum()) for _, l in pruned.conv_layers())
    cfg = FinetuneConfig(epochs=2, seed=0)
    tuned, _ = finetune(pruned, small_dataset, cfg)
    masked_after = 0
    for _, layer in tuned.conv_layers():
        assert np.all(layer.weights[~layer.mask] == 0.0)
        masked_after += int((~layer.mask).sum())
    assert masked_after == masked_before


def test_finetune_reproducible(small_dataset, small_arch):
    model = init_network(small_arch, seed=4)
    cfg = FinetuneConfig(epochs=2, seed=11)
    a, _ = finetune(model, small_dataset, cfg)
    b, _ = finetune(model, small_dataset, cfg)
    for (_, la), (_, lb) in zip(a.conv_layers(), b.conv_layers()):
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.bias, lb.bias)


def test_finetune_does_not_mutate_input_model(small_dataset, small_arch):
    model = init_network(small_arch, seed=5)
    before = [l.weights.copy() for _, l in model.conv_layers()]
    finetune(model, small_dataset, FinetuneConfig(epochs=1, seed=0))
    for (_, l), w in zip(model.conv_layers(), before):
        assert np.array_equal(l.weights, w)


def test_non_finite_loss_aborts_with_diagnostic(small_dataset, small_arch):
    model = init_network(small_arch, seed=6)
    model.layers[0].weights[0, 0, 0, 0] = np.nan
    with pytest.raises(TrainingDiverged, match="epoch 0"):
        finetune(model, small_dataset, FinetuneConfig(epochs=1, seed=0))


def test_hard_mining_epoch_runs(small_dataset, small_arch):
    model = init_network(small_arch, seed=7)
    cfg = FinetuneConfig(epochs=1, seed=0, mining="hard", hard_pool_size=8)
    tuned, log = finetune(model, small_dataset, cfg)
    assert len(log) == 1


@pytest.mark.parametrize("bad", [{"margin": float("nan")}, {"pooling": "bogus"},
                                 {"rmac_levels": 0}, {"learning_rate": -0.2},
                                 {"learning_rate": 0.0}, {"learning_rate": float("nan")},
                                 {"learning_rate": float("inf")}, {"hard_pool_size": 0}])
def test_config_rejects_invalid_settings(bad):
    # each of these used to pass construction and fail, or train wrongly, later
    (field,) = bad
    with pytest.raises(ValueError, match=field.replace("_", " ")):
        FinetuneConfig(**bad)


@pytest.mark.parametrize("bad", [{"epochs": 2.5}, {"rmac_levels": 2.5}, {"batch_size": 1.5},
                                 {"hard_pool_size": 2.5}, {"seed": 1.5}, {"epochs": True},
                                 {"batch_size": "16"}, {"seed": -1}])
def test_config_rejects_non_integer_counts(bad):
    # each of these used to pass construction and fail with a TypeError later
    (field,) = bad
    with pytest.raises(ValueError, match=f"{field.replace('_', ' ')} must be an integer"):
        FinetuneConfig(**bad)


# ---------------------------------------------------------------------------
# Gradient correctness through the whole micro pipeline
# ---------------------------------------------------------------------------

def test_micro_pipeline_gradients_match_finite_differences():
    arch = {"input_shape": [1, 4, 4],
            "layers": [{"kind": "conv", "channels": 3, "kernel": 3, "stride": 1, "padding": 1},
                       {"kind": "relu"},
                       {"kind": "conv", "channels": 2, "kernel": 3, "stride": 1, "padding": 1}]}
    rng = np.random.default_rng(12)
    model = init_network(arch, seed=8)
    for _, layer in model.conv_layers():
        layer.bias[:] = rng.uniform(0.1, 0.5, size=layer.bias.shape)
    images = [rng.uniform(0.1, 1.0, size=(1, 4, 4)) for _ in range(3)]

    def loss():
        descs = [sqp_pool(forward_features(model, img)).values for img in images]
        return triplet_loss(descs[0], descs[1], descs[2], 0.5)

    assert loss() > 1e-3  # active hinge, away from the kink
    tape = GradientTape()
    descs = [sqp_pool(forward_features(model, img, tape=tape), tape=tape).values
             for img in images]
    out = triplet_loss_op(descs[0], descs[1], descs[2], 0.5, tape)
    tape.backward(out)
    for idx, layer in model.conv_layers():
        assert rel_error(tape.gradient(layer.weights), fd_gradient(loss, layer.weights)) < 1e-5
        assert rel_error(tape.gradient(layer.bias), fd_gradient(loss, layer.bias)) < 1e-5


# ---------------------------------------------------------------------------
# Baseline training
# ---------------------------------------------------------------------------

def test_train_baseline_improves_map_and_logs(small_dataset, small_arch):
    from convprune.cli import evaluate_model
    untrained = init_network(small_arch, seed=9)
    m_untrained = evaluate_model(untrained, small_dataset, "sqp").mean_ap
    cfg = FinetuneConfig(epochs=6, seed=9)
    trained = train_baseline(small_arch, small_dataset, cfg)
    m_trained = evaluate_model(trained, small_dataset, "sqp").mean_ap
    assert m_trained > m_untrained
    assert len(trained.meta["history"]) == 6
    losses = [e["mean_loss"] for e in trained.meta["history"][:3]]
    # non-increasing over the first three epochs, 5% fluctuation allowed
    assert losses[1] <= losses[0] * 1.05
    assert losses[2] <= losses[1] * 1.05


def test_train_baseline_deterministic(small_dataset, small_arch):
    cfg = FinetuneConfig(epochs=1, seed=13)
    a = train_baseline(small_arch, small_dataset, cfg)
    b = train_baseline(small_arch, small_dataset, cfg)
    for (_, la), (_, lb) in zip(a.conv_layers(), b.conv_layers()):
        assert np.array_equal(la.weights, lb.weights)


# ---------------------------------------------------------------------------
# Shared gradient loop against the per-triplet reference loop
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("pooling", ["sqp", "rmac"])
def test_shared_loop_matches_reference_loop(small_dataset, small_arch, pooling):
    model = init_network(small_arch, seed=3)
    model, _ = apply_pruning(model, salience_h1(model), 0.6)
    triplets = sample_triplets(small_dataset, 12, seed=8)
    cfg = FinetuneConfig(pooling=pooling, learning_rate=0.2, margin=0.1)
    ref, ref_active = reference_triplet_grads(model, triplets, small_dataset, pooling, cfg.margin)
    assert ref_active > 0

    grads, _, active = triplet_gradients(model, triplets, small_dataset, pooling, cfg.margin)
    assert active == ref_active
    for idx, _layer in model.conv_layers():
        assert rel_error(grads[idx][0], ref[idx][0]) <= 1e-12
        assert rel_error(grads[idx][1], ref[idx][1]) <= 1e-12

    stepped = clone_model(model)
    sgd_batch_step(stepped, triplets, small_dataset, cfg)
    scale = cfg.learning_rate / len(triplets)
    for (idx, before), (_, after) in zip(model.conv_layers(), stepped.conv_layers()):
        expected_w = (before.weights - scale * ref[idx][0]) * before.mask
        assert rel_error(after.weights, expected_w) <= 1e-12
        assert rel_error(after.bias, before.bias - scale * ref[idx][1]) <= 1e-12

    smap = salience_h2(model, triplets, small_dataset, pooling=pooling, margin=cfg.margin)
    for idx, layer in model.conv_layers():
        expected = np.abs(ref[idx][0] / len(triplets) * layer.weights) * layer.mask
        assert rel_error(smap.scores[idx], expected) <= 1e-12


def test_shared_loop_all_inactive_batch(small_dataset, small_arch):
    model = init_network(small_arch, seed=3)
    # query == positive: similarity exactly 1; a margin below the 1 - K(q, n)
    # gap keeps every hinge inactive
    ids = [it.item_id for it in small_dataset.split("train")]
    triplets = [Triplet(ids[0], ids[0], ids[-1]), Triplet(ids[1], ids[1], ids[-2])]
    descs = {i: sqp_pool(forward_features(model, small_dataset.load_image(i))).values
             for i in ids}
    margin = min(1.0 - similarity(descs[t.query], descs[t.negative]) for t in triplets) / 2
    assert margin > 0.0
    grads, loss, active = triplet_gradients(model, triplets, small_dataset, "sqp", margin)
    assert active == 0 and loss == 0.0
    assert not any(g.any() for pair in grads.values() for g in pair)
    with pytest.warns(RuntimeWarning, match="inactive"):
        salience_h2(model, triplets, small_dataset, margin=margin)


# ---------------------------------------------------------------------------
# Parallel triplets: results independent of the worker count
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("pooling", ["sqp", "rmac"])
def test_triplet_gradients_bitwise_equal_for_every_worker_count(small_dataset, small_arch,
                                                                pooling, monkeypatch):
    model = init_network(small_arch, seed=4)
    model, _ = apply_pruning(model, salience_h1(model), 0.6)
    # query == positive with a margin below 1 - K(q, n) keeps two hinges inactive
    a, b, c, d = (it.item_id for it in small_dataset.split("train")[:4])
    desc = {i: descriptor_of(model, small_dataset.load_image(i), pooling).values
            for i in (a, b, c, d)}
    margin = min(1.0 - similarity(desc[a], desc[b]), 1.0 - similarity(desc[c], desc[d])) / 2
    triplets = sample_triplets(small_dataset, 11, seed=6)
    triplets[3:3] = [Triplet(a, a, b)]
    triplets[8:8] = [Triplet(c, c, d)]
    ref, ref_active = reference_triplet_grads(model, triplets, small_dataset, pooling, margin)
    assert 0 < ref_active < len(triplets)
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for workers in (1, 2, 3):
            monkeypatch.setattr(finetune_module, "_workers", lambda n, k=workers: k)
            results.append(triplet_gradients(model, triplets, small_dataset, pooling, margin))
    finally:
        sys.setswitchinterval(interval)
    for grads, loss, active in results:
        assert loss == results[0][1]
        assert active == ref_active
        for idx, _layer in model.conv_layers():
            assert np.array_equal(grads[idx][0], ref[idx][0])
            assert np.array_equal(grads[idx][1], ref[idx][1])


def test_first_diverged_triplet_in_order_raises_with_two_workers(small_dataset, monkeypatch):
    ids = [it.item_id for it in small_dataset.split("train")]
    images = {i: small_dataset.load_image(i) for i in ids}
    images["nan2"] = np.full_like(images[ids[0]], np.nan)
    images["nan4"] = images["nan2"].copy()
    triplets = [Triplet(ids[k], ids[k + 1], ids[k + 9]) for k in range(6)]
    triplets[2] = Triplet("nan2", ids[0], ids[1])
    triplets[4] = Triplet("nan4", ids[0], ids[1])
    model = init_network({"input_shape": list(images[ids[0]].shape),
                          "layers": [{"kind": "conv", "channels": 4, "kernel": 3,
                                      "stride": 1, "padding": 1}]}, seed=2)
    monkeypatch.setattr(finetune_module, "_workers", lambda n: 2)
    with pytest.raises(TrainingDiverged, match=f"batch 7, triplet nan2/{ids[0]}/{ids[1]}"):
        triplet_gradients(model, triplets, ArrayDataset(images), "sqp", 0.1, where=" at batch 7")


def test_worker_rule_follows_blas_thread_pin(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    assert finetune_module._workers(16) == 1  # BLAS threads unpinned
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    assert finetune_module._workers(16) == 3  # one per usable core
    assert finetune_module._workers(2) == 2  # capped at the triplet count
    monkeypatch.setenv("MKL_NUM_THREADS", "4")  # read before OMP_NUM_THREADS
    assert finetune_module._workers(16) == 1
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # read first of all
    assert finetune_module._workers(16) == 3
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert finetune_module._workers(16) == 1


# ---------------------------------------------------------------------------
# Fine-tuning the compact network; descriptors on forked workers
# ---------------------------------------------------------------------------

def _dense_plan(model):
    """`compact_model` as if no channel could be dropped."""
    return clone_model(model), {i: (np.arange(l.weights.shape[0]), np.arange(l.weights.shape[1]))
                                for i, l in model.conv_layers()}


@pytest.mark.parametrize("pooling", ["sqp", "rmac"])
def test_compact_finetune_matches_dense_finetune(small_dataset, pooling, monkeypatch):
    model = channel_structured_model()
    config = FinetuneConfig(epochs=2, batch_size=8, seed=3, pooling=pooling)
    tuned, log = finetune(model, small_dataset, config)
    monkeypatch.setattr(finetune_module, "compact_model", _dense_plan)
    dense, dense_log = finetune(model, small_dataset, config)
    for a, b in zip(log, dense_log):
        assert abs(a["mean_loss"] - b["mean_loss"]) <= 1e-12 * abs(b["mean_loss"])
        assert a["active_fraction"] == b["active_fraction"] > 0.0
    for (idx, layer), (_, ref), (_, start) in zip(tuned.conv_layers(), dense.conv_layers(),
                                                  model.conv_layers()):
        assert rel_error(layer.weights, ref.weights) <= 1e-12
        assert rel_error(layer.bias, ref.bias) <= 1e-12
        assert not np.array_equal(ref.weights, start.weights)  # training moved them
        # channels no kept conv reads: the dense gradient left them bit for bit
        dropped = np.setdiff1d(np.arange(start.weights.shape[0]), CHANNEL_PLAN[idx][0])
        for result in (layer, ref):
            assert np.array_equal(result.weights[dropped], start.weights[dropped])
            assert np.array_equal(result.bias[dropped], start.bias[dropped])
    assert np.array_equal(tuned.layers[0].bias[[1, 3, 4]], model.layers[0].bias[[1, 3, 4]])


@pytest.mark.parametrize("pooling", ["sqp", "rmac"])
def test_split_descriptors_bitwise_serial_for_every_worker_count(small_dataset, pooling,
                                                                 monkeypatch):
    model = channel_structured_model()
    compact = compact_model(model)[0]
    items = small_dataset.split("index")
    serial = [descriptor_of(compact, small_dataset.load_image(it.item_id), pooling)
              for it in items]
    for workers in (1, 2, 3):
        monkeypatch.setattr(finetune_module, "_workers", lambda n, k=workers: k)
        descs = split_descriptors(model, small_dataset, "index", pooling, 3)
        assert list(descs) == [it.item_id for it in items]
        for got, want in zip(descs.values(), serial):
            assert np.array_equal(got.values, want.values)
            assert (got.kind, got.spatial) == (want.kind, want.spatial)


@pytest.mark.parametrize("bad_share", [0, 1])
def test_split_descriptors_worker_error_reaches_caller(small_dataset, bad_share, monkeypatch):
    model = channel_structured_model()
    items = small_dataset.split("index")
    bad = items[len(items) // 2 * bad_share].item_id  # the first item of that share
    load = small_dataset.load_image
    monkeypatch.setattr(small_dataset, "load_image",
                        lambda i: load(i)[:, :16] if i == bad else load(i))
    monkeypatch.setattr(finetune_module, "_workers", lambda n: 2)
    with pytest.raises(ShapeError, match=r"\(3, 16, 32\)"):
        split_descriptors(model, small_dataset, "index", "sqp", 3)
