"""Threshold selection against a full-sort oracle; pruning exactness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convprune.network import init_network, tinynet_architecture, validate_masks
from convprune.pruner import apply_pruning, layer_size_report, select_threshold
from convprune.salience import SalienceMap, salience_h1
from convprune.tensor import ShapeError


def sort_oracle_removal(scores_by_layer, masks, keep_fraction):
    """Brute-force: sort every live (score, layer, flat index) tuple and take
    the lowest round((1-t)*N)."""
    entries = []
    for idx in sorted(scores_by_layer):
        flat_s = scores_by_layer[idx].reshape(-1)
        flat_m = masks[idx].reshape(-1)
        for j in range(flat_s.size):
            if flat_m[j]:
                entries.append((flat_s[j], idx, j))
    entries.sort()
    n_remove = round((1.0 - keep_fraction) * len(entries))
    return {(idx, j) for _, idx, j in entries[:n_remove]}


def tiny_model(seed=0):
    arch = {"input_shape": [2, 8, 8],
            "layers": [{"kind": "conv", "channels": 3, "kernel": 3, "stride": 1, "padding": 1},
                       {"kind": "relu"},
                       {"kind": "conv", "channels": 4, "kernel": 3, "stride": 1, "padding": 1}]}
    return init_network(arch, seed=seed)


def test_select_threshold_worked_example():
    # scores [0.1, 0.5, 0.3, 0.05] at t=0.5: remove the two smallest,
    # keep 0.3 and 0.5, threshold = 0.3
    scores = {0: np.array([0.1, 0.5, 0.3, 0.05]).reshape(1, 1, 2, 2)}
    masks = {0: np.ones((1, 1, 2, 2), dtype=bool)}
    smap = SalienceMap(heuristic="h1", scores=scores)
    tau, removal = select_threshold(smap, 0.5, masks)
    assert tau == 0.3
    assert set(removal[0]) == {0, 3}  # flat indices of 0.1 and 0.05


def test_select_threshold_keep_all():
    scores = {0: np.ones((2, 2, 1, 1))}
    masks = {0: np.ones((2, 2, 1, 1), dtype=bool)}
    tau, removal = select_threshold(SalienceMap("h1", scores), 1.0, masks)
    assert removal[0].size == 0


def test_select_threshold_all_equal_tie_rule():
    scores = {0: np.full((1, 1, 2, 4), 0.7)}
    masks = {0: np.ones((1, 1, 2, 4), dtype=bool)}
    tau, removal = select_threshold(SalienceMap("h1", scores), 0.5, masks)
    assert list(removal[0]) == [0, 1, 2, 3]  # lowest flat indices removed first
    assert tau == 0.7


def test_select_threshold_rejects_bad_fraction():
    smap = SalienceMap("h1", {0: np.ones((1, 1, 1, 1))})
    masks = {0: np.ones((1, 1, 1, 1), dtype=bool)}
    for t in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            select_threshold(smap, t, masks)


@pytest.mark.parametrize("fault, match", [
    ("missing", "no mask provided for conv layer 2"),
    ("mis-shaped", "layer 2: mask shape"),
])
def test_select_threshold_rejects_masks_that_do_not_fit_the_scores(fault, match):
    model = tiny_model()
    masks = {idx: layer.mask for idx, layer in model.conv_layers()}
    if fault == "missing":
        del masks[2]
    else:
        masks[2] = masks[2][:1]
    with pytest.raises(ShapeError, match=match):
        select_threshold(salience_h1(model), 0.5, masks)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1),
       st.floats(0.05, 1.0),
       st.booleans())
def test_select_threshold_matches_sort_oracle(seed, keep, quantize):
    rng = np.random.default_rng(seed)
    model = tiny_model(seed % 100)
    for _, layer in model.conv_layers():
        w = rng.standard_normal(layer.weights.shape)
        if quantize:  # force heavy ties through a coarse value grid
            w = np.round(w * 2) / 2
        layer.weights[:] = w * layer.mask
    smap = salience_h1(model)
    masks = {idx: layer.mask for idx, layer in model.conv_layers()}
    _, removal = select_threshold(smap, keep, masks)
    got = {(idx, j) for idx, flat in removal.items() for j in flat}
    expected = sort_oracle_removal(smap.scores, masks, keep)
    assert got == expected


def test_apply_pruning_identity_at_t1():
    model = tiny_model(1)
    pruned, report = apply_pruning(model, salience_h1(model), 1.0)
    for (_, a), (_, b) in zip(model.conv_layers(), pruned.conv_layers()):
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.mask, b.mask)
    assert report.achieved_keep_fraction == 1.0
    assert all(r.fraction == 1.0 for r in report.layers)


def test_apply_pruning_exact_count_tinynet():
    model = init_network(tinynet_architecture(), seed=0)
    total = sum(l.weights.size for _, l in model.conv_layers())
    pruned, report = apply_pruning(model, salience_h1(model), 0.5)
    remaining = sum(int(l.mask.sum()) for _, l in pruned.conv_layers())
    assert abs(remaining - 0.5 * total) <= 1.0
    assert abs(report.achieved_keep_fraction - 0.5) <= 1.0 / total


def test_pruning_composition():
    # prune to 0.5 then prune the result to 0.5 of its remaining weights:
    # global fraction 0.25 within one weight of exact
    model = tiny_model(2)
    total = sum(l.weights.size for _, l in model.conv_layers())
    once, _ = apply_pruning(model, salience_h1(model), 0.5)
    twice, report = apply_pruning(once, salience_h1(once), 0.5)
    remaining = sum(int(l.mask.sum()) for _, l in twice.conv_layers())
    assert abs(remaining - 0.25 * total) <= 1.0


def test_pruning_preserves_biases_bitwise():
    model = tiny_model(3)
    rng = np.random.default_rng(0)
    for _, layer in model.conv_layers():
        layer.bias[:] = rng.standard_normal(layer.bias.shape)
    before = [layer.bias.copy() for _, layer in model.conv_layers()]
    pruned, _ = apply_pruning(model, salience_h1(model), 0.3)
    for (_, layer), b in zip(pruned.conv_layers(), before):
        assert np.array_equal(layer.bias, b)


def test_pruning_monotone_in_keep_fraction():
    model = tiny_model(4)
    smap = salience_h1(model)
    strict, _ = apply_pruning(model, smap, 0.2)
    loose, _ = apply_pruning(model, smap, 0.6)
    for (_, s), (_, l) in zip(strict.conv_layers(), loose.conv_layers()):
        # everything removed at t=0.6 is also removed at t=0.2
        assert np.all(s.mask[~l.mask] == False)  # noqa: E712


def test_pruned_model_passes_validator_and_report_sums():
    model = tiny_model(5)
    pruned, report = apply_pruning(model, salience_h1(model), 0.4)
    validate_masks(pruned)
    total_remaining = sum(int(l.mask.sum()) for _, l in pruned.conv_layers())
    assert sum(r.remaining for r in report.layers) == total_remaining


def test_layer_size_report():
    model = tiny_model(6)
    report = layer_size_report(model)
    assert all(r.fraction == 1.0 for r in report.layers)
    model.layers[0].mask[:] = False
    model.layers[0].weights[:] = 0.0
    report = layer_size_report(model)
    assert report.layers[0].fraction == 0.0
    # fractions match a direct mask summation oracle
    for row, (_, layer) in zip(report.layers, model.conv_layers()):
        assert row.remaining == int(layer.mask.sum())
        assert row.total == layer.mask.size


def test_report_serialization(tmp_path):
    model = tiny_model(7)
    _, report = apply_pruning(model, salience_h1(model), 0.5)
    report.write_json(tmp_path / "r.json")
    report.write_csv(tmp_path / "r.csv")
    lines = (tmp_path / "r.csv").read_text().strip().splitlines()
    assert lines[0] == "layer,total,remaining,fraction"
    assert lines[-1].startswith("all,")
    import json
    payload = json.loads((tmp_path / "r.json").read_text())
    assert payload["heuristic"] == "h1"
    assert payload["target_keep_fraction"] == 0.5
