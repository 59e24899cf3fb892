"""Model init, forward extraction, mask invariant, and serialization."""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convprune import container
from convprune.container import ContainerError, IntegrityError, VersionError, write_container
from convprune.finetune import descriptor_of
from convprune.network import (clone_model, compact_model, expand_compact, forward_features,
                               init_network, load_model, save_model, tinynet_architecture,
                               validate_masks)
from convprune.pruner import apply_pruning
from convprune.retrieval import DescriptorIndex
from convprune.salience import salience_h1
from convprune.tensor import ShapeError

from util import CHANNEL_PLAN, channel_structured_model, patch_tensor, rel_error


def small_arch():
    return {
        "input_shape": [2, 8, 8],
        "layers": [
            {"kind": "conv", "channels": 3, "kernel": 3, "stride": 1, "padding": 1},
            {"kind": "relu"},
            {"kind": "maxpool2"},
            {"kind": "conv", "channels": 4, "kernel": 3, "stride": 1, "padding": 1},
        ],
    }


def test_init_deterministic_per_seed():
    a = init_network(small_arch(), seed=123)
    b = init_network(small_arch(), seed=123)
    c = init_network(small_arch(), seed=124)
    for (_, la), (_, lb), (_, lc) in zip(a.conv_layers(), b.conv_layers(), c.conv_layers()):
        assert np.array_equal(la.weights, lb.weights)
        assert not np.array_equal(la.weights, lc.weights)


def test_init_he_std():
    arch = {"input_shape": [8, 6, 6],
            "layers": [{"kind": "conv", "channels": 256, "kernel": 3, "stride": 1, "padding": 1}]}
    model = init_network(arch, seed=0)
    w = model.layers[0].weights  # 256*8*9 = 18432 weights, fan_in = 72
    expected = np.sqrt(2.0 / 72.0)
    assert abs(w.std() - expected) / expected < 0.2


def test_init_rejects_bad_chain():
    arch = {"input_shape": [3, 5, 5],
            "layers": [{"kind": "conv", "channels": 4, "kernel": 3, "stride": 1, "padding": 0},
                       {"kind": "maxpool2"}]}
    with pytest.raises(ShapeError, match="layer 1"):
        init_network(arch, seed=0)


def test_init_rejects_relu_final_layer():
    arch = {"input_shape": [3, 8, 8],
            "layers": [{"kind": "conv", "channels": 4, "kernel": 3, "stride": 1, "padding": 1},
                       {"kind": "relu"}]}
    with pytest.raises(ValueError, match="final layer"):
        init_network(arch, seed=0)
    with pytest.raises(ValueError, match="at least one"):
        init_network({"input_shape": [3, 8, 8], "layers": []}, seed=0)


@pytest.mark.parametrize("arch", [
    [],
    {"input_shape": [3, 8, 8]},
    {"input_shape": [3, 8, 8], "layers": ["conv"]},
    {"input_shape": [3, 8, 8], "layers": {"0": {"kind": "conv", "channels": 4, "kernel": 3}}},
    {"input_shape": [3, 8, 8], "layers": [{"channels": 4, "kernel": 3}]},
    {"layers": [{"kind": "conv", "channels": 4, "kernel": 3}]},
    {"input_shape": "3x8x8", "layers": [{"kind": "conv", "channels": 4, "kernel": 3}]},
    {"input_shape": [3, 8, 8.5], "layers": [{"kind": "conv", "channels": 4, "kernel": 3}]},
    {"input_shape": [3, True, 8], "layers": [{"kind": "conv", "channels": 4, "kernel": 3}]},
    {"input_shape": [3, 2, 2], "layers": [{"kind": "conv", "channels": 4, "kernel": 5}]},
], ids=["list", "no-layers", "string-layer", "layer-map", "layer-without-kind",
        "no-input-shape", "string-input-shape", "float-input-size", "bool-input-size",
        "kernel-past-padded-input"])
def test_init_rejects_malformed_architecture(arch):
    with pytest.raises(ValueError):
        init_network(arch, seed=0)


def test_init_rejects_mismatched_channels():
    arch = {"input_shape": [3, 8, 8],
            "layers": [{"kind": "conv", "channels": 4, "kernel": 3, "stride": 1, "padding": 1,
                        "in_channels": 5}]}
    with pytest.raises(ShapeError, match="layer 0"):
        init_network(arch, seed=0)


def test_tinynet_shapes():
    model = init_network(tinynet_architecture(), seed=0)
    feats = forward_features(model, np.zeros((3, 32, 32)))
    assert feats.shape == (64, 4, 4)
    total = sum(l.weights.size for _, l in model.conv_layers())
    assert total == 34992


def test_forward_zero_image_zero_bias():
    model = init_network(small_arch(), seed=1)
    feats = forward_features(model, np.zeros((2, 8, 8)))
    assert not feats.any()


def test_forward_fully_masked_model_is_zero():
    model = init_network(small_arch(), seed=2)
    for _, layer in model.conv_layers():
        layer.mask[:] = False
        layer.weights[:] = 0.0
    rng = np.random.default_rng(0)
    feats = forward_features(model, rng.uniform(0, 1, size=(2, 8, 8)))
    assert not feats.any()


def test_forward_matches_dense_zero_oracle():
    # masked weights must contribute exactly zero: materializing them as
    # zeros in a dense copy gives the identical forward result
    model = init_network(small_arch(), seed=3)
    rng = np.random.default_rng(1)
    for _, layer in model.conv_layers():
        kill = rng.uniform(size=layer.mask.shape) < 0.5
        layer.mask[kill] = False
        layer.weights[kill] = 0.0
    validate_masks(model)
    dense = clone_model(model)  # weights already hold zeros at masked spots
    img = rng.uniform(0, 1, size=(2, 8, 8))
    assert np.array_equal(forward_features(model, img), forward_features(dense, img))


def test_forward_rejects_wrong_shape():
    model = init_network(small_arch(), seed=0)
    with pytest.raises(ShapeError, match="input shape"):
        forward_features(model, np.zeros((2, 4, 4)))


def test_forward_rejects_an_unknown_layer_type():
    model = init_network(small_arch(), seed=0)
    model.layers[1] = "relu"
    with pytest.raises(ValueError, match="layer 1: unknown layer type str"):
        forward_features(model, np.zeros((2, 8, 8)))


def test_validate_masks_catches_violation():
    model = init_network(small_arch(), seed=0)
    layer = model.layers[0]
    layer.mask[0, 0, 0, 0] = False  # weight left nonzero
    with pytest.raises(ValueError, match="nonzero weights"):
        validate_masks(model)
    layer.mask = np.ones((3, 2, 3), dtype=bool)
    with pytest.raises(ShapeError, match=r"layer 0: mask shape \(3, 2, 3\) != weights shape"):
        validate_masks(model)


def test_forward_is_pure():
    model = init_network(small_arch(), seed=4)
    img = np.random.default_rng(2).uniform(size=(2, 8, 8))
    before = [l.weights.copy() for _, l in model.conv_layers()]
    a = forward_features(model, img)
    b = forward_features(model, img)
    assert np.array_equal(a, b)
    for (_, l), w in zip(model.conv_layers(), before):
        assert np.array_equal(l.weights, w)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_save_load_roundtrip(tmp_path):
    model = init_network(small_arch(), seed=5)
    rng = np.random.default_rng(3)
    for _, layer in model.conv_layers():
        kill = rng.uniform(size=layer.mask.shape) < 0.3
        layer.mask[kill] = False
        layer.weights[kill] = 0.0
        layer.bias[:] = rng.standard_normal(layer.bias.shape)
    path = tmp_path / "model"
    save_model(model, str(path))
    loaded = load_model(str(path))
    assert loaded.input_shape == model.input_shape
    for (_, a), (_, b) in zip(model.conv_layers(), loaded.conv_layers()):
        # bit-identical at stored (float32) precision
        assert np.array_equal(b.weights, a.weights.astype(np.float32).astype(np.float64))
        assert np.array_equal(b.bias, a.bias.astype(np.float32).astype(np.float64))
        assert np.array_equal(b.mask, a.mask)
        assert b.stride == a.stride and b.padding == a.padding
    # save(load(save(m))) is byte-stable
    path2 = tmp_path / "model2"
    save_model(loaded, str(path2))
    assert (path / "tensors.bin").read_bytes() == (path2 / "tensors.bin").read_bytes()


def test_load_rejects_flipped_magic(tmp_path):
    model = init_network(small_arch(), seed=6)
    path = tmp_path / "model"
    save_model(model, str(path))
    blob = bytearray((path / "tensors.bin").read_bytes())
    blob[0] ^= 0xFF
    (path / "tensors.bin").write_bytes(bytes(blob))
    with pytest.raises(IntegrityError, match="magic"):
        load_model(str(path))


def test_load_rejects_corrupt_payload(tmp_path):
    model = init_network(small_arch(), seed=7)
    path = tmp_path / "model"
    save_model(model, str(path))
    blob = bytearray((path / "tensors.bin").read_bytes())
    blob[50] ^= 0xFF
    (path / "tensors.bin").write_bytes(bytes(blob))
    with pytest.raises(IntegrityError, match="checksum"):
        load_model(str(path))


def test_load_rejects_truncated_blob(tmp_path):
    model = init_network(small_arch(), seed=8)
    path = tmp_path / "model"
    save_model(model, str(path))
    blob = (path / "tensors.bin").read_bytes()
    (path / "tensors.bin").write_bytes(blob[:len(blob) // 2])
    with pytest.raises(IntegrityError):
        load_model(str(path))


def test_load_rejects_version_mismatch(tmp_path):
    model = init_network(small_arch(), seed=9)
    path = tmp_path / "model"
    save_model(model, str(path))
    manifest = json.loads((path / "manifest.json").read_text())
    manifest["format_version"] = 99
    (path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(VersionError):
        load_model(str(path))


def _write_model(path, model, replace=()) -> None:
    """Write `model`'s tensors as `save_model` lays them out, with the
    (name, array) pairs of `replace` put in or swapped in."""
    tensors = {}
    for i, layer in model.conv_layers():
        tensors.update({f"layers.{i}.weights": layer.weights[layer.mask],
                        f"layers.{i}.bias": layer.bias, f"layers.{i}.mask": layer.mask})
    tensors.update(replace)
    write_container(path, {"kind": "model", "architecture": model.architecture(),
                           "metadata": {}}, list(tensors.items()))


def test_load_rejects_mask_weight_inconsistency(tmp_path):
    model = init_network(small_arch(), seed=10)
    layer = model.layers[0]
    layer.mask[0, 0, 0, 0] = False  # nonzero weight under a cleared mask
    path = tmp_path / "model"
    with pytest.raises(ValueError, match="zero mask"):
        save_model(model, str(path))
    assert not path.exists()
    # a file holds one weight per live mask entry: one more fails the load
    _write_model(path, model, [("layers.0.weights", np.append(layer.weights[layer.mask], 1.0))])
    with pytest.raises(ContainerError, match="layers.0.weights"):
        load_model(str(path))


@pytest.mark.parametrize("keep,nbytes", [(1.0, 144_990), (0.5, 75_006), (0.1, 19_018)],
                         ids=["1.0", "0.5", "0.1"])
def test_model_file_holds_only_live_weights(tmp_path, keep, nbytes):
    base = init_network(tinynet_architecture(), seed=3)
    model, _ = apply_pruning(base, salience_h1(base), keep)
    path = tmp_path / "model"
    save_model(model, str(path))
    shapes = {t["name"]: t["shape"] for t in
              json.loads((path / "manifest.json").read_text())["tensors"]}
    segments = 0
    for i, layer in model.conv_layers():
        live = int(layer.mask.sum())
        assert shapes[f"layers.{i}.weights"] == [live]
        segments += 4 * live + 4 * layer.bias.size + (layer.mask.size + 7) // 8
    assert (path / "tensors.bin").stat().st_size == 8 + segments == nbytes
    loaded = load_model(str(path))
    for (_, a), (_, b) in zip(model.conv_layers(), loaded.conv_layers()):
        assert np.array_equal(b.weights, a.weights.astype(np.float32).astype(np.float64))
        assert np.array_equal(b.bias, a.bias.astype(np.float32).astype(np.float64))
        assert np.array_equal(b.mask, a.mask)


@pytest.mark.parametrize("part,value", [("weights", np.nan), ("bias", np.nan),
                                        ("weights", 1e300)],
                         ids=["nan-weight", "nan-bias", "weight-past-float32"])
def test_save_model_refuses_non_finite_parameters(tmp_path, part, value):
    model = init_network(small_arch(), seed=11)
    getattr(model.layers[3], part)[0] = value
    path = tmp_path / "model"
    with pytest.raises(ContainerError, match=f"layers.3.{part}"):
        save_model(model, str(path))
    assert not path.exists()


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_load_rejects_non_finite_tensor(tmp_path, value):
    model = init_network(small_arch(), seed=12)
    path = tmp_path / "model"
    save_model(model, str(path))
    patch_tensor(path, "layers.3.bias", [value, 0.0, 0.0, 0.0])
    with pytest.raises(ContainerError, match=r"'layers.3.bias' in .*model.* non-finite"):
        load_model(str(path))


def _edit_manifest(path, edit) -> None:
    manifest = json.loads((path / "manifest.json").read_text())
    edit(manifest)
    (path / "manifest.json").write_text(json.dumps(manifest))


def test_load_rejects_channels_that_disagree_with_weights(tmp_path):
    path = tmp_path / "model"
    save_model(init_network(tinynet_architecture(), seed=1), str(path))
    _edit_manifest(path, lambda m: m["architecture"]["layers"][2].update(channels=8))
    with pytest.raises(ContainerError, match="layers.2.mask"):  # read first
        load_model(str(path))


@pytest.mark.parametrize("edit", [
    lambda m: m.pop("architecture"),
    lambda m: m["architecture"].pop("layers"),
    lambda m: m["architecture"]["layers"][0].update(kernel="3"),
    lambda m: m["architecture"]["layers"][0].update(stride=0),
    lambda m: m["architecture"]["layers"][1].update(kind="tanh"),
    lambda m: m["architecture"].update(input_shape=[2, 8]),
    lambda m: m.update(metadata=[1]),
    lambda m: m["architecture"].update(layers=["conv"]),
    lambda m: m["architecture"]["layers"][0].pop("kind"),
    lambda m: m.update(architecture=[]),
    lambda m: m.update(kind="descriptor_index"),
], ids=["no-architecture", "no-layers", "string-kernel", "zero-stride", "unknown-kind",
        "rank-2-input", "list-metadata", "string-layer", "layer-without-kind",
        "list-architecture", "index-kind"])
def test_load_rejects_malformed_architecture(tmp_path, edit):
    path = tmp_path / "model"
    save_model(init_network(small_arch(), seed=2), str(path))
    _edit_manifest(path, edit)
    with pytest.raises(ContainerError):
        load_model(str(path))


def test_load_rejects_missing_tensor(tmp_path):
    path = tmp_path / "model"
    save_model(init_network(small_arch(), seed=3), str(path))
    _edit_manifest(path, lambda m: m.update(
        tensors=[t for t in m["tensors"] if t["name"] != "layers.3.bias"]))
    with pytest.raises(ContainerError, match="layers.3.bias"):
        load_model(str(path))


def _first_tensor(**changes):
    return lambda m: {**m, "tensors": [{**m["tensors"][0], **changes}] + m["tensors"][1:]}


@pytest.mark.parametrize("replace,match", [
    (lambda m: [m], "not a JSON object"),
    (lambda m: {**m, "tensors": {t["name"]: t for t in m["tensors"]}}, "not a list"),
    (lambda m: {**m, "tensors": m["tensors"] + m["tensors"][:1]}, "listed twice"),
    (_first_tensor(shape=[3, "2", 3, 3]), "malformed tensor index entry"),
    (_first_tensor(nbytes=4), "declares 4 bytes"),
    (_first_tensor(kind="f64"), r"in .*model has unknown kind 'f64'"),
], ids=["list-manifest", "dict-index", "tensor-twice", "string-dim", "nbytes-off",
        "unknown-kind"])
def test_load_rejects_malformed_tensor_index(tmp_path, replace, match):
    path = tmp_path / "model"
    save_model(init_network(small_arch(), seed=5), str(path))
    manifest = json.loads((path / "manifest.json").read_text())
    (path / "manifest.json").write_text(json.dumps(replace(manifest)))
    with pytest.raises(IntegrityError, match=match):
        load_model(str(path))


@pytest.mark.parametrize("name,replacement", [
    ("layers.3.bias", np.zeros((4, 4))),
    ("layers.0.mask", np.ones((3, 2, 3, 3))),
    ("layers.0.weights", np.ones((3, 2, 3, 3), dtype=bool)),
    ("layers.0.weights", np.ones((3, 2, 3, 3))),
    ("layers.1.weights", np.zeros(1)),
], ids=["bias-4x4", "float-mask", "bool-weights", "dense-weights", "tensor-for-relu"])
def test_load_rejects_tensor_the_architecture_does_not_imply(tmp_path, name, replacement):
    model = init_network(small_arch(), seed=4)
    path = tmp_path / "model"
    _write_model(path, model, [(name, replacement)])
    with pytest.raises(ContainerError, match=name):
        load_model(str(path))


@settings(max_examples=300, deadline=None)
@given(st.booleans(), st.booleans(), st.integers(0, 10 ** 6), st.integers(1, 255))
def test_corrupted_model_loads_consistently_or_raises(blob, truncate, where, flip):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model"
        save_model(init_network(small_arch(), seed=5), str(path))
        target = path / ("tensors.bin" if blob else "manifest.json")
        raw = bytearray(target.read_bytes())
        if truncate:
            raw = raw[:where % len(raw)]
        else:
            raw[where % len(raw)] ^= flip
        target.write_bytes(bytes(raw))
        try:
            model = load_model(str(path))
        except ContainerError:
            return
    arch = model.architecture()
    rebuilt = init_network(arch, seed=0)  # the architecture is a valid chain
    for (_, layer), (_, fresh) in zip(model.conv_layers(), rebuilt.conv_layers()):
        assert layer.weights.shape == fresh.weights.shape == layer.mask.shape
        assert layer.bias.shape == fresh.bias.shape
        assert layer.weights.dtype == np.float64 and layer.mask.dtype == np.bool_
    validate_masks(model)
    assert isinstance(model.meta, dict)
    out = forward_features(model, np.zeros(model.input_shape))
    assert np.all(np.isfinite(out))


def test_tensor_submodule_not_shadowed():
    from convprune import finetune, tensor
    assert tensor.__name__ == "convprune.tensor"
    assert finetune.__name__ == "convprune.finetune"


def test_package_root_binds_no_name_and_imports_no_submodule():
    # every public name has one import path, its module's
    code = ("import sys, convprune; print(sorted(m for m in sys.modules if m.startswith("
            "'convprune.')), [n for n in vars(convprune) if not n.startswith('__')])")
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=60, check=True)
    assert run.stdout.split() == ["[]", "[]"]


# ---------------------------------------------------------------------------
# Channel compaction
# ---------------------------------------------------------------------------

def test_compact_plan_reads_masks_only():
    model = channel_structured_model()
    compact, kept = compact_model(model)
    assert {i: (list(o), list(c)) for i, (o, c) in kept.items()} == CHANNEL_PLAN
    assert [l.weights.shape[:2] for _, l in compact.conv_layers()] == [(3, 3), (7, 3), (5, 7)]
    assert compact.layers[6].weights.shape[0] == model.layers[6].weights.shape[0]
    assert model.meta and compact.meta == {}  # nothing reads a compact network's metadata
    for idx, (outputs, inputs) in kept.items():
        layer, small = model.layers[idx], compact.layers[idx]
        assert np.array_equal(small.weights, layer.weights[np.ix_(outputs, inputs)])
        assert np.array_equal(small.mask, layer.mask[np.ix_(outputs, inputs)])
        assert np.array_equal(small.bias, layer.bias[outputs])
    # a live weight that is exactly 0.0 still reads its channel
    model.layers[3].mask[2, 4] = True
    assert list(compact_model(model)[1][3][1]) == [0, 2, 4, 5]
    # compacting twice drops nothing more
    again = compact_model(compact)[1]
    assert all(list(o) == list(range(len(ko))) and list(c) == list(range(len(kc)))
               for (o, c), (ko, kc) in zip(again.values(), kept.values()))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("pooling", ["sqp", "rmac"])
def test_compact_descriptors_match_dense(seed, pooling):
    model = channel_structured_model(seed)
    compact, _ = compact_model(model)
    rng = np.random.default_rng(seed)
    for _ in range(3):
        image = rng.random((3, 32, 32))
        dense = descriptor_of(model, image, pooling).values
        small = descriptor_of(compact, image, pooling).values
        assert rel_error(small, dense) <= 1e-12
        assert np.linalg.norm(dense) > 0.0


def test_compact_keeps_a_channel_when_nothing_is_read():
    model = channel_structured_model()
    model.layers[3].mask[:] = False
    model.layers[3].weights[:] = 0.0
    compact, kept = compact_model(model)
    assert list(kept[3][1]) == [0] and list(kept[0][0]) == [0]
    image = np.random.default_rng(3).random((3, 32, 32))
    assert np.array_equal(forward_features(compact, image), forward_features(model, image))


def test_expand_compact_writes_kept_entries_only():
    model = channel_structured_model()
    compact, kept = compact_model(model)
    for _, layer in compact.conv_layers():
        layer.weights += 1.0
        layer.bias += 1.0
    full = clone_model(model)
    expand_compact(full, compact, kept)
    for idx, (outputs, inputs) in kept.items():
        moved = np.zeros(model.layers[idx].weights.shape, dtype=bool)
        moved[np.ix_(outputs, inputs)] = True
        assert np.array_equal(full.layers[idx].weights[moved],
                              model.layers[idx].weights[moved] + 1.0)
        assert np.array_equal(full.layers[idx].weights[~moved], model.layers[idx].weights[~moved])
        dropped = np.setdiff1d(np.arange(len(model.layers[idx].bias)), outputs)
        assert np.array_equal(full.layers[idx].bias[dropped], model.layers[idx].bias[dropped])


# ---------------------------------------------------------------------------
# Atomic container writes
# ---------------------------------------------------------------------------

def test_container_write_failing_midway_leaves_old_or_rejected(tmp_path, monkeypatch):
    path = tmp_path / "c"
    write_container(path, {"kind": "x"}, [("a", np.arange(4.0))])
    real_write = Path.write_bytes

    def failing_write(prefix):
        def write(self, data):
            if self.name.startswith(prefix):
                real_write(self, data[:len(data) // 2])
                raise OSError("disk full")
            return real_write(self, data)
        return write

    new = [("a", np.arange(4.0) + 1.0)]
    monkeypatch.setattr(Path, "write_bytes", failing_write(f".{container.BLOB_NAME}"))
    with pytest.raises(OSError, match="disk full"):
        write_container(path, {"kind": "x"}, new)
    manifest, tensors = container.read_container(path)
    assert np.array_equal(tensors["a"], np.arange(4.0))
    assert sorted(os.listdir(path)) == [container.MANIFEST_NAME, container.BLOB_NAME]

    monkeypatch.setattr(Path, "write_bytes", failing_write(f".{container.MANIFEST_NAME}"))
    with pytest.raises(OSError, match="disk full"):
        write_container(path, {"kind": "x"}, new)
    with pytest.raises(ContainerError):
        container.read_container(path)  # new blob under the old manifest
    assert sorted(os.listdir(path)) == [container.MANIFEST_NAME, container.BLOB_NAME]

    monkeypatch.setattr(Path, "write_bytes", real_write)
    write_container(path, {"kind": "x"}, new)
    assert np.array_equal(container.read_container(path)[1]["a"], new[0][1])


def test_write_csv_cell_rule(tmp_path):
    path = tmp_path / "t.csv"
    container.write_csv(path, [["a", "b,c", 3], [0.1 + 0.2, np.float64(2) / 3, None],
                               [1.0, -7, "x"]])
    assert path.read_bytes() == (b'a,"b,c",3\r\n'
                                 b"0.3,0.666666666667,\r\n"
                                 b"1,-7,x\r\n")


def test_write_jsonl_writes_one_object_per_line(tmp_path):
    path = tmp_path / "log.jsonl"
    container.write_jsonl(path, [{"a": 1}, {"b": [2.5, None]}])
    assert path.read_bytes() == b'{"a": 1}\n{"b": [2.5, null]}\n'
    container.write_jsonl(path, [])
    assert path.read_bytes() == b""


def test_write_json_writes_one_indented_document(tmp_path):
    path = tmp_path / "doc.json"
    value = {"a": [1, 2.5], "b": {"c": None}, "d": "x"}
    container.write_json(path, value)
    assert path.read_bytes() == json.dumps(value, indent=2).encode()
    assert not path.read_bytes().endswith(b"\n")


def test_csv_is_written_only_by_the_container_module():
    root = Path(__file__).resolve().parents[1]
    sources = [*(root / "src" / "convprune").glob("*.py"), *(root / "scripts").glob("*.py")]
    writers = [p.name for p in sources if "csv.writer" in p.read_text()]
    assert writers == ["container.py"]


@pytest.mark.parametrize("unreadable", [container.MANIFEST_NAME, container.BLOB_NAME])
def test_unreadable_container_file_raises_container_error(tmp_path, monkeypatch, unreadable):
    save_model(init_network(small_arch(), seed=1), str(tmp_path / "model"))
    DescriptorIndex(entries=[]).save(tmp_path / "index")
    real_text, real_bytes = Path.read_text, Path.read_bytes

    def deny(real):
        def read(self, *args, **kwargs):
            if self.name == unreadable:
                raise PermissionError(13, "Permission denied")
            return real(self, *args, **kwargs)
        return read
    monkeypatch.setattr(Path, "read_text", deny(real_text))
    monkeypatch.setattr(Path, "read_bytes", deny(real_bytes))
    message = f"cannot read .*{unreadable}: Permission denied"
    for load in (container.read_container, load_model, DescriptorIndex.load):
        path = tmp_path / ("index" if load is DescriptorIndex.load else "model")
        with pytest.raises(ContainerError, match=message):
            load(str(path))
