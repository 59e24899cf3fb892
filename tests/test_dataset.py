"""Synthetic dataset generation, tensor formats, manifest invariants."""

import json
import os
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convprune.dataset import (DatasetError, RetrievalDataset, generate_dataset,
                               load_image_file, load_ppm, load_tensor, save_tensor)

from util import build_dataset


def test_tensor_file_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    for shape in [(5,), (3, 4), (3, 8, 8), (2, 3, 4, 5)]:
        arr = rng.standard_normal(shape)
        path = tmp_path / "t.cptn"
        save_tensor(arr, path)
        back = load_tensor(path)
        assert back.shape == shape
        assert np.array_equal(back, arr.astype(np.float32).astype(np.float64))


def test_tensor_file_rejects_bad_magic(tmp_path):
    path = tmp_path / "t.cptn"
    save_tensor(np.ones(3), path)
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="magic"):
        load_tensor(path)


def test_tensor_file_rejects_truncation(tmp_path):
    path = tmp_path / "t.cptn"
    save_tensor(np.ones((2, 3)), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-4])
    with pytest.raises(ValueError, match="payload"):
        load_tensor(path)


def test_ppm_ingestion(tmp_path):
    # 2x2 RGB ramp with a comment header line
    pixels = bytes([0, 0, 0, 255, 0, 0, 0, 255, 0, 0, 0, 255])
    path = tmp_path / "img.ppm"
    path.write_bytes(b"P6\n# test image\n2 2\n255\n" + pixels)
    img = load_ppm(path)
    assert img.shape == (3, 2, 2)
    assert img[0, 0, 0] == 0.0
    assert img[0, 0, 1] == 1.0  # red pixel
    assert img[1, 1, 0] == 1.0  # green pixel
    assert img[2, 1, 1] == 1.0  # blue pixel
    assert load_image_file(path).shape == (3, 2, 2)


def test_ppm_rejects_non_p6(tmp_path):
    path = tmp_path / "img.ppm"
    path.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
    with pytest.raises(ValueError, match="P6"):
        load_ppm(path)


def test_generate_deterministic(tmp_path):
    a = generate_dataset(tmp_path / "a", instances=3, images_per_instance=6, seed=7)
    b = generate_dataset(tmp_path / "b", instances=3, images_per_instance=6, seed=7)
    assert (tmp_path / "a" / "manifest.json").read_text() \
        .replace(str(tmp_path / "a"), "") == \
        (tmp_path / "b" / "manifest.json").read_text().replace(str(tmp_path / "b"), "")
    for item in a.items:
        assert (tmp_path / "a" / item.path).read_bytes() == (tmp_path / "b" / item.path).read_bytes()
    c = generate_dataset(tmp_path / "c", instances=3, images_per_instance=6, seed=8)
    assert (tmp_path / "a" / a.items[0].path).read_bytes() != \
        (tmp_path / "c" / c.items[0].path).read_bytes()


def test_generated_manifest_invariants(tmp_path):
    ds = generate_dataset(tmp_path / "d", instances=4, images_per_instance=8, seed=0)
    assert len(ds.items) == 32
    queries = ds.split("query")
    assert len(queries) == 4
    for q in queries:
        rel = ds.relevant[q.item_id]
        assert len(rel) == 4
        assert q.item_id not in rel
    assert len(ds.split("index")) == 16
    assert len(ds.split("train")) == 12
    for item in ds.items:
        assert ds.load_image(item.item_id).shape == (3, 32, 32)


def test_generated_images_in_unit_range_and_distinct(tmp_path):
    ds = generate_dataset(tmp_path / "e", instances=2, images_per_instance=3, seed=1)
    imgs = [ds.load_image(it.item_id) for it in ds.items]
    for img in imgs:
        assert img.min() >= 0.0 and img.max() <= 1.0
    # nuisance variation keeps same-instance images non-identical
    assert not np.array_equal(imgs[0], imgs[1])


def test_within_instance_mse_below_cross_instance(tmp_path):
    ds = generate_dataset(tmp_path / "f", instances=8, images_per_instance=4, seed=2)
    by_label = {}
    for it in ds.items:
        by_label.setdefault(it.label, []).append(ds.load_image(it.item_id))
    within, cross = [], []
    labels = sorted(by_label)
    for lbl in labels:
        imgs = by_label[lbl]
        for i in range(len(imgs)):
            for j in range(i + 1, len(imgs)):
                within.append(np.mean((imgs[i] - imgs[j]) ** 2))
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            cross.append(np.mean((by_label[labels[i]][0] - by_label[labels[j]][0]) ** 2))
    assert np.mean(within) < np.mean(cross)


def test_generate_rejects_tiny_counts(tmp_path):
    with pytest.raises(ValueError, match="at least 2"):
        generate_dataset(tmp_path / "g", instances=1, images_per_instance=8)
    with pytest.raises(ValueError, match="at least 2"):
        generate_dataset(tmp_path / "h", instances=4, images_per_instance=1)


def test_manifest_validation_rejects_bad_relevance(tmp_path):
    rng = np.random.default_rng(3)
    images = [[rng.uniform(size=(1, 4, 4)) for _ in range(3)] for _ in range(2)]
    ds = build_dataset(tmp_path / "ok", images)
    manifest = dict(ds.manifest)
    manifest["relevant"] = {"i000_v0": []}  # empty relevant set
    with pytest.raises(ValueError, match="empty relevant"):
        RetrievalDataset(tmp_path / "ok", manifest)
    manifest["relevant"] = {"i000_v0": ["i000_v0"]}  # self-relevance
    with pytest.raises(ValueError, match="itself"):
        RetrievalDataset(tmp_path / "ok", manifest)


def test_load_rejects_shape_mismatch(tmp_path):
    rng = np.random.default_rng(4)
    images = [[rng.uniform(size=(1, 4, 4)) for _ in range(2)] for _ in range(2)]
    ds = build_dataset(tmp_path / "m", images)
    manifest = dict(ds.manifest)
    manifest["image_shape"] = [1, 8, 8]
    bad = RetrievalDataset(tmp_path / "m", manifest)
    with pytest.raises(ValueError, match="declares"):
        bad.load_image("i000_v0")


def test_fingerprint_tracks_content(tmp_path):
    a = generate_dataset(tmp_path / "x", instances=2, images_per_instance=2, seed=0)
    b = generate_dataset(tmp_path / "y", instances=2, images_per_instance=2, seed=1)
    assert a.fingerprint != b.fingerprint
    reloaded = RetrievalDataset.load(tmp_path / "x")
    assert reloaded.fingerprint == a.fingerprint


def test_generate_renames_the_manifest_into_place_last(tmp_path, monkeypatch):
    real_replace = os.replace
    targets = []

    def failing_replace(src, dst):
        targets.append(Path(dst).name)
        if Path(dst).name == "manifest.json":
            raise OSError("rename failed")
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="rename failed"):
        generate_dataset(tmp_path / "d", instances=2, images_per_instance=2, seed=0)
    assert targets == [f"i{i:03d}_v{v}.cptn" for i in range(2) for v in range(2)] + ["manifest.json"]
    # no manifest and no temp file; every image file is complete under its own name
    assert [p.name for p in (tmp_path / "d").iterdir()] == ["tensors"]
    assert sorted(p.name for p in (tmp_path / "d" / "tensors").iterdir()) == targets[:-1]


# ---------------------------------------------------------------------------
# Strict loading: every malformed manifest or image file raises DatasetError
# ---------------------------------------------------------------------------

def _tiny_dataset(root):
    rng = np.random.default_rng(6)
    return build_dataset(root, [[rng.uniform(size=(3, 2, 2)) for _ in range(2)]
                                for _ in range(2)])


def _write_manifest(root, manifest):
    (root / "manifest.json").write_text(json.dumps(manifest))


def _drop(key):
    return lambda m: m.pop(key)


def _set(key, value):
    return lambda m: m.__setitem__(key, value)


def _item_update(**changes):
    return lambda m: m["items"][0].update(changes)


@pytest.mark.parametrize("corrupt", [
    _drop("image_shape"), _set("image_shape", [3, 2]), _set("image_shape", [3, 2, 0]),
    _set("image_shape", [3, 2.0, 2]), _set("image_shape", "3x2x2"), _drop("format_version"),
    _set("format_version", 2), _set("items", {"a": 1}), _drop("items"), _set("items", [7]),
    _item_update(extra=1), _item_update(label="0"), _item_update(label=True),
    _item_update(split="val"), _item_update(path=3), _item_update(item_id=None),
    lambda m: m["items"][0].pop("path"), _set("relevant", []), _drop("relevant"),
    _set("relevant", {"i000_v0": "i000_v1"}), _set("relevant", {"i000_v0": [1]}),
    _set("relevant", {"nobody": ["i000_v1"]}),
])
def test_malformed_manifest_raises_dataset_error(tmp_path, corrupt):
    manifest = _tiny_dataset(tmp_path).manifest
    corrupt(manifest)
    _write_manifest(tmp_path, manifest)
    with pytest.raises(DatasetError):
        RetrievalDataset.load(tmp_path)


@pytest.mark.parametrize("raw", [b"", b"{", b"\xff\xfe\x00garbage", b"[1, 2]", b"null"])
def test_undecodable_manifest_raises_dataset_error(tmp_path, raw):
    (tmp_path / "manifest.json").write_bytes(raw)
    with pytest.raises(DatasetError):
        RetrievalDataset.load(tmp_path)


def test_missing_files_raise_dataset_error(tmp_path):
    with pytest.raises(DatasetError, match="missing"):
        RetrievalDataset.load(tmp_path)
    ds = _tiny_dataset(tmp_path)
    (tmp_path / ds.items[0].path).unlink()
    with pytest.raises(DatasetError, match="missing"):
        ds.load_image(ds.items[0].item_id)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_tensor_file_rejects_non_finite_payload(tmp_path, value):
    path = tmp_path / "t.cptn"
    save_tensor(np.array([1.0, value, 2.0]), path)
    with pytest.raises(DatasetError, match="non-finite"):
        load_tensor(path)


def test_tensor_file_rejects_header_whose_size_overflows(tmp_path):
    # four u32 dims whose product wraps around in 64-bit arithmetic to 0
    path = tmp_path / "t.cptn"
    path.write_bytes(struct.pack("<4sHH4I", b"CPTN", 1, 4, 2 ** 16, 2 ** 16, 2 ** 16, 2 ** 16))
    with pytest.raises(DatasetError, match="payload"):
        load_tensor(path)


@pytest.mark.parametrize("raw", [
    b"", b"P6", b"P6\n2 2\n", b"P6\n2 2\n255", b"P6\n-2 2\n255\n" + bytes(12),
    b"P6\n0 2\n255\n", b"P6\n2 x\n255\n" + bytes(12), b"P6\n2 2\n65535\n" + bytes(24),
    b"P6\n2 2\n255\n" + bytes(11), b"P6\n2 2\n255\n" + bytes(13), b"P5\n2 2\n255\n" + bytes(4),
])
def test_ppm_rejects_malformed_files(tmp_path, raw):
    path = tmp_path / "img.ppm"
    path.write_bytes(raw)
    with pytest.raises(DatasetError):
        load_ppm(path)


def _ppm_bytes(img: np.ndarray) -> bytes:
    _, h, w = img.shape
    pixels = np.round(img * 255).astype(np.uint8).transpose(1, 2, 0).tobytes()
    return b"P6\n# corruptible\n%d %d\n255\n" % (w, h) + pixels


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["manifest", "cptn", "ppm"]), st.booleans(),
       st.integers(0, 10 ** 6), st.integers(1, 255))
def test_corrupted_dataset_loads_consistently_or_raises(target, truncate, where, flip):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        ds = _tiny_dataset(root)
        ppm_item = ds.items[-1]
        manifest = ds.manifest
        manifest["items"][-1]["path"] = "tensors/last.ppm"
        (root / "tensors" / "last.ppm").write_bytes(_ppm_bytes(ds.load_image(ppm_item.item_id)))
        _write_manifest(root, manifest)
        path = {"manifest": root / "manifest.json", "cptn": root / ds.items[0].path,
                "ppm": root / "tensors" / "last.ppm"}[target]
        raw = bytearray(path.read_bytes())
        if truncate:
            raw = raw[:where % len(raw)]
        else:
            raw[where % len(raw)] ^= flip
        path.write_bytes(bytes(raw))
        try:
            loaded = RetrievalDataset.load(root)
            images = {it.item_id: loaded.load_image(it.item_id) for it in loaded.items}
        except DatasetError:
            return
    assert all(it.split in ("train", "index", "query") for it in loaded.items)
    for item_id, img in images.items():
        assert img.shape == loaded.image_shape and len(loaded.image_shape) == 3
        assert img.dtype == np.float64 and np.all(np.isfinite(img))
    splits = {it.item_id: it.split for it in loaded.items}
    assert len(splits) == len(loaded.items)
    for qid, rel in loaded.relevant.items():
        assert qid in splits and rel and qid not in rel
        assert all(splits[r] == "index" for r in rel)
