"""Shared test helpers: finite-difference oracles and dataset builders."""

from __future__ import annotations

import json
import zlib
from pathlib import Path

import numpy as np

from convprune.container import BLOB_NAME, MANIFEST_NAME
from convprune.dataset import RetrievalDataset, save_tensor
from convprune.finetune import descriptor_of, triplet_loss_op
from convprune.tensor import GradientTape


def fd_gradient(f, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of the scalar function f() w.r.t. x.

    f must read x by reference; x is perturbed in place and restored.
    """
    grad = np.zeros_like(x)
    flat, gflat = x.reshape(-1), grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        fp = f()
        flat[i] = orig - step
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * step)
    return grad


def rel_error(a: np.ndarray, b: np.ndarray) -> float:
    """Norm-relative disagreement of two gradient tensors."""
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 and nb == 0.0:
        return 0.0
    return float(np.linalg.norm(a - b) / max(na, nb))


def patch_tensor(directory: Path, name: str, values) -> None:
    """Overwrite the payload of the container's f32 tensor `name` with
    `values` as little-endian float32 and fix its checksum: the way to store
    a non-finite value, which `write_container` refuses."""
    manifest = json.loads((directory / MANIFEST_NAME).read_text())
    spec = next(t for t in manifest["tensors"] if t["name"] == name)
    data = np.asarray(values, dtype="<f4").tobytes()
    assert spec["kind"] == "f32" and len(data) == spec["nbytes"]
    blob = bytearray((directory / BLOB_NAME).read_bytes())
    blob[spec["offset"]:spec["offset"] + len(data)] = data
    spec["crc32"] = zlib.crc32(data)
    (directory / BLOB_NAME).write_bytes(bytes(blob))
    (directory / MANIFEST_NAME).write_text(json.dumps(manifest))


def nudge_from_zero(x: np.ndarray, margin: float = 1e-3) -> np.ndarray:
    """Push entries out of the [-margin, margin] band around ReLU's kink."""
    sign = np.where(x >= 0.0, 1.0, -1.0)
    return np.where(np.abs(x) < margin, x + sign * margin, x)


def pool_safe(rng: np.random.Generator, shape: tuple, gap: float = 1e-3) -> np.ndarray:
    """Random positive maps whose 2x2 windows have no near-ties."""
    c, h, w = shape
    for _ in range(100):
        x = rng.uniform(0.1, 2.0, size=shape)
        win = x.reshape(c, h // 2, 2, w // 2, 2).transpose(0, 1, 3, 2, 4).reshape(-1, 4)
        top2 = np.sort(win, axis=1)[:, -2:]
        if np.all(top2[:, 1] - top2[:, 0] > gap):
            return x
    raise RuntimeError("could not draw a tie-free pooling input")


def build_dataset(root: Path, images_by_instance: list[list[np.ndarray]]) -> RetrievalDataset:
    """Write a handcrafted dataset: per instance, image 0 is the query, the
    next up-to-4 are index items, the rest training images."""
    root = Path(root)
    (root / "tensors").mkdir(parents=True, exist_ok=True)
    shape = images_by_instance[0][0].shape
    items = []
    relevant = {}
    for label, images in enumerate(images_by_instance):
        ids = []
        for j, img in enumerate(images):
            item_id = f"i{label:03d}_v{j}"
            split = "query" if j == 0 else ("index" if j <= 4 else "train")
            rel_path = f"tensors/{item_id}.cptn"
            save_tensor(img, root / rel_path)
            items.append({"item_id": item_id, "label": label, "split": split, "path": rel_path})
            ids.append((item_id, split))
        relevant[ids[0][0]] = [iid for iid, split in ids if split == "index"]
    manifest = {
        "format_version": 1,
        "image_shape": list(shape),
        "seed": -1,
        "instances": len(images_by_instance),
        "images_per_instance": len(images_by_instance[0]),
        "items": items,
        "relevant": relevant,
    }
    (root / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return RetrievalDataset(root, manifest)


class ArrayDataset:
    """Duck-typed stand-in for RetrievalDataset when only load_image is
    needed (micro-pipeline salience tests)."""

    def __init__(self, images: dict[str, np.ndarray]):
        self._images = images

    def load_image(self, item_id: str) -> np.ndarray:
        return self._images[item_id]


def reference_triplet_grads(model, triplets, dataset, pooling: str,
                            margin: float) -> tuple[dict, int]:
    """The per-triplet gradient loop as fine-tuning and h2 each ran it before
    they shared `triplet_gradients`: a fresh tape with no constants per
    triplet, inactive hinges skipped, gradients summed by array identity.
    Returns ({conv layer index: (weight grad sum, bias grad sum)}, active count).
    """
    conv_layers = model.conv_layers()
    grads = {idx: (np.zeros_like(l.weights), np.zeros_like(l.bias)) for idx, l in conv_layers}
    active = 0
    for t in triplets:
        tape = GradientTape()
        dq = descriptor_of(model, dataset.load_image(t.query), pooling, tape=tape)
        dp = descriptor_of(model, dataset.load_image(t.positive), pooling, tape=tape)
        dn = descriptor_of(model, dataset.load_image(t.negative), pooling, tape=tape)
        loss = triplet_loss_op(dq.values, dp.values, dn.values, margin, tape)
        if float(loss) == 0.0:
            continue
        active += 1
        tape.backward(loss)
        for idx, layer in conv_layers:
            gw = tape.gradient(layer.weights)
            gb = tape.gradient(layer.bias)
            if gw is not None:
                grads[idx][0][...] += gw
            if gb is not None:
                grads[idx][1][...] += gb
    return grads, active


def reference_rmac(features: np.ndarray, regions, upstream: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """R-MAC by a loop over regions, as `rmac_pool` computed it before it
    gathered all regions at once: per region, the first max in row-major
    region scan, added to a running total in region order; the backward pass
    adds each region's share of `upstream` at its argmax, in region order.
    Returns (values, gradient w.r.t. features)."""
    c = features.shape[0]
    chan = np.arange(c)
    total = np.zeros(c)
    rows, cols = [], []
    for x0, y0, rw, rh in regions:
        sub = features[:, y0:y0 + rh, x0:x0 + rw].reshape(c, -1)
        flat = sub.argmax(axis=1)
        total += np.take_along_axis(sub, flat[:, None], axis=1)[:, 0]
        rows.append(y0 + flat // rw)
        cols.append(x0 + flat % rw)
    dx = np.zeros_like(features)
    share = upstream / len(regions)
    for r, col in zip(rows, cols):
        dx[chan, r, col] += share
    return total / len(regions), dx


def _conv(channels: int) -> dict:
    return {"kind": "conv", "channels": channels, "kernel": 3, "stride": 1, "padding": 1}


# three convs on the synthetic 3x32x32 images; the conv layers sit at 0, 3, 6
CHANNEL_ARCH = {
    "input_shape": [3, 32, 32],
    "layers": [_conv(6), {"kind": "relu"}, {"kind": "maxpool2"},
               _conv(8), {"kind": "relu"}, {"kind": "maxpool2"}, _conv(5)],
}

# the (output, input) channels `compact_model` keeps of `channel_structured_model`
CHANNEL_PLAN = {
    6: (list(range(5)), list(range(1, 8))),
    3: (list(range(1, 8)), [0, 2, 5]),
    0: ([0, 2, 5], [0, 1, 2]),
}


def channel_structured_model(seed: int = 0):
    """A CHANNEL_ARCH model with random masks and biases, edited so that:
    - L0 outputs 1 and 4 are read by no L1 mask entry;
    - L0 output 2 is a dead producer (no live weight) with bias 0.3, and
      output 5 one with bias 0, both read by L1;
    - L1 output 0 is read by no L2 entry, and it alone reads L1 input 3, so
      L0 output 3 is dropped too, one step further up;
    - L2 output 1, in the last layer, has no live weight.
    Masked weights are zero. `compact_model` keeps CHANNEL_PLAN."""
    from convprune.network import init_network
    model = init_network(CHANNEL_ARCH, seed=seed)
    rng = np.random.default_rng(seed)
    (_, l0), (_, l1), (_, l2) = model.conv_layers()
    for layer in (l0, l1, l2):
        layer.mask = rng.random(layer.mask.shape) < 0.6
        layer.bias = rng.normal(0.0, 0.1, layer.bias.shape)
    l1.mask[:, [1, 4]] = False
    l0.mask[2], l0.bias[2] = False, 0.3
    l0.mask[5], l0.bias[5] = False, 0.0
    l1.mask[1, [0, 2, 5]] = True
    l2.mask[:, 0] = False
    l1.mask[:, 3] = False
    l1.mask[0, 3] = True
    l2.mask[0, 1:] = True
    l2.mask[1] = False
    for layer in (l0, l1, l2):
        layer.weights[~layer.mask] = 0.0
    return model
