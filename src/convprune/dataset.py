"""Synthetic retrieval dataset: generation, tensor file formats, manifest.

Each instance is a distinct composition of colored geometric shapes; every
image of an instance re-renders the composition under nuisance variation
(translation up to 25% of the image, scale 0.8-1.2, brightness +/-20%,
additive Gaussian noise sigma 0.05). Images of one instance are therefore
retrievable but never identical.

Image tensors live in a small self-describing binary format ("CPTN") or in
binary PPM (P6, scaled to [0,1]); both are dependency-free.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .container import finite_f32, is_int, read_file, read_json, write_atomic, write_json

CPTN_MAGIC = b"CPTN"
CPTN_VERSION = 1
# magic(4) + version(u16) + rank(u16) + four u32 dims, unused dims zero
_CPTN_HEADER = struct.Struct("<4sHH4I")

DATASET_FORMAT_VERSION = 1

# Per-instance split assignment: image 0 is the query, the next up-to-4 go
# to the index (so default datasets give every query exactly 4 relevant
# items), the rest are training images.
INDEX_IMAGES_PER_INSTANCE = 4
# Training needs two more to form a positive pair: the fewest images per
# instance of a generated dataset that fine-tunes (generation accepts 2).
TRAINABLE_IMAGES_PER_INSTANCE = 1 + INDEX_IMAGES_PER_INSTANCE + 2


class DatasetError(ValueError):
    """A dataset manifest or image file (CPTN or PPM) is missing or malformed."""


def save_tensor(arr: np.ndarray, path: str | Path) -> None:
    """Write `arr` as a CPTN file of float32 values; DatasetError naming the
    file, before anything is written, if its rank is outside 1-4 or a value
    is not finite as float32."""
    arr = np.asarray(arr)
    if not 1 <= arr.ndim <= 4:
        raise DatasetError(f"{path}: tensor rank must be 1-4, got {arr.ndim}")
    dims = list(arr.shape) + [0] * (4 - arr.ndim)
    header = _CPTN_HEADER.pack(CPTN_MAGIC, CPTN_VERSION, arr.ndim, *dims)
    write_atomic(path, header + finite_f32(arr, DatasetError, str(path)).tobytes())


def load_image_file(path: str | Path) -> np.ndarray:
    """An image file as it is stored, read-only: the float32 array of a CPTN
    file, or the uint8 [3,H,W] pixels of a binary PPM file (suffix `.ppm`,
    P6). DatasetError naming the file if it is missing or unreadable, its
    header is malformed, its payload is not the size the header gives, a
    CPTN value is not finite, or a PPM maxval is not 255."""
    path = Path(path)
    if path.suffix == ".ppm":
        return _read_ppm(path)
    return _read_tensor(path)


def _read_tensor(path: str | Path) -> np.ndarray:
    raw = read_file(path, DatasetError)
    if len(raw) < _CPTN_HEADER.size:
        raise DatasetError(f"{path}: truncated tensor file")
    magic, version, rank, *dims = _CPTN_HEADER.unpack_from(raw)
    if magic != CPTN_MAGIC:
        raise DatasetError(f"{path}: bad magic {magic!r}")
    if version != CPTN_VERSION:
        raise DatasetError(f"{path}: unsupported tensor format version {version}")
    if not 1 <= rank <= 4:
        raise DatasetError(f"{path}: bad rank {rank}")
    if any(dims[rank:]):
        raise DatasetError(f"{path}: rank {rank} header has nonzero unused dims {dims[rank:]}")
    shape = tuple(dims[:rank])
    count = math.prod(shape)
    payload = raw[_CPTN_HEADER.size:]
    if len(payload) != 4 * count:
        raise DatasetError(f"{path}: payload holds {len(payload)} bytes, expected {4 * count}")
    arr = np.frombuffer(payload, dtype="<f4").reshape(shape)
    if not np.all(np.isfinite(arr)):
        raise DatasetError(f"{path}: non-finite values")
    return arr


def _read_ppm(path: str | Path) -> np.ndarray:
    raw = read_file(path, DatasetError)
    fields: list[bytes] = []
    pos = 0
    while len(fields) < 4 and pos < len(raw):
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        if raw[pos:pos + 1] == b"#":
            while pos < len(raw) and raw[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        fields.append(raw[start:pos])
    if not fields or fields[0] != b"P6":
        raise DatasetError(f"{path}: not a binary PPM (P6) file")
    if len(fields) < 4 or not all(f.isdigit() for f in fields[1:]):
        raise DatasetError(f"{path}: malformed PPM header {b' '.join(fields)!r}")
    width, height, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    if maxval != 255:
        raise DatasetError(f"{path}: only maxval 255 is supported, got {maxval}")
    if width < 1 or height < 1:
        raise DatasetError(f"{path}: empty {width}x{height} image")
    pos += 1  # single whitespace after maxval
    if len(raw) - pos != width * height * 3:
        raise DatasetError(f"{path}: {max(0, len(raw) - pos)} pixel bytes, a {width}x{height} "
                           f"image needs {width * height * 3}")
    pixels = np.frombuffer(raw, dtype=np.uint8, offset=pos)
    return pixels.reshape(height, width, 3).transpose(2, 0, 1)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _render_instance(shapes: list[dict], background: np.ndarray, height: int, width: int,
                     shift: tuple[float, float], scale: float) -> np.ndarray:
    ys, xs = np.mgrid[0:height, 0:width]
    # invert the view transform: image point -> canonical composition point
    px = ((xs + 0.5) / width - 0.5 - shift[0]) / scale + 0.5
    py = ((ys + 0.5) / height - 0.5 - shift[1]) / scale + 0.5
    img = np.repeat(background[:, None, None], height, axis=1).repeat(width, axis=2).copy()
    aa = 1.0 / min(height, width)  # ~1px soft edge keeps features differentiable-ish
    for shape in shapes:
        cx, cy = shape["center"]
        if shape["type"] == "disk":
            dist = np.hypot(px - cx, py - cy) - shape["radius"]
        elif shape["type"] == "rect":
            hw, hh = shape["half_extents"]
            dist = np.maximum(np.abs(px - cx) - hw, np.abs(py - cy) - hh)
        else:  # bar: rotated thin rectangle
            th = shape["angle"]
            rx = (px - cx) * np.cos(th) + (py - cy) * np.sin(th)
            ry = -(px - cx) * np.sin(th) + (py - cy) * np.cos(th)
            dist = np.maximum(np.abs(rx) - shape["length"], np.abs(ry) - shape["thickness"])
        alpha = np.clip(0.5 - dist / aa, 0.0, 1.0)
        img = img * (1 - alpha) + shape["color"][:, None, None] * alpha
    return img


def _sample_composition(rng: np.random.Generator) -> tuple[list[dict], np.ndarray]:
    background = rng.uniform(0.0, 0.25, size=3)
    shapes = []
    for _ in range(rng.integers(2, 5)):
        kind = ["disk", "rect", "bar"][rng.integers(0, 3)]
        shape = {"type": kind,
                 "center": rng.uniform(0.25, 0.75, size=2),
                 "color": rng.uniform(0.35, 1.0, size=3)}
        if kind == "disk":
            shape["radius"] = rng.uniform(0.08, 0.2)
        elif kind == "rect":
            shape["half_extents"] = rng.uniform(0.08, 0.2, size=2)
        else:
            shape["angle"] = rng.uniform(0.0, np.pi)
            shape["length"] = rng.uniform(0.15, 0.3)
            shape["thickness"] = rng.uniform(0.03, 0.08)
        shapes.append(shape)
    return shapes, background


@dataclass
class DatasetItem:
    item_id: str
    label: int
    split: str   # one of SPLITS
    path: str    # relative to the dataset directory


SPLITS = ("train", "index", "query")
_ITEM_KEYS = {"item_id", "label", "split", "path"}


def _manifest_item(entry) -> DatasetItem:
    if not isinstance(entry, dict) or set(entry) != _ITEM_KEYS:
        raise DatasetError(f"manifest item needs exactly the keys {sorted(_ITEM_KEYS)}, "
                           f"got {entry!r}")
    item = DatasetItem(**entry)
    if not (isinstance(item.item_id, str) and is_int(item.label) and item.split in SPLITS
            and isinstance(item.path, str) and item.path):
        raise DatasetError(f"malformed manifest item {entry!r}")
    return item


class RetrievalDataset:
    """Labeled image tensors with query/relevance structure. The constructor
    reads every image and holds it as its file stores it (`load_image_file`).
    A missing, unreadable or malformed manifest, or an image file that is
    missing, unreadable, malformed or not of the manifest's image shape,
    raises DatasetError there. `fingerprint` is the sha256 of the canonical
    manifest JSON followed by each stored image's bytes, in item order."""

    def __init__(self, root: Path, manifest: dict):
        self.root = Path(root)
        if not isinstance(manifest, dict):
            raise DatasetError("dataset manifest is not a JSON object")
        if manifest.get("format_version") != DATASET_FORMAT_VERSION:
            raise DatasetError(f"dataset manifest has format version "
                               f"{manifest.get('format_version')!r}, expected "
                               f"{DATASET_FORMAT_VERSION}")
        shape = manifest.get("image_shape")
        if not (isinstance(shape, list) and len(shape) == 3
                and all(is_int(d, 1) for d in shape)):
            raise DatasetError(f"image_shape must be three positive integers, got {shape!r}")
        items, relevant = manifest.get("items"), manifest.get("relevant")
        if not isinstance(items, list):
            raise DatasetError("manifest items must be a list")
        if not (isinstance(relevant, dict)
                and all(isinstance(ids, list) and all(isinstance(i, str) for i in ids)
                        for ids in relevant.values())):
            raise DatasetError("manifest relevant must map each query id to a list of item ids")
        self.image_shape = tuple(shape)
        self.items = [_manifest_item(it) for it in items]
        self.relevant = {q: list(ids) for q, ids in relevant.items()}
        self._by_id = {it.item_id: it for it in self.items}
        digest = hashlib.sha256(json.dumps(manifest, sort_keys=True).encode())
        self._validate()
        self._images: dict[str, np.ndarray] = {}
        for it in self.items:
            stored = load_image_file(self.root / it.path)
            if tuple(stored.shape) != self.image_shape:
                raise DatasetError(f"item {it.item_id!r} has shape {stored.shape}, manifest "
                                   f"declares {self.image_shape}")
            self._images[it.item_id] = stored
            digest.update(stored.tobytes())
        self.fingerprint = digest.hexdigest()

    def _validate(self) -> None:
        if len(self._by_id) != len(self.items):
            raise DatasetError("duplicate item ids in dataset manifest")
        index_ids = {it.item_id for it in self.split("index")}
        query_ids = {it.item_id for it in self.split("query")}
        for qid, rel in self.relevant.items():
            if qid not in query_ids:
                raise DatasetError(f"relevant table names {qid!r}, which is not a query item")
            if not rel:
                raise DatasetError(f"query {qid!r} has an empty relevant set")
            if qid in rel:
                raise DatasetError(f"query {qid!r} lists itself as relevant")
            if len(set(rel)) != len(rel):
                raise DatasetError(f"query {qid!r} lists a relevant item more than once")
            for rid in rel:
                if rid not in index_ids:
                    raise DatasetError(f"query {qid!r} lists non-index item {rid!r} as relevant")
                if self.label_of(rid) != self.label_of(qid):
                    raise DatasetError(f"query {qid!r} lists item {rid!r} of another instance "
                                       "as relevant")
        for it in self.split("query"):
            if it.item_id not in self.relevant:
                raise DatasetError(f"query {it.item_id!r} has no relevant entry")

    def split(self, name: str) -> list[DatasetItem]:
        return [it for it in self.items if it.split == name]

    def label_of(self, item_id: str) -> int:
        return self._by_id[item_id].label

    def load_image(self, item_id: str) -> np.ndarray:
        """A fresh float64 copy of the held image; PPM pixels are scaled to [0,1]."""
        stored = self._images[item_id]
        if stored.dtype == np.uint8:
            return stored.astype(np.float64) / 255.0
        return stored.astype(np.float64)

    @classmethod
    def load(cls, root: str | Path) -> "RetrievalDataset":
        return cls(root, read_json(Path(root) / "manifest.json", DatasetError))


def generate_dataset(out_dir: str | Path, instances: int = 40, images_per_instance: int = 8,
                     shape: tuple[int, int, int] = (3, 32, 32), seed: int = 0) -> RetrievalDataset:
    """Render a synthetic instance-retrieval dataset to `out_dir`.

    Deterministic under `seed`: every image draws its nuisance parameters
    from an RNG keyed by (seed, instance, image).
    """
    if instances < 2 or images_per_instance < 2:
        raise ValueError("need at least 2 instances and 2 images per instance")
    c, height, width = shape
    if c != 3:
        raise ValueError(f"renderer produces 3-channel images, got shape {shape}")
    out_dir = Path(out_dir)
    items = []
    relevant: dict[str, list[str]] = {}
    for inst in range(instances):
        shapes, background = _sample_composition(np.random.default_rng([seed, inst]))
        ids = []
        for img_idx in range(images_per_instance):
            rng = np.random.default_rng([seed, inst, img_idx])
            shift = tuple(rng.uniform(-0.25, 0.25, size=2))
            scale = rng.uniform(0.8, 1.2)
            brightness = rng.uniform(0.8, 1.2)
            img = _render_instance(shapes, background, height, width, shift, scale)
            img = np.clip(img * brightness + rng.normal(0.0, 0.05, size=img.shape), 0.0, 1.0)
            item_id = f"i{inst:03d}_v{img_idx}"
            if img_idx == 0:
                split = "query"
            elif img_idx <= INDEX_IMAGES_PER_INSTANCE:
                split = "index"
            else:
                split = "train"
            rel_path = f"tensors/{item_id}.cptn"
            save_tensor(img, out_dir / rel_path)
            items.append({"item_id": item_id, "label": inst, "split": split, "path": rel_path})
            ids.append((item_id, split))
        query_id = ids[0][0]
        relevant[query_id] = [iid for iid, split in ids if split == "index"]

    manifest = {
        "format_version": DATASET_FORMAT_VERSION,
        "image_shape": list(shape),
        "seed": int(seed),
        "instances": int(instances),
        "images_per_instance": int(images_per_instance),
        "items": items,
        "relevant": relevant,
    }
    write_json(out_dir / "manifest.json", manifest)
    return RetrievalDataset(out_dir, manifest)
