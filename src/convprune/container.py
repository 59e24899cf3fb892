"""Manifest + blob container used for models.

A container is a directory holding `manifest.json` (format version, payload
metadata, tensor index) and `tensors.bin` (8-byte header, then one segment
per tensor). Float tensors are stored as little-endian float32, binary masks
as packed bits; every segment carries a CRC32 checksum verified on read.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from pathlib import Path

import numpy as np

BLOB_MAGIC = b"CPNB"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHH")  # magic, version, reserved

MANIFEST_NAME = "manifest.json"
BLOB_NAME = "tensors.bin"


class ContainerError(ValueError):
    """Container cannot be read or written."""


class IntegrityError(ContainerError):
    """Blob magic, size, or checksum does not match the manifest."""


class VersionError(ContainerError):
    """Container was written with an unsupported format version."""


def write_container(path: str | Path, payload: dict, tensors: list[tuple[str, np.ndarray]]) -> Path:
    """Write a container directory.

    `tensors` is a list of (name, array); boolean arrays are bit-packed,
    everything else is cast to little-endian float32.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    blob = bytearray(_HEADER.pack(BLOB_MAGIC, FORMAT_VERSION, 0))
    index = []
    for name, arr in tensors:
        if arr.dtype == np.bool_:
            data = np.packbits(arr.reshape(-1)).tobytes()
            kind = "bits"
        else:
            data = np.ascontiguousarray(arr, dtype="<f4").tobytes()
            kind = "f32"
        index.append({
            "name": name,
            "kind": kind,
            "shape": [int(d) for d in arr.shape],
            "offset": len(blob),
            "nbytes": len(data),
            "crc32": zlib.crc32(data),
        })
        blob.extend(data)
    manifest = {"format_version": FORMAT_VERSION, **payload, "tensors": index}
    (path / BLOB_NAME).write_bytes(bytes(blob))
    (path / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2))
    return path


def read_container(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a container directory, verifying version, magic, and checksums.

    Returns (manifest, tensors) with float tensors widened to float64 and
    bit-packed tensors unpacked to bool.
    """
    path = Path(path)
    manifest_path = path / MANIFEST_NAME
    blob_path = path / BLOB_NAME
    if not manifest_path.is_file() or not blob_path.is_file():
        raise ContainerError(f"{path} is not a container (missing manifest or blob)")
    try:
        manifest = json.loads(manifest_path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise IntegrityError(f"manifest in {path} is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise IntegrityError(f"manifest in {path} is not a JSON object")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise VersionError(f"container {path} has format version {version!r}, "
                           f"expected {FORMAT_VERSION}")
    blob = blob_path.read_bytes()
    if len(blob) < _HEADER.size:
        raise IntegrityError(f"blob in {path} truncated before header")
    magic, blob_version, _ = _HEADER.unpack_from(blob)
    if magic != BLOB_MAGIC:
        raise IntegrityError(f"blob in {path} has bad magic {magic!r}")
    if blob_version != FORMAT_VERSION:
        raise VersionError(f"blob in {path} has format version {blob_version}, "
                           f"expected {FORMAT_VERSION}")
    specs = manifest.get("tensors", [])
    if not isinstance(specs, list):
        raise IntegrityError(f"tensor index in {path} is not a list")
    tensors: dict[str, np.ndarray] = {}
    for spec in specs:
        name, kind, shape, start, nbytes, crc = _index_entry(spec, path)
        if name in tensors:
            raise IntegrityError(f"tensor {name!r} listed twice in {path}")
        data = blob[start:start + nbytes]
        if len(data) != nbytes:
            raise IntegrityError(f"tensor {name!r} truncated in {path}")
        if zlib.crc32(data) != crc:
            raise IntegrityError(f"tensor {name!r} failed its checksum in {path}")
        count = math.prod(shape)
        if kind == "bits":
            bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=count)
            tensors[name] = bits.astype(bool).reshape(shape)
        else:
            tensors[name] = np.frombuffer(data, dtype="<f4").astype(np.float64).reshape(shape)
    return manifest, tensors


def _index_entry(spec, path: Path) -> tuple:
    """(name, kind, shape, offset, nbytes, crc32) of one tensor index entry, checked
    to be well-formed and to describe exactly `nbytes` bytes of payload."""
    def natural(v) -> bool:
        return isinstance(v, int) and not isinstance(v, bool) and v >= 0

    try:
        name, kind, shape = spec["name"], spec["kind"], spec["shape"]
        start, nbytes, crc = spec["offset"], spec["nbytes"], spec["crc32"]
    except (KeyError, TypeError) as exc:
        raise IntegrityError(f"malformed tensor index entry in {path}: {spec!r}") from exc
    if not isinstance(name, str) or not isinstance(shape, list) \
            or not all(natural(d) for d in shape + [start, nbytes]):
        raise IntegrityError(f"malformed tensor index entry in {path}: {spec!r}")
    if kind not in ("bits", "f32"):
        raise ContainerError(f"tensor {name!r} has unknown kind {kind!r}")
    count = math.prod(shape)
    expected = (count + 7) // 8 if kind == "bits" else 4 * count
    if nbytes != expected:
        raise IntegrityError(f"tensor {name!r} in {path} declares {nbytes} bytes for "
                             f"{kind} shape {shape}, expected {expected}")
    return name, kind, tuple(shape), start, nbytes, crc
