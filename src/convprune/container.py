"""Manifest + blob container used for models and descriptor indexes.

A container is a directory holding `manifest.json` (format version, payload
metadata, tensor index) and `tensors.bin` (8-byte header, then one segment
per tensor). Float tensors are stored as little-endian float32, binary masks
as packed bits; every segment carries a CRC32 checksum verified on read.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
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
    """The manifest is unreadable or not JSON, or the blob's magic, size, or
    checksum does not match it."""


class VersionError(ContainerError):
    """Container was written with an unsupported format version."""


def write_container(path: str | Path, payload: dict, tensors: list[tuple[str, np.ndarray]]) -> Path:
    """Write a container directory, each file through a rename (`write_atomic`).

    `tensors` is a list of (name, array); boolean arrays are bit-packed,
    everything else is cast to little-endian float32. A tensor that is not
    finite as float32 raises ContainerError before anything is written.
    """
    path = Path(path)
    blob = bytearray(_HEADER.pack(BLOB_MAGIC, FORMAT_VERSION, 0))
    index = []
    for name, arr in tensors:
        if arr.dtype == np.bool_:
            data = np.packbits(arr.reshape(-1)).tobytes()
            kind = "bits"
        else:
            data = finite_f32(arr, ContainerError, f"{path}: tensor {name!r}").tobytes()
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
    write_atomic(path / BLOB_NAME, bytes(blob))
    write_json(path / MANIFEST_NAME, manifest)
    return path


def finite_f32(arr, error: type[Exception], what: str) -> np.ndarray:
    """`arr` as a contiguous little-endian float32 array, the form every float
    file stores; `error` naming `what` if a value is not finite once cast."""
    with np.errstate(over="ignore"):  # an overflow to inf is refused below
        values = np.ascontiguousarray(arr, dtype="<f4")
    if not np.all(np.isfinite(values)):
        raise error(f"{what} holds a non-finite float32 value")
    return values


def check_target(target: str | Path) -> None:
    """OSError("cannot write <target>: <reason>") unless `target` can name a file:
    its name is not empty, `.` or `..`, it is not an existing directory, and its
    nearest existing ancestor is a directory. `write_atomic` calls it first, and
    a command with two outputs calls it on the second before writing the first."""
    target = Path(target)
    if target.name in ("", ".", ".."):
        reason = "not a file name"
    elif target.is_dir():
        reason = "is a directory"
    else:
        ancestor = next(p for p in target.parents if p.exists())
        reason = None if ancestor.is_dir() else f"{ancestor} is not a directory"
    if reason:
        raise OSError(f"cannot write {target}: {reason}")


def write_atomic(target: str | Path, data: bytes) -> None:
    """Create `target`'s directories, write `data` to a temp file next to it and
    rename that over `target`; a failed write leaves the previous file and no
    temp file, and raises OSError naming `target` (`check_target` refuses a
    target before anything is written). `write_container` replaces the
    blob first and the manifest last, so a write that fails midway leaves the
    previous container or one whose old manifest does not match the new blob (`IntegrityError`)."""
    check_target(target)
    target = Path(target)
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        try:
            tmp.write_bytes(data)
            os.replace(tmp, target)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise OSError(f"cannot write {target}: {exc.strerror or exc}") from exc


def write_csv(target: str | Path, rows: list[list]) -> None:
    """Write `rows` as CSV through `write_atomic`, in the excel dialect (CRLF
    line ends, a cell quoted when it holds a comma, quote or line break). A
    float cell (numpy float64 too) prints `:.12g` and `None` as an empty cell;
    any other cell prints as `csv` prints it. Every table the program writes
    comes through here."""
    text = io.StringIO(newline="")
    csv.writer(text).writerows([f"{c:.12g}" if isinstance(c, float) else c for c in row]
                               for row in rows)
    write_atomic(target, text.getvalue().encode())


def write_json(target: str | Path, value) -> None:
    """Write `value` as one indented JSON document (no trailing newline) through
    `write_atomic`. Every JSON document the program writes comes through here."""
    write_atomic(target, json.dumps(value, indent=2).encode())


def write_jsonl(target: str | Path, records: list) -> None:
    """Write each of `records` as one JSON line through `write_atomic`; no
    records write an empty file."""
    write_atomic(target, "".join(json.dumps(r) + "\n" for r in records).encode())


def read_file(path: str | Path, error: type[Exception]) -> bytes:
    """The bytes of the file at `path`; `error` naming the file if it is
    missing or cannot be read. Every file the program reads comes through here."""
    try:
        return Path(path).read_bytes()
    except FileNotFoundError:
        raise error(f"missing {path}") from None
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror or exc}") from exc


def read_json(path: str | Path, error: type[Exception]):
    """The JSON value in the file at `path`; `error` naming the file if it
    cannot be read (`read_file`) or is not valid JSON."""
    raw = read_file(path, error)
    try:
        return json.loads(raw)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise error(f"{path}: not valid JSON ({exc})") from None


def is_int(value, minimum: int | None = None) -> bool:
    """True for an int or numpy integer, never a bool, that is >= `minimum`
    when one is given."""
    return (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and (minimum is None or value >= minimum))


def require_int(value, what: str, minimum: int) -> int:
    """`value` as an int; ValueError naming `what` unless it is an integer
    (`is_int`) >= `minimum`. Every integer setting is checked here."""
    if not is_int(value, minimum):
        raise ValueError(f"{what} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def read_container(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a container directory, verifying version, magic, and checksums.

    Returns (manifest, tensors) with float tensors widened to float64 and
    bit-packed tensors unpacked to bool. A file that cannot be read or a
    float tensor holding a non-finite value raises ContainerError; a manifest
    that is not a JSON object, IntegrityError.
    """
    path = Path(path)
    manifest_path = path / MANIFEST_NAME
    blob_path = path / BLOB_NAME
    if not manifest_path.is_file() or not blob_path.is_file():
        raise ContainerError(f"{path} is not a container (missing manifest or blob)")
    manifest = read_json(manifest_path, IntegrityError)
    if not isinstance(manifest, dict):
        raise IntegrityError(f"manifest in {path} is not a JSON object")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise VersionError(f"container {path} has format version {version!r}, "
                           f"expected {FORMAT_VERSION}")
    blob = read_file(blob_path, ContainerError)
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
            values = np.frombuffer(data, dtype="<f4")
            if not np.all(np.isfinite(values)):
                raise ContainerError(f"tensor {name!r} in {path} holds a non-finite value")
            tensors[name] = values.astype(np.float64).reshape(shape)
    return manifest, tensors


def _index_entry(spec, path: Path) -> tuple:
    """(name, kind, shape, offset, nbytes, crc32) of one tensor index entry, checked
    to be well-formed and to describe exactly `nbytes` bytes of payload."""
    try:
        name, kind, shape = spec["name"], spec["kind"], spec["shape"]
        start, nbytes, crc = spec["offset"], spec["nbytes"], spec["crc32"]
    except (KeyError, TypeError) as exc:
        raise IntegrityError(f"malformed tensor index entry in {path}: {spec!r}") from exc
    if not isinstance(name, str) or not isinstance(shape, list) \
            or not all(is_int(d, 0) for d in shape + [start, nbytes]):
        raise IntegrityError(f"malformed tensor index entry in {path}: {spec!r}")
    if kind not in ("bits", "f32"):
        raise IntegrityError(f"tensor {name!r} in {path} has unknown kind {kind!r}")
    count = math.prod(shape)
    expected = (count + 7) // 8 if kind == "bits" else 4 * count
    if nbytes != expected:
        raise IntegrityError(f"tensor {name!r} in {path} declares {nbytes} bytes for "
                             f"{kind} shape {shape}, expected {expected}")
    return name, kind, tuple(shape), start, nbytes, crc
