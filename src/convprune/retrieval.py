"""Descriptor similarity, ranking, and retrieval metrics.

The similarity of two descriptors is their channel-wise scalar product with
each side scaled by a per-image normalization term (the reciprocal root of
its own energy), i.e. cosine similarity of the pooled vectors. A query is
scored against a whole index in one call, on the matrix the index stacks
when it is built.
"""

from __future__ import annotations

import csv
import io
import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import container
from .pooling import POOLING_KINDS, Descriptor
from .tensor import GradientTape, TapeEntry, register_backward

# Below this, a descriptor is treated as degenerate (zero norm): similarity 0.
ZERO_NORM_TOL = 1e-12


def _values(x) -> np.ndarray:
    return x.values if isinstance(x, Descriptor) else np.asarray(x, dtype=np.float64)


def similarity(x, y):
    """Similarity of a descriptor to one descriptor, or to each row of a matrix.

    `x` is a Descriptor or plain vector. `y` is a Descriptor or plain vector
    (returns a float), or a stacked [N, C] matrix of N descriptor vectors
    (returns the N scores as an array). The scalar product is divided by both
    root energies (cosine, self-similarity 1). A zero-norm descriptor, query
    or row, scores 0 with a degenerate-descriptor warning.
    """
    u, v = _values(x), _values(y)
    if u.ndim != 1 or v.ndim not in (1, 2):
        raise ValueError("similarity compares pooled descriptor vectors; pool feature "
                         "maps first (sqp_pool / rmac_pool)")
    if u.shape[0] != v.shape[-1]:
        raise ValueError(f"descriptor lengths differ: {u.shape} vs {v.shape}")
    if isinstance(x, Descriptor) and isinstance(y, Descriptor) and x.kind != y.kind:
        raise ValueError(f"pooling kinds differ: {x.kind} vs {y.kind}")
    nu = float(np.linalg.norm(u))
    if v.ndim == 2:
        return _similarity_rows(u, nu, v)
    nv = float(np.linalg.norm(v))
    if nu < ZERO_NORM_TOL or nv < ZERO_NORM_TOL:
        warnings.warn("degenerate zero-norm descriptor; similarity defined as 0",
                      RuntimeWarning, stacklevel=2)
        return 0.0
    return float(u @ v) / (nu * nv)


def _similarity_rows(u: np.ndarray, nu: float, rows: np.ndarray) -> np.ndarray:
    # einsum rather than BLAS gemv: it sums each row's products in the same
    # order wherever the row sits in the matrix, so equal rows score exactly
    # equal and ranking ties stay ties.
    nv = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    degenerate = nv < ZERO_NORM_TOL
    scores = np.zeros(rows.shape[0])
    if nu < ZERO_NORM_TOL or degenerate.any():
        warnings.warn("degenerate zero-norm descriptor; similarity defined as 0",
                      RuntimeWarning, stacklevel=3)
        if nu < ZERO_NORM_TOL:
            return scores
    np.divide(np.einsum("ij,j->i", rows, u), nu * nv, out=scores, where=~degenerate)
    return scores


def similarity_op(u: np.ndarray, v: np.ndarray, tape: GradientTape) -> np.ndarray:
    """Tape-recorded normalized similarity of two descriptor vectors.

    Returns a 0-d array so the hinge loss can consume it on the same tape.
    """
    nu, nv = float(np.linalg.norm(u)), float(np.linalg.norm(v))
    degenerate = nu < ZERO_NORM_TOL or nv < ZERO_NORM_TOL
    if degenerate:
        warnings.warn("degenerate zero-norm descriptor; similarity defined as 0",
                      RuntimeWarning, stacklevel=2)
        k = 0.0
    else:
        k = float(u @ v) / (nu * nv)
    out = np.array(k)
    tape.record("similarity", (u, v), out,
                {"nu": nu, "nv": nv, "k": k, "degenerate": degenerate})
    return out


def _similarity_backward(entry: TapeEntry, upstream: np.ndarray):
    u, v = entry.inputs
    if entry.ctx["degenerate"]:
        return np.zeros_like(u), np.zeros_like(v)
    nu, nv, k = entry.ctx["nu"], entry.ctx["nv"], entry.ctx["k"]
    g = float(upstream)
    du = g * (v / (nu * nv) - k * u / (nu * nu))
    dv = g * (u / (nu * nv) - k * v / (nv * nv))
    return du, dv


register_backward("similarity", _similarity_backward)


# ---------------------------------------------------------------------------
# Index and ranking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IndexEntry:
    item_id: str
    descriptor: Descriptor
    label: int


@dataclass(frozen=True)
class DescriptorIndex:
    """An immutable set of descriptors to rank against.

    Construction validates the entries and stacks their values, in item-id
    order, into the read-only [N, C] `matrix` whose rows `ids` names. `save`
    and `load` keep an index in one container (`container.write_container`).
    """
    entries: tuple[IndexEntry, ...]
    ids: tuple[str, ...] = field(init=False, repr=False, compare=False)
    matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        entries = tuple(self.entries)
        ids = [e.item_id for e in entries]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate item ids in index")
        for e in entries:
            first = entries[0].descriptor
            if e.descriptor.kind != first.kind:
                raise ValueError(f"index mixes pooling kinds ({first.kind} and {e.descriptor.kind})")
            if e.descriptor.values.ndim != 1:
                raise ValueError(f"descriptor {e.item_id} is not a vector")
            if e.descriptor.values.shape != first.values.shape:
                raise ValueError("index mixes descriptor lengths")
            if tuple(e.descriptor.spatial) != tuple(first.spatial):
                raise ValueError(f"index mixes spatial sizes ({first.spatial} and "
                                 f"{e.descriptor.spatial})")
        length = entries[0].descriptor.values.shape[0] if entries else 0
        by_id = sorted(entries, key=lambda e: e.item_id)
        matrix = np.array([e.descriptor.values for e in by_id], dtype=np.float64).reshape(
            len(by_id), length)
        matrix.flags.writeable = False
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "ids", tuple(e.item_id for e in by_id))
        object.__setattr__(self, "matrix", matrix)

    @property
    def kind(self) -> str | None:
        return self.entries[0].descriptor.kind if self.entries else None

    def labels(self) -> dict[str, int]:
        return {e.item_id: e.label for e in self.entries}

    def save(self, path: str | Path) -> None:
        """Write the index as one container: the float32 `[N, C]` matrix as
        tensor `descriptors`, and pooling, spatial `[W, H]`, ids and labels
        (in id order) in the manifest."""
        labels = self.labels()
        spatial = list(self.entries[0].descriptor.spatial) if self.entries else None
        payload = {"kind": "descriptor_index", "pooling": self.kind, "spatial": spatial,
                   "ids": list(self.ids), "labels": [labels[i] for i in self.ids]}
        container.write_container(path, payload, [("descriptors", self.matrix)])

    @classmethod
    def load(cls, path: str | Path) -> "DescriptorIndex":
        """Read a saved index; `container.ContainerError` on any malformed file."""
        manifest, tensors = container.read_container(path)

        def fail(what: str):
            raise container.ContainerError(f"{path}: {what}")

        if manifest.get("kind") != "descriptor_index":
            fail(f"holds {manifest.get('kind')!r}, not a descriptor index")
        ids, labels = manifest.get("ids"), manifest.get("labels")
        if not (isinstance(ids, list) and all(isinstance(i, str) for i in ids)
                and len(set(ids)) == len(ids)):
            fail("ids must be a list of unique strings")
        if not (isinstance(labels, list) and len(labels) == len(ids) and all(
                isinstance(l, int) and not isinstance(l, bool) for l in labels)):
            fail("labels must be one integer per id")
        matrix = tensors.get("descriptors")
        if (set(tensors) != {"descriptors"} or matrix.dtype != np.float64
                or matrix.ndim != 2 or matrix.shape[0] != len(ids)):
            fail(f"expected one [{len(ids)}, C] f32 tensor 'descriptors', got {sorted(tensors)}")
        pooling, spatial = manifest.get("pooling"), manifest.get("spatial")
        if ids:
            if pooling not in POOLING_KINDS:
                fail(f"unknown pooling kind {pooling!r}")
            if not (isinstance(spatial, list) and len(spatial) == 2 and all(
                    isinstance(s, int) and not isinstance(s, bool) and s >= 1 for s in spatial)):
                fail(f"spatial must be [W, H] positive integers, got {spatial!r}")
            if not np.all(np.isfinite(matrix)):
                fail("non-finite descriptor values")
        return cls(entries=[IndexEntry(i, Descriptor(row, pooling, tuple(spatial)), label)
                            for i, row, label in zip(ids, matrix, labels)])


def rank(query: Descriptor, index: DescriptorIndex, exclude_id: str | None = None) -> list[str]:
    """Item ids sorted by similarity to the query, best first.

    Ties break by item id ascending; `exclude_id` (normally the query's own
    id) is dropped from the ranking.
    """
    if not index.entries:
        return []
    if isinstance(query, Descriptor) and query.kind != index.kind:
        raise ValueError(f"pooling kinds differ: {query.kind} vs {index.kind}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # degenerate entries rank by id
        scores = similarity(query, index.matrix)
    ids = index.ids
    # matrix rows are in id order, so a stable sort breaks ties by id
    return [ids[i] for i in np.argsort(-scores, kind="stable").tolist() if ids[i] != exclude_id]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def average_precision(ranking: list[str], relevant: set[str]) -> float:
    """Mean of precision-at-hit over the relevant set; absentees count 0."""
    if not relevant:
        raise ValueError("relevant set must be nonempty")
    hits = 0
    total = 0.0
    for pos, item_id in enumerate(ranking, start=1):
        if item_id in relevant:
            hits += 1
            total += hits / pos
    return total / len(relevant)


def recall4(ranking: list[str], relevant: set[str]) -> int:
    """Count of relevant items in the top 4 positions (0..4)."""
    return sum(1 for item_id in ranking[:4] if item_id in relevant)


@dataclass
class EvalResult:
    per_query_ap: dict[str, float]
    per_query_recall4: dict[str, int]
    query_count: int
    mean_ap: float = field(init=False)
    mean_recall4: float | None = field(init=False)

    def __post_init__(self):
        aps = list(self.per_query_ap.values())
        self.mean_ap = float(np.mean(aps)) if aps else 0.0
        counts = list(self.per_query_recall4.values())
        self.mean_recall4 = float(np.mean(counts)) if counts else None

    def to_json(self) -> str:
        return json.dumps({
            "mean_ap": self.mean_ap,
            "recall4": self.mean_recall4,
            "query_count": self.query_count,
            "per_query_ap": self.per_query_ap,
            "per_query_recall4": self.per_query_recall4,
        }, indent=2)

    def write_csv(self, path: str | Path) -> None:
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(["query", "ap", "recall4"])
        for qid in sorted(self.per_query_ap):
            r4 = self.per_query_recall4.get(qid, "")
            writer.writerow([qid, f"{self.per_query_ap[qid]:.12g}", r4])
        writer.writerow(["mean", f"{self.mean_ap:.12g}",
                         "" if self.mean_recall4 is None else f"{self.mean_recall4:.12g}"])
        container.write_atomic(path, buf.getvalue().encode())


def evaluate(index: DescriptorIndex, queries: list[tuple[str, Descriptor, set[str]]]) -> EvalResult:
    """Rank every (query id, descriptor, relevant ids) against the index.

    mAP aggregates over all queries; the recall@4 score only over queries
    whose relevant set has exactly 4 items (others are excluded with a
    warning, following the 4-per-query benchmark convention).
    """
    per_ap: dict[str, float] = {}
    per_r4: dict[str, int] = {}
    for qid, desc, relevant in queries:
        ranking = rank(desc, index, exclude_id=qid)
        per_ap[qid] = average_precision(ranking, relevant)
        if len(relevant) == 4:
            per_r4[qid] = recall4(ranking, relevant)
        else:
            warnings.warn(f"query {qid!r} has {len(relevant)} relevant items, not 4; "
                          "excluded from the recall@4 aggregate", RuntimeWarning, stacklevel=2)
    return EvalResult(per_query_ap=per_ap, per_query_recall4=per_r4, query_count=len(queries))
