"""Descriptor similarity, ranking, and retrieval metrics.

The similarity of two descriptors is their channel-wise scalar product with
each side scaled by a per-image normalization term (the reciprocal root of
its own energy), i.e. cosine similarity of the pooled vectors. A query is
scored against a whole index in one call, on the matrix the index stacks
when it is built.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import InitVar, dataclass, field
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
    """Tape-recorded `similarity` of two descriptor vectors.

    Returns a 0-d array so the hinge loss can consume it on the same tape.
    """
    out = np.array(similarity(u, v))
    tape.record("similarity", (u, v), out)
    return out


def _similarity_backward(entry: TapeEntry, upstream: np.ndarray):
    u, v = entry.inputs
    nu, nv = float(np.linalg.norm(u)), float(np.linalg.norm(v))
    if nu < ZERO_NORM_TOL or nv < ZERO_NORM_TOL:
        return np.zeros_like(u), np.zeros_like(v)
    k, g = float(entry.output), float(upstream)
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


@dataclass(frozen=True, eq=False)
class DescriptorIndex:
    """An immutable set of descriptors to rank against, built from `IndexEntry`
    records: their ids in item-id order, their labels in the same order, the
    read-only [N, C] `matrix` of their values with one row per id, and their
    pooling `kind` (None when empty). `save` and `load` keep an index in one
    container (`container.write_container`)."""
    entries: InitVar[list[IndexEntry]]
    ids: tuple[str, ...] = field(init=False)
    labels: tuple[int, ...] = field(init=False)
    matrix: np.ndarray = field(init=False, repr=False)
    kind: str | None = field(init=False)

    def __post_init__(self, entries):
        by_id = sorted(entries, key=lambda e: e.item_id)
        ids = tuple(e.item_id for e in by_id)
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate item ids in index")
        kind = by_id[0].descriptor.kind if by_id else None
        matrix = np.empty((len(by_id), by_id[0].descriptor.values.size if by_id else 0))
        for row, e in zip(matrix, by_id):
            if e.descriptor.kind != kind:
                raise ValueError(f"index mixes pooling kinds ({kind} and {e.descriptor.kind})")
            if e.descriptor.values.ndim != 1:
                raise ValueError(f"descriptor {e.item_id} is not a vector")
            if e.descriptor.values.shape != row.shape:
                raise ValueError("index mixes descriptor lengths")
            row[:] = e.descriptor.values
        matrix.flags.writeable = False
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "labels", tuple(e.label for e in by_id))
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "kind", kind)

    def save(self, path: str | Path) -> None:
        """Write the index as one container: the float32 `[N, C]` matrix as
        tensor `descriptors`, and pooling, ids and labels in the manifest."""
        payload = {"kind": "descriptor_index", "pooling": self.kind,
                   "ids": list(self.ids), "labels": list(self.labels)}
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
        if not (isinstance(labels, list) and len(labels) == len(ids)
                and all(container.is_int(l) for l in labels)):
            fail("labels must be one integer per id")
        matrix = tensors.get("descriptors")
        if (set(tensors) != {"descriptors"} or matrix.dtype != np.float64
                or matrix.ndim != 2 or matrix.shape[0] != len(ids)):
            fail(f"expected one [{len(ids)}, C] f32 tensor 'descriptors', got {sorted(tensors)}")
        pooling = manifest.get("pooling")
        if pooling not in (POOLING_KINDS if ids else (None,)):
            fail(f"pooling kind {pooling!r} does not fit {len(ids)} ids (null exactly when none)")
        return cls([IndexEntry(i, Descriptor(row, pooling), label)
                    for i, row, label in zip(ids, matrix, labels)])


def rank(query: Descriptor, index: DescriptorIndex, exclude_id: str | None = None) -> list[str]:
    """Item ids sorted by similarity to the query, best first.

    Ties break by item id ascending; `exclude_id` (normally the query's own
    id) is dropped from the ranking.
    """
    if not index.ids:
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
        """Raise ValueError unless every AP is a real number in [0, 1], every
        recall@4 count an integer in 0..4 keyed by a query with an AP, and
        `query_count` the number of APs."""
        for qid, ap in self.per_query_ap.items():
            if isinstance(ap, bool) or not isinstance(ap, numbers.Real) or not 0.0 <= ap <= 1.0:
                raise ValueError(f"query {qid!r}: AP {ap!r} is not a number in [0, 1]")
        for qid, r in self.per_query_recall4.items():
            if qid not in self.per_query_ap or not (container.is_int(r, 0) and r <= 4):
                raise ValueError(f"query {qid!r}: recall@4 {r!r} is not an integer in 0..4 "
                                 "of a query with an AP")
        aps = list(self.per_query_ap.values())
        if not container.is_int(self.query_count) or self.query_count != len(aps):
            raise ValueError(f"query_count {self.query_count!r} is not the {len(aps)} APs")
        self.mean_ap = float(np.mean(aps)) if aps else 0.0
        counts = list(self.per_query_recall4.values())
        self.mean_recall4 = float(np.mean(counts)) if counts else None

    def write_json(self, path: str | Path) -> None:
        container.write_json(path, {
            "mean_ap": self.mean_ap,
            "recall4": self.mean_recall4,
            "query_count": self.query_count,
            "per_query_ap": self.per_query_ap,
            "per_query_recall4": self.per_query_recall4,
        })

    def write_csv(self, path: str | Path) -> None:
        container.write_csv(path, [
            ["query", "ap", "recall4"],
            *([qid, float(self.per_query_ap[qid]), self.per_query_recall4.get(qid)]
              for qid in sorted(self.per_query_ap)),
            ["mean", self.mean_ap, self.mean_recall4]])


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
