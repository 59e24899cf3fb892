"""Global-threshold pruning over all conv-layer salience scores.

Selection is exact-count: to keep a fraction t of the currently-unmasked
weights, the round((1-t)*N) lowest-salience edges are removed, so reported
"fraction remaining" matches the sweep axis exactly. Ties at the threshold
break deterministically by (layer index, flat weight index) ascending, lower
index removed first. Biases are never pruned.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import container
from .network import NetworkModel, clone_model, validate_masks
from .salience import SalienceMap
from .tensor import ShapeError


@dataclass
class LayerPruneRow:
    name: str
    total: int
    remaining: int

    @property
    def fraction(self) -> float:
        return self.remaining / self.total if self.total else 0.0


@dataclass
class PruneReport:
    heuristic: str | None
    target_keep_fraction: float | None
    achieved_keep_fraction: float
    threshold: float | None
    tie_count: int                  # unmasked scores exactly equal to the threshold
    layers: list[LayerPruneRow]

    def to_dict(self) -> dict:
        return {
            "heuristic": self.heuristic,
            "target_keep_fraction": self.target_keep_fraction,
            "achieved_keep_fraction": self.achieved_keep_fraction,
            "threshold": self.threshold,
            "tie_count": self.tie_count,
            "layers": [{"layer": r.name, "total": r.total, "remaining": r.remaining,
                        "fraction": r.fraction} for r in self.layers],
        }

    def write_json(self, path: str | Path) -> None:
        container.write_json(path, self.to_dict())

    def write_csv(self, path: str | Path) -> None:
        write_prune_csv(path, self.to_dict()["layers"])


def write_prune_csv(path: str | Path, layers: list[dict]) -> None:
    """CSV of `PruneReport.to_dict()["layers"]` rows plus an `all` totals row.
    `report` reads the rows from a file, so a row raises ValueError unless its
    `total` and `remaining` are integers with 0 <= remaining <= total and its
    `fraction` is the float `LayerPruneRow.fraction` gives for them."""
    for r in layers:
        total, remaining, fraction = r["total"], r["remaining"], r["fraction"]
        if not (container.is_int(remaining, 0) and container.is_int(total, remaining)
                and isinstance(fraction, float)
                and fraction == LayerPruneRow(r["layer"], total, remaining).fraction):
            raise ValueError(f"inconsistent prune row {r!r}")
    total = sum(r["total"] for r in layers)
    remaining = sum(r["remaining"] for r in layers)
    container.write_csv(path, [
        ["layer", "total", "remaining", "fraction"],
        *([r["layer"], r["total"], r["remaining"], r["fraction"]] for r in layers),
        ["all", total, remaining, LayerPruneRow("all", total, remaining).fraction]])


def select_threshold(salience: SalienceMap, keep_fraction: float,
                     masks: dict[int, np.ndarray]) -> tuple[float, dict[int, np.ndarray]]:
    """Pick the global threshold and the removal set.

    `masks` gives the currently-unmasked positions per conv layer; only those
    participate. Returns (threshold, {layer index -> flat indices to remove});
    the threshold is the smallest retained score (inf if nothing is retained).
    """
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError(f"keep fraction must be in (0, 1], got {keep_fraction}")
    layers = sorted(salience.scores)
    for idx in layers:
        m = masks.get(idx)
        if m is None:
            raise ShapeError(f"no mask provided for conv layer {idx}")
        if m.shape != salience.scores[idx].shape:
            raise ShapeError(f"layer {idx}: mask shape {m.shape} != score shape "
                             f"{salience.scores[idx].shape}")
    # one flat array in (layer index, flat index) order, so that a stable sort of
    # the live scores breaks ties by (layer index, flat index) ascending
    scores = np.concatenate([np.empty(0), *(salience.scores[idx].reshape(-1) for idx in layers)])
    live = np.flatnonzero(np.concatenate([np.empty(0, bool),
                                          *(masks[idx].reshape(-1) for idx in layers)]))
    n = live.size
    n_remove = int(round((1.0 - keep_fraction) * n))
    order = np.argsort(scores[live], kind="stable")
    threshold = float(scores[live[order[n_remove]]]) if n_remove < n else float("inf")

    removed = np.sort(live[order[:n_remove]])  # global positions, split back by layer
    offsets = np.cumsum([0, *(salience.scores[idx].size for idx in layers)])
    bounds = np.searchsorted(removed, offsets)
    removal = {idx: removed[bounds[k]:bounds[k + 1]] - offsets[k] for k, idx in enumerate(layers)}
    return threshold, removal


def apply_pruning(model: NetworkModel, salience: SalienceMap,
                  keep_fraction: float) -> tuple[NetworkModel, PruneReport]:
    """Zero and mask the removal set; returns a new model and its report."""
    validate_masks(model)
    salience.validate(model)
    masks = {idx: layer.mask for idx, layer in model.conv_layers()}
    unmasked_before = sum(int(m.sum()) for m in masks.values())
    threshold, removal = select_threshold(salience, keep_fraction, masks)

    pruned = clone_model(model)
    for idx, layer in pruned.conv_layers():
        layer.weights.reshape(-1)[removal[idx]] = 0.0
        layer.mask.reshape(-1)[removal[idx]] = False
    rows = layer_size_report(pruned).layers
    achieved = sum(r.remaining for r in rows) / unmasked_before if unmasked_before else 0.0
    tie_count = sum(int(np.count_nonzero(salience.scores[idx][m] == threshold))
                    for idx, m in masks.items())
    validate_masks(pruned)
    return pruned, PruneReport(heuristic=salience.heuristic, target_keep_fraction=keep_fraction,
                               achieved_keep_fraction=achieved,
                               threshold=threshold if np.isfinite(threshold) else None,
                               tie_count=tie_count, layers=rows)


def layer_size_report(model: NetworkModel) -> PruneReport:
    """Per-layer unmasked-weight fractions of the model as it stands."""
    rows = []
    for conv_counter, (_, layer) in enumerate(model.conv_layers()):
        rows.append(LayerPruneRow(name=f"conv{conv_counter}", total=int(layer.mask.size),
                                  remaining=int(layer.mask.sum())))
    total = sum(r.total for r in rows)
    remaining = sum(r.remaining for r in rows)
    return PruneReport(heuristic=None, target_keep_fraction=None,
                       achieved_keep_fraction=remaining / total if total else 0.0,
                       threshold=None, tie_count=0, layers=rows)
