"""Global-threshold pruning over all conv-layer salience scores.

Selection is exact-count: to keep a fraction t of the currently-unmasked
weights, the round((1-t)*N) lowest-salience edges are removed, so reported
"fraction remaining" matches the sweep axis exactly. Ties at the threshold
break deterministically by (layer index, flat weight index) ascending, lower
index removed first. Biases are never pruned.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .network import NetworkModel, clone_model, validate_masks
from .salience import SalienceMap
from .tensor import ShapeError


@dataclass
class LayerPruneRow:
    name: str
    layer_index: int
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
        Path(path).write_text(json.dumps(self.to_dict(), indent=2))

    def write_csv(self, path: str | Path) -> None:
        write_prune_csv(path, self.to_dict()["layers"])


def write_prune_csv(path: str | Path, layers: list[dict]) -> None:
    """CSV of `PruneReport.to_dict()["layers"]` rows plus an `all` totals row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["layer", "total", "remaining", "fraction"])
        for r in layers:
            writer.writerow([r["layer"], r["total"], r["remaining"], f"{r['fraction']:.12g}"])
        total = sum(r["total"] for r in layers)
        remaining = sum(r["remaining"] for r in layers)
        writer.writerow(["all", total, remaining, f"{remaining / total:.12g}" if total else "0"])


def select_threshold(salience: SalienceMap, keep_fraction: float,
                     masks: dict[int, np.ndarray]) -> tuple[float, dict[int, np.ndarray]]:
    """Pick the global threshold and the removal set.

    `masks` gives the currently-unmasked positions per conv layer; only those
    participate. Returns (threshold, {layer index -> flat indices to remove});
    the threshold is the smallest retained score (inf if nothing is retained).
    """
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError(f"keep fraction must be in (0, 1], got {keep_fraction}")
    layer_ids = []
    flat_ids = []
    scores = []
    for idx in sorted(salience.scores):
        s = salience.scores[idx]
        m = masks.get(idx)
        if m is None:
            raise ShapeError(f"no mask provided for conv layer {idx}")
        if m.shape != s.shape:
            raise ShapeError(f"layer {idx}: mask shape {m.shape} != score shape {s.shape}")
        live = np.flatnonzero(m.reshape(-1))
        flat_ids.append(live)
        layer_ids.append(np.full(live.size, idx, dtype=np.intp))
        scores.append(s.reshape(-1)[live])
    layer_ids = np.concatenate(layer_ids) if layer_ids else np.empty(0, dtype=np.intp)
    flat_ids = np.concatenate(flat_ids) if flat_ids else np.empty(0, dtype=np.intp)
    scores = np.concatenate(scores) if scores else np.empty(0)

    n = scores.size
    n_remove = int(round((1.0 - keep_fraction) * n))
    # lexsort: primary key last -> (score, layer index, flat index) ascending
    order = np.lexsort((flat_ids, layer_ids, scores))
    removed = order[:n_remove]
    threshold = float(scores[order[n_remove]]) if n_remove < n else float("inf")

    removal: dict[int, np.ndarray] = {}
    for idx in sorted(salience.scores):
        sel = removed[layer_ids[removed] == idx]
        removal[idx] = np.sort(flat_ids[sel])
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
    tie_count = 0
    for idx, layer in pruned.conv_layers():
        to_remove = removal[idx]
        flat_w = layer.weights.reshape(-1)
        flat_m = layer.mask.reshape(-1)
        flat_w[to_remove] = 0.0
        flat_m[to_remove] = False
        if np.isfinite(threshold):
            live_scores = salience.scores[idx].reshape(-1)[masks[idx].reshape(-1)]
            tie_count += int(np.count_nonzero(live_scores == threshold))
    rows = layer_size_report(pruned).layers
    unmasked_after = sum(r.remaining for r in rows)
    achieved = unmasked_after / unmasked_before if unmasked_before else 0.0
    report = PruneReport(heuristic=salience.heuristic, target_keep_fraction=keep_fraction,
                         achieved_keep_fraction=achieved,
                         threshold=threshold if np.isfinite(threshold) else None,
                         tie_count=tie_count, layers=rows)
    validate_masks(pruned)
    return pruned, report


def layer_size_report(model: NetworkModel) -> PruneReport:
    """Per-layer unmasked-weight fractions of the model as it stands."""
    rows = []
    for conv_counter, (idx, layer) in enumerate(model.conv_layers()):
        rows.append(LayerPruneRow(name=f"conv{conv_counter}", layer_index=idx,
                                  total=int(layer.mask.size),
                                  remaining=int(layer.mask.sum())))
    total = sum(r.total for r in rows)
    remaining = sum(r.remaining for r in rows)
    return PruneReport(heuristic=None, target_keep_fraction=None,
                       achieved_keep_fraction=remaining / total if total else 0.0,
                       threshold=None, tie_count=0, layers=rows)
