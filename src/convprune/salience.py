"""Per-edge salience scores for the four pruning heuristics.

Every scalar kernel weight w[j,i,u,v] is one prunable edge; the "node"
feeding it is channel i of the conv layer's input feature map, with
activation statistics pooled over all spatial positions and samples.

  h1: |w|                        (no data)
  h2: |batch mean of dL/dw * w|  (labeled data: triplets through the
                                  descriptor pipeline and hinge loss)
  h3: mean(|activation|) * |w|   (unlabeled data)
  h4: var(activation) * w^2      (unlabeled data)

Scores are nonnegative, shaped like the weights, and zero at positions that
are already masked out.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import RetrievalDataset
from .finetune import triplet_gradients
from .network import NetworkModel, forward_features
from .tensor import ShapeError

HEURISTICS = ("h1", "h2", "h3", "h4")


class _MomentAccumulator:
    """Streaming per-channel moments, folded in one activation tensor at a
    time with the pairwise (Chan et al.) update."""

    def __init__(self, channels: int):
        self.count = 0                       # positions seen (samples x H x W)
        self.mean = np.zeros(channels)       # running mean of the activation
        self.m2 = np.zeros(channels)         # sum of squared deviations
        self.abs_mean = np.zeros(channels)   # running mean of |activation|

    def update(self, activation: np.ndarray) -> None:
        """Fold in one [C,H,W] activation tensor."""
        flat = activation.reshape(activation.shape[0], -1)
        n_b = flat.shape[1]
        mean_b = flat.mean(axis=1)
        m2_b = ((flat - mean_b[:, None]) ** 2).sum(axis=1)
        abs_b = np.abs(flat).mean(axis=1)
        self._merge(n_b, mean_b, m2_b, abs_b)

    def _merge(self, n_b, mean_b, m2_b, abs_b) -> None:
        if n_b == 0:
            return
        n = self.count + n_b
        delta = mean_b - self.mean
        self.m2 = self.m2 + m2_b + delta ** 2 * (self.count * n_b / n)
        self.mean = self.mean + delta * (n_b / n)
        self.abs_mean = self.abs_mean + (abs_b - self.abs_mean) * (n_b / n)
        self.count = n

    @property
    def variance(self) -> np.ndarray:
        """Population variance (divisor n)."""
        if self.count == 0:
            raise ValueError("no samples accumulated")
        return self.m2 / self.count


@dataclass
class LayerStats:
    mean_abs: np.ndarray   # [C_in] mean absolute activation
    variance: np.ndarray   # [C_in] population variance of the activation
    position_count: int


@dataclass
class ActivationStats:
    """Per conv layer, per input channel statistics of the layer's input."""
    layers: dict[int, LayerStats]
    sample_count: int          # images folded in
    fingerprint: str | None = None


def collect_activation_stats(model: NetworkModel, images, fingerprint: str | None = None) -> ActivationStats:
    """Single-pass streaming statistics of every conv layer's input tensor."""
    accumulators: dict[int, _MomentAccumulator] = {}
    n_images = 0
    for image in images:
        n_images += 1
        conv_inputs: list = []
        forward_features(model, image, conv_inputs=conv_inputs)
        for layer_idx, activation in conv_inputs:
            acc = accumulators.get(layer_idx)
            if acc is None:
                acc = accumulators[layer_idx] = _MomentAccumulator(activation.shape[0])
            acc.update(activation)
    if n_images == 0:
        raise ValueError("activation statistics need at least one image")
    layers = {idx: LayerStats(mean_abs=acc.abs_mean.copy(), variance=acc.variance,
                              position_count=acc.count)
              for idx, acc in accumulators.items()}
    return ActivationStats(layers=layers, sample_count=n_images, fingerprint=fingerprint)


@dataclass
class SalienceMap:
    heuristic: str
    scores: dict[int, np.ndarray]   # conv layer index -> array shaped like weights
    fingerprint: dict | None = None  # dataset hash + sample count (data-dependent only)

    def validate(self, model: NetworkModel) -> None:
        for idx, layer in model.conv_layers():
            s = self.scores.get(idx)
            if s is None:
                raise ShapeError(f"salience map missing conv layer {idx}")
            if s.shape != layer.weights.shape:
                raise ShapeError(f"layer {idx}: score shape {s.shape} != weight shape "
                                 f"{layer.weights.shape}")
            if not np.all(np.isfinite(s)) or np.any(s < 0):
                raise ValueError(f"layer {idx}: scores must be finite and nonnegative")
            if np.any(s[~layer.mask] != 0.0):
                raise ValueError(f"layer {idx}: nonzero score at a masked position")


def salience_h1(model: NetworkModel) -> SalienceMap:
    """Weight magnitude."""
    scores = {idx: np.abs(layer.weights) * layer.mask
              for idx, layer in model.conv_layers()}
    return SalienceMap(heuristic="h1", scores=scores)


def _stats_for_layer(stats: ActivationStats, idx: int, layer_weights: np.ndarray) -> LayerStats:
    ls = stats.layers.get(idx)
    if ls is None:
        raise ShapeError(f"activation stats missing conv layer {idx}")
    if ls.mean_abs.shape[0] != layer_weights.shape[1]:
        raise ShapeError(f"layer {idx}: stats cover {ls.mean_abs.shape[0]} channels but "
                         f"weights expect {layer_weights.shape[1]}")
    return ls


def salience_h3(model: NetworkModel, stats: ActivationStats) -> SalienceMap:
    """Mean absolute input activation times weight magnitude."""
    scores = {}
    for idx, layer in model.conv_layers():
        ls = _stats_for_layer(stats, idx, layer.weights)
        scores[idx] = ls.mean_abs[None, :, None, None] * np.abs(layer.weights) * layer.mask
    return SalienceMap(heuristic="h3", scores=scores,
                       fingerprint={"dataset": stats.fingerprint, "samples": stats.sample_count})


def salience_h4(model: NetworkModel, stats: ActivationStats) -> SalienceMap:
    """Input activation variance times squared weight."""
    scores = {}
    for idx, layer in model.conv_layers():
        ls = _stats_for_layer(stats, idx, layer.weights)
        scores[idx] = ls.variance[None, :, None, None] * layer.weights ** 2 * layer.mask
    return SalienceMap(heuristic="h4", scores=scores,
                       fingerprint={"dataset": stats.fingerprint, "samples": stats.sample_count})


def salience_h2(model: NetworkModel, triplets, dataset: RetrievalDataset,
                pooling: str = "sqp", margin: float = 0.1) -> SalienceMap:
    """First-order estimate of each edge's effect on the ranking loss.

    Runs every triplet through the descriptor pipeline and the hinge loss,
    averages the weight gradients over the batch, and scores each edge as
    |mean gradient * weight|.
    """
    triplets = list(triplets)
    if not triplets:
        raise ValueError("h2 needs a nonempty triplet batch")
    grads, _, active = triplet_gradients(model, triplets, dataset, pooling, margin)
    if not active:
        warnings.warn("every triplet in the batch has an inactive hinge; "
                      "h2 salience is legitimately all zero", RuntimeWarning, stacklevel=2)
    scores = {}
    for idx, layer in model.conv_layers():
        mean_grad = grads[idx][0] / len(triplets)
        scores[idx] = np.abs(mean_grad * layer.weights) * layer.mask
    return SalienceMap(heuristic="h2", scores=scores,
                       fingerprint={"dataset": dataset.fingerprint, "samples": len(triplets)})
