"""Global descriptor pooling: square-root pooling (SQP) and R-MAC.

Both poolings reduce a [C,H,W] feature-map stack to one value per channel.
SQP takes the per-channel root mean square; R-MAC max-pools over a
multi-scale grid of square regions and averages the region maxima. Both
record backward rules on a gradient tape so descriptors are trainable
end to end.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .tensor import GradientTape, ShapeError, TapeEntry, _require_f64, register_backward

# Guards the unbounded sqrt derivative at an all-zero feature map; small
# enough not to perturb gradient checks at 1e-6 relative tolerance.
SQP_GRAD_EPS = 1e-12

POOLING_KINDS = ("sqp", "rmac")


@dataclass
class Descriptor:
    """Pooled global descriptor: one value per source feature map."""
    values: np.ndarray          # [C] float64
    kind: str                   # "sqp" | "rmac"
    spatial: tuple[int, int]    # (W, H) of the source feature maps

    def __post_init__(self):
        if self.kind not in POOLING_KINDS:
            raise ValueError(f"unknown pooling kind {self.kind!r}")


@dataclass
class RoiGrid:
    """Rectangular regions (x0, y0, width, height) in feature-map coordinates."""
    regions: list[tuple[int, int, int, int]]
    levels: int
    width: int
    height: int

    def __post_init__(self):
        if len(self.regions) < 1:
            raise ValueError("a region grid needs at least one region")
        for r in self.regions:
            x0, y0, w, h = r
            if w < 1 or h < 1:
                raise ValueError(f"empty region {r}")
            if x0 < 0 or y0 < 0 or x0 + w > self.width or y0 + h > self.height:
                raise ValueError(f"region {r} outside {self.width}x{self.height} map")


def _axis_positions(extent: int, side: int) -> list[int]:
    # Uniform placement with the smallest count whose step keeps consecutive
    # regions overlapping by at least 40% of the side length.
    span = extent - side
    if span <= 0:
        return [0]
    count = 2
    while span / (count - 1) > 0.6 * side:
        count += 1
    step = span / (count - 1)
    return [int(math.floor(i * step + 0.5)) for i in range(count)]


def rmac_grid(width: int, height: int, levels: int = 3) -> RoiGrid:
    """Multi-scale grid of overlapping squares.

    At level l (1-based) the square side is floor(2*min(W,H)/(l+1)), clamped
    to 1. Squares are placed uniformly along each axis (first flush with the
    near edge, last flush with the far edge, positions rounded to pixels) so
    that consecutive squares overlap >= 40% of the side; duplicates arising
    from clamping are removed, keeping first-occurrence order.
    """
    if width < 1 or height < 1:
        raise ShapeError(f"grid needs positive spatial dims, got {width}x{height}")
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    regions: list[tuple[int, int, int, int]] = []
    seen = set()
    for level in range(1, levels + 1):
        side = max(1, int(2 * min(width, height) / (level + 1)))
        for y0 in _axis_positions(height, side):
            for x0 in _axis_positions(width, side):
                r = (x0, y0, side, side)
                if r not in seen:
                    seen.add(r)
                    regions.append(r)
    return RoiGrid(regions=regions, levels=levels, width=width, height=height)


def sqp_pool(features: np.ndarray, tape: GradientTape | None = None) -> Descriptor:
    """Per-channel root mean square over all spatial positions."""
    _require_f64("features", features)
    if features.ndim != 3:
        raise ShapeError(f"features must be rank 3 [C,H,W], got shape {features.shape}")
    c, h, w = features.shape
    if h * w < 1:
        raise ShapeError("features have empty spatial extent")
    values = np.sqrt(np.mean(features.reshape(c, -1) ** 2, axis=1))
    if tape is not None:
        tape.record("sqp_pool", (features,), values, {})
    return Descriptor(values=values, kind="sqp", spatial=(w, h))


def _sqp_backward(entry: TapeEntry, upstream: np.ndarray):
    (features,) = entry.inputs
    values = entry.output
    _, h, w = features.shape
    denom = h * w * values + SQP_GRAD_EPS
    return (features * (upstream / denom)[:, None, None],)


@functools.lru_cache(maxsize=64)
def _region_positions(regions: tuple, height: int, width: int) -> np.ndarray:
    """[R, P] flat row-major positions of each region's cells in a height x
    width map, one row per region in grid order. Rows shorter than the
    largest region are padded with the region's first position, which
    changes neither its max nor where the first max in scan order sits."""
    for r in regions:
        x0, y0, rw, rh = r
        if x0 < 0 or y0 < 0 or x0 + rw > width or y0 + rh > height:
            raise ShapeError(f"region {r} out of bounds for {width}x{height} feature maps")
    size = max(rw * rh for _, _, rw, rh in regions)
    positions = np.empty((len(regions), size), dtype=np.intp)
    for i, (x0, y0, rw, rh) in enumerate(regions):
        cells = (np.arange(y0, y0 + rh)[:, None] * width + np.arange(x0, x0 + rw)).ravel()
        positions[i, :cells.size] = cells
        positions[i, cells.size:] = cells[0]
    positions.flags.writeable = False
    return positions


def rmac_pool(features: np.ndarray, grid: RoiGrid, tape: GradientTape | None = None) -> Descriptor:
    """Max over each grid region, averaged over regions, per channel."""
    _require_f64("features", features)
    if features.ndim != 3:
        raise ShapeError(f"features must be rank 3 [C,H,W], got shape {features.shape}")
    c, h, w = features.shape
    positions = _region_positions(tuple(tuple(r) for r in grid.regions), h, w)
    n_regions = positions.shape[0]
    flat = features.reshape(c, h * w)
    # [C, R]: flat position of each region's first max in row-major region scan
    argmax = positions[np.arange(n_regions), flat[:, positions].argmax(axis=2)]
    maxima = np.take_along_axis(flat, argmax, axis=1)
    # A running total in region order, so the values do not depend on how
    # numpy would block a reduction over the region axis.
    total = np.zeros(c)
    for i in range(n_regions):
        total += maxima[:, i]
    values = total / n_regions
    if tape is not None:
        tape.record("rmac_pool", (features,), values, {"argmax": argmax, "n_regions": n_regions})
    return Descriptor(values=values, kind="rmac", spatial=(w, h))


def _rmac_backward(entry: TapeEntry, upstream: np.ndarray):
    (features,) = entry.inputs
    argmax, n_regions = entry.ctx["argmax"], entry.ctx["n_regions"]
    c, h, w = features.shape
    cells = h * w
    share = upstream / n_regions
    # bincount adds its weights in input order; region-major input routes each
    # region's share onto the running gradient in region order.
    targets = (argmax + (np.arange(c) * cells)[:, None]).T.ravel()
    dx = np.bincount(targets, weights=np.tile(share, n_regions), minlength=c * cells)
    return (dx.reshape(features.shape),)


register_backward("sqp_pool", _sqp_backward)
register_backward("rmac_pool", _rmac_backward)


@functools.lru_cache(maxsize=64)
def _cached_grid(width: int, height: int) -> RoiGrid:
    return rmac_grid(width, height)


def pool_features(features: np.ndarray, kind: str,
                  tape: GradientTape | None = None) -> Descriptor:
    """Dispatch to sqp_pool / rmac_pool (three-level grid) by kind name."""
    if kind == "sqp":
        return sqp_pool(features, tape=tape)
    if kind == "rmac":
        grid = _cached_grid(features.shape[2], features.shape[1])
        return rmac_pool(features, grid, tape=tape)
    raise ValueError(f"unknown pooling kind {kind!r}")

