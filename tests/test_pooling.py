"""Pooling against direct formula oracles, plus grid and gradient checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convprune.pooling import RoiGrid, pool_features, rmac_grid, rmac_pool, sqp_pool
from convprune.retrieval import DescriptorIndex, IndexEntry
from convprune.tensor import GradientTape, ShapeError

from util import fd_gradient, reference_rmac, rel_error


def naive_sqp(x):
    """Direct per-channel root-mean-square, python loops."""
    c, h, w = x.shape
    out = []
    for ci in range(c):
        total = 0.0
        for i in range(h):
            for j in range(w):
                total += x[ci, i, j] ** 2
        out.append(math.sqrt(total / (w * h)))
    return np.array(out)


def naive_rmac(x, regions):
    """Direct per-region max then average, python loops."""
    c = x.shape[0]
    out = []
    for ci in range(c):
        total = 0.0
        for (x0, y0, rw, rh) in regions:
            best = -math.inf
            for i in range(y0, y0 + rh):
                for j in range(x0, x0 + rw):
                    best = max(best, x[ci, i, j])
            total += best
        out.append(total / len(regions))
    return np.array(out)


def reference_grid(width, height, levels):
    """Independent enumeration of the pinned grid rule."""
    out = []
    for level in range(1, levels + 1):
        side = max(1, math.floor(2 * min(width, height) / (level + 1)))

        def positions(extent):
            span = extent - side
            if span <= 0:
                return [0]
            n = 2
            while span / (n - 1) > 0.6 * side:
                n += 1
            return [math.floor(i * (span / (n - 1)) + 0.5) for i in range(n)]

        for y0 in positions(height):
            for x0 in positions(width):
                region = (x0, y0, side, side)
                if region not in out:
                    out.append(region)
    return out


# ---------------------------------------------------------------------------
# SQP
# ---------------------------------------------------------------------------

def test_sqp_constant_map():
    for a in (2.0, -2.0, 0.0):
        d = sqp_pool(np.full((3, 4, 4), a))
        assert np.allclose(d.values, abs(a), atol=1e-15)
    assert d.kind == "sqp"
    assert d.spatial == (4, 4)


def test_sqp_direct_value():
    d = sqp_pool(np.array([[[3.0, 4.0], [0.0, 0.0]]]))
    assert d.values[0] == pytest.approx(2.5, abs=1e-15)


def test_sqp_even_in_sign():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 3, 5))
    assert np.array_equal(sqp_pool(x).values, sqp_pool(-x).values)


def test_sqp_matches_oracle():
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = rng.standard_normal((3, 4, 6))
        d = sqp_pool(x)
        assert rel_error(d.values, naive_sqp(x)) < 1e-12
        assert np.all(d.values >= 0.0)


def test_sqp_rejects_empty_spatial():
    with pytest.raises(ShapeError):
        sqp_pool(np.zeros((2, 4)))


@settings(max_examples=50)
@given(st.integers(0, 2 ** 31 - 1), st.floats(-3, 3).filter(lambda a: abs(a) > 1e-6))
def test_sqp_scale_equivariance(seed, alpha):
    x = np.random.default_rng(seed).standard_normal((2, 4, 4))
    scaled = sqp_pool(alpha * x).values
    assert rel_error(scaled, abs(alpha) * sqp_pool(x).values) < 1e-12


def test_sqp_backward_zero_map_guarded():
    x = np.zeros((2, 4, 4))
    tape = GradientTape()
    d = sqp_pool(x, tape=tape)
    tape.backward(d.values, upstream=np.ones(2))
    g = tape.gradient(x)
    assert np.all(g == 0.0)
    assert np.all(np.isfinite(g))


def test_sqp_backward_finite_differences():
    rng = np.random.default_rng(2)
    x = rng.uniform(0.2, 2.0, size=(3, 4, 4))
    tape = GradientTape()
    d = sqp_pool(x, tape=tape)
    proj = rng.standard_normal(3)
    tape.backward(d.values, upstream=proj)
    fd = fd_gradient(lambda: float(sqp_pool(x).values @ proj), x)
    assert rel_error(tape.gradient(x), fd) < 1e-6


# ---------------------------------------------------------------------------
# Grid
# ---------------------------------------------------------------------------

def test_grid_level1_square_map_single_region():
    grid = rmac_grid(6, 6, levels=1)
    assert grid.regions == [(0, 0, 6, 6)]


def test_grid_8x8_l3_matches_reference_enumeration():
    grid = rmac_grid(8, 8, levels=3)
    assert grid.regions == reference_grid(8, 8, 3)
    assert len(grid.regions) == 14  # 1 + 4 + 9 overlapping squares


def test_grid_nonsquare_matches_reference():
    for w, h, l in [(10, 6, 1), (6, 10, 2), (7, 5, 3), (16, 4, 3)]:
        assert rmac_grid(w, h, l).regions == reference_grid(w, h, l)


@settings(max_examples=200)
@given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 5))
def test_grid_regions_always_in_bounds(width, height, levels):
    grid = rmac_grid(width, height, levels)
    assert len(grid.regions) >= 1
    for (x0, y0, w, h) in grid.regions:
        assert w >= 1 and h >= 1
        assert 0 <= x0 and 0 <= y0
        assert x0 + w <= width and y0 + h <= height
    assert len(set(grid.regions)) == len(grid.regions)  # deduplicated


def test_grid_validates_bounds():
    with pytest.raises(ValueError, match="outside"):
        RoiGrid(regions=[(0, 0, 5, 5)], levels=1, width=4, height=4)
    with pytest.raises(ValueError, match="empty"):
        RoiGrid(regions=[(0, 0, 0, 2)], levels=1, width=4, height=4)


# ---------------------------------------------------------------------------
# R-MAC
# ---------------------------------------------------------------------------

def test_rmac_constant_map():
    grid = rmac_grid(4, 4, 2)
    d = rmac_pool(np.full((3, 4, 4), 1.7), grid)
    assert np.allclose(d.values, 1.7, atol=1e-15)
    assert d.kind == "rmac"


def test_rmac_single_region_is_global_max():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 5, 5))
    grid = RoiGrid(regions=[(0, 0, 5, 5)], levels=1, width=5, height=5)
    assert np.array_equal(rmac_pool(x, grid).values, x.reshape(4, -1).max(axis=1))


def test_rmac_matches_region_scan_oracle():
    rng = np.random.default_rng(4)
    grid = RoiGrid(regions=[(0, 0, 2, 3), (1, 1, 3, 2)], levels=1, width=4, height=4)
    for _ in range(20):
        x = rng.standard_normal((1, 4, 4))
        assert rel_error(rmac_pool(x, grid).values, naive_rmac(x, grid.regions)) < 1e-12


def test_rmac_rejects_out_of_bounds_region():
    grid = RoiGrid(regions=[(0, 0, 4, 4)], levels=1, width=4, height=4)
    with pytest.raises(ShapeError, match="out of bounds"):
        rmac_pool(np.zeros((1, 3, 3)), grid)


@settings(max_examples=50)
@given(st.integers(0, 2 ** 31 - 1))
def test_rmac_monotone_in_inputs(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, 6, 6))
    y = x + rng.uniform(0.0, 1.0, size=x.shape)  # elementwise x <= y
    grid = rmac_grid(6, 6, 2)
    assert np.all(rmac_pool(x, grid).values <= rmac_pool(y, grid).values + 1e-15)


def test_rmac_gradient_routing_counts():
    # per channel, the gradient mass sums to (number of regions whose argmax
    # received a share) / N_ROI = 1 when upstream is 1 per channel
    rng = np.random.default_rng(5)
    x = rng.standard_normal((3, 6, 6))
    grid = rmac_grid(6, 6, 2)
    tape = GradientTape()
    d = rmac_pool(x, grid, tape=tape)
    tape.backward(d.values, upstream=np.ones(3))
    g = tape.gradient(x)
    assert np.allclose(g.sum(axis=(1, 2)), 1.0, atol=1e-12)
    n = len(grid.regions)
    # every nonzero entry is a multiple of 1/N_ROI
    nz = g[g != 0]
    assert np.allclose(np.round(nz * n), nz * n, atol=1e-9)


@pytest.mark.parametrize("width,height", [(4, 4), (8, 8), (7, 5), (3, 9), (16, 4), (1, 6)])
@pytest.mark.parametrize("levels", [1, 2, 3])
def test_rmac_bitwise_equals_region_scan(width, height, levels):
    # Values and taped routing exactly equal the per-region loop, on random
    # maps and on maps full of ties (where the first max in scan order matters).
    rng = np.random.default_rng(width * 100 + height * 10 + levels)
    grid = rmac_grid(width, height, levels)
    for x in (rng.standard_normal((5, height, width)),
              rng.integers(0, 3, size=(5, height, width)).astype(np.float64),
              np.zeros((2, height, width))):
        upstream = rng.standard_normal(x.shape[0])
        ref_values, ref_grad = reference_rmac(x, grid.regions, upstream)
        tape = GradientTape()
        d = rmac_pool(x, grid, tape=tape)
        tape.backward(d.values, upstream=upstream)
        assert np.array_equal(d.values, ref_values)
        assert np.array_equal(tape.gradient(x), ref_grad)


def test_pool_features_reuses_grid_per_shape():
    rng = np.random.default_rng(9)
    for shape in [(3, 4, 4), (3, 6, 5), (3, 4, 4)]:
        x = rng.standard_normal(shape)
        grid = rmac_grid(shape[2], shape[1], 2)
        assert np.array_equal(pool_features(x, "rmac", levels=2).values,
                              rmac_pool(x, grid).values)


def test_rmac_backward_finite_differences():
    rng = np.random.default_rng(6)
    from util import pool_safe
    x = pool_safe(rng, (2, 4, 4), gap=1e-2)  # no near-ties inside windows
    grid = rmac_grid(4, 4, 2)
    tape = GradientTape()
    d = rmac_pool(x, grid, tape=tape)
    proj = rng.standard_normal(2)
    tape.backward(d.values, upstream=proj)
    fd = fd_gradient(lambda: float(rmac_pool(x, grid).values @ proj), x)
    assert rel_error(tape.gradient(x), fd) < 1e-6


# ---------------------------------------------------------------------------
# Per-channel locality, dispatch, serialization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["sqp", "rmac"])
def test_per_channel_locality(kind):
    rng = np.random.default_rng(7)
    x = rng.uniform(0.5, 1.5, size=(4, 4, 4))
    base = pool_features(x, kind).values
    bumped = x.copy()
    bumped[2] += 5.0  # perturb exactly one channel
    new = pool_features(bumped, kind).values
    changed = np.flatnonzero(new != base)
    assert list(changed) == [2]


def test_pool_features_rejects_unknown_kind():
    with pytest.raises(ValueError, match="pooling kind"):
        pool_features(np.zeros((1, 2, 2)), "gem")


def test_descriptor_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    d = sqp_pool(rng.uniform(0, 1, size=(8, 4, 4)))
    DescriptorIndex(entries=[IndexEntry("item42", d, 0)]).save(tmp_path)
    (entry,) = DescriptorIndex.load(tmp_path).entries
    loaded = entry.descriptor
    assert entry.item_id == "item42"
    assert loaded.kind == "sqp"
    assert loaded.spatial == (4, 4)
    assert np.array_equal(loaded.values, d.values.astype(np.float32).astype(np.float64))
