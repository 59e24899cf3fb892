"""Tensor ops against naive oracles and finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convprune.tensor import (GradientTape, ShapeError, conv2d_backward, conv2d_forward,
                              maxpool2_backward, maxpool2_forward, relu_backward,
                              relu_forward)

from util import fd_gradient, nudge_from_zero, pool_safe, rel_error


def tensor(data) -> np.ndarray:
    return np.asarray(data, dtype=np.float64)


def naive_conv2d(x, w, b, stride, padding):
    """Six-nested-loop cross-correlation oracle."""
    c_out, c_in, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    h_out = (x.shape[1] + 2 * padding - kh) // stride + 1
    w_out = (x.shape[2] + 2 * padding - kw) // stride + 1
    out = np.zeros((c_out, h_out, w_out))
    for co in range(c_out):
        for oy in range(h_out):
            for ox in range(w_out):
                acc = b[co]
                for ci in range(c_in):
                    for u in range(kh):
                        for v in range(kw):
                            acc += xp[ci, oy * stride + u, ox * stride + v] * w[co, ci, u, v]
                out[co, oy, ox] = acc
    return out


def naive_conv2d_grads(x, w, g, stride, padding):
    """Nested-loop (input, weight, bias) gradients of naive_conv2d for upstream g."""
    c_out, c_in, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    for co in range(c_out):
        for oy in range(g.shape[1]):
            for ox in range(g.shape[2]):
                for ci in range(c_in):
                    for u in range(kh):
                        for v in range(kw):
                            gxp[ci, oy * stride + u, ox * stride + v] += g[co, oy, ox] * w[co, ci, u, v]
                            gw[co, ci, u, v] += g[co, oy, ox] * xp[ci, oy * stride + u, ox * stride + v]
    _, h, wd = x.shape
    return gxp[:, padding:padding + h, padding:padding + wd], gw, g.sum(axis=(1, 2))


def naive_maxpool2_backward(x, g):
    """Loop oracle: each window's gradient goes to its first maximum in
    row-major window order."""
    dx = np.zeros_like(x)
    for ci in range(x.shape[0]):
        for oy in range(x.shape[1] // 2):
            for ox in range(x.shape[2] // 2):
                positions = [(2 * oy + r, 2 * ox + c) for r in (0, 1) for c in (0, 1)]
                best = max(x[ci, p, q] for p, q in positions)
                p, q = next(pq for pq in positions if x[ci, pq[0], pq[1]] == best)
                dx[ci, p, q] = g[ci, oy, ox]
    return dx


def naive_maxpool2(x):
    c, h, w = x.shape
    out = np.zeros((c, h // 2, w // 2))
    for ci in range(c):
        for oy in range(h // 2):
            for ox in range(w // 2):
                out[ci, oy, ox] = max(x[ci, 2 * oy + dy, 2 * ox + dx]
                                      for dy in (0, 1) for dx in (0, 1))
    return out


# ---------------------------------------------------------------------------
# conv2d forward
# ---------------------------------------------------------------------------

def test_conv_scalar_multiply():
    out = conv2d_forward(tensor([[[5.0]]]), tensor([[[[2.0]]]]), tensor([0.0]))
    assert out.shape == (1, 1, 1)
    assert out[0, 0, 0] == 10.0


def test_conv_all_ones_kernel():
    x = np.ones((1, 3, 3))
    w = np.ones((1, 1, 2, 2))
    out = conv2d_forward(x, w, tensor([0.0]))
    assert out.shape == (1, 2, 2)
    assert np.all(out == 4.0)


@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
def test_conv_matches_loop_oracle(stride, padding):
    rng = np.random.default_rng(7)
    x = rng.standard_normal((2, 5, 5))
    w = rng.standard_normal((3, 2, 3, 3))
    b = rng.standard_normal(3)
    out = conv2d_forward(x, w, b, stride, padding)
    assert np.abs(out - naive_conv2d(x, w, b, stride, padding)).max() < 1e-12


def test_conv_output_dims():
    x = np.zeros((1, 7, 9))
    w = np.zeros((2, 1, 3, 3))
    out = conv2d_forward(x, w, np.zeros(2), stride=2, padding=1)
    assert out.shape == (2, (7 + 2 - 3) // 2 + 1, (9 + 2 - 3) // 2 + 1)


def test_conv_shape_errors():
    with pytest.raises(ShapeError, match="channels"):
        conv2d_forward(np.zeros((2, 4, 4)), np.zeros((1, 3, 3, 3)), np.zeros(1))
    with pytest.raises(ShapeError, match="bias"):
        conv2d_forward(np.zeros((3, 4, 4)), np.zeros((1, 3, 3, 3)), np.zeros(2))
    with pytest.raises(ShapeError, match="smaller than"):
        conv2d_forward(np.zeros((1, 2, 2)), np.zeros((1, 1, 3, 3)), np.zeros(1))
    with pytest.raises(ShapeError, match="stride"):
        conv2d_forward(np.zeros((1, 4, 4)), np.zeros((1, 1, 3, 3)), np.zeros(1), stride=0)
    with pytest.raises(ShapeError, match="padding must be >= 0, got -1"):
        conv2d_forward(np.zeros((1, 4, 4)), np.zeros((1, 1, 3, 3)), np.zeros(1), padding=-1)
    with pytest.raises(ShapeError, match="weights must be rank 4"):
        conv2d_forward(np.zeros((1, 4, 4)), np.zeros((1, 3, 3)), np.zeros(1))
    with pytest.raises(TypeError, match="input must be a float64 ndarray, got ndarray of dtype "
                                        "float32"):
        conv2d_forward(np.zeros((1, 4, 4), np.float32), np.zeros((1, 1, 3, 3)), np.zeros(1))


def test_conv_forward_deterministic():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 6, 6))
    w = rng.standard_normal((4, 2, 3, 3))
    b = rng.standard_normal(4)
    a = conv2d_forward(x, w, b, 1, 1)
    for _ in range(3):
        assert np.array_equal(a, conv2d_forward(x, w, b, 1, 1))


# ---------------------------------------------------------------------------
# conv2d backward
# ---------------------------------------------------------------------------

def test_conv_backward_zero_upstream():
    tape = GradientTape()
    out = conv2d_forward(np.ones((1, 3, 3)), np.ones((1, 1, 2, 2)), np.zeros(1), tape=tape)
    gx, gw, gb = conv2d_backward(tape.entries[-1], np.zeros_like(out))
    assert not gx.any() and not gw.any() and not gb.any()


def test_conv_backward_scalar_product_rule():
    x = tensor([[[5.0]]])
    w = tensor([[[[2.0]]]])
    tape = GradientTape()
    out = conv2d_forward(x, w, np.zeros(1), tape=tape)
    tape.backward(out)  # loss = the single output value
    assert tape.gradient(w)[0, 0, 0, 0] == 5.0
    assert tape.gradient(x)[0, 0, 0] == 2.0


@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
def test_conv_backward_finite_differences(stride, padding):
    rng = np.random.default_rng(11)
    x = rng.standard_normal((2, 6, 6))
    w = rng.standard_normal((3, 2, 3, 3))
    b = rng.standard_normal(3)
    tape = GradientTape()
    out = conv2d_forward(x, w, b, stride, padding, tape=tape)
    tape.backward(out)  # loss = sum of outputs
    loss = lambda: conv2d_forward(x, w, b, stride, padding).sum()
    assert rel_error(tape.gradient(w), fd_gradient(loss, w)) < 1e-6
    assert rel_error(tape.gradient(x), fd_gradient(loss, x)) < 1e-6
    assert rel_error(tape.gradient(b), fd_gradient(loss, b)) < 1e-6


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", [0, 1, 2])
def test_conv_forward_and_gradients_match_loop_oracle(stride, padding):
    rng = np.random.default_rng(100 * stride + padding)
    for _ in range(4):
        c_in, c_out, kh, kw = (int(v) for v in rng.integers(1, 4, size=4))
        h = int(rng.integers(max(1, kh - 2 * padding), 8))
        w = int(rng.integers(max(1, kw - 2 * padding), 8))
        x = rng.standard_normal((c_in, h, w))
        wt = rng.standard_normal((c_out, c_in, kh, kw))
        b = rng.standard_normal(c_out)
        tape = GradientTape()
        out = conv2d_forward(x, wt, b, stride, padding, tape=tape)
        assert rel_error(out, naive_conv2d(x, wt, b, stride, padding)) <= 1e-12
        g = rng.standard_normal(out.shape)
        gx, gw, gb = conv2d_backward(tape.entries[-1], g)
        for got, want in zip((gx, gw, gb), naive_conv2d_grads(x, wt, g, stride, padding)):
            assert got.shape == want.shape
            assert rel_error(got, want) <= 1e-12


@pytest.mark.parametrize("x_shape,w_shape,padding", [
    ((2, 8, 7), (3, 2, 3, 2), 0),   # last input row and column feed no output
    ((2, 6, 6), (3, 2, 3, 3), 1),
    ((2, 5, 5), (2, 2, 1, 1), 2),   # padding wider than the kernel
])
def test_conv_input_grad_finite_differences_stride2(x_shape, w_shape, padding):
    rng = np.random.default_rng(19)
    x = rng.standard_normal(x_shape)
    w = rng.standard_normal(w_shape)
    b = rng.standard_normal(w_shape[0])
    tape = GradientTape()
    out = conv2d_forward(x, w, b, 2, padding, tape=tape)
    proj = rng.standard_normal(out.shape)
    tape.backward(out, upstream=proj)
    fd = fd_gradient(lambda: float((conv2d_forward(x, w, b, 2, padding) * proj).sum()), x)
    assert rel_error(tape.gradient(x), fd) < 1e-6


def test_conv_constant_input_skips_input_grad():
    rng = np.random.default_rng(31)
    x = rng.standard_normal((2, 5, 5))
    w = rng.standard_normal((3, 2, 3, 3))
    b = rng.standard_normal(3)
    grads = []
    for constants in ((), (x,)):
        tape = GradientTape(constants=constants)
        out = conv2d_forward(x, w, b, 1, 1, tape=tape)
        tape.backward(out)
        grads.append((tape.gradient(x), tape.gradient(w), tape.gradient(b)))
    (gx, gw, gb), (cx, cw, cb) = grads
    assert gx is not None and cx is None
    assert np.array_equal(gw, cw) and np.array_equal(gb, cb)


def test_conv_backward_needs_entry():
    with pytest.raises(ValueError):
        conv2d_backward(None, np.zeros((1, 1, 1)))


def test_relu_and_maxpool_backward_need_their_own_entry():
    tape = GradientTape()
    pooled = maxpool2_forward(relu_forward(np.ones((1, 2, 2)), tape=tape), tape=tape)
    relu_entry, pool_entry = tape.entries
    with pytest.raises(ValueError, match="needs a relu tape entry"):
        relu_backward(pool_entry, np.ones_like(pooled))
    with pytest.raises(ValueError, match="needs a maxpool2 tape entry"):
        maxpool2_backward(relu_entry, np.ones((1, 2, 2)))


# ---------------------------------------------------------------------------
# ReLU
# ---------------------------------------------------------------------------

def test_relu_values():
    out = relu_forward(tensor([-1.0, 0.0, 2.0]))
    assert np.array_equal(out, [0.0, 0.0, 2.0])


def test_relu_backward_subgradient_zero_at_kink():
    tape = GradientTape()
    x = tensor([-1.0, 0.0, 2.0])
    relu_forward(x, tape=tape)
    (gx,) = relu_backward(tape.entries[-1], np.ones(3))
    assert np.array_equal(gx, [0.0, 0.0, 1.0])


def test_relu_finite_differences_away_from_kink():
    rng = np.random.default_rng(5)
    x = nudge_from_zero(rng.standard_normal(40))
    tape = GradientTape()
    out = relu_forward(x, tape=tape)
    proj = rng.standard_normal(40)
    tape.backward(out, upstream=proj)
    fd = fd_gradient(lambda: float(relu_forward(x) @ proj), x)
    assert rel_error(tape.gradient(x), fd) < 1e-6


@given(st.lists(st.floats(-10, 10), min_size=1, max_size=30))
def test_relu_idempotent_and_nonnegative(values):
    x = tensor(values)
    out = relu_forward(x)
    assert np.all(out >= 0)
    assert np.array_equal(relu_forward(out), out)


# ---------------------------------------------------------------------------
# maxpool2
# ---------------------------------------------------------------------------

def test_maxpool_single_window():
    out = maxpool2_forward(tensor([[[1.0, 2.0], [3.0, 4.0]]]))
    assert out.shape == (1, 1, 1)
    assert out[0, 0, 0] == 4.0


def test_maxpool_constant_map_ties():
    x = np.full((2, 4, 4), 3.5)
    out = maxpool2_forward(x)
    assert out.shape == (2, 2, 2)
    assert np.all(out == 3.5)
    # tie broken to the first window position: all gradient lands there
    tape = GradientTape()
    maxpool2_forward(x, tape=tape)
    (gx,) = maxpool2_backward(tape.entries[-1], np.ones((2, 2, 2)))
    assert np.array_equal(gx[:, ::2, ::2], np.ones((2, 2, 2)))
    assert gx.sum() == 8.0


@pytest.mark.parametrize("x", [
    relu_forward(-np.abs(np.random.default_rng(37).standard_normal((2, 4, 6)))),  # all zero
    np.full((2, 4, 6), 0.7),
], ids=["post-relu-zeros", "equal-positive"])
def test_maxpool_tied_windows_route_to_first_position(x):
    tape = GradientTape()
    maxpool2_forward(x, tape=tape)
    g = np.random.default_rng(41).standard_normal((2, 2, 3))
    (gx,) = maxpool2_backward(tape.entries[-1], g)
    expected = np.zeros_like(x)
    expected[:, ::2, ::2] = g
    assert np.array_equal(gx, expected)


@settings(max_examples=30)
@given(st.integers(0, 2 ** 31 - 1))
def test_maxpool_backward_matches_first_max_oracle(seed):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 3, size=(2, 4, 6)).astype(np.float64)  # many ties
    tape = GradientTape()
    maxpool2_forward(x, tape=tape)
    g = rng.standard_normal((2, 2, 3))
    (gx,) = maxpool2_backward(tape.entries[-1], g)
    assert np.array_equal(gx, naive_maxpool2_backward(x, g))


def test_maxpool_matches_window_oracle():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((1, 4, 4))
    assert np.array_equal(maxpool2_forward(x), naive_maxpool2(x))


def test_maxpool_rejects_odd_dims():
    with pytest.raises(ShapeError, match="even"):
        maxpool2_forward(np.zeros((1, 3, 4)))


def test_maxpool_finite_differences():
    rng = np.random.default_rng(17)
    x = pool_safe(rng, (2, 4, 4))
    tape = GradientTape()
    out = maxpool2_forward(x, tape=tape)
    proj = rng.standard_normal(out.shape)
    tape.backward(out, upstream=proj)
    fd = fd_gradient(lambda: float((maxpool2_forward(x) * proj).sum()), x)
    assert rel_error(tape.gradient(x), fd) < 1e-6


@settings(max_examples=30)
@given(st.integers(0, 2 ** 31 - 1))
def test_maxpool_matches_oracle_random(seed):
    x = np.random.default_rng(seed).standard_normal((2, 6, 4))
    assert np.array_equal(maxpool2_forward(x), naive_maxpool2(x))


# ---------------------------------------------------------------------------
# Tape mechanics
# ---------------------------------------------------------------------------

def test_tape_reverse_order_and_accumulation():
    # The same weight used twice accumulates the gradient of both uses.
    x1 = tensor([[[1.0]]])
    x2 = tensor([[[3.0]]])
    w = tensor([[[[2.0]]]])
    tape = GradientTape()
    o1 = conv2d_forward(x1, w, np.zeros(1), tape=tape)
    o2 = conv2d_forward(x2, w, np.zeros(1), tape=tape)
    total = o1 + o2
    tape.record("sum2", (o1, o2), total)
    from convprune.tensor import register_backward
    register_backward("sum2", lambda entry, g: (g, g))
    tape.backward(total)
    assert tape.gradient(w)[0, 0, 0, 0] == 4.0  # 1 + 3


def test_tape_backward_skips_entries_off_the_seeded_output():
    x = tensor([[[-1.0, 2.0], [3.0, -4.0]]])
    tape = GradientTape()
    seeded = relu_forward(x, tape=tape)
    maxpool2_forward(x, tape=tape)  # replayed first, but its output reaches nothing
    tape.backward(seeded)
    assert tape.entries == []
    assert np.array_equal(tape.gradient(x), [[[0.0, 1.0], [1.0, 0.0]]])


def test_im2col_rejects_windows_that_overrun_the_map():
    from convprune.tensor import _im2col
    src = np.arange(18.0).reshape(2, 3, 3)
    assert _im2col(src, 2, 2, 1, 2, 2).shape == (8, 4)
    with pytest.raises(ShapeError, match="overrun"):
        _im2col(src, 2, 2, 1, 3, 2)  # the strided view would read past the buffer
    with pytest.raises(ShapeError, match="overrun"):
        _im2col(src, 2, 2, 2, 1, 2)


def test_conv_tape_entry_holds_no_im2col():
    rng = np.random.default_rng(37)
    x = rng.standard_normal((2, 6, 6))
    tape = GradientTape()
    conv2d_forward(x, rng.standard_normal((3, 2, 3, 3)), np.zeros(3), 2, 1, tape=tape)
    (entry,) = tape.entries
    assert entry.ctx == {"stride": 2, "padding": 1}


def test_backward_consumes_tape_and_is_single_use():
    rng = np.random.default_rng(41)
    x = rng.standard_normal((2, 6, 6))
    w = rng.standard_normal((3, 2, 3, 3))
    b = rng.standard_normal(3)
    tape = GradientTape()
    hidden = relu_forward(conv2d_forward(x, w, b, 1, 1, tape=tape), tape=tape)
    out = maxpool2_forward(hidden, tape=tape)
    tape.backward(out)
    assert tape.entries == []
    # leaves keep their gradients; intermediate ones were freed during the pass
    assert tape.gradient(w) is not None and tape.gradient(x) is not None
    assert tape.gradient(hidden) is None
    with pytest.raises(ValueError, match="single-use"):
        tape.backward(out)


def test_tape_backward_rejects_unknown_output():
    tape = GradientTape()
    conv2d_forward(np.ones((1, 2, 2)), np.ones((1, 1, 2, 2)), np.zeros(1), tape=tape)
    with pytest.raises(ValueError, match="not produced"):
        tape.backward(np.zeros((1, 1, 1)))


def test_tape_backward_rejects_upstream_of_another_shape():
    tape = GradientTape()
    out = conv2d_forward(np.ones((1, 2, 2)), np.ones((1, 1, 2, 2)), np.zeros(1), tape=tape)
    with pytest.raises(ShapeError, match="upstream gradient shape"):
        tape.backward(out, upstream=np.ones((1, 2, 2)))


def test_tape_backward_rejects_op_without_rule():
    x = np.ones(3)
    tape = GradientTape()
    tape.record("op_without_rule", (x,), x * 2.0)
    with pytest.raises(KeyError, match="no backward rule registered for op 'op_without_rule'"):
        tape.backward(tape.entries[0].output)


def test_tape_backward_rejects_gradient_of_another_shape():
    from convprune.tensor import register_backward
    register_backward("wrong_shape_grad", lambda entry, g: (np.zeros(2),))
    x = np.ones(3)
    tape = GradientTape()
    tape.record("wrong_shape_grad", (x,), x * 2.0)
    with pytest.raises(ShapeError, match="produced gradient of shape"):
        tape.backward(tape.entries[0].output)


def test_gradient_buffer_shapes_match():
    rng = np.random.default_rng(23)
    x = rng.standard_normal((2, 4, 4))
    w = rng.standard_normal((3, 2, 3, 3))
    b = rng.standard_normal(3)
    tape = GradientTape()
    out = conv2d_forward(x, w, b, 1, 1, tape=tape)
    tape.backward(out)
    assert tape.gradient(x).shape == x.shape
    assert tape.gradient(w).shape == w.shape
    assert tape.gradient(b).shape == b.shape


def test_forward_results_finite_on_finite_inputs():
    rng = np.random.default_rng(29)
    x = rng.standard_normal((3, 8, 8)) * 1e3
    w = rng.standard_normal((4, 3, 3, 3)) * 1e3
    out = maxpool2_forward(relu_forward(conv2d_forward(x, w, rng.standard_normal(4), 1, 1)))
    assert np.all(np.isfinite(out))


# ---------------------------------------------------------------------------
# Image-major stacks: bitwise the per-image rank-3 ops
# ---------------------------------------------------------------------------

def _conv_case(rng, c_in, c_out, size, kernel=3):
    x = rng.standard_normal((3, c_in, size, size))
    w = rng.standard_normal((c_out, c_in, kernel, kernel))
    return x, w, rng.standard_normal(c_out)


def _force_weight_grad_source(monkeypatch, from_upstream: bool) -> None:
    import convprune.tensor as tensor_module
    monkeypatch.setattr(tensor_module, "_weight_grad_from_upstream",
                        lambda *shapes: from_upstream)


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", [0, 1, 2])
@pytest.mark.parametrize("from_upstream", [True, False])
def test_stacked_conv_equals_per_image_convs_bitwise(stride, padding, from_upstream,
                                                     monkeypatch):
    _force_weight_grad_source(monkeypatch, from_upstream)
    rng = np.random.default_rng(10 * stride + padding)
    x, w, b = _conv_case(rng, 2, 3, 7)
    tape = GradientTape()
    out = conv2d_forward(x, w, b, stride, padding, tape=tape)
    g = rng.standard_normal(out.shape)
    gx, gw, gb = conv2d_backward(tape.entries[-1], g)
    per_image = []
    for n in range(3):
        image_tape = GradientTape()
        assert np.array_equal(out[n], conv2d_forward(x[n], w, b, stride, padding,
                                                     tape=image_tape))
        per_image.append(conv2d_backward(image_tape.entries[-1], g[n]))
    assert np.array_equal(gx, np.stack([grads[0] for grads in per_image]))
    # a tape of three rank-3 entries adds their gradients last image first
    (_, w2, b2), (_, w1, b1), (_, w0, b0) = reversed(per_image)
    assert np.array_equal(gw, (w2 + w1) + w0)
    assert np.array_equal(gb, (b2 + b1) + b0)
    assert gw.flags.c_contiguous and gw.shape == w.shape


def test_stacked_relu_and_maxpool_equal_per_image_ops_bitwise():
    rng = np.random.default_rng(47)
    x = rng.integers(-2, 3, size=(3, 2, 4, 6)).astype(np.float64)  # ties and zeros
    tape = GradientTape()
    pooled = maxpool2_forward(relu_forward(x, tape=tape), tape=tape)
    g = rng.standard_normal(pooled.shape)
    (g_relu_out,) = maxpool2_backward(tape.entries[-1], g)
    (gx,) = relu_backward(tape.entries[-2], g_relu_out)
    for n in range(3):
        image_tape = GradientTape()
        image_pooled = maxpool2_forward(relu_forward(x[n], tape=image_tape), tape=image_tape)
        assert np.array_equal(pooled[n], image_pooled)
        (image_g,) = maxpool2_backward(image_tape.entries[-1], g[n])
        assert np.array_equal(g_relu_out[n], image_g)
        assert np.array_equal(gx[n], relu_backward(image_tape.entries[-2], image_g)[0])


def test_stack_ops_reject_other_ranks():
    with pytest.raises(ShapeError, match=r"\[N,C,H,W\]"):
        conv2d_forward(np.zeros((1, 1, 1, 4, 4)), np.zeros((1, 1, 3, 3)), np.zeros(1))
    with pytest.raises(ShapeError, match=r"\[N,C,H,W\]"):
        maxpool2_forward(np.zeros((4, 4)))


def test_stack_item_routes_gradient_to_its_slice():
    from convprune.tensor import register_backward, stack_item
    stack = np.arange(24.0).reshape(3, 2, 2, 2)
    tape = GradientTape()
    items = [stack_item(stack, n, tape) for n in range(3)]
    assert all(np.array_equal(item, stack[n]) for n, item in enumerate(items))
    total = np.array(sum(float((item * (n + 1)).sum()) for n, item in enumerate(items)))
    tape.record("weighted_sum3", tuple(items), total)
    register_backward("weighted_sum3", lambda entry, g: tuple(
        np.full(item.shape, float(g) * (n + 1)) for n, item in enumerate(entry.inputs)))
    tape.backward(total)
    expected = np.concatenate([np.full((1, 2, 2, 2), n + 1.0) for n in range(3)])
    assert np.array_equal(tape.gradient(stack), expected)


# ---------------------------------------------------------------------------
# Conv weight gradient: both sources against the loop oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("from_upstream", [True, False])
@pytest.mark.parametrize("stride,padding,size", [(1, 1, 6), (1, 0, 7), (2, 0, 7), (2, 1, 6),
                                                 (2, 2, 5)])
def test_both_weight_grad_sources_match_loop_oracle(from_upstream, stride, padding, size,
                                                    monkeypatch):
    _force_weight_grad_source(monkeypatch, from_upstream)
    rng = np.random.default_rng(7 * stride + padding)
    x, w, b = _conv_case(rng, 3, 4, size)
    x = x[0]
    tape = GradientTape()
    out = conv2d_forward(x, w, b, stride, padding, tape=tape)
    g = rng.standard_normal(out.shape)
    gx, gw, gb = conv2d_backward(tape.entries[-1], g)
    want_x, want_w, want_b = naive_conv2d_grads(x, w, g, stride, padding)
    assert rel_error(gw, want_w) <= 1e-12
    assert rel_error(gx, want_x) <= 1e-12
    assert rel_error(gb, want_b) <= 1e-12


def test_weight_grad_source_depends_on_shape_only():
    from convprune.tensor import _weight_grad_from_upstream
    # tinynet: only the 3-channel first conv rebuilds its input's im2col
    assert not _weight_grad_from_upstream((16, 3, 3, 3), (32, 32), (32, 32))
    for shape, hw in [((16, 16, 3, 3), 32), ((32, 16, 3, 3), 16), ((32, 32, 3, 3), 16),
                      ((64, 32, 3, 3), 8)]:
        assert _weight_grad_from_upstream(shape, (hw, hw), (hw, hw))
    # stride 2 makes the upstream columns four times wider than the input's
    assert not _weight_grad_from_upstream((4, 4, 3, 3), (8, 8), (4, 4))
    assert _weight_grad_from_upstream((2, 4, 3, 3), (8, 8), (4, 4))
