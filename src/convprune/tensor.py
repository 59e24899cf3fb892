"""Dense float64 tensors with a minimal reverse-mode gradient tape.

Tensors are plain numpy float64 arrays of rank 1-4. Only the primitives the
retrieval network actually needs are implemented: 2-D convolution
(cross-correlation, no kernel flip), ReLU, and non-overlapping 2x2 max
pooling, each on one [C,H,W] image or an image-major [N,C,H,W] stack, and
`stack_item`, which splits a stack back into images. Other modules
(pooling, similarity, hinge loss) register their own backward rules through
`register_backward`, so one tape can replay a full descriptor-plus-loss
pipeline.

All computation happens in float64; storage formats may narrow to float32
but arrays are widened before they reach these ops.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class ShapeError(ValueError):
    """Operation inputs violate a shape precondition."""


def _require_f64(name: str, arr: np.ndarray) -> None:
    if not isinstance(arr, np.ndarray) or arr.dtype != np.float64:
        raise TypeError(f"{name} must be a float64 ndarray, got {type(arr).__name__}"
                        f"{'' if not isinstance(arr, np.ndarray) else f' of dtype {arr.dtype}'}")


# ---------------------------------------------------------------------------
# Gradient tape
# ---------------------------------------------------------------------------

@dataclass
class TapeEntry:
    """One recorded forward operation.

    `inputs` holds references to the exact arrays the op consumed (gradients
    are accumulated per array identity), `ctx` whatever the backward rule
    needs besides them (conv stride and padding, norms, argmax positions).
    `needs_grad[i]` is False when input i is a tape constant, whose gradient
    a backward rule may skip computing.
    """
    op: str
    inputs: tuple
    output: np.ndarray
    ctx: dict = field(default_factory=dict)
    needs_grad: tuple = ()


_BACKWARD_FNS: dict = {}


def register_backward(op: str, fn) -> None:
    """Register the backward rule for an op name (used by other modules)."""
    _BACKWARD_FNS[op] = fn


class GradientTape:
    """Wengert list: operations recorded in execution order, replayed in
    strict reverse order to accumulate gradients.

    A tape is single-use: one tape per forward/backward pass, never shared.
    `backward` pops each entry, and the gradient of its output, as it
    replays it, so saved context, activations and intermediate gradients are
    freed while the pass runs; afterwards the tape has no entries and a
    second `backward` raises ValueError. `gradient()` answers for leaves,
    arrays that no recorded op produced (weights, biases, inputs); the tape
    keeps each leaf it holds a gradient for alive, so identity lookup stays
    valid. `constants` are arrays (such as input images) whose gradient no
    caller reads; `gradient()` returns None for them.
    """

    def __init__(self, constants=()):
        self.entries: list[TapeEntry] = []
        self._grads: dict[int, tuple[np.ndarray, np.ndarray]] = {}  # id -> (array, grad)
        self._constants = {id(c): c for c in constants}
        self._replayed = False

    def record(self, op: str, inputs: tuple, output: np.ndarray, ctx: dict | None = None) -> TapeEntry:
        needs_grad = tuple(id(a) not in self._constants for a in inputs)
        entry = TapeEntry(op, inputs, output, ctx or {}, needs_grad)
        self.entries.append(entry)
        return entry

    def backward(self, output: np.ndarray, upstream: np.ndarray | None = None) -> None:
        """Seed the gradient at `output` and replay all entries in reverse,
        consuming the tape."""
        if self._replayed:
            raise ValueError("backward already ran on this tape; a GradientTape is single-use")
        if not any(e.output is output for e in self.entries):
            raise ValueError("output was not produced by an operation recorded on this tape")
        if upstream is None:
            upstream = np.ones_like(output)
        if upstream.shape != output.shape:
            raise ShapeError(f"upstream gradient shape {upstream.shape} != output shape {output.shape}")
        self._replayed = True
        grads = self._grads = {id(output): (output, np.asarray(upstream, dtype=np.float64))}
        while self.entries:
            entry = self.entries.pop()
            held = grads.pop(id(entry.output), None)
            if held is None:
                continue
            try:
                backward_fn = _BACKWARD_FNS[entry.op]
            except KeyError:
                raise KeyError(f"no backward rule registered for op {entry.op!r}") from None
            input_grads = backward_fn(entry, held[1])
            if not isinstance(input_grads, tuple):
                input_grads = (input_grads,)
            for arr, ig, needed in zip(entry.inputs, input_grads, entry.needs_grad):
                if ig is None or not needed:
                    continue
                if ig.shape != arr.shape:
                    raise ShapeError(f"op {entry.op!r} produced gradient of shape {ig.shape} "
                                     f"for input of shape {arr.shape}")
                acc = grads.get(id(arr))
                grads[id(arr)] = (arr, ig if acc is None else acc[1] + ig)

    def gradient(self, arr: np.ndarray) -> np.ndarray | None:
        """Accumulated gradient for the leaf `arr`, or None if nothing flowed to it."""
        held = self._grads.get(id(arr))
        return None if held is None else held[1]


# ---------------------------------------------------------------------------
# Convolution (cross-correlation)
# ---------------------------------------------------------------------------
#
# The conv, ReLU and max-pool ops take a [C,H,W] image or an image-major
# [N,C,H,W] stack; a rank-3 call runs as a one-image stack. A stacked conv
# still does one im2col and one GEMM per image, into that image's slice of
# the output, and its backward adds the per-image weight and bias gradients
# in reverse image order, the order in which a tape of per-image entries
# would add them. So every result of a stacked op is bitwise that of the
# rank-3 ops applied image by image. Im2col, padding and transposed-conv
# buffers have the size of one image; a stack reuses its im2col buffers.

def _stack(x: np.ndarray) -> np.ndarray:
    """A [C,H,W] image as a one-image stack; a [N,C,H,W] stack unchanged."""
    return x[None] if x.ndim == 3 else x


def _im2col(src: np.ndarray, kh: int, kw: int, stride: int, h_out: int, w_out: int,
            out: np.ndarray | None = None) -> np.ndarray:
    """[C*kH*kW, h_out*w_out] patch matrix of a (padded) [C,H,W] map, built
    with one copy of its strided window view into `out` (a previous result
    of the same shape, reused) or a new buffer: cols[c, u, v, i, j] is
    src[c, u + i*stride, v + j*stride]."""
    c, h, w = src.shape
    if kh + (h_out - 1) * stride > h or kw + (w_out - 1) * stride > w:
        raise ShapeError(f"{h_out}x{w_out} windows of {kh}x{kw} at stride {stride} "
                         f"overrun a {h}x{w} map")
    sc, sh, sw = src.strides
    windows = np.lib.stride_tricks.as_strided(
        src, (c, kh, kw, h_out, w_out), (sc, sh, sw, sh * stride, sw * stride), writeable=False)
    cols = np.empty((c, kh, kw, h_out, w_out)) if out is None else out.reshape(windows.shape)
    cols[...] = windows
    return cols.reshape(-1, h_out * w_out)


def _padded(image: np.ndarray, padding: int) -> np.ndarray:
    """A [C,H,W] image copied into a zero-padded buffer (the image itself for
    padding 0)."""
    if padding == 0:
        return image
    c, h, w = image.shape
    buf = np.zeros((c, h + 2 * padding, w + 2 * padding))
    buf[:, padding:padding + h, padding:padding + w] = image
    return buf


def conv2d_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray,
                   stride: int = 1, padding: int = 0,
                   tape: GradientTape | None = None) -> np.ndarray:
    """2-D cross-correlation of a [C_in,H,W] input, or of every image of an
    [N,C_in,H,W] stack, with [C_out,C_in,kH,kW] kernels.

    Output spatial dims: floor((H + 2*padding - kH)/stride) + 1, same for W.
    """
    _require_f64("input", x)
    _require_f64("weights", weights)
    _require_f64("bias", bias)
    if x.ndim not in (3, 4):
        raise ShapeError(f"conv input must be [C,H,W] or [N,C,H,W], got shape {x.shape}")
    if weights.ndim != 4:
        raise ShapeError(f"conv weights must be rank 4 [C_out,C_in,kH,kW], got shape {weights.shape}")
    c_out, c_in, kh, kw = weights.shape
    if x.shape[-3] != c_in:
        raise ShapeError(f"input has {x.shape[-3]} channels but weights expect {c_in}")
    if bias.shape != (c_out,):
        raise ShapeError(f"bias shape {bias.shape} != ({c_out},)")
    if stride < 1:
        raise ShapeError(f"stride must be >= 1, got {stride}")
    if padding < 0:
        raise ShapeError(f"padding must be >= 0, got {padding}")
    h, w = x.shape[-2:]
    if h + 2 * padding < kh or w + 2 * padding < kw:
        raise ShapeError(f"padded input {h + 2 * padding}x{w + 2 * padding} smaller than "
                         f"kernel {kh}x{kw}")

    h_out = (h + 2 * padding - kh) // stride + 1
    w_out = (w + 2 * padding - kw) // stride + 1
    stack = _stack(x)
    w_mat = weights.reshape(c_out, -1)
    cols = out = None
    for n, image in enumerate(stack):
        cols = _im2col(_padded(image, padding), kh, kw, stride, h_out, w_out, cols)
        if out is None:
            # allocated only after the first padded copy is freed, so that it
            # can reuse that memory while it is in cache: a single-image
            # forward runs measurably faster than with the output allocated first
            out = np.empty((len(stack), c_out, h_out * w_out))
        np.matmul(w_mat, cols, out=out[n])
    out += bias[:, None]
    out = out.reshape(x.shape[:-3] + (c_out, h_out, w_out))
    if tape is not None:
        tape.record("conv2d", (x, weights, bias), out, {"stride": stride, "padding": padding})
    return out


def _weight_grad_from_upstream(weights_shape: tuple, in_hw: tuple, out_hw: tuple) -> bool:
    """Where a conv's weight gradient comes from, by shape alone (so a pass
    with tape constants rounds exactly like one without): from the
    transposed-conv columns of the upstream gradient, which the input
    gradient builds anyway, unless they hold over twice as many entries as
    the input's im2col (tinynet's 3-channel first conv); then from a rebuild
    of that im2col."""
    c_out, c_in = weights_shape[:2]
    return c_out * in_hw[0] * in_hw[1] <= 2 * c_in * out_hw[0] * out_hw[1]


def conv2d_backward(entry: TapeEntry, upstream: np.ndarray):
    """Gradients of a recorded conv2d: (input_grad, weight_grad, bias_grad).

    The input gradient, None for a tape constant, is a transposed
    convolution: the dilated, padded upstream's columns times the rotated,
    channel-swapped kernels. The weight gradient is either the input
    [C_in, H*W] times those columns, flipped back and transposed, or the
    upstream times a rebuild of the forward's im2col (chosen by
    `_weight_grad_from_upstream`); either way the tape holds no column
    buffer. A stack's per-image weight and bias gradients are added in
    reverse image order.
    """
    if not isinstance(entry, TapeEntry) or entry.op != "conv2d":
        raise ValueError("conv2d_backward needs a conv2d tape entry")
    x, weights, _bias = entry.inputs
    stride, padding = entry.ctx["stride"], entry.ctx["padding"]
    c_out, c_in, kh, kw = weights.shape
    xs, gs = _stack(x), _stack(upstream)
    h, w = xs.shape[2:]
    h_out, w_out = gs.shape[2:]
    need_dx = entry.needs_grad[0]
    from_upstream = _weight_grad_from_upstream(weights.shape, (h, w), (h_out, w_out))

    dx = np.empty(xs.shape) if need_dx else None
    if need_dx or from_upstream:
        # dilated, offset upstream: output (i, j) sits at gp[:, kH-1 + i*stride, kW-1 + j*stride]
        gp = np.zeros((c_out, h + 2 * padding + kh - 1, w + 2 * padding + kw - 1))
        dilated = gp[:, kh - 1:kh + (h_out - 1) * stride:stride,
                     kw - 1:kw + (w_out - 1) * stride:stride]
        flipped = weights[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c_in, -1)
    # weight_acc is [C_in, C_out*kH*kW] (flipped taps) from the upstream
    # columns, [C_out, C_in*kH*kW] from the input's
    weight_acc = bias_grad = cols = in_cols = None
    for n in reversed(range(len(xs))):
        g = gs[n]
        if need_dx or from_upstream:
            dilated[...] = g
            cols = _im2col(gp[:, padding:, padding:], kh, kw, 1, h, w, cols)
        if from_upstream:
            wg = xs[n].reshape(c_in, -1) @ cols.T
        else:
            in_cols = _im2col(_padded(xs[n], padding), kh, kw, stride, h_out, w_out, in_cols)
            wg = g.reshape(c_out, -1) @ in_cols.T
        if need_dx:
            np.matmul(flipped, cols, out=dx[n].reshape(c_in, -1))
        bg = g.sum(axis=(1, 2))
        if weight_acc is None:
            weight_acc, bias_grad = wg, bg
        else:
            weight_acc += wg
            bias_grad += bg
    if from_upstream:
        weight_grad = np.ascontiguousarray(
            weight_acc.reshape(c_in, c_out, kh, kw)[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
    else:
        weight_grad = weight_acc.reshape(weights.shape)
    if dx is not None and x.ndim == 3:
        dx = dx[0]
    return dx, weight_grad, bias_grad


# ---------------------------------------------------------------------------
# ReLU
# ---------------------------------------------------------------------------

def relu_forward(x: np.ndarray, tape: GradientTape | None = None) -> np.ndarray:
    _require_f64("input", x)
    out = np.maximum(x, 0.0)
    if tape is not None:
        tape.record("relu", (x,), out)
    return out


def relu_backward(entry: TapeEntry, upstream: np.ndarray):
    """Passes gradient where x > 0; subgradient 0 at exactly 0."""
    if not isinstance(entry, TapeEntry) or entry.op != "relu":
        raise ValueError("relu_backward needs a relu tape entry")
    (x,) = entry.inputs
    return (upstream * (x > 0.0),)


# ---------------------------------------------------------------------------
# 2x2 max pooling
# ---------------------------------------------------------------------------

def _pool_taps(x: np.ndarray):
    """Strided views of window positions (0,0),(0,1),(1,0),(1,1) of the 2x2 windows."""
    return [x[..., r::2, s::2] for r in (0, 1) for s in (0, 1)]


def maxpool2_forward(x: np.ndarray, tape: GradientTape | None = None) -> np.ndarray:
    """Non-overlapping 2x2 max pool of a [C,H,W] image or [N,C,H,W] stack;
    requires even spatial dims."""
    _require_f64("input", x)
    if x.ndim not in (3, 4):
        raise ShapeError(f"maxpool input must be [C,H,W] or [N,C,H,W], got shape {x.shape}")
    h, w = x.shape[-2:]
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2 needs even spatial dims, got {h}x{w}")
    a, b, c, d = _pool_taps(x)
    out = np.maximum(np.maximum(a, b), np.maximum(c, d))
    if tape is not None:
        tape.record("maxpool2", (x,), out)
    return out


def maxpool2_backward(entry: TapeEntry, upstream: np.ndarray):
    """Routes gradient to each window's first maximum in row-major window
    order, so ties break deterministically."""
    if not isinstance(entry, TapeEntry) or entry.op != "maxpool2":
        raise ValueError("maxpool2_backward needs a maxpool2 tape entry")
    (x,) = entry.inputs
    dx = np.empty_like(x)
    taps, grads = _pool_taps(x), _pool_taps(dx)
    rest = upstream  # gradient of the windows whose maximum is not yet found
    for tap, grad in zip(taps[:3], grads[:3]):
        hit = tap == entry.output
        np.multiply(rest, hit, out=grad)
        rest = np.where(hit, 0.0, rest)
    grads[3][...] = rest  # a window not routed yet has its maximum at (1,1)
    return (dx,)


# ---------------------------------------------------------------------------
# Stack items
# ---------------------------------------------------------------------------

def stack_item(stack: np.ndarray, index: int, tape: GradientTape | None = None) -> np.ndarray:
    """Image `index` of an image-major stack, as a view; on a tape its
    gradient flows back into that image's slice of the stack."""
    out = stack[index]
    if tape is not None:
        tape.record("stack_item", (stack,), out, {"index": index})
    return out


def _stack_item_backward(entry: TapeEntry, upstream: np.ndarray):
    (stack,) = entry.inputs
    grad = np.zeros_like(stack)
    grad[entry.ctx["index"]] = upstream
    return (grad,)


register_backward("conv2d", conv2d_backward)
register_backward("relu", relu_backward)
register_backward("maxpool2", maxpool2_backward)
register_backward("stack_item", _stack_item_backward)
