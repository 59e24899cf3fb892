"""Network model: layer sequence, masks, init, feature extraction, save/load.

A model is an ordered list of conv / ReLU / 2x2-maxpool layers ending in the
feature-map stack consumed by the descriptor poolings. Conv weights carry an
explicit binary keep-mask so fine-tuning can tell "pruned" apart from
"currently zero"; biases are never masked.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from . import container
from .tensor import (GradientTape, ShapeError, conv2d_forward, maxpool2_forward,
                     relu_forward)


@dataclass
class ConvLayer:
    weights: np.ndarray   # [C_out, C_in, kH, kW] float64
    bias: np.ndarray      # [C_out] float64
    mask: np.ndarray      # bool, same shape as weights; True = keep
    stride: int = 1
    padding: int = 0

    def descriptor(self) -> dict:
        return {"kind": "conv", "channels": int(self.weights.shape[0]),
                "kernel": int(self.weights.shape[2]), "stride": self.stride,
                "padding": self.padding}


@dataclass
class ReLULayer:
    def descriptor(self) -> dict:
        return {"kind": "relu"}


@dataclass
class MaxPool2Layer:
    def descriptor(self) -> dict:
        return {"kind": "maxpool2"}


@dataclass
class NetworkModel:
    input_shape: tuple[int, int, int]
    layers: list
    meta: dict = field(default_factory=dict)

    def conv_layers(self) -> list[tuple[int, ConvLayer]]:
        """(layer index, layer) pairs for the conv layers, in order."""
        return [(i, l) for i, l in enumerate(self.layers) if isinstance(l, ConvLayer)]

    def architecture(self) -> dict:
        return {"input_shape": list(self.input_shape),
                "layers": [l.descriptor() for l in self.layers]}


def tinynet_architecture() -> dict:
    """Reference desk-scale architecture: three conv/conv/pool style blocks
    on 3x32x32 inputs, ending in 64x4x4 feature maps."""
    conv = lambda c: {"kind": "conv", "channels": c, "kernel": 3, "stride": 1, "padding": 1}
    relu = {"kind": "relu"}
    pool = {"kind": "maxpool2"}
    return {
        "input_shape": [3, 32, 32],
        "layers": [
            conv(16), relu, conv(16), relu, pool,
            conv(32), relu, conv(32), relu, pool,
            conv(64), relu, pool,
        ],
    }


def _check_chain(architecture, conv) -> tuple[tuple[int, int, int], list]:
    """Parse an architecture {"input_shape": [C, H, W], "layers": [...]},
    validate its layer chain and build its layers; returns the input shape
    and the layer list. `conv(index, weight_shape, stride, padding)` makes
    each conv layer, in order, from its weight shape [C_out, C_in, k, k].
    Anything malformed raises `ValueError` (`ShapeError` where sizes do not
    fit)."""
    if not isinstance(architecture, dict):
        raise ValueError(f"architecture must be a JSON object, got {type(architecture).__name__}")
    input_shape, layer_descs = architecture.get("input_shape"), architecture.get("layers")
    if not (isinstance(input_shape, (list, tuple)) and len(input_shape) == 3
            and all(container.is_int(d, 1) for d in input_shape)):
        raise ShapeError(f"input shape must be (C,H,W) of positive sizes, got {input_shape!r}")
    if not isinstance(layer_descs, list) or not all(isinstance(d, dict) for d in layer_descs):
        raise ValueError(f"architecture layers must be a list of objects, got {layer_descs!r}")
    if not layer_descs:
        raise ValueError("architecture needs at least one layer")
    if layer_descs[-1].get("kind") not in ("conv", "maxpool2"):
        raise ValueError("final layer must be conv or maxpool2: its output is the "
                         "feature-map stack the descriptors pool over")
    input_shape = tuple(int(d) for d in input_shape)
    c, h, w = input_shape
    layers = []
    for i, desc in enumerate(layer_descs):
        kind = desc.get("kind")
        if kind == "conv":
            what = f"layer {i}: conv"
            k = container.require_int(desc.get("kernel"), f"{what} kernel", 1)
            s = container.require_int(desc.get("stride", 1), f"{what} stride", 1)
            p = container.require_int(desc.get("padding", 0), f"{what} padding", 0)
            if "in_channels" in desc and desc["in_channels"] != c:
                raise ShapeError(f"layer {i}: conv expects {desc['in_channels']} input "
                                 f"channels but receives {c}")
            if h + 2 * p < k or w + 2 * p < k:
                raise ShapeError(f"layer {i}: {h}x{w} input (padding {p}) smaller than "
                                 f"kernel {k}x{k}")
            h = (h + 2 * p - k) // s + 1
            w = (w + 2 * p - k) // s + 1
            shape = (container.require_int(desc.get("channels"), f"{what} channels", 1), c, k, k)
            layers.append(conv(i, shape, s, p))
            c = shape[0]
        elif kind == "relu":
            layers.append(ReLULayer())
        elif kind == "maxpool2":
            if h % 2 or w % 2:
                raise ShapeError(f"layer {i}: maxpool2 needs even spatial dims, got {h}x{w}")
            h, w = h // 2, w // 2
            layers.append(MaxPool2Layer())
        else:
            raise ValueError(f"layer {i}: unknown layer kind {kind!r}")
    return input_shape, layers


def init_network(architecture: dict, seed: int, name: str = "net") -> NetworkModel:
    """Build a model with He-scaled normal weights (std = sqrt(2 / fan_in)),
    zero biases, and all-ones masks. Deterministic for a fixed seed."""
    rng = np.random.default_rng(seed)

    def he_conv(i: int, shape: tuple, stride: int, padding: int) -> ConvLayer:
        fan_in = shape[1] * shape[2] * shape[3]
        return ConvLayer(weights=rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape),
                         bias=np.zeros(shape[0]), mask=np.ones(shape, dtype=bool),
                         stride=stride, padding=padding)

    input_shape, layers = _check_chain(architecture, he_conv)
    return NetworkModel(input_shape=input_shape, layers=layers,
                        meta={"name": name, "seed": int(seed), "history": []})


def forward_features(model: NetworkModel, image: np.ndarray,
                     tape: GradientTape | None = None,
                     conv_inputs: list | None = None) -> np.ndarray:
    """Run the layer chain and return the final feature-map stack: [C,H,W]
    for a [C,H,W] image, [N,C,H,W] for an image-major stack of N images.

    `conv_inputs`, when given, collects (layer index, input activation) for
    every conv layer; the salience module uses this to gather activation
    statistics without a second forward implementation.
    """
    if image.ndim not in (3, 4) or tuple(image.shape[-3:]) != tuple(model.input_shape):
        raise ShapeError(f"image shape {image.shape} is neither the model input shape "
                         f"{model.input_shape} nor a stack of it")
    h = image
    for i, layer in enumerate(model.layers):
        if isinstance(layer, ConvLayer):
            if conv_inputs is not None:
                conv_inputs.append((i, h))
            h = conv2d_forward(h, layer.weights, layer.bias, layer.stride, layer.padding, tape=tape)
        elif isinstance(layer, ReLULayer):
            h = relu_forward(h, tape=tape)
        elif isinstance(layer, MaxPool2Layer):
            h = maxpool2_forward(h, tape=tape)
        else:
            raise ValueError(f"layer {i}: unknown layer type {type(layer).__name__}")
    return h


def validate_masks(model: NetworkModel) -> None:
    """Mask/weight invariant: every masked-out position holds exactly 0."""
    for i, layer in model.conv_layers():
        if layer.mask.shape != layer.weights.shape:
            raise ShapeError(f"layer {i}: mask shape {layer.mask.shape} != "
                             f"weights shape {layer.weights.shape}")
        bad = np.flatnonzero(~layer.mask.reshape(-1) & (layer.weights.reshape(-1) != 0.0))
        if bad.size:
            raise ValueError(f"layer {i}: {bad.size} nonzero weights under a zero mask "
                             f"(first flat index {bad[0]})")


def clone_model(model: NetworkModel) -> NetworkModel:
    return copy.deepcopy(model)


def compact_model(model: NetworkModel) -> tuple[NetworkModel, dict[int, tuple]]:
    """The smaller dense network that `model`'s masks leave, with empty `meta`,
    and, by conv layer index, the (output, input) channels of `model` it keeps.

    Walking from the last conv to the first, a conv keeps the output channels
    that some live mask entry of the next conv's kept outputs reads; the last
    conv keeps every output (the descriptor width) and the first every image
    channel. A conv whose kept outputs read nothing keeps input channel 0, so
    no layer is empty. Only ReLU and max-pool sit between convs, so channels
    are independent, and a dropped channel reaches the output only through
    masked weights, which are exactly zero: the compact network computes the
    same features, and the dense gradient of every dropped weight and bias is
    exactly zero. The plan reads the masks only, never the weights, because a
    live weight can be exactly 0.0.
    """
    convs = model.conv_layers()
    kept = {}
    reads = None
    for pos in range(len(convs) - 1, -1, -1):
        idx, layer = convs[pos]
        c_out, c_in = layer.mask.shape[:2]
        outputs = np.arange(c_out) if reads is None else reads
        if pos == 0:
            reads = np.arange(c_in)
        else:
            reads = np.flatnonzero(layer.mask[outputs].any(axis=(0, 2, 3)))
            if reads.size == 0:
                reads = np.arange(1)
        kept[idx] = (outputs, reads)
    layers = []
    for i, layer in enumerate(model.layers):
        if i in kept:
            outputs, inputs = kept[i]
            layers.append(ConvLayer(weights=layer.weights[outputs][:, inputs],
                                    bias=layer.bias[outputs],
                                    mask=layer.mask[outputs][:, inputs],
                                    stride=layer.stride, padding=layer.padding))
        else:
            layers.append(type(layer)())
    return NetworkModel(input_shape=model.input_shape, layers=layers), kept


def expand_compact(full: NetworkModel, compact: NetworkModel, kept: dict[int, tuple]) -> None:
    """Write the conv weights and biases of `compact` (from `compact_model`)
    into `full` at the channels `kept` names; entries it dropped keep theirs."""
    for idx, (outputs, inputs) in kept.items():
        dst, src = full.layers[idx], compact.layers[idx]
        dst.weights[np.ix_(outputs, inputs)] = src.weights
        dst.bias[outputs] = src.bias


def save_model(model: NetworkModel, path: str) -> None:
    """Write a model container; each conv layer stores its live weights
    `weights[mask]` in row-major mask order, its bias and its mask. A model
    that breaks `validate_masks` is refused before anything is written."""
    validate_masks(model)
    tensors = [(f"layers.{i}.{part}", arr) for i, layer in model.conv_layers()
               for part, arr in (("weights", layer.weights[layer.mask]),
                                 ("bias", layer.bias), ("mask", layer.mask))]
    payload = {"kind": "model", "architecture": model.architecture(), "metadata": model.meta}
    container.write_container(path, payload, tensors)


def load_model(path: str) -> NetworkModel:
    """Load a model container. The architecture must form a valid chain, each
    conv layer's mask and bias must have the shape and kind it implies and its
    weights one float per live mask entry, with no other tensor stored;
    anything else raises `container.ContainerError`."""
    manifest, tensors = container.read_container(path)
    if manifest.get("kind") != "model":
        raise container.ContainerError(f"{path} holds {manifest.get('kind')!r}, not a model")
    meta = manifest.get("metadata", {})
    if not isinstance(meta, dict):
        raise container.ContainerError(f"{path}: metadata is not a JSON object")
    history = meta.get("history", [])  # `finetune` appends an entry per epoch
    if not (isinstance(history, list) and all(isinstance(e, dict) for e in history)):
        raise container.ContainerError(f"{path}: metadata history is not a list of "
                                       f"JSON objects, got {history!r}")

    def stored_conv(i: int, shape: tuple, stride: int, padding: int) -> ConvLayer:
        def stored(part: str, part_shape: tuple, dtype) -> np.ndarray:
            name = f"layers.{i}.{part}"
            arr = tensors.pop(name, None)
            if arr is None:
                raise container.ContainerError(f"{path}: the architecture needs tensor "
                                               f"{name!r}, which is not stored")
            if arr.shape != part_shape or arr.dtype != dtype:
                raise container.ContainerError(
                    f"{path}: tensor {name!r} is {arr.dtype} {arr.shape}, the model "
                    f"needs {np.dtype(dtype)} {part_shape}")
            return arr
        mask = stored("mask", shape, np.bool_)
        weights = np.zeros(shape)
        weights[mask] = stored("weights", (int(mask.sum()),), np.float64)
        return ConvLayer(weights, stored("bias", shape[:1], np.float64), mask, stride, padding)

    try:
        input_shape, layers = _check_chain(manifest.get("architecture"), stored_conv)
    except container.ContainerError:
        raise
    except ValueError as exc:
        raise container.ContainerError(f"{path}: malformed architecture: {exc!r}") from exc
    if tensors:
        raise container.ContainerError(
            f"{path}: tensors {sorted(tensors)} are not in the architecture")
    return NetworkModel(input_shape=input_shape, layers=layers, meta=meta)
