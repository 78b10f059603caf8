"""Layered networks on hexagonal tensors: configs, shape inference,
forward/backward, SGD training, presets, and checkpoints.

Conv and pool layers run on the hexagonal kernels; after a flatten the
dense head works exactly like any rectangle-based network.  The trunk
(conv and pool layers up to and including the flatten) runs one sample
at a time, which keeps each sample's activations small enough to stay
in cache; the flattened features are stacked into a (batch, features)
matrix, so every dense layer, the softmax cross-entropy and their
gradients are one batched product each.  Training is plain SGD with a
fixed update order, so a fixed seed reproduces the same trajectory bit
for bit.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import struct
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .grads import (
    avgpool_backward,
    conv_backward_filter,
    conv_backward_input,
    maxpool_backward,
)
from .grid import HexTensor, cell_count, check_int, check_tensor
from .matmul import gemm
from .ops import HexFilterBank, avgpool, conv_valid, maxpool, valid_geometry

__all__ = [
    "LayerSpec",
    "NetworkConfig",
    "TrainConfig",
    "Network",
    "build_network",
    "forward",
    "backward",
    "train_step",
    "hex_lenet",
    "hex_lenet4",
    "hex_vgg13",
    "hex_vgg16",
    "save_checkpoint",
    "load_checkpoint",
    "save_dataset",
    "load_dataset",
    "make_two_class_dataset",
]

ACTIVATIONS = ("identity", "relu")
# every layer kind and the LayerSpec fields it reads; the rest must keep their defaults
KINDS = {
    "hexconv": ("filters", "window", "stride", "activation"),
    "hexmaxpool": ("window", "stride"),
    "hexavgpool": ("window", "stride"),
    "flatten": (),
    "dense": ("units", "activation"),
    "softmax_xent": (),
}


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    filters: int = 0
    window: int = 0
    stride: int = 1
    units: int = 0
    activation: str = "identity"

    @classmethod
    def conv(cls, filters, window=2, stride=1, activation="relu"):
        return cls("hexconv", filters=filters, window=window, stride=stride, activation=activation)

    @classmethod
    def maxpool(cls, window=2, stride=3):
        return cls("hexmaxpool", window=window, stride=stride)

    @classmethod
    def avgpool(cls, window=2, stride=3):
        return cls("hexavgpool", window=window, stride=stride)

    @classmethod
    def flatten(cls):
        return cls("flatten")

    @classmethod
    def dense(cls, units, activation="identity"):
        return cls("dense", units=units, activation=activation)

    @classmethod
    def softmax(cls):
        return cls("softmax_xent")


@dataclass(frozen=True)
class NetworkConfig:
    input_side: int
    input_channels: int
    layers: tuple
    seed: int = 0

    def __post_init__(self):
        try:
            layers = tuple(self.layers)
        except TypeError:
            raise ValueError(f"layers must be a sequence of LayerSpecs, got {self.layers!r}") from None
        object.__setattr__(self, "layers", layers)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    batch_size: int = 1

    def __post_init__(self):
        lr = self.learning_rate
        if isinstance(lr, bool) or not isinstance(lr, numbers.Real) or not 0 <= lr < np.inf:
            raise ValueError(f"learning rate must be a finite, non-negative real number, got {lr!r}")
        check_int(self.batch_size, "batch size")


class Network:
    """A built network: the config plus parameters and per-layer shapes.

    ``shapes[i]`` is the output shape after layer i-1 (shapes[0] is the
    input): ("hex", side, channels) or ("flat", length).  ``params[i]``
    is a HexFilterBank for conv layers, (W, b) for dense layers, None
    otherwise.
    """

    def __init__(self, cfg, params, shapes):
        self.cfg = cfg
        self.params = params
        self.shapes = shapes

    def parameter_count(self) -> int:
        return sum(a.size for a in _param_arrays(self))

    def describe(self) -> list[str]:
        lines = [f"input: hex side {self.cfg.input_side}, {self.cfg.input_channels} channels"]
        for i, spec in enumerate(self.cfg.layers):
            shape = self.shapes[i + 1]
            pool = spec.kind in ("hexmaxpool", "hexavgpool")
            note = " (floor stride)" if pool and (self.shapes[i][1] - spec.window) % spec.stride else ""
            if shape[0] == "hex":
                out = f"hex side {shape[1]}, {shape[2]} channels"
            else:
                out = f"flat {shape[1]}"
            lines.append(f"layer {i} {spec.kind}: {out}{note}")
        return lines


def build_network(cfg: NetworkConfig) -> Network:
    """Validate the layer chain, allocate and initialize all parameters.

    Weights are uniform in [-a, a] with a = sqrt(6 / (fan_in + fan_out));
    biases start at zero.  A bad layer raises ``ValueError`` naming its
    index and kind; conv geometry must tile exactly, pool geometry floors,
    and a field the kind does not read must keep its ``LayerSpec`` default.
    """
    check_int(cfg.input_side, "input side")
    check_int(cfg.input_channels, "input channels")
    rng = np.random.default_rng(check_int(cfg.seed, "seed", 0))
    shape = ("hex", cfg.input_side, cfg.input_channels)
    shapes = [shape]
    params = []
    for i, spec in enumerate(cfg.layers):
        if not isinstance(spec, LayerSpec):
            raise ValueError(f"layer {i}: not a LayerSpec, got {spec!r}")
        try:
            shape, param = _build_layer(spec, shape, rng, i == len(cfg.layers) - 1)
        except ValueError as e:
            raise ValueError(f"layer {i} ({spec.kind}): {e}") from None
        params.append(param)
        shapes.append(shape)
    return Network(cfg, params, shapes)


def _build_layer(spec: LayerSpec, shape, rng, last: bool):
    """One layer's output shape and initialized parameters (None if it
    has none), given its input shape."""
    if spec.kind not in KINDS:
        raise ValueError("unknown layer kind")
    if spec.activation not in ACTIVATIONS:
        raise ValueError(f"unknown activation {spec.activation!r}")
    for f in fields(LayerSpec)[1:]:  # every field but the kind
        value = getattr(spec, f.name)
        if f.name not in KINDS[spec.kind] and (type(value) is not type(f.default) or value != f.default):
            raise ValueError(f"does not use {f.name}, which must stay {f.default!r}, got {value!r}")
    if spec.kind in ("hexconv", "hexmaxpool", "hexavgpool"):
        if shape[0] != "hex":
            raise ValueError("needs a hexagonal input")
        _, side, channels = shape
        pool = spec.kind != "hexconv"
        out_side = valid_geometry(side, spec.window, spec.stride, floor_mode=pool)
        if pool:
            return ("hex", out_side, channels), None
        check_int(spec.filters, "filters")
        e = cell_count(spec.window)
        a = np.sqrt(6.0 / (channels * e + spec.filters * e))
        w = rng.uniform(-a, a, size=(spec.filters, channels, e))
        return ("hex", out_side, spec.filters), HexFilterBank(spec.window, w)
    if spec.kind == "flatten":
        if shape[0] != "hex":
            raise ValueError("input is already flat")
        return ("flat", shape[2] * cell_count(shape[1])), None
    if spec.kind == "softmax_xent":
        if shape[0] != "flat":
            raise ValueError("needs logits (a flat input)")
        if not last:
            raise ValueError("must be the final layer")
        return shape, None
    # dense
    if shape[0] != "flat":
        raise ValueError("needs a flat input (insert flatten)")
    check_int(spec.units, "units")
    fan_in = shape[1]
    a = np.sqrt(6.0 / (fan_in + spec.units))
    w = rng.uniform(-a, a, size=(spec.units, fan_in))
    return ("flat", spec.units), (w, np.zeros(spec.units))


def _activate(z: np.ndarray, kind: str):
    """The activation of ``z`` and what backward reads of it: for relu
    the bits of ``z > 0``, packed (``np.packbits``, one bit a value,
    where ``z`` takes 64), so no boolean mask outlives this call; None
    for identity.  ``_relu_grad`` applies the bits."""
    if kind == "identity":
        return z, None
    if kind == "relu":
        return np.maximum(z, 0.0), np.packbits(z > 0)
    raise ValueError(f"unknown activation {kind!r}")


def _relu_grad(d: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """``d`` times relu's derivative, from the bits ``_activate`` packed
    for an input shaped like ``d``: the bits of ``d * (z > 0)``."""
    return d * np.unpackbits(bits, count=d.size).view(bool).reshape(d.shape)


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max()
    e = np.exp(z)
    return e / e.sum()


def xent_loss_grad(logits: np.ndarray, label: int) -> tuple[float, np.ndarray]:
    """Cross-entropy of softmax(logits) against one label, and d/dlogits."""
    p = softmax(logits)
    loss = -float(np.log(max(p[label], 1e-300)))
    g = p.copy()
    g[label] -= 1.0
    return loss, g


def _xent_batch(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of softmax over each row of (B, classes) logits,
    and its gradient with respect to the logits; the batched form of
    ``xent_loss_grad``."""
    n = len(labels)
    rows = np.arange(n)
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    d = e / e.sum(axis=1, keepdims=True)
    loss = -np.log(np.maximum(d[rows, labels], 1e-300)).sum() / n
    d[rows, labels] -= 1.0
    d /= n
    return float(loss), d


def _head_start(net: Network) -> int:
    """Index of the first layer after the flatten: where the head begins."""
    for i, spec in enumerate(net.cfg.layers):
        if spec.kind == "flatten":
            return i + 1
    raise ValueError("network has no flatten layer")


def _trunk_forward(net: Network, t: HexTensor, stop: int):
    """One sample through layers [0, stop): its flat features and cache,
    one entry per layer holding only what ``_trunk_backward`` reads (a
    conv keeps its input and its packed relu bits, never its
    pre-activation; a max pool its one-byte winning taps; an average
    pool and the flatten None, since their sizes are in ``net.shapes``)."""
    x = t
    cache = []
    for i, spec in enumerate(net.cfg.layers[:stop]):
        if spec.kind == "hexconv":
            z = conv_valid(x, net.params[i], spec.stride)
            a, bits = _activate(z.data, spec.activation)
            cache.append((x, bits))
            a.setflags(write=False)
            x = HexTensor(z.side, z.channels, a)
            del z  # not live beside the next conv's output
        elif spec.kind == "hexmaxpool":
            x, taps = maxpool(x, spec.window, spec.stride)
            cache.append(taps)
        elif spec.kind == "hexavgpool":
            cache.append(None)
            x = avgpool(x, spec.window, spec.stride)
        else:  # flatten
            cache.append(None)
            x = x.data.ravel()
    return x, cache


@dataclass(frozen=True, eq=False)
class _Caches:
    """What ``forward`` keeps for ``backward``: per sample, a list of one
    trunk cache entry per trunk layer; per dense layer of the head, its
    index, its (B, in) inputs and the packed relu bits of its (B, units)
    output (None for identity).  ``backward`` consumes both lists,
    popping each entry as it walks it, so the caches serve one
    ``backward`` only."""

    trunk: list
    head: list

    def __len__(self) -> int:
        return len(self.trunk)


def _forward_with(net: Network, batch, trunk_forward) -> tuple[np.ndarray, _Caches]:
    """``forward`` with the per-sample trunk passed in: ``trunk_forward(net,
    t, stop)`` returns one sample's flat features and its trunk cache.
    The dense head is the same algebra on every layout.  An empty batch
    or an item that is not a ``HexTensor`` raises ``ValueError``."""
    stop = _head_start(net)
    features = []
    trunk = []
    for t in batch:
        check_tensor(t, "batch items")
        if t.side != net.cfg.input_side or t.channels != net.cfg.input_channels:
            raise ValueError("batch input does not match the network config")
        x, cache = trunk_forward(net, t, stop)
        features.append(x)
        trunk.append(cache)
    if not trunk:
        raise ValueError("batch is empty")
    x = np.stack(features)
    head = []
    for i in range(stop, len(net.cfg.layers)):
        spec = net.cfg.layers[i]
        if spec.kind == "dense":
            w, b = net.params[i]
            a, bits = _activate(gemm(x, w.T) + b, spec.activation)
            head.append((i, x, bits))
            x = a
        # softmax_xent: loss layer, logits pass through
    return x, _Caches(trunk, head)


def forward(net: Network, batch) -> tuple[np.ndarray, _Caches]:
    """Run the batch; returns (logits (B, classes), caches for ``backward``).

    The trunk (conv and pool layers up to the flatten) runs one sample
    at a time, so each sample's activations stay small enough for the
    cache; the flattened features are stacked into (B, features) and
    every dense layer of the head runs once for the whole batch.
    """
    return _forward_with(net, batch, _trunk_forward)


def _trunk_backward(net: Network, cache: list, d: np.ndarray, grads) -> None:
    """One sample's feature error back through its trunk, popping each
    layer's cache entry as it walks it (the list ends empty)."""
    while cache:
        i = len(cache) - 1
        spec = net.cfg.layers[i]
        _, side, channels = net.shapes[i]  # the layer's input
        if spec.kind == "flatten":
            cache.pop()
            d = HexTensor(side, channels, d.reshape(channels, -1))
        elif spec.kind == "hexmaxpool":
            d = maxpool_backward(d, cache.pop(), spec.window, spec.stride, side)
        elif spec.kind == "hexavgpool":
            cache.pop()
            d = avgpool_backward(d, spec.window, spec.stride, side)
        else:  # hexconv
            x, bits = cache.pop()
            if bits is not None:
                out = _relu_grad(d.data, bits)
                out.setflags(write=False)
                d = HexTensor(d.side, d.channels, out)
            gw, gb = grads[i]
            dw, db = conv_backward_filter(x, d, spec.stride, spec.window)
            gw += dw
            gb += db
            del x, bits  # released before the input gradient is built
            if i > 0:
                d = conv_backward_input(d, net.params[i], spec.stride, side)


def _trunk_grads(net: Network) -> list:
    """Zeroed (weights, bias) accumulators for the conv layers, None for
    every other layer; the head's gradients are set once per batch."""
    return [
        (np.zeros_like(p.weights), np.zeros_like(p.bias)) if isinstance(p, HexFilterBank) else None
        for p in net.params
    ]


def _class_indices(labels, batch: int, classes: int) -> np.ndarray:
    """Labels as int64 class indices, one per sample; a wrong count, a
    non-integer or a class outside [0, classes) raises ``ValueError``."""
    y = np.asarray(labels)
    if y.shape != (batch,):
        raise ValueError("labels do not match the forward batch")
    if y.dtype.kind not in "iuf" or not (np.isfinite(y) & (y == np.trunc(y))).all():
        raise ValueError("labels must be integer class indices")
    if y.min() < 0 or y.max() >= classes:
        raise ValueError(f"labels must lie in [0, {classes}), got {y.min()}..{y.max()}")
    return y.astype(np.int64)


def _head_backward(net: Network, head: list, d: np.ndarray, grads) -> np.ndarray:
    """The logits' error back through the dense head, popping each
    layer's cache entry as it walks it; returns the (B, features) error."""
    while head:
        i, x, bits = head.pop()
        if bits is not None:
            d = _relu_grad(d, bits)
        w, _ = net.params[i]
        grads[i] = (gemm(d.T, x), d.sum(axis=0))
        d = gemm(d, w)
    return d


def _backward_with(net: Network, logits, caches: _Caches, labels, trunk_backward):
    """``backward`` with the per-sample trunk passed in:
    ``trunk_backward(net, cache, d, grads)`` walks one sample's feature
    error back through its trunk cache, emptying it, and adds to the
    conv gradients.  Consumes ``caches``; every check runs first."""
    if net.cfg.layers[-1].kind != "softmax_xent":
        raise ValueError("backward requires a softmax_xent head")
    n = len(caches)
    if not n:
        raise ValueError("caches were already consumed by a backward")
    classes = net.shapes[-1][1]
    if np.shape(logits) != (n, classes):
        raise ValueError(
            f"logits of shape {np.shape(logits)} do not match the caches' ({n}, {classes})"
        )
    labels = _class_indices(labels, n, classes)
    loss, d = _xent_batch(logits, labels)
    grads = _trunk_grads(net)
    d = _head_backward(net, caches.head, d, grads)
    trunk = caches.trunk
    trunk.reverse()  # popped from the end: samples in batch order
    for row in d:
        trunk_backward(net, trunk.pop(), row, grads)
    return loss, grads


def backward(net: Network, logits: np.ndarray, caches: _Caches, labels):
    """Mean cross-entropy loss and gradients for every parameter.

    Softmax cross-entropy and the dense head run once over the batch;
    then each sample's row of the feature error walks back through its
    own trunk.  ``backward`` consumes ``caches``, dropping each layer's
    entry once walked (a conv's input as soon as its filter gradient is
    formed), so a second call on the same caches raises ``ValueError``;
    so do logits that are not (samples, classes) of the caches.
    """
    return _backward_with(net, logits, caches, labels, _trunk_backward)


def _arrays(p):
    """(weights, bias) of a parameter: a conv layer's bank or a dense pair."""
    return (p.weights, p.bias) if isinstance(p, HexFilterBank) else p


def _with_arrays(p, w, b):
    """A parameter of ``p``'s kind holding weights ``w`` and bias ``b``."""
    return HexFilterBank(p.filter_side, w, b) if isinstance(p, HexFilterBank) else (w, b)


def apply_gradients(net: Network, grads, learning_rate: float) -> None:
    for i, g in enumerate(grads):
        if g is None:
            continue
        p = net.params[i]
        w, b = _arrays(p)
        net.params[i] = _with_arrays(p, w - learning_rate * g[0], b - learning_rate * g[1])


def train_step(net: Network, batch, labels, tc: TrainConfig) -> float:
    """One SGD step; returns the batch loss before the update.  No cache
    is alive during the update."""
    loss, grads = backward(net, *forward(net, batch), labels)
    apply_gradients(net, grads, tc.learning_rate)
    return loss


# ---------------------------------------------------------------------------
# presets

def _lenet(input_side: int, classes: int, seed: int, first: int) -> NetworkConfig:
    """LeNet-style stack on hexagonal tensors, ``first`` first-stage filters.

    Pool strides follow the non-overlapping side-2 tiling (stride 3)
    and fall back to floor geometry when the side does not divide;
    build_network reports the resolved output sides.
    """
    cfg = NetworkConfig(
        input_side,
        1,
        (
            LayerSpec.conv(first, 2, 1, "relu"),
            LayerSpec.maxpool(2, 3),
            LayerSpec.conv(16, 2, 1, "relu"),
            LayerSpec.maxpool(2, 3),
            LayerSpec.flatten(),
            LayerSpec.dense(120, "relu"),
            LayerSpec.dense(classes),
            LayerSpec.softmax(),
        ),
        seed,
    )
    build_network(cfg)  # surfaces "side too small" immediately
    return cfg


def hex_lenet(input_side: int, classes: int, seed: int = 0) -> NetworkConfig:
    """LeNet-style stack on hexagonal tensors (6 first-stage filters)."""
    return _lenet(input_side, classes, seed, 6)


def hex_lenet4(input_side: int, classes: int, seed: int = 0) -> NetworkConfig:
    """Narrower sibling of hex_lenet (4 first-stage filters)."""
    return _lenet(input_side, classes, seed, 4)


def _vgg(input_side, classes, convs_per_block, seed, width_scale):
    ws = width_scale
    if isinstance(ws, bool) or not isinstance(ws, numbers.Real) or not 0 < ws < np.inf:
        raise ValueError(f"width scale must be a finite real number above 0, got {ws!r}")
    widths = [64, 128, 256, 512, 512]
    layers = []
    for block, reps in enumerate(convs_per_block):
        f = max(1, round(widths[block] * width_scale))
        layers.extend(LayerSpec.conv(f, 2, 1, "relu") for _ in range(reps))
        layers.append(LayerSpec.maxpool(2, 2))
    fc = max(1, round(4096 * width_scale))
    layers += [
        LayerSpec.flatten(),
        LayerSpec.dense(fc, "relu"),
        LayerSpec.dense(fc, "relu"),
        LayerSpec.dense(classes),
        LayerSpec.softmax(),
    ]
    return NetworkConfig(input_side, 3, tuple(layers), seed)  # RGB input


def hex_vgg13(input_side: int, classes: int, seed: int = 0, width_scale: float = 1.0):
    """VGG-13-style stack; provided as a buildable preset, not a trained model."""
    return _vgg(input_side, classes, (2, 2, 2, 2, 2), seed, width_scale)


def hex_vgg16(input_side: int, classes: int, seed: int = 0, width_scale: float = 1.0):
    """VGG-16-style stack; provided as a buildable preset, not a trained model."""
    return _vgg(input_side, classes, (2, 2, 3, 3, 3), seed, width_scale)


# ---------------------------------------------------------------------------
# checkpoints ("HXM1") and datasets

HXM_MAGIC = b"HXM1"


def config_digest(cfg: NetworkConfig) -> bytes:
    doc = {
        "input_side": cfg.input_side,
        "input_channels": cfg.input_channels,
        "seed": cfg.seed,
        "layers": [
            [s.kind, s.filters, s.window, s.stride, s.units, s.activation]
            for s in cfg.layers
        ],
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).digest()


def _param_arrays(net: Network):
    for p in net.params:
        if p is not None:
            w, b = _arrays(p)
            yield w.ravel()
            yield b


def save_checkpoint(net: Network, path) -> None:
    digest = config_digest(net.cfg)
    arrays = list(_param_arrays(net))
    with open(path, "wb") as fh:
        fh.write(HXM_MAGIC)
        fh.write(struct.pack("<I", len(digest)))
        fh.write(digest)
        fh.write(struct.pack("<I", len(arrays)))
        for a in arrays:
            fh.write(struct.pack("<I", a.size))
            fh.write(a.astype("<f8").tobytes())


def load_checkpoint(path, cfg: NetworkConfig) -> Network:
    raw = Path(path).read_bytes()
    if raw[:4] != HXM_MAGIC:
        raise ValueError(f"{path}: not an HXM1 checkpoint")
    off = 4
    try:
        (dlen,) = struct.unpack_from("<I", raw, off)
        off += 4
        digest = raw[off : off + dlen]
        off += dlen
        if digest != config_digest(cfg):
            raise ValueError(f"{path}: checkpoint was saved for a different config")
        (count,) = struct.unpack_from("<I", raw, off)
        off += 4
        arrays = []
        for _ in range(count):
            (size,) = struct.unpack_from("<I", raw, off)
            off += 4
            arrays.append(np.frombuffer(raw, dtype="<f8", count=size, offset=off).astype("=f8"))
            off += size * 8
    except struct.error:
        raise ValueError(f"{path}: truncated checkpoint") from None
    net = build_network(cfg)
    expected = list(_param_arrays(net))
    if len(arrays) != len(expected) or any(a.size != e.size for a, e in zip(arrays, expected)):
        raise ValueError(f"{path}: parameter arrays do not match the config")
    it = iter(arrays)
    for i, p in enumerate(net.params):
        if p is not None:
            w = next(it).reshape(_arrays(p)[0].shape)
            net.params[i] = _with_arrays(p, w, next(it))
    return net


def save_dataset(directory, tensors, labels) -> None:
    from .fileio import write_hxt

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if len(tensors) != len(labels):
        raise ValueError("tensor and label counts differ")
    for i, t in enumerate(tensors):
        write_hxt(directory / f"{i:06d}.hxt", t)
    (directory / "labels.txt").write_text("".join(f"{int(y)}\n" for y in labels))


def load_dataset(directory):
    from .fileio import read_hxt

    directory = Path(directory)
    labels = [int(line) for line in (directory / "labels.txt").read_text().split()]
    tensors = [read_hxt(directory / f"{i:06d}.hxt") for i in range(len(labels))]
    return tensors, np.asarray(labels, dtype=np.int64)


def make_two_class_dataset(rng, n: int, side: int, channels: int = 1, separation: float = 1.0):
    """Gaussian clutter; class 1 adds a constant shift to every cell."""
    labels = rng.integers(0, 2, size=n)
    tensors = []
    cellcount = cell_count(side)
    for y in labels:
        data = rng.normal(0.0, 0.5, size=(channels, cellcount)) + separation * float(y)
        tensors.append(HexTensor(side, channels, data))
    return tensors, labels
