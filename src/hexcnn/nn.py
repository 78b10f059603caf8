"""Layered networks on hexagonal tensors: configs, shape inference,
forward/backward, SGD training, presets, and checkpoints.

Conv and pool layers run on the hexagonal kernels; after a flatten the
dense head works exactly like any rectangle-based network.  The trunk
(conv and pool layers up to and including the flatten) runs one sample
at a time, which keeps each sample's activations small enough to stay
in cache; the flattened features are stacked into a (batch, features)
matrix, so every dense layer, the softmax cross-entropy and their
gradients are one batched product each.  Each layout walks a trunk plan
decided once per network and block size (``_trunk_steps``, cached by
``_trunk_plan``): a max pool right after a relu conv applies that
conv's relu to its pooled output, so the relu and its derivative run on
the pooled cells only, with the same bits; and when that pool's windows
share no cell (hexlenet5's stride-3 side-2 pools), the conv computes
only the cells the pool reads, in the pool's window order, and its
backward runs on the same cells: the forward's plan rides in the caches
(``_Caches.plan``).  The pooled values and the conv's gradients can
differ from the public kernels composed over every output cell in the
last bits, since BLAS may round a column differently in a product of
fewer columns.  The conv outputs no pool window reads are never
computed, so an input cell that only they read reaches nothing: a NaN
there leaves the loss and every gradient finite, on both layouts.
Training is plain SGD with a fixed update order, so a fixed seed
reproduces the same trajectory bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import struct
from dataclasses import dataclass, fields
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import ops
from .grads import _filter_grad, _input_grad, _unpool, _unpool_windows
from .grid import HexTensor, cell_count, check_int, check_tensor
from .matmul import gemm
from .ops import HexFilterBank, _blocks, conv_valid, tap_gather, valid_geometry

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
        if _finite_real(self.learning_rate, "learning rate") < 0:
            raise ValueError(f"learning rate must be non-negative, got {self.learning_rate!r}")
        check_int(self.batch_size, "batch size")


def _finite_real(value, what: str):
    """``value`` if it is a finite real number; a bool, a non-number,
    an infinity or NaN raises ``ValueError`` naming ``what``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not np.isfinite(value):
        raise ValueError(f"{what} must be a finite real number, got {value!r}")
    return value


def _learning_rate(tc) -> float:
    """The learning rate of the ``TrainConfig`` ``tc``; anything else
    raises ``ValueError``, which a train step checks before it runs."""
    if not isinstance(tc, TrainConfig):
        raise ValueError(f"train config must be a TrainConfig, got {type(tc).__name__}")
    return tc.learning_rate


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
    if not isinstance(cfg, NetworkConfig):
        raise ValueError(f"config must be a NetworkConfig, got {type(cfg).__name__}")
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


def _head_start(layers) -> int:
    """Index of the first layer after the flatten: where the head begins."""
    for i, spec in enumerate(layers):
        if spec.kind == "flatten":
            return i + 1
    raise ValueError("network has no flatten layer")


def _trunk_steps(layers, shapes, conv_table, pool_table, block: int) -> tuple:
    """The trunk of ``layers`` (conv and pool layers up to and including
    the flatten) as one ``(spec, input side, activation, windows)`` step
    per layer; ``shapes`` are the network's.

    Max commutes with relu, so a relu conv whose next layer is a max pool
    applies identity and that pool applies the relu, to its pooled cells
    only: ``relu(maxpool(z))`` in place of ``maxpool(relu(z))``.  Both
    give the same bits, NaN included, since ``np.maximum(z, 0.0)`` maps
    -0.0 to +0.0 and passes NaN through.  Every other conv applies its
    own activation, and every other layer identity.

    ``windows`` is set on a conv whose next layer is a max pool with
    disjoint windows: ``ops._at_windows`` of the layout's conv table,
    ``conv_table(side, window, stride)``, at the pool's windows,
    ``pool_table(side, window, stride)``, in ``block``-patch pairs.  The
    conv then computes only the cells the pool reads, as the pool's
    window array (``ops._conv_windows``).  It is None on every other
    step, and on a conv whose pool's windows overlap."""
    trunk = layers[: _head_start(layers)]
    steps = []
    for i, spec in enumerate(trunk):
        side, act, windows = shapes[i][1], "identity", None
        if spec.kind == "hexconv" and trunk[i + 1].kind == "hexmaxpool":  # the flatten ends the trunk
            pool = trunk[i + 1]
            conv = conv_table(side, spec.window, spec.stride)
            windows = ops._at_windows(conv, pool_table(shapes[i + 1][1], pool.window, pool.stride), block)
        elif spec.kind == "hexconv":
            act = spec.activation
        elif spec.kind == "hexmaxpool" and i > 0 and trunk[i - 1].kind == "hexconv":
            act = trunk[i - 1].activation
        steps.append((spec, side, act, windows))
    return tuple(steps)


@lru_cache(maxsize=None)
def _trunk_plan(layers: tuple, shapes: tuple, block: int) -> tuple:
    """``_trunk_steps`` on the hexagon: the conv's window table
    (uncached, as in ``ops._blocks``) at the cells of the pool's
    ``tap_gather`` table.  ``_forward_with`` looks it up once per batch,
    at the ``ops.PATCH_BLOCK`` of the call."""
    return _trunk_steps(layers, shapes, tap_gather.__wrapped__, tap_gather, block)


def _trunk_forward(net: Network, plan: tuple, t: HexTensor):
    """One sample through the trunk ``plan`` (``_trunk_plan``): its flat
    features and cache, one entry per layer holding only what
    ``_trunk_backward`` reads.

    Each layer applies its step's activation.  A conv with window blocks
    computes only the cells the max pool after it reads, as the pool's
    window array (``ops._conv_windows``); the pool then takes its max
    with no gather.  Every other conv runs ``conv_valid``, and every
    other pool gathers its windows through ``tap_gather``; both pool
    kinds reduce them in ``ops._pool``.  A conv keeps its input and its
    packed relu bits (None when it applies identity, as every conv
    before a max pool does), never its output; a max pool its one-byte
    winning taps, taken on its input as it comes (a pre-activation when
    it applies the relu of the conv before it), and its packed relu bits
    or None; an average pool and the flatten None, since their sizes are
    in ``net.shapes``."""
    x, win, cache = t, None, []  # win: a conv's output at the windows of the max pool after it
    for i, (spec, side, act, windows) in enumerate(plan[:-1]):
        if spec.kind == "hexconv":
            bank = net.params[i]
            if windows is None:
                out, bits = _activate(conv_valid(x, bank, spec.stride).data, act)
            else:  # its activation is identity: the pool applies the relu
                w, taps = bank.weights.reshape(bank.filters, -1), cell_count(plan[i + 1][0].window)
                win = ops._conv_windows(x.data, w, bank.bias, windows, taps)
                out = bits = None
            cache.append((x, bits))
        else:  # a pool
            if win is None:
                win = np.take(x.data, tap_gather(side, spec.window, spec.stride), axis=1)
            out, taps = ops._pool(win, spec.kind)
            out, bits = _activate(out, act)
            cache.append(None if taps is None else (taps, bits))
            win = None
        if out is not None:
            out.setflags(write=False)
            x = HexTensor(plan[i + 1][1], out.shape[0], out)
    cache.append(None)  # the flatten
    return x.data.ravel(), cache


@dataclass(frozen=True, eq=False)
class _Caches:
    """What ``forward`` keeps for ``backward``: the trunk plan the
    forward walked, so the backward runs on the same window blocks
    without a second lookup at a ``PATCH_BLOCK`` that may have changed;
    per sample, a list of one trunk cache entry per trunk layer; per
    dense layer of the head, its index, its (B, in) inputs and the
    packed relu bits of its (B, units) output (None for identity).
    ``backward`` consumes both lists, popping each entry as it walks it,
    so the caches serve one ``backward`` only."""

    plan: tuple
    trunk: list
    head: list

    def __len__(self) -> int:
        return len(self.trunk)


def _forward_with(net: Network, batch, trunk_plan, trunk_forward) -> tuple[np.ndarray, _Caches]:
    """``forward`` with a layout's trunk passed in: ``trunk_plan(layers,
    shapes, block)``, looked up once per batch at the current
    ``ops.PATCH_BLOCK``, and ``trunk_forward(net, plan, t)``, which
    returns one sample's flat features and its trunk cache.  The dense
    head is the same algebra on every layout.  A batch that is not a
    sequence (one ``HexTensor``, say), an empty batch, or an item that
    is not a float64 ``HexTensor`` of the input's shape, raises
    ``ValueError``: the network's parameters are float64, and a float32
    item would be promoted silently."""
    try:
        items = iter(batch)
    except TypeError:  # one HexTensor, say, which is not a batch of one
        raise ValueError(f"batch must be a sequence of HexTensors, got {type(batch).__name__}") from None
    plan = trunk_plan(net.cfg.layers, tuple(net.shapes), ops.PATCH_BLOCK)
    features = []
    trunk = []
    for t in items:
        check_tensor(t, "batch items")
        if t.side != net.cfg.input_side or t.channels != net.cfg.input_channels:
            raise ValueError("batch input does not match the network config")
        if t.dtype != np.float64:
            raise ValueError(f"batch items must be float64, the network's dtype, got {t.dtype}")
        x, cache = trunk_forward(net, plan, t)
        features.append(x)
        trunk.append(cache)
    if not trunk:
        raise ValueError("batch is empty")
    x = np.stack(features)
    head = []
    for i in range(len(plan), len(net.cfg.layers)):
        spec = net.cfg.layers[i]
        if spec.kind == "dense":
            w, b = net.params[i]
            a, bits = _activate(gemm(x, w.T) + b, spec.activation)
            head.append((i, x, bits))
            x = a
        # softmax_xent: loss layer, logits pass through
    return x, _Caches(plan, trunk, head)


def forward(net: Network, batch) -> tuple[np.ndarray, _Caches]:
    """Run the batch; returns (logits (B, classes), caches for ``backward``).

    The trunk (conv and pool layers up to the flatten) runs one sample
    at a time, so each sample's activations stay small enough for the
    cache; the flattened features are stacked into (B, features) and
    every dense layer of the head runs once for the whole batch.
    """
    return _forward_with(net, batch, _trunk_plan, _trunk_forward)


def _trunk_backward(net: Network, plan: tuple, cache: list, d: np.ndarray, grads) -> None:
    """One sample's feature error back through its trunk, on the plan
    its forward walked (``_Caches.plan``), popping each layer's cache
    entry as it walks it (the list ends empty).

    The error stays a (channels, cells) array and runs through the
    backward kernels' cores (``grads._filter_grad``, ``_input_grad``,
    ``_unpool``): the geometry, the taps and the cached inputs are what
    this network's own forward produced, so nothing is checked again
    and no ``HexTensor`` is built.  A max pool that applied a relu
    applies its derivative before the unpool.

    A conv whose step has window blocks computed only its max pool's
    window array, and its backward runs on that array too: the pool puts
    each window's error at its winning tap of a zeroed
    (filters, taps*windows) error (``grads._unpool_windows``), and the
    conv's filter and input gradients run over the forward's own blocks.
    The cells no window reads, whose error is zero, are never
    multiplied, so an input cell that only they read reaches no gradient:
    a NaN there leaves the loss and every gradient finite.  The filter
    gradient's product then has fewer columns than over every cell, which
    can move its last bits.

    A max pool's taps were taken on the pre-activation, so in a window
    whose maximum is <= 0 the tap can differ from the one the unfused
    order, ``maxpool(relu(z))``, takes; the error there is zero either
    way.  The one difference that can show is the sign of a gradient
    entry that is exactly zero."""
    while cache:
        i = len(cache) - 1
        spec, side, _, windows = plan[i]
        channels = net.shapes[i][2]  # the layer's input
        if spec.kind == "flatten":
            cache.pop()
            d = d.reshape(channels, -1)
        elif spec.kind in ("hexmaxpool", "hexavgpool"):
            taps, bits = cache.pop() or (None, None)  # an average pool caches None
            if bits is not None:
                d = _relu_grad(d, bits)
            if i and plan[i - 1][3] is not None:  # its conv computed only its windows
                d = _unpool_windows(d, taps, cell_count(spec.window))
            else:
                d = _unpool(d, taps, tap_gather(side, spec.window, spec.stride), cell_count(side))
        else:  # hexconv
            x, bits = cache.pop()
            if bits is not None:
                d = _relu_grad(d, bits)
            blocks = _blocks(side, spec.window, spec.stride, ops.PATCH_BLOCK) if windows is None else windows
            gw, gb = grads[i]
            dw, db = _filter_grad(x.data, d, blocks)
            gw += dw
            gb += db
            del x, bits  # released before the input gradient is built
            if i > 0:
                d = _input_grad(d, net.params[i].weights, blocks, cell_count(side))


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
    ``trunk_backward(net, plan, cache, d, grads)`` walks one sample's
    feature error back through its trunk cache on the forward's plan,
    emptying the cache, and adds to the conv gradients.  Consumes
    ``caches``; every check runs first."""
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
        trunk_backward(net, caches.plan, trunk.pop(), row, grads)
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
    is alive during the update.  A ``tc`` that is not a ``TrainConfig``
    raises ``ValueError`` before any product runs."""
    lr = _learning_rate(tc)
    loss, grads = backward(net, *forward(net, batch), labels)
    apply_gradients(net, grads, lr)
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
    """The network of ``cfg`` with the parameters saved at ``path``; a
    file that is not a whole HXM1 checkpoint of that config, or bytes
    after its last array, raise ``ValueError`` naming the path."""
    net = build_network(cfg)  # checks the config first
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
            if len(raw) - off < size * 8:
                raise ValueError(f"{path}: truncated checkpoint")
            arrays.append(np.frombuffer(raw, dtype="<f8", count=size, offset=off).astype("=f8"))
            off += size * 8
    except struct.error:
        raise ValueError(f"{path}: truncated checkpoint") from None
    if off != len(raw):
        raise ValueError(f"{path}: {len(raw) - off} bytes after the last parameter array")
    expected = list(_param_arrays(net))
    if len(arrays) != len(expected) or any(a.size != e.size for a, e in zip(arrays, expected)):
        raise ValueError(f"{path}: parameter arrays do not match the config")
    it = iter(arrays)
    for i, p in enumerate(net.params):
        if p is not None:
            w = next(it).reshape(_arrays(p)[0].shape)
            net.params[i] = _with_arrays(p, w, next(it))
    return net


def make_two_class_dataset(rng, n: int, side: int, channels: int = 1, separation: float = 1.0):
    """Gaussian clutter; class 1 adds a constant shift, ``separation``, a
    finite real number, to every cell."""
    check_int(channels, "channels")
    _finite_real(separation, "separation")
    cellcount = cell_count(side)
    labels = rng.integers(0, 2, size=check_int(n, "sample count"))
    tensors = []
    for y in labels:
        data = rng.normal(0.0, 0.5, size=(channels, cellcount)) + separation * float(y)
        tensors.append(HexTensor(side, channels, data))
    return tensors, labels
