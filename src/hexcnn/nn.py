"""Layered networks on hexagonal tensors: configs, shape inference,
forward/backward, SGD training, presets, and checkpoints.

Conv and pool layers run on the hexagonal kernels; after a flatten the
dense head works exactly like any rectangle-based network.  The trunk
(conv and pool layers up to and including the flatten) runs a few
samples at a time, laid side by side along the cell axis as one
(channels, group*cells) array, so each layer of a group is one gather,
one product per block and one pool.  The group holds as many samples
as keep the largest array one sample builds in a layer (a conv's output
or window array, or a pool's window array) within ``ops.GROUP_BYTES``,
and at least one (``_group_size``), so a group's activations stay small
enough for the cache; a group of one runs one sample's own arrays.  The
flattened features are stacked into a (batch, features) matrix, so
every dense layer, the softmax cross-entropy and their gradients are
one batched product each; the dense layers' weight gradients are formed
after the trunk's backward, so none is live at its peak, and SGD writes
each update into the gradient array it consumes.  A group's products
sum over more columns than one sample's, so a group's results can
differ from a sample's in the last bits.  Each layout walks a trunk
plan decided once per network, block size and group size
(``_trunk_steps``, cached by ``_trunk_plan``): a max pool right after a
relu conv applies that conv's relu to its pooled output, so the relu
and its derivative run on the pooled cells only, with the same bits;
and when that pool's windows share no cell (hexlenet5's stride-3
side-2 pools), the conv computes only the cells the pool reads, in the
pool's window order, and its backward runs on the same cells: the
forward's plans ride in the caches (``_Caches.groups``).  Such a conv
gathers each pool window's receptive field once, 19 input cells for
hexlenet5's side-2 conv and pool where the composed table reads 49
(tap, cell) pairs, and lays its window matrix out from them
(``ops._fields``), in blocks of whole samples.  The pooled
values and the conv's gradients can differ from the public kernels
composed over every output cell in the last bits, since BLAS may round
a column differently in a product of fewer columns.  The conv outputs
no pool window reads are never computed, so an input cell that only
they read reaches nothing: a NaN there leaves the loss and every
gradient finite, on both layouts.  Training is plain SGD with a fixed
update order, so a fixed seed reproduces the same trajectory bit for
bit.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import struct
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import islice
from pathlib import Path

import numpy as np

from . import ops
from .grads import _filter_grad, _input_grad, _unpool, _unpool_windows
from .grid import HexTensor, cell_count, check_int, check_tensor
from .matmul import gemm
# conv_valid is bound here, unused, for the benchmark tracer, which
# patches each binding of a public kernel
from .ops import HexFilterBank, conv_valid, tap_gather, valid_geometry  # noqa: F401

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


def _trunk_steps(layers, shapes, conv_table, pool_table, cells, block: int, group: int) -> tuple:
    """The trunk of ``layers`` (conv and pool layers up to and including
    the flatten) as one ``(spec, input side, activation, fused, table)``
    step per layer, for ``group`` samples laid side by side; ``shapes``
    are the network's.

    Max commutes with relu, so a relu conv whose next layer is a max pool
    applies identity and that pool applies the relu, to its pooled cells
    only: ``relu(maxpool(z))`` in place of ``maxpool(relu(z))``.  Both
    give the same bits, NaN included, since ``np.maximum(z, 0.0)`` maps
    -0.0 to +0.0 and passes NaN through.  Every other conv applies its
    own activation, and every other layer identity.

    ``fused`` is set on a conv whose next layer is a max pool with
    disjoint windows, and on that pool: the conv computes only the cells
    the pool reads, as the pool's window array (``ops._conv_windows``),
    and the pool gathers nothing.  A conv's ``table`` is its window table,
    ``conv_table(side, window, stride)``, laid out for the group
    (``ops._stack``, one sample's array ``cells(side)`` wide) and split
    into ``block``-patch (slice, table) pairs (``ops._split``); when fused,
    it is that table's receptive fields at the pool's windows,
    ``pool_table(side, window, stride)`` (``ops._fields``: the field
    tables in blocks of whole samples, the one map from (tap, pool cell)
    pairs to field rows, and, past layer 0, the composed table that the
    input gradient scatters through).  A pool's table is its window
    table laid out for the group, or None when fused; the flatten's
    None."""
    trunk = layers[: _head_start(layers)]
    steps = []
    for i, spec in enumerate(trunk):
        side, act, fused, table = shapes[i][1], "identity", False, None
        if spec.kind == "hexconv":
            g = conv_table(side, spec.window, spec.stride)
            pool = trunk[i + 1]  # the flatten ends the trunk
            if pool.kind == "hexmaxpool":
                windows = pool_table(shapes[i + 1][1], pool.window, pool.stride)
                fused = np.unique(windows).size == windows.size  # else the conv would compute shared cells twice
            else:
                act = spec.activation
            if fused:  # layer 0 runs no input gradient, so it needs no composed table
                table = ops._fields(g, windows, cells(side), group, block, i > 0)
            else:
                table = ops._split(ops._stack(g, cells(side), group), block)
        elif spec.kind != "flatten":  # a pool
            if spec.kind == "hexmaxpool" and i > 0 and trunk[i - 1].kind == "hexconv":
                act, fused = trunk[i - 1].activation, steps[-1][3]
            if not fused:
                table = ops._stack(pool_table(side, spec.window, spec.stride), cells(side), group)
        steps.append((spec, side, act, fused, table))
    return tuple(steps)


# bounded, as resample's plans are: each block and group size a network
# runs at holds its own tables
@lru_cache(maxsize=16)
def _trunk_plan(layers: tuple, shapes: tuple, block: int, group: int) -> tuple:
    """``_trunk_steps`` on the hexagon: the conv's window table
    (uncached, as in ``ops._blocks``) and the pool's ``tap_gather``
    table.  ``_forward_with`` looks it up once per group size and batch,
    at the ``ops.PATCH_BLOCK`` of the call."""
    return _trunk_steps(layers, shapes, tap_gather.__wrapped__, tap_gather, cell_count, block, group)


def _sample_bytes(plan: tuple, shapes) -> int:
    """The bytes of the largest array one sample builds in a layer of the
    one-sample ``plan``, all float64: a fused conv's window array
    (filters x pool window cells x windows, from ``shapes``), an unfused
    conv's output (the patches of its blocks, which count the cells of
    its layout) or an unfused pool's window array."""
    values = [0]
    for i, (spec, _, _, fused, table) in enumerate(plan):
        if spec.kind == "hexconv" and fused:
            values.append(shapes[i + 1][2] * cell_count(plan[i + 1][0].window) * cell_count(shapes[i + 2][1]))
        elif spec.kind == "hexconv":
            last, tail = table[-1]
            values.append(shapes[i + 1][2] * (last.start + tail.shape[1]))
        elif table is not None:
            values.append(shapes[i][2] * table.size)
    return 8 * max(values)


def _group_size(plan: tuple, shapes) -> int:
    """How many samples the trunk runs side by side: as many as keep
    ``_sample_bytes`` of the one-sample ``plan`` within
    ``ops.GROUP_BYTES``, and at least one."""
    return max(1, ops.GROUP_BYTES // max(1, _sample_bytes(plan, shapes)))


def _group_input(tensors) -> np.ndarray:
    """The group's inputs side by side, a (channels, group*cells) array;
    a group of one's own array."""
    if len(tensors) == 1:
        return tensors[0].data
    return np.concatenate([t.data for t in tensors], axis=1)


def _block_inputs(x, samples: int, cells: int, load=_group_input):
    """The input of each block of a fused conv (``ops._fields``), lazily:
    runs of ``samples*cells`` columns of the group's (channels,
    group*cells) array ``x``, or, where ``x`` is the group's own tensors
    (layer 0's cache entry), each block's tensors joined by ``load``, so
    a block of one sample reads that sample's own array."""
    if isinstance(x, tuple):
        return (load(x[j : j + samples]) for j in range(0, len(x), samples))
    return (x[:, j : j + samples * cells] for j in range(0, x.shape[1], samples * cells))


def _rows(x: np.ndarray, group: int) -> np.ndarray:
    """The (channels, group*cells) array ``x`` as one flat feature row a
    sample, (group, channels*cells): a view for a group of one."""
    return x.reshape(x.shape[0], group, -1).transpose(1, 0, 2).reshape(group, -1)


def _columns(d: np.ndarray, channels: int) -> np.ndarray:
    """``_rows``' inverse: (group, channels*cells) rows as a
    (channels, group*cells) array."""
    return d.reshape(len(d), channels, -1).transpose(1, 0, 2).reshape(channels, -1)


def _trunk_forward(net: Network, plan: tuple, tensors: tuple):
    """A group of samples through the trunk ``plan`` (``_trunk_plan`` at
    the group's size): their (group, features) rows and the group's
    cache, one entry per layer holding only what ``_trunk_backward``
    reads.

    The group runs as one (channels, group*cells) array, its samples
    side by side along the cell axis, through tables laid out for it
    (``ops._stack``): one gather, one product per block and one pool a
    layer.  Each layer applies its step's activation.  A fused conv
    computes only the cells the max pool after it reads, as the pool's
    window array (``ops._conv_windows``), each block of whole samples
    gathering its windows' fields from those samples' columns
    (``_block_inputs``); the pool then takes its max with no gather.
    Every other conv runs ``ops._product`` over its
    blocks, and every other pool gathers its windows; both pool kinds
    reduce them in ``ops._pool``.  A conv keeps its input (the group's
    own tensors at layer 0, which the backward reads a block at a time
    when the conv is fused and joins again otherwise, so no joined copy
    is cached) and its packed relu bits (None when it applies
    identity, as every conv before a max pool does), never its output; a
    max pool its one-byte winning taps, taken on its input as it comes
    (a pre-activation when it applies the relu of the conv before it),
    and its packed relu bits or None; an average pool and the flatten
    None, since their sizes are in ``net.shapes``."""
    x, win, cache = _group_input(tensors), None, []  # win: a fused conv's window array
    for i, (spec, side, act, fused, table) in enumerate(plan[:-1]):
        if spec.kind == "hexconv":
            bank = net.params[i]
            w = bank.weights.reshape(bank.filters, -1)
            if fused:  # its activation is identity: the pool applies the relu
                inputs = _block_inputs(x, table.samples, cell_count(side))
                win, bits = ops._conv_windows(inputs, w, bank.bias, table), None
            else:
                out, bits = _activate(ops._product(x, w, bank.bias, table), act)
            cache.append((tensors if i == 0 else x, bits))
            if not fused:
                x = out
        else:  # a pool
            if win is None:
                win = np.take(x, table, axis=1)
            out, taps = ops._pool(win, spec.kind, net.shapes[i][2])
            out, bits = _activate(out, act)
            cache.append(None if taps is None else (taps, bits))
            x, win = out, None
    cache.append(None)  # the flatten
    return _rows(x, len(tensors)), cache


@dataclass(frozen=True, eq=False)
class _Caches:
    """What ``forward`` keeps for ``backward``: the layout that made
    them (``"native"`` or ``"ZeroOut"``); per group of samples, the trunk
    plan its forward walked and its size, so the backward runs on the
    same tables without a second lookup at a ``PATCH_BLOCK`` that may
    have changed; per group, a list of one trunk cache entry per trunk
    layer; per dense layer of the head, its index, its (B, in) inputs and
    the packed relu bits of its (B, units) output (None for identity).
    ``backward`` consumes the lists, popping each entry as it walks it,
    so the caches serve one ``backward`` only."""

    layout: str
    groups: list
    trunk: list
    head: list

    def __len__(self) -> int:
        return sum(n for _, n in self.groups)


def _forward_with(net: Network, batch, layout: str, trunk_plan, trunk_forward) -> tuple[np.ndarray, _Caches]:
    """``forward`` with a layout's trunk passed in: ``trunk_plan(layers,
    shapes, block, group)``, looked up once per group size and batch at
    the current ``ops.PATCH_BLOCK``, and ``trunk_forward(net, plan,
    tensors)``, which returns a group's (group, features) rows and its
    trunk cache.  The batch runs in groups of ``_group_size`` samples,
    the last one shorter when they do not divide it; ``layout`` names the
    layout in the caches.  The dense head is the same algebra on every
    layout.  A batch that is not a sequence (one ``HexTensor``, say), an
    empty batch, or an item that is not a float64 ``HexTensor`` of the
    input's shape, raises ``ValueError``: the network's parameters are
    float64, and a float32 item would be promoted silently."""
    try:
        items = iter(batch)
    except TypeError:  # one HexTensor, say, which is not a batch of one
        raise ValueError(f"batch must be a sequence of HexTensors, got {type(batch).__name__}") from None
    layers, shapes, block = net.cfg.layers, tuple(net.shapes), ops.PATCH_BLOCK
    size = _group_size(trunk_plan(layers, shapes, block, 1), shapes)
    features, groups, trunk = [], [], []
    for first in items:  # a group: this item and up to size - 1 more, in a tuple of its exact size
        tensors = (first, *islice(items, size - 1))
        for t in tensors:
            check_tensor(t, "batch items")
            if t.side != net.cfg.input_side or t.channels != net.cfg.input_channels:
                raise ValueError("batch input does not match the network config")
            if t.dtype != np.float64:
                raise ValueError(f"batch items must be float64, the network's dtype, got {t.dtype}")
        plan = trunk_plan(layers, shapes, block, len(tensors))
        x, cache = trunk_forward(net, plan, tensors)
        features.append(x)
        groups.append((plan, len(tensors)))
        trunk.append(cache)
    if not trunk:
        raise ValueError("batch is empty")
    x = np.concatenate(features)
    head = []
    for i in range(len(plan), len(layers)):
        spec = layers[i]
        if spec.kind == "dense":
            w, b = net.params[i]
            a, bits = _activate(gemm(x, w.T) + b, spec.activation)
            head.append((i, x, bits))
            x = a
        # softmax_xent: loss layer, logits pass through
    return x, _Caches(layout, groups, trunk, head)


def forward(net: Network, batch) -> tuple[np.ndarray, _Caches]:
    """Run the batch; returns (logits (B, classes), caches for ``backward``).

    The trunk (conv and pool layers up to the flatten) runs a few
    samples at a time, side by side: as many as keep the largest array
    one sample builds in a layer within ``ops.GROUP_BYTES``, so each
    group's activations stay small enough for the cache.  The flattened
    features are stacked into (B, features) and every dense layer of the
    head runs once for the whole batch.
    """
    return _forward_with(net, batch, "native", _trunk_plan, _trunk_forward)


def _trunk_backward(net: Network, plan: tuple, cache: list, d: np.ndarray, grads) -> None:
    """A group's (group, features) error back through its trunk, on the
    plan its forward walked (``_Caches.groups``), popping each layer's
    cache entry as it walks it (the list ends empty).

    The error stays a (channels, group*cells) array and runs through the
    backward kernels' cores (``grads._filter_grad``, ``_input_grad``,
    ``_unpool``) over the plan's tables: the geometry, the taps and the
    cached inputs are what this network's own forward produced, so
    nothing is checked again and no ``HexTensor`` is built.  A conv's
    filter gradient is one product a block over the whole group.  A max
    pool that applied a relu applies its derivative before the unpool.

    A fused conv computed only its max pool's window array, and its
    backward runs on that array too: the pool puts each window's error
    at its winning tap of a zeroed error laid out as that array
    (``grads._unpool_windows``), and the conv's filter gradient reads
    the forward's field blocks, at layer 0 from each block's own
    tensors, with no joined copy of the group; its input gradient
    scatters through the composed table.  The cells no window
    reads, whose error is zero, are never multiplied, so an input cell
    that only they read reaches no gradient: a NaN there leaves the loss
    and every gradient finite.  The filter gradient's product then has
    fewer columns than over every cell, which can move its last bits.

    A max pool's taps were taken on the pre-activation, so in a window
    whose maximum is <= 0 the tap can differ from the one the unfused
    order, ``maxpool(relu(z))``, takes; the error there is zero either
    way.  The one difference that can show is the sign of a gradient
    entry that is exactly zero."""
    group = len(d)
    while cache:
        i = len(cache) - 1
        spec, side, _, fused, table = plan[i]
        channels = net.shapes[i][2]  # the layer's input
        if spec.kind == "flatten":
            cache.pop()
            d = _columns(d, channels)
        elif spec.kind in ("hexmaxpool", "hexavgpool"):
            taps, bits = cache.pop() or (None, None)  # an average pool caches None
            if bits is not None:
                d = _relu_grad(d, bits)
            if fused:
                d = _unpool_windows(d, taps, plan[i - 1][4])
            else:
                d = _unpool(d, taps, table, group * cell_count(side))
        else:  # hexconv
            x, bits = cache.pop()
            if bits is not None:
                d = _relu_grad(d, bits)
            if fused:  # layer 0's blocks read their own samples' tensors
                dw, db = _filter_grad(_block_inputs(x, table.samples, cell_count(side)), d, table.blocks, table.rows)
                table = table.composed  # which the input gradient scatters through
            else:
                dw, db = _filter_grad(x if i else _group_input(x), d, table)
            gw, gb = grads[i]
            gw += dw
            gb += db
            del x, bits  # released before the input gradient is built
            if i > 0:
                d = _input_grad(d, net.params[i].weights, table, group * cell_count(side))


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


def _head_backward(net: Network, head: list, d: np.ndarray) -> tuple[np.ndarray, list]:
    """The logits' error back through the dense head, popping each
    layer's cache entry as it walks it; returns the (B, features) error
    and, per dense layer, its index, its (B, units) error and its
    (B, in) inputs, from which ``_dense_grads`` forms its gradients once
    the trunk is done, so that no weight gradient is live at the trunk's
    peak."""
    dense = []
    while head:
        i, x, bits = head.pop()
        if bits is not None:
            d = _relu_grad(d, bits)
        dense.append((i, d, x))
        d = gemm(d, net.params[i][0])
    return d, dense


def _dense_grads(dense: list, grads) -> None:
    """Each dense layer's (weights, bias) gradients from what
    ``_head_backward`` returned, emptying ``dense``."""
    while dense:
        i, d, x = dense.pop()
        grads[i] = (gemm(d.T, x), d.sum(axis=0))


def _backward_with(net: Network, logits, caches: _Caches, labels, layout: str, trunk_backward):
    """``backward`` with a layout's trunk passed in:
    ``trunk_backward(net, plan, cache, d, grads)`` walks one group's
    (group, features) error back through its trunk cache on the plan its
    forward walked, emptying the cache, and adds to the conv gradients.
    Caches from another layout's forward raise ``ValueError``.  Consumes
    ``caches``; every check runs first."""
    if net.cfg.layers[-1].kind != "softmax_xent":
        raise ValueError("backward requires a softmax_xent head")
    if not isinstance(caches, _Caches):
        raise ValueError(f"caches must come from a forward, got {type(caches).__name__}")
    if caches.layout != layout:
        raise ValueError(f"caches come from the {caches.layout} layout's forward, not the {layout} layout's")
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
    d, dense = _head_backward(net, caches.head, d)
    groups, trunk = caches.groups, caches.trunk
    groups.reverse()  # popped from the end: groups in batch order
    trunk.reverse()
    start = 0
    while trunk:
        plan, size = groups.pop()
        trunk_backward(net, plan, trunk.pop(), d[start : start + size], grads)
        start += size
    _dense_grads(dense, grads)
    return loss, grads


def backward(net: Network, logits: np.ndarray, caches: _Caches, labels):
    """Mean cross-entropy loss and gradients for every parameter.

    Softmax cross-entropy and the dense head run once over the batch;
    then each group's rows of the feature error walk back through its
    own trunk, and last the dense layers' weight gradients are formed.
    ``backward`` consumes ``caches``, dropping each layer's entry once
    walked (a conv's input as soon as its filter gradient is formed), so
    a second call on the same caches raises ``ValueError``; so do logits
    that are not (samples, classes) of the caches, and caches from
    ``zeronet.forward_zeroout``.
    """
    return _backward_with(net, logits, caches, labels, "native", _trunk_backward)


def _arrays(p):
    """(weights, bias) of a parameter: a conv layer's bank or a dense pair."""
    return (p.weights, p.bias) if isinstance(p, HexFilterBank) else p


def _with_arrays(p, w, b):
    """A parameter of ``p``'s kind holding weights ``w`` and bias ``b``."""
    return HexFilterBank(p.filter_side, w, b) if isinstance(p, HexFilterBank) else (w, b)


def apply_gradients(net: Network, grads, learning_rate: float) -> None:
    """One SGD update: every parameter array ``w`` becomes ``w -
    learning_rate * g``, written into its gradient array ``g``, with the
    same bits.  It consumes ``grads``, as ``backward`` consumes its
    caches: their arrays become the network's parameters (a conv layer's
    bank copies them).  ``grads`` must hold one entry per layer, None
    exactly where the layer has no parameters, else a (weights, bias)
    pair of writable arrays of the parameters' shapes and dtypes, as
    ``backward`` returns; anything else, or a learning rate that is not
    a finite real number, raises ``ValueError`` before any parameter
    changes."""
    _finite_real(learning_rate, "learning rate")
    if not isinstance(grads, (list, tuple)) or len(grads) != len(net.params):
        raise ValueError(f"grads must be a list of one entry per layer ({len(net.params)})")
    for i, (p, g) in enumerate(zip(net.params, grads)):
        if p is None or g is None:
            if (p is None) != (g is None):
                raise ValueError(f"layer {i}: the gradient must be None exactly where the layer has no parameters")
            continue
        if not (
            isinstance(g, (list, tuple)) and len(g) == 2
            and all(isinstance(a, np.ndarray) and a.shape == w.shape and a.dtype == w.dtype
                    and a.flags.writeable for a, w in zip(g, _arrays(p)))
        ):
            raise ValueError(f"layer {i}: the gradient must be a pair of writable arrays shaped like its parameters")
    for i, g in enumerate(grads):
        if g is not None:
            p = net.params[i]
            for w, a in zip(_arrays(p), g):
                a *= learning_rate
                np.subtract(w, a, out=a)
            net.params[i] = _with_arrays(p, *g)


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
