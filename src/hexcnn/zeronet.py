"""The same networks realized on the ZeroOut parallelogram embedding.

Every layer keeps its activations, cached conv inputs and errors in
flat (channels, (2L-1)**2) float64 arrays: ``zeroout``'s one embedding
(``_to_rect``), row major, so they are the native trunk's (channels,
cells) arrays with more cells.  The input, pool outputs and the
flatten's error enter through that zero-fill scatter, and the flatten
reads the hexagon back through its flat offsets (``_hex_flat``); this
module keeps no embedding of its own.  Convolution multiplies the
zeroed corner taps like a genuine hexagon-imitation framework
(computing every rectangular output cell, not only the hexagonal ones,
except before a max pool with disjoint windows; see below), and corner
weight gradients are masked so the frozen zeros never move.  Cells
outside the embedded hexagon are re-zeroed after each layer, so the
hexagonal cells carry exactly the same values as the native path, up to
floating-point summation order, as long as every value is finite.  A NaN
spreads further here: the zero corner taps multiply it too, and
0 * NaN is NaN, so a NaN input cell reaches output cells whose hexagonal
window does not hold it (a NaN at cell 10 of a side-5 input, under an
all-ones side-2 bank, gives NaN in 2 native output cells and 3 here).
Only the trunk (conv and pool layers up to and including the flatten)
lives here: it is the part that depends on the layout, and it is the
oracle.  After the flatten both layouts run the same dense algebra, so
``forward_zeroout`` and ``backward_zeroout`` hand this module's
per-sample trunk to ``nn``'s batch driver, which runs the head once
per batch; the finite-difference tests and the manual-composition test
check that head on their own.

The layouts differ in their tables, filters and masks, not in their
code.  A conv's tables are the k-by-k windows of the embedding
(``_rect_table``), tap major and split into ``ops.PATCH_BLOCK``-patch
blocks by the native kernels' ``ops._split`` (``_rect_blocks``); its
filter is the bank packed into corner-zeroed rectangles, once, on the
bank's first use (``_packed``).  On those, the native kernels' cores
run unchanged: the forward is ``ops._product`` (one ``ops.window_columns``
gather and one ``matmul.gemm`` per block), and the input gradient is
``grads._input_grad``'s col2im, then ``hex_mask``.  The filter gradient
sums one product per block, as ``grads._filter_grad`` does, and keeps
only the hexagon taps.  Pools run through ``ops._pool`` and
``grads._unpool`` on ``tap_gather``'s table addressed on the embedding
(``_hex_windows``).  The trunk walks its own plan (``_trunk_plan``),
built by the native trunk's ``nn._trunk_steps`` on this layout's
tables, so both layouts make the same decisions.  A conv that feeds a
max pool with disjoint windows computes only those windows' cells
(``ops._conv_windows``): they are hexagon cells, where ``hex_mask`` is
1, so the rectangular anchors off the pool's windows, the corner
anchors among them, are never computed.  Its backward runs on the same
blocks, which the forward's plan carries to it: the pool puts its error
at its winning taps of the window array (``grads._unpool_windows``),
then the filter gradient's block loop and ``grads._input_grad`` run over
the window cells alone.  So an input cell that only the dropped anchors
read, through any of their k-by-k taps, reaches neither the loss nor a
gradient, NaN included.  Every product is metered like the native
path's; an unfused conv's input gradient does the MACs of a forward
over every rectangular anchor.

Each layer applies its plan step's activation, as the native trunk
does: a relu conv right before a max pool leaves its relu to the pool,
which applies it to its pooled output only.  The backward cache holds
what the native trunk's does: a conv keeps its embedded input and, when
it applies relu, the packed bits of ``z > 0`` for its hex-masked output
``z`` (from ``nn._activate``, one bit a value), never the float64
pre-activation; a max pool keeps the winning taps ``ops._pool``
returns, rows of its window table, one byte each as the native pool's,
and the packed bits of its pooled output when it applies relu; an
average pool and the flatten keep None, since their sizes are in
``net.shapes``.  ``nn._backward_with`` hands ``_trunk_backward`` each
sample's cache list and the plan its forward walked; it pops every
entry as it walks it and drops a conv's input once its filter gradient
is formed.

Used as the cross-layout oracle for training trajectories and as the
baseline side of the training benchmark.
"""

from __future__ import annotations

import weakref
from functools import lru_cache

import numpy as np

from .grads import _input_grad, _unpool, _unpool_windows
from .grid import HexTensor, cell_count, cells
from .matmul import gemm
from .nn import (
    Network, TrainConfig, _activate, _backward_with, _forward_with, _learning_rate, _relu_grad, _trunk_steps,
    apply_gradients,
)
from . import ops
from .ops import HexFilterBank, _pool, _split, tap_gather
from .zeroout import ZeroOutFilterBank, _hex_flat, _to_rect, hex_mask, zeroout_filter

__all__ = ["forward_zeroout", "backward_zeroout", "train_step_zeroout"]


def _rect_table(span: int, k: int, stride: int) -> np.ndarray:
    """Every k-by-k window of a flat span-by-span array as a tap-major
    (taps, patches) table, taps column major within the window, anchors
    row major."""
    anchors = np.arange((span - k) // stride + 1) * stride
    taps = np.arange(k)
    return (taps[:, None] + taps * span).reshape(-1, 1) + (anchors[:, None] * span + anchors).ravel()


@lru_cache(maxsize=None)
def _rect_blocks(span: int, k: int, stride: int, block: int):
    """``_rect_table`` split into ``block``-patch (slice, table) pairs
    (``ops._split``); callers pass ``ops.PATCH_BLOCK`` at call time."""
    return _split(_rect_table(span, k, stride), block)


@lru_cache(maxsize=None)
def _hex_windows(side: int, window: int, stride: int) -> np.ndarray:
    """The lattice's pool windows (``tap_gather``, floored) addressed on
    the flat embedding of a side-L hexagon; read-only."""
    g = _hex_flat(side)[tap_gather(side, window, stride)]
    g.setflags(write=False)
    return g


@lru_cache(maxsize=None)
def _trunk_plan(layers: tuple, shapes: tuple, block: int) -> tuple:
    """``nn._trunk_steps`` on the embedding: the rectangular conv's
    window table (``_rect_table``) at the cells of the max pool's windows
    (``_hex_windows``).  Those cells are hexagon cells, where ``hex_mask``
    is 1, so the conv's product there needs no mask."""

    def conv_table(side, window, stride):
        return _rect_table(2 * side - 1, 2 * window - 1, stride)

    return _trunk_steps(layers, shapes, conv_table, _hex_windows, block)


# hex bank -> (packed bank, its filter matrix).  Banks are frozen and
# their arrays read-only, so an entry cannot go stale; it is dropped with
# its bank.
_PACKED = weakref.WeakKeyDictionary()


def _packed(bank: HexFilterBank) -> tuple[ZeroOutFilterBank, np.ndarray]:
    """The bank packed into corner-zeroed rectangles, and its
    (F, C*k*k) filter matrix with taps in the windows' column-major
    order; built on the bank's first use.  The forward multiplies it as
    it is: a reshaped view made per product would be live at the
    product's peak."""
    hit = _PACKED.get(bank)
    if hit is None:
        zbank = zeroout_filter(bank)
        w = zbank.weights.transpose(0, 1, 3, 2).reshape(zbank.filters, -1)
        w.setflags(write=False)
        hit = _PACKED[bank] = (zbank, w)
    return hit


def _rect_conv_all(x: np.ndarray, span: int, bank: HexFilterBank, stride: int) -> np.ndarray:
    """Strided cross-correlation of the flat (C, span*span) array ``x``
    with the packed bank over every rectangular anchor, plus bias: the
    (F, anchors) output (``ops._product``)."""
    zbank, w = _packed(bank)
    blocks = _rect_blocks(span, zbank.span, stride, ops.PATCH_BLOCK)
    return ops._product(x, w, zbank.bias, blocks)


def forward_zeroout(net: Network, batch):
    """``nn.forward`` with the trunk run on the parallelogram embedding."""
    return _forward_with(net, batch, _trunk_plan, _trunk_forward)


def _trunk_forward(net: Network, plan: tuple, t: HexTensor):
    x, win, cache = _to_rect(t.data, t.side), None, []  # win: a conv's output at its max pool's windows
    for i, (spec, side, act, windows) in enumerate(plan[:-1]):
        out_side = plan[i + 1][1]
        if spec.kind == "hexconv":
            if windows is None:
                z = _rect_conv_all(x, 2 * side - 1, net.params[i], spec.stride)
                z *= hex_mask(out_side).ravel()
                a, bits = _activate(z, act)
                del z  # not live beside the next conv's output
            else:  # its activation is identity: the pool applies the relu
                (zbank, w), taps = _packed(net.params[i]), cell_count(plan[i + 1][0].window)
                win = ops._conv_windows(x, w, zbank.bias, windows, taps)
                a = bits = None
            cache.append((x, bits))
            x = a
        else:  # a pool
            if win is None:
                win = np.take(x, _hex_windows(side, spec.window, spec.stride), axis=1)
            out, taps = _pool(win, spec.kind)
            out, bits = _activate(out, act)
            # a max pool's winning taps, as ops.maxpool's, and relu bits; None for a mean
            cache.append(None if taps is None else (taps, bits))
            x, win = _to_rect(out, out_side), None
    cache.append(None)  # the flatten
    return x[:, _hex_flat(plan[-1][1])].ravel(), cache


def _trunk_backward(net: Network, plan: tuple, cache, d, grads) -> None:
    while cache:
        i = len(cache) - 1
        spec, side, _, windows = plan[i]
        channels = net.shapes[i][2]  # the layer's input
        span = 2 * side - 1
        if spec.kind == "flatten":
            cache.pop()
            d = _to_rect(d.reshape(channels, -1), side)
        elif spec.kind in ("hexmaxpool", "hexavgpool"):
            d = d[:, _hex_flat(plan[i + 1][1])]
            taps, bits = cache.pop() or (None, None)  # an average pool caches None
            if bits is not None:
                d = _relu_grad(d, bits)
            if i and plan[i - 1][3] is not None:  # its conv computed only its windows
                d = _unpool_windows(d, taps, cell_count(spec.window))
            else:
                d = _unpool(d, taps, _hex_windows(side, spec.window, spec.stride), span * span)
        else:  # hexconv
            x, bits = cache.pop()
            if bits is not None:
                d = _relu_grad(d, bits)
            k = 2 * spec.window - 1
            # every rectangular anchor (the error is zero off the hexagon,
            # so extra anchors contribute nothing), or the forward's blocks
            # at the pool's windows
            blocks = _rect_blocks(span, k, spec.stride, ops.PATCH_BLOCK) if windows is None else windows
            dw = sum(gemm(d[:, b], ops.window_columns(x, g).T) for b, g in blocks)
            dw = dw.reshape(d.shape[0], channels, k, k).transpose(0, 1, 3, 2)
            uv = cells(spec.window)  # only hexagon taps: the corners stay frozen
            gw, gb = grads[i]
            gw += dw[:, :, uv[:, 0], uv[:, 1]]
            gb += d.sum(axis=1)
            del x, bits  # released before the input gradient is built
            if i > 0:
                w = _packed(net.params[i])[1].reshape(d.shape[0], channels, -1)  # as HexFilterBank.weights
                d = _input_grad(d, w, blocks, span * span)
                d *= hex_mask(side).ravel()


def backward_zeroout(net: Network, logits, caches, labels):
    """``nn.backward`` with each sample's trunk walked back on the
    embedded layout; the gradients come out in the hex layout."""
    return _backward_with(net, logits, caches, labels, _trunk_backward)


def train_step_zeroout(net: Network, batch, labels, tc: TrainConfig) -> float:
    """SGD step driven entirely by the embedded kernels; ``tc`` is
    checked first, as in ``nn.train_step``."""
    lr = _learning_rate(tc)
    loss, grads = backward_zeroout(net, *forward_zeroout(net, batch), labels)
    apply_gradients(net, grads, lr)
    return loss
