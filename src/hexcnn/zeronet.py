"""The same networks realized on the ZeroOut parallelogram embedding.

Every layer keeps its activations, cached conv inputs and errors in
flat (channels, group*(2L-1)**2) float64 arrays: ``zeroout``'s one
embedding (``_to_rect``), row major, once for each sample of the group
the native trunk runs side by side (``nn._group_size``), so they are the
native trunk's (channels, group*cells) arrays with more cells.  The
input, pool outputs and the flatten's error enter through that
zero-fill scatter, done for the whole group (``_embed``), and the
flatten reads the hexagons back through their flat offsets
(``_group_hex``, ``_hex_flat`` once a sample).  Convolution multiplies
the zeroed corner taps like a genuine hexagon-imitation framework
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
per-group trunk to ``nn``'s batch driver, which cuts the batch into
groups and runs the head once per batch; the finite-difference tests
and the manual-composition test check that head on their own.

The layouts differ in their tables, filters and masks, not in their
code.  A conv's tables are the k-by-k windows of the embedding
(``_rect_table``), tap major, laid out for the group and split into
``ops.PATCH_BLOCK``-patch blocks by the plan (``_trunk_plan``), or for
one sample by ``_rect_blocks`` (``_rect_conv_all``); its
filter is the bank packed into corner-zeroed rectangles, once, on the
bank's first use (``_packed``).  On those, the native kernels' cores
run unchanged: the forward is ``ops._product`` (one ``ops.window_columns``
gather and one ``matmul.gemm`` per block and chunk of channels), the
filter gradient is ``grads._filter_grad``, of which only the hexagon
taps are kept, and the input gradient is ``grads._input_grad``'s col2im,
then ``hex_mask``.  Pools run through ``ops._pool`` and
``grads._unpool`` on ``tap_gather``'s table addressed on the embedding
(``_hex_windows``).  The trunk walks its own plan (``_trunk_plan``),
built by the native trunk's ``nn._trunk_steps`` on this layout's
tables, so both layouts make the same decisions.  A conv that feeds a
max pool with disjoint windows computes only those windows' cells
(``ops._conv_windows``): they are hexagon cells, where ``hex_mask`` is
1, so the rectangular anchors off the pool's windows, the corner
anchors among them, are never computed.  Its window matrix is gathered
from each pool window's receptive field on the embedding, 23 cells for
a side-2 pool under the 3-by-3 rectangle's 63 (tap, cell) pairs
(``ops._fields``), the same code as the native trunk's on this layout's
tables.  Its backward runs on the same
blocks, which the forward's plan carries to it: the pool puts its error
at its winning taps of the window array (``grads._unpool_windows``),
then ``grads._filter_grad`` and ``grads._input_grad`` run over the
window cells alone.  So an input cell that only the dropped anchors
read, through any of their k-by-k taps, reaches neither the loss nor a
gradient, NaN included.  Every product is metered like the native
path's; an unfused conv's input gradient does the MACs of a forward
over every rectangular anchor.

Each layer applies its plan step's activation, as the native trunk
does: a relu conv right before a max pool leaves its relu to the pool,
which applies it to its pooled output only.  The backward cache holds
what the native trunk's does: a conv keeps its embedded input (at
layer 0 the group's own tensors, embedded again by the backward, one
block of samples at a time when the conv is fused, except in a group of
one sample, which keeps its embedding: embedding a large input again
slowed the step more than its memory was worth) and, when
it applies relu, the packed bits of ``z > 0`` for its hex-masked output
``z`` (from ``nn._activate``, one bit a value), never the float64
pre-activation; a max pool keeps the winning taps ``ops._pool``
returns, rows of its window table, one byte each as the native pool's,
and the packed bits of its pooled output when it applies relu; an
average pool and the flatten keep None, since their sizes are in
``net.shapes``.  ``nn._backward_with`` hands ``_trunk_backward`` each
group's cache list and the plan its forward walked; it pops every
entry as it walks it and drops a conv's input once its filter gradient
is formed.

Used as the cross-layout oracle for training trajectories and as the
baseline side of the training benchmark.
"""

from __future__ import annotations

import weakref
from functools import lru_cache

import numpy as np

from .grads import _filter_grad, _input_grad, _unpool, _unpool_windows
from .grid import cells
# gemm is bound here, unused, for the benchmark tracer, which patches
# every binding of the functions it wraps
from .matmul import gemm  # noqa: F401
from .nn import (
    Network, TrainConfig, _activate, _backward_with, _block_inputs, _columns, _forward_with, _group_input,
    _learning_rate, _relu_grad, _rows, _trunk_steps, apply_gradients,
)
from . import ops
from .ops import HexFilterBank, _pool, _split, tap_gather
from .zeroout import ZeroOutFilterBank, _hex_flat, hex_mask, zeroout_filter

__all__ = ["forward_zeroout", "backward_zeroout", "train_step_zeroout"]


def _rect_table(span: int, k: int, stride: int) -> np.ndarray:
    """Every k-by-k window of a flat span-by-span array as a tap-major
    (taps, patches) table, taps column major within the window, anchors
    row major."""
    anchors = np.arange((span - k) // stride + 1) * stride
    taps = np.arange(k)
    return (taps[:, None] + taps * span).reshape(-1, 1) + (anchors[:, None] * span + anchors).ravel()


@lru_cache(maxsize=16)  # bounded, as ops._blocks is
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


@lru_cache(maxsize=16)  # bounded, as nn._trunk_plan is
def _trunk_plan(layers: tuple, shapes: tuple, block: int, group: int) -> tuple:
    """``nn._trunk_steps`` on the embedding: the rectangular conv's
    window table (``_rect_table``) and the pool's windows
    (``_hex_windows``), for ``group`` embeddings side by side.  A fused
    conv's cells are hexagon cells, where ``hex_mask`` is 1, so its
    product there needs no mask."""

    def conv_table(side, window, stride):
        return _rect_table(2 * side - 1, 2 * window - 1, stride)

    return _trunk_steps(layers, shapes, conv_table, _hex_windows, _span_cells, block, group)


def _span_cells(side: int) -> int:
    """Cells of a side-L hexagon's flat embedding, (2L-1)**2."""
    return (2 * side - 1) ** 2


@lru_cache(maxsize=None)
def _group_hex(side: int, group: int) -> np.ndarray:
    """The flat offsets of the hexagon's cells (``_hex_flat``) in each of
    ``group`` embeddings laid side by side (``ops._stack``): sample
    major, in hex storage order; read-only."""
    g = ops._stack(_hex_flat(side), _span_cells(side), group)
    g.setflags(write=False)
    return g


def _embed(values: np.ndarray, side: int, group: int) -> np.ndarray:
    """``_to_rect`` of a group: (channels, group*cells) hexagon values,
    samples side by side, on ``group`` zeroed flat embeddings side by
    side."""
    out = np.zeros((values.shape[0], group * _span_cells(side)))
    out[:, _group_hex(side, group)] = values
    return out


def _embed_tensors(tensors) -> np.ndarray:
    """``_embed`` of a group of input tensors, each its own sample."""
    return _embed(_group_input(tensors), tensors[0].side, len(tensors))


def _mask(z: np.ndarray, side: int) -> None:
    """Zero, in place, the cells off the hexagon of each embedding of the
    (channels, group*(2L-1)**2) array ``z``."""
    embeddings = z.reshape(z.shape[0], -1, _span_cells(side))  # a view
    embeddings *= hex_mask(side).ravel()


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
    return _forward_with(net, batch, "ZeroOut", _trunk_plan, _trunk_forward)


def _trunk_forward(net: Network, plan: tuple, tensors: tuple):
    group = len(tensors)
    x, win, cache = _embed_tensors(tensors), None, []  # win: a fused conv's window array
    for i, (spec, side, act, fused, table) in enumerate(plan[:-1]):
        out_side = plan[i + 1][1]
        if spec.kind == "hexconv":
            zbank, w = _packed(net.params[i])
            if fused:  # its activation is identity: the pool applies the relu
                inputs = _block_inputs(x, table.samples, _span_cells(side))
                win, bits = ops._conv_windows(inputs, w, zbank.bias, table), None
            else:
                z = ops._product(x, w, zbank.bias, table)
                _mask(z, out_side)
                a, bits = _activate(z, act)
                del z  # not live beside the next conv's output
            # a group's first conv keeps the group's tensors, embedded again
            # by the backward; a single sample's keeps its embedding
            cache.append((tensors if i == 0 and group > 1 else x, bits))
            if not fused:
                x = a
        else:  # a pool
            if win is None:
                win = np.take(x, table, axis=1)
            out, taps = _pool(win, spec.kind, net.shapes[i][2])
            out, bits = _activate(out, act)
            # a max pool's winning taps, as ops.maxpool's, and relu bits; None for a mean
            cache.append(None if taps is None else (taps, bits))
            x, win = _embed(out, out_side, group), None
    cache.append(None)  # the flatten
    return _rows(x[:, _group_hex(plan[-1][1], group)], group), cache


def _trunk_backward(net: Network, plan: tuple, cache, d, grads) -> None:
    group = len(d)
    while cache:
        i = len(cache) - 1
        spec, side, _, fused, table = plan[i]
        channels = net.shapes[i][2]  # the layer's input
        if spec.kind == "flatten":
            cache.pop()
            d = _embed(_columns(d, channels), side, group)
        elif spec.kind in ("hexmaxpool", "hexavgpool"):
            d = d[:, _group_hex(plan[i + 1][1], group)]
            taps, bits = cache.pop() or (None, None)  # an average pool caches None
            if bits is not None:
                d = _relu_grad(d, bits)
            if fused:
                d = _unpool_windows(d, taps, plan[i - 1][4])
            else:
                d = _unpool(d, taps, table, group * _span_cells(side))
        else:  # hexconv
            x, bits = cache.pop()
            if bits is not None:
                d = _relu_grad(d, bits)
            k = 2 * spec.window - 1
            # over every rectangular anchor (the error is zero off the
            # hexagon, so extra anchors contribute nothing), or the
            # forward's field blocks at the pool's windows, each block
            # reading its own samples (at layer 0 of a group, its tensors,
            # embedded one block at a time)
            if fused:
                inputs = _block_inputs(x, table.samples, _span_cells(side), _embed_tensors)
                dw, db = _filter_grad(inputs, d, table.blocks, table.rows)
                del inputs  # a generator, which holds x
                table = table.composed  # which the input gradient scatters through
            else:
                dw, db = _filter_grad(_embed_tensors(x) if i == 0 and group > 1 else x, d, table)
            dw = dw.reshape(d.shape[0], channels, k, k).transpose(0, 1, 3, 2)
            uv = cells(spec.window)  # only hexagon taps: the corners stay frozen
            gw, gb = grads[i]
            gw += dw[:, :, uv[:, 0], uv[:, 1]]
            gb += db
            del x, bits, dw  # released before the input gradient is built
            if i > 0:
                w = _packed(net.params[i])[1].reshape(d.shape[0], channels, -1)  # as HexFilterBank.weights
                d = _input_grad(d, w, table, group * _span_cells(side))
                _mask(d, side)


def backward_zeroout(net: Network, logits, caches, labels):
    """``nn.backward`` with each group's trunk walked back on the
    embedded layout; the gradients come out in the hex layout.  Caches
    from ``nn.forward`` raise ``ValueError``."""
    return _backward_with(net, logits, caches, labels, "ZeroOut", _trunk_backward)


def train_step_zeroout(net: Network, batch, labels, tc: TrainConfig) -> float:
    """SGD step driven entirely by the embedded kernels; ``tc`` is
    checked first, as in ``nn.train_step``."""
    lr = _learning_rate(tc)
    loss, grads = backward_zeroout(net, *forward_zeroout(net, batch), labels)
    apply_gradients(net, grads, lr)
    return loss
