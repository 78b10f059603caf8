"""The same networks realized on the ZeroOut parallelogram embedding.

Every layer keeps its activations in plain (channels, 2L-1, 2L-1)
float64 arrays on ``zeroout``'s one embedding: the input enters through
``embed_parallelogram``, pool outputs and the flatten's error re-enter
through the same zero-fill scatter (``_to_rect``), and the flatten reads
the hexagon back through its flat offsets (``_hex_flat``); this module
keeps no embedding of its own.  Convolution multiplies the zeroed corner
taps like a genuine hexagon-imitation framework (computing every
rectangular output cell, not only the hexagonal ones, except before a
max pool with disjoint windows; see below), and corner weight
gradients are masked so the frozen zeros never move.  Cells outside
the embedded hexagon are re-zeroed after each layer, so the
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

The trunk lowers convolution the way the native kernels do, on its own
tables: a cached tap-major (taps, patches) window table, so one
``np.take`` yields a contiguous (channels*k*k, patches) window matrix.
Like the native kernels it builds that matrix for at most
``ops.PATCH_BLOCK`` patches at a time, each block through its own
cached, writable copy of its columns of the table (``_rect_blocks``,
split by the native kernels' ``ops._split``, so ``np.take`` copies no
table on either layout): the forward writes one ``matmul.gemm`` per
block into the block's output columns (``ops._product``, the native
kernels' loop), the filter gradient sums one product per block, and
the col2im input gradient (a ``gemm``, then a per-channel
``np.bincount`` scatter through the same table) adds each block into
the input error before the next block is built.  Pools run through the
native kernels' own ``ops._pool`` and ``grads._unpool``, on
``tap_gather``'s table addressed on the embedding (``_hex_windows``).
The trunk walks its own plan (``_trunk_plan``), built by the native
trunk's ``nn._trunk_steps`` on this layout's tables, so both layouts
make the same decisions.  A conv that feeds a max pool with disjoint
windows computes only those windows' cells, as the native trunk does
(``ops._conv_windows``): they are hexagon cells, where ``hex_mask`` is
1, so the rectangular anchors off the pool's windows, the corner
anchors among them, are never computed.  Every product is metered like
the native path's; the input gradient does the MACs of a forward over
every rectangular anchor.  Each hex filter bank is packed into its
corner-zeroed rectangles once, on first use, not per sample and pass
(``_packed``).

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
sample's cache list, which pops every entry as it walks it and drops a
conv's input once its filter gradient is formed.

Used as the cross-layout oracle for training trajectories and as the
baseline side of the training benchmark.
"""

from __future__ import annotations

import weakref
from functools import lru_cache

import numpy as np

from .grads import _scatter_add, _unpool
from .grid import HexTensor, cell_count, cells
from .matmul import gemm
from .nn import (
    Network, TrainConfig, _activate, _backward_with, _forward_with, _relu_grad, _trunk_steps, apply_gradients,
)
from . import ops
from .ops import HexFilterBank, _pool, _split, tap_gather
from .zeroout import (
    ZeroOutFilterBank, _hex_flat, _to_rect, embed_parallelogram, hex_mask, zeroout_filter,
)

__all__ = ["forward_zeroout", "backward_zeroout", "train_step_zeroout"]


def _rect_table(h: int, w: int, k: int, stride: int) -> np.ndarray:
    """Every k-by-k window of an h-by-w array as a tap-major (taps,
    patches) table, taps column major within the window, anchors row
    major."""
    rows = np.arange((h - k) // stride + 1) * stride * w
    cols = np.arange((w - k) // stride + 1) * stride
    taps = np.arange(k)
    return (taps[:, None] + taps * w).reshape(-1, 1) + (rows[:, None] + cols).ravel()


@lru_cache(maxsize=None)
def _rect_blocks(h: int, w: int, k: int, stride: int, block: int):
    """``_rect_table`` split into ``block``-patch (slice, table) pairs
    (``ops._split``); callers pass ``ops.PATCH_BLOCK`` at call time."""
    return _split(_rect_table(h, w, k, stride), block)


@lru_cache(maxsize=None)
def _hex_windows(side: int, window: int, stride: int) -> np.ndarray:
    """The lattice's pool windows (``tap_gather``, floored) addressed on
    the (2L-1, 2L-1) embedding of a side-L hexagon; read-only."""
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
        span = 2 * side - 1
        return _rect_table(span, span, 2 * window - 1, stride)

    return _trunk_steps(layers, shapes, conv_table, _hex_windows, block)


# hex bank -> (packed bank, its filter matrix).  Banks are frozen and
# their arrays read-only, so an entry cannot go stale; it is dropped with
# its bank.
_PACKED = weakref.WeakKeyDictionary()


def _packed(bank: HexFilterBank) -> tuple[ZeroOutFilterBank, np.ndarray]:
    """The bank packed into corner-zeroed rectangles, and its (F, C*k*k)
    filter matrix with taps in the windows' column-major order; built on
    the bank's first use."""
    hit = _PACKED.get(bank)
    if hit is None:
        zbank = zeroout_filter(bank)
        rows = zbank.weights.transpose(0, 1, 3, 2).reshape(zbank.filters, -1)
        rows.setflags(write=False)
        hit = _PACKED[bank] = (zbank, rows)
    return hit


def _window_matrix(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The (C*k*k, patches) window matrix of a (C, h, w) array over a
    block table ``g`` of ``_rect_blocks``."""
    c = x.shape[0]
    return np.take(x.reshape(c, -1), g, axis=1).reshape(-1, g.shape[1])


def _rect_conv_all(x: np.ndarray, bank: HexFilterBank, stride: int) -> np.ndarray:
    """Strided cross-correlation with the packed bank over every
    rectangular anchor, plus bias (``ops._product``)."""
    zbank, rows = _packed(bank)
    _, h, w = x.shape
    k = zbank.span
    y = ops._product(x, rows, zbank.bias, _rect_blocks(h, w, k, stride, ops.PATCH_BLOCK), _window_matrix)
    return y.reshape(zbank.filters, (h - k) // stride + 1, -1)


def _rect_conv_backward_input(d: np.ndarray, bank: HexFilterBank, stride: int, shape) -> np.ndarray:
    """Adjoint of ``_rect_conv_all``'s window product (col2im): the error
    on a (C, h, w) input; cells no window reaches get zero."""
    c, h, w = shape
    zbank, rows = _packed(bank)
    d = d.reshape(d.shape[0], -1)
    out = np.zeros((c, h * w))
    for b, g in _rect_blocks(h, w, zbank.span, stride, ops.PATCH_BLOCK):
        # (C*k*k, patches in b) window errors, dropped before the next block's
        _scatter_add(out, gemm(rows.T, d[:, b]).reshape(c, -1), g)
    return out.reshape(shape)


def forward_zeroout(net: Network, batch):
    """``nn.forward`` with the trunk run on the parallelogram embedding."""
    return _forward_with(net, batch, _trunk_plan, _trunk_forward)


def _trunk_forward(net: Network, plan: tuple, t: HexTensor):
    x, win, cache = embed_parallelogram(t), None, []  # win: a conv's output at its max pool's windows
    for i, (spec, side, act, windows) in enumerate(plan[:-1]):
        out_side = plan[i + 1][1]
        if spec.kind == "hexconv":
            if windows is None:
                z = _rect_conv_all(x, net.params[i], spec.stride)
                z *= hex_mask(out_side)
                a, bits = _activate(z, act)
                del z  # not live beside the next conv's output
            else:  # its activation is identity: the pool applies the relu
                (zbank, rows), taps = _packed(net.params[i]), cell_count(plan[i + 1][0].window)
                win = ops._conv_windows(x, rows, zbank.bias, windows, taps, _window_matrix)
                a = bits = None
            cache.append((x, bits))
            x = a
        else:  # a pool
            if win is None:
                win = np.take(x.reshape(x.shape[0], -1), _hex_windows(side, spec.window, spec.stride), axis=1)
            out, taps = _pool(win, spec.kind)
            out, bits = _activate(out, act)
            # a max pool's winning taps, as ops.maxpool's, and relu bits; None for a mean
            cache.append(None if taps is None else (taps, bits))
            x, win = _to_rect(out, out_side), None
    cache.append(None)  # the flatten
    return np.ascontiguousarray(x.reshape(x.shape[0], -1)[:, _hex_flat(plan[-1][1])]).ravel(), cache


def _trunk_backward(net: Network, cache, d, grads) -> None:
    while cache:
        i = len(cache) - 1
        spec = net.cfg.layers[i]
        _, side, channels = net.shapes[i]  # the layer's input
        span = 2 * side - 1
        if spec.kind == "flatten":
            cache.pop()
            d = _to_rect(d.reshape(channels, -1), side)
        elif spec.kind in ("hexmaxpool", "hexavgpool"):
            g = _hex_windows(side, spec.window, spec.stride)
            dvals = d.reshape(channels, -1)[:, _hex_flat(net.shapes[i + 1][1])]
            taps, bits = cache.pop() or (None, None)  # an average pool caches None
            if bits is not None:
                dvals = _relu_grad(dvals, bits)
            d = _unpool(dvals, taps, g, span * span).reshape(channels, span, span)
        else:  # hexconv
            x, bits = cache.pop()
            if bits is not None:
                d = _relu_grad(d, bits)
            k = 2 * spec.window - 1
            f = d.shape[0]
            d2 = d.reshape(f, -1)
            # filter gradient over every rectangular anchor (the error is
            # zero off the hexagon, so extra anchors contribute nothing)
            _, h, w = x.shape
            dw = sum(
                gemm(d2[:, b], _window_matrix(x, g).T)
                for b, g in _rect_blocks(h, w, k, spec.stride, ops.PATCH_BLOCK)
            )
            dw = dw.reshape(f, x.shape[0], k, k).transpose(0, 1, 3, 2)
            uv = cells(spec.window)  # only hexagon taps: the corners stay frozen
            gw, gb = grads[i]
            gw += dw[:, :, uv[:, 0], uv[:, 1]]
            gb += d.sum(axis=(1, 2))
            del x, bits  # released before the input gradient is built
            if i > 0:
                d = _rect_conv_backward_input(d, net.params[i], spec.stride, (channels, span, span))
                d *= hex_mask(side)


def backward_zeroout(net: Network, logits, caches, labels):
    """``nn.backward`` with each sample's trunk walked back on the
    embedded layout; the gradients come out in the hex layout."""
    return _backward_with(net, logits, caches, labels, _trunk_backward)


def train_step_zeroout(net: Network, batch, labels, tc: TrainConfig) -> float:
    """SGD step driven entirely by the embedded kernels."""
    loss, grads = backward_zeroout(net, *forward_zeroout(net, batch), labels)
    apply_gradients(net, grads, tc.learning_rate)
    return loss
