"""The same networks realized on the ZeroOut parallelogram embedding.

Every layer keeps its activations in plain (channels, 2L-1, 2L-1)
float64 arrays on ``zeroout``'s one embedding: the input enters through
``embed_parallelogram``, pool outputs and the flatten's error re-enter
through the same zero-fill scatter (``_to_rect``), and the flatten reads
the hexagon back through its flat offsets (``_hex_flat``); this module
keeps no embedding of its own.  Convolution multiplies the zeroed corner
taps like a genuine hexagon-imitation framework (computing all
rectangular output cells, not only the hexagonal ones), and corner
weight gradients are masked so the frozen zeros never move.  Cells
outside the embedded hexagon are re-zeroed after each layer, so the
hexagonal cells carry exactly the same values as the native path, up to
floating-point summation order.
Only the trunk (conv and pool layers up to and including the flatten)
lives here: it is the part that depends on the layout, and it is the
oracle.  After the flatten both layouts run the same dense algebra, so
``forward_zeroout`` and ``backward_zeroout`` hand this module's
per-sample trunk to ``nn``'s batch driver, which runs the head once
per batch; the finite-difference tests and the manual-composition test
check that head on their own.

The trunk lowers convolution the way the native kernels do, in its own
code: a cached tap-major (taps, patches) window table, so one
``np.take`` yields a contiguous (channels*k*k, patches) window matrix.
Like the native kernels it builds that matrix for at most
``ops.PATCH_BLOCK`` patches at a time (``ops.patch_blocks``): the
forward writes one ``matmul.gemm`` per block into the block's output
columns, the filter gradient sums one product per block, and the col2im
input gradient (a ``gemm``, then a per-channel ``np.bincount`` scatter
through the same table) adds each block into the input error before the
next block is built.  Pools run through the native kernels' own
``ops._pool`` and ``grads._unpool``, on ``tap_gather``'s table addressed
on the embedding (``_hex_windows``).  Every product is metered like the
native path's, and the input gradient does exactly the forward
product's MACs.  Each hex filter bank is packed into its corner-zeroed
rectangles once, on first use, not per sample and pass (``_packed``).

The backward cache holds what the native trunk's does: a conv keeps its
embedded input and, for relu, the packed bits of ``z > 0`` for its
hex-masked output ``z`` (from ``nn._activate``, one bit a value), never
the float64 pre-activation; a max pool keeps the winning taps
``ops._pool`` returns, rows of its window table, one byte each as the
native pool's; an average pool and the flatten keep None, since their
sizes are in ``net.shapes``.  ``nn``'s driver hands
``_trunk_backward`` each sample's cache list, which pops every entry as
it walks it and drops a conv's input once its filter gradient is
formed.

Used as the cross-layout oracle for training trajectories and as the
baseline side of the training benchmark.
"""

from __future__ import annotations

import weakref
from functools import lru_cache

import numpy as np

from .grads import _scatter_add, _unpool
from .grid import HexTensor, cells
from .matmul import gemm
from .nn import (
    Network, TrainConfig, _activate, _backward_with, _forward_with, _relu_grad,
    apply_gradients,
)
from .ops import HexFilterBank, _pool, patch_blocks, tap_gather
from .zeroout import (
    ZeroOutFilterBank, _hex_flat, _to_rect, embed_parallelogram, hex_mask, zeroout_filter,
)

__all__ = ["forward_zeroout", "backward_zeroout", "train_step_zeroout"]


@lru_cache(maxsize=None)
def _rect_windows(h: int, w: int, k: int, stride: int) -> np.ndarray:
    """Every k-by-k window of an h-by-w array as a tap-major (taps, patches)
    table, taps column major within the window."""
    rows = np.arange((h - k) // stride + 1) * stride * w
    cols = np.arange((w - k) // stride + 1) * stride
    taps = np.arange(k)
    g = (taps[:, None] + taps * w).reshape(-1, 1) + (rows[:, None] + cols).ravel()
    g.setflags(write=False)
    return g


@lru_cache(maxsize=None)
def _hex_windows(side: int, window: int, stride: int) -> np.ndarray:
    """The lattice's pool windows (``tap_gather``, floored) addressed on
    the (2L-1, 2L-1) embedding of a side-L hexagon; read-only."""
    g = _hex_flat(side)[tap_gather(side, window, stride)]
    g.setflags(write=False)
    return g


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


def _window_matrix(x: np.ndarray, k: int, stride: int, patches: slice) -> np.ndarray:
    """The (C*k*k, len(patches)) window matrix of the windows ``patches``
    of a (C, h, w) array."""
    c, h, w = x.shape
    g = _rect_windows(h, w, k, stride)[:, patches]
    return np.take(x.reshape(c, -1), g, axis=1).reshape(c * k * k, -1)


def _rect_conv_all(x: np.ndarray, bank: HexFilterBank, stride: int) -> np.ndarray:
    """Strided cross-correlation with the packed bank over every
    rectangular anchor, plus bias; one product per block of patches,
    each written into its columns of the output."""
    zbank, rows = _packed(bank)
    k = zbank.span
    out_h = (x.shape[1] - k) // stride + 1
    p = out_h * ((x.shape[2] - k) // stride + 1)
    y = None
    for b in patch_blocks(p):
        cols = _window_matrix(x, k, stride, b)
        if y is None:
            # made after the first take: np.take copies the read-only
            # window table, and that copy is gone by now
            y = np.empty((zbank.filters, p))
        gemm(rows, cols, out=y[:, b])
        del cols  # before the next block's is built
    y += zbank.bias[:, None]
    return y.reshape(zbank.filters, out_h, -1)


def _rect_conv_backward_input(d: np.ndarray, bank: HexFilterBank, stride: int, shape) -> np.ndarray:
    """Adjoint of ``_rect_conv_all``'s window product (col2im): the error
    on a (C, h, w) input; cells no window reaches get zero."""
    c, h, w = shape
    zbank, rows = _packed(bank)
    g = _rect_windows(h, w, zbank.span, stride)
    d = d.reshape(d.shape[0], -1)
    out = np.zeros((c, h * w))
    for b in patch_blocks(g.shape[1]):
        # (C*k*k, patches in b) window errors, dropped before the next block's
        _scatter_add(out, gemm(rows.T, d[:, b]).reshape(c, -1), g[:, b])
    return out.reshape(shape)


def forward_zeroout(net: Network, batch):
    """``nn.forward`` with the trunk run on the parallelogram embedding."""
    return _forward_with(net, batch, _trunk_forward)


def _trunk_forward(net: Network, t: HexTensor, stop: int):
    x = embed_parallelogram(t)
    cache = []
    for i, spec in enumerate(net.cfg.layers[:stop]):
        side, out_side = net.shapes[i][1], net.shapes[i + 1][1]
        if spec.kind == "hexconv":
            z = _rect_conv_all(x, net.params[i], spec.stride)
            z *= hex_mask(out_side)
            a, bits = _activate(z, spec.activation)
            cache.append((x, bits))
            x = a
            del z  # not live beside the next conv's output
        elif spec.kind in ("hexmaxpool", "hexavgpool"):
            g = _hex_windows(side, spec.window, spec.stride)
            out, taps = _pool(x.reshape(x.shape[0], -1), g, spec.kind)
            cache.append(taps)  # the winning taps, as ops.maxpool's; None for a mean
            x = _to_rect(out, out_side)
        else:  # flatten
            cache.append(None)
            x = np.ascontiguousarray(x.reshape(x.shape[0], -1)[:, _hex_flat(side)]).ravel()
    return x, cache


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
            d = _unpool(dvals, cache.pop(), g, span * span).reshape(channels, span, span)
        else:  # hexconv
            x, bits = cache.pop()
            if bits is not None:
                d = _relu_grad(d, bits)
            k = 2 * spec.window - 1
            f = d.shape[0]
            d2 = d.reshape(f, -1)
            # filter gradient over every rectangular anchor (the error is
            # zero off the hexagon, so extra anchors contribute nothing)
            dw = sum(
                gemm(d2[:, b], _window_matrix(x, k, spec.stride, b).T)
                for b in patch_blocks(d2.shape[1])
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
