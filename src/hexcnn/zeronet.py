"""The same networks realized on the ZeroOut parallelogram embedding.

Every layer keeps its activations in rectangular (channels, h, w)
arrays, convolution multiplies the zeroed corner taps like a genuine
hexagon-imitation framework (computing all rectangular output cells,
not only the hexagonal ones), and corner weight gradients are masked so
the frozen zeros never move.  Cells outside the embedded hexagon are
re-zeroed after each layer, so the hexagonal cells carry exactly the
same values as the native path, up to floating-point summation order.
Only the trunk (conv and pool layers up to and including the flatten)
lives here: it is the part that depends on the layout, and it is the
oracle.  After the flatten both layouts run the same dense algebra, so
``forward_zeroout`` and ``backward_zeroout`` hand this module's
per-sample trunk to ``nn``'s batch driver, which runs the head once
per batch; the finite-difference tests and the manual-composition test
check that head on their own.

The trunk lowers convolution the way the native kernels do, in its own
code: a cached tap-major (taps, patches) window table, so one
``np.take`` yields the contiguous (channels*k*k, patches) window matrix;
one ``matmul.gemm`` for the forward product, one for the filter
gradient, and a col2im input gradient (one ``gemm``, then a per-channel
``np.bincount`` scatter through the same table).  Pool errors return
along the hex-window tables by ``np.bincount`` too.  Every product is
metered like the native path's, and the input gradient does exactly
the forward product's MACs.  Each hex filter bank is packed into its
corner-zeroed rectangles once, on first use, not per sample and pass
(``_packed``).  The trunk builds each window matrix whole; only the
native kernels block it.

Used as the cross-layout oracle for training trajectories and as the
baseline side of the training benchmark.
"""

from __future__ import annotations

import weakref
from functools import lru_cache

import numpy as np

from .grid import HexTensor, cells
from .matmul import gemm
from .nn import Network, TrainConfig, _act, _backward_with, _forward_with, apply_gradients
from .ops import HexFilterBank, valid_geometry
from .zeroout import ZeroOutFilterBank, hex_mask, zeroout_filter

__all__ = ["forward_zeroout", "backward_zeroout", "train_step_zeroout"]


def _flat(uv: np.ndarray, width: int) -> np.ndarray:
    """Flat offsets of (row, col) pairs in a row-major array ``width`` wide."""
    return uv[:, 0] * width + uv[:, 1]


def _tap_major(anchors: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """(taps, patches) window table: column p holds anchor p plus every tap offset."""
    g = np.ascontiguousarray(offsets[:, None] + anchors[None, :])
    g.setflags(write=False)
    return g


@lru_cache(maxsize=None)
def _rect_windows(h: int, w: int, k: int, stride: int) -> np.ndarray:
    """Every k-by-k window of an h-by-w array, taps column major within the window."""
    rows = np.arange((h - k) // stride + 1) * stride * w
    cols = np.arange((w - k) // stride + 1) * stride
    taps = np.arange(k)
    return _tap_major((rows[:, None] + cols).ravel(), (taps[:, None] + taps * w).ravel())


@lru_cache(maxsize=None)
def _rect_hexwin_gather(input_side: int, window_side: int, stride: int, output_side: int) -> np.ndarray:
    """Hex-shaped windows addressed on the rectangular embedding."""
    span = 2 * input_side - 1
    return _tap_major(_flat(cells(output_side) * stride, span), _flat(cells(window_side), span))


@lru_cache(maxsize=None)
def _hex_flat(side: int) -> np.ndarray:
    """Flat rectangular indices of the embedded hexagon's cells, storage order."""
    idx = _flat(cells(side), 2 * side - 1)
    idx.setflags(write=False)
    return idx


def _to_rect(values: np.ndarray, side: int) -> np.ndarray:
    """(channels, cells) hexagon values on the zeroed (channels, 2L-1, 2L-1) embedding."""
    span = 2 * side - 1
    out = np.zeros((values.shape[0], span * span))
    out[:, _hex_flat(side)] = values
    return out.reshape(-1, span, span)


def _scatter_add(values: np.ndarray, g: np.ndarray, size: int) -> np.ndarray:
    """Sum (channels, *g.shape) values into the flat offsets ``g``, per channel."""
    idx = g.ravel()
    out = np.empty((values.shape[0], size))
    for c, row in enumerate(values.reshape(values.shape[0], -1)):
        out[c] = np.bincount(idx, weights=row, minlength=size)
    return out


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


def _window_matrix(x: np.ndarray, k: int, stride: int) -> np.ndarray:
    """The (C*k*k, patches) window matrix of a (C, h, w) array."""
    c, h, w = x.shape
    g = _rect_windows(h, w, k, stride)
    return np.take(x.reshape(c, -1), g, axis=1).reshape(c * k * k, -1)


def _rect_conv_all(x: np.ndarray, bank: HexFilterBank, stride: int) -> np.ndarray:
    """Strided cross-correlation with the packed bank over every
    rectangular anchor, plus bias."""
    zbank, rows = _packed(bank)
    k = zbank.span
    y = gemm(rows, _window_matrix(x, k, stride)) + zbank.bias[:, None]
    return y.reshape(zbank.filters, (x.shape[1] - k) // stride + 1, -1)


def _rect_conv_backward_input(d: np.ndarray, bank: HexFilterBank, stride: int, shape) -> np.ndarray:
    """Adjoint of ``_rect_conv_all``'s window product (col2im): the error
    on a (C, h, w) input; cells no window reaches get zero."""
    c, h, w = shape
    zbank, rows = _packed(bank)
    dcols = gemm(rows.T, d.reshape(d.shape[0], -1))  # (C*k*k, P)
    g = _rect_windows(h, w, zbank.span, stride)
    return _scatter_add(dcols.reshape(c, -1), g, h * w).reshape(shape)


def forward_zeroout(net: Network, batch):
    """``nn.forward`` with the trunk run on the parallelogram embedding."""
    return _forward_with(net, batch, _trunk_forward)


def _trunk_forward(net: Network, t: HexTensor, stop: int):
    x = _to_rect(t.data, t.side)
    cache = []
    for i, spec in enumerate(net.cfg.layers[:stop]):
        side = net.shapes[i][1]
        if spec.kind == "hexconv":
            z = _rect_conv_all(x, net.params[i], spec.stride)
            out_side = (side - spec.window) // spec.stride + 1
            z = z * hex_mask(out_side)
            cache.append((x, z))
            x = _act(z, spec.activation)
        elif spec.kind in ("hexmaxpool", "hexavgpool"):
            geom = valid_geometry(side, spec.window, spec.stride, floor_mode=True)
            g = _rect_hexwin_gather(side, spec.window, spec.stride, geom.output_side)
            win = np.take(x.reshape(x.shape[0], -1), g, axis=1)  # (C, E, P)
            if spec.kind == "hexmaxpool":
                vals = win.max(axis=1)
                winners = g[win.argmax(axis=1), np.arange(g.shape[1])[None, :]]
                cache.append((side, geom.output_side, winners))
            else:
                vals = win.mean(axis=1)
                cache.append((side, geom.output_side))
            x = _to_rect(vals, geom.output_side)
        else:  # flatten
            cache.append((side, x.shape[0]))
            x = np.ascontiguousarray(x.reshape(x.shape[0], -1)[:, _hex_flat(side)]).ravel()
    return x, cache


def _trunk_backward(net: Network, cache, d, grads) -> None:
    for i in reversed(range(len(cache))):
        spec = net.cfg.layers[i]
        if spec.kind == "flatten":
            side, channels = cache[i]
            d = _to_rect(d.reshape(channels, -1), side)
        elif spec.kind == "hexmaxpool":
            side, out_side, winners = cache[i]
            c, n = d.shape[0], (2 * side - 1) ** 2
            idx = winners + n * np.arange(c)[:, None]
            dvals = d.reshape(c, -1)[:, _hex_flat(out_side)]
            d = np.bincount(idx.ravel(), weights=dvals.ravel(), minlength=c * n)
            d = d.reshape(c, 2 * side - 1, -1)
        elif spec.kind == "hexavgpool":
            side, out_side = cache[i]
            c = d.shape[0]
            g = _rect_hexwin_gather(side, spec.window, spec.stride, out_side)
            share = d.reshape(c, -1)[:, _hex_flat(out_side)] / g.shape[0]
            share = np.broadcast_to(share[:, None, :], (c, *g.shape))
            d = _scatter_add(share, g, (2 * side - 1) ** 2).reshape(c, 2 * side - 1, -1)
        else:  # hexconv
            x, z = cache[i]
            if spec.activation == "relu":
                d = d * (z > 0)
            k = 2 * spec.window - 1
            f = d.shape[0]
            # filter gradient over every rectangular anchor (the error is
            # zero off the hexagon, so extra anchors contribute nothing)
            dw = gemm(d.reshape(f, -1), _window_matrix(x, k, spec.stride).T)
            dw = dw.reshape(f, x.shape[0], k, k).transpose(0, 1, 3, 2)
            uv = cells(spec.window)  # only hexagon taps: the corners stay frozen
            gw, gb = grads[i]
            gw += dw[:, :, uv[:, 0], uv[:, 1]]
            gb += d.sum(axis=(1, 2))
            if i > 0:
                d = _rect_conv_backward_input(d, net.params[i], spec.stride, x.shape)
                d *= hex_mask(net.shapes[i][1])


def backward_zeroout(net: Network, logits, caches, labels):
    """``nn.backward`` with each sample's trunk walked back on the
    embedded layout; the gradients come out in the hex layout."""
    return _backward_with(net, logits, caches, labels, _trunk_backward)


def train_step_zeroout(net: Network, batch, labels, tc: TrainConfig) -> float:
    """SGD step driven entirely by the embedded kernels."""
    logits, caches = forward_zeroout(net, batch)
    loss, grads = backward_zeroout(net, logits, caches, labels)
    apply_gradients(net, grads, tc.learning_rate)
    return loss
