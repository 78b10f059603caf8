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
check that head on their own.  Every product that convolution lowers
to goes through ``matmul.gemm``, so the baseline's work is metered
like the native path's.

Used as the cross-layout oracle for training trajectories and as the
baseline side of the training benchmark.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .grid import HexTensor, cells
from .matmul import gemm
from .nn import Network, TrainConfig, _act, _backward_with, _forward_with, apply_gradients
from .ops import valid_geometry
from .zeroout import ZeroOutFilterBank, hex_mask, zeroout_filter

__all__ = ["forward_zeroout", "backward_zeroout", "train_step_zeroout"]


@lru_cache(maxsize=None)
def _rect_windows(h: int, w: int, k: int, stride: int) -> np.ndarray:
    """Flat indices of every k-by-k window, column major within the window."""
    out_h = (h - k) // stride + 1
    out_w = (w - k) // stride + 1
    ii, jj = np.meshgrid(np.arange(out_h) * stride, np.arange(out_w) * stride, indexing="ij")
    anchors = (ii * w + jj).reshape(-1)
    dj, di = np.meshgrid(np.arange(k), np.arange(k), indexing="ij")
    offs = (di * w + dj).reshape(-1)  # dj outer, di inner
    g = anchors[:, None] + offs[None, :]
    g.setflags(write=False)
    return g


@lru_cache(maxsize=None)
def _rect_hexwin_gather(input_side: int, window_side: int, stride: int, output_side: int) -> np.ndarray:
    """Hex-shaped windows addressed on the rectangular embedding."""
    span = 2 * input_side - 1
    anchors = cells(output_side) * stride
    offs = cells(window_side)
    g = (anchors[:, None, 0] + offs[None, :, 0]) * span + (
        anchors[:, None, 1] + offs[None, :, 1]
    )
    g = np.ascontiguousarray(g)
    g.setflags(write=False)
    return g


@lru_cache(maxsize=None)
def _hex_flat(side: int) -> np.ndarray:
    """Flat rectangular indices of the embedded hexagon's cells, storage order."""
    uv = cells(side)
    idx = uv[:, 0] * (2 * side - 1) + uv[:, 1]
    idx = np.ascontiguousarray(idx)
    idx.setflags(write=False)
    return idx


def _zbank_cols(zbank: ZeroOutFilterBank) -> np.ndarray:
    """(C*k*k, F) filter matrix in the same window order as the gathers."""
    mat = zbank.weights.transpose(0, 1, 3, 2).reshape(zbank.filters, -1)
    return np.ascontiguousarray(mat.T)


def _embed(t: HexTensor) -> np.ndarray:
    span = 2 * t.side - 1
    out = np.zeros((t.channels, span * span))
    out[:, _hex_flat(t.side)] = t.data
    return out.reshape(t.channels, span, span)


def _rect_conv_all(x: np.ndarray, zbank: ZeroOutFilterBank, stride: int) -> np.ndarray:
    """Strided cross-correlation over every rectangular anchor, plus bias."""
    c, h, w = x.shape
    k = zbank.span
    g = _rect_windows(h, w, k, stride)
    p = g.shape[0]
    cols = np.ascontiguousarray(x.reshape(c, -1)[:, g].transpose(1, 0, 2).reshape(p, -1))
    y = gemm(cols, _zbank_cols(zbank)) + zbank.bias
    out_h = (h - k) // stride + 1
    return np.ascontiguousarray(y.T).reshape(zbank.filters, out_h, -1)


def _transpose_rot180(zbank: ZeroOutFilterBank) -> ZeroOutFilterBank:
    w = zbank.weights.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
    return ZeroOutFilterBank(zbank.hex_side, w, np.zeros(w.shape[0]))


def forward_zeroout(net: Network, batch):
    """``nn.forward`` with the trunk run on the parallelogram embedding."""
    return _forward_with(net, batch, _trunk_forward)


def _trunk_forward(net: Network, t: HexTensor, stop: int):
    x = _embed(t)
    cache = []
    for i, spec in enumerate(net.cfg.layers[:stop]):
        side = net.shapes[i][1]
        if spec.kind == "hexconv":
            zbank = zeroout_filter(net.params[i])
            z = _rect_conv_all(x, zbank, spec.stride)
            out_side = (side - spec.window) // spec.stride + 1
            z = z * hex_mask(out_side)
            cache.append((x, z))
            x = _act(z, spec.activation)
        elif spec.kind in ("hexmaxpool", "hexavgpool"):
            geom = valid_geometry(side, spec.window, spec.stride, floor_mode=True)
            g = _rect_hexwin_gather(side, spec.window, spec.stride, geom.output_side)
            win = x.reshape(x.shape[0], -1)[:, g]
            span_o = 2 * geom.output_side - 1
            out = np.zeros((x.shape[0], span_o * span_o))
            if spec.kind == "hexmaxpool":
                e_star = win.argmax(axis=2)
                vals = np.take_along_axis(win, e_star[:, :, None], axis=2)[:, :, 0]
                winners = g[np.arange(g.shape[0])[None, :], e_star]
                cache.append((side, geom.output_side, winners))
            else:
                vals = win.mean(axis=2)
                cache.append((side, geom.output_side))
            out[:, _hex_flat(geom.output_side)] = vals
            x = out.reshape(x.shape[0], span_o, span_o)
        else:  # flatten
            cache.append((side, x.shape[0]))
            x = np.ascontiguousarray(x.reshape(x.shape[0], -1)[:, _hex_flat(side)]).ravel()
    return x, cache


def _trunk_backward(net: Network, cache, d, grads) -> None:
    for i in reversed(range(len(cache))):
        spec = net.cfg.layers[i]
        if spec.kind == "flatten":
            side, channels = cache[i]
            span = 2 * side - 1
            rect = np.zeros((channels, span * span))
            rect[:, _hex_flat(side)] = d.reshape(channels, -1)
            d = rect.reshape(channels, span, span)
        elif spec.kind == "hexmaxpool":
            side, out_side, winners = cache[i]
            c = d.shape[0]
            dvals = d.reshape(c, -1)[:, _hex_flat(out_side)]
            span = 2 * side - 1
            out = np.zeros((c, span * span))
            np.add.at(out, (np.arange(c)[:, None], winners), dvals)
            d = out.reshape(c, span, span)
        elif spec.kind == "hexavgpool":
            side, out_side = cache[i]
            c = d.shape[0]
            g = _rect_hexwin_gather(side, spec.window, spec.stride, out_side)
            share = d.reshape(c, -1)[:, _hex_flat(out_side)] / g.shape[1]
            span = 2 * side - 1
            out = np.zeros((c, span * span))
            np.add.at(out, (np.arange(c)[:, None, None], g[None, :, :]), share[:, :, None])
            d = out.reshape(c, span, span)
        else:  # hexconv
            x, z = cache[i]
            if spec.activation == "relu":
                d = d * (z > 0)
            zbank = zeroout_filter(net.params[i])
            k = zbank.span
            f = d.shape[0]
            # filter gradient over every rectangular anchor (the error is
            # zero off the hexagon, so extra anchors contribute nothing)
            g = _rect_windows(x.shape[1], x.shape[2], k, spec.stride)
            cols = x.reshape(x.shape[0], -1)[:, g].transpose(1, 0, 2).reshape(g.shape[0], -1)
            dw = gemm(d.reshape(f, -1), cols).reshape(f, x.shape[0], k, k)
            dw = dw.transpose(0, 1, 3, 2) * hex_mask(spec.window)  # corners stay frozen
            uv = cells(spec.window)
            gw, gb = grads[i]
            gw += dw[:, :, uv[:, 0], uv[:, 1]]
            gb += d.sum(axis=(1, 2))
            if i > 0:
                d = _conv_backward_input_rect(d, zbank, spec.stride, net.shapes[i][1])


def _conv_backward_input_rect(d, zbank, stride, input_side):
    f, oh, ow = d.shape
    uh = (oh - 1) * stride + 1
    uw = (ow - 1) * stride + 1
    up = np.zeros((f, uh, uw))
    up[:, ::stride, ::stride] = d
    k = zbank.span
    pad = k - 1
    padded = np.zeros((f, uh + 2 * pad, uw + 2 * pad))
    padded[:, pad : pad + uh, pad : pad + uw] = up
    out = _rect_conv_all(padded, _transpose_rot180(zbank), 1)
    span = 2 * input_side - 1
    if out.shape[1] != span:
        raise AssertionError("rect adjoint produced a mismatched extent")
    return out * hex_mask(input_side)


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
