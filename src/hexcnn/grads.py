"""Backward kernels: error propagation and gradients for conv and pool layers.

The filter gradient is the error times the transposed window matrix.
The input gradient is the exact transpose of the window gather (col2im):
a BLAS product forms the windows' error, and ``np.bincount``
scatter-adds it per channel through the tap-major window table, so
cells no window reaches get zero.  Both walk the patches in the
forward's blocks (``ops._blocks``) and sum the blocks' shares, so
neither holds a whole window matrix.  Pool errors return along the same
table (``_unpool``, which the ZeroOut trunk shares); a max pool's
winning taps pick each window's row of it.  Behind a conv that computed
only a disjoint max pool's window array, the pool's error goes to its
winning taps in that array instead (``_unpool_windows``), and the
conv's filter and input gradients run over the same window blocks
(``nn._trunk_steps``) that its forward did: both trunks do this, so the
cells no window reads, whose error is zero, are never multiplied.  The
filter gradient's window matrix comes from the windows' receptive
fields, as the forward's does (``ops._fields``, ``window_columns`` with
its row map); the input gradient scatters through the composed table,
whose (tap, cell) pairs are the matrix's rows.  The
cores read any tap-major table, so the trunks run them over a group of
samples laid side by side (``ops._stack``), and the filter gradient
sums the group's share in one product a block.
Every backward kernel takes the error and the forward's geometry
(window side, stride, input side) and rebuilds the forward's window
table from them.  Each public kernel
checks its arguments against that geometry, then runs a core on plain
arrays (``_filter_grad``, ``_input_grad``, ``_unpool``) and wraps the
result; ``nn``'s trunk backward calls the cores directly, since its own
forward produced what they read.
``conv_backward_input_reflect`` keeps the paper's construction
as a reference: upsample the error onto the dense anchor grid, then
full-convolve with the channel-transposed, point-reflected bank.  The
anchor grid is row 0 of a side-1 window table: a side-1 window is its
anchor alone.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from . import ops
from .grid import HexTensor, cell_count, check_int, check_tensor, rotate_permutation
from .matmul import gemm
from .ops import (
    HexFilterBank,
    _blocks,
    check_bank,
    conv_full,
    tap_gather,
    valid_geometry,
    window_columns,
)

__all__ = [
    "upsample_stride",
    "transpose_reflect",
    "conv_backward_input",
    "conv_backward_input_reflect",
    "conv_backward_filter",
    "maxpool_backward",
    "avgpool_backward",
]


def upsample_stride(delta: HexTensor, stride: int, target_side: int) -> HexTensor:
    """Scatter values onto the dense anchor grid: (u, v) -> (s*u, s*v).

    All other cells are zero, so the total mass is preserved.
    """
    check_tensor(delta, "error")
    check_int(stride, "stride")
    check_int(target_side, "target side")
    expected = (delta.side - 1) * stride + 1
    if target_side != expected:
        raise ValueError(
            f"target side {target_side} does not match dense anchor grid {expected}"
        )
    if stride == 1:
        return delta
    out = np.zeros((delta.channels, cell_count(target_side)), dtype=delta.dtype)
    out[:, tap_gather(target_side, 1, stride)[0]] = delta.data
    out.setflags(write=False)
    return HexTensor(target_side, delta.channels, out)


def transpose_reflect(bank: HexFilterBank) -> HexFilterBank:
    """Swap filter/channel roles and point-reflect (rotate by 180 degrees)
    each filter; zero bias."""
    check_bank(bank, "filter bank")
    w = bank.weights[:, :, rotate_permutation(bank.filter_side, 3)].transpose(1, 0, 2)
    return HexFilterBank(bank.filter_side, w)


def _check_error(
    delta: HexTensor, window_side: int, stride: int, input_side: int, floor_mode: bool = False
) -> None:
    """Rejects an error that is not shaped like the output of the
    forward's geometry; only pools floor."""
    check_tensor(delta, "error")
    out_side = valid_geometry(input_side, window_side, stride, floor_mode)
    if out_side != delta.side:
        raise ValueError(f"error side {delta.side} does not match forward output {out_side}")


def _check_error_channels(delta: HexTensor, bank: HexFilterBank) -> None:
    if delta.channels != bank.filters:
        raise ValueError(
            f"error has {delta.channels} channels, filter bank has {bank.filters} filters"
        )


def _scatter_add(out: np.ndarray, values: np.ndarray, g: np.ndarray) -> None:
    """Add (channels, *g.shape) values into the offsets ``g`` of the
    (channels, cells) array ``out``, per channel."""
    idx = g.ravel()
    for c, row in enumerate(values.reshape(values.shape[0], -1)):
        out[c] += np.bincount(idx, weights=row, minlength=out.shape[1])


def _input_grad(d: np.ndarray, w: np.ndarray, blocks, cells: int) -> np.ndarray:
    """The (channels, cells) input error of a convolution from its
    (filters, patches) error ``d`` and (filters, channels, taps) weights
    ``w``, one block of the forward's ``blocks`` at a time."""
    f, c, _ = w.shape
    w_t = w.reshape(f, -1).T
    out = np.zeros((c, cells), np.result_type(w_t, d))
    for b, g in blocks:
        # (C*E, patches in b) window errors, dropped before the next block's
        _scatter_add(out, gemm(w_t, d[:, b]).reshape(c, -1), g)
    return out


def conv_backward_input(
    delta: HexTensor, bank: HexFilterBank, stride: int, input_side: int
) -> HexTensor:
    """Error propagated to the convolution input (the adjoint map)."""
    check_bank(bank, "filter bank")
    _check_error(delta, bank.filter_side, stride, input_side)
    _check_error_channels(delta, bank)
    blocks = _blocks(input_side, bank.filter_side, stride, ops.PATCH_BLOCK)
    out = _input_grad(delta.data, bank.weights, blocks, cell_count(input_side))
    out.setflags(write=False)
    return HexTensor(input_side, bank.in_channels, out)


def conv_backward_input_reflect(
    delta: HexTensor, bank: HexFilterBank, stride: int, input_side: int
) -> HexTensor:
    """Reference input gradient: upsample, then full convolution with the
    channel-transposed, point-reflected bank."""
    check_bank(bank, "filter bank")
    _check_error(delta, bank.filter_side, stride, input_side)
    _check_error_channels(delta, bank)
    up = upsample_stride(delta, stride, (delta.side - 1) * stride + 1)
    return conv_full(up, transpose_reflect(bank))


def _filter_grad(x, d: np.ndarray, blocks, rows: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(filters, channels, taps) weight and (filters,) bias gradients of
    a convolution of the (channels, cells) input ``x`` with the
    (filters, patches) error ``d``, one block of the forward's
    ``blocks`` at a time.  With ``rows`` they are a fused conv's blocks
    (``ops._fields``), read as its forward reads them, and ``x`` holds
    each block's input."""
    inputs = repeat(x) if rows is None else x
    parts = (gemm(d[:, b], window_columns(xb, g, rows).T) for (b, g), xb in zip(blocks, inputs))
    dw = next(parts)  # (F, C*E); a single block is used as is
    for part in parts:
        dw += part
    taps = (blocks[0][1] if rows is None else rows).shape[0]
    return dw.reshape(d.shape[0], -1, taps), d.sum(axis=1)


def conv_backward_filter(
    t: HexTensor, delta: HexTensor, stride: int, filter_side: int
) -> tuple[np.ndarray, np.ndarray]:
    """Weight and bias gradients of a valid convolution.

    Returns (d_weights, d_bias) with d_weights shaped like the filter
    bank weights (filters, channels, cells).
    """
    check_tensor(t, "input")
    _check_error(delta, filter_side, stride, t.side)
    return _filter_grad(t.data, delta.data, _blocks(t.side, filter_side, stride, ops.PATCH_BLOCK))


def _unpool(d: np.ndarray, taps: np.ndarray | None, g: np.ndarray, cells: int) -> np.ndarray:
    """Adjoint of ``ops._pool`` over the table ``g``: the (channels, cells)
    input error from the (channels, patches) error ``d``, all of it to
    the winning tap's offset for a max pool, spread evenly over the
    window for an average pool (``taps`` None)."""
    c = d.shape[0]
    if taps is None:
        out = np.zeros((c, cells), d.dtype)
        _scatter_add(out, np.broadcast_to((d / g.shape[0])[:, None, :], (c, *g.shape)), g)
        return out
    idx = g[taps, np.arange(g.shape[1])]  # the winners' input offsets
    idx += cells * np.arange(c)[:, None]
    out = np.bincount(idx.ravel(), weights=d.ravel(), minlength=c * cells)
    out = out.astype(d.dtype, copy=False)
    out.shape = (c, cells)  # in place: a reshaped view would be copied by HexTensor
    return out


def _unpool_windows(d: np.ndarray, taps: np.ndarray, fields) -> np.ndarray:
    """Adjoint of a max pool over a fused conv's window array
    (``ops._conv_windows`` through ``fields``): the error of that array,
    (channels, blocks*window_cells*windows) laid out as it is, from the
    pool's (channels, blocks*windows) error ``d``, each value at its
    window's winning tap and zero elsewhere.  One write along the tap
    axis; the window cells are the conv's output cells, so no table is
    read."""
    c, (e, n) = d.shape[0], (fields.rows.shape[1], fields.blocks[0][1].shape[1])
    d, taps = d.reshape(-1, n), taps.reshape(-1, n)  # one row a channel and block
    out = np.zeros((len(d), e, n), d.dtype)
    out[np.arange(len(d))[:, None], taps, np.arange(n)] = d
    return out.reshape(c, -1)


def maxpool_backward(
    delta: HexTensor, taps: np.ndarray, window_side: int, stride: int, input_side: int
) -> HexTensor:
    """Route each error value back to the input cell that won its window:
    the row ``taps`` (from ``maxpool``) picks of the window table.  Taps
    that are not integers, not shaped like the error or not rows of the
    table raise ``ValueError``."""
    _check_error(delta, window_side, stride, input_side, floor_mode=True)
    g = tap_gather(input_side, window_side, stride)
    taps = np.asarray(taps)
    if taps.dtype.kind not in "iu" or taps.shape != delta.data.shape:
        raise ValueError(f"taps must be integers shaped {delta.data.shape}, got {taps.dtype} {taps.shape}")
    if taps.min() < 0 or taps.max() >= g.shape[0]:
        raise ValueError(f"taps must lie in [0, {g.shape[0]}), got {taps.min()}..{taps.max()}")
    out = _unpool(delta.data, taps, g, cell_count(input_side))
    out.setflags(write=False)
    return HexTensor(input_side, delta.channels, out)


def avgpool_backward(
    delta: HexTensor, window_side: int, stride: int, input_side: int
) -> HexTensor:
    """Spread each error value uniformly over its window."""
    _check_error(delta, window_side, stride, input_side, floor_mode=True)
    g = tap_gather(input_side, window_side, stride)
    out = _unpool(delta.data, None, g, cell_count(input_side))
    out.setflags(write=False)
    return HexTensor(input_side, delta.channels, out)
