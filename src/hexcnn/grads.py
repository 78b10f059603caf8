"""Backward kernels: error propagation and gradients for conv and pool layers.

The filter gradient is the error times the transposed window matrix.
The input gradient is the exact transpose of the window gather (col2im):
a BLAS product forms the windows' error, and ``np.bincount``
scatter-adds it per channel through the tap-major window table, so
cells no window reaches get zero.  Both walk the patches in the
forward's blocks (``ops.patch_blocks``) and sum the blocks' shares, so
neither holds a whole window matrix.  Pool errors return along the same
table (``_unpool``, which the ZeroOut trunk shares); a max pool's
winning taps pick each window's row of it.  Every backward kernel takes
the error and the forward's geometry (window side, stride, input side)
and rebuilds the forward's window table from them.
``conv_backward_input_reflect`` keeps the paper's construction
as a reference: upsample the error onto the dense anchor grid, then
full-convolve with the channel-transposed, point-reflected bank.  The
anchor grid is row 0 of a side-1 window table: a side-1 window is its
anchor alone.
"""

from __future__ import annotations

import numpy as np

from .grid import HexTensor, cell_count, check_int, check_tensor, rotate_permutation
from .matmul import gemm
from .ops import (
    HexFilterBank,
    check_bank,
    conv_full,
    patch_blocks,
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


def _forward_windows(
    delta: HexTensor, window_side: int, stride: int, input_side: int, floor_mode: bool = False
) -> np.ndarray:
    """The window table of the forward that output the error; only pools floor."""
    check_tensor(delta, "error")
    out_side = valid_geometry(input_side, window_side, stride, floor_mode)
    if out_side != delta.side:
        raise ValueError(f"error side {delta.side} does not match forward output {out_side}")
    return tap_gather(input_side, window_side, stride)


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


def conv_backward_input(
    delta: HexTensor, bank: HexFilterBank, stride: int, input_side: int
) -> HexTensor:
    """Error propagated to the convolution input (the adjoint map)."""
    check_bank(bank, "filter bank")
    g = _forward_windows(delta, bank.filter_side, stride, input_side)
    _check_error_channels(delta, bank)
    w_t = bank.weights.reshape(bank.filters, -1).T
    out = np.zeros((bank.in_channels, cell_count(input_side)), np.result_type(w_t, delta.data))
    for b in patch_blocks(g.shape[1]):
        # (C*E, patches in b) window errors, dropped before the next block's
        _scatter_add(out, gemm(w_t, delta.data[:, b]).reshape(bank.in_channels, -1), g[:, b])
    out.setflags(write=False)
    return HexTensor(input_side, bank.in_channels, out)


def conv_backward_input_reflect(
    delta: HexTensor, bank: HexFilterBank, stride: int, input_side: int
) -> HexTensor:
    """Reference input gradient: upsample, then full convolution with the
    channel-transposed, point-reflected bank."""
    check_bank(bank, "filter bank")
    _forward_windows(delta, bank.filter_side, stride, input_side)
    _check_error_channels(delta, bank)
    up = upsample_stride(delta, stride, (delta.side - 1) * stride + 1)
    return conv_full(up, transpose_reflect(bank))


def conv_backward_filter(
    t: HexTensor, delta: HexTensor, stride: int, filter_side: int
) -> tuple[np.ndarray, np.ndarray]:
    """Weight and bias gradients of a valid convolution.

    Returns (d_weights, d_bias) with d_weights shaped like the filter
    bank weights (filters, channels, cells).
    """
    check_tensor(t, "input")
    g = _forward_windows(delta, filter_side, stride, t.side)
    parts = (gemm(delta.data[:, b], window_columns(t, g[:, b]).T) for b in patch_blocks(g.shape[1]))
    dw = next(parts)  # (F, C*E); a single block is used as is
    for part in parts:
        dw += part
    d_weights = dw.reshape(delta.channels, t.channels, cell_count(filter_side))
    d_bias = delta.data.sum(axis=1)
    return d_weights, d_bias


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


def maxpool_backward(
    delta: HexTensor, taps: np.ndarray, window_side: int, stride: int, input_side: int
) -> HexTensor:
    """Route each error value back to the input cell that won its window:
    the row ``taps`` (from ``maxpool``) picks of the window table.  Taps
    that are not integers, not shaped like the error or not rows of the
    table raise ``ValueError``."""
    g = _forward_windows(delta, window_side, stride, input_side, floor_mode=True)
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
    g = _forward_windows(delta, window_side, stride, input_side, floor_mode=True)
    out = _unpool(delta.data, None, g, cell_count(input_side))
    out.setflags(write=False)
    return HexTensor(input_side, delta.channels, out)
