"""Backward kernels: error propagation and gradients for conv and pool layers.

The filter gradient is the error times the transposed window matrix.
The input gradient is the exact transpose of the window gather (col2im):
a BLAS product forms the windows' error, and ``np.bincount``
scatter-adds it per channel through the tap-major window table, so
cells no window reaches (floor mode) get zero.  Both walk the patches
in the forward's blocks (``ops.patch_blocks``) and sum the blocks'
shares, so neither holds a whole window matrix.  Pool errors return
along the same table.  ``conv_backward_input_reflect`` keeps the paper's
construction as a reference: upsample the error onto the dense anchor
grid, then full-convolve with the channel-transposed, point-reflected
bank.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .grid import (
    HexTensor,
    cell_count,
    cells,
    check_int,
    offset_table,
    reflect_permutation,
)
from .matmul import gemm
from .ops import (
    ArgmaxMap,
    HexFilterBank,
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
    "apply_activation_backward",
]


@lru_cache(maxsize=None)
def _anchor_scatter(output_side: int, stride: int, target_side: int) -> np.ndarray:
    uv = cells(output_side) * stride
    idx = offset_table(target_side)[uv[:, 0], uv[:, 1]]
    if (idx < 0).any():
        raise AssertionError("stride anchor fell outside the target hexagon")
    idx = np.ascontiguousarray(idx)
    idx.setflags(write=False)
    return idx


def upsample_stride(delta: HexTensor, stride: int, target_side: int) -> HexTensor:
    """Scatter values onto the dense anchor grid: (u, v) -> (s*u, s*v).

    All other cells are zero, so the total mass is preserved.
    """
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
    out[:, _anchor_scatter(delta.side, stride, target_side)] = delta.data
    out.setflags(write=False)
    return HexTensor(target_side, delta.channels, out)


def transpose_reflect(bank: HexFilterBank) -> HexFilterBank:
    """Swap filter/channel roles and point-reflect each filter; zero bias."""
    perm = reflect_permutation(bank.filter_side)
    w = bank.weights[:, :, perm].transpose(1, 0, 2)
    return HexFilterBank(bank.filter_side, w)


@lru_cache(maxsize=None)
def _embed_offsets(small_side: int, big_side: int) -> np.ndarray:
    # hex(small) index pairs are all valid cells of hex(big); keep (u, v).
    uv = cells(small_side)
    idx = offset_table(big_side)[uv[:, 0], uv[:, 1]]
    idx = np.ascontiguousarray(idx)
    idx.setflags(write=False)
    return idx


def _forward_geometry(delta: HexTensor, filter_side: int, stride: int, input_side: int):
    """The valid geometry whose output the error belongs to; floor mode allowed."""
    geom = valid_geometry(input_side, filter_side, stride, floor_mode=True)
    if geom.output_side != delta.side:
        raise ValueError(
            f"error side {delta.side} does not match forward output {geom.output_side}"
        )
    return geom


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
    geom = _forward_geometry(delta, bank.filter_side, stride, input_side)
    w_t = bank.weights.reshape(bank.filters, -1).T
    g = tap_gather(input_side, bank.filter_side, stride, geom.output_side)
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
    _forward_geometry(delta, bank.filter_side, stride, input_side)
    dense_side = (delta.side - 1) * stride + 1
    up = upsample_stride(delta, stride, dense_side)
    d_in = conv_full(up, transpose_reflect(bank))
    if d_in.side == input_side:
        return d_in
    # floor-mode forward: windows never reached past hex(d_in.side); the
    # rest of the input receives zero gradient.
    out = np.zeros((d_in.channels, cell_count(input_side)), dtype=d_in.dtype)
    out[:, _embed_offsets(d_in.side, input_side)] = d_in.data
    return HexTensor(input_side, d_in.channels, out)


def conv_backward_filter(
    t: HexTensor, delta: HexTensor, stride: int, filter_side: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Weight and bias gradients of a valid convolution.

    Returns (d_weights, d_bias) with d_weights shaped like the filter
    bank weights (filters, channels, cells).
    """
    if filter_side is None:
        filter_side = t.side - stride * (delta.side - 1)
        if filter_side < 1:
            raise ValueError("error side is too large for this input and stride")
    geom = _forward_geometry(delta, filter_side, stride, t.side)
    parts = (
        gemm(delta.data[:, b], window_columns(t, geom, b).T)
        for b in patch_blocks(delta.data.shape[1])
    )
    dw = next(parts)  # (F, C*E); a single block is used as is
    for part in parts:
        dw += part
    d_weights = dw.reshape(delta.channels, t.channels, cell_count(filter_side))
    d_bias = delta.data.sum(axis=1)
    return d_weights, d_bias


def maxpool_backward(delta: HexTensor, amap: ArgmaxMap) -> HexTensor:
    """Route each error value back to the cell that won its window."""
    if delta.side != amap.output_side or delta.channels != amap.channels:
        raise ValueError("error shape does not match the argmax map")
    n = cell_count(amap.input_side)
    idx = amap.winners + n * np.arange(delta.channels)[:, None]
    out = np.bincount(idx.ravel(), weights=delta.data.ravel(), minlength=delta.channels * n)
    out = out.astype(delta.dtype, copy=False)
    out.shape = (delta.channels, n)  # in place: a reshaped view would be copied
    out.setflags(write=False)
    return HexTensor(amap.input_side, delta.channels, out)


def avgpool_backward(
    delta: HexTensor, window_side: int, stride: int, input_side: int
) -> HexTensor:
    """Spread each error value uniformly over its window."""
    geom = _forward_geometry(delta, window_side, stride, input_side)
    g = tap_gather(input_side, window_side, stride, geom.output_side)
    share = np.broadcast_to((delta.data / g.shape[0])[:, None, :], (delta.channels, *g.shape))
    out = np.zeros((delta.channels, cell_count(input_side)), delta.dtype)
    _scatter_add(out, share, g)
    out.setflags(write=False)
    return HexTensor(input_side, delta.channels, out)


def apply_activation_backward(delta: HexTensor, preact: HexTensor, kind: str) -> HexTensor:
    """Hadamard product of the error with the activation derivative."""
    if delta.side != preact.side or delta.channels != preact.channels:
        raise ValueError("error and pre-activation shapes differ")
    if kind == "identity":
        return delta
    if kind == "relu":
        out = delta.data * (preact.data > 0)
        out.setflags(write=False)
        return HexTensor(delta.side, delta.channels, out)
    raise ValueError(f"unknown activation {kind!r}")
