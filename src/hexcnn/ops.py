"""Forward kernels: hexagonal convolution and pooling.

Convolution anchors the top-left cell of a hexagon-shaped window at
(stride*u, stride*v) for every output cell (u, v); window cells are the
anchor plus the filter's own cell offsets.  For exact-mode geometry
every window cell is guaranteed to be a valid input cell (hexagons are
closed under this index addition), which is asserted when a window
table is first built.

The window table is kept tap major, so one ``np.take`` lays a run of
windows out as a contiguous (channels*window_cells, patches) matrix;
convolution is a BLAS product of the (filters, channels*window_cells)
weights with it, already in output storage order.  The matrix is built
for at most ``PATCH_BLOCK`` patches at a time, so the memory a
convolution (or its gradients, in ``grads``) takes grows with the block,
not with the output size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import HexTensor, cell_count, cells, check_int, offset_table, pad_rings
from .matmul import gemm

__all__ = [
    "HexFilterBank",
    "ConvGeometry",
    "ArgmaxMap",
    "valid_geometry",
    "PATCH_BLOCK",
    "patch_blocks",
    "tap_gather",
    "conv_valid",
    "conv_full",
    "maxpool",
    "avgpool",
]


# Patches per window-matrix block.  A count of patches, not of bytes:
# BLAS re-packs the whole weight matrix on every product, so a block
# sized in bytes makes wide layers pay that once per few hundred patches.
# Chosen from a sweep over 1024, 2048 and 4096 on the benchmark workloads.
PATCH_BLOCK = 2048


def patch_blocks(patches: int):
    """Consecutive slices of at most ``PATCH_BLOCK`` patches covering ``patches``."""
    for lo in range(0, patches, PATCH_BLOCK):
        yield slice(lo, lo + PATCH_BLOCK)


@dataclass(frozen=True, eq=False)
class HexFilterBank:
    """Bank of hexagon-shaped filters: weights (filters, in_channels, cells).

    Every weight is a live filter tap; there are no packed zero corners.
    """

    filter_side: int
    weights: np.ndarray
    bias: np.ndarray | None = None

    def __post_init__(self):
        n = cell_count(self.filter_side)
        w = np.asarray(self.weights)
        dtype = w.dtype if w.dtype in (np.float32, np.float64) else np.float64
        w = w.astype(dtype, copy=True)
        if w.ndim != 3 or w.shape[2] != n:
            raise ValueError(
                f"weights must be (filters, channels, {n}), got {w.shape}"
            )
        if w.shape[0] < 1 or w.shape[1] < 1:
            raise ValueError(f"need at least one filter and one channel, got {w.shape}")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        b = self.bias
        b = np.zeros(w.shape[0], dtype=dtype) if b is None else np.asarray(b, dtype=dtype).copy()
        if b.shape != (w.shape[0],):
            raise ValueError(f"bias must have shape ({w.shape[0]},), got {b.shape}")
        b.setflags(write=False)
        object.__setattr__(self, "bias", b)

    @property
    def filters(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]

    @classmethod
    def random(cls, rng, filters, in_channels, filter_side) -> "HexFilterBank":
        w = rng.standard_normal((filters, in_channels, cell_count(filter_side)))
        return cls(filter_side, w, rng.standard_normal(filters))


@dataclass(frozen=True)
class ConvGeometry:
    input_side: int
    filter_side: int
    stride: int
    output_side: int


def valid_geometry(
    input_side: int, filter_side: int, stride: int = 1, floor_mode: bool = False
) -> ConvGeometry:
    """Geometry of a valid-mode sliding window; rejects non-tiling strides.

    With ``floor_mode`` the trailing remainder is dropped instead.
    """
    check_int(input_side, "input side")
    check_int(filter_side, "window side")
    check_int(stride, "stride")
    if filter_side > input_side:
        raise ValueError(
            f"window side {filter_side} exceeds input side {input_side}"
        )
    span = input_side - filter_side
    if span % stride and not floor_mode:
        raise ValueError(
            f"stride {stride} does not tile input {input_side} with window {filter_side}"
        )
    out = span // stride + 1
    return ConvGeometry(input_side, filter_side, stride, out)


@lru_cache(maxsize=None)
def tap_gather(
    input_side: int, filter_side: int, stride: int, output_side: int
) -> np.ndarray:
    """(window_cells, patches) storage offsets of every window, tap major.

    Column p lists the input offsets of output cell p's window in filter
    storage order; within a window these are strictly increasing.
    """
    anchors = cells(output_side) * stride
    offs = cells(filter_side)
    table = offset_table(input_side)
    idx = table[
        offs[:, None, 0] + anchors[None, :, 0],
        offs[:, None, 1] + anchors[None, :, 1],
    ]
    if (idx < 0).any():
        raise AssertionError(
            "window escaped the input hexagon; geometry bookkeeping is broken"
        )
    idx = np.ascontiguousarray(idx)
    idx.setflags(write=False)
    return idx


def window_columns(t: HexTensor, geom: ConvGeometry, patches: slice = slice(None)) -> np.ndarray:
    """Values of the windows ``patches`` as a contiguous
    (channels*window_cells, len(patches)) matrix; all windows by default.

    Rows run channel major, then filter storage order, matching
    ``weights.reshape(filters, -1)``; column j is window patches[j].
    """
    g = tap_gather(geom.input_side, geom.filter_side, geom.stride, geom.output_side)[:, patches]
    return np.take(t.data, g, axis=1).reshape(-1, g.shape[1])


def conv_valid(
    t: HexTensor, bank: HexFilterBank, stride: int = 1, floor_mode: bool = False
) -> HexTensor:
    """Valid hexagonal cross-correlation plus per-filter bias.

    One product per block of patches, each written into its columns of
    the output.
    """
    if bank.in_channels != t.channels:
        raise ValueError(
            f"filter bank expects {bank.in_channels} channels, input has {t.channels}"
        )
    geom = valid_geometry(t.side, bank.filter_side, stride, floor_mode)
    w = bank.weights.reshape(bank.filters, -1)
    y = np.empty((bank.filters, cell_count(geom.output_side)), np.result_type(w, t.data))
    for b in patch_blocks(y.shape[1]):
        gemm(w, window_columns(t, geom, b), out=y[:, b])
    y += bank.bias[:, None]
    y.setflags(write=False)
    return HexTensor(geom.output_side, bank.filters, y)


def conv_full(t: HexTensor, bank: HexFilterBank) -> HexTensor:
    """Full convolution (every overlapping placement), output side L+Lk-1.

    Realized as valid convolution after 2*(Lk-1) rings of zero padding.
    """
    padded = pad_rings(t, 2 * (bank.filter_side - 1))
    return conv_valid(padded, bank, 1)


@dataclass(frozen=True, eq=False)
class ArgmaxMap:
    """Winning input offset of every max-pool window, per channel."""

    input_side: int
    window_side: int
    stride: int
    output_side: int
    winners: np.ndarray  # (channels, patches) flat input offsets

    def __post_init__(self):
        w = np.ascontiguousarray(self.winners, dtype=np.int64)
        w.setflags(write=False)
        object.__setattr__(self, "winners", w)

    @property
    def channels(self) -> int:
        return self.winners.shape[0]


def maxpool(
    t: HexTensor, window_side: int, stride: int, floor_mode: bool = False
) -> tuple[HexTensor, ArgmaxMap]:
    """Max over each hexagonal window; ties go to the smallest offset.

    NaN counts as the maximum: a window holding a NaN outputs NaN, and
    its first NaN tap (in window storage order) is the winner that
    ``maxpool_backward`` routes the gradient to.
    """
    geom = valid_geometry(t.side, window_side, stride, floor_mode)
    g = tap_gather(t.side, window_side, stride, geom.output_side)
    win = np.take(t.data, g, axis=1)  # (C, E, P)
    # argmax returns the first maximum (or first NaN); window offsets
    # ascend, so the smallest flat offset wins ties.
    e_star = win.argmax(axis=1)
    out = win.max(axis=1)
    out.setflags(write=False)
    winners = g[e_star, np.arange(g.shape[1])[None, :]]
    amap = ArgmaxMap(t.side, window_side, stride, geom.output_side, winners)
    return HexTensor(geom.output_side, t.channels, out), amap


def avgpool(
    t: HexTensor, window_side: int, stride: int, floor_mode: bool = False
) -> HexTensor:
    """Arithmetic mean over each hexagonal window."""
    geom = valid_geometry(t.side, window_side, stride, floor_mode)
    g = tap_gather(t.side, window_side, stride, geom.output_side)
    out = np.take(t.data, g, axis=1).mean(axis=1)
    out.setflags(write=False)
    return HexTensor(geom.output_side, t.channels, out)
