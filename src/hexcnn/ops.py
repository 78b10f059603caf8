"""Forward kernels: hexagonal convolution and pooling.

Convolution anchors the top-left cell of a hexagon-shaped window at
(stride*u, stride*v) for every output cell (u, v); window cells are the
anchor plus the filter's own cell offsets.  Every window cell is
guaranteed to be a valid input cell (hexagons are closed under this
index addition), which ``grid.offsets`` asserts when ``tap_gather``
first builds a window table.  Convolutions must tile the input; pools
floor, dropping what the last stride does not reach.

``valid_geometry`` gives the output side; the window table
(``tap_gather``) is the rest of the geometry, for these kernels and for
``grads``.  It is tap major, so one ``np.take`` lays a run of windows
out as a contiguous (channels*window_cells, patches) matrix; convolution
is a BLAS product of the (filters, channels*window_cells) weights with
it, already in output storage order.  The matrix is built for at most
``PATCH_BLOCK`` patches at a time, so the memory a convolution (or its
gradients, in ``grads``) takes grows with the block, not with the
output size.  Pools gather their small windows whole (``_pool``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import (
    HexTensor, _real_array, cell_count, cells, check_int, check_tensor, offsets, pad_rings,
)
from .matmul import gemm

__all__ = [
    "HexFilterBank",
    "check_bank",
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
        w = _real_array(self.weights, "weights")
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
        b = np.zeros(w.shape[0], dtype=dtype) if b is None else _real_array(b, "bias", dtype).copy()
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


def check_bank(value, what: str) -> HexFilterBank:
    """``value`` if it is a ``HexFilterBank``; anything else, a bare array
    included, raises ``ValueError`` naming ``what``."""
    if not isinstance(value, HexFilterBank):
        raise ValueError(f"{what} must be a HexFilterBank, got {type(value).__name__}")
    return value


def valid_geometry(
    input_side: int, filter_side: int, stride: int = 1, floor_mode: bool = False
) -> int:
    """Output side of a valid-mode sliding window; rejects non-tiling strides.

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
    return span // stride + 1


@lru_cache(maxsize=None, typed=True)  # typed: stride = 1.0 must not hit stride = 1's entry
def tap_gather(input_side: int, window_side: int, stride: int) -> np.ndarray:
    """(window_cells, patches) storage offsets of every window, tap major.

    Column p lists the input offsets of output cell p's window in filter
    storage order; within a window these are strictly increasing.  The
    windows are those of the floored output side, which is the whole
    output of a convolution, since a convolution tiles.  Row 0 of a
    side-1 window's table is the anchors' offsets alone.
    """
    output_side = valid_geometry(input_side, window_side, stride, floor_mode=True)
    return offsets(input_side, cells(window_side)[:, None] + cells(output_side)[None, :] * stride)


def window_columns(t: HexTensor, g: np.ndarray) -> np.ndarray:
    """Values of the windows of ``g`` (a ``tap_gather`` table, or a column
    slice of one) as a contiguous (channels*window_cells, patches) matrix.

    Rows run channel major, then filter storage order, matching
    ``weights.reshape(filters, -1)``; column j is window j of ``g``.
    """
    return np.take(t.data, g, axis=1).reshape(-1, g.shape[1])


def conv_valid(t: HexTensor, bank: HexFilterBank, stride: int = 1) -> HexTensor:
    """Valid hexagonal cross-correlation plus per-filter bias.

    One product per block of patches, each written into its columns of
    the output.
    """
    check_tensor(t, "input")
    check_bank(bank, "filter bank")
    if bank.in_channels != t.channels:
        raise ValueError(
            f"filter bank expects {bank.in_channels} channels, input has {t.channels}"
        )
    out_side = valid_geometry(t.side, bank.filter_side, stride)
    g = tap_gather(t.side, bank.filter_side, stride)
    w = bank.weights.reshape(bank.filters, -1)
    y = np.empty((bank.filters, g.shape[1]), np.result_type(w, t.data))
    for b in patch_blocks(g.shape[1]):
        gemm(w, window_columns(t, g[:, b]), out=y[:, b])
    y += bank.bias[:, None]
    y.setflags(write=False)
    return HexTensor(out_side, bank.filters, y)


def conv_full(t: HexTensor, bank: HexFilterBank) -> HexTensor:
    """Full convolution (every overlapping placement), output side L+Lk-1.

    Realized as valid convolution after 2*(Lk-1) rings of zero padding.
    """
    check_bank(bank, "filter bank")
    padded = pad_rings(t, 2 * (bank.filter_side - 1))
    return conv_valid(padded, bank, 1)


def _first_max_taps(win: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``win.argmax(axis=1)`` of a (channels, taps, patches) window array
    whose maxima ``out = win.max(axis=1)`` are known, in the smallest
    unsigned dtype that holds a tap (``uint8`` up to 256 taps), read-only.

    The first maximum, or the first NaN, scores highest when tap e
    scores E-1-e, so one max over the tap axis finds it; unlike
    ``argmax``, which walks one window at a time, every step runs across
    the patches.  ``-0.0`` and ``0.0`` tie, as under ``argmax``.
    """
    e = win.shape[1]
    dtype = np.min_scalar_type(e - 1)
    hit = win == out[:, None, :]
    hit |= win != win  # NaN: a window's maximum is its first NaN
    score = np.multiply(hit, np.arange(e - 1, -1, -1, dtype=dtype)[:, None], dtype=dtype)
    taps = score.max(axis=1)
    np.subtract(dtype.type(e - 1), taps, out=taps)
    taps.setflags(write=False)
    return taps


def _pool(x: np.ndarray, g: np.ndarray, kind: str) -> tuple[np.ndarray, np.ndarray | None]:
    """The (channels, patches) max or mean (``kind`` is ``"hexmaxpool"``
    or ``"hexavgpool"``) of a (channels, cells) array over the windows of
    a tap-major (taps, patches) table, and the max's winning taps (None
    for the mean).  The pools of both layouts run through here;
    ``grads._unpool`` is the adjoint."""
    win = np.take(x, g, axis=1)
    if kind == "hexavgpool":
        return win.mean(axis=1), None
    out = win.max(axis=1)
    return out, _first_max_taps(win, out)


def maxpool(t: HexTensor, window_side: int, stride: int) -> tuple[HexTensor, np.ndarray]:
    """Max over each hexagonal window, and the tap that won it.

    The taps are a read-only (channels, patches) array of rows of
    ``tap_gather(t.side, window_side, stride)``, one byte each for
    windows up to side 9 (``_first_max_taps``): window p of channel c
    took its maximum from offset ``g[taps[c, p], p]``.  Ties go to the
    first tap, which is the smallest offset, since offsets rise within a
    window.  NaN counts as the maximum: a window holding a NaN outputs
    NaN, and its first NaN tap is the winner that ``maxpool_backward``
    routes the gradient to.
    """
    check_tensor(t, "input")
    out_side = valid_geometry(t.side, window_side, stride, floor_mode=True)
    out, taps = _pool(t.data, tap_gather(t.side, window_side, stride), "hexmaxpool")
    out.setflags(write=False)
    return HexTensor(out_side, t.channels, out), taps


def avgpool(t: HexTensor, window_side: int, stride: int) -> HexTensor:
    """Arithmetic mean over each hexagonal window."""
    check_tensor(t, "input")
    out_side = valid_geometry(t.side, window_side, stride, floor_mode=True)
    out, _ = _pool(t.data, tap_gather(t.side, window_side, stride), "hexavgpool")
    out.setflags(write=False)
    return HexTensor(out_side, t.channels, out)
