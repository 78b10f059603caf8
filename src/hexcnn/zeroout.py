"""ZeroOut baseline: hexagons embedded in parallelograms, rectangular
filters with structurally zeroed corners.

This module is the trusted reference for every hexagonal kernel and the
baseline measured by the benchmark CLI.  Embedded tensors are plain
(channels, 2L-1, 2L-1) float64 arrays whose cells outside the hexagon
(``~hex_mask(L)``) are zero.  One embedding, a flat-offset scatter
(``_to_rect``), serves this oracle, the filter packing and the ZeroOut
network trunk (``zeronet``).  The convolution is a plain nested-loop
cross-correlation on purpose; keeping it simple is what makes it an
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import HexTensor, _real_array, cells, check_int
from .instrument import add_macs
from .ops import HexFilterBank

__all__ = [
    "ZeroOutFilterBank",
    "hex_mask",
    "embed_parallelogram",
    "extract_hex",
    "zeroout_filter",
    "zeroout_to_hex",
    "rect_conv_reference",
]


@lru_cache(maxsize=None)
def hex_mask(side: int) -> np.ndarray:
    """(2L-1, 2L-1) boolean mask of the embedded hexagon's cells."""
    uv = cells(side)
    span = 2 * side - 1
    m = np.zeros((span, span), dtype=bool)
    m[uv[:, 0], uv[:, 1]] = True
    m.setflags(write=False)
    return m


@lru_cache(maxsize=None)
def _hex_flat(side: int) -> np.ndarray:
    """Flat offsets of the embedded hexagon's cells in its (2L-1, 2L-1)
    rectangle, in hex storage order."""
    uv = cells(side)
    idx = uv[:, 0] * (2 * side - 1) + uv[:, 1]
    idx.setflags(write=False)
    return idx


def _to_rect(values: np.ndarray, side: int) -> np.ndarray:
    """(channels, cells) hexagon values on the zeroed (channels, 2L-1, 2L-1)
    float64 embedding: cell (u, v) lands at rectangular index (u, v)."""
    span = 2 * side - 1
    out = np.zeros((values.shape[0], span * span))
    out[:, _hex_flat(side)] = values
    return out.reshape(-1, span, span)


def embed_parallelogram(t: HexTensor) -> np.ndarray:
    """Pad a hex tensor into its (C, 2L-1, 2L-1) parallelogram; the corner
    cells outside the hexagon (``~hex_mask(L)``) are zero."""
    return _to_rect(t.data, t.side)


def extract_hex(r: np.ndarray, side: int) -> HexTensor:
    """Read the hexagon of the given side off rectangular indices (u, v)
    of a (C, h, w) array."""
    span = 2 * side - 1
    if r.ndim != 3 or r.shape[1] < span or r.shape[2] < span:
        raise ValueError(f"rect {r.shape} cannot contain a hexagon of side {side}")
    uv = cells(side)
    return HexTensor(side, r.shape[0], r[:, uv[:, 0], uv[:, 1]])


@dataclass(frozen=True, eq=False)
class ZeroOutFilterBank:
    """(filters, channels, 2Lk-1, 2Lk-1) weights with zeroed corner triangles."""

    hex_side: int
    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        span = 2 * self.hex_side - 1
        w = _real_array(self.weights, "weights", np.float64)
        if w.ndim != 4 or w.shape[2:] != (span, span):
            raise ValueError(f"weights must be (F, C, {span}, {span}), got {w.shape}")
        if w[:, :, ~hex_mask(self.hex_side)].any():
            raise ValueError("corner positions must be zero")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        b = _real_array(self.bias, "bias", np.float64).copy()
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

    @property
    def span(self) -> int:
        return 2 * self.hex_side - 1


def zeroout_filter(bank: HexFilterBank) -> ZeroOutFilterBank:
    """Pack hex filters into rectangles, corner weights fixed at zero."""
    f, c, n = bank.weights.shape
    w = _to_rect(bank.weights.reshape(f * c, n), bank.filter_side)
    return ZeroOutFilterBank(bank.filter_side, w.reshape(f, c, *w.shape[1:]), bank.bias)


def zeroout_to_hex(zbank: ZeroOutFilterBank) -> HexFilterBank:
    """Recover the hex bank; round-trips losslessly with zeroout_filter."""
    w = zbank.weights.reshape(zbank.filters, zbank.in_channels, -1)[:, :, _hex_flat(zbank.hex_side)]
    return HexFilterBank(zbank.hex_side, w, zbank.bias)


def rect_conv_reference(
    r: np.ndarray, zbank: ZeroOutFilterBank, stride: int = 1, mode: str = "valid"
) -> np.ndarray:
    """Nested-loop rectangular cross-correlation of a (C, h, w) array, plus
    bias; returns the (filters, out_h, out_w) float64 result.

    Window values are flattened column major so the accumulation visits
    cells in the same order as the hexagonal kernels (the zero corners
    are multiplied like any other tap, which is the point of measuring
    this baseline).
    """
    data = _real_array(r, "rect input", np.float64)
    if data.ndim != 3:
        raise ValueError(f"rect input must be (channels, h, w), got {data.shape}")
    c, h, w = data.shape
    if zbank.in_channels != c:
        raise ValueError(f"filter bank expects {zbank.in_channels} channels, input has {c}")
    if mode == "full":
        pad = zbank.span - 1
        padded = np.pad(data, ((0, 0), (pad, pad), (pad, pad)))
        return rect_conv_reference(padded, zbank, stride, "valid")
    if mode != "valid":
        raise ValueError(f"unknown mode {mode!r}")
    k = zbank.span
    if h < k or w < k:
        raise ValueError(f"input {h}x{w} smaller than window {k}")
    check_int(stride, "stride")
    out_h = (h - k) // stride + 1
    out_w = (w - k) // stride + 1
    wmat = zbank.weights.transpose(0, 1, 3, 2).reshape(zbank.filters, -1)
    out = np.empty((zbank.filters, out_h, out_w))
    for i in range(out_h):
        i0 = i * stride
        for j in range(out_w):
            j0 = j * stride
            window = data[:, i0 : i0 + k, j0 : j0 + k]
            out[:, i, j] = wmat @ window.transpose(0, 2, 1).reshape(-1)
    out += zbank.bias[:, None, None]
    add_macs(out_h * out_w * zbank.filters * zbank.in_channels * k * k)
    return out
