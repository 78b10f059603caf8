"""Hexagonal lattice geometry, indexing, and tensor storage.

Cells of a hexagon with side length ``L`` are addressed by skewed axial
coordinates ``(u, v)`` (row, column) with the origin at the top-left
cell.  A pair is a valid cell iff::

    0 <= u <= 2L-2   and   max(0, u-L+1) <= v <= min(2L-2, u+L-1)

so row lengths grow one per row from ``L`` up to ``2L-1`` and shrink
back to ``L``, for a total of ``3L(L-1)+1`` cells.  Storage within one
channel is column major: all valid cells of column ``v=0`` top to
bottom, then column ``v=1``, and so on.  Multi-channel tensors store
channels outermost.

``offsets`` is the one map from (u, v) pairs to storage offsets; every
index table of the native kernels is built through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "check_int",
    "cell_count",
    "cells",
    "offset_table",
    "offsets",
    "rotate_permutation",
    "HexTensor",
    "check_tensor",
    "pad_rings",
]

_FLOAT_DTYPES = (np.float32, np.float64)


def _real_array(data, what: str, dtype=None) -> np.ndarray:
    """``np.asarray(data, dtype)`` for real numbers only: complex numbers,
    strings and other non-numbers raise ``ValueError`` naming the dtype
    (a numpy cast would keep a complex number's real part and only warn)."""
    arr = np.asarray(data)
    if arr.dtype.kind not in "biuf":
        raise ValueError(f"{what} must be real numbers, got dtype {arr.dtype}")
    return np.asarray(arr, dtype)


def check_int(value, what: str, least: int | None = 1) -> int:
    """``value`` as an int: a Python or numpy integer (not a bool) of at
    least ``least`` (of any size when ``least`` is None); anything else
    raises ``ValueError``."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, np.integer))
        or (least is not None and value < least)
    ):
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"{what} must be an integer{bound}, got {value!r}")
    return int(value)


def cell_count(side: int) -> int:
    """Number of cells in a hexagon of the given side length."""
    check_int(side, "side length")
    return 3 * side * (side - 1) + 1


@lru_cache(maxsize=None, typed=True)  # typed: side = 2.0 must not hit np.int64(2)'s entry
def cells(side: int) -> np.ndarray:
    """All valid (u, v) pairs in storage order, as an (N, 2) int array."""
    check_int(side, "side length")
    span = 2 * side - 1
    # the bounding square column major; a pair is a cell iff |u - v| < L
    v, u = np.divmod(np.arange(span * span, dtype=np.int64), span)
    keep = abs(u - v) < side
    out = np.stack([u[keep], v[keep]], axis=1)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None, typed=True)
def offset_table(side: int) -> np.ndarray:
    """(2L-1, 2L-1) lookup of storage offsets; -1 marks invalid (u, v)."""
    uv = cells(side)
    span = 2 * side - 1
    table = np.full((span, span), -1, dtype=np.int64)
    table[uv[:, 0], uv[:, 1]] = np.arange(len(uv))
    table.setflags(write=False)
    return table


def offsets(side: int, uv) -> np.ndarray:
    """Storage offsets of the (..., 2) cell pairs ``uv``, shaped ``uv.shape[:-1]``;
    a pair outside the hexagon is a geometry bug (``AssertionError``)."""
    table = offset_table(side)
    uv = np.asarray(uv)
    u, v = uv[..., 0], uv[..., 1]
    span = 2 * side - 2
    if not ((0 <= u) & (u <= span) & (0 <= v) & (v <= span) & (abs(u - v) < side)).all():
        raise AssertionError(f"cell pair outside the side-{side} hexagon")
    idx = np.array(table[u, v], order="C")
    idx.setflags(write=False)
    return idx


@lru_cache(maxsize=None, typed=True)  # typed: k = 1.0 must not hit k = 1's entry
def rotate_permutation(side: int, k: int) -> np.ndarray:
    """Storage permutation rotating a hexagon by ``k`` x 60 degrees about
    its center: ``data[..., rotate_permutation(side, k)]`` is ``data``
    rotated.

    In centered axial coordinates (a, b) = (u-L+1, v-L+1) one step
    carries the value at (a, b) to (a - b, a).  ``k`` is taken mod 6;
    ``k = 3`` is the point reflection (u, v) -> (2L-2-u, 2L-2-v), the
    hexagonal analogue of rotating a rectangular filter by 180 degrees.
    The permutation is cached and read-only.
    """
    center = side - 1
    a, b = (cells(side) - center).T
    for _ in range(check_int(k, "rotation count", None) % 6):
        a, b = b, b - a  # one step back: where each cell's value comes from
    return offsets(side, np.stack([a, b], axis=1) + center)


@dataclass(frozen=True, eq=False)
class HexTensor:
    """Hexagon-shaped multi-channel array.

    ``data`` is (channels, cell_count(side)), column major within each
    channel, read-only after construction so values can be shared
    freely.  It is given in that shape or flat, (channels*cells,); any
    other shape raises ``ValueError``.  Construction copies the array
    unless it is owned (``base is None``), read-only, C-contiguous and
    already of the target dtype and shape; such an array is adopted as
    is.  Kernels mark their fresh outputs read-only so they are adopted;
    a caller's writable array, or a view of any array, is copied, so
    later writes to it never reach the tensor.
    """

    side: int
    channels: int
    data: np.ndarray

    def __post_init__(self):
        check_int(self.side, "side length")
        check_int(self.channels, "channels")
        n = cell_count(self.side)
        arr = _real_array(self.data, "data")
        dtype = arr.dtype if arr.dtype in _FLOAT_DTYPES else np.float64
        if arr.shape not in ((self.channels, n), (self.channels * n,)):
            raise ValueError(
                f"data shape {arr.shape} is neither ({self.channels}, {n}) "
                f"nor ({self.channels * n},)"
            )
        if not (
            arr.base is None
            and not arr.flags.writeable
            and arr.flags.c_contiguous
            and arr.dtype == dtype
            and arr.shape == (self.channels, n)
        ):
            arr = np.array(arr, dtype=dtype, order="C").reshape(self.channels, n)
            arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def cell_count(self) -> int:
        return self.data.shape[1]

    @property
    def dtype(self):
        return self.data.dtype

    def value(self, channel: int, u: int, v: int) -> float:
        """The value at cell (u, v) of ``channel``; a non-integer or
        out-of-range channel, row or column raises ``ValueError``."""
        c, u, v = (check_int(x, what, 0) for x, what in ((channel, "channel"), (u, "row"), (v, "column")))
        table = offset_table(self.side)  # -1 off the hexagon
        if c >= self.channels or max(u, v) >= len(table) or table[u, v] < 0:
            raise ValueError(
                f"channel {c}, cell ({u}, {v}) out of range for {self.channels} channels of side {self.side}"
            )
        return float(self.data[c, table[u, v]])


def check_tensor(value, what: str) -> HexTensor:
    """``value`` if it is a ``HexTensor``; anything else, a bare array
    included, raises ``ValueError`` naming ``what``."""
    if not isinstance(value, HexTensor):
        raise ValueError(f"{what} must be a HexTensor, got {type(value).__name__}")
    return value


@lru_cache(maxsize=None)
def _pad_scatter(side: int, rings: int) -> np.ndarray:
    """Destination offsets of the original cells inside the padded hexagon."""
    return offsets(side + rings, cells(side) + rings)


def pad_rings(t: HexTensor, rings: int) -> HexTensor:
    """Surround ``t`` with ``rings`` concentric rings of zero cells.

    Cell (u, v) moves to (u + rings, v + rings); the sum of all values
    is preserved.
    """
    check_tensor(t, "input")
    check_int(rings, "ring count", 0)
    if rings == 0:
        return t
    out_side = t.side + rings
    out = np.zeros((t.channels, cell_count(out_side)), dtype=t.dtype)
    out[:, _pad_scatter(t.side, rings)] = t.data
    out.setflags(write=False)
    return HexTensor(out_side, t.channels, out)
