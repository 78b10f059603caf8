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
output size.  A forward also builds it for at most ``ROW_BLOCK`` rows
at a time, in chunks of whole channels (``_block_product``, which every
forward product, fused or not, on both layouts, runs through): the
chunks split the product's inner dimension, so a wide layer holds one
chunk's window matrix and one block of scratch output, not its whole
(channels*taps, patches) matrix.  The backward kernels bound patches
only: no benchmark workload's backward builds a window matrix of more
than 400 rows, and the largest preset step measured, a VGG-13 step at
side 94 and width 1/4 on one sample, peaks at 16.87 MB in its backward,
whose largest window matrix is (448, 1141) and whose widest, (896,
169), takes 1.2 MB.  Each block gathers through its own cached,
writable copy of its columns of the table (``_blocks``), which
``np.take`` reads in place; ``_product`` is the block loop, for both
layouts.  Pools gather
their small windows whole and reduce the (channels, taps, patches)
window array (``_pool``).  A convolution that feeds a max pool whose
windows share no cell can compute just that window array: its table at
the pool's window cells, tap major over the windows, makes its product
the pool's window array (``_conv_windows``), so the cells no window
reads are never computed and the pool gathers nothing.  That composed
table reads each window's receptive field many times over (49 (tap,
cell) pairs on 19 cells for hexlenet5's side-2 conv and pool, 63 on 23
on ZeroOut's rectangle), so it is not gathered: the fields are, one
element gather for each window's distinct cells, and one gather of
whole contiguous rows of them then lays out the same window matrix
(``_fields``, ``window_columns``).  Every table
also serves a group of samples laid side by side along the cell axis
(``_stack``), so a network trunk runs one gather, one product per block
and one pool for the whole group.

The public kernels check their arguments, then work on plain
(channels, cells) arrays (``window_columns``, ``_pool``).  ``nn``'s
trunk backward calls the array cores of ``grads`` directly, on geometry
its own forward produced.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

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
    "ROW_BLOCK",
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

# Rows per window-matrix block: the most that one product's window
# matrix holds, counted in whole channels of taps (``_block_product``).
# Splitting the rows splits the product's inner dimension, which BLAS
# already walks in panels of a few hundred, so a chunk multiplies at the
# whole product's rate; each extra chunk costs one add over the block's
# output.  Chosen from a sweep over 512, 768 and 1024 on the benchmark's
# wide-infer (C = F = 256, side-2 filters): its forward peaked at 13.81,
# 15.52 and 18.79 MB natively (25.89 MB unchunked) and at 23.23, 24.83
# and 27.76 MB on ZeroOut (46.61 MB), with native op times within 2.5%
# of the unchunked one's at every size in an in-process probe.
ROW_BLOCK = 512

# Bytes that the largest array one sample builds in a network trunk's
# layer (a conv's output or window array, or a pool's window array) may
# take, times the samples ``nn`` runs side by side (``nn._group_size``).
# Chosen from a sweep on the benchmark's lenet-train, whose largest such
# array is 133,392 B: 2**19 runs 3 samples, the most whose step peaks
# below the 2.753 MB it took one sample at a time; 4 took 2.871 MB.
GROUP_BYTES = 1 << 19


def _split(g: np.ndarray, block: int) -> tuple[tuple[slice, np.ndarray], ...]:
    """The columns of the (taps, patches) table ``g`` in consecutive
    blocks of at most ``block`` patches: (slice, table) pairs, each table
    an owned, C-contiguous, writable int64 copy of its columns.

    Writable because numpy 2.4's ``np.take`` copies a read-only index
    array before it gathers: under ``tracemalloc`` a (1, 3997) gather
    through a (7, 2048) table peaked at 229,800 B with a read-only table
    and at 115,016 B with a writable one.  Only private callers hold
    these tables, and none writes to them.
    """
    return tuple(
        (b, np.array(g[:, b], np.int64, order="C"))
        for b in (slice(lo, lo + block) for lo in range(0, g.shape[1], block))
    )


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
        shape = (check_int(filters, "filters"), check_int(in_channels, "channels"), cell_count(filter_side))
        w = rng.standard_normal(shape)
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


# Bounded as resample's plans are: many geometries (a sweep, a stream
# of network configs) must not pin a table each.  typed: stride = 1.0
# must not hit stride = 1's entry.
@lru_cache(maxsize=16, typed=True)
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


# bounded and typed, as tap_gather; the block size is part of the key,
# since it is read from PATCH_BLOCK at each call
@lru_cache(maxsize=16, typed=True)
def _blocks(input_side: int, window_side: int, stride: int, block: int):
    """``tap_gather``'s table split into ``block``-patch (slice, table)
    pairs (``_split``); callers pass ``PATCH_BLOCK`` at call time.  Built
    from an uncached table, so a convolution's geometry is held once."""
    return _split(tap_gather.__wrapped__(input_side, window_side, stride), block)


def window_columns(x: np.ndarray, g: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """Values of the windows of ``g`` (a tap-major table, ``tap_gather``'s
    or ``zeronet``'s rectangular one, or a block of its columns) in the
    (channels, cells) array ``x``, as a contiguous
    (channels*window_cells, patches) matrix.

    Rows run channel major, then filter storage order, matching
    ``weights.reshape(filters, -1)``; column j is window j of ``g``.

    With ``rows`` (``_fields``), ``g`` is a block's (field cells, windows)
    table and the matrix is that of the composed table ``g[rows]``: one
    gather of the fields, then one of whole rows of them, each row a
    (tap, pool cell) pair's values over the block's windows, so the
    columns run pool cell major over the windows.
    """
    if rows is None:
        return np.take(x, g, axis=1).reshape(-1, g.shape[1])
    fields = np.take(x, g, axis=1)  # (channels, field cells, windows)
    return np.take(fields, rows, axis=1).reshape(-1, rows.shape[1] * g.shape[1])


def _chunk_channels(channels: int, taps: int) -> int:
    """Channels in each chunk of a window matrix with ``taps`` rows a
    channel: the chunks are as few as keep each within ``ROW_BLOCK``
    rows (and at least one channel), and as equal as they can be, the
    last no larger than the others."""
    chunks = -(-channels // max(1, ROW_BLOCK // taps))
    return -(-channels // chunks)


def _block_product(w: np.ndarray, x: np.ndarray, g: np.ndarray, out: np.ndarray, rows=None) -> None:
    """``gemm(w, window_columns(x, g, rows), out=out)``, one chunk of
    channels at a time (``_chunk_channels``), so no window matrix holds
    more than ``ROW_BLOCK`` rows, or one channel's.  The chunks split the
    product's inner dimension: each multiplies its window matrix with its
    own columns of ``w``; the first writes ``out`` and each later one is
    added in from one scratch array.  A matrix of at most ``ROW_BLOCK``
    rows is one chunk: one gather and one product, as unchunked."""
    taps = (g if rows is None else rows).shape[0]
    size = _chunk_channels(x.shape[0], taps)
    gemm(w[:, : size * taps], window_columns(x[:size], g, rows), out=out)
    if size < x.shape[0]:
        scratch = np.empty_like(out)
        for lo in range(size, x.shape[0], size):
            out += gemm(w[:, lo * taps : (lo + size) * taps], window_columns(x[lo : lo + size], g, rows), scratch)


def _product(x: np.ndarray, w: np.ndarray, bias: np.ndarray, blocks) -> np.ndarray:
    """The (filters, patches) product of the weight matrix ``w`` with the
    window matrix ``window_columns(x, g)`` of each (slice, table) block,
    written into the block's columns (``_block_product``), plus ``bias``:
    the product loop of every convolution forward but a fused one
    (``_conv_windows``), native and ZeroOut (``zeronet``, whose flat
    embedding is a (channels, cells) array too).  It calls the module's
    ``window_columns``, so one patch of it reaches both layouts."""
    last, tail = blocks[-1]
    y = np.empty((w.shape[0], last.start + tail.shape[1]), np.result_type(w, x))
    for b, g in blocks:
        _block_product(w, x, g, y[:, b])
    y += bias[:, None]
    return y


def _stack(g: np.ndarray, cells: int, group: int) -> np.ndarray:
    """The table ``g`` of one sample's (channels, ``cells``) array for
    ``group`` such arrays laid side by side along the cell axis: its last
    axis once a sample, sample s's copy offset by ``s * cells``, so a
    gather through it lays the group's windows out sample major within
    each row of ``g``.  ``g`` itself for a group of one."""
    if group == 1:
        return g
    return (g[..., None, :] + cells * np.arange(group)[:, None]).reshape(*g.shape[:-1], -1)


class _Fields(NamedTuple):
    """A fused convolution's tables (``_fields``): ``rows``, the field
    row of each (filter tap, pool cell) pair, (taps, window cells);
    ``blocks``, (slice, table) pairs of a block's product columns and
    the one (field cells, windows) table that every block reads on its
    own samples' (channels, samples*cells) array; ``samples``, a block's
    samples; ``composed``, (slice, table) pairs of ``table[rows]``
    addressed on the group's array, for the input gradient's scatter,
    or None where none runs."""

    rows: np.ndarray
    blocks: tuple
    samples: int
    composed: tuple | None


def _fields(g: np.ndarray, windows: np.ndarray, cells: int, group: int, block: int, composed: bool) -> _Fields:
    """The receptive fields of the convolution with window table ``g``
    (taps, patches) at the max pool windows ``windows`` (window cells,
    windows), which share no cell, for ``group`` samples of ``cells``
    cells side by side (``_stack``).

    The composed table ``g[:, windows]`` reads taps*window cells (tap,
    pool cell) pairs a window, but only a few distinct cells, its field.
    Which pairs meet at a cell is the same in every window, a translate
    of window 0, so one map ``rows`` serves all: a field row is the
    first pair that reaches each of window 0's cells, in offset order,
    and the build checks that ``fields[rows]`` is the composed table.
    A block holds whole samples, as many as keep its window cells*windows
    columns within ``block`` and divide ``group`` (so blocks are equally
    wide), and at least one.
    """
    taps, e = g.shape[0], windows.shape[0]
    n = windows.shape[1]
    pairs = g[:, windows].reshape(taps * e, n)  # the composed table, one column a window
    _, first, rows = np.unique(pairs[:, 0], return_index=True, return_inverse=True)
    fields = pairs[first]
    if not np.array_equal(fields[rows], pairs):
        raise AssertionError("the windows' (tap, cell) pairs do not meet in one pattern")
    k = max(k for k in range(1, group + 1) if group % k == 0 and (k == 1 or k * e * n <= block))
    table, width = np.array(_stack(fields, cells, k), order="C"), e * k * n
    slices = [slice(j * width, (j + 1) * width) for j in range(group // k)]
    rows = np.array(rows.reshape(taps, e), np.int64)
    scatter = None
    if composed:  # block j's samples start at column j*k*cells of the group's array
        scatter = tuple((b, table[rows].reshape(taps, -1) + j * k * cells) for j, b in enumerate(slices))
    return _Fields(rows, tuple((b, table) for b in slices), k, scatter)


def _conv_windows(inputs, w: np.ndarray, bias: np.ndarray, fields: _Fields) -> np.ndarray:
    """The product of the weight matrix ``w`` with each block's window
    matrix (``window_columns`` through ``fields``' table, block j reading
    the j-th of ``inputs``, its samples' (channels, samples*cells)
    array), plus ``bias``: a convolution's output at a max pool's
    windows, as the pool's window array, one (window cells, windows a
    block) slab a filter and block, filter major (``nn._trunk_steps``);
    a single block's is (filters, window cells, windows).  Both trunks
    call it here, so a test can replace it for both."""
    e, n = fields.rows.shape[1], fields.blocks[0][1].shape[1]
    y = np.empty((w.shape[0], fields.blocks[-1][0].stop), w.dtype)  # the trunks' arrays are all float64
    for (b, g), x in zip(fields.blocks, inputs):
        _block_product(w, x, g, y[:, b], fields.rows)
    y += bias[:, None]
    return y.reshape(-1, e, n)


def conv_valid(t: HexTensor, bank: HexFilterBank, stride: int = 1) -> HexTensor:
    """Valid hexagonal cross-correlation plus per-filter bias (``_product``)."""
    check_tensor(t, "input")
    check_bank(bank, "filter bank")
    if bank.in_channels != t.channels:
        raise ValueError(
            f"filter bank expects {bank.in_channels} channels, input has {t.channels}"
        )
    out_side = valid_geometry(t.side, bank.filter_side, stride)
    w = bank.weights.reshape(bank.filters, -1)
    y = _product(t.data, w, bank.bias, _blocks(t.side, bank.filter_side, stride, PATCH_BLOCK))
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


def _pool(win: np.ndarray, kind: str, channels: int) -> tuple[np.ndarray, np.ndarray | None]:
    """The (channels, patches) max or mean (``kind`` is ``"hexmaxpool"``
    or ``"hexavgpool"``) of a window array of (taps, patches) slabs, as
    ``np.take`` of a (channels, cells) array through a tap-major table
    lays it out, one slab a channel, and the max's winning taps (None
    for the mean).  A fused conv's window array (``_conv_windows``) has
    one slab a channel and block, in channel order; each channel's
    blocks join into its row.  The pools of both layouts run through
    here; ``grads._unpool`` is the adjoint."""
    if kind == "hexavgpool":
        return win.mean(axis=1), None
    out = win.max(axis=1)
    taps = _first_max_taps(win, out)
    out.shape = taps.shape = (channels, -1)  # in place: a view would be copied by HexTensor
    return out, taps


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
    out, taps = _pool(np.take(t.data, tap_gather(t.side, window_side, stride), axis=1), "hexmaxpool", t.channels)
    out.setflags(write=False)
    return HexTensor(out_side, t.channels, out), taps


def avgpool(t: HexTensor, window_side: int, stride: int) -> HexTensor:
    """Arithmetic mean over each hexagonal window."""
    check_tensor(t, "input")
    out_side = valid_geometry(t.side, window_side, stride, floor_mode=True)
    out, _ = _pool(np.take(t.data, tap_gather(t.side, window_side, stride), axis=1), "hexavgpool", t.channels)
    out.setflags(write=False)
    return HexTensor(out_side, t.channels, out)
