"""Benchmark drivers: convolution micro-benchmarks and the space report.

Timing protocol: one warm-up call, then the median of ``reps`` timed
repetitions on a monotonic clock.  MAC counts come from the kernels'
own counters, read over the warm-up call; byte counts are the actual
array allocations (for a window matrix, the largest block the lowering
builds: at most ``ops.PATCH_BLOCK`` patches of one chunk of channels,
``ops._chunk_channels``).  Training time on both layouts is measured
by hexbench's ``lenet-train`` workload.
"""

from __future__ import annotations

import math
import time
from dataclasses import astuple, dataclass, fields

import numpy as np

from .grid import HexTensor, cell_count, check_int
from .instrument import MacMeter
from . import ops
from .ops import HexFilterBank, conv_valid, valid_geometry
from .zeronet import _rect_conv_all
from .zeroout import _hex_flat, _to_rect, embed_parallelogram, extract_hex, rect_conv_reference, zeroout_filter

__all__ = [
    "BenchResult",
    "BENCH_CONV_HEADER",
    "bench_conv",
    "SPACE_REPORT_HEADER",
    "space_report",
]


@dataclass
class BenchResult:
    case_id: str
    method: str
    input_side: int
    filter_side: int
    stride: int
    channels: int
    filters: int
    reps: int
    wall_time_s: float
    macs: int
    output_cells: int
    bytes_input: int
    bytes_im2col: int
    bytes_filters: int

    def row(self) -> list:
        """CSV cells in field order; the wall time in scientific notation."""
        return [f"{v:.6e}" if isinstance(v, float) else v for v in astuple(self)]


BENCH_CONV_HEADER = [f.name for f in fields(BenchResult)]


def _measure(fn, reps: int) -> tuple[float, int]:
    """(median seconds of ``reps`` timed calls, MACs of the warm-up call)."""
    with MacMeter() as meter:
        fn()  # warm-up
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times)), meter.macs


def bench_conv(
    sizes,
    filter_side: int = 2,
    stride: int = 1,
    channels: int = 3,
    filters: int = 1,
    reps: int = 5,
    seed: int = 0,
) -> list[BenchResult]:
    """Time the hex convolution, the ZeroOut reference (the nested-loop
    oracle) and the fair ZeroOut lowering (``zeronet``'s blocked BLAS
    product), each from a hex tensor to hex outputs."""
    sizes = [check_int(side, "size") for side in sizes]
    for value, what in ((filter_side, "filter side"), (stride, "stride"), (channels, "channels"),
                        (filters, "filters"), (reps, "reps")):
        check_int(value, what)
    rng = np.random.default_rng(check_int(seed, "seed", 0))
    results = []
    for side in sizes:
        try:
            out_side = valid_geometry(side, filter_side, stride)
        except ValueError:
            continue  # caller reports skipped cases
        t = HexTensor(side, channels, rng.standard_normal((channels, cell_count(side))))
        bank = HexFilterBank.random(rng, filters, channels, filter_side)
        zbank = zeroout_filter(bank)
        rect = embed_parallelogram(t)
        span, hexagon = rect.shape[1], _hex_flat(out_side)  # the flat ZeroOut output's hexagon
        hex_out = cell_count(out_side)
        rect_out = ((span - zbank.span) // stride + 1) ** 2
        # (method, timed call, output cells, input, window-matrix block and
        # filter bytes); a block holds one chunk of channels (ops._block_product)
        taps, rect_taps = cell_count(filter_side), zbank.span**2
        methods = (
            ("hex_direct", lambda: conv_valid(t, bank, stride), hex_out, t.data.nbytes,
             min(hex_out, ops.PATCH_BLOCK) * ops._chunk_channels(channels, taps) * taps * t.data.itemsize,
             bank.weights.nbytes),
            ("zeroout_ref",
             lambda: extract_hex(rect_conv_reference(embed_parallelogram(t), zbank, stride), out_side),
             rect_out, rect.nbytes, 0, zbank.weights.nbytes),
            ("zeroout_fair",
             lambda: HexTensor(out_side, filters,
                               _rect_conv_all(_to_rect(t.data, side), span, bank, stride)[:, hexagon]),
             rect_out, rect.nbytes,
             min(rect_out, ops.PATCH_BLOCK) * ops._chunk_channels(channels, rect_taps) * rect_taps * rect.itemsize,
             zbank.weights.nbytes),
        )
        for method, fn, *cells_and_bytes in methods:
            results.append(
                BenchResult(
                    f"conv_L{side}_k{filter_side}_s{stride}", method, side, filter_side,
                    stride, channels, filters, reps, *_measure(fn, reps), *cells_and_bytes,
                )
            )
    return results


SPACE_REPORT_HEADER = [
    "input_side",
    "channels",
    "hex_input_cells",
    "zeroout_input_cells",
    "quasih_input_cells",
    "hex_im2col_cells",
    "zeroout_im2col_cells",
    "input_saving_vs_zeroout_pct",
    "input_saving_vs_quasih_pct",
    "conv_saving_vs_zeroout_pct",
]


def space_report(sizes, channels: int = 3, filter_side: int = 2, stride: int = 1):
    """Exact storage formulas for hexagon-shaped inputs of side x.

    Input cells: hex 3x(x-1)+1 versus the (2x-1)^2 ZeroOut parallelogram
    and the (2x-1) * ceil(sqrt(3) x) Quasi-H rectangle.  Convolution
    cells compare the window matrices each method materializes.  Sides
    the convolution rejects (too small, or not tiled by the stride) get
    no row, as in ``bench_conv``.
    """
    sizes = [check_int(x, "size") for x in sizes]
    for value, what in ((filter_side, "filter side"), (stride, "stride"), (channels, "channels")):
        check_int(value, what)
    e_k = cell_count(filter_side)
    span_k = 2 * filter_side - 1
    rows = []
    for x in sizes:
        try:
            out_side = valid_geometry(x, filter_side, stride)
        except ValueError:
            continue  # caller reports skipped cases
        hex_cells = cell_count(x)
        zero_cells = (2 * x - 1) ** 2
        quasih_cells = (2 * x - 1) * math.ceil(math.sqrt(3.0) * x)
        hex_patches = cell_count(out_side)
        rect_out = (2 * x - 1 - span_k) // stride + 1
        rect_patches = rect_out * rect_out
        hex_im2col = hex_patches * channels * e_k
        zero_im2col = rect_patches * channels * span_k * span_k
        rows.append(
            [
                x,
                channels,
                hex_cells,
                zero_cells,
                quasih_cells,
                hex_im2col,
                zero_im2col,
                f"{100.0 * (1 - hex_cells / zero_cells):.4f}",
                f"{100.0 * (1 - hex_cells / quasih_cells):.4f}",
                f"{100.0 * (1 - hex_im2col / zero_im2col):.4f}",
            ]
        )
    return rows
