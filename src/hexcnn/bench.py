"""Benchmark drivers: convolution micro-benchmarks, training benchmarks,
and the space report.

Timing protocol: one warm-up call, then the median of ``reps`` timed
repetitions on a monotonic clock.  MAC counts come from the kernels'
own counters; byte counts are the actual array allocations (for a
window matrix, the largest block the lowering builds).
"""

from __future__ import annotations

import math
import time
from dataclasses import astuple, dataclass, fields

import numpy as np

from .grid import HexTensor, cell_count
from .instrument import MacMeter
from .nn import PRESETS, TrainConfig, build_network, make_two_class_dataset, train_step
from . import ops
from .ops import HexFilterBank, conv_valid, valid_geometry
from .zeronet import _rect_conv_all, train_step_zeroout
from .zeroout import embed_parallelogram, extract_hex, rect_conv_reference, zeroout_filter

__all__ = [
    "BenchResult",
    "BENCH_CONV_HEADER",
    "bench_conv",
    "SPACE_REPORT_HEADER",
    "space_report",
    "BENCH_TRAIN_HEADER",
    "bench_train",
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


def _median_time(fn, reps: int) -> float:
    fn()  # warm-up
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


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
    rng = np.random.default_rng(seed)
    results = []
    for side in sizes:
        try:
            geom = valid_geometry(side, filter_side, stride)
        except ValueError:
            continue  # caller reports skipped cases
        t = HexTensor(side, channels, rng.standard_normal((channels, cell_count(side))))
        bank = HexFilterBank.random(rng, filters, channels, filter_side)
        e_k = cell_count(filter_side)
        hex_out = cell_count(geom.output_side)
        case_id = f"conv_L{side}_k{filter_side}_s{stride}"

        with MacMeter() as meter:
            conv_valid(t, bank, stride)
        macs_direct = meter.macs
        time_direct = _median_time(lambda: conv_valid(t, bank, stride), reps)
        im2col_bytes = min(hex_out, ops.PATCH_BLOCK) * channels * e_k * t.data.itemsize
        results.append(
            BenchResult(
                case_id, "hex_direct", side, filter_side, stride, channels, filters,
                reps, time_direct, macs_direct, hex_out,
                t.data.nbytes, im2col_bytes, bank.weights.nbytes,
            )
        )

        rect = embed_parallelogram(t)
        zbank = zeroout_filter(bank)
        with MacMeter() as meter:
            zout = rect_conv_reference(rect, zbank, stride)
        macs_zero = meter.macs
        rect_out_cells = zout.shape[1] * zout.shape[2]
        time_zero = _median_time(
            lambda: extract_hex(
                rect_conv_reference(embed_parallelogram(t), zbank, stride), geom.output_side
            ),
            reps,
        )
        results.append(
            BenchResult(
                case_id, "zeroout_ref", side, filter_side, stride, channels, filters,
                reps, time_zero, macs_zero, rect_out_cells,
                rect.nbytes, 0, zbank.weights.nbytes,
            )
        )

        def fair():
            return extract_hex(_rect_conv_all(embed_parallelogram(t), bank, stride), geom.output_side)

        with MacMeter() as meter:
            fair()
        fair_bytes = min(rect_out_cells, ops.PATCH_BLOCK) * channels * zbank.span**2 * rect.itemsize
        results.append(
            BenchResult(
                case_id, "zeroout_fair", side, filter_side, stride, channels, filters,
                reps, _median_time(fair, reps), meter.macs, rect_out_cells,
                rect.nbytes, fair_bytes, zbank.weights.nbytes,
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
    cells compare the window matrices each method materializes.
    """
    e_k = cell_count(filter_side)
    span_k = 2 * filter_side - 1
    rows = []
    for x in sizes:
        if x < filter_side:
            continue
        hex_cells = cell_count(x)
        zero_cells = (2 * x - 1) ** 2
        quasih_cells = (2 * x - 1) * math.ceil(math.sqrt(3.0) * x)
        out_side = (x - filter_side) // stride + 1
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


BENCH_TRAIN_HEADER = [
    "preset",
    "side",
    "batch",
    "steps",
    "reps",
    "path",
    "median_step_time_s",
    "first_loss",
    "last_loss",
    "max_rel_loss_gap_vs_hex",
    "time_ratio_vs_hex",
]


def bench_train(
    preset: str,
    side: int,
    batch: int = 8,
    steps: int = 5,
    reps: int = 1,
    learning_rate: float = 0.1,
    seed: int = 0,
):
    """Train the same network on both layouts; time steps, compare losses."""
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
    cfg = PRESETS[preset](side, 2, seed=seed)
    rng = np.random.default_rng(seed + 1)
    data, labels = make_two_class_dataset(rng, batch * steps, side)
    tc = TrainConfig(learning_rate, batch)

    def run(step_fn):
        net = build_network(cfg)
        losses = []
        times = []
        for s in range(steps):
            lo = s * batch
            t0 = time.perf_counter()
            loss = step_fn(net, data[lo : lo + batch], labels[lo : lo + batch], tc)
            times.append(time.perf_counter() - t0)
            losses.append(loss)
        return losses, times

    hex_losses = zero_losses = None
    hex_times = []
    zero_times = []
    for _ in range(reps):
        hex_losses, t_h = run(train_step)
        hex_times.extend(t_h)
        zero_losses, t_z = run(train_step_zeroout)
        zero_times.extend(t_z)
    # np.max and np.maximum keep a NaN (Python's max drops it), so a
    # diverged run cannot read as agreement between the layouts
    h, z = np.array(hex_losses), np.array(zero_losses)
    gap = float(np.max(np.abs(h - z) / np.maximum(np.maximum(np.abs(h), np.abs(z)), 1e-300)))
    hex_med = float(np.median(hex_times))
    zero_med = float(np.median(zero_times))
    fmt = lambda x: f"{x:.6e}"
    return [
        [preset, side, batch, steps, reps, "hexcnn", fmt(hex_med),
         fmt(hex_losses[0]), fmt(hex_losses[-1]), fmt(0.0), fmt(1.0)],
        [preset, side, batch, steps, reps, "zeroout", fmt(zero_med),
         fmt(zero_losses[0]), fmt(zero_losses[-1]), fmt(gap), fmt(zero_med / hex_med)],
    ]
