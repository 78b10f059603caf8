"""Command-line interface: verification, space reports and convolution
micro-benchmarks as CSV, and image resampling.  Training time on both
layouts is measured by hexbench's ``lenet-train`` workload.

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from . import bench
from .checks import run_adjoint_suite, run_gradient_suite, run_oracle_suite
from .fileio import read_image, write_hxt
from .resample import min_cover_side, square_to_hex

VERIFY_HEADER = ["suite", "case", "status", "max_rel_err"]


def _write_csv(out, header, rows) -> None:
    """``out`` is the file ``main`` opened for ``--out``, or None for stdout."""
    writer = csv.writer(out or sys.stdout)
    writer.writerow(header)
    writer.writerows(rows)


def _cannot_write(path, exc: OSError | ValueError) -> int:
    """Report an output path that cannot be opened (ValueError: a NUL in
    it) as a usage error."""
    print(f"error: cannot write {path}: {getattr(exc, 'strerror', None) or exc}", file=sys.stderr)
    return 2


def _report_skipped(args, kept) -> None:
    """Name on stderr each requested side that produced no row."""
    for side in args.sizes:
        if side not in kept:
            print(f"skipping side {side}: geometry invalid for filter {args.filter_side} "
                  f"stride {args.stride}", file=sys.stderr)


def _int_list(text: str) -> list[int]:
    """argparse type: a non-empty comma-separated list of integers >= 1."""
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        values = []
    if not values or min(values) < 1:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers >= 1, got {text!r}"
        )
    return values


def _int_at_least(minimum: int):
    """argparse type: an integer no smaller than ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
            if value >= minimum:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {text!r}")

    return parse


_positive_int = _int_at_least(1)
_non_negative_int = _int_at_least(0)


def _side(text: str) -> str | int:
    """argparse type: ``"auto"`` or a hexagon side, an integer >= 1."""
    return text if text == "auto" else _positive_int(text)


def cmd_verify(args) -> int:
    rows = []
    failures = []
    if args.cases > 0:
        for suite_rows, suite_failures in (
            run_oracle_suite(args.seed, args.cases),
            run_adjoint_suite(args.seed + 1, args.cases),
            run_gradient_suite(args.seed + 2, args.gradient_probes),
        ):
            rows.extend(suite_rows)
            failures.extend(suite_failures)
    _write_csv(args.out, VERIFY_HEADER, [[r["suite"], r["case"], r["status"], f"{r['max_rel_err']:.3e}"] for r in rows])
    if failures:
        name, payload = failures[0]
        if payload is not None:
            replay = f"hexcnn-replay-{name}.npz"
            np.savez(replay, **payload)
            print(f"verification failed: {name} (inputs saved to {replay})", file=sys.stderr)
        else:
            print(f"verification failed: {name}", file=sys.stderr)
        return 1
    return 0


def cmd_space_report(args) -> int:
    rows = bench.space_report(args.sizes, channels=args.channels, filter_side=args.filter_side, stride=args.stride)
    _report_skipped(args, {r[0] for r in rows})
    _write_csv(args.out, bench.SPACE_REPORT_HEADER, rows)
    return 0


def cmd_bench_conv(args) -> int:
    results = bench.bench_conv(
        args.sizes,
        filter_side=args.filter_side,
        stride=args.stride,
        channels=args.channels,
        filters=args.filters,
        reps=args.reps,
        seed=args.seed,
    )
    _report_skipped(args, {r.input_side for r in results})
    _write_csv(args.out, bench.BENCH_CONV_HEADER, [r.row() for r in results])
    return 0


def cmd_resample(args) -> int:
    try:
        img = read_image(args.input)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    side = min_cover_side(max(img.height, img.width)) if args.side == "auto" else args.side
    hex_img = square_to_hex(img, side)
    try:
        write_hxt(args.output, hex_img)
    except (OSError, ValueError) as exc:
        return _cannot_write(args.output, exc)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hexcnn",
        description="Hexagonal CNN kernels: verification, space reports, and benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the oracle, adjoint, and gradient suites")
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--cases", type=_non_negative_int, default=50, help="randomized cases per suite")
    p.add_argument("--gradient-probes", type=_non_negative_int, default=20)
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("space-report", help="storage formulas for hex input vs baselines")
    p.add_argument("--sizes", type=_int_list, default=[30, 60, 90, 120],
                   help="comma-separated hexagon side lengths")
    p.add_argument("--channels", type=_positive_int, default=3)
    p.add_argument("--filter-side", type=_positive_int, default=2)
    p.add_argument("--stride", type=_positive_int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_space_report)

    p = sub.add_parser("bench-conv", help="time hex vs ZeroOut convolution")
    p.add_argument("--sizes", type=_int_list, default=[64, 128, 256])
    p.add_argument("--filter-side", type=_positive_int, default=2)
    p.add_argument("--stride", type=_positive_int, default=1)
    p.add_argument("--channels", type=_positive_int, default=3)
    p.add_argument("--filters", type=_positive_int, default=1)
    p.add_argument("--reps", type=_positive_int, default=5)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench_conv)

    p = sub.add_parser("resample", help="resample a square image onto a hexagon")
    p.add_argument("input", help="IMG1, PGM (P5), or PPM (P6) file")
    p.add_argument("output", help="output HXT1 path")
    p.add_argument("--side", type=_side, default="auto",
                   help="hexagon side length, or 'auto' for the minimal covering")
    p.set_defaults(func=cmd_resample)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    path = getattr(args, "out", None)
    if path is None:
        return args.func(args)
    # open the CSV before any work, so an unwritable path is a usage error
    try:
        out = open(path, "w", newline="")
    except (OSError, ValueError) as exc:
        return _cannot_write(path, exc)
    with out:
        args.out = out
        return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
