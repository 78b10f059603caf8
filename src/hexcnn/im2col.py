"""Lowering hexagonal convolution to one dense matrix multiplication.

``im2col`` makes each window one matrix row: channel major, then the
filter storage order of the cells.  Reshaped to (filters,
channels*filter_cells), the filter bank holds each filter flattened the
same way, so a convolution is one product of the two plus bias.
``conv_valid`` makes that BLAS call on the tap-major window matrix one
block of patches at a time; ``im2col`` materializes the whole matrix and
returns its transposed view.
"""

from __future__ import annotations

import numpy as np

from .grid import HexTensor, cell_count
from .matmul import gemm
from .ops import valid_geometry, window_columns

__all__ = ["patch_count", "im2col", "gemm"]


def patch_count(input_side: int, filter_side: int, stride: int) -> int:
    """Number of windows: the cell count of the output hexagon."""
    geom = valid_geometry(input_side, filter_side, stride)
    return cell_count(geom.output_side)


def im2col(t: HexTensor, filter_side: int, stride: int) -> np.ndarray:
    """(patches, channels*filter_cells) matrix of flattened windows."""
    geom = valid_geometry(t.side, filter_side, stride)
    return window_columns(t, geom).T
