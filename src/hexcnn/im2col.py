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

from .grid import HexTensor, check_tensor
from .matmul import gemm
from .ops import tap_gather, valid_geometry, window_columns

__all__ = ["im2col", "gemm"]


def im2col(t: HexTensor, filter_side: int, stride: int) -> np.ndarray:
    """(patches, channels*filter_cells) matrix of flattened windows."""
    valid_geometry(check_tensor(t, "input").side, filter_side, stride)  # a convolution must tile
    return window_columns(t.data, tap_gather(t.side, filter_side, stride)).T
