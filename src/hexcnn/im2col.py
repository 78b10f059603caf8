"""Lowering hexagonal convolution to one dense matrix multiplication.

Each window becomes one matrix row (channel major, then filter storage
order of the cells); the filter bank becomes a matrix whose column f is
filter f flattened the same way.  The product, plus bias, is the
convolution output in storage order.
Both are transposed views of what ``conv_valid`` multiplies, so
``conv_gemm`` makes the same BLAS call and gives the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import HexTensor, cell_count
from .matmul import gemm
from .ops import HexFilterBank, valid_geometry, window_columns

__all__ = [
    "Im2ColMatrix",
    "FilterMatrix",
    "patch_count",
    "im2col",
    "filters_to_matrix",
    "matrix_to_filters",
    "conv_gemm",
    "gemm",
]


@dataclass(frozen=True, eq=False)
class Im2ColMatrix:
    """(patches, channels*filter_cells) matrix of flattened windows."""

    values: np.ndarray
    patches: int
    channels: int
    filter_cells: int

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != (self.patches, self.channels * self.filter_cells):
            raise ValueError(f"im2col matrix has shape {v.shape}, metadata disagrees")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True, eq=False)
class FilterMatrix:
    """(channels*filter_cells, filters) matrix; column f is filter f."""

    values: np.ndarray
    channels: int
    filter_cells: int

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 2 or v.shape[0] != self.channels * self.filter_cells:
            raise ValueError(f"filter matrix has shape {v.shape}, metadata disagrees")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def filters(self) -> int:
        return self.values.shape[1]


def patch_count(input_side: int, filter_side: int, stride: int) -> int:
    """Number of windows: the cell count of the output hexagon."""
    geom = valid_geometry(input_side, filter_side, stride)
    return cell_count(geom.output_side)


def im2col(
    t: HexTensor, filter_side: int, stride: int, floor_mode: bool = False
) -> Im2ColMatrix:
    geom = valid_geometry(t.side, filter_side, stride, floor_mode)
    values = window_columns(t, geom).T
    return Im2ColMatrix(
        values, cell_count(geom.output_side), t.channels, cell_count(filter_side)
    )


def filters_to_matrix(bank: HexFilterBank) -> FilterMatrix:
    values = bank.weights.reshape(bank.filters, -1).T
    return FilterMatrix(values, bank.in_channels, bank.cells_per_filter)


def matrix_to_filters(
    mat: FilterMatrix, filter_side: int, bias: np.ndarray | None = None
) -> HexFilterBank:
    """Inverse of filters_to_matrix (bias supplied separately)."""
    if mat.filter_cells != cell_count(filter_side):
        raise ValueError(
            f"matrix carries {mat.filter_cells} cells per filter, side {filter_side} needs {cell_count(filter_side)}"
        )
    w = mat.values.T.reshape(mat.filters, mat.channels, mat.filter_cells)
    return HexFilterBank(filter_side, w, bias)


def conv_gemm(
    t: HexTensor, bank: HexFilterBank, stride: int = 1, floor_mode: bool = False
) -> HexTensor:
    """Convolution via explicit im2col and matrix multiplication."""
    if bank.in_channels != t.channels:
        raise ValueError(
            f"filter bank expects {bank.in_channels} channels, input has {t.channels}"
        )
    a = im2col(t, bank.filter_side, stride, floor_mode)
    b = filters_to_matrix(bank)
    y = gemm(b.values.T, a.values.T) + bank.bias[:, None]
    geom = valid_geometry(t.side, bank.filter_side, stride, floor_mode)
    return HexTensor(geom.output_side, bank.filters, y)
