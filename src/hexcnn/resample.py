"""Square-lattice inputs on hexagonal grids: resampling, minimal covering,
and padding-overhead accounting.

The hex lattice lives in the image plane (x right, y down) with axial
basis e_v = (1, 0) and e_u = (-1/2, sqrt(3)/2): the cell pitch is a
fixed 1, the pixel pitch.  The 120-degree pair keeps all six lattice
neighbors, including the (u+1, v+1) diagonal, exactly one pitch apart,
so the cell region of a side-L hexagon maps to a regular hexagon in the
plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import HexTensor, cell_count, cells, check_int

__all__ = [
    "SquareImage",
    "OverheadReport",
    "min_cover_side",
    "cell_centers",
    "square_to_hex",
    "overhead_report",
]


@dataclass(frozen=True, eq=False)
class SquareImage:
    """Dense (channels, height, width) image, pixel pitch 1."""

    data: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.data, dtype=np.float64)
        if d.ndim == 2:
            d = d[None, :, :]
        if d.ndim != 3 or d.shape[1] < 1 or d.shape[2] < 1:
            raise ValueError(f"image must be (channels, h, w), got {d.shape}")
        d = d.copy()
        d.setflags(write=False)
        object.__setattr__(self, "data", d)

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]


def min_cover_side(x: int) -> int:
    """Smallest hexagon side whose region covers an x-by-x pixel square."""
    check_int(x, "square side")
    return (3 * x + 1 + 3) // 4  # ceil((3x+1)/4)


def cell_centers(side: int, center: tuple[float, float]) -> np.ndarray:
    """(N, 2) plane positions (x, y) of all cells, hexagon centered at ``center``."""
    uv = cells(side).astype(np.float64)
    c = side - 1
    du = uv[:, 0] - c
    dv = uv[:, 1] - c
    x = center[0] + (dv - 0.5 * du)
    y = center[1] + (math.sqrt(3.0) / 2.0) * du
    return np.stack([x, y], axis=1)


# Image sizes come from outside, so the plan cache is bounded.
@lru_cache(maxsize=16)
def _bilinear_plan(side: int, height: int, width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What bilinear sampling at every cell center reads, per image size.

    Returns (4, N) arrays for the taps (y0, x0), (y0, x0+1), (y0+1, x0),
    (y0+1, x0+1): flat pixel indices (clipped into the image), whether
    the unclipped tap lies inside the image, and the bilinear weights.
    """
    center = ((width - 1) / 2.0, (height - 1) / 2.0)
    pos = cell_centers(side, center)
    x, y = pos[:, 0], pos[:, 1]
    x0 = np.floor(x).astype(np.int64)
    y0 = np.floor(y).astype(np.int64)
    fx = x - x0
    fy = y - y0
    taps = ((y0, x0), (y0, x0 + 1), (y0 + 1, x0), (y0 + 1, x0 + 1))
    index = np.stack([yy.clip(0, height - 1) * width + xx.clip(0, width - 1) for yy, xx in taps])
    inside = np.stack([(yy >= 0) & (yy < height) & (xx >= 0) & (xx < width) for yy, xx in taps])
    weights = np.stack([(1 - fy) * (1 - fx), (1 - fy) * fx, fy * (1 - fx), fy * fx])
    for a in (index, inside, weights):
        a.setflags(write=False)
    return index, inside, weights


def square_to_hex(img: SquareImage, side: int) -> HexTensor:
    """Bilinearly sample the image at each cell center.

    The hexagon is centered on the image center; positions outside the
    image read as zero, even where the pixel their index is clipped to
    is NaN.  The sampling plan (indices, inside masks, weights) depends
    only on the side and the image size and is cached, so each call
    does one gather and the weighted sum.
    """
    index, inside, w = _bilinear_plan(check_int(side, "side"), img.height, img.width)
    vals = np.take(img.data.reshape(img.channels, -1), index, axis=1)  # (C, 4, N)
    vals = np.where(inside, vals, 0.0)
    out = vals[:, 0] * w[0] + vals[:, 1] * w[1] + vals[:, 2] * w[2] + vals[:, 3] * w[3]
    out.setflags(write=False)
    return HexTensor(side, img.channels, out)


@dataclass(frozen=True)
class OverheadReport:
    """Cell counts and padding overheads for covering an x-by-x square."""

    square_side: int
    hex_side: int
    hex_cells: int
    zeroout_cells: int
    quasih_cells: int
    hex_pad_fraction: float
    zeroout_pad_fraction: float


def overhead_report(x: int) -> OverheadReport:
    """Input-footprint comparison for an x-by-x square input.

    Pad fractions are exact cell-count ratios relative to the x*x
    pixels.
    """
    y = min_cover_side(x)
    hex_cells = cell_count(y)
    zeroout_cells = (2 * y - 1) ** 2
    quasih_cells = (2 * x - 1) * math.ceil(math.sqrt(3.0) * x)
    pixels = x * x
    return OverheadReport(
        square_side=x,
        hex_side=y,
        hex_cells=hex_cells,
        zeroout_cells=zeroout_cells,
        quasih_cells=quasih_cells,
        hex_pad_fraction=(hex_cells - pixels) / pixels,
        zeroout_pad_fraction=(zeroout_cells - pixels) / pixels,
    )
