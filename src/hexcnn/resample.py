"""Square-lattice inputs on hexagonal grids: resampling and minimal covering.

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

from .grid import HexTensor, _real_array, cells, check_int

__all__ = [
    "SquareImage",
    "min_cover_side",
    "cell_centers",
    "square_to_hex",
]


@dataclass(frozen=True, eq=False)
class SquareImage:
    """Dense (channels, height, width) image, pixel pitch 1."""

    data: np.ndarray

    def __post_init__(self):
        d = _real_array(self.data, "image", np.float64)
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
def _bilinear_plan(side: int, height: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """What bilinear sampling at every cell center reads, per image size.

    Returns (4, N) arrays for the taps (y0, x0), (y0, x0+1), (y0+1, x0),
    (y0+1, x0+1): flat pixel indices into the image with one zero pixel
    appended (index ``height*width``), which every tap outside the image
    reads, and the bilinear weights.  The indices stay writable, since
    ``np.take`` copies a read-only index array before it gathers (see
    ``ops._split``); nothing writes to them.
    """
    center = ((width - 1) / 2.0, (height - 1) / 2.0)
    pos = cell_centers(side, center)
    x, y = pos[:, 0], pos[:, 1]
    x0 = np.floor(x).astype(np.int64)
    y0 = np.floor(y).astype(np.int64)
    fx = x - x0
    fy = y - y0
    taps = ((y0, x0), (y0, x0 + 1), (y0 + 1, x0), (y0 + 1, x0 + 1))
    index = np.stack([
        np.where((yy >= 0) & (yy < height) & (xx >= 0) & (xx < width), yy * width + xx, height * width)
        for yy, xx in taps
    ])
    weights = np.stack([(1 - fy) * (1 - fx), (1 - fy) * fx, fy * (1 - fx), fy * fx])
    weights.setflags(write=False)
    return index, weights


def square_to_hex(img: SquareImage, side: int) -> HexTensor:
    """Bilinearly sample the image at each cell center.

    The hexagon is centered on the image center; positions outside the
    image read as zero, even where the nearest pixel is NaN.  The
    sampling plan (indices, weights) depends only on the side and the
    image size and is cached, so each call does one gather, one in-place
    multiply by the weights and the sum, accumulated tap by tap.
    """
    if not isinstance(img, SquareImage):
        raise ValueError(f"image must be a SquareImage, got {type(img).__name__}")
    index, w = _bilinear_plan(check_int(side, "side"), img.height, img.width)
    c = img.channels
    padded = np.zeros((c, img.height * img.width + 1))  # the last pixel is the outside's zero
    padded[:, :-1] = img.data.reshape(c, -1)
    vals = np.take(padded, index, axis=1)  # (C, 4, N)
    vals *= w  # every tap's product, in place, as tap k's temporary would round it
    out = vals[:, 0] + vals[:, 1]  # owned, so HexTensor adopts it
    out += vals[:, 2]
    out += vals[:, 3]
    out.setflags(write=False)
    return HexTensor(side, c, out)
