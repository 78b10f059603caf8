"""The one dense matrix product behind every convolution lowering.

``gemm`` hands the product to the platform BLAS through ``a @ b`` and
meters its multiply-accumulates.  BLAS accumulation order depends only
on the operand shapes, memory layouts and thread count, so equal calls
give equal bits on one machine.
"""

from __future__ import annotations

import numpy as np

from .instrument import add_macs


def gemm(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Dense product a @ b of two 2-D arrays; raises on dimension mismatch.

    With ``out`` the product is written there (it may be a column block
    of a larger array) and ``out`` is returned.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"gemm expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dimensions disagree: {a.shape} x {b.shape}")
    add_macs(a.shape[0] * a.shape[1] * b.shape[1])
    return np.matmul(a, b, out=out)
