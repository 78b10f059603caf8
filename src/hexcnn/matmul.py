"""The one dense matrix product behind every convolution lowering.

``gemm`` hands the product to the platform BLAS through ``a @ b`` and
meters its multiply-accumulates.  BLAS accumulation order depends only
on the operand shapes, memory layouts and thread count, so equal calls
give equal bits on one machine.
"""

from __future__ import annotations

import numpy as np

from .grid import _real_array
from .instrument import add_macs


def gemm(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Dense product a @ b of two 2-D real arrays; operands that are not
    real numbers or disagree in shape raise ``ValueError``.

    With ``out`` the product is written there (it may be a column block
    of a larger array) and ``out`` is returned; ``out`` must be an
    ndarray of the product's shape and of a float dtype the product
    casts to safely, or ``ValueError`` is raised.
    """
    a = _real_array(a, "gemm operands")
    b = _real_array(b, "gemm operands")
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"gemm expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dimensions disagree: {a.shape} x {b.shape}")
    shape = (a.shape[0], b.shape[1])
    if out is not None and not (
        isinstance(out, np.ndarray)
        and out.shape == shape
        and out.dtype.kind == "f"
        and np.can_cast(np.result_type(a, b), out.dtype)
    ):
        got = f"{out.dtype} {out.shape}" if isinstance(out, np.ndarray) else type(out).__name__
        raise ValueError(f"out must be a float {shape} array that holds {np.result_type(a, b)}, got {got}")
    add_macs(a.shape[0] * a.shape[1] * b.shape[1])
    return np.matmul(a, b, out=out)
