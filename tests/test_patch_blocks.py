"""The conv lowering split into many window-matrix blocks.

``ops.PATCH_BLOCK`` is set to 5, a prime, so every convolution below
runs several blocks and the last one is short.  The existing oracle,
adjoint, finite-difference, float32, MAC-count and cross-layout tests
are imported and run again under that block size, each with its own
tolerance unchanged.
"""

import numpy as np
import pytest

from hexcnn import grads, matmul, ops
from hexcnn.grid import HexTensor
from hexcnn.im2col import im2col
from hexcnn.ops import HexFilterBank

from test_grads import (  # noqa: F401  (collected again here)
    test_adjoint_identity,
    test_conv_backward_filter_finite_difference,
    test_conv_backward_floor_mode_finite_difference,
    test_conv_backward_input_finite_difference,
    test_conv_backward_input_matches_point_reflection_reference,
)
from test_nn import (  # noqa: F401
    test_composed_network_gradient_finite_difference,
    test_zeroout_gradients_match_on_composed_network,
    test_zeroout_training_trajectory_matches,
)
from test_ops import test_conv_accumulation_is_mac_counted, test_conv_single_precision_path  # noqa: F401
from test_zeroout import test_mac_overhead_ratio, test_oracle_identity_randomized  # noqa: F401

BLOCK = 5


@pytest.fixture(autouse=True)
def small_blocks(monkeypatch):
    monkeypatch.setattr(ops, "PATCH_BLOCK", BLOCK)


def _counting(monkeypatch, module, name):
    """Wrap ``module.name``; returns the list of column counts it produced."""
    real = getattr(module, name)
    widths = []

    def wrapper(*args, **kwargs):
        out = real(*args, **kwargs)
        widths.append(out.shape[1])
        return out

    monkeypatch.setattr(module, name, wrapper)
    return widths


def test_every_conv_product_runs_block_by_block(monkeypatch):
    rng = np.random.default_rng(21)
    t = HexTensor(5, 2, rng.standard_normal((2, 61)))
    bank = HexFilterBank.random(rng, 3, 2, 2)  # 37 patches: 7 blocks of 5, then 2
    want = [5] * 7 + [2]
    whole = bank.weights.reshape(3, -1) @ im2col(t, 2, 1).T + bank.bias[:, None]
    assert im2col(t, 2, 1).shape == (37, 14)  # im2col still returns every window

    cols = _counting(monkeypatch, ops, "window_columns")
    out = ops.conv_valid(t, bank)
    assert cols == want
    assert np.allclose(out.data, whole, rtol=1e-12, atol=1e-12)

    cols = _counting(monkeypatch, grads, "window_columns")
    grads.conv_backward_filter(t, out, 1, 2)
    assert cols == want

    products = _counting(monkeypatch, grads, "gemm")
    grads.conv_backward_input(out, bank, 1, 5)
    assert products == want


def test_gemm_writes_into_a_column_block():
    rng = np.random.default_rng(22)
    a, b = rng.standard_normal((3, 4)), rng.standard_normal((4, 9))
    y = np.zeros((3, 12))
    block = y[:, 2:11]
    assert matmul.gemm(a, b, out=block) is block
    assert np.allclose(y[:, 2:11], a @ b) and not y[:, :2].any() and not y[:, 11:].any()
