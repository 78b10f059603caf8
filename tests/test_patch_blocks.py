"""The conv lowering split into many window-matrix blocks.

``ops.PATCH_BLOCK`` is set to 5, a prime, so every convolution below,
native or ZeroOut, runs several blocks and the last one is short.  The
existing oracle, adjoint, finite-difference, float32, MAC-count and
cross-layout tests are imported and run again under that block size,
each with its own tolerance unchanged.
"""

import numpy as np
import pytest

from hexcnn import grads, matmul, nn, ops, zeronet
from hexcnn.grid import HexTensor
from hexcnn.im2col import im2col
from hexcnn.nn import LayerSpec, NetworkConfig, build_network, make_two_class_dataset
from hexcnn.ops import HexFilterBank

from test_grads import (  # noqa: F401  (collected again here)
    test_adjoint_identity,
    test_conv_backward_filter_finite_difference,
    test_conv_backward_input_finite_difference,
    test_conv_backward_input_matches_point_reflection_reference,
)
from test_nn import (  # noqa: F401
    test_composed_network_gradient_finite_difference,
    test_zeroout_filter_gradient_is_mac_metered,
    test_zeroout_gradients_match_on_composed_network,
    test_zeroout_training_trajectory_matches,
)
from test_ops import test_conv_accumulation_is_mac_counted, test_conv_single_precision_path  # noqa: F401
from test_zeroout import (  # noqa: F401
    test_mac_overhead_ratio,
    test_oracle_identity_randomized,
    test_rect_conv_all_matches_reference,
    test_rect_conv_backward_input_is_adjoint,
)

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


def test_every_zeroout_conv_product_runs_block_by_block(monkeypatch):
    # a side-5 hexagon embeds in 9x9; 3x3 windows: 49 patches, 9 blocks of 5, then 4
    net = build_network(
        NetworkConfig(5, 2, (LayerSpec.conv(3, 2, 1), LayerSpec.flatten(), LayerSpec.dense(2), LayerSpec.softmax()))
    )
    batch, labels = make_two_class_dataset(np.random.default_rng(23), 1, 5, 2)
    want = [5] * 9 + [4]

    # the native kernels' gather, filter gradient and col2im serve the rectangle too
    cols = _counting(monkeypatch, ops, "window_columns")
    logits, caches = zeronet.forward_zeroout(net, batch)
    assert cols == want
    backward = _counting(monkeypatch, grads, "window_columns")  # the same function, grads' binding
    zeronet.backward_zeroout(net, logits, caches, labels)
    assert cols == want and backward == want  # the filter gradient's

    products = _counting(monkeypatch, grads, "gemm")
    d = np.random.default_rng(24).standard_normal((3, 49))
    w = zeronet._packed(net.params[0])[1].reshape(3, 2, 9)
    grads._input_grad(d, w, zeronet._rect_blocks(9, 3, 1, BLOCK), 81)
    assert products == want


def test_block_tables_are_owned_writable_copies_of_the_window_table():
    g = ops.tap_gather(7, 2, 1)  # 91 patches
    for block in (BLOCK, ops.PATCH_BLOCK, 2048):
        pairs = ops._blocks(7, 2, 1, block)
        assert [b for b, _ in pairs] == [slice(lo, lo + block) for lo in range(0, 91, block)]
        for b, table in pairs:
            assert np.array_equal(table, g[:, b]) and table.dtype == np.int64
            assert table.base is None and table.flags.c_contiguous and table.flags.writeable
    assert not g.flags.writeable  # the public table stays read-only


def test_a_convolution_holds_its_window_table_once():
    """The conv kernels, forward and backward, read only the block
    tables, so ``tap_gather``'s cache keeps no second copy of them."""
    rng = np.random.default_rng(26)
    t = HexTensor(11, 2, rng.standard_normal((2, 331)))
    bank = HexFilterBank.random(rng, 3, 2, 3)
    ops.tap_gather.cache_clear()
    y = ops.conv_valid(t, bank, 2)
    grads.conv_backward_filter(t, y, 2, 3)
    grads.conv_backward_input(y, bank, 2, 11)
    assert ops.tap_gather.cache_info().currsize == 0


def test_an_evicted_block_table_is_rebuilt_with_the_same_bits():
    # ops._blocks and tap_gather hold 16 geometries each: filling them
    # with others evicts a convolution's tables, and its next call builds
    # them again, with the same bits
    rng = np.random.default_rng(28)
    t = HexTensor(7, 2, rng.standard_normal((2, 127)))
    bank = HexFilterBank.random(rng, 3, 2, 2)
    want = ops.conv_valid(t, bank)
    first = ops._blocks(7, 2, 1, BLOCK)
    for side in range(8, 24):
        ops._blocks(side, 2, 1, BLOCK)
        ops.tap_gather(side, 2, 1)
    assert ops._blocks.cache_info().currsize == ops.tap_gather.cache_info().currsize == 16
    assert ops._blocks(7, 2, 1, BLOCK) is not first
    assert ops.conv_valid(t, bank).data.tobytes() == want.data.tobytes()


def test_block_tables_follow_patch_block_at_call_time(monkeypatch):
    rng = np.random.default_rng(25)
    t = HexTensor(6, 1, rng.standard_normal((1, 91)))
    bank = HexFilterBank.random(rng, 2, 1, 2)  # 61 patches
    cols = _counting(monkeypatch, ops, "window_columns")
    for block, want in ((2048, [61]), (BLOCK, [5] * 12 + [1]), (7, [7] * 8 + [5])):
        monkeypatch.setattr(ops, "PATCH_BLOCK", block)
        cols.clear()
        ops.conv_valid(t, bank)
        assert cols == want


@pytest.mark.parametrize("layout", ["native", "zeroout"])
def test_the_trunk_plan_follows_patch_block_at_call_time(monkeypatch, layout):
    # a network that has already run at one block size takes up another at
    # its next forward: the fused conv's 7 pool windows of 7 cells each, a
    # sample, for a group of two; its blocks hold whole samples, as many as
    # fit the block, and at least one
    net = build_network(
        NetworkConfig(8, 1, (LayerSpec.conv(2, 2, 1), LayerSpec.maxpool(2, 3), LayerSpec.flatten(),
                             LayerSpec.dense(2), LayerSpec.softmax()))
    )
    batch, _ = make_two_class_dataset(np.random.default_rng(27), 2, 8)
    fwd = {"native": nn.forward, "zeroout": zeronet.forward_zeroout}[layout]
    cols = _counting(monkeypatch, ops, "window_columns")
    for block, want in ((2048, [98]), (BLOCK, [49, 49]), (2048, [98])):
        monkeypatch.setattr(ops, "PATCH_BLOCK", block)
        cols.clear()
        fwd(net, batch)
        assert cols == want


def test_gemm_writes_into_a_column_block():
    rng = np.random.default_rng(22)
    a, b = rng.standard_normal((3, 4)), rng.standard_normal((4, 9))
    y = np.zeros((3, 12))
    block = y[:, 2:11]
    assert matmul.gemm(a, b, out=block) is block
    assert np.allclose(y[:, 2:11], a @ b) and not y[:, :2].any() and not y[:, 11:].any()
