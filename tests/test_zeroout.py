import numpy as np
import pytest

from hexcnn import ops
from hexcnn.checks import rel_err, zeroout_conv
from hexcnn.grads import _input_grad
from hexcnn.grid import HexTensor, cell_count, cells
from hexcnn.instrument import MacMeter
from hexcnn.ops import HexFilterBank, conv_full, conv_valid
from hexcnn.zeroout import (
    embed_parallelogram,
    extract_hex,
    hex_mask,
    rect_conv_reference,
    zeroout_filter,
)
from hexcnn.zeronet import _hex_windows, _packed, _rect_blocks, _rect_conv_all


def test_embed_marks_invalid_corners():
    t = HexTensor(2, 1, np.ones(7))
    rect = embed_parallelogram(t)
    assert rect.shape == (1, 3, 3)
    assert not hex_mask(2)[0, 2] and not hex_mask(2)[2, 0]
    assert hex_mask(2).sum() == 7
    assert rect[0, 0, 2] == 0.0 and rect[0, 2, 0] == 0.0


def test_embed_single_cell():
    t = HexTensor(1, 1, np.array([3.0]))
    rect = embed_parallelogram(t)
    assert rect.shape == (1, 1, 1) and rect[0, 0, 0] == 3.0


@pytest.mark.parametrize("side,valid,total", [(2, 7, 9), (5, 61, 81)])
def test_embed_cell_counts(side, valid, total):
    mask = hex_mask(side)
    assert mask.sum() == valid and mask.size == total


def test_extract_round_trip():
    rng = np.random.default_rng(0)
    t = HexTensor(4, 3, rng.standard_normal((3, 37)))
    assert np.array_equal(extract_hex(embed_parallelogram(t), 4).data, t.data)
    assert np.array_equal(extract_hex(embed_parallelogram(t).tolist(), 4).data, t.data)  # any array-like
    zeros = extract_hex(np.zeros((2, 7, 7)), 4)
    assert not zeros.data.any()
    with pytest.raises(ValueError):
        extract_hex(np.zeros((1, 3, 3)), 3)


def test_zeroout_filter_packing():
    bank = HexFilterBank(2, np.ones((1, 1, 7)))
    z = zeroout_filter(bank)
    assert z.weights.shape == (1, 1, 3, 3)
    assert z.weights[0, 0, 0, 2] == 0.0 and z.weights[0, 0, 2, 0] == 0.0
    assert z.weights.sum() == 7.0

    one = zeroout_filter(HexFilterBank(1, np.array([[[2.0]]])))
    assert one.weights.shape == (1, 1, 1, 1) and one.weights[0, 0, 0, 0] == 2.0

    # structural zero count for side 3: 25 - 19
    z3 = zeroout_filter(HexFilterBank(3, np.ones((1, 1, 19))))
    assert (z3.weights == 0).sum() == 6


def test_zeroout_round_trip():
    rng = np.random.default_rng(1)
    bank = HexFilterBank.random(rng, 3, 2, 3)
    zbank = zeroout_filter(bank)
    uv = cells(3)
    assert np.array_equal(zbank.weights[:, :, uv[:, 0], uv[:, 1]], bank.weights)
    assert np.array_equal(zbank.bias, bank.bias)


def test_zeroout_rejects_nonzero_corners():
    from hexcnn.zeroout import ZeroOutFilterBank

    w = np.ones((1, 1, 3, 3))
    with pytest.raises(ValueError):
        ZeroOutFilterBank(2, w, np.zeros(1))


@pytest.mark.parametrize("bias", [np.zeros(1), np.zeros(3), np.float64(0.0), np.zeros((2, 1))])
def test_zeroout_bank_rejects_bias_not_one_per_filter(bias):
    from hexcnn.zeroout import ZeroOutFilterBank

    w = zeroout_filter(HexFilterBank(2, np.ones((2, 1, 7)))).weights
    assert ZeroOutFilterBank(2, w, np.zeros(2)).bias.shape == (2,)
    with pytest.raises(ValueError, match=r"bias must have shape \(2,\)"):
        ZeroOutFilterBank(2, w, bias)


def test_rect_conv_scaling_filter():
    rng = np.random.default_rng(2)
    r = rng.standard_normal((1, 4, 5))
    z = zeroout_filter(HexFilterBank(1, np.array([[[1.5]]])))
    out = rect_conv_reference(r, z)
    assert np.allclose(out, 1.5 * r)


def test_rect_conv_allones_hand_case():
    r = np.ones((1, 3, 3))
    w = np.ones((1, 1, 3, 3))
    from hexcnn.zeroout import ZeroOutFilterBank

    w[0, 0, 0, 2] = w[0, 0, 2, 0] = 0.0
    z = ZeroOutFilterBank(2, w, np.zeros(1))
    out = rect_conv_reference(r, z)
    assert out.shape == (1, 1, 1) and out[0, 0, 0] == 7.0


def test_rect_conv_full_mode_matches_hex_full():
    rng = np.random.default_rng(3)
    t = HexTensor(3, 2, rng.standard_normal((2, 19)))
    bank = HexFilterBank.random(rng, 2, 2, 2)
    full_hex = conv_full(t, bank)
    pad = 2 * (bank.filter_side - 1)
    padded = np.pad(embed_parallelogram(t), ((0, 0), (pad, pad), (pad, pad)))
    rect = rect_conv_reference(padded, zeroout_filter(bank))
    assert rel_err(extract_hex(rect, full_hex.side).data, full_hex.data) < 1e-12


def test_oracle_identity_hand_case():
    # the frozen side-3 window sums, this time through the rectangle path
    t = HexTensor(3, 1, np.arange(1.0, 20.0))
    out = zeroout_conv(t, HexFilterBank(2, np.ones((1, 1, 7))))
    assert np.array_equal(out.data[0], [37, 44, 63, 70, 77, 96, 103])


def test_oracle_identity_randomized():
    rng = np.random.default_rng(4)
    for _ in range(40):
        fside = int(rng.integers(1, 5))
        stride = int(rng.integers(1, 4))
        out_side = int(rng.integers(1, (12 - fside) // stride + 2))
        side = stride * (out_side - 1) + fside
        c = int(rng.integers(1, 5))
        f = int(rng.integers(1, 5))
        t = HexTensor(side, c, rng.standard_normal((c, cell_count(side))))
        bank = HexFilterBank.random(rng, f, c, fside)
        assert rel_err(conv_valid(t, bank, stride).data, zeroout_conv(t, bank, stride).data) < 1e-10


def test_mac_overhead_ratio():
    rng = np.random.default_rng(5)
    t = HexTensor(5, 2, rng.standard_normal((2, 61)))
    bank = HexFilterBank.random(rng, 3, 2, 2)
    with MacMeter() as hex_m:
        out = conv_valid(t, bank)
    with MacMeter() as rect_m:
        rect_out = rect_conv_reference(embed_parallelogram(t), zeroout_filter(bank))
    per_hex = hex_m.macs / out.cell_count
    per_rect = rect_m.macs / (rect_out.shape[1] * rect_out.shape[2])
    assert per_rect / per_hex == pytest.approx(9 / 7)


def test_footprint_identity():
    for side in (2, 5, 9):
        t = HexTensor(side, 3, np.zeros((3, cell_count(side))))
        rect = embed_parallelogram(t)
        assert rect.size == (2 * side - 1) ** 2 * 3
    # cell ratio tends to 3/4
    assert abs(cell_count(500) / (2 * 500 - 1) ** 2 - 0.75) < 1e-2


def _rect_geometries(seed, count):
    """Random (flat x, span, zero-bias hex bank, stride) tuples: x is
    (C, span*span), strides 1-3, filter sides 1-3, 1-4 channels and
    filters, any remainder at the edge."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        side = int(rng.integers(1, 4))
        stride = int(rng.integers(1, 4))
        c, f = (int(n) for n in rng.integers(1, 5, size=2))
        k = 2 * side - 1
        span = int(rng.integers(k, k + 3 * stride + 2))
        bank = HexFilterBank(side, rng.standard_normal((f, c, cell_count(side))))
        yield rng.standard_normal((c, span * span)), span, bank, stride


def test_rect_conv_all_matches_reference():
    for x, span, bank, s in _rect_geometries(11, 60):
        want = rect_conv_reference(x.reshape(-1, span, span), zeroout_filter(bank), s)
        assert rel_err(_rect_conv_all(x, span, bank, s), want.reshape(want.shape[0], -1)) <= 1e-10


def test_rect_conv_backward_input_is_adjoint():
    # ZeroOut's input gradient is the native col2im over the rectangle's tables
    rng = np.random.default_rng(12)
    for x, span, bank, s in _rect_geometries(13, 60):
        y = _rect_conv_all(x, span, bank, s)
        d = rng.standard_normal(y.shape)
        blocks = _rect_blocks(span, 2 * bank.filter_side - 1, s, ops.PATCH_BLOCK)
        dx = _input_grad(d, _packed(bank)[1].reshape(bank.filters, bank.in_channels, -1), blocks, span * span)
        assert dx.shape == x.shape
        lhs = np.vdot(y, d)
        rhs = np.vdot(x, dx)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs)), (x.shape, bank.weights.shape, s)


def test_hex_windows_are_the_pool_windows_on_the_embedding():
    # built here from cell coordinates alone, not from the lattice's
    # window table, so a table error both layouts share would show
    for side in range(1, 20):
        span = 2 * side - 1
        for window in range(1, side + 1):
            for stride in range(1, 5):
                out_side = (side - window) // stride + 1  # pools floor
                uv = cells(window)[:, None, :] + cells(out_side)[None, :, :] * stride
                g = _hex_windows(side, window, stride)
                assert g.dtype == np.int64 and not g.flags.writeable
                assert np.array_equal(g, uv[..., 0] * span + uv[..., 1]), (side, window, stride)
