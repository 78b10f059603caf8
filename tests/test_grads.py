import numpy as np
import pytest

from hexcnn.checks import _sample_geometry
from hexcnn.grads import (
    avgpool_backward,
    conv_backward_filter,
    conv_backward_input,
    conv_backward_input_reflect,
    maxpool_backward,
    transpose_reflect,
    upsample_stride,
)
from hexcnn.grid import HexTensor, cell_count, cells, is_valid_cell, offset_table, pad_rings
from hexcnn.nn import _activate, _relu_grad
from hexcnn.ops import HexFilterBank, avgpool, conv_full, conv_valid, maxpool, tap_gather

from test_ops import winners

H = 1e-6


def fd_grad(loss, x, coord, h=H):
    """Central finite difference of a scalar loss in one input coordinate."""
    xp = x.copy()
    xp[coord] += h
    hi = loss(xp)
    xp[coord] -= 2 * h
    lo = loss(xp)
    return (hi - lo) / (2 * h)


def assert_fd_close(analytic, numeric, tol=1e-6):
    assert abs(analytic - numeric) <= tol * max(abs(analytic), abs(numeric), 1.0)


def sq_loss(t):
    return 0.5 * float(np.vdot(t.data, t.data))


def test_upsample_identity_and_zeros():
    rng = np.random.default_rng(0)
    t = HexTensor(3, 2, rng.standard_normal((2, 19)))
    assert upsample_stride(t, 1, 3) is t
    z = upsample_stride(HexTensor(2, 1, np.zeros(7)), 3, 4)
    assert not z.data.any()


def test_upsample_anchor_placement():
    t = HexTensor(2, 1, np.arange(1.0, 8.0))
    up = upsample_stride(t, 3, 4)
    assert up.side == 4
    anchors = [(3 * u, 3 * v) for u, v in cells(2)]
    assert all(is_valid_cell(4, u, v) for u, v in anchors)
    for (u, v), val in zip(anchors, t.data[0]):
        assert up.value(0, u, v) == val
    assert up.data.sum() == t.data.sum()
    assert (up.data != 0).sum() == 7


def test_upsample_rejects_bad_target():
    t = HexTensor(2, 1, np.zeros(7))
    with pytest.raises(ValueError):
        upsample_stride(t, 3, 5)


@pytest.mark.parametrize("stride, target_side", [(0, 1), (2.0, 3), (2, 3.0)])
def test_upsample_rejects_zero_and_float_arguments(stride, target_side):
    # stride 0 would send all seven values to one anchor and lose their mass
    t = HexTensor(2, 1, np.arange(1.0, 8.0))
    with pytest.raises(ValueError, match="integer"):
        upsample_stride(t, stride, target_side)


def test_transpose_reflect_swaps_and_reflects():
    rng = np.random.default_rng(1)
    bank = HexFilterBank.random(rng, 3, 2, 2)
    flipped = transpose_reflect(bank)
    assert flipped.filters == 2 and flipped.in_channels == 3
    assert not flipped.bias.any()
    span = 2 * 2 - 2
    table = offset_table(2)
    for f in range(3):
        for c in range(2):
            for u, v in cells(2):
                assert flipped.weights[c, f, table[span - u, span - v]] == (
                    bank.weights[f, c, table[u, v]]
                )


def test_conv_backward_input_filter_side_one():
    rng = np.random.default_rng(2)
    delta = HexTensor(4, 1, rng.standard_normal((1, 37)))
    bank = HexFilterBank(1, np.array([[[2.5]]]))
    out = conv_backward_input(delta, bank, 1, 4)
    assert np.allclose(out.data, 2.5 * delta.data)


@pytest.mark.parametrize("backward", [conv_backward_input, conv_backward_input_reflect])
def test_conv_backward_input_rejects_error_channels_that_are_not_filters(backward):
    bank = HexFilterBank(2, np.ones((3, 2, 7)))
    delta = HexTensor(2, 2, np.zeros(14))  # 2 channels for a 3-filter bank
    with pytest.raises(ValueError, match="2 channels.*3 filters"):
        backward(delta, bank, 1, 3)


def test_conv_backward_input_zero_delta():
    bank = HexFilterBank(2, np.ones((2, 3, 7)))
    out = conv_backward_input(HexTensor(2, 2, np.zeros(14)), bank, 1, 3)
    assert out.side == 3 and not out.data.any()


@pytest.mark.parametrize("side,fside,stride", [(3, 2, 1), (5, 2, 3), (7, 3, 2), (4, 4, 1)])
def test_conv_backward_input_finite_difference(side, fside, stride):
    rng = np.random.default_rng(side * 10 + stride)
    channels, filters = 2, 3
    x = rng.standard_normal((channels, cell_count(side)))
    bank = HexFilterBank.random(rng, filters, channels, fside)

    def loss(arr):
        return sq_loss(conv_valid(HexTensor(side, channels, arr), bank, stride))

    out = conv_valid(HexTensor(side, channels, x), bank, stride)
    grad = conv_backward_input(out, bank, stride, side).data
    for coord in [(0, 0), (1, cell_count(side) // 2), (0, cell_count(side) - 1)]:
        assert_fd_close(grad[coord], fd_grad(loss, x, coord))


def test_conv_backward_filter_all_ones_input():
    rng = np.random.default_rng(3)
    t = HexTensor(3, 1, np.ones(19))
    delta = HexTensor(2, 1, rng.standard_normal((1, 7)))
    dw, db = conv_backward_filter(t, delta, 1, 2)
    assert np.allclose(dw, delta.data.sum())
    assert db[0] == pytest.approx(delta.data.sum())


def test_conv_backward_filter_zero_delta():
    t = HexTensor(3, 2, np.ones(38))
    dw, db = conv_backward_filter(t, HexTensor(2, 4, np.zeros(28)), 1, 2)
    assert not dw.any() and not db.any()


@pytest.mark.parametrize("side,fside,stride", [(3, 2, 1), (5, 2, 3), (6, 2, 2)])
def test_conv_backward_filter_finite_difference(side, fside, stride):
    rng = np.random.default_rng(side * 7 + stride)
    channels, filters = 2, 2
    t = HexTensor(side, channels, rng.standard_normal((channels, cell_count(side))))
    bank = HexFilterBank.random(rng, filters, channels, fside)
    out = conv_valid(t, bank, stride)
    dw, db = conv_backward_filter(t, out, stride, fside)

    def wloss(w):
        return sq_loss(conv_valid(t, HexFilterBank(fside, w, bank.bias), stride))

    def bloss(b):
        return sq_loss(conv_valid(t, HexFilterBank(fside, bank.weights, b), stride))

    for coord in [(0, 0, 0), (1, 1, cell_count(fside) - 1)]:
        assert_fd_close(dw[coord], fd_grad(wloss, bank.weights.copy(), coord))
    for f in range(filters):
        assert_fd_close(db[f], fd_grad(bloss, bank.bias.copy(), (f,)))


def test_maxpool_backward_disjoint_windows_and_mass():
    rng = np.random.default_rng(4)
    t = HexTensor(5, 1, np.arange(61.0))
    out, taps = maxpool(t, 2, 3)
    delta = HexTensor(2, 1, rng.standard_normal((1, 7)))
    back = maxpool_backward(delta, taps, 2, 3, 5)
    # non-overlapping tiling: each winner receives exactly one value
    for val, win in zip(delta.data[0], winners(taps, tap_gather(5, 2, 3))[0]):
        assert back.data[0, win] == val
    assert np.count_nonzero(back.data) == 7
    assert back.data.sum() == pytest.approx(delta.data.sum())


def test_maxpool_nan_window_outputs_nan_and_routes_to_first_nan():
    # side 3, window 2, stride 1: seven overlapping windows
    x = np.arange(19.0)
    x[[3, 8]] = np.nan  # both in windows 0 (taps 2, 5) and 2 (taps 0, 3); 8 in 3 and 5; none in 1, 4, 6
    out, taps = maxpool(HexTensor(3, 1, x), 2, 1)
    back = maxpool_backward(HexTensor(2, 1, np.ones(7)), taps, 2, 1, 3)
    won = winners(taps, tap_gather(3, 2, 1))
    for p, window in enumerate(tap_gather(3, 2, 1).T):
        vals = x[window]
        if np.isnan(vals).any():
            first_nan = window[np.isnan(vals).argmax()]
            assert np.isnan(out.data[0, p]) and won[0, p] == first_nan
        else:
            assert out.data[0, p] == vals.max() and won[0, p] == window[vals.argmax()]
    assert np.isnan(out.data).any() and not np.isnan(out.data).all()
    assert back.data.sum() == 7.0 and back.data[0, 3] == back.data[0, 8] == 2.0


def test_maxpool_backward_zero_delta():
    t = HexTensor(5, 2, np.arange(122.0))
    _, taps = maxpool(t, 2, 3)
    back = maxpool_backward(HexTensor(2, 2, np.zeros(14)), taps, 2, 3, 5)
    assert not back.data.any()


def test_maxpool_backward_finite_difference():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((1, 61))
    t = HexTensor(5, 1, x)
    out, taps = maxpool(t, 2, 3)
    grad = maxpool_backward(out, taps, 2, 3, 5).data

    def loss(arr):
        return sq_loss(maxpool(HexTensor(5, 1, arr), 2, 3)[0])

    for coord in [(0, int(w)) for w in winners(taps, tap_gather(5, 2, 3))[0][:4]] + [(0, 1)]:
        assert_fd_close(grad[coord], fd_grad(loss, x, coord))


def _set_tap(taps, value):
    bad = taps.copy()
    bad[0, 2] = value
    return bad


@pytest.mark.parametrize(
    "bad",
    [
        pytest.param(lambda taps: taps.astype(np.float64), id="float"),
        pytest.param(lambda taps: taps[:, :-1], id="shape"),
        pytest.param(lambda taps: _set_tap(taps, cell_count(2)), id="window_cells"),
        # the taps are unsigned; a signed copy can hold a negative one
        pytest.param(lambda taps: _set_tap(taps.astype(np.int64), -1), id="negative"),
    ],
)
def test_maxpool_backward_rejects_malformed_taps(bad):
    out, taps = maxpool(HexTensor(5, 2, np.arange(122.0)), 2, 3)
    with pytest.raises(ValueError, match="taps must"):
        maxpool_backward(out, bad(taps), 2, 3, 5)


@pytest.mark.parametrize(
    "kernel,what",
    [
        ("maxpool", "input"),
        ("avgpool", "input"),
        ("conv_valid", "input"),
        ("maxpool_backward", "error"),
        ("avgpool_backward", "error"),
        ("conv_backward_input", "error"),
        ("conv_backward_filter", "input"),
        ("conv_backward_filter", "error"),
    ],
)
def test_kernels_reject_bare_arrays(kernel, what):
    # a tensor's bare data array used to raise AttributeError ('side')
    t = HexTensor(5, 2, np.arange(122.0))
    bank = HexFilterBank(2, np.ones((2, 2, 7)))
    pooled, taps = maxpool(t, 2, 3)
    y = conv_valid(t, bank)
    bare = lambda tensor, name: tensor.data if name == what else tensor
    call = {
        "maxpool": lambda: maxpool(bare(t, "input"), 2, 3),
        "avgpool": lambda: avgpool(bare(t, "input"), 2, 3),
        "conv_valid": lambda: conv_valid(bare(t, "input"), bank),
        "maxpool_backward": lambda: maxpool_backward(bare(pooled, "error"), taps, 2, 3, 5),
        "avgpool_backward": lambda: avgpool_backward(bare(pooled, "error"), 2, 3, 5),
        "conv_backward_input": lambda: conv_backward_input(bare(y, "error"), bank, 1, 5),
        "conv_backward_filter": lambda: conv_backward_filter(bare(t, "input"), bare(y, "error"), 1, 2),
    }[kernel]
    with pytest.raises(ValueError, match=f"{what} must be a HexTensor, got ndarray"):
        call()


@pytest.mark.parametrize(
    "kernel,message",
    [
        ("conv_valid", "filter bank must be a HexFilterBank"),
        ("conv_full", "filter bank must be a HexFilterBank"),
        ("conv_backward_input", "filter bank must be a HexFilterBank"),
        ("conv_backward_input_reflect", "filter bank must be a HexFilterBank"),
        ("transpose_reflect", "filter bank must be a HexFilterBank"),
        ("pad_rings", "input must be a HexTensor"),
        ("upsample_stride", "error must be a HexTensor"),
    ],
)
def test_kernels_reject_a_bare_bank_and_reference_kernels_a_bare_tensor(kernel, message):
    # each used to raise AttributeError ('in_channels', 'filter_side',
    # 'weights' or 'side')
    t = HexTensor(5, 2, np.arange(122.0))
    y = conv_valid(t, HexFilterBank(2, np.ones((2, 2, 7))))
    bare = np.ones((2, 2, 7))
    call = {
        "conv_valid": lambda: conv_valid(t, bare),
        "conv_full": lambda: conv_full(t, bare),
        "conv_backward_input": lambda: conv_backward_input(y, bare, 1, 5),
        "conv_backward_input_reflect": lambda: conv_backward_input_reflect(y, bare, 1, 5),
        "transpose_reflect": lambda: transpose_reflect(bare),
        "pad_rings": lambda: pad_rings(t.data, 1),
        "upsample_stride": lambda: upsample_stride(y.data, 1, 4),
    }[kernel]
    with pytest.raises(ValueError, match=f"{message}, got ndarray"):
        call()


def test_maxpool_backward_routes_each_error_to_its_winning_tap():
    # random geometries, floored ones included: the scatter equals, bit
    # for bit, np.add.at through the forward's window table
    rng = np.random.default_rng(24)
    floored = 0
    for _ in range(40):
        side, window, stride = _sample_geometry(rng, max_side=10, max_filter=3)
        side += int(rng.integers(0, stride))  # a remainder the pool drops
        floored += (side - window) % stride > 0
        channels = int(rng.integers(1, 4))
        out, taps = maxpool(HexTensor(side, channels, rng.standard_normal((channels, cell_count(side)))), window, stride)
        delta = HexTensor(out.side, channels, rng.standard_normal(out.data.shape))
        ref = np.zeros((channels, cell_count(side)))
        for c, won in enumerate(winners(taps, tap_gather(side, window, stride))):
            np.add.at(ref[c], won, delta.data[c])
        assert np.array_equal(maxpool_backward(delta, taps, window, stride, side).data, ref)
    assert floored


def test_avgpool_backward_single_window():
    delta = HexTensor(1, 1, np.array([7.0]))
    back = avgpool_backward(delta, 2, 1, 2)
    assert np.allclose(back.data, 1.0)


def test_avgpool_backward_finite_difference():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((2, 61))
    t = HexTensor(5, 2, x)
    out = avgpool(t, 2, 3)
    grad = avgpool_backward(out, 2, 3, 5).data

    def loss(arr):
        return sq_loss(avgpool(HexTensor(5, 2, arr), 2, 3))

    for coord in [(0, 0), (1, 30), (0, 60)]:
        assert_fd_close(grad[coord], fd_grad(loss, x, coord))


def test_activation_backward_identity_and_dead_relu():
    # backward applies the bits that nn._activate returns
    rng = np.random.default_rng(7)
    z = rng.standard_normal((1, 19))
    a, bits = _activate(z, "identity")
    assert a is z and bits is None
    delta = rng.standard_normal((1, 19))
    _, bits = _activate(-np.ones((1, 19)), "relu")
    assert not _relu_grad(delta, bits).any()
    with pytest.raises(ValueError):
        _activate(z, "tanh")


@pytest.mark.parametrize("shape", [(1,), (7,), (8,), (3, 19), (4, 5, 5)])
def test_relu_bits_give_the_mask_product_bit_for_bit(shape):
    # one bit a value, padded to whole bytes; ties at +-0 and NaN are
    # not positive, as under z > 0
    rng = np.random.default_rng(sum(shape))
    z = rng.standard_normal(shape)
    z.flat[::3] = 0.0
    z.flat[1::5] = -0.0
    z.flat[2::7] = np.nan
    d = rng.standard_normal(shape)
    a, bits = _activate(z, "relu")
    assert bits.dtype == np.uint8 and bits.shape == (-(-z.size // 8),)
    assert np.array_equal(a, np.maximum(z, 0.0), equal_nan=True)
    assert _relu_grad(d, bits).tobytes() == (d * (z > 0)).tobytes()


def test_activation_backward_finite_difference():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((1, 19))
    a, bits = _activate(x, "relu")
    grad = _relu_grad(a, bits)  # the loss's error a times relu's derivative

    def loss(arr):
        return 0.5 * float(np.sum(np.maximum(arr, 0.0) ** 2))

    for coord in [(0, i) for i in range(0, 19, 5)]:
        assert_fd_close(grad[coord], fd_grad(loss, x, coord))


def test_adjoint_identity():
    rng = np.random.default_rng(9)
    for side, fside, stride in [(3, 2, 1), (5, 2, 3), (8, 3, 1), (7, 4, 3)]:
        t = HexTensor(side, 2, rng.standard_normal((2, cell_count(side))))
        bank = HexFilterBank(fside, rng.standard_normal((3, 2, cell_count(fside))))
        out = conv_valid(t, bank, stride)
        delta = HexTensor(out.side, 3, rng.standard_normal((3, out.cell_count)))
        lhs = np.vdot(out.data, delta.data)
        rhs = np.vdot(t.data, conv_backward_input(delta, bank, stride, side).data)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))


def test_conv_backward_input_matches_point_reflection_reference():
    # the col2im scatter against the paper's construction (upsample, then
    # full convolution with the transposed point-reflected bank)
    rng = np.random.default_rng(13)
    for _ in range(60):
        fside = int(rng.integers(1, 5))
        stride = int(rng.integers(1, 4))
        out_side = int(rng.integers(1, 5))
        side = stride * (out_side - 1) + fside
        channels, filters = (int(n) for n in rng.integers(1, 4, size=2))
        bank = HexFilterBank(fside, rng.standard_normal((filters, channels, cell_count(fside))))
        delta = HexTensor(out_side, filters, rng.standard_normal((filters, cell_count(out_side))))
        got = conv_backward_input(delta, bank, stride, side)
        ref = conv_backward_input_reflect(delta, bank, stride, side)
        assert got.side == ref.side == side and got.channels == ref.channels == channels
        scale = np.abs(ref.data).max()
        assert np.abs(got.data - ref.data).max() <= 1e-10 * scale


def test_upsample_mass_and_maxpool_mass_conservation():
    rng = np.random.default_rng(10)
    delta = HexTensor(3, 2, rng.standard_normal((2, 19)))
    assert upsample_stride(delta, 2, 5).data.sum() == pytest.approx(delta.data.sum())
    t = HexTensor(7, 2, rng.standard_normal((2, cell_count(7))))
    _, taps = maxpool(t, 3, 2)
    d = HexTensor(3, 2, rng.standard_normal((2, 19)))
    assert maxpool_backward(d, taps, 3, 2, 7).data.sum() == pytest.approx(d.data.sum())


def test_pool_backwards_floor_finite_difference():
    # side 6, window 2, stride 3: the pools floor, so the far rim gets zero
    # gradient and every cell must match finite differences
    rng = np.random.default_rng(22)
    side, window, stride = 6, 2, 3
    x = rng.standard_normal((2, cell_count(side)))
    out, taps = maxpool(HexTensor(side, 2, x), window, stride)
    avg = avgpool(HexTensor(side, 2, x), window, stride)
    assert out.side == avg.side == 2
    grads_and_losses = [
        (maxpool_backward(out, taps, window, stride, side).data, lambda a: sq_loss(maxpool(HexTensor(side, 2, a), window, stride)[0])),
        (avgpool_backward(avg, window, stride, side).data, lambda a: sq_loss(avgpool(HexTensor(side, 2, a), window, stride))),
    ]
    rim = offset_table(side)[2 * side - 2, 2 * side - 2]
    for grad, loss in grads_and_losses:
        assert not grad[:, rim].any()
        for coord in np.ndindex(x.shape):
            assert_fd_close(grad[coord], fd_grad(loss, x, coord))


@pytest.mark.parametrize("kernel", [conv_backward_input, conv_backward_input_reflect, conv_backward_filter])
def test_conv_backwards_reject_geometry_that_does_not_tile(kernel):
    # a side-2 error fits a side-6 input under window 2, stride 3 only if
    # the remainder were floored, which convolutions never do
    rng = np.random.default_rng(23)
    bank = HexFilterBank.random(rng, 2, 1, 2)
    delta = HexTensor(2, 2, rng.standard_normal((2, 7)))
    t = HexTensor(6, 1, rng.standard_normal((1, cell_count(6))))
    with pytest.raises(ValueError, match="does not tile"):
        if kernel is conv_backward_filter:
            kernel(t, delta, 3, 2)
        else:
            kernel(delta, bank, 3, 6)
