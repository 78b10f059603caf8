import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hexcnn.grid import HexTensor, cell_count, cells, offsets
from hexcnn.instrument import MacMeter
from hexcnn.ops import (
    HexFilterBank,
    _first_max_taps,
    avgpool,
    conv_full,
    conv_valid,
    maxpool,
    tap_gather,
    valid_geometry,
)


def ones_bank(filters=1, channels=1, side=2):
    return HexFilterBank(side, np.ones((filters, channels, cell_count(side))))


def delta_bank(side=2, channels=1):
    w = np.zeros((1, channels, cell_count(side)))
    w[0, :, offsets(side, (0, 0))] = 1.0
    return HexFilterBank(side, w)


# Window sums of the side-3 input 1..19 under an all-ones side-2 filter,
# enumerated by hand from the window cell sets (and re-checked against the
# ZeroOut pipeline in test_zeroout).
SIDE3_ALLONES = np.array([37.0, 44.0, 63.0, 70.0, 77.0, 96.0, 103.0])


def test_conv_whole_input_window():
    t = HexTensor(2, 1, np.arange(1.0, 8.0))
    out = conv_valid(t, ones_bank())
    assert out.side == 1 and out.data[0, 0] == 28.0


def test_conv_delta_filter_crops():
    rng = np.random.default_rng(1)
    t = HexTensor(4, 2, rng.standard_normal((2, 37)))
    out = conv_valid(t, delta_bank(2, 2))
    # channel-summed translated crop of the input
    g = tap_gather(4, 2, 1).T
    expected = t.data[:, g[:, 0]].sum(axis=0)
    assert np.allclose(out.data[0], expected)


def test_conv_side3_frozen_values():
    t = HexTensor(3, 1, np.arange(1.0, 20.0))
    out = conv_valid(t, ones_bank())
    assert np.array_equal(out.data[0], SIDE3_ALLONES)


def test_conv_bias_added_per_filter():
    t = HexTensor(3, 1, np.arange(1.0, 20.0))
    bank = HexFilterBank(2, np.ones((2, 1, 7)), np.array([0.0, 10.0]))
    out = conv_valid(t, bank)
    assert np.array_equal(out.data[0], SIDE3_ALLONES)
    assert np.array_equal(out.data[1], SIDE3_ALLONES + 10.0)


def test_conv_geometry_errors():
    t = HexTensor(3, 1, np.zeros(19))
    with pytest.raises(ValueError):
        conv_valid(t, ones_bank(channels=2))  # channel mismatch
    with pytest.raises(ValueError):
        conv_valid(t, ones_bank(side=4))  # filter larger than input
    with pytest.raises(ValueError):
        conv_valid(t, ones_bank(), stride=2)  # (3-2) % 2 != 0


def test_conv_linearity():
    rng = np.random.default_rng(2)
    bank = HexFilterBank(2, rng.standard_normal((3, 2, 7)))
    t1 = HexTensor(5, 2, rng.standard_normal((2, 61)))
    t2 = HexTensor(5, 2, rng.standard_normal((2, 61)))
    a, b = 1.7, -0.4
    mixed = HexTensor(5, 2, a * t1.data + b * t2.data)
    lhs = conv_valid(mixed, bank, 3)
    rhs = a * conv_valid(t1, bank, 3).data + b * conv_valid(t2, bank, 3).data
    assert np.allclose(lhs.data, rhs, atol=1e-12)


def test_conv_full_single_cell():
    t = HexTensor(1, 1, np.array([2.5]))
    out = conv_full(t, ones_bank())
    assert out.side == 2
    assert np.allclose(out.data, 2.5)


def test_conv_full_filter_side_one_scales():
    rng = np.random.default_rng(3)
    t = HexTensor(4, 2, rng.standard_normal((2, 37)))
    w = np.array([[[1.5], [-2.0]]])
    out = conv_full(t, HexFilterBank(1, w))
    assert out.side == 4
    assert np.allclose(out.data[0], 1.5 * t.data[0] - 2.0 * t.data[1])
    assert np.array_equal(out.data, conv_valid(t, HexFilterBank(1, w)).data)


def test_conv_full_center_equals_valid():
    rng = np.random.default_rng(4)
    t = HexTensor(5, 1, rng.standard_normal((1, 61)))
    bank = HexFilterBank.random(rng, 2, 1, 2)
    full = conv_full(t, bank)
    valid = conv_valid(t, bank)
    shift = 2 * (bank.filter_side - 1)
    for u, v in cells(valid.side):
        got = full.value(0, u + shift, v + shift)
        assert got == pytest.approx(valid.value(0, u, v), rel=1e-12)


def test_conv_accumulation_is_mac_counted():
    rng = np.random.default_rng(5)
    t = HexTensor(5, 2, rng.standard_normal((2, 61)))
    bank = HexFilterBank.random(rng, 3, 2, 2)
    with MacMeter() as m:
        out = conv_valid(t, bank)
    assert m.macs == cell_count(out.side) * 3 * 2 * 7


def winners(taps, g):
    """The input offsets that the (channels, patches) ``taps`` pick from
    the window table ``g``."""
    return g[taps, np.arange(g.shape[1])]


def test_single_block_conv_copies_no_index_table():
    # np.take copies a read-only index array before it gathers; the
    # block tables are writable, so a conv's peak is its window matrix
    # and its output, and no copy of its (taps, patches) table
    rng = np.random.default_rng(26)
    t = HexTensor(20, 1, rng.standard_normal((1, cell_count(20))))
    bank = HexFilterBank.random(rng, 1, 1, 2)  # 1027 patches: one block
    conv_valid(t, bank)  # builds the cached tables
    table = window = 7 * 1027 * 8  # int64 offsets; float64 windows of one channel
    tracemalloc.start()
    try:
        conv_valid(t, bank)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert window < peak < window + 1027 * 8 + table // 2


def test_maxpool_constant_input_anchors():
    t = HexTensor(5, 1, np.full(61, 3.0))
    out, taps = maxpool(t, 2, 3)
    assert np.all(out.data == 3.0)
    # ties resolve to the window anchor (smallest offset in the window)
    anchors = offsets(5, 3 * cells(2))
    assert np.array_equal(winners(taps, tap_gather(5, 2, 3))[0], anchors)


def test_maxpool_offset_values_frozen():
    # cell value = its own flat offset; enumerate the seven disjoint
    # windows of the side-5 / window-2 / stride-3 tiling by hand
    t = HexTensor(5, 1, np.arange(61.0))
    out, taps = maxpool(t, 2, 3)
    assert np.array_equal(out.data[0], [13, 16, 36, 39, 42, 57, 60])
    assert np.array_equal(winners(taps, tap_gather(5, 2, 3))[0], [13, 16, 36, 39, 42, 57, 60])
    # fresh, read-only one-byte taps, one per output cell
    assert taps.dtype == np.uint8 and taps.shape == out.data.shape
    assert taps.base is None and not taps.flags.writeable


def test_maxpool_single_window_global_max():
    rng = np.random.default_rng(6)
    t = HexTensor(4, 3, rng.standard_normal((3, 37)))
    out, taps = maxpool(t, 4, 1)
    assert out.side == 1
    assert np.array_equal(out.data[:, 0], t.data.max(axis=1))
    assert np.array_equal(winners(taps, tap_gather(4, 4, 1))[:, 0], t.data.argmax(axis=1))


def test_maxpool_winners_inside_window():
    rng = np.random.default_rng(7)
    t = HexTensor(7, 2, rng.standard_normal((2, cell_count(7))))
    out, taps = maxpool(t, 3, 2)
    g = tap_gather(7, 3, 2)
    won = winners(taps, g)
    for c in range(2):
        for p in range(g.shape[1]):
            assert won[c, p] in g[:, p]
            assert t.data[c, won[c, p]] == out.data[c, p]


def test_maxpool_permutation_invariant_within_window():
    t = HexTensor(2, 1, np.arange(7.0))
    shuffled = HexTensor(2, 1, np.arange(7.0)[::-1].copy())
    a, _ = maxpool(t, 2, 1)
    b, _ = maxpool(shuffled, 2, 1)
    assert a.data == b.data


# ties (repeated values and -0.0 against 0.0), infinities and NaN
WINDOW_VALUES = (-np.inf, -1.5, -0.0, 0.0, 1.5, 2.0, np.inf, np.nan)


@settings(max_examples=120, deadline=None)
@given(
    dtype=st.sampled_from([np.float32, np.float64]),
    shape=st.tuples(st.integers(1, 3), st.integers(1, 271), st.integers(1, 4)),
    data=st.data(),
)
def test_first_max_taps_is_argmax_bit_for_bit(dtype, shape, data):
    # windows drawn from a few adversarial values, so most hold ties;
    # window 0 is all NaN; 257 taps and more take two bytes a tap
    values = data.draw(st.sets(st.sampled_from(WINDOW_VALUES), min_size=1))
    win = data.draw(hnp.arrays(dtype, shape, elements=st.sampled_from(sorted(values, key=repr))))
    win[0, :, 0] = np.nan
    taps = _first_max_taps(win, win.max(axis=1))
    assert taps.dtype == (np.uint8 if shape[1] <= 256 else np.uint16)
    assert not taps.flags.writeable
    assert np.array_equal(taps, win.argmax(axis=1))


@pytest.mark.parametrize("e", [1, 217, 256, 257, 271])
def test_first_max_taps_narrow_dtype_holds_the_last_tap(e):
    # a side-9 window has 217 taps, the most one byte serves
    win = np.zeros((1, e, 2))
    win[0, -1, 0] = 1.0
    win[0, :, 1] = -0.0
    taps = _first_max_taps(win, win.max(axis=1))
    assert taps.dtype == (np.uint8 if e <= 256 else np.uint16)
    assert taps.tolist() == [[e - 1, 0]]


def test_avgpool_values():
    t = HexTensor(5, 1, np.full(61, 1.25))
    assert np.allclose(avgpool(t, 2, 3).data, 1.25)

    data = np.zeros(7)
    data[3] = 7.0
    assert avgpool(HexTensor(2, 1, data), 2, 1).data[0, 0] == 1.0


def test_avgpool_matches_patch_enumeration():
    rng = np.random.default_rng(8)
    t = HexTensor(5, 2, rng.standard_normal((2, 61)))
    out = avgpool(t, 2, 3)
    g = tap_gather(5, 2, 3).T
    for c in range(2):
        for p in range(g.shape[0]):
            assert out.data[c, p] == pytest.approx(t.data[c, g[p]].mean(), rel=1e-15)


def test_pools_floor_without_a_flag():
    # side 6, window 2, stride 3 does not tile: the windows never reach the
    # far rim, and the pools drop it where a convolution raises
    rng = np.random.default_rng(21)
    t = HexTensor(6, 2, rng.standard_normal((2, cell_count(6))))
    with pytest.raises(ValueError, match="does not tile"):
        conv_valid(t, ones_bank(channels=2), 3)
    out, _ = maxpool(t, 2, 3)
    avg = avgpool(t, 2, 3)
    assert out.side == avg.side == 2
    for p, (u, v) in enumerate(cells(2)):
        window = t.data[:, offsets(6, (3 * u, 3 * v) + cells(2))]
        assert np.array_equal(out.data[:, p], window.max(axis=1))
        assert np.allclose(avg.data[:, p], window.mean(axis=1), rtol=1e-15, atol=0)


def test_valid_geometry_examples():
    assert valid_geometry(5, 2, 3) == 2
    assert valid_geometry(4, 2, 1) == 3
    with pytest.raises(ValueError):
        valid_geometry(5, 2, 2)


def test_conv_single_precision_path():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((2, 61)).astype(np.float32)
    w = rng.standard_normal((3, 2, 7)).astype(np.float32)
    t32 = HexTensor(5, 2, x)
    bank32 = HexFilterBank(2, w)
    out32 = conv_valid(t32, bank32)
    assert out32.dtype == np.float32
    out64 = conv_valid(HexTensor(5, 2, x.astype(np.float64)), HexFilterBank(2, w.astype(np.float64)))
    assert np.allclose(out32.data, out64.data, atol=1e-4)
