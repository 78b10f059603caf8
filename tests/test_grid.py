import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexcnn.grid import (
    HexTensor,
    cell_count,
    cells,
    col_bounds,
    flat_offset,
    is_valid_cell,
    offset_table,
    offsets,
    pad_rings,
    rotate_permutation,
    row_bounds,
)
from hexcnn.nn import LayerSpec, NetworkConfig, build_network
from hexcnn.ops import HexFilterBank, conv_valid, maxpool
from hexcnn.resample import SquareImage, min_cover_side, square_to_hex
from hexcnn.zeroout import ZeroOutFilterBank, hex_mask, rect_conv_reference, zeroout_filter


@pytest.mark.parametrize("side,count", [(1, 1), (2, 7), (5, 61)])
def test_cell_count(side, count):
    assert cell_count(side) == count


def test_cell_count_rejects_zero():
    with pytest.raises(ValueError):
        cell_count(0)


@pytest.mark.parametrize("u,expected", [(0, (0, 2)), (2, (0, 4)), (4, (2, 4))])
def test_row_bounds_side3(u, expected):
    assert row_bounds(3, u) == expected


@pytest.mark.parametrize("v,expected", [(0, (0, 1)), (1, (0, 2)), (2, (1, 2))])
def test_col_bounds_side2(v, expected):
    assert col_bounds(2, v) == expected


def test_bounds_reject_out_of_range():
    with pytest.raises(ValueError):
        row_bounds(3, 5)
    with pytest.raises(ValueError):
        col_bounds(3, -1)


@given(side=st.integers(1, 16))
def test_row_lengths_sum_to_cell_count(side):
    total = sum(row_bounds(side, u)[1] - row_bounds(side, u)[0] + 1 for u in range(2 * side - 1))
    assert total == cell_count(side)


@given(side=st.integers(1, 16))
def test_row_length_profile(side):
    lengths = [row_bounds(side, u)[1] - row_bounds(side, u)[0] + 1 for u in range(2 * side - 1)]
    assert lengths[0] == lengths[-1] == side
    assert max(lengths) == 2 * side - 1
    # grows by one per row up to the middle, then shrinks by one
    diffs = np.diff(lengths)
    assert set(diffs[: side - 1]) <= {1} and set(diffs[side - 1 :]) <= {-1}


@pytest.mark.parametrize("uv,offset", [((0, 0), 0), ((2, 1), 4), ((2, 2), 6)])
def test_flat_offset_side2(uv, offset):
    assert flat_offset(2, *uv) == offset


def test_flat_offset_rejects_invalid():
    with pytest.raises(ValueError):
        flat_offset(2, 0, 2)  # corner cut off the parallelogram


@given(side=st.integers(1, 16))
def test_flat_offset_bijection(side):
    seen = [flat_offset(side, u, v) for u, v in cells(side)]
    assert seen == list(range(cell_count(side)))


def test_cells_storage_order():
    # column major: pairs sorted by (v, u), every pair a cell, 3L(L-1)+1 pairs
    for side in range(1, 41):
        uv = cells(side)
        assert uv.shape == (3 * side * (side - 1) + 1, 2) and uv.dtype == np.int64
        assert (np.diff(uv[:, 1] * 2 * side + uv[:, 0]) > 0).all()
        assert all(is_valid_cell(side, int(u), int(v)) for u, v in uv)


@given(side=st.integers(1, 16))
def test_offset_table_matches_cells(side):
    table = offset_table(side)
    assert (table >= 0).sum() == cell_count(side)
    uv = cells(side)
    assert np.array_equal(table[uv[:, 0], uv[:, 1]], np.arange(len(uv)))


@given(side=st.integers(1, 16))
def test_offsets_look_up_the_table(side):
    uv = cells(side)
    got = offsets(side, uv[None, ::-1])  # any (..., 2) shape
    assert got.shape == (1, len(uv)) and got.dtype == np.int64
    assert np.array_equal(got[0], np.arange(len(uv))[::-1])
    assert got.flags.c_contiguous and not got.flags.writeable


@pytest.mark.parametrize(
    "side,uv",
    [(2, (0, 2)), (2, (2, 0)), (2, (-1, 0)), (2, (0, -1)), (2, (3, 2)), (2, (2, 3)), (1, (0, 1))],
)
def test_offsets_assert_pairs_are_cells(side, uv):
    # a corner cut off the parallelogram, a negative index that would
    # wrap around, a pair past the table
    with pytest.raises(AssertionError):
        offsets(side, [(0, 0), uv])


@pytest.mark.parametrize(
    "side,uv,expected",
    [(2, (0, 0), (2, 2)), (2, (1, 1), (1, 1)), (3, (0, 2), (4, 2))],
)
def test_point_reflect_examples(side, uv, expected):
    # a half turn is the point reflection through the center
    assert rotate_permutation(side, 3)[flat_offset(side, *expected)] == flat_offset(side, *uv)


@given(side=st.integers(1, 16))
def test_point_reflect_closed_and_involutive(side):
    perm = rotate_permutation(side, 3)
    assert np.array_equal(perm, offsets(side, 2 * side - 2 - cells(side)))
    assert np.array_equal(perm[perm], np.arange(len(perm)))


@given(side=st.integers(1, 14))
def test_rotate_permutation_composes_six_steps_to_the_identity(side):
    step = rotate_permutation(side, 1)
    composed = np.arange(cell_count(side))
    for k in range(7):
        assert np.array_equal(rotate_permutation(side, k), composed)
        assert np.array_equal(rotate_permutation(side, k - 6), composed)  # k is taken mod 6
        composed = composed[step]
    assert np.array_equal(composed, step)  # k = 6 was the identity


def test_rotate_permutation_steps_sixty_degrees():
    # one step carries the value at centered (a, b) to (a - b, a): the
    # corner (0, 0) of side 2, centered (-1, -1), moves to (1, 0), and
    # the center stays put
    x = np.arange(7.0)
    y = x[rotate_permutation(2, 1)]
    assert y[flat_offset(2, 1, 0)] == x[flat_offset(2, 0, 0)]
    assert y[flat_offset(2, 1, 1)] == x[flat_offset(2, 1, 1)]
    assert not rotate_permutation(3, 2).flags.writeable


def test_hextensor_validation():
    with pytest.raises(ValueError):
        HexTensor(2, 1, np.zeros(6))  # wrong length
    with pytest.raises(ValueError):
        HexTensor(0, 1, np.zeros(1))
    t = HexTensor(2, 2, np.arange(14.0))
    assert t.data.shape == (2, 7)
    with pytest.raises(ValueError):
        t.data[0, 0] = 1.0  # read-only
    with pytest.raises(ValueError):
        HexTensor(1, 1, 5.0)  # a scalar is neither (1, 1) nor (1,)


@pytest.mark.parametrize("shape", [(7, 2), (1, 14), (2, 7, 1), (14, 1), (2, 1, 7)])
def test_hextensor_rejects_other_layouts(shape):
    # (cells, channels) data used to be read as (channels, cells)
    with pytest.raises(ValueError, match="neither"):
        HexTensor(2, 2, np.arange(14.0).reshape(shape))


_T3 = HexTensor(3, 1, np.zeros(19))


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: HexTensor(2.0, 1, [1.0] * 7), id="hextensor_side"),
        pytest.param(lambda: HexTensor(2, 1.0, [1.0] * 7), id="hextensor_channels"),
        pytest.param(lambda: HexTensor(True, 1, [1.0]), id="hextensor_bool_side"),
        pytest.param(lambda: pad_rings(_T3, 1.0), id="pad_rings"),
        pytest.param(lambda: conv_valid(_T3, HexFilterBank(2, np.zeros((1, 1, 7))), 1.0), id="conv_stride"),
        pytest.param(lambda: maxpool(_T3, 2, 1.0), id="maxpool_stride"),
        pytest.param(
            lambda: build_network(NetworkConfig(5.0, 1, (LayerSpec.conv(1, 2, 1), LayerSpec.flatten()))),
            id="build_input_side",
        ),
        pytest.param(lambda: square_to_hex(SquareImage(np.zeros((4, 4))), 7.0), id="square_to_hex"),
        pytest.param(lambda: min_cover_side(4.0), id="min_cover_side"),
        pytest.param(lambda: cell_count(2.0), id="cell_count"),
        pytest.param(lambda: cells(True), id="cells_bool"),
        pytest.param(lambda: offset_table(2.0), id="offset_table"),
        pytest.param(lambda: hex_mask(2.0), id="hex_mask"),
        pytest.param(
            lambda: rect_conv_reference(np.zeros((1, 3, 3)), zeroout_filter(HexFilterBank(1, [[[1.0]]])), 1.0),
            id="rect_conv_stride",
        ),
        pytest.param(lambda: flat_offset(2, 0.5, 0), id="flat_offset_row"),
        pytest.param(lambda: flat_offset(2, 1, 1.0), id="flat_offset_column"),
        pytest.param(lambda: is_valid_cell(2, 1.5, 1), id="is_valid_cell_row"),
        pytest.param(lambda: is_valid_cell(2, 1, True), id="is_valid_cell_bool_column"),
        pytest.param(lambda: rotate_permutation(2, 1.0), id="rotate_permutation"),
        pytest.param(lambda: row_bounds(2, 1.0), id="row_bounds"),
        pytest.param(lambda: col_bounds(2, np.float64(1.0)), id="col_bounds"),
    ],
)
def test_integer_arguments_reject_floats_and_bools(call):
    with pytest.raises(ValueError, match="integer"):
        call()


def test_integer_arguments_accept_numpy_integers():
    assert cell_count(np.int64(2)) == 7
    assert flat_offset(2, np.int64(2), np.int32(1)) == 4
    assert is_valid_cell(2, -1, 0) is False  # an integer off the hexagon is no error here
    assert pad_rings(HexTensor(np.int32(1), np.uint8(1), [1.0]), np.int64(1)).side == 2


def test_hextensor_value_lookup():
    t = HexTensor(2, 1, np.arange(7.0))
    assert t.value(0, 2, 1) == 4.0


def test_pad_rings_identity_and_examples():
    t = HexTensor(2, 1, np.ones(7))
    assert pad_rings(t, 0) is t
    p = pad_rings(t, 1)
    assert p.side == 3
    for u, v in cells(2):
        assert p.value(0, u + 1, v + 1) == 1.0
    assert p.data.sum() == t.data.sum()
    assert (p.data != 0).sum() == 7

    single = HexTensor(1, 1, np.array([4.5]))
    p2 = pad_rings(single, 2)
    assert p2.side == 3 and p2.value(0, 2, 2) == 4.5 and p2.data.sum() == 4.5


@given(side=st.integers(1, 8), rings=st.integers(0, 3))
@settings(max_examples=30)
def test_pad_rings_preserves_sum(side, rings):
    rng = np.random.default_rng(side * 10 + rings)
    t = HexTensor(side, 2, rng.standard_normal((2, cell_count(side))))
    assert np.isclose(pad_rings(t, rings).data.sum(), t.data.sum())


def test_hextensor_copies_writable_arrays_and_views():
    a = np.arange(7.0).reshape(1, 7).copy()  # owned and writable
    t = HexTensor(2, 1, a)
    a[0, 0] = 9.0  # the caller's array stays the caller's
    assert t.data[0, 0] == 0.0 and not np.shares_memory(t.data, a)

    owner = np.arange(7.0).reshape(1, 7).copy()
    view = owner[:]
    view.setflags(write=False)  # read-only, but the owner can still write
    t = HexTensor(2, 1, view)
    owner[0, 1] = 9.0
    assert t.data[0, 1] == 1.0 and not np.shares_memory(t.data, owner)


def test_hextensor_adopts_owned_read_only_arrays():
    a = np.arange(14.0).reshape(2, 7).copy()
    a.setflags(write=False)
    assert HexTensor(2, 2, a).data is a
    # a different dtype or shape still goes through a copy
    b = np.arange(7, dtype=np.int64).reshape(1, 7).copy()
    b.setflags(write=False)
    assert HexTensor(2, 1, b).data.dtype == np.float64
    c = np.arange(14.0)
    c.setflags(write=False)
    assert HexTensor(2, 2, c).data.shape == (2, 7)


def assert_rejects_values_that_are_not_real(make):
    # numpy would keep a complex number's real part and only warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (np.full(7, 1 + 2j), np.full(7, "1.5")):
            with pytest.raises(ValueError, match=f"real numbers, got dtype {bad.dtype}"):
                make(bad)


def test_hextensor_rejects_values_that_are_not_real():
    assert_rejects_values_that_are_not_real(lambda a: HexTensor(2, 1, a))
    # float32 and float64 are kept, other real numbers become float64
    assert HexTensor(1, 1, np.float32([1])).dtype == np.float32
    for a in (np.int8([1]), np.float16([1]), [True], np.longdouble([1])):
        assert HexTensor(1, 1, a).dtype == np.float64


def test_hex_filter_bank_rejects_values_that_are_not_real():
    assert_rejects_values_that_are_not_real(lambda a: HexFilterBank(2, a.reshape(1, 1, 7)))
    assert_rejects_values_that_are_not_real(lambda a: HexFilterBank(2, np.ones((7, 1, 7)), a))


def test_zeroout_filter_bank_rejects_values_that_are_not_real():
    w = np.zeros((7, 1, 1, 1))
    assert_rejects_values_that_are_not_real(lambda a: ZeroOutFilterBank(1, a.reshape(w.shape), np.zeros(7)))
    assert_rejects_values_that_are_not_real(lambda a: ZeroOutFilterBank(1, w, a))


def test_rect_conv_reference_rejects_values_that_are_not_real():
    zbank = zeroout_filter(HexFilterBank(1, [[[1.0]]]))
    assert_rejects_values_that_are_not_real(lambda a: rect_conv_reference(a.reshape(1, 1, 7), zbank))


def test_square_image_rejects_values_that_are_not_real():
    assert_rejects_values_that_are_not_real(lambda a: SquareImage(a.reshape(1, 7)))
