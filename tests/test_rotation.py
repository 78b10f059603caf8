"""The kernels commute with the lattice's six rotations.

Output cell p of a layer that tiles its input reads the window at
stride times p's centered coordinates plus the window's own centered
offsets, and a rotation about the center is linear in centered
coordinates; so rotating the input (and the filters) by k x 60 degrees
rotates the output and every gradient the same way.  The check needs no
oracle: a table error that the native and ZeroOut layouts share would
fail it.  Only tiling geometries are drawn.  A floored pool drops a rim
on the far side only (hex_lenet's first pool floors 36 -> 12), which
moves its windows off center and breaks the symmetry.
"""

import numpy as np
import pytest

from hexcnn.checks import rel_err, zeroout_conv
from hexcnn.grads import avgpool_backward, conv_backward_filter, conv_backward_input, maxpool_backward
from hexcnn.grid import HexTensor, cell_count, rotate_permutation
from hexcnn.ops import HexFilterBank, avgpool, conv_valid, maxpool

TOL = 1e-10

# sides 2-13, windows 1-4, strides 1-3, every one tiling
GEOMETRIES = [
    (stride * (out - 1) + window, window, stride)
    for window in range(1, 5)
    for stride in range(1, 4)
    for out in range(1, 14)
    if 2 <= stride * (out - 1) + window <= 13
]


def rotate(t: HexTensor, k: int) -> HexTensor:
    return HexTensor(t.side, t.channels, t.data[:, rotate_permutation(t.side, k)])


def random_tensor(rng, side, channels):
    return HexTensor(side, channels, rng.standard_normal((channels, cell_count(side))))


@pytest.mark.parametrize("side,window,stride", GEOMETRIES)
def test_kernels_commute_with_rotations(side, window, stride):
    rng = np.random.default_rng([side, window, stride])
    t = random_tensor(rng, side, 2)
    bank = HexFilterBank.random(rng, 3, 2, window)
    y = conv_valid(t, bank, stride)
    y_zeroout = zeroout_conv(t, bank, stride)
    delta = random_tensor(rng, y.side, 3)
    dx = conv_backward_input(delta, bank, stride, side)
    dw, db = conv_backward_filter(t, delta, stride, window)
    pooled, taps = maxpool(t, window, stride)
    averaged = avgpool(t, window, stride)
    pool_delta = random_tensor(rng, y.side, 2)
    dmax = maxpool_backward(pool_delta, taps, window, stride, side)
    davg = avgpool_backward(pool_delta, window, stride, side)
    for k in range(6):
        rt, rdelta, rpool_delta = (rotate(a, k) for a in (t, delta, pool_delta))
        rbank = HexFilterBank(window, bank.weights[..., rotate_permutation(window, k)], bank.bias)
        assert rel_err(conv_valid(rt, rbank, stride).data, rotate(y, k).data) <= TOL
        assert rel_err(zeroout_conv(rt, rbank, stride).data, rotate(y_zeroout, k).data) <= TOL
        assert rel_err(conv_backward_input(rdelta, rbank, stride, side).data, rotate(dx, k).data) <= TOL
        rdw, rdb = conv_backward_filter(rt, rdelta, stride, window)
        assert rel_err(rdw, dw[..., rotate_permutation(window, k)]) <= TOL
        assert rel_err(rdb, db) <= TOL
        rpooled, rtaps = maxpool(rt, window, stride)
        assert np.array_equal(rpooled.data, rotate(pooled, k).data)
        # overlapping windows scatter-add in another order: equal within TOL only
        assert rel_err(maxpool_backward(rpool_delta, rtaps, window, stride, side).data, rotate(dmax, k).data) <= TOL
        assert rel_err(avgpool(rt, window, stride).data, rotate(averaged, k).data) <= TOL
        assert rel_err(avgpool_backward(rpool_delta, window, stride, side).data, rotate(davg, k).data) <= TOL
