"""Window matrices split by rows: a few channels of taps at a time.

``ops.ROW_BLOCK`` is set small, so every forward product below, native
and ZeroOut, fused and unfused, runs several channel chunks (and, at 5,
chunks of one channel, whose taps exceed the bound), at both a small
``ops.PATCH_BLOCK`` and the default.  Their results are checked against
one chunk, ``ROW_BLOCK`` set past every matrix's rows.
"""

import tracemalloc

import numpy as np
import pytest

from hexcnn import nn, ops, zeronet
from hexcnn.grid import HexTensor, cell_count
from hexcnn.instrument import MacMeter
from hexcnn.nn import LayerSpec, NetworkConfig, build_network, make_two_class_dataset
from hexcnn.ops import HexFilterBank

ONE_CHUNK = 1 << 30  # more rows than any window matrix here


def _net():
    # side 9, 3 channels: an unfused 5-filter conv, then a 6-filter conv fused
    # with the disjoint side-2 max pool at stride 3 after it
    return build_network(NetworkConfig(9, 3, (
        LayerSpec.conv(5, 2, 1, "relu"), LayerSpec.conv(6, 2, 1, "relu"), LayerSpec.maxpool(2, 3),
        LayerSpec.flatten(), LayerSpec.dense(2), LayerSpec.softmax(),
    )))


def _run(fn, row_block, patch_block=2048):
    """``fn()`` at ``row_block`` and ``patch_block``: (its result, its
    metered MACs, the rows of each window matrix ``ops.window_columns``
    built)."""
    real, rows = ops.window_columns, []

    def counted(*args):
        out = real(*args)
        rows.append(out.shape[0])
        return out

    with pytest.MonkeyPatch.context() as m, MacMeter() as meter:
        m.setattr(ops, "ROW_BLOCK", row_block)
        m.setattr(ops, "PATCH_BLOCK", patch_block)
        m.setattr(ops, "window_columns", counted)
        out = fn()
    return out, meter.macs, rows


@pytest.mark.parametrize("patch_block", [5, 2048])
@pytest.mark.parametrize("row_block", [5, 20])
@pytest.mark.parametrize("layout", ["native", "zeroout"])
def test_a_network_forward_in_channel_chunks_matches_one_chunk(layout, row_block, patch_block):
    net = _net()
    assert [step[3] for step in nn._trunk_plan(net.cfg.layers, tuple(net.shapes), 2048, 1)[:2]] == [False, True]
    batch, _ = make_two_class_dataset(np.random.default_rng(31), 3, 9, 3)
    fwd, taps = {"native": (nn.forward, 7), "zeroout": (zeronet.forward_zeroout, 9)}[layout]
    want, macs, whole = _run(lambda: fwd(net, batch)[0], ONE_CHUNK, patch_block)
    got, chunked_macs, rows = _run(lambda: fwd(net, batch)[0], row_block, patch_block)
    assert set(whole) == {3 * taps, 5 * taps}  # the two convs' whole matrices
    assert max(rows) <= max(row_block, taps) and len(rows) > len(whole)
    assert chunked_macs == macs
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("patch_block", [5, 2048])
@pytest.mark.parametrize("row_block", [5, 20])
def test_conv_valid_in_channel_chunks_matches_one_chunk(row_block, patch_block):
    rng = np.random.default_rng(32)
    t = HexTensor(6, 9, rng.standard_normal((9, cell_count(6))))
    bank = HexFilterBank.random(rng, 4, 9, 2)
    want, macs, whole = _run(lambda: ops.conv_valid(t, bank).data, ONE_CHUNK, patch_block)
    got, chunked_macs, rows = _run(lambda: ops.conv_valid(t, bank).data, row_block, patch_block)
    # 9 channels of 7 taps: at 5 rows, one channel a chunk; at 20, two
    # channels a chunk, 5 chunks, the last of one channel
    per_block = {5: [7] * 9, 20: [14] * 4 + [7]}[row_block]
    assert rows == per_block * len(whole) and set(whole) == {63}
    assert chunked_macs == macs
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_chunks_are_as_few_and_as_equal_as_the_bound_allows():
    assert ops.ROW_BLOCK == 512
    # wide-infer's 256 channels: 4 chunks of 64 side-2 hexagons (448 rows),
    # 5 of 52 3x3 rectangles (468 rows), the last of 48
    assert ops._chunk_channels(256, 7) == 64 and ops._chunk_channels(256, 9) == 52
    assert ops._chunk_channels(73, 7) == 73 and ops._chunk_channels(74, 7) == 37  # 511 rows, then 518
    assert ops._chunk_channels(56, 9) == 56 and ops._chunk_channels(57, 9) == 29
    assert ops._chunk_channels(3, 600) == 1  # a channel's taps past the bound: one channel a chunk


@pytest.mark.parametrize("channels,taps", [(73, 7), (56, 9)])
def test_at_the_default_bound_a_matrix_of_at_most_512_rows_is_one_product(channels, taps):
    # the largest one-chunk matrices, native and ZeroOut: the same calls
    # and the same bits as with no row bound
    rng = np.random.default_rng(33)
    t = HexTensor(7, channels, rng.standard_normal((channels, cell_count(7))))
    bank = HexFilterBank.random(rng, 3, channels, 2)
    x = zeronet._embed(t.data, 7, 1)
    conv = {7: lambda: ops.conv_valid(t, bank).data, 9: lambda: zeronet._rect_conv_all(x, 13, bank, 1)}[taps]
    want, macs, whole = _run(conv, ONE_CHUNK)
    got, default_macs, rows = _run(conv, ops.ROW_BLOCK)
    assert rows == whole == [channels * taps]
    assert got.tobytes() == want.tobytes() and default_macs == macs


@pytest.mark.parametrize("patch_block", [5, 2048])
@pytest.mark.parametrize("layout", ["native", "zeroout"])
def test_at_the_default_bound_a_narrow_network_trains_as_with_no_bound(layout, patch_block):
    net = _net()
    batch, labels = make_two_class_dataset(np.random.default_rng(34), 3, 9, 3)
    fwd, bwd = {"native": (nn.forward, nn.backward),
                "zeroout": (zeronet.forward_zeroout, zeronet.backward_zeroout)}[layout]

    def step():
        loss, grads = bwd(net, *fwd(net, batch), labels)
        return np.concatenate([[loss], *(np.ravel(a) for g in grads if g is not None for a in g)])

    want, _, _ = _run(step, ONE_CHUNK, patch_block)
    got, _, _ = _run(step, ops.ROW_BLOCK, patch_block)
    assert got.tobytes() == want.tobytes()


def test_a_wide_conv_peaks_below_its_whole_window_matrix(monkeypatch):
    # wide-infer's shape: C = F = 256, side 24, side-2 filters; the whole
    # window matrix is (1792, 1519), 21.8 MB
    rng = np.random.default_rng(35)
    t = HexTensor(24, 256, rng.standard_normal((256, cell_count(24))))
    bank = HexFilterBank.random(rng, 256, 256, 2)

    def peak(row_block):
        monkeypatch.setattr(ops, "ROW_BLOCK", row_block)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ops.conv_valid(t, bank)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    whole = peak(ONE_CHUNK)
    assert whole > 1792 * 1519 * 8
    assert peak(512) < 0.6 * whole
