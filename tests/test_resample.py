import numpy as np
import pytest

from hexcnn.fileio import read_hxt, read_image, read_img1, read_pnm, write_hxt, write_img1
from hexcnn.grid import HexTensor
from hexcnn.resample import (
    SquareImage,
    cell_centers,
    min_cover_side,
    overhead_report,
    square_to_hex,
)


@pytest.mark.parametrize("x,y", [(1, 1), (4, 4), (32, 25), (16, 13), (120, 91)])
def test_min_cover_side(x, y):
    assert min_cover_side(x) == y


def test_min_cover_side_rejects_zero():
    with pytest.raises(ValueError):
        min_cover_side(0)


def test_min_cover_side_monotone():
    sides = [min_cover_side(x) for x in range(1, 200)]
    assert all(b >= a for a, b in zip(sides, sides[1:]))


def test_square_to_hex_constant_inside():
    img = SquareImage(np.full((3, 30, 30), 1.5))
    t = square_to_hex(img, 5)
    assert t.channels == 3 and np.allclose(t.data, 1.5)


def test_square_to_hex_single_pixel():
    img = SquareImage(np.array([[[4.0]]]))
    t = square_to_hex(img, 1)
    assert t.side == 1 and t.data[0, 0] == 4.0


def test_square_to_hex_linear_ramp_exact():
    # bilinear reproduces linear functions wherever the support is interior
    img = SquareImage(np.tile(np.arange(64.0), (64, 1)))
    t = square_to_hex(img, 8)
    centers = cell_centers(8, ((64 - 1) / 2, (64 - 1) / 2))
    assert np.allclose(t.data[0], centers[:, 0], atol=1e-12)


def test_square_to_hex_outside_is_zero():
    img = SquareImage(np.ones((1, 4, 4)))
    t = square_to_hex(img, 10)  # hexagon far larger than the image
    centers = cell_centers(10, (1.5, 1.5))
    far = np.hypot(centers[:, 0] - 1.5, centers[:, 1] - 1.5) > 6
    assert not t.data[0, far].any()
    assert t.data[0, np.argmin(np.hypot(centers[:, 0] - 1.5, centers[:, 1] - 1.5))] == 1.0


def unplanned_square_to_hex(img, side):
    """The per-call bilinear formula that the cached plan replaces."""
    center = ((img.width - 1) / 2.0, (img.height - 1) / 2.0)
    pos = cell_centers(side, center)
    x, y = pos[:, 0], pos[:, 1]
    x0 = np.floor(x).astype(np.int64)
    y0 = np.floor(y).astype(np.int64)
    fx = x - x0
    fy = y - y0

    def tap(yy, xx):
        inside = (yy >= 0) & (yy < img.height) & (xx >= 0) & (xx < img.width)
        vals = img.data[:, yy.clip(0, img.height - 1), xx.clip(0, img.width - 1)]
        return np.where(inside[None, :], vals, 0.0)

    return (
        tap(y0, x0) * ((1 - fy) * (1 - fx))[None, :]
        + tap(y0, x0 + 1) * ((1 - fy) * fx)[None, :]
        + tap(y0 + 1, x0) * (fy * (1 - fx))[None, :]
        + tap(y0 + 1, x0 + 1) * (fy * fx)[None, :]
    )


def same_bits(a, b):
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64))


def test_square_to_hex_plan_matches_unplanned_formula():
    rng = np.random.default_rng(21)
    tall = rng.standard_normal((2, 23, 14))  # non-square, two channels
    nan_in = rng.standard_normal((1, 16, 16))
    nan_in[0, 7, 8] = np.nan  # read by cells inside the hexagon
    nan_out = rng.standard_normal((1, 6, 6))
    nan_out[0, 0, 0] = np.nan  # a corner that outside cells clip to
    cases = [
        (tall, 9),
        (nan_in, 6),
        (nan_out, 6),
    ]
    for _ in range(2):  # alternate image sizes in one process: each gets its own plan
        for data, side in cases:
            img = SquareImage(data)
            got = square_to_hex(img, side).data
            assert same_bits(got, unplanned_square_to_hex(img, side))
    # outside cells read 0, not the NaN they clip to; cells reading the
    # corner from inside are NaN
    got = square_to_hex(SquareImage(nan_out), 6).data[0]
    centers = cell_centers(6, (2.5, 2.5))
    far = (centers < -1).any(axis=1) | (centers > 6).any(axis=1)
    assert far.any() and not got[far].any()
    assert np.isnan(got).any()


def test_neighbor_distance_equals_scale():
    c = cell_centers(2, (0.0, 0.0))
    # center cell (1,1) has six neighbors in a side-2 hexagon
    center = c[3]
    others = np.delete(c, 3, axis=0)
    d = np.hypot(others[:, 0] - center[0], others[:, 1] - center[1])
    assert np.allclose(d, 1.0)  # the cell pitch equals the pixel pitch


def test_overhead_report_examples():
    r = overhead_report(32)
    assert (r.hex_side, r.hex_cells, r.zeroout_cells) == (25, 1801, 2401)
    assert overhead_report(1).hex_cells == 1
    assert overhead_report(120).quasih_cells == 239 * 208
    assert r.hex_pad_fraction == pytest.approx((1801 - 1024) / 1024)


def test_overhead_orderings():
    # x = 1 is degenerate: one cell everywhere, so the comparison ties
    assert overhead_report(1).hex_cells == overhead_report(1).zeroout_cells == 1
    for x in range(2, 200):
        r = overhead_report(x)
        assert r.hex_cells < r.zeroout_cells
        assert r.hex_cells < r.quasih_cells


# -- file formats ------------------------------------------------------------


def test_hxt_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    t = HexTensor(4, 3, rng.standard_normal((3, 37)))
    path = tmp_path / "t.hxt"
    write_hxt(path, t)
    back = read_hxt(path)
    assert back.side == 4 and back.channels == 3
    assert np.array_equal(back.data, t.data)


def test_hxt_float32_round_trip(tmp_path):
    t = HexTensor(2, 1, np.arange(7, dtype=np.float32))
    path = tmp_path / "t32.hxt"
    write_hxt(path, t)
    back = read_hxt(path)
    assert back.dtype == np.float32
    assert np.array_equal(back.data, t.data)


def test_hxt_rejects_corruption(tmp_path):
    t = HexTensor(2, 1, np.arange(7.0))
    path = tmp_path / "t.hxt"
    write_hxt(path, t)
    raw = path.read_bytes()
    (tmp_path / "short.hxt").write_bytes(raw[:-8])
    with pytest.raises(ValueError):
        read_hxt(tmp_path / "short.hxt")
    (tmp_path / "magic.hxt").write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(ValueError):
        read_hxt(tmp_path / "magic.hxt")
    bad_width = raw[:12] + (5).to_bytes(4, "little") + raw[16:]
    (tmp_path / "width.hxt").write_bytes(bad_width)
    with pytest.raises(ValueError):
        read_hxt(tmp_path / "width.hxt")


def test_img1_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    img = SquareImage(rng.standard_normal((3, 5, 7)).astype(np.float32))
    path = tmp_path / "i.img1"
    write_img1(path, img)
    back = read_img1(path)
    assert back.data.shape == (3, 5, 7)
    assert np.allclose(back.data, img.data, atol=1e-6)


def test_pnm_readers(tmp_path):
    pgm = tmp_path / "g.pgm"
    pgm.write_bytes(b"P5\n# comment\n3 2\n255\n" + bytes([0, 128, 255, 10, 20, 30]))
    img = read_pnm(pgm)
    assert img.data.shape == (1, 2, 3)
    assert img.data[0, 0, 2] == pytest.approx(1.0)

    ppm = tmp_path / "c.ppm"
    ppm.write_bytes(b"P6\n2 1\n255\n" + bytes([255, 0, 0, 0, 255, 0]))
    img = read_pnm(ppm)
    assert img.data.shape == (3, 1, 2)
    assert img.data[0, 0, 0] == pytest.approx(1.0) and img.data[1, 0, 1] == pytest.approx(1.0)


def test_read_image_sniffs_format(tmp_path):
    img = SquareImage(np.ones((1, 2, 2)))
    p1 = tmp_path / "a.img1"
    write_img1(p1, img)
    assert read_image(p1).data.shape == (1, 2, 2)
    p2 = tmp_path / "junk.bin"
    p2.write_bytes(b"ZZZZ0000")
    with pytest.raises(ValueError):
        read_image(p2)
