"""Malformed-input contract of the four readers and the CLI: mutated or
truncated HXT1, IMG1, PGM/PPM and HXM1 bytes either parse or raise
ValueError, ``hexcnn resample`` on such an image exits 0 or 2, never 1,
and any argv exits 0, 1 or 2 without a traceback."""

import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hexcnn.cli import main
from hexcnn.fileio import read_hxt, read_image, write_hxt, write_img1
from hexcnn.grid import HexTensor, cell_count
from hexcnn.nn import LayerSpec, NetworkConfig, build_network, load_checkpoint, save_checkpoint
from hexcnn.resample import SquareImage

FUZZ = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
U32_EDGES = (0, 1, 2, 3, 255, 256, 2**16, 2**31 - 1, 2**31, 2**32 - 1)


def mutations(valid: bytes, fields: tuple):
    """``valid`` with a few bytes overwritten, u32 header ``fields``
    (byte offsets) set to edge values, then cut (anywhere, or right
    after a field) or extended."""
    byte_edit = st.tuples(st.integers(0, len(valid) - 1), st.integers(0, 255))
    field_edit = st.tuples(st.sampled_from(fields), st.sampled_from(U32_EDGES))
    cut = st.sampled_from([off + 4 for off in fields]) | st.integers(0, len(valid))

    @st.composite
    def mutate(draw):
        raw = bytearray(valid)
        for pos, value in draw(st.lists(byte_edit, max_size=4)):
            raw[pos] = value
        for off, value in draw(st.lists(field_edit, max_size=2)):
            raw[off : off + 4] = struct.pack("<I", value)
        if draw(st.booleans()):
            raw = raw[: draw(cut)]
        if draw(st.booleans()):
            raw += draw(st.binary(min_size=1, max_size=8))
        return bytes(raw)

    return mutate()


def _bytes_of(write, value) -> bytes:
    """What ``write(path, value)`` puts in a file."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "f"
        write(path, value)
        return path.read_bytes()


RNG = np.random.default_rng(0)
HXT = _bytes_of(write_hxt, HexTensor(3, 2, RNG.random((2, cell_count(3)), np.float32)))
IMG1 = _bytes_of(write_img1, SquareImage(RNG.random((2, 3, 4))))
PGM = b"P5\n# comment\n4 3\n255\n" + bytes(range(0, 240, 20))
PPM = b"P6 2 2 200\n" + bytes(range(12))
IMAGES = (
    (IMG1, (4, 8, 12)),  # height, width, channels
    (PGM, (0,)),
    (PPM, (0,)),
)
CKPT_CFG = NetworkConfig(2, 1, (LayerSpec.flatten(), LayerSpec.dense(2), LayerSpec.softmax()), seed=1)
CKPT = _bytes_of(lambda p, net: save_checkpoint(net, p), build_network(CKPT_CFG))
# HXM1: digest length, then after the 32-byte digest the array count and
# the first array's size
CKPT_FIELDS = (4, 40, 44)


def test_img1_reads_a_signalling_nan_as_nan(tmp_path):
    # a float32 signalling NaN (0x7fa4cc11, found by the fuzz test below)
    # warns as numpy widens it, and the suite turns warnings into errors
    path = tmp_path / "x.img"
    path.write_bytes(IMG1[:16] + struct.pack("<I", 0x7FA4CC11) + IMG1[20:])
    data = read_image(path).data
    assert np.isnan(data[0, 0, 0]) and np.isfinite(data).sum() == data.size - 1


def parses_or_value_error(read, path):
    try:
        read(path)
    except ValueError:
        pass


@FUZZ
@given(raw=mutations(HXT, (4, 8, 12)))
def test_fuzz_read_hxt(tmp_path, raw):
    path = tmp_path / "x.hxt"
    path.write_bytes(raw)
    parses_or_value_error(read_hxt, path)


@pytest.mark.parametrize("valid,fields", IMAGES, ids=["img1", "pgm", "ppm"])
@FUZZ
@given(data=st.data())
def test_fuzz_read_image(tmp_path, valid, fields, data):
    path = tmp_path / "x.img"
    path.write_bytes(data.draw(mutations(valid, fields)))
    parses_or_value_error(read_image, path)


@FUZZ
@given(raw=mutations(CKPT, CKPT_FIELDS))
def test_fuzz_load_checkpoint(tmp_path, raw):
    path = tmp_path / "x.hxm"
    path.write_bytes(raw)
    parses_or_value_error(lambda p: load_checkpoint(p, CKPT_CFG), path)


@settings(FUZZ, max_examples=40)
@given(data=st.data())
def test_fuzz_resample_exit_code(tmp_path, data):
    valid, fields = data.draw(st.sampled_from(IMAGES))
    path = tmp_path / "x.img"
    path.write_bytes(data.draw(mutations(valid, fields)))
    assert main(["resample", str(path), str(tmp_path / "x.hxt")]) in (0, 2)


@settings(FUZZ, max_examples=40)
@given(kind=st.sampled_from(("img1", "pgm", "ppm")), dims=st.tuples(*[st.integers(0, 3)] * 3))
def test_fuzz_resample_tiny_headers(tmp_path, kind, dims):
    """Headers with zero or tiny sizes and exactly the payload they
    announce; the third size is the IMG1 channel count, or the PNM maxval
    in hundreds."""
    h, w, c = dims
    if kind == "img1":
        raw = b"IMG1" + struct.pack("<III", h, w, c) + bytes(4 * h * w * c)
    else:
        magic, channels = (b"P5", 1) if kind == "pgm" else (b"P6", 3)
        raw = b"%s %d %d %d\n" % (magic, w, h, 100 * c) + bytes(h * w * channels)
    path = tmp_path / "x.img"
    path.write_bytes(raw)
    assert main(["resample", str(path), str(tmp_path / "x.hxt")]) in (0, 2)


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


# junk never starts with "-", so it cannot abbreviate a real flag; half
# of it is drawn from characters that matter in numbers, lists and paths
JUNK = (st.text("01e.,=/ \x00é", max_size=6) | st.text(max_size=6)).filter(lambda s: not s.startswith("-"))
UNKNOWN_FLAGS = st.sampled_from(["--bogus", "--no-such-flag", "-z", "--"])
SIZES = st.lists(st.integers(-1, 9), max_size=3).map(lambda v: ",".join(map(str, v)))
OUT = st.sampled_from(["o.csv", "missing/o.csv", "."]) | JUNK
# flag -> value strategy (None: a switch); the work each subcommand does
# is bounded by the flags in BOUNDED, which always come last so they win
CLI_FLAGS = {
    "verify": {"--seed": _ints(-1, 3), "--cases": _ints(-1, 2), "--gradient-probes": _ints(-1, 2),
               "--out": OUT},
    "space-report": {"--sizes": SIZES, "--channels": _ints(0, 3), "--filter-side": _ints(0, 3),
                     "--stride": _ints(0, 3), "--out": OUT},
    "bench-conv": {"--sizes": SIZES, "--filter-side": _ints(0, 3), "--stride": _ints(0, 3),
                   "--channels": _ints(0, 3), "--filters": _ints(0, 3), "--reps": _ints(0, 2),
                   "--seed": _ints(-1, 3), "--out": OUT},
    "resample": {"--side": _ints(-1, 4) | st.just("auto")},
}
BOUNDED = {"verify": ("--cases", "--gradient-probes"), "bench-conv": ("--sizes", "--reps")}


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(CLI_FLAGS)))
    flags = CLI_FLAGS[command]

    def flag(name):
        if flags[name] is None:
            return [name]
        value = draw(flags[name]) if draw(st.integers(0, 4)) else draw(JUNK)
        return [f"{name}={value}"] if draw(st.booleans()) else [name, value]

    argv = [command]
    if command == "resample":
        argv += draw(st.lists(st.sampled_from(["in.pgm", "missing.pgm", "o.hxt", "missing/o.hxt"]) | JUNK,
                              max_size=3))
    for name in draw(st.lists(st.sampled_from(sorted(flags)), max_size=4)):
        argv += flag(name)
    for _ in range(draw(st.sampled_from((0, 0, 0, 1, 2)))):
        argv.insert(draw(st.integers(1, len(argv))), draw(JUNK | UNKNOWN_FLAGS | st.just("-h")))
    for name in BOUNDED.get(command, ()):
        argv += [name, draw(flags[name])]
    return argv


@settings(FUZZ, max_examples=150)
@given(argv=cli_argv())
def test_fuzz_cli_argv(tmp_path, monkeypatch, capsys, argv):
    """Any argv gives exit 0, 1 or 2 and never a traceback; a failing
    ``verify`` writes its replay into the working directory, so run in
    ``tmp_path``."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.pgm").write_bytes(PGM)
    try:
        code = main(argv)
    except SystemExit as exc:
        assert exc.code in (0, 2), argv
    else:
        assert code in (0, 1, 2), argv
    assert "Traceback" not in capsys.readouterr().err, argv
