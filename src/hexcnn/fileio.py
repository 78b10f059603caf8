"""Binary file formats: HXT1 hex tensors, IMG1 raw images, 8-bit PGM/PPM."""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .grid import HexTensor, cell_count, check_tensor
from .resample import SquareImage

__all__ = [
    "write_hxt",
    "read_hxt",
    "write_img1",
    "read_img1",
    "read_pnm",
    "read_image",
]

HXT_MAGIC = b"HXT1"
IMG_MAGIC = b"IMG1"
_HEADER = struct.Struct("<III")


def write_hxt(path, t: HexTensor) -> None:
    """HXT1: magic, u32 side, u32 channels, u32 element width (4 or 8),
    then the cells little endian in storage order."""
    width = check_tensor(t, "tensor").dtype.itemsize
    payload = t.data.astype(f"<f{width}").tobytes()
    with open(path, "wb") as fh:
        fh.write(HXT_MAGIC)
        fh.write(_HEADER.pack(t.side, t.channels, width))
        fh.write(payload)


def read_hxt(path) -> HexTensor:
    raw = Path(path).read_bytes()
    if len(raw) < 16 or raw[:4] != HXT_MAGIC:
        raise ValueError(f"{path}: not an HXT1 file")
    side, channels, width = _HEADER.unpack(raw[4:16])
    if width not in (4, 8):
        raise ValueError(f"{path}: unsupported element width {width}")
    if side < 1 or channels < 1:
        raise ValueError(f"{path}: invalid header (side {side}, channels {channels})")
    expected = channels * cell_count(side) * width
    if len(raw) - 16 != expected:
        raise ValueError(
            f"{path}: payload is {len(raw) - 16} bytes, header implies {expected}"
        )
    data = np.frombuffer(raw, dtype=f"<f{width}", offset=16)
    return HexTensor(side, channels, data.astype(f"=f{width}"))


def write_img1(path, img: SquareImage) -> None:
    """IMG1: magic, u32 height, u32 width, u32 channels, row-major f32."""
    if not isinstance(img, SquareImage):
        raise ValueError(f"image must be a SquareImage, got {type(img).__name__}")
    with open(path, "wb") as fh:
        fh.write(IMG_MAGIC)
        fh.write(_HEADER.pack(img.height, img.width, img.channels))
        fh.write(img.data.transpose(1, 2, 0).astype("<f4").tobytes())


def read_img1(path) -> SquareImage:
    raw = Path(path).read_bytes()
    if len(raw) < 16 or raw[:4] != IMG_MAGIC:
        raise ValueError(f"{path}: not an IMG1 file")
    h, w, c = _HEADER.unpack(raw[4:16])
    if h < 1 or w < 1 or c < 1:
        raise ValueError(f"{path}: invalid header (height {h}, width {w}, channels {c})")
    expected = h * w * c * 4
    if len(raw) - 16 != expected:
        raise ValueError(
            f"{path}: payload is {len(raw) - 16} bytes, header implies {expected}"
        )
    data = np.frombuffer(raw, dtype="<f4", offset=16).reshape(h, w, c)
    with np.errstate(invalid="ignore"):  # a signalling NaN widens to a quiet one, and warns
        data = data.transpose(2, 0, 1).astype(np.float64)
    return SquareImage(data)


def _pnm_tokens(raw: bytes):
    """Yield header tokens, skipping '#' comments."""
    i = 0
    while i < len(raw):
        if raw[i : i + 1].isspace():
            i += 1
            continue
        if raw[i : i + 1] == b"#":
            while i < len(raw) and raw[i : i + 1] != b"\n":
                i += 1
            continue
        j = i
        while j < len(raw) and not raw[j : j + 1].isspace():
            j += 1
        yield raw[i:j], j
        i = j


def read_pnm(path) -> SquareImage:
    """Binary 8-bit PGM (P5) or PPM (P6); values scaled to [0, 1]."""
    raw = Path(path).read_bytes()
    tokens = _pnm_tokens(raw)
    try:
        magic, _ = next(tokens)
        if magic not in (b"P5", b"P6"):
            raise ValueError(f"{path}: unsupported PNM magic {magic!r}")
        (w_tok, _), (h_tok, _), (max_tok, end) = next(tokens), next(tokens), next(tokens)
    except StopIteration:
        raise ValueError(f"{path}: truncated PNM header") from None
    w, h, maxval = int(w_tok), int(h_tok), int(max_tok)
    if maxval < 1 or maxval > 255:
        raise ValueError(f"{path}: only 8-bit PNM supported, maxval {maxval}")
    if w < 1 or h < 1:
        raise ValueError(f"{path}: invalid PNM size {w}x{h}")
    channels = 1 if magic == b"P5" else 3
    if h * w * channels > len(raw) - end - 1:
        raise ValueError(f"{path}: truncated pixel data")
    pixels = np.frombuffer(raw, dtype=np.uint8, offset=end + 1, count=h * w * channels)
    data = pixels.reshape(h, w, channels).transpose(2, 0, 1) / float(maxval)
    return SquareImage(data)


def read_image(path) -> SquareImage:
    """Sniff the magic and dispatch to the matching reader."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == IMG_MAGIC:
        return read_img1(path)
    if magic[:2] in (b"P5", b"P6"):
        return read_pnm(path)
    raise ValueError(f"{path}: unrecognized image format")
