"""Minimal 8-bit grayscale PNG writer and reader.

The writer emits the simplest valid PNG: filter 0 on every row, one IDAT
chunk, no ancillary chunks, so identical pixel data always produces
identical bytes. The IDAT is a zlib stream of stored (uncompressed)
deflate blocks (RFC 1951, section 3.2.4). With filter 0 on every row,
deflate shrinks a GAF image by only 25-40 % and spends most of a write
doing it; stored blocks cost a copy and files about 49 % larger. Filter 0
is kept because the benchmark's independent reader
(``perfbench/checks.py:read_png``) accepts nothing else.

The reader takes the 8-bit grayscale non-interlaced PNGs whose rows all
use filter 0, which is what the writer emits, and decodes them with one
reshape and copy. A file with any other row filter (Pillow and most
encoders filter their rows) is refused with ParseError.
"""
from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import ParseError

PNG_SIGNATURE = bytes([137, 80, 78, 71, 13, 10, 26, 10])


def _chunk(tag: bytes, payload: bytes) -> bytes:
    return (
        struct.pack(">I", len(payload))
        + tag
        + payload
        + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)
    )


def write_gray_png(path: str | Path, pixels: np.ndarray) -> None:
    """Write a 2-D uint8 array as an 8-bit grayscale PNG."""
    arr = np.asarray(pixels)
    if arr.ndim != 2 or arr.dtype != np.uint8 or arr.size == 0:
        raise ParseError(
            f"expected a non-empty 2-D uint8 array, got {arr.dtype} {arr.shape}"
        )
    height, width = arr.shape
    ihdr = struct.pack(">IIBBBBB", width, height, 8, 0, 0, 0, 0)
    rows = np.zeros((height, width + 1), dtype=np.uint8)  # column 0: filter 0
    rows[:, 1:] = arr
    data = (
        PNG_SIGNATURE
        + _chunk(b"IHDR", ihdr)
        + _chunk(b"IDAT", zlib.compress(rows, 0))
        + _chunk(b"IEND", b"")
    )
    Path(path).write_bytes(data)


def read_gray_png(path: str | Path) -> np.ndarray:
    """Read an 8-bit grayscale non-interlaced PNG, every row filter 0, into
    a 2-D uint8 array."""
    data = Path(path).read_bytes()
    if not data.startswith(PNG_SIGNATURE):
        raise ParseError(f"{path}: not a PNG file")
    pos = len(PNG_SIGNATURE)
    width = height = None
    idat = b""
    while pos + 8 <= len(data):
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        tag = data[pos + 4 : pos + 8]
        payload = data[pos + 8 : pos + 8 + length]
        if len(payload) != length:
            raise ParseError(f"{path}: truncated {tag!r} chunk")
        if tag == b"IHDR":
            if length != 13:
                raise ParseError(f"{path}: IHDR is {length} bytes, expected 13")
            width, height, depth, color, _, _, interlace = struct.unpack(
                ">IIBBBBB", payload
            )
            if width == 0 or height == 0:
                raise ParseError(f"{path}: image size {width}x{height} is empty")
            if depth != 8 or color != 0:
                raise ParseError(
                    f"{path}: only 8-bit grayscale supported "
                    f"(depth={depth}, color={color})"
                )
            if interlace != 0:
                raise ParseError(f"{path}: interlaced PNG not supported")
        elif tag == b"IDAT":
            idat += payload
        elif tag == b"IEND":
            break
        pos += 12 + length
    if width is None:
        raise ParseError(f"{path}: missing IHDR chunk")
    if not idat:
        raise ParseError(f"{path}: missing IDAT chunk")
    try:
        raw = zlib.decompress(idat)
    except zlib.error as exc:
        raise ParseError(f"{path}: bad IDAT stream: {exc}") from exc
    stride = width + 1
    if len(raw) != stride * height:
        raise ParseError(
            f"{path}: decompressed length {len(raw)} != {stride * height} "
            f"for {width}x{height}"
        )
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(height, stride)
    filters = rows[:, 0]
    if filters.any():
        ftype = filters[filters != 0][0]
        raise ParseError(f"{path}: unsupported row filter {ftype}; only filter 0 is read")
    return rows[:, 1:].copy()
