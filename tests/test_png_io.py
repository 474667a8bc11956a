"""Grayscale PNG writer/reader tests."""
import struct
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gafecg.errors import ParseError
from gafecg.png_io import PNG_SIGNATURE, read_gray_png, write_gray_png


def _chunk(tag: bytes, payload: bytes) -> bytes:
    return (
        struct.pack(">I", len(payload))
        + tag
        + payload
        + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)
    )


def _png_bytes(pixels: np.ndarray, row_filters) -> bytes:
    """Build a grayscale PNG applying the given forward filter per row."""
    height, width = pixels.shape
    px = pixels.astype(np.int32)
    rows = []
    prev = np.zeros(width, dtype=np.int32)
    for r in range(height):
        cur = px[r]
        ftype = row_filters[r % len(row_filters)]
        if ftype == 0:
            enc = cur.copy()
        elif ftype == 1:  # Sub
            enc = cur.copy()
            enc[1:] = cur[1:] - cur[:-1]
        elif ftype == 2:  # Up
            enc = cur - prev
        elif ftype == 3:  # Average
            enc = cur.copy()
            for i in range(width):
                left = cur[i - 1] if i else 0
                enc[i] = cur[i] - (left + prev[i]) // 2
        elif ftype == 4:  # Paeth
            enc = cur.copy()
            for i in range(width):
                a = int(cur[i - 1]) if i else 0
                b = int(prev[i])
                c = int(prev[i - 1]) if i else 0
                p = a + b - c
                pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                pred = a if (pa <= pb and pa <= pc) else (b if pb <= pc else c)
                enc[i] = cur[i] - pred
        else:
            raise AssertionError(ftype)
        rows.append(bytes([ftype]) + (enc & 0xFF).astype(np.uint8).tobytes())
        prev = cur
    ihdr = struct.pack(">IIBBBBB", width, height, 8, 0, 0, 0, 0)
    return (
        PNG_SIGNATURE
        + _chunk(b"IHDR", ihdr)
        + _chunk(b"IDAT", zlib.compress(b"".join(rows)))
        + _chunk(b"IEND", b"")
    )


class TestRoundTrip:
    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (16, 16), (128, 128)])
    def test_write_read_identity(self, shape, rng, tmp_path):
        pixels = rng.integers(0, 256, size=shape, dtype=np.uint8)
        path = tmp_path / "img.png"
        write_gray_png(path, pixels)
        np.testing.assert_array_equal(read_gray_png(path), pixels)

    @given(
        data=st.lists(
            st.integers(min_value=0, max_value=255), min_size=12, max_size=12
        )
    )
    def test_round_trip_property(self, data):
        pixels = np.array(data, dtype=np.uint8).reshape(3, 4)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "prop.png"
            write_gray_png(path, pixels)
            np.testing.assert_array_equal(read_gray_png(path), pixels)

    def test_identical_pixels_identical_bytes(self, rng, tmp_path):
        pixels = rng.integers(0, 256, size=(32, 32), dtype=np.uint8)
        a, b = tmp_path / "a.png", tmp_path / "b.png"
        write_gray_png(a, pixels)
        write_gray_png(b, pixels.copy())
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_non_uint8(self, tmp_path):
        with pytest.raises(ParseError, match="uint8"):
            write_gray_png(tmp_path / "bad.png", np.zeros((4, 4)))

    def test_rejects_non_2d(self, tmp_path):
        with pytest.raises(ParseError, match="2-D"):
            write_gray_png(tmp_path / "bad.png", np.zeros(16, dtype=np.uint8))


def _idat(data: bytes) -> bytes:
    """The concatenated IDAT payloads of a PNG file."""
    pos, idat = len(PNG_SIGNATURE), b""
    while pos < len(data):
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        if data[pos + 4 : pos + 8] == b"IDAT":
            idat += data[pos + 8 : pos + 8 + length]
        pos += 12 + length
    return idat


def _stored_block_lengths(stream: bytes) -> list:
    """Walk a zlib stream that must hold only stored deflate blocks."""
    pos, lengths = 2, []  # after the 2-byte zlib header
    while True:
        header = stream[pos]
        assert (header >> 1) & 3 == 0, f"block type {(header >> 1) & 3} at {pos}"
        length, nlength = struct.unpack("<HH", stream[pos + 1 : pos + 5])
        assert length ^ nlength == 0xFFFF
        lengths.append(length)
        pos += 5 + length
        if header & 1:  # BFINAL
            break
    assert pos + 4 == len(stream)  # Adler-32 follows the last block
    return lengths


class TestStoredWriter:
    def test_file_length_is_stored_block_formula(self, rng, tmp_path):
        pixels = rng.integers(0, 256, size=(128, 128), dtype=np.uint8)
        path = tmp_path / "img.png"
        write_gray_png(path, pixels)
        data = path.read_bytes()
        raw = 128 * (1 + 128)
        assert _stored_block_lengths(_idat(data)) == [raw]
        # signature, IHDR, IDAT (zlib header, block header, rows, Adler-32), IEND
        assert len(data) == 8 + (12 + 13) + (12 + 2 + 5 + raw + 4) + 12 == 16580

    def test_idat_rows_all_use_filter_0(self, rng, tmp_path):
        pixels = rng.integers(0, 256, size=(9, 13), dtype=np.uint8)
        path = tmp_path / "img.png"
        write_gray_png(path, pixels)
        rows = np.frombuffer(zlib.decompress(_idat(path.read_bytes())), np.uint8)
        rows = rows.reshape(9, 14)
        assert not rows[:, 0].any()
        np.testing.assert_array_equal(rows[:, 1:], pixels)

    def test_two_block_image_round_trips(self, rng, tmp_path):
        pixels = rng.integers(0, 256, size=(300, 300), dtype=np.uint8)
        path = tmp_path / "big.png"
        write_gray_png(path, pixels)
        lengths = _stored_block_lengths(_idat(path.read_bytes()))
        assert len(lengths) == 2 and sum(lengths) == 300 * 301
        np.testing.assert_array_equal(read_gray_png(path), pixels)

    def test_rejects_empty(self, tmp_path):
        with pytest.raises(ParseError, match="non-empty"):
            write_gray_png(tmp_path / "bad.png", np.zeros((0, 4), dtype=np.uint8))


class TestRowFilters:
    @pytest.mark.parametrize("ftype", [0, 1, 2, 3, 4])
    def test_single_filter_decodes(self, ftype, rng, tmp_path):
        pixels = rng.integers(0, 256, size=(9, 13), dtype=np.uint8)
        path = tmp_path / f"f{ftype}.png"
        path.write_bytes(_png_bytes(pixels, [ftype]))
        np.testing.assert_array_equal(read_gray_png(path), pixels)

    def test_mixed_filters_decode(self, rng, tmp_path):
        pixels = rng.integers(0, 256, size=(20, 8), dtype=np.uint8)
        path = tmp_path / "mixed.png"
        path.write_bytes(_png_bytes(pixels, [0, 1, 2, 3, 4]))
        np.testing.assert_array_equal(read_gray_png(path), pixels)

    def test_filter_0_result_is_owned_and_writable(self, rng, tmp_path):
        pixels = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
        path = tmp_path / "f0.png"
        write_gray_png(path, pixels)
        image = read_gray_png(path)
        assert image.base is None and image.flags.owndata
        assert image.flags.writeable and image.flags.c_contiguous
        image[0, 0] ^= 0xFF
        np.testing.assert_array_equal(read_gray_png(path), pixels)

    def test_filter_0_first_row_then_filters_1_to_4(self, rng, tmp_path):
        pixels = rng.integers(0, 256, size=(9, 11), dtype=np.uint8)
        path = tmp_path / "first0.png"
        path.write_bytes(_png_bytes(pixels, [0, 1, 2, 3, 4, 1, 2, 3, 4]))
        np.testing.assert_array_equal(read_gray_png(path), pixels)

    def test_unknown_filter_rejected(self, rng, tmp_path):
        pixels = rng.integers(0, 256, size=(3, 3), dtype=np.uint8)
        raw = b"".join(b"\x05" + pixels[r].tobytes() for r in range(3))
        ihdr = struct.pack(">IIBBBBB", 3, 3, 8, 0, 0, 0, 0)
        path = tmp_path / "f5.png"
        path.write_bytes(
            PNG_SIGNATURE
            + _chunk(b"IHDR", ihdr)
            + _chunk(b"IDAT", zlib.compress(raw))
            + _chunk(b"IEND", b"")
        )
        with pytest.raises(ParseError, match="filter"):
            read_gray_png(path)


class TestPillowInterop:
    def test_pillow_reads_our_output(self, rng, tmp_path):
        Image = pytest.importorskip("PIL.Image")
        pixels = rng.integers(0, 256, size=(64, 48), dtype=np.uint8)
        path = tmp_path / "ours.png"
        write_gray_png(path, pixels)
        with Image.open(path) as im:
            assert im.mode == "L"
            np.testing.assert_array_equal(np.asarray(im), pixels)

    def test_we_read_pillow_output(self, rng, tmp_path):
        Image = pytest.importorskip("PIL.Image")
        pixels = rng.integers(0, 256, size=(48, 64), dtype=np.uint8)
        path = tmp_path / "pillow.png"
        Image.fromarray(pixels, mode="L").save(path)
        np.testing.assert_array_equal(read_gray_png(path), pixels)


class TestMalformedFiles:
    def _valid(self, tmp_path):
        pixels = np.arange(16, dtype=np.uint8).reshape(4, 4)
        path = tmp_path / "ok.png"
        write_gray_png(path, pixels)
        return path, path.read_bytes()

    def test_bad_signature(self, tmp_path):
        path, data = self._valid(tmp_path)
        path.write_bytes(b"NOTAPNG!" + data[8:])
        with pytest.raises(ParseError, match="not a PNG"):
            read_gray_png(path)

    def test_truncated_chunk(self, tmp_path):
        path, data = self._valid(tmp_path)
        # Cut mid-way through the IDAT payload so the declared chunk length
        # exceeds the bytes actually present.
        path.write_bytes(data[: data.index(b"IDAT") + 10])
        with pytest.raises(ParseError, match="truncated"):
            read_gray_png(path)

    def test_corrupt_idat_stream(self, tmp_path):
        path, data = self._valid(tmp_path)
        idat_at = data.index(b"IDAT")
        corrupted = bytearray(data)
        corrupted[idat_at + 6] ^= 0xFF
        path.write_bytes(bytes(corrupted))
        with pytest.raises(ParseError, match="IDAT"):
            read_gray_png(path)

    def test_missing_ihdr(self, tmp_path):
        path = tmp_path / "noihdr.png"
        path.write_bytes(PNG_SIGNATURE + _chunk(b"IEND", b""))
        with pytest.raises(ParseError, match="IHDR"):
            read_gray_png(path)

    def test_missing_idat(self, tmp_path):
        ihdr = struct.pack(">IIBBBBB", 4, 4, 8, 0, 0, 0, 0)
        path = tmp_path / "noidat.png"
        path.write_bytes(PNG_SIGNATURE + _chunk(b"IHDR", ihdr) + _chunk(b"IEND", b""))
        with pytest.raises(ParseError, match="IDAT"):
            read_gray_png(path)

    def test_short_ihdr_rejected(self, tmp_path):
        ihdr = struct.pack(">IIBBBB", 4, 4, 8, 0, 0, 0)
        path = tmp_path / "short_ihdr.png"
        path.write_bytes(
            PNG_SIGNATURE
            + _chunk(b"IHDR", ihdr)
            + _chunk(b"IDAT", zlib.compress(bytes(20)))
            + _chunk(b"IEND", b"")
        )
        with pytest.raises(ParseError, match="IHDR is 12 bytes"):
            read_gray_png(path)

    @pytest.mark.parametrize("width,height", [(0, 4), (4, 0), (0, 0)])
    def test_zero_size_rejected(self, width, height, tmp_path):
        ihdr = struct.pack(">IIBBBBB", width, height, 8, 0, 0, 0, 0)
        path = tmp_path / "empty.png"
        path.write_bytes(
            PNG_SIGNATURE
            + _chunk(b"IHDR", ihdr)
            + _chunk(b"IDAT", zlib.compress(bytes(height)))
            + _chunk(b"IEND", b"")
        )
        with pytest.raises(ParseError, match=f"{width}x{height} is empty"):
            read_gray_png(path)

    def test_rgb_rejected(self, tmp_path):
        ihdr = struct.pack(">IIBBBBB", 4, 4, 8, 2, 0, 0, 0)
        raw = zlib.compress(b"\x00" + bytes(12))
        path = tmp_path / "rgb.png"
        path.write_bytes(
            PNG_SIGNATURE
            + _chunk(b"IHDR", ihdr)
            + _chunk(b"IDAT", raw)
            + _chunk(b"IEND", b"")
        )
        with pytest.raises(ParseError, match="grayscale"):
            read_gray_png(path)

    def test_sixteen_bit_rejected(self, tmp_path):
        ihdr = struct.pack(">IIBBBBB", 4, 4, 16, 0, 0, 0, 0)
        path = tmp_path / "deep.png"
        path.write_bytes(
            PNG_SIGNATURE
            + _chunk(b"IHDR", ihdr)
            + _chunk(b"IDAT", zlib.compress(bytes(36)))
            + _chunk(b"IEND", b"")
        )
        with pytest.raises(ParseError, match="grayscale"):
            read_gray_png(path)

    def test_interlaced_rejected(self, tmp_path):
        ihdr = struct.pack(">IIBBBBB", 4, 4, 8, 0, 0, 0, 1)
        path = tmp_path / "adam7.png"
        path.write_bytes(
            PNG_SIGNATURE
            + _chunk(b"IHDR", ihdr)
            + _chunk(b"IDAT", zlib.compress(bytes(20)))
            + _chunk(b"IEND", b"")
        )
        with pytest.raises(ParseError, match="interlaced"):
            read_gray_png(path)

    def test_wrong_pixel_count_rejected(self, tmp_path):
        ihdr = struct.pack(">IIBBBBB", 4, 4, 8, 0, 0, 0, 0)
        raw = zlib.compress(b"\x00" + bytes(3))
        path = tmp_path / "short.png"
        path.write_bytes(
            PNG_SIGNATURE
            + _chunk(b"IHDR", ihdr)
            + _chunk(b"IDAT", raw)
            + _chunk(b"IEND", b"")
        )
        with pytest.raises(ParseError, match="length"):
            read_gray_png(path)
