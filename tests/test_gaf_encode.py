"""Gramian angular field encoding tests."""
import csv

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from gafecg.errors import DegenerateBeat, InvalidInput
from gafecg.gaf_encode import (
    GAF_KINDS,
    IMAGE_SIZE,
    MANIFEST_FIELDS,
    encode_beats,
    encode_series,
    gadf,
    gasf,
    image_name,
    manifest_rows,
    minmax_rescale,
    paa_downsample,
    quantize,
    to_polar,
    write_images,
    write_manifest,
)
from gafecg.png_io import read_gray_png

finite_series = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    min_size=2,
    max_size=64,
).filter(lambda xs: max(xs) > min(xs))


class TestPaa:
    def test_equal_frames_oracle(self):
        np.testing.assert_array_equal(
            paa_downsample(np.array([1.0, 1.0, 3.0, 3.0]), 2), [1.0, 3.0]
        )

    def test_unequal_frames_oracle(self):
        # 3 samples into 2 frames: [0,1) and [1,3).
        np.testing.assert_allclose(
            paa_downsample(np.array([1.0, 2.0, 3.0]), 2), [1.0, 2.5]
        )

    def test_identity_when_target_equals_length(self, rng):
        x = rng.normal(size=17)
        np.testing.assert_allclose(paa_downsample(x, 17), x)

    def test_single_frame_is_mean(self, rng):
        x = rng.normal(size=100)
        np.testing.assert_allclose(paa_downsample(x, 1), [np.mean(x)])

    def test_default_target_is_image_size(self, rng):
        assert len(paa_downsample(rng.normal(size=651))) == IMAGE_SIZE

    @given(xs=finite_series)
    def test_output_within_input_range(self, xs):
        x = np.array(xs)
        out = paa_downsample(x, max(1, len(x) // 2))
        assert np.all(out >= np.min(x) - 1e-9)
        assert np.all(out <= np.max(x) + 1e-9)

    def test_mean_preserved_for_divisible_lengths(self, rng):
        x = rng.normal(size=640)
        out = paa_downsample(x, 128)
        assert np.isclose(np.mean(out), np.mean(x), atol=1e-12)

    def test_rejects_bad_target(self):
        with pytest.raises(InvalidInput):
            paa_downsample(np.zeros(10), 0)
        with pytest.raises(InvalidInput):
            paa_downsample(np.zeros(10), 11)

    def test_rejects_2d(self):
        with pytest.raises(InvalidInput):
            paa_downsample(np.zeros((4, 4)), 2)


class TestMinmaxRescale:
    def test_oracle(self):
        np.testing.assert_allclose(
            minmax_rescale(np.array([0.0, 5.0, 10.0])), [-1.0, 0.0, 1.0]
        )

    def test_endpoints_exact(self, rng):
        x = rng.normal(size=200) * 3.7 + 0.13
        out = minmax_rescale(x)
        assert out[np.argmin(x)] == -1.0
        assert out[np.argmax(x)] == 1.0

    @given(xs=finite_series)
    def test_bounded(self, xs):
        out = minmax_rescale(np.array(xs))
        assert np.all(out >= -1.0) and np.all(out <= 1.0)

    @given(
        xs=finite_series,
        a=st.floats(min_value=1e-3, max_value=1e3),
        b=st.floats(min_value=-1e3, max_value=1e3),
    )
    def test_positive_affine_invariance(self, xs, a, b):
        x = np.array(xs)
        y = a * x + b
        # a*x+b can round to a constant, or to a spread so narrow against its
        # magnitude that cancellation swamps the tolerance. With ptp(y) at
        # least 1e-5 * max|y| the rounding error stays below about
        # 8 * eps * max|y| / ptp(y) = 1.8e-10.
        spread = np.ptp(y)
        assume(spread > 0 and spread >= 1e-5 * np.max(np.abs(y)))
        np.testing.assert_allclose(minmax_rescale(y), minmax_rescale(x), atol=1e-9)

    def test_constant_series_rejected(self):
        with pytest.raises(DegenerateBeat):
            minmax_rescale(np.full(10, 2.5))


class TestPolarAngles:
    def test_oracle_values(self):
        out = to_polar(np.array([-1.0, 0.0, 0.5, 1.0]))
        np.testing.assert_allclose(
            out, [np.pi, np.pi / 2, 1.0471975511965979, 0.0], atol=1e-15
        )

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInput):
            to_polar(np.array([0.0, 1.0000001]))
        with pytest.raises(InvalidInput):
            to_polar(np.array([-1.0000001]))

    @given(xs=st.lists(st.floats(min_value=-1, max_value=1), min_size=1, max_size=32))
    def test_angles_in_zero_pi(self, xs):
        out = to_polar(np.array(xs))
        assert np.all(out >= 0.0) and np.all(out <= np.pi)


class TestSummationField:
    def test_symmetric_bitwise(self, rng):
        g = gasf(to_polar(rng.uniform(-1, 1, 64)))
        np.testing.assert_array_equal(g, g.T)

    def test_diagonal_is_double_angle(self, rng):
        x = rng.uniform(-1, 1, 64)
        g = gasf(to_polar(x))
        np.testing.assert_allclose(np.diag(g), 2.0 * x * x - 1.0, atol=1e-12)

    def test_matches_product_form(self, rng):
        # cos(a+b) = x_i x_j - sqrt(1-x_i^2) sqrt(1-x_j^2)
        x = rng.uniform(-1, 1, 48)
        s = np.sqrt(1.0 - x * x)
        expect = x[:, None] * x[None, :] - s[:, None] * s[None, :]
        np.testing.assert_allclose(gasf(to_polar(x)), expect, atol=1e-12)

    def test_entries_bounded(self, rng):
        g = gasf(to_polar(rng.uniform(-1, 1, 64)))
        assert np.all(g >= -1.0) and np.all(g <= 1.0)


class TestDifferenceField:
    def test_zero_diagonal_exact(self, rng):
        g = gadf(to_polar(rng.uniform(-1, 1, 64)))
        np.testing.assert_array_equal(np.diag(g), np.zeros(64))

    def test_antisymmetric_bitwise(self, rng):
        g = gadf(to_polar(rng.uniform(-1, 1, 64)))
        np.testing.assert_array_equal(g, -g.T)

    def test_matches_product_form(self, rng):
        # sin(a-b) = sqrt(1-x_i^2) x_j - x_i sqrt(1-x_j^2)
        x = rng.uniform(-1, 1, 48)
        s = np.sqrt(1.0 - x * x)
        expect = s[:, None] * x[None, :] - x[:, None] * s[None, :]
        np.testing.assert_allclose(gadf(to_polar(x)), expect, atol=1e-12)


class TestQuantize:
    def test_anchor_oracle(self):
        out = quantize(np.array([-1.0, 0.0, 1.0]))
        np.testing.assert_array_equal(out, np.array([0, 128, 255], dtype=np.uint8))
        assert out.dtype == np.uint8

    def test_rounds_half_up(self):
        # (v+1)/2*255 == 126.5 exactly for v = -2/255.
        assert quantize(np.array([-2.0 / 255.0]))[0] == 127

    def test_monotonic(self):
        grid = np.linspace(-1.0, 1.0, 2001)
        levels = quantize(grid).astype(int)
        assert np.all(np.diff(levels) >= 0)
        assert levels[0] == 0 and levels[-1] == 255

    def test_tolerates_tiny_overshoot(self):
        np.testing.assert_array_equal(
            quantize(np.array([1.0 + 1e-13, -1.0 - 1e-13])), [255, 0]
        )

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInput):
            quantize(np.array([1.001]))


class TestEncodeSeries:
    def test_shapes_and_dtype(self, rng):
        x = rng.normal(size=651)
        for kind in GAF_KINDS:
            out = encode_series(x, kind)
            assert out.shape == (IMAGE_SIZE, IMAGE_SIZE)
            assert out.dtype == np.uint8

    def test_deterministic(self, rng):
        x = rng.normal(size=651)
        np.testing.assert_array_equal(
            encode_series(x, "gasf"), encode_series(x.copy(), "gasf")
        )

    def test_difference_field_diagonal_is_midgray(self, rng):
        out = encode_series(rng.normal(size=651), "gadf")
        np.testing.assert_array_equal(np.diag(out), np.full(IMAGE_SIZE, 128))

    def test_rejects_unknown_kind(self, rng):
        with pytest.raises(InvalidInput, match="kind"):
            encode_series(rng.normal(size=651), "gaf")


def _beats(rng, n):
    """``n`` stored beats: their float32 samples and their beat-table rows."""
    samples = rng.normal(size=(n, 651)).astype(np.float32)
    rows = [
        {
            "record_id": f"patient{i:03d}/s{i:04d}",
            "label": "mi" if i % 2 else "healthy",
            "r_peak_index": 1000 + 7 * i,
        }
        for i in range(n)
    ]
    return samples, rows


class TestEncodeBeats:
    def test_each_row_is_encode_series(self, rng):
        samples, _ = _beats(rng, 5)
        images = encode_beats(samples, "gadf")
        assert len(images) == 5
        for row, image in zip(samples, images):
            np.testing.assert_array_equal(image, encode_series(row, "gadf"))


class TestWriteImages:
    def test_image_name_format(self):
        assert image_name("patient001/s0010", 42, "gasf") == "patient001__s0010_r0000042_gasf.png"

    def test_manifest_and_pixels(self, rng, tmp_path):
        samples, beats = _beats(rng, 6)
        images = encode_beats(samples, "gasf")
        rows = manifest_rows(beats, "gasf", "clean")
        (tmp_path / "enc").mkdir()
        write_images(images, [r["path"] for r in rows], tmp_path / "enc")
        assert [r["path"] for r in rows] == [
            image_name(b["record_id"], b["r_peak_index"], "gasf") for b in beats
        ]
        manifest = write_manifest(rows[::-1], tmp_path / "enc")
        with open(manifest, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        assert list(rows[0].keys()) == MANIFEST_FIELDS
        assert [r["path"] for r in rows] == sorted(r["path"] for r in rows)
        assert {r["noise_variant"] for r in rows} == {"clean"}
        assert {r["kind"] for r in rows} == {"gasf"}
        by_name = {
            image_name(b["record_id"], b["r_peak_index"], "gasf"): (b, image)
            for b, image in zip(beats, images)
        }
        for row in rows:
            beat, image = by_name[row["path"]]
            np.testing.assert_array_equal(read_gray_png(tmp_path / "enc" / row["path"]), image)
            assert beat["label"] == row["label"]
            assert beat["record_id"] == row["record_id"]
            assert str(beat["r_peak_index"]) == row["r_peak_index"]
