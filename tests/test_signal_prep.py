"""Wavelet transform, denoising, and z-score tests."""
import dataclasses
import logging

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gafecg.errors import (
    DegenerateBeat,
    InvalidDecomposition,
    InvalidInput,
    InvalidLevels,
    UnsupportedRate,
)
from gafecg.signal_prep import (
    BASELINE_LEVELS,
    DB4_DEC_HI,
    DB4_DEC_LO,
    DB4_REC_HI,
    DB4_REC_LO,
    FILTER_LEN,
    WaveletDecomposition,
    denoise,
    dwt_forward,
    dwt_inverse,
    max_levels,
    zscore,
)
from gafecg.synthetic import add_drift, add_white_noise, synth_ecg
from gafecg.wfdb_ingest import EcgRecord


def _record(samples):
    return EcgRecord("r1", None, "ii", np.asarray(samples, float), 1000.0)


class TestFilters:
    def test_scaling_filter_sums_to_sqrt2(self):
        assert np.isclose(DB4_REC_LO.sum(), np.sqrt(2.0), atol=1e-12)

    def test_filters_are_unit_norm(self):
        for h in (DB4_REC_LO, DB4_REC_HI, DB4_DEC_LO, DB4_DEC_HI):
            assert np.isclose(np.dot(h, h), 1.0, atol=1e-12)

    def test_quadrature_mirror_relation(self):
        expect = [(-1) ** (k + 1) * DB4_REC_LO[k] for k in range(FILTER_LEN)]
        np.testing.assert_allclose(DB4_DEC_HI, expect, atol=0)

    def test_lowpass_highpass_orthogonal_at_even_shifts(self):
        for shift in range(0, FILTER_LEN, 2):
            dot = np.dot(DB4_DEC_LO[shift:], DB4_DEC_HI[: FILTER_LEN - shift])
            assert abs(dot) < 1e-12


class TestDwt:
    @pytest.mark.parametrize(
        "length", [14, 15, 16, 51, 100, 255, 512, 651, 1000, 2047, 4096, 9999]
    )
    def test_perfect_reconstruction_all_lengths(self, length, rng):
        x = rng.standard_normal(length)
        levels = min(BASELINE_LEVELS, max_levels(length))
        decomp = dwt_forward(x, levels)
        y = dwt_inverse(decomp)
        assert len(y) == length
        rel = np.max(np.abs(y - x)) / np.max(np.abs(x))
        assert rel <= 1e-10

    @given(
        st.integers(min_value=100, max_value=3000),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=8),
    )
    def test_perfect_reconstruction_property(self, length, seed, level_pick):
        x = np.random.default_rng(seed).standard_normal(length)
        levels = 1 + level_pick % max_levels(length)
        y = dwt_inverse(dwt_forward(x, levels))
        rel = np.max(np.abs(y - x)) / np.max(np.abs(x))
        assert rel <= 1e-10

    def test_linearity(self, rng):
        x = rng.standard_normal(777)
        y = rng.standard_normal(777)
        a, b = 2.5, -0.7
        dx = dwt_forward(x, 4)
        dy = dwt_forward(y, 4)
        dz = dwt_forward(a * x + b * y, 4)
        np.testing.assert_allclose(
            dz.approximation, a * dx.approximation + b * dy.approximation, atol=1e-9
        )
        for lv in range(4):
            np.testing.assert_allclose(
                dz.details[lv], a * dx.details[lv] + b * dy.details[lv], atol=1e-9
            )

    def test_constant_signal_annihilates_details(self):
        x = np.full(800, 3.25)
        decomp = dwt_forward(x, 5)
        for detail in decomp.details:
            assert np.max(np.abs(detail)) < 1e-10
        # each level multiplies a constant by the filter sum sqrt(2)
        expect = 3.25 * np.sqrt(2.0) ** 5
        interior = decomp.approximation[2:-2]
        np.testing.assert_allclose(interior, expect, rtol=1e-10)

    def test_max_levels(self):
        assert max_levels(13) == 0
        assert max_levels(14) == 1
        assert max_levels(651) == 6
        assert max_levels(4096) == 9

    def test_invalid_levels(self, rng):
        x = rng.standard_normal(100)
        with pytest.raises(InvalidLevels):
            dwt_forward(x, 0)
        with pytest.raises(InvalidLevels):
            dwt_forward(x, max_levels(100) + 1)

    def test_invalid_input(self):
        with pytest.raises(InvalidInput):
            dwt_forward(np.zeros((3, 3)), 1)
        with pytest.raises(InvalidInput):
            dwt_forward(np.array([1.0, np.nan] * 50), 1)

    def test_inconsistent_coefficients_rejected(self, rng):
        decomp = dwt_forward(rng.standard_normal(400), 3)
        broken = WaveletDecomposition(
            approximation=decomp.approximation,
            details=[decomp.details[0][:-1], *decomp.details[1:]],
            original_length=decomp.original_length,
        )
        with pytest.raises(InvalidDecomposition):
            dwt_inverse(broken)
        broken2 = WaveletDecomposition(
            approximation=decomp.approximation[:-2],
            details=decomp.details,
            original_length=decomp.original_length,
        )
        with pytest.raises(InvalidDecomposition):
            dwt_inverse(broken2)


class TestDenoise:
    def test_removes_baseline_drift(self):
        ecg = synth_ecg(20.0, bpm=72, seed=5)
        drifted = add_drift(ecg.samples, amplitude=0.5, freq_hz=0.3)
        out = denoise(_record(drifted)).samples
        t = np.arange(len(drifted)) / 1000.0
        basis = np.exp(2j * np.pi * 0.3 * t)
        amp_in = 2 * np.abs(np.vdot(basis, drifted)) / len(drifted)
        amp_out = 2 * np.abs(np.vdot(basis, out)) / len(drifted)
        assert amp_in > 0.45  # sanity: the drift is there to begin with
        assert amp_out < 0.1 * amp_in

    def test_drift_mad_reduced_80pct(self):
        ecg = synth_ecg(20.0, bpm=72, seed=5)
        clean = ecg.samples - np.mean(ecg.samples)
        drifted = add_drift(clean, amplitude=0.5, freq_hz=0.3)
        out = denoise(_record(drifted)).samples
        mad_in = np.mean(np.abs(drifted - clean))
        mad_out = np.mean(np.abs(out - clean))
        assert mad_out <= 0.2 * mad_in

    def test_improves_snr_on_white_noise(self):
        ecg = synth_ecg(20.0, bpm=72, seed=6)
        clean = ecg.samples - np.mean(ecg.samples)
        noisy = add_white_noise(clean, snr_db=10.0, seed=7)
        out = denoise(_record(noisy)).samples
        snr_in = np.sum(clean**2) / np.sum((noisy - clean) ** 2)
        snr_out = np.sum(clean**2) / np.sum((out - clean) ** 2)
        assert snr_out > snr_in

    def test_all_zero_passthrough(self):
        out = denoise(_record(np.zeros(5000))).samples
        assert np.array_equal(out, np.zeros(5000))

    def test_baseline_idempotence(self, rng):
        # The symmetric-extension filter bank reconstructs perfectly but is
        # not an orthogonal projection at record edges: re-analysing the
        # denoised output leaves energy only in the outermost FILTER_LEN
        # approximation coefficients per side.  Interior coefficients are
        # machine zero, and a second pass moves the output by far less than
        # the first pass removed.
        ecg = synth_ecg(20.0, bpm=65, seed=8)
        noisy = add_drift(
            add_white_noise(ecg.samples, snr_db=12.0, seed=9), 0.4, 0.3
        )
        once = denoise(_record(noisy)).samples
        twice = denoise(_record(once)).samples
        scale = np.max(np.abs(once))
        noise_floor = np.max(np.abs(once - noisy))
        assert np.max(np.abs(twice - once)) < 0.1 * noise_floor
        residual_baseline = dwt_forward(once, BASELINE_LEVELS).approximation
        interior = residual_baseline[FILTER_LEN:-FILTER_LEN]
        assert np.max(np.abs(interior)) < 1e-9 * scale

    def test_preserves_length_and_metadata(self, rng):
        record = _record(rng.standard_normal(5000))
        out = denoise(record)
        assert len(out.samples) == 5000
        assert out.subject_id == record.subject_id
        assert out.sampling_rate == record.sampling_rate
        # input untouched
        assert not np.shares_memory(out.samples, record.samples)

    def test_short_record_uses_reduced_depth(self, caplog, rng):
        record = _record(rng.standard_normal(300))
        with caplog.at_level(logging.WARNING, logger="gafecg.signal_prep"):
            out = denoise(record)
        assert len(out.samples) == 300
        assert any("depth" in message for message in caplog.messages)

    def test_too_short_rejected(self):
        with pytest.raises(InvalidInput):
            denoise(_record(np.zeros(10)))

    def test_other_sampling_rate_rejected(self, rng):
        record = dataclasses.replace(
            _record(rng.standard_normal(5000)), sampling_rate=500.0
        )
        with pytest.raises(
            UnsupportedRate, match="^denoiser calibrated for 1000 Hz, got 500 Hz$"
        ):
            denoise(record)


class TestZscore:
    def test_oracle(self):
        out = zscore(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(
            out, [-1.224744871391589, 0.0, 1.224744871391589], atol=1e-12
        )

    def test_moments(self, rng):
        out = zscore(rng.standard_normal(651) * 7 + 3)
        assert abs(np.mean(out)) < 1e-12
        assert abs(np.std(out) - 1.0) < 1e-12

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=-10.0, max_value=10.0),
    )
    def test_affine_invariance(self, seed, scale, offset):
        x = np.random.default_rng(seed).standard_normal(200)
        base = zscore(x)
        np.testing.assert_allclose(zscore(scale * x + offset), base, atol=1e-9)
        np.testing.assert_allclose(zscore(-scale * x), -base, atol=1e-9)

    def test_degenerate(self):
        with pytest.raises(DegenerateBeat):
            zscore(np.full(651, 2.0))

    def test_shape_guard(self):
        with pytest.raises(InvalidInput):
            zscore(np.zeros((2, 2)))
