"""R-peak detection and beat segmentation tests."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gafecg.errors import InvalidInput, UnsupportedRate
from gafecg.qrs_segment import (
    BEAT_LENGTH,
    POST_SAMPLES,
    PRE_SAMPLES,
    REFRACTORY,
    RPeakList,
    _merge_close,
    pan_tompkins,
    segment_beats,
)
from gafecg.synthetic import add_drift, add_white_noise, synth_ecg
from gafecg.wfdb_ingest import EcgRecord, Label


def _record(samples, label=None, subject="rec1"):
    return EcgRecord(subject, label, "ii", np.asarray(samples, float), 1000.0)


def _assert_matches_truth(detected, truth, tolerance_ms=10):
    assert len(detected) == len(truth), (len(detected), len(truth))
    np.testing.assert_array_less(np.abs(detected - truth), tolerance_ms + 1)


class TestDetection:
    def test_clean_healthy_rhythm(self):
        ecg = synth_ecg(30.0, bpm=72, seed=1)
        peaks = pan_tompkins(_record(ecg.samples))
        _assert_matches_truth(peaks.indices, ecg.r_indices)

    def test_infarct_morphology(self):
        ecg = synth_ecg(30.0, bpm=60, morphology="mi", seed=2)
        peaks = pan_tompkins(_record(ecg.samples))
        _assert_matches_truth(peaks.indices, ecg.r_indices)

    @pytest.mark.parametrize("bpm", [45, 75, 118])
    def test_rate_range(self, bpm):
        ecg = synth_ecg(30.0, bpm=bpm, seed=3)
        peaks = pan_tompkins(_record(ecg.samples))
        _assert_matches_truth(peaks.indices, ecg.r_indices)

    def test_noise_and_drift(self):
        ecg = synth_ecg(30.0, bpm=80, seed=4)
        corrupted = add_drift(
            add_white_noise(ecg.samples, snr_db=8.0, seed=5), 0.3, 0.4
        )
        peaks = pan_tompkins(_record(corrupted))
        _assert_matches_truth(peaks.indices, ecg.r_indices)

    def test_irregular_rhythm(self):
        ecg = synth_ecg(30.0, bpm=70, rr_jitter=0.08, seed=6)
        peaks = pan_tompkins(_record(ecg.samples))
        _assert_matches_truth(peaks.indices, ecg.r_indices)

    def test_search_back_recovers_a_small_beat(self):
        # Beat 15 at 0.4 of its amplitude falls under the threshold; only
        # search-back over the long RR gap finds it again.
        ecg = synth_ecg(30.0, bpm=70, seed=1)
        samples = ecg.samples.copy()
        r = ecg.r_indices[15]
        samples[r - 300 : r + 301] *= 0.4
        peaks = pan_tompkins(_record(samples))
        _assert_matches_truth(peaks.indices, ecg.r_indices)

    @given(
        gaps=st.lists(st.integers(1, 600) | st.sampled_from([REFRACTORY - 1]), max_size=60),
        values=st.lists(st.floats(), min_size=60, max_size=60),
    )
    def test_merged_candidates_increase_refractory_apart(self, gaps, values):
        # The precondition of the detector: it never tests refractory itself.
        indices = np.cumsum(gaps, dtype=np.int64)
        merged = [i for i, _ in _merge_close(indices, values[: len(indices)])]
        assert set(merged) <= set(indices.tolist())
        assert all(b - a >= REFRACTORY for a, b in zip(merged, merged[1:]))

    def test_positive_rescaling_is_exact(self):
        ecg = synth_ecg(20.0, bpm=65, seed=7)
        noisy = add_white_noise(ecg.samples, snr_db=10.0, seed=8)
        base = pan_tompkins(_record(noisy)).indices
        # Powers of two keep float arithmetic bit-identical.
        for factor in (4.0, 0.03125):
            scaled = pan_tompkins(_record(noisy * factor)).indices
            np.testing.assert_array_equal(scaled, base)

    def test_output_invariants(self):
        ecg = synth_ecg(30.0, bpm=95, rr_jitter=0.05, seed=9)
        noisy = add_white_noise(ecg.samples, snr_db=6.0, seed=10)
        peaks = pan_tompkins(_record(noisy))
        assert peaks.indices.dtype == np.int64
        assert np.all(np.diff(peaks.indices) >= REFRACTORY)
        assert np.all(peaks.indices >= 0)
        assert np.all(peaks.indices < len(noisy))

    def test_flat_signal_yields_no_peaks(self):
        peaks = pan_tompkins(_record(np.zeros(5000)))
        assert len(peaks.indices) == 0

    def test_wrong_sampling_rate_rejected(self):
        record = EcgRecord("r", None, "ii", np.zeros(5000), 500.0)
        with pytest.raises(UnsupportedRate, match="500"):
            pan_tompkins(record)

    def test_short_record_rejected(self):
        with pytest.raises(InvalidInput, match="at least"):
            pan_tompkins(_record(np.zeros(1999)))

    def test_non_finite_rejected(self):
        samples = np.zeros(5000)
        samples[100] = np.nan
        with pytest.raises(InvalidInput, match="finite"):
            pan_tompkins(_record(samples))

    def test_2d_rejected(self):
        with pytest.raises(InvalidInput, match="1-D"):
            pan_tompkins(_record(np.zeros((2, 5000))))


class TestSegmentation:
    def test_window_geometry_and_normalization(self, rng):
        x = rng.normal(size=3000)
        peaks = RPeakList(indices=np.array([400, 900, 1500]), sampling_rate=1000.0)
        result = segment_beats(_record(x, Label.MI, "patient9/s0042"), peaks)
        assert len(result.beats) == 3
        assert result.skipped_bounds == 0
        assert result.skipped_degenerate == 0
        for beat, r in zip(result.beats, peaks.indices):
            assert beat.samples.shape == (BEAT_LENGTH,)
            assert beat.r_peak_index == r
            assert beat.source_record == "patient9/s0042"
            assert beat.label == "mi"
            assert abs(np.mean(beat.samples)) < 1e-12
            assert abs(np.std(beat.samples) - 1.0) < 1e-12

    def test_window_is_centered_on_peak(self, rng):
        x = rng.normal(size=2000)
        r = 700
        result = segment_beats(
            _record(x), RPeakList(indices=np.array([r]), sampling_rate=1000.0)
        )
        window = x[r - PRE_SAMPLES : r + POST_SAMPLES + 1]
        expect = (window - np.mean(window)) / np.std(window)
        np.testing.assert_allclose(result.beats[0].samples, expect, atol=1e-12)

    def test_unlabeled_record_gives_empty_label(self, rng):
        x = rng.normal(size=2000)
        result = segment_beats(
            _record(x, None), RPeakList(indices=np.array([700]), sampling_rate=1000.0)
        )
        assert result.beats[0].label == ""

    def test_edge_windows_skipped(self, rng):
        n = 1000
        x = rng.normal(size=n)
        peaks = RPeakList(
            indices=np.array([PRE_SAMPLES - 1, PRE_SAMPLES, n - POST_SAMPLES - 1, n - POST_SAMPLES]),
            sampling_rate=1000.0,
        )
        result = segment_beats(_record(x), peaks)
        assert [b.r_peak_index for b in result.beats] == [
            PRE_SAMPLES,
            n - POST_SAMPLES - 1,
        ]
        assert result.skipped_bounds == 2

    def test_constant_windows_counted_degenerate(self):
        x = np.zeros(3000)
        peaks = RPeakList(indices=np.array([500, 1500]), sampling_rate=1000.0)
        result = segment_beats(_record(x), peaks)
        assert result.beats == []
        assert result.skipped_degenerate == 2
        assert result.skipped_bounds == 0

    def test_counts_are_exhaustive(self, rng):
        x = rng.normal(size=4000)
        x[3100:] = 2.5  # make the last interior window constant
        peaks = RPeakList(
            indices=np.array([100, 500, 1200, 3500, 3900]), sampling_rate=1000.0
        )
        result = segment_beats(_record(x), peaks)
        total = len(result.beats) + result.skipped_bounds + result.skipped_degenerate
        assert total == len(peaks.indices)
        assert result.skipped_bounds == 2  # r=100 and r=3900
        assert result.skipped_degenerate == 1  # r=3500

    def test_detection_feeds_segmentation(self):
        ecg = synth_ecg(20.0, bpm=70, seed=11)
        record = _record(ecg.samples, Label.HEALTHY)
        peaks = pan_tompkins(record)
        result = segment_beats(record, peaks)
        interior = [
            r
            for r in peaks.indices
            if r - PRE_SAMPLES >= 0 and r + POST_SAMPLES < len(ecg.samples)
        ]
        assert len(result.beats) == len(interior)
        assert {b.label for b in result.beats} == {"healthy"}
