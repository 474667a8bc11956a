"""R-peak detection (Pan-Tompkins style) and fixed-window beat extraction.

The detector is calibrated for 1000 Hz: band-pass (cascaded moving-average
low-pass and subtractive high-pass, roughly 5-15 Hz), five-point derivative,
squaring, and a 150 ms moving-window integral. Peaks of the integrated
signal pass adaptive dual thresholds with a 200 ms refractory period and a
search-back pass for long RR gaps. Each detection is mapped back through
the band-passed signal and refined to the raw-signal local maximum within
50 ms, so reported indices sit on the R apex.

Beats are windows of 250 samples before the R peak to 400 samples after
(651 samples total), z-scored per beat.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBeat, InvalidInput, UnsupportedRate
from .signal_prep import SAMPLING_RATE, zscore

PRE_SAMPLES = 250
POST_SAMPLES = 400
BEAT_LENGTH = PRE_SAMPLES + 1 + POST_SAMPLES  # 651

REFRACTORY = 200  # samples (200 ms): minimum distance between QRS complexes
INIT_WINDOW = 2000  # samples used to seed the adaptive thresholds
LOWPASS_LEN = 30  # two cascaded boxcars -> ~11 Hz cutoff, delay 29
HIGHPASS_LEN = 161  # delayed sample minus 161-point mean -> ~5 Hz, delay 80
DERIV_DELAY = 5  # five-point derivative spacing, delay 10
MWI_LEN = 151  # moving-window integral, 150 ms
BP_DELAY = (LOWPASS_LEN - 1) + (HIGHPASS_LEN - 1) // 2  # 29 + 80 = 109
REFINE_HALF = 50  # final refinement window, +-50 ms on the raw signal
SEARCHBACK_FACTOR = 1.66  # RR gap factor that triggers search-back
RR_HISTORY = 8


@dataclass
class RPeakList:
    indices: np.ndarray  # strictly increasing sample positions
    sampling_rate: float


@dataclass
class Beat:
    samples: np.ndarray  # (BEAT_LENGTH,) z-scored
    source_record: str
    r_peak_index: int
    label: str  # "healthy" | "mi" | ""


@dataclass
class SegmentationResult:
    beats: list[Beat]
    skipped_bounds: int  # window would cross a record edge
    skipped_degenerate: int  # constant window, z-score undefined


def _causal_mean(x: np.ndarray, length: int) -> np.ndarray:
    return np.convolve(x, np.full(length, 1.0 / length))[: len(x)]


def _bandpass(x: np.ndarray) -> np.ndarray:
    low = _causal_mean(_causal_mean(x, LOWPASS_LEN), LOWPASS_LEN)
    delayed = np.zeros_like(low)
    shift = (HIGHPASS_LEN - 1) // 2
    delayed[shift:] = low[: len(low) - shift]
    return delayed - _causal_mean(low, HIGHPASS_LEN)


def _derivative(x: np.ndarray) -> np.ndarray:
    # y[n] = (2x[n] + x[n-d] - x[n-3d] - 2x[n-4d]) / 8 with d = DERIV_DELAY
    d = DERIV_DELAY
    y = 2.0 * x
    y[d:] += x[:-d]
    y[3 * d :] -= x[: -3 * d]
    y[4 * d :] -= 2.0 * x[: -4 * d]
    return y / 8.0


def _integrate(x: np.ndarray) -> np.ndarray:
    return _causal_mean(x * x, MWI_LEN)


def _local_maxima(x: np.ndarray) -> np.ndarray:
    rise = x[1:-1] > x[:-2]
    fall = x[1:-1] >= x[2:]
    return np.nonzero(rise & fall)[0] + 1


def _merge_close(indices: np.ndarray, values: np.ndarray) -> list[tuple[int, float]]:
    merged: list[tuple[int, float]] = []
    for i, v in zip(indices, values):
        if merged and i - merged[-1][0] < REFRACTORY:
            if v > merged[-1][1]:
                merged[-1] = (int(i), float(v))
        else:
            merged.append((int(i), float(v)))
    return merged


class _Detector:
    """Adaptive dual-threshold peak picker over the integrated signal.

    ``run`` takes the candidates of ``_merge_close``: increasing and at
    least REFRACTORY apart. Every accepted peak is one of them, accepted in
    increasing order, and search-back only looks past the last accepted
    peak. So the accepted list stays sorted and its peaks REFRACTORY apart
    with no test of their own.
    """

    def __init__(self, mwi: np.ndarray):
        seed = mwi[: min(INIT_WINDOW, len(mwi))]
        self.spki = float(np.max(seed)) / 3.0
        self.npki = float(np.mean(seed)) / 2.0
        self.rr: deque[float] = deque(maxlen=RR_HISTORY)
        self.accepted: list[int] = []

    @property
    def threshold(self) -> float:
        return self.npki + 0.25 * (self.spki - self.npki)

    def _accept(self, idx: int, value: float, from_searchback: bool) -> None:
        if from_searchback:
            self.spki = 0.25 * value + 0.75 * self.spki
        else:
            self.spki = 0.125 * value + 0.875 * self.spki
        if self.accepted:
            self.rr.append(float(idx - self.accepted[-1]))
        self.accepted.append(idx)

    def _search_back(self, candidates: list[tuple[int, float]], gap_end: int) -> None:
        # Re-examine rejected candidates in a long RR gap at half threshold.
        # An RR history implies an accepted peak.
        while self.rr and gap_end - self.accepted[-1] > SEARCHBACK_FACTOR * np.mean(self.rr):
            lo = self.accepted[-1] + REFRACTORY
            hi = gap_end - REFRACTORY
            half = 0.5 * self.threshold
            window = [(i, v) for (i, v) in candidates if lo <= i <= hi and v > half]
            if not window:
                return
            best = max(window, key=lambda item: item[1])
            self._accept(best[0], best[1], from_searchback=True)

    def run(self, candidates: list[tuple[int, float]], signal_length: int) -> list[int]:
        for idx, value in candidates:
            self._search_back(candidates, idx)
            if value > self.threshold:
                self._accept(idx, value, from_searchback=False)
            else:
                self.npki = 0.125 * value + 0.875 * self.npki
        self._search_back(candidates, signal_length)
        return self.accepted


def pan_tompkins(record) -> RPeakList:
    """Detect R peaks in a 1000 Hz single-lead record.

    Output indices point at raw-signal apexes, are strictly increasing, and
    are at least 200 ms apart. Detection is invariant to positive rescaling
    of the input.
    """
    if record.sampling_rate != SAMPLING_RATE:
        raise UnsupportedRate(
            f"detector calibrated for {SAMPLING_RATE:g} Hz, "
            f"got {record.sampling_rate:g} Hz"
        )
    x = np.asarray(record.samples, dtype=np.float64)
    if x.ndim != 1:
        raise InvalidInput(f"expected a 1-D signal, got shape {x.shape}")
    if len(x) < INIT_WINDOW:
        raise InvalidInput(
            f"record has {len(x)} samples; need at least {INIT_WINDOW} (2 s)"
        )
    if not np.all(np.isfinite(x)):
        raise InvalidInput("signal contains non-finite samples")
    bp = _bandpass(x)
    mwi = _integrate(_derivative(bp))
    maxima = _local_maxima(mwi)
    if len(maxima) == 0:
        return RPeakList(indices=np.empty(0, dtype=np.int64), sampling_rate=SAMPLING_RATE)
    candidates = _merge_close(maxima, mwi[maxima])
    detector = _Detector(mwi)
    mwi_peaks = detector.run(candidates, len(x))

    refined: list[int] = []
    for m in mwi_peaks:
        # The integrated peak trails the QRS; locate the band-passed peak
        # behind it, undo the filter delay, then snap to the raw apex.
        lo = max(0, m - MWI_LEN - 10)
        hi = max(lo + 1, m - 5)
        b = lo + int(np.argmax(bp[lo:hi]))
        r0 = max(0, b - BP_DELAY)
        w_lo = max(0, r0 - REFINE_HALF)
        w_hi = min(len(x), r0 + REFINE_HALF + 1)
        r = w_lo + int(np.argmax(x[w_lo:w_hi]))
        if refined and r - refined[-1] < REFRACTORY:
            continue
        refined.append(r)
    return RPeakList(indices=np.array(refined, dtype=np.int64), sampling_rate=SAMPLING_RATE)


def segment_beats(record, peaks: RPeakList) -> SegmentationResult:
    """Cut a z-scored 651-sample window around each R peak.

    Peaks whose window crosses a record edge are skipped and counted, as
    are constant windows that cannot be z-scored.
    """
    x = np.asarray(record.samples, dtype=np.float64)
    label = record.label.value if getattr(record, "label", None) is not None else ""
    beats: list[Beat] = []
    skipped_bounds = 0
    skipped_degenerate = 0
    for r in np.asarray(peaks.indices, dtype=np.int64):
        lo = int(r) - PRE_SAMPLES
        hi = int(r) + POST_SAMPLES
        if lo < 0 or hi >= len(x):
            skipped_bounds += 1
            continue
        window = x[lo : hi + 1]
        try:
            normalized = zscore(window)
        except DegenerateBeat:
            skipped_degenerate += 1
            continue
        beats.append(
            Beat(
                samples=normalized,
                source_record=getattr(record, "subject_id", ""),
                r_peak_index=int(r),
                label=label,
            )
        )
    return SegmentationResult(
        beats=beats,
        skipped_bounds=skipped_bounds,
        skipped_degenerate=skipped_degenerate,
    )
