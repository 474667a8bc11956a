"""Daubechies-4 wavelet denoising and per-beat normalization.

The denoiser removes baseline wander by zeroing the deepest approximation
band of a 9-level decomposition (roughly 0-0.98 Hz at 1000 Hz) and removes
high-frequency noise by soft-thresholding the two finest detail bands with
the universal threshold sigma * sqrt(2 ln n).

The transform uses half-point symmetric boundary extension and a centered
crop on reconstruction, which together give perfect reconstruction to
float64 round-off for any signal length.
"""
from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateBeat, InvalidDecomposition, InvalidInput, InvalidLevels, UnsupportedRate,
)

logger = logging.getLogger(__name__)

# Daubechies-4 scaling (reconstruction low-pass) filter; sums to sqrt(2).
DB4_REC_LO = np.array(
    [
        0.23037781330885523,
        0.7148465705525415,
        0.6308807679295904,
        -0.02798376941698385,
        -0.18703481171888114,
        0.030841381835986965,
        0.032883011666982945,
        -0.010597401784997278,
    ]
)
FILTER_LEN = len(DB4_REC_LO)

# Quadrature-mirror relations for an orthogonal wavelet.
DB4_DEC_LO = DB4_REC_LO[::-1].copy()
DB4_DEC_HI = np.array([(-1) ** (k + 1) * DB4_REC_LO[k] for k in range(FILTER_LEN)])
DB4_REC_HI = DB4_DEC_HI[::-1].copy()

SAMPLING_RATE = 1000.0  # the denoiser's and the R-peak detector's calibration
BASELINE_LEVELS = 9  # approximation band ~0-0.98 Hz at 1000 Hz
NOISE_DETAIL_LEVELS = 2  # soft-threshold the two finest detail bands
MAD_TO_SIGMA = 0.6745  # median(|x|) -> sigma for Gaussian noise


@dataclass
class WaveletDecomposition:
    """Multi-level DWT coefficients.

    ``details[0]`` is the finest band (level 1); ``approximation`` belongs
    to the deepest level. ``original_length`` pins down the exact sample
    count to restore, since coefficient lengths alone are ambiguous.
    """

    approximation: np.ndarray
    details: list[np.ndarray]
    original_length: int

    @property
    def levels(self) -> int:
        return len(self.details)


def max_levels(length: int) -> int:
    """Deepest admissible decomposition for a signal of ``length`` samples."""
    if length < FILTER_LEN - 1:
        return 0
    return int(math.floor(math.log2(length / (FILTER_LEN - 1))))


def _sym_ext(x: np.ndarray, n: int) -> np.ndarray:
    # Half-point symmetric extension: ... x1 x0 | x0 x1 ... xN-1 | xN-1 ...
    left = x[n - 1 :: -1]
    right = x[: -n - 1 : -1]
    return np.concatenate([left, x, right])


def _dwt_single(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    ext = _sym_ext(x, FILTER_LEN - 1)
    approx = np.convolve(ext, DB4_DEC_LO, mode="valid")[::2]
    detail = np.convolve(ext, DB4_DEC_HI, mode="valid")[::2]
    return approx, detail


def _idwt_single(approx: np.ndarray, detail: np.ndarray, out_len: int) -> np.ndarray:
    up_a = np.zeros(2 * len(approx))
    up_a[::2] = approx
    up_d = np.zeros(2 * len(detail))
    up_d[::2] = detail
    y = np.convolve(up_a, DB4_REC_LO) + np.convolve(up_d, DB4_REC_HI)
    # Centered crop undoes the symmetric extension applied on analysis.
    off = (len(y) - out_len) // 2
    return y[off : off + out_len]


def _coeff_len(n: int) -> int:
    # Symmetric extension by FILTER_LEN-1, valid convolution, then every
    # second sample starting at 0: ceil((n + FILTER_LEN - 1) / 2).
    return (n + FILTER_LEN) // 2


def _level_lengths(original_length: int, levels: int) -> list[int]:
    # Input length seen by each analysis level, finest first.
    lengths = [original_length]
    for _ in range(levels - 1):
        lengths.append(_coeff_len(lengths[-1]))
    return lengths


def dwt_forward(signal: np.ndarray, levels: int) -> WaveletDecomposition:
    """Decompose a 1-D signal into ``levels`` detail bands plus approximation.

    Raises InvalidLevels unless ``1 <= levels <= max_levels(len(signal))``.
    """
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1:
        raise InvalidInput(f"expected a 1-D signal, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InvalidInput("signal contains non-finite samples")
    admissible = max_levels(len(x))
    if levels < 1 or levels > admissible:
        raise InvalidLevels(
            f"levels={levels} not in [1, {admissible}] for length {len(x)}"
        )
    details: list[np.ndarray] = []
    approx = x
    for _ in range(levels):
        approx, detail = _dwt_single(approx)
        details.append(detail)
    return WaveletDecomposition(
        approximation=approx, details=details, original_length=len(x)
    )


def dwt_inverse(decomp: WaveletDecomposition) -> np.ndarray:
    """Reconstruct the signal; exact up to float64 round-off."""
    if decomp.levels < 1:
        raise InvalidDecomposition("decomposition has no detail bands")
    lengths = _level_lengths(decomp.original_length, decomp.levels)
    expected = [_coeff_len(n) for n in lengths]
    for lv, (detail, want) in enumerate(zip(decomp.details, expected), start=1):
        if len(detail) != want:
            raise InvalidDecomposition(
                f"level {lv} detail has {len(detail)} coefficients, expected {want}"
            )
    if len(decomp.approximation) != expected[-1]:
        raise InvalidDecomposition(
            f"approximation has {len(decomp.approximation)} coefficients, "
            f"expected {expected[-1]}"
        )
    approx = decomp.approximation
    for detail, out_len in zip(decomp.details[::-1], lengths[::-1]):
        approx = _idwt_single(approx, detail, out_len)
    return approx


def _soft_threshold(coeffs: np.ndarray, threshold: float) -> np.ndarray:
    return np.sign(coeffs) * np.maximum(np.abs(coeffs) - threshold, 0.0)


def denoise(record):
    """Return a copy of ``record`` with baseline wander and noise removed.

    Expects a 1000 Hz record (``gafecg.wfdb_ingest.EcgRecord``); any other
    rate raises UnsupportedRate. Signals too short for the full 9-level
    decomposition are processed at the deepest admissible depth with a
    warning; signals too short for any decomposition raise InvalidInput.
    """
    if record.sampling_rate != SAMPLING_RATE:
        raise UnsupportedRate(
            f"denoiser calibrated for {SAMPLING_RATE:g} Hz, "
            f"got {record.sampling_rate:g} Hz"
        )
    x = np.asarray(record.samples, dtype=np.float64)
    levels = min(BASELINE_LEVELS, max_levels(len(x)))
    if levels < 1:
        raise InvalidInput(
            f"record has {len(x)} samples, too short for wavelet denoising"
        )
    if levels < BASELINE_LEVELS:
        logger.warning(
            "record %s has %d samples; denoising at depth %d instead of %d",
            getattr(record, "subject_id", "?"),
            len(x),
            levels,
            BASELINE_LEVELS,
        )
    decomp = dwt_forward(x, levels)
    # Baseline wander lives in the deepest approximation band.
    decomp.approximation = np.zeros_like(decomp.approximation)
    # Universal threshold with noise scale taken from the finest band.
    sigma = float(np.median(np.abs(decomp.details[0]))) / MAD_TO_SIGMA
    threshold = sigma * math.sqrt(2.0 * math.log(len(x)))
    for lv in range(min(NOISE_DETAIL_LEVELS, levels)):
        decomp.details[lv] = _soft_threshold(decomp.details[lv], threshold)
    cleaned = dwt_inverse(decomp)
    return dataclasses.replace(record, samples=cleaned)


def zscore(beat: np.ndarray) -> np.ndarray:
    """Standardize to zero mean and unit (population) standard deviation."""
    x = np.asarray(beat, dtype=np.float64)
    if x.ndim != 1:
        raise InvalidInput(f"expected a 1-D beat, got shape {x.shape}")
    std = float(np.std(x))
    if std == 0.0:
        raise DegenerateBeat("beat is constant; z-score undefined")
    return (x - np.mean(x)) / std
