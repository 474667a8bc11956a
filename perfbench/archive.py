"""Synthetic PTB-style archives whose every input is known to the benchmark.

Records are built with ``gafecg.synthetic`` (Gaussian-bump beats on a known
R grid, white noise, one baseline-wander sinusoid) and written with
``gafecg.wfdb_ingest.write_record``. Heart rates come from a fixed grid per
archive, so every seed asks for nearly the same amount of work; the seed
draws the RR jitter, the noise and the drift frequency and phase.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gafecg import synthetic, wfdb_ingest

FS = 1000.0
SNR_DB = 24.0
DRIFT_MV = 0.15
RR_JITTER = 0.03
DIAGNOSIS = {
    "healthy": [" Reason for admission: Healthy control"],
    "mi": [
        " Reason for admission: Myocardial infarction",
        " Acute infarction (localization): inferior",
    ],
}


@dataclass(frozen=True)
class ArchiveSpec:
    """Subjects of one archive: (label, bpm) pairs, one record each."""

    name: str
    subjects: tuple[tuple[str, float], ...]
    duration_s: float
    first_patient: int  # patient numbers differ between archives


@dataclass
class Subject:
    record_id: str
    label: str
    bpm: float
    n_samples: int
    r_indices: np.ndarray
    drift_hz: float
    drift_phase: float


# Twelve-second subjects: about 58 beats in all, trained on by `train` and
# in the set-up of `screen`.
TRAIN = ArchiveSpec(
    "train", (("healthy", 62.0), ("healthy", 74.0), ("mi", 68.0), ("mi", 82.0)), 12.0, 1
)
# PTB-length records: 115 s at 1000 Hz, about 140 beats each.
FRONTEND = ArchiveSpec("frontend", (("healthy", 66.0), ("mi", 78.0)), 115.0, 201)
# Held-out subjects for single-beat screening; never in a training archive.
SCREEN = ArchiveSpec(
    "screen", (("healthy", 64.0), ("healthy", 76.0), ("mi", 70.0), ("mi", 84.0)), 30.0, 301
)


def write_archive(root: Path, spec: ArchiveSpec, seed: int) -> list[Subject]:
    """Write ``spec`` under ``root`` and return the ground truth."""
    subjects = []
    for k, (label, bpm) in enumerate(spec.subjects):
        rng = np.random.default_rng([seed, spec.first_patient + k])
        ecg = synthetic.synth_ecg(
            spec.duration_s,
            bpm=bpm,
            sampling_rate=FS,
            morphology=label,
            rr_jitter=RR_JITTER,
            seed=int(rng.integers(2**31)),
        )
        drift_hz = float(rng.uniform(0.2, 0.4))
        drift_phase = float(rng.uniform(0.0, 2.0 * np.pi))
        noisy = synthetic.add_white_noise(
            ecg.samples, SNR_DB, seed=int(rng.integers(2**31))
        )
        noisy = synthetic.add_drift(
            noisy, DRIFT_MV, freq_hz=drift_hz, sampling_rate=FS, phase=drift_phase
        )
        patient = f"patient{spec.first_patient + k:03d}"
        wfdb_ingest.write_record(
            root / patient,
            "s0001",
            noisy,
            sampling_rate=FS,
            lead_name="ii",
            comments=[" age: 55", " sex: n/a"] + DIAGNOSIS[label],
        )
        subjects.append(
            Subject(
                record_id=f"{patient}/s0001",
                label=label,
                bpm=bpm,
                n_samples=len(noisy),
                r_indices=ecg.r_indices,
                drift_hz=drift_hz,
                drift_phase=drift_phase,
            )
        )
    return subjects
