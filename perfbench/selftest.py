#!/usr/bin/env python3
"""Self-tests of the benchmark's output checks.

    python3 perfbench/selftest.py

Each check is first given a correct output, which it must accept, and then
a known-wrong one, which it must reject: a GASF image where a GADF image
belongs, an R index shifted by 20 ms, one flipped label, one perturbed
weight, and so on. Exits 1 if any check accepts a wrong output or rejects
a right one.
"""
from __future__ import annotations

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import archive  # noqa: E402
import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402
from gafecg import cnn, gaf_encode, png_io, synthetic  # noqa: E402

FAILURES: list[str] = []


def expect(name: str, accepts: bool, check, *args) -> None:
    try:
        check(*args)
        verdict = True
    except CheckFailed:
        verdict = False
    ok = verdict == accepts
    print(f"{'ok  ' if ok else 'FAIL'} {name}: {'accepted' if verdict else 'rejected'}")
    if not ok:
        FAILURES.append(name)


def field_checks(tmp: Path) -> None:
    ecg = synthetic.synth_ecg(6.0, bpm=70.0, seed=3)
    signal = synthetic.add_white_noise(ecg.samples, 24.0, seed=4)
    r = int(ecg.r_indices[2])
    window = signal[r - checks.PRE : r + checks.POST + 1]
    z = (window - window.mean()) / window.std()
    for kind in ("gasf", "gadf"):
        png_io.write_gray_png(tmp / f"{kind}.png", gaf_encode.encode_series(z, kind))
    decoded = {k: checks.read_png((tmp / f"{k}.png").read_bytes()) for k in ("gasf", "gadf")}
    expect("GADF image against the GADF reference", True, checks.check_field, decoded["gadf"], signal, r, "gadf", "x")
    expect("GASF image where GADF belongs", False, checks.check_field, decoded["gasf"], signal, r, "gadf", "x")
    expect("image of the next beat", False, checks.check_field, decoded["gadf"], signal, int(ecg.r_indices[3]), "gadf", "x")
    skewed = decoded["gasf"].copy()
    skewed[5, 9] ^= 1  # within one gray level, but no longer symmetric
    expect("asymmetric GASF image", False, checks.check_field, skewed, signal, r, "gasf", "x")


def peak_checks() -> None:
    truth = np.array([500, 1300, 2100, 2900, 3700])
    expect("detected R one sample late", True, checks.check_peaks, truth + 1, truth, 4500, "x")
    shifted = truth.copy()
    shifted[2] += 20  # 20 ms at 1000 Hz
    expect("one R shifted by 20 ms", False, checks.check_peaks, shifted, truth, 4500, "x")
    expect("one R missed", False, checks.check_peaks, np.delete(truth, 3), truth, 4500, "x")
    expect("one R found twice", False, checks.check_peaks, np.sort(np.append(truth, 2102)), truth, 4500, "x")


def record_checks(tmp: Path) -> None:
    subjects = archive.write_archive(tmp / "archive", archive.TRAIN, 0)
    rows = [(s.record_id, s.label) for s in subjects]
    expect("records as generated", True, checks.check_records, rows, subjects)
    flipped = [rows[0][:1] + ("mi" if rows[0][1] == "healthy" else "healthy",)] + rows[1:]
    expect("one flipped label in records", False, checks.check_records, flipped, subjects)
    expect("one record missing", False, checks.check_records, rows[1:], subjects)
    s = subjects[0]
    ecg = synthetic.synth_ecg(12.0, bpm=s.bpm, seed=1)
    raw = synthetic.add_drift(ecg.samples, archive.DRIFT_MV, s.drift_hz, archive.FS, s.drift_phase)
    expect("drift removed", True, checks.check_drift_removed, raw, ecg.samples, s.drift_hz, archive.FS, "x")
    expect("raw signal passed as clean", False, checks.check_drift_removed, raw, raw, s.drift_hz, archive.FS, "x")


def manifest_checks(tmp: Path) -> None:
    directory = tmp / "encode"
    directory.mkdir()
    rows = []
    for i, label in enumerate(("healthy", "mi", "mi")):
        (directory / f"{i}.png").write_bytes(b"")
        rows.append({"path": f"{i}.png", "label": label, "kind": "gadf", "noise_variant": "clean"})
    expect("manifest as written", True, checks.check_manifest, directory, rows, "gadf", "clean")
    expect("manifest listing an image twice", False, checks.check_manifest, directory, rows + rows[:1], "gadf", "clean")
    expect("manifest of one class", False, checks.check_manifest, directory, rows[1:2] + rows[1:], "gadf", "clean")
    expect("manifest of the wrong kind", False, checks.check_manifest, directory, rows, "gasf", "clean")


def network_checks(tmp: Path) -> None:
    model = cnn.model_init(seed=5)
    path = tmp / "model.ckpt"
    cnn.save_checkpoint(model, path)
    images = np.random.default_rng(0).integers(0, 256, (3, 128, 128), dtype=np.uint8)
    probs, _ = cnn.forward(model, images)
    reference = checks.reference_probs(path.read_bytes(), images)
    expect("probabilities of the checkpoint", True, checks.check_probs, probs, reference, "x")
    expect("decisions of the checkpoint", True, checks.check_decisions, probs.argmax(axis=1), reference, "x")
    perturbed = cnn.load_checkpoint(path)
    perturbed.params[-2][7, 1] += 0.5  # one weight of the sigmoid head
    wrong, _ = cnn.forward(perturbed, images)
    expect("one perturbed weight", False, checks.check_probs, wrong, reference, "x")
    expect("one flipped decision", False, checks.check_decisions, np.r_[1 - probs[:1].argmax(axis=1), probs[1:].argmax(axis=1)], reference, "x")


def fold_checks() -> None:
    labels = np.array([1, 1, 1, 0, 0, 0, 0])
    row = {"fold": "0", "tp": "3", "tn": "3", "fp": "1", "fn": "0", "acc": "85.71", "sen": "100.00", "spe": "75.00"}
    expect("fold row of exact ratios", True, checks.check_fold_row, row, labels)
    expect("accuracy off by 0.01", False, checks.check_fold_row, dict(row, acc="85.72"), labels)
    expect("one flipped generated label", False, checks.check_fold_row, row, np.r_[labels[:-1], 1])
    expect("counts short of the held-out size", False, checks.check_fold_row, dict(row, tn="2", acc="83.33", spe="66.67"), labels)


def main() -> int:
    runs = ROOT / ".perfbench_runs"
    runs.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=runs) as tmp:
        for name, group in (("field", field_checks), ("records", record_checks), ("manifest", manifest_checks), ("network", network_checks)):
            sub = Path(tmp) / name
            sub.mkdir()
            group(sub)
    peak_checks()
    fold_checks()
    print(f"{len(FAILURES)} self-test(s) failed" if FAILURES else "every check rejected its known-wrong output")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
