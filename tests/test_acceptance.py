"""Acceptance suite: one criterion per test class.

Every class carries ``@pytest.mark.acceptance(number, title)`` and the
terminal-summary hook in conftest prints one pass/fail line per criterion.
Reference numbers are asserted at half a unit of their printed precision.
Printed cells that are not arithmetically consistent with their own
confusion counts are listed, with the evidence, in ``PRINTED_ERRATA``;
those cells are checked against the value their counts give, and a
separate check keeps each erratum in force only while the printed cell
stays inconsistent.
"""
from __future__ import annotations

import csv
import os
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest

from gafecg import cnn
from gafecg.cli import main
from gafecg.gaf_encode import (
    encode_series,
    gadf,
    gasf,
    minmax_rescale,
    paa_downsample,
    to_polar,
)
from gafecg.qrs_segment import RPeakList, pan_tompkins, segment_beats
from gafecg.signal_prep import FILTER_LEN, dwt_forward, dwt_inverse
from gafecg.synthetic import add_drift, add_white_noise, synth_ecg
from gafecg.train_eval import (
    ConfusionCounts,
    DatasetItem,
    DatasetVariant,
    Hyperparams,
    compute_metrics,
    make_folds,
    train_fold,
)
from gafecg.wfdb_ingest import EcgRecord, Label, scan_dataset

# --- criterion 1 ------------------------------------------------------------

# Reference confusion counts per dataset variant and the rounded percentages
# they are reported with, exactly as printed: (tn, tp, fp, fn, acc, sen, spe).
REPORTED_RESULTS = {
    "ds1": (2505, 7530, 19, 13, 99.68, 99.8, 99.2),
    "ds2": (2508, 7539, 16, 4, 99.80, 99.9, 99.3),
    "ds3": (2509, 7540, 15, 3, 99.82, 99.9, 99.4),
    "ds4": (2510, 7541, 14, 2, 99.84, 99.7, 99.4),
}
METRICS = ("accuracy", "sensitivity", "specificity")
# Accuracy is printed to 2 decimals, sensitivity and specificity to 1; a
# printed cell is matched at half a unit of its own precision.
PRINTED_DECIMALS = {"accuracy": 2, "sensitivity": 1, "specificity": 1}
EXACT_TOLERANCE_PP = 1e-9  # compute_metrics against exact rational arithmetic


class Erratum(NamedTuple):
    printed: float  # the cell as printed
    from_counts: float  # what the row's counts give at the printed precision
    splits: tuple[tuple[int, int], ...]  # (fp, fn) splits reproducing the row


# Printed cells that disagree with their own row's counts. Each row has
# 10 067 beats (7543 MI, 2524 healthy).
PRINTED_ERRATA = {
    # 2508/2524 = 99.366 %. The printed accuracy fixes the errors at 20,
    # and no split of 20 gives both sensitivity 99.9 and specificity 99.3
    # (that needs fn >= 4 and fp >= 17): the printed row contradicts itself.
    ("ds2", "specificity"): Erratum(99.3, 99.4, ()),
    # 7540/7543 = 99.960 %. The printed accuracy fixes the errors at 18, and
    # fp=14, fn=4 would reproduce the whole printed row, so either the counts
    # (fp=15, fn=3) were mistranscribed or this cell was misprinted; the
    # paper's confusion table is not at hand to settle which.
    ("ds3", "sensitivity"): Erratum(99.9, 100.0, ((14, 4),)),
    # 7541/7543 = 99.973 %. The printed accuracy fixes the errors at 16, but
    # a sensitivity of 99.7 needs at least 19 missed MI beats: the printed
    # row contradicts itself.
    ("ds4", "sensitivity"): Erratum(99.7, 100.0, ()),
}


def _counts(variant: str) -> ConfusionCounts:
    tn, tp, fp, fn = REPORTED_RESULTS[variant][:4]
    return ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn)


def _printed(variant: str, metric: str) -> float:
    return REPORTED_RESULTS[variant][4 + METRICS.index(metric)]


def _exact_percent(counts: ConfusionCounts, metric: str) -> Fraction:
    """The metric as an exact rational percentage, independent of the program."""
    numerator, denominator = {
        "accuracy": (counts.tp + counts.tn, counts.total),
        "sensitivity": (counts.tp, counts.tp + counts.fn),
        "specificity": (counts.tn, counts.tn + counts.fp),
    }[metric]
    return 100 * Fraction(numerator, denominator)


def _matches_print(value: Fraction, printed: float, metric: str) -> bool:
    """Whether ``value`` lies within half a unit of the printed precision."""
    half_unit = Fraction(1, 2 * 10 ** PRINTED_DECIMALS[metric])
    return abs(value - Fraction(str(printed))) <= half_unit


def _reproducing_splits(variant: str) -> list[tuple[int, int]]:
    """(fp, fn) splits of the row's class totals that give every printed cell."""
    truth = _counts(variant)
    negatives, positives = truth.tn + truth.fp, truth.tp + truth.fn
    splits = []
    for errors in range(truth.total + 1):
        accuracy = 100 * Fraction(truth.total - errors, truth.total)
        if not _matches_print(accuracy, _printed(variant, "accuracy"), "accuracy"):
            continue
        for fn in range(max(0, errors - negatives), min(errors, positives) + 1):
            fp = errors - fn
            counts = ConfusionCounts(
                tp=positives - fn, tn=negatives - fp, fp=fp, fn=fn
            )
            if all(
                _matches_print(_exact_percent(counts, m), _printed(variant, m), m)
                for m in METRICS
            ):
                splits.append((fp, fn))
    return splits


@pytest.mark.acceptance(1, "reported metrics follow from confusion counts")
class TestReportedMetrics:
    @pytest.mark.parametrize("metric", list(METRICS))
    @pytest.mark.parametrize("variant", sorted(REPORTED_RESULTS))
    def test_cell(self, variant, metric):
        counts = _counts(variant)
        computed = getattr(compute_metrics(counts), metric)
        exact = _exact_percent(counts, metric)
        assert abs(computed - float(exact)) <= EXACT_TOLERANCE_PP, (
            f"{variant} {metric}: compute_metrics gives {computed!r}%, "
            f"the counts give exactly {float(exact)!r}%"
        )
        erratum = PRINTED_ERRATA.get((variant, metric))
        expected = _printed(variant, metric) if erratum is None else erratum.from_counts
        assert _matches_print(Fraction(computed), expected, metric), (
            f"{variant} {metric}: counts give {computed:.5f}%, "
            f"expected {expected}% (delta {abs(computed - expected):.5f} pp)"
        )

    @pytest.mark.parametrize("variant, metric", sorted(PRINTED_ERRATA))
    def test_printed_erratum(self, variant, metric):
        """An erratum stands only while its printed cell is inconsistent."""
        erratum = PRINTED_ERRATA[(variant, metric)]
        exact = _exact_percent(_counts(variant), metric)
        assert _printed(variant, metric) == erratum.printed
        assert not _matches_print(exact, erratum.printed, metric)
        assert _matches_print(exact, erratum.from_counts, metric)
        assert _reproducing_splits(variant) == list(erratum.splits)


# --- criterion 2 ------------------------------------------------------------


@pytest.mark.acceptance(2, "angular field properties")
class TestAngularFieldProperties:
    def test_thousand_random_beats(self):
        rng = np.random.default_rng(20)
        ecg = synth_ecg(40.0, bpm=80.0, rr_jitter=0.03, seed=5)
        inner_peaks = ecg.r_indices[1:-1]
        worst_dual = 0.0
        for i in range(1000):
            family = i % 4
            n = int(rng.integers(300, 1200))
            if family == 0:
                beat = np.cumsum(rng.standard_normal(n))
            elif family == 1:
                t = np.linspace(0.0, 1.0, n)
                beat = np.sin(2.0 * np.pi * rng.uniform(1.0, 8.0) * t)
                beat += 0.3 * rng.standard_normal(n)
            elif family == 2:
                beat = rng.uniform(-5.0, 5.0, n)
            else:
                r = int(inner_peaks[rng.integers(len(inner_peaks))])
                beat = ecg.samples[r - 325 : r + 326]
            x = minmax_rescale(paa_downsample(beat))
            assert x.min() == -1.0 and x.max() == 1.0
            angles = to_polar(x)
            summation = gasf(angles)
            difference = gadf(angles)
            assert np.array_equal(summation, summation.T)
            assert np.array_equal(np.diag(difference), np.zeros(len(x)))
            assert np.all(np.abs(summation) <= 1.0)
            assert np.all(np.abs(difference) <= 1.0)
            s = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
            worst_dual = max(
                worst_dual,
                float(np.max(np.abs(summation - (np.outer(x, x) - np.outer(s, s))))),
                float(np.max(np.abs(difference - (np.outer(s, x) - np.outer(x, s))))),
            )
        assert worst_dual <= 1e-12, worst_dual


# --- criterion 3 ------------------------------------------------------------


@pytest.mark.acceptance(3, "wavelet perfect reconstruction")
class TestWaveletReconstruction:
    def test_hundred_random_signals(self):
        rng = np.random.default_rng(31)
        worst = 0.0
        for i in range(100):
            levels = 1 + i % 9
            shortest = max(512, (FILTER_LEN - 1) << levels)
            length = int(rng.integers(shortest, 8193))
            ramp = np.linspace(0.0, 1.0, length)
            signal = rng.standard_normal(length)
            signal += rng.uniform(-2.0, 2.0) + rng.uniform(-3.0, 3.0) * ramp
            rebuilt = dwt_inverse(dwt_forward(signal, levels))
            rel = np.max(np.abs(rebuilt - signal)) / np.max(np.abs(signal))
            worst = max(worst, float(rel))
        assert worst <= 1e-10, worst


# --- criterion 4 ------------------------------------------------------------


def _match_count(truth: np.ndarray, detected: np.ndarray, tolerance: int) -> int:
    """One-to-one pairings between sorted index lists within ``tolerance``."""
    ti = di = hits = 0
    while ti < len(truth) and di < len(detected):
        gap = int(detected[di]) - int(truth[ti])
        if abs(gap) <= tolerance:
            hits += 1
            ti += 1
            di += 1
        elif gap < 0:
            di += 1
        else:
            ti += 1
    return hits


@pytest.mark.acceptance(4, "R-peak detection benchmark")
class TestDetectionBenchmark:
    def test_sensitivity_and_positive_predictivity(self):
        tolerance = 10  # samples, i.e. 10 ms at 1000 Hz
        conditions = (
            ("clean", None, 0.0),
            ("snr10", 10.0, 0.0),
            ("snr10-drift", 10.0, 0.4),
            ("snr20-drift", 20.0, 0.4),
        )
        tp = fn = fp = 0
        seed = 0
        for morphology in ("healthy", "mi"):
            for bpm in (40, 60, 80, 100, 120):
                for _, snr_db, drift_mv in conditions:
                    seed += 1
                    ecg = synth_ecg(
                        30.0,
                        bpm=bpm,
                        morphology=morphology,
                        rr_jitter=0.03,
                        seed=seed,
                    )
                    samples = ecg.samples
                    if snr_db is not None:
                        samples = add_white_noise(samples, snr_db=snr_db, seed=seed)
                    if drift_mv:
                        samples = add_drift(samples, drift_mv, 0.3)
                    record = EcgRecord(
                        subject_id=f"{morphology}-{bpm}",
                        label=None,
                        lead_name="ii",
                        samples=samples,
                        sampling_rate=1000.0,
                    )
                    detected = pan_tompkins(record).indices
                    hits = _match_count(ecg.r_indices, detected, tolerance)
                    tp += hits
                    fn += len(ecg.r_indices) - hits
                    fp += len(detected) - hits
        sensitivity = tp / (tp + fn)
        predictivity = tp / (tp + fp)
        assert sensitivity >= 0.99, (tp, fn, fp)
        assert predictivity >= 0.99, (tp, fn, fp)


# --- criterion 5 ------------------------------------------------------------

PARAM_NAMES = [
    "conv1-weights", "conv1-bias",
    "conv2-weights", "conv2-bias",
    "conv3-weights", "conv3-bias",
    "conv4-weights", "conv4-bias",
    "dense1-weights", "dense1-bias",
    "dense2-weights", "dense2-bias",
]


@pytest.fixture(scope="module")
def problem():
    # ReLU kinks and pooling ties make the loss non-differentiable on a
    # measure-zero set; this seed/data combination stays clear of it.
    model = cnn.model_init(
        seed=3,
        layers=cnn.reduced_layers(),
        input_shape=(16, 16),
        dtype=np.float64,
    )
    images = np.random.default_rng(0).random((3, 16, 16))
    labels = np.array([0, 1, 0])
    _, caches = cnn.forward(model, images, with_caches=True)
    grads = cnn.backward(model, caches, labels)
    return model, images, labels, grads


@pytest.mark.acceptance(5, "finite-difference gradient agreement")
class TestGradientAgreement:
    @pytest.mark.parametrize(
        "index,name", list(enumerate(PARAM_NAMES)), ids=PARAM_NAMES
    )
    def test_parameter_tensor(self, problem, index, name):
        model, images, labels, grads = problem
        eps = 1e-4
        flat = model.params[index].reshape(-1)
        gflat = grads[index].reshape(-1)
        worst = 0.0
        for j in range(flat.size):
            keep = flat[j]
            flat[j] = keep + eps
            up = cnn.loss(cnn.forward(model, images)[0], labels)
            flat[j] = keep - eps
            down = cnn.loss(cnn.forward(model, images)[0], labels)
            flat[j] = keep
            numeric = (up - down) / (2.0 * eps)
            scale = max(abs(numeric), abs(gflat[j]), 1e-8)
            worst = max(worst, abs(numeric - gflat[j]) / scale)
        assert worst < 1e-4, (name, worst)


# --- criterion 6 ------------------------------------------------------------


@pytest.mark.acceptance(6, "activation shape conformance")
class TestShapeConformance:
    EXPECTED = [
        (128, 128, 16),
        (64, 64, 16),
        (63, 63, 32),
        (31, 31, 32),
        (30, 30, 64),
        (15, 15, 64),
        (14, 14, 128),
        (7, 7, 128),
        (100,),
        (2,),
    ]

    def test_planned_shapes(self):
        shapes = cnn.layer_output_shapes(cnn.classifier_layers(), (128, 128))
        assert shapes == self.EXPECTED

    def test_forward_activation_shapes(self):
        model = cnn.model_init(seed=0)
        image = np.random.default_rng(1).random((1, 128, 128))
        probs, caches = cnn.forward(model, image, with_caches=True)
        seen = []
        flatten_width = None
        for entry in caches[:-1]:
            kind = entry[0]
            if kind == "block":
                seen.append(entry[6][1:])  # the conv's (B, ho, wo, cout)
                seen.append(entry[7].shape[1:])  # the pool's winners
            elif kind == "flatten":
                flatten_width = int(np.prod(entry[2][1:]))
            elif kind == "dense":
                seen.append(entry[3].shape[1:])
        assert seen == self.EXPECTED
        assert flatten_width == 6272
        assert probs.shape == (1, 2)


# --- criterion 7 ------------------------------------------------------------


def _beat_image_batch(per_class: int) -> tuple[np.ndarray, np.ndarray]:
    """Encode a few beats of each morphology into grayscale images."""
    images, labels = [], []
    for cls, morphology in enumerate(("healthy", "mi")):
        ecg = synth_ecg(
            12.0, bpm=75.0, morphology=morphology, rr_jitter=0.02, seed=40 + cls
        )
        record = EcgRecord(
            subject_id=morphology,
            label=None,
            lead_name="ii",
            samples=ecg.samples,
            sampling_rate=1000.0,
        )
        peaks = RPeakList(indices=ecg.r_indices, sampling_rate=1000.0)
        beats = segment_beats(record, peaks).beats[:per_class]
        assert len(beats) == per_class
        for beat in beats:
            images.append(encode_series(beat.samples, "gasf"))
            labels.append(cls)
    return np.stack(images), np.array(labels)


def _synthetic_variant(per_class: int) -> DatasetVariant:
    """A balanced in-memory dataset of encoded beats from two long records."""
    items, pixels, labels = [], [], []
    for cls, label in enumerate(("healthy", "mi")):
        ecg = synth_ecg(
            900.0,
            bpm=68.0 + 8.0 * cls,
            morphology=label,
            rr_jitter=0.05,
            seed=100 + cls,
        )
        noisy = add_drift(
            add_white_noise(ecg.samples, snr_db=15.0, seed=200 + cls), 0.2, 0.3
        )
        record = EcgRecord(
            subject_id=f"{label}-long",
            label=Label(label),
            lead_name="ii",
            samples=noisy,
            sampling_rate=1000.0,
        )
        peaks = RPeakList(indices=ecg.r_indices, sampling_rate=1000.0)
        beats = segment_beats(record, peaks).beats
        assert len(beats) >= per_class
        for beat in beats[:per_class]:
            pixels.append(encode_series(beat.samples, "gasf"))
            labels.append(cls)
            items.append(
                DatasetItem(
                    path=f"{label}_r{beat.r_peak_index:07d}_gasf.png",
                    label=label,
                    record_id=record.subject_id,
                    r_peak_index=beat.r_peak_index,
                    kind="gasf",
                    noise_variant="noisy",
                )
            )
    return DatasetVariant(
        variant_id="ds1",
        items=items,
        images=np.stack(pixels),
        labels=np.array(labels),
    )


@pytest.mark.acceptance(7, "learning sanity")
class TestLearningSanity:
    def test_single_batch_overfit(self):
        images, labels = _beat_image_batch(per_class=4)
        model = cnn.model_init(seed=0)
        steps = 0
        while steps < 200:
            probs, caches = cnn.forward(model, images, with_caches=True)
            if cnn.loss(probs, labels) < 0.01:
                break
            grads = cnn.backward(model, caches, labels)
            model = cnn.adam_step(model, grads, lr=0.001)
            steps += 1
        final = cnn.loss(cnn.forward(model, images)[0], labels)
        assert final < 0.01, (steps, final)

    @pytest.mark.slow
    def test_balanced_subset_accuracy(self):
        variant = _synthetic_variant(per_class=1000)
        plan = make_folds(variant, k=5, seed=0, split="beat")
        hyper = Hyperparams(
            learning_rate=0.001, batch_size=8, max_epochs=10, patience=3
        )
        result = train_fold(variant, plan, 0, hyper=hyper, seed=0)
        assert result.epochs_run <= 10
        assert result.metrics.accuracy >= 90.0, result.metrics


# --- criterion 8 ------------------------------------------------------------


def _tree(root):
    return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())


@pytest.mark.acceptance(8, "end-to-end determinism")
class TestEndToEndDeterminism:
    @pytest.mark.slow
    def test_repeat_run_byte_identical(self, pipeline_run, tmp_path):
        first_out, argv = pipeline_run
        second_out = tmp_path / "repeat"
        repeat_argv = list(argv)
        repeat_argv[repeat_argv.index("--out") + 1] = str(second_out)
        assert main(repeat_argv) == 0
        files = _tree(first_out)
        assert files == _tree(second_out)
        assert not [rel for rel in files if rel.suffix == ".tmp"], "a temp file was left"
        for rel in files:
            a = (first_out / rel).read_bytes()
            b = (second_out / rel).read_bytes()
            # config.json included: no stage key holds the output root.
            assert a == b, f"{rel} differs between identically-seeded runs"


# --- criterion 9 ------------------------------------------------------------


def _archive_root() -> str:
    root = os.environ.get("PTB_ROOT")
    if not root:
        pytest.skip("set PTB_ROOT to the archive root to run this check")
    return root


@pytest.mark.acceptance(9, "corpus accounting")
class TestCorpusAccounting:
    def test_toy_reports_itemize_every_record(self, pipeline_run, toy_corpus):
        out, _ = pipeline_run
        _, truth = toy_corpus
        ingest_report = (out / "ingest" / "ingest_report.txt").read_text()
        assert "records: total=6 healthy=3 mi=3 skipped=0" in ingest_report
        assert "subjects: healthy=3 mi=3" in ingest_report
        segment_report = (out / "segment" / "segment_report.txt").read_text()
        assert "reference: healthy=10139 mi=30128 total=40267" in segment_report
        for noise_variant in ("noisy", "clean"):
            assert any(
                line.startswith(f"{noise_variant}: beats healthy=")
                for line in segment_report.splitlines()
            )
            for record_id in truth:
                assert f"{record_id}\t{noise_variant}\t" in segment_report

    @pytest.mark.slow
    def test_archive_subject_counts(self):
        result = scan_dataset(_archive_root(), inferior_only=False)
        subjects = {"healthy": set(), "mi": set()}
        for record_id, label in result.labeled:
            subjects[label.value].add(record_id.split("/")[0])
        assert len(subjects["mi"]) == 148
        assert len(subjects["healthy"]) == 52

    @pytest.mark.slow
    def test_archive_beat_totals_reported(self, tmp_path):
        root = _archive_root()
        out = tmp_path / "archive_out"
        for stage in ("ingest", "preprocess", "segment"):
            code = main([stage, "--dataset-root", root, "--out", str(out)])
            assert code == 0, stage
        report = (out / "segment" / "segment_report.txt").read_text()
        assert "reference: healthy=10139 mi=30128 total=40267" in report
        with open(out / "ingest" / "records.csv", newline="") as fh:
            records = [row["record_id"] for row in csv.DictReader(fh)]
        # Per-record itemization makes any shortfall against the reference
        # totals attributable to specific records.
        for record_id in records:
            assert f"{record_id}\tnoisy\t" in report
            assert f"{record_id}\tclean\t" in report
