"""Fold planning, metric, and training-loop tests."""
import copy
import csv
import shutil

import numpy as np
import pytest

from gafecg import train_eval
from gafecg.cnn import load_checkpoint, reduced_layers
from gafecg.errors import BuildError, InvalidFoldCount, UndefinedMetric
from gafecg.gaf_encode import encode_beats, write_images, write_manifest
from gafecg.qrs_segment import RPeakList, segment_beats
from gafecg.synthetic import synth_ecg
from gafecg.train_eval import (
    LABEL_TO_CLASS,
    NEGATIVE_LABEL,
    POSITIVE_LABEL,
    RESULTS_FIELDS,
    VARIANTS,
    ConfusionCounts,
    DatasetItem,
    DatasetVariant,
    Hyperparams,
    batched_probs,
    compute_metrics,
    confusion,
    evaluate,
    load_variant,
    make_folds,
    read_results_csv,
    summarize,
    train_fold,
    train_run,
    write_curves_csv,
    write_report,
    write_results_csv,
)
from gafecg.wfdb_ingest import EcgRecord, Label

HYPER = Hyperparams(learning_rate=0.003, batch_size=8, max_epochs=6, patience=2)


@pytest.fixture(scope="module")
def encode_dir(tmp_path_factory):
    """A small two-class encode-stage directory (raw + summation field)."""
    out = tmp_path_factory.mktemp("encode") / "ds1"
    beats = []
    for i, (morph, label) in enumerate(
        [("healthy", Label.HEALTHY), ("mi", Label.MI)]
    ):
        ecg = synth_ecg(30.0, bpm=75, morphology=morph, seed=20 + i)
        record = EcgRecord(f"patient{i:03d}/s{i:04d}", label, "ii", ecg.samples, 1000.0)
        result = segment_beats(record, RPeakList(ecg.r_indices, 1000.0))
        beats.extend(result.beats)
    images = encode_beats(beats, "gasf")
    out.mkdir()
    write_manifest(write_images(images, out, noise_variant="noisy"), out)
    return out


@pytest.fixture(scope="module")
def variant(encode_dir):
    return load_variant(encode_dir, "ds1")


@pytest.fixture(scope="module")
def trained(variant, tmp_path_factory):
    out = tmp_path_factory.mktemp("fold0")
    plan = make_folds(variant, k=3, seed=1)
    result = train_fold(
        variant, plan, 0, hyper=HYPER, seed=1, out_dir=out, layers=reduced_layers()
    )
    return variant, plan, result


class TestVariantTable:
    def test_mapping(self):
        assert VARIANTS == {
            "ds1": ("noisy", "gasf"),
            "ds2": ("noisy", "gadf"),
            "ds3": ("clean", "gasf"),
            "ds4": ("clean", "gadf"),
        }

    def test_class_encoding(self):
        assert POSITIVE_LABEL == "mi"
        assert NEGATIVE_LABEL == "healthy"
        assert LABEL_TO_CLASS == {"healthy": 0, "mi": 1}


class TestLoadVariant:
    def test_contents(self, variant):
        n = len(variant.items)
        assert n > 40
        assert variant.images.shape == (n, 128, 128)
        assert variant.images.dtype == np.uint8
        assert set(variant.labels.tolist()) == {0, 1}
        assert variant.noise_variant == "noisy"
        assert variant.kind == "gasf"

    def test_labels_follow_manifest(self, variant):
        for item, cls in zip(variant.items, variant.labels):
            assert LABEL_TO_CLASS[item.label] == cls

    def test_unknown_variant_rejected(self, encode_dir):
        with pytest.raises(BuildError, match="unknown variant"):
            load_variant(encode_dir, "ds9")

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(BuildError, match="manifest"):
            load_variant(tmp_path, "ds1")

    def test_bad_columns_rejected(self, tmp_path):
        (tmp_path / "manifest.csv").write_text("path,label\nx.png,mi\n")
        with pytest.raises(BuildError, match="columns"):
            load_variant(tmp_path, "ds1")

    def test_missing_image_file_rejected(self, encode_dir, tmp_path):
        clone = tmp_path / "clone"
        shutil.copytree(encode_dir, clone)
        victim = next(p for p in sorted(clone.glob("*.png")))
        victim.unlink()
        with pytest.raises(BuildError, match=victim.name):
            load_variant(clone, "ds1")

    def test_wrong_kind_for_variant_rejected(self, encode_dir):
        # The directory holds summation-field images only.
        with pytest.raises(BuildError, match="no items"):
            load_variant(encode_dir, "ds2")

    def test_unknown_label_rejected(self, encode_dir, tmp_path):
        clone = tmp_path / "clone"
        shutil.copytree(encode_dir, clone)
        manifest = clone / "manifest.csv"
        text = manifest.read_text().replace("healthy", "unsure", 1)
        manifest.write_text(text)
        with pytest.raises(BuildError, match="unsure"):
            load_variant(clone, "ds1")

    def test_single_class_rejected(self, encode_dir, tmp_path):
        clone = tmp_path / "clone"
        shutil.copytree(encode_dir, clone)
        manifest = clone / "manifest.csv"
        with open(manifest, newline="") as fh:
            rows = list(csv.DictReader(fh))
        kept = [r for r in rows if r["label"] == "mi"]
        with open(manifest, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(kept)
        with pytest.raises(BuildError, match="healthy"):
            load_variant(clone, "ds1")


class TestMakeFolds:
    def test_every_item_assigned_once(self, variant):
        plan = make_folds(variant, k=5, seed=0)
        assert len(plan.assignments) == len(variant.items)
        assert set(plan.assignments.tolist()) == set(range(5))

    def test_fold_sizes_balanced(self, variant):
        plan = make_folds(variant, k=5, seed=0)
        sizes = np.bincount(plan.assignments, minlength=5)
        assert sizes.max() - sizes.min() <= 1

    def test_seed_reproducible(self, variant):
        a = make_folds(variant, k=4, seed=9)
        b = make_folds(variant, k=4, seed=9)
        np.testing.assert_array_equal(a.assignments, b.assignments)

    def test_seed_changes_assignment(self, variant):
        a = make_folds(variant, k=4, seed=9)
        b = make_folds(variant, k=4, seed=10)
        assert not np.array_equal(a.assignments, b.assignments)

    def test_patient_split_keeps_records_whole(self, variant):
        plan = make_folds(variant, k=2, seed=0, split="patient")
        folds_per_record = {}
        for item, fold in zip(variant.items, plan.assignments):
            folds_per_record.setdefault(item.record_id, set()).add(int(fold))
        assert all(len(folds) == 1 for folds in folds_per_record.values())

    def test_patient_split_needs_enough_records(self, variant):
        message = r"3 folds for 2 subjects \(2 records\)"
        with pytest.raises(InvalidFoldCount, match=message):
            make_folds(variant, k=3, seed=0, split="patient")

    @pytest.mark.parametrize("seed", range(5))
    def test_patient_split_keeps_subjects_whole(self, seed):
        # Six subjects with two records each, as PTB subjects have several.
        record_ids = [f"patient{i // 4:03d}/s{i // 2:04d}" for i in range(24)]
        items = [
            DatasetItem(f"{i}.png", "mi", rid, 0, "gasf", "noisy")
            for i, rid in enumerate(record_ids)
        ]
        images = np.zeros((24, 2, 2), dtype=np.uint8)
        variant = DatasetVariant("ds1", "noisy", "gasf", items, images, np.ones(24))
        plan = make_folds(variant, k=4, seed=seed, split="patient")
        folds_per_subject = {}
        for rid, fold in zip(record_ids, plan.assignments):
            folds_per_subject.setdefault(rid.split("/")[0], set()).add(int(fold))
        assert len(folds_per_subject) == 6
        assert all(len(folds) == 1 for folds in folds_per_subject.values())
        assert set(plan.assignments.tolist()) == set(range(4))

    def test_too_many_folds_rejected(self, variant):
        with pytest.raises(InvalidFoldCount):
            make_folds(variant, k=len(variant.items) + 1, seed=0)

    def test_too_few_folds_rejected(self, variant):
        with pytest.raises(InvalidFoldCount, match="at least 2"):
            make_folds(variant, k=1, seed=0)

    def test_unknown_split_rejected(self, variant):
        with pytest.raises(InvalidFoldCount, match="split"):
            make_folds(variant, k=2, seed=0, split="episode")


class TestConfusionAndMetrics:
    def test_confusion_oracle(self):
        labels = np.array([1, 1, 1, 1, 1, 0, 0, 0, 0, 0])
        predicted = np.array([1, 1, 1, 0, 0, 0, 0, 0, 0, 1])
        counts = confusion(labels, predicted)
        assert (counts.tp, counts.tn, counts.fp, counts.fn) == (3, 4, 1, 2)
        assert counts.total == 10

    def test_metrics_oracle(self):
        metrics = compute_metrics(ConfusionCounts(tp=3, tn=4, fp=1, fn=2))
        assert metrics.accuracy == 70.0
        assert metrics.sensitivity == 60.0
        assert metrics.specificity == 80.0

    def test_metrics_keep_full_precision(self):
        metrics = compute_metrics(ConfusionCounts(tp=7530, tn=2505, fp=19, fn=13))
        assert metrics.specificity == 100.0 * 2505 / 2524
        assert metrics.sensitivity == 100.0 * 7530 / 7543
        assert metrics.accuracy == 100.0 * 10035 / 10067

    def test_perfect_scores(self):
        metrics = compute_metrics(ConfusionCounts(tp=5, tn=5, fp=0, fn=0))
        assert (metrics.accuracy, metrics.sensitivity, metrics.specificity) == (
            100.0,
            100.0,
            100.0,
        )

    def test_undefined_cases(self):
        with pytest.raises(UndefinedMetric, match="accuracy"):
            compute_metrics(ConfusionCounts(0, 0, 0, 0))
        with pytest.raises(UndefinedMetric, match="sensitivity"):
            compute_metrics(ConfusionCounts(tp=0, tn=5, fp=1, fn=0))
        with pytest.raises(UndefinedMetric, match="specificity"):
            compute_metrics(ConfusionCounts(tp=5, tn=0, fp=0, fn=1))


class TestTrainFold:
    def test_result_consistency(self, trained):
        variant, plan, result = trained
        fold_size = int(np.sum(plan.assignments == 0))
        assert result.counts.total == fold_size
        metrics = compute_metrics(result.counts)
        assert result.metrics == metrics
        assert result.epochs_run == len(result.curve)
        assert 1 <= result.epochs_run <= HYPER.max_epochs

    def test_learns_the_two_classes(self, trained):
        _, _, result = trained
        assert result.metrics.accuracy >= 90.0

    def test_early_stop_restores_best_validation_state(self, trained):
        variant, plan, result = trained
        if result.epochs_run < HYPER.max_epochs:
            # Stopped early: the last `patience` epochs did not improve.
            losses = [e.val_loss for e in result.curve]
            best = min(losses)
            assert all(v >= best for v in losses[-HYPER.patience :])

    def test_checkpoint_reproduces_test_scores(self, trained):
        variant, plan, result = trained
        model = load_checkpoint(
            result.checkpoint_path,
            expected_layers=reduced_layers(),
            expected_input_shape=(128, 128),
        )
        test_idx = np.nonzero(plan.assignments == 0)[0]
        probs = batched_probs(model, variant.images[test_idx], HYPER.batch_size)
        counts = confusion(variant.labels[test_idx], np.argmax(probs, axis=1))
        assert counts == result.counts
        scored = evaluate(
            model, variant.images[test_idx], variant.labels[test_idx], HYPER.batch_size
        )
        assert scored == (result.counts, result.metrics)

    def test_checkpoint_holds_the_best_epoch_state(
        self, variant, tmp_path, monkeypatch
    ):
        # Epoch 1 has the lowest validation loss; epochs 2 and 3 still update
        # the parameters and moments in place before the checkpoint is saved.
        seen = []

        def fake_eval_split(model, images, labels, batch):
            seen.append(copy.deepcopy(model))
            return (0.5 if len(seen) == 1 else 1.0), 0.5

        monkeypatch.setattr(train_eval, "_eval_split", fake_eval_split)
        plan = make_folds(variant, k=3, seed=1)
        hyper = Hyperparams(learning_rate=0.003, batch_size=8, max_epochs=3, patience=3)
        result = train_fold(
            variant, plan, 0, hyper=hyper, seed=1, out_dir=tmp_path,
            layers=reduced_layers(),
        )
        assert result.epochs_run == 3
        best, last = seen[0], seen[-1]
        assert last.adam.step > best.adam.step
        saved = load_checkpoint(result.checkpoint_path)
        assert saved.adam.step == best.adam.step
        for group, best_group in (
            (saved.params, best.params),
            (saved.adam.m, best.adam.m),
            (saved.adam.v, best.adam.v),
        ):
            assert [t.tobytes() for t in group] == [t.tobytes() for t in best_group]

    def test_deterministic_re_run(self, trained):
        variant, plan, result = trained
        again = train_fold(
            variant, plan, 0, hyper=HYPER, seed=1, layers=reduced_layers()
        )
        assert again.counts == result.counts
        assert [e.val_loss for e in again.curve] == [e.val_loss for e in result.curve]

    def test_fold_out_of_range_rejected(self, trained):
        variant, plan, _ = trained
        with pytest.raises(InvalidFoldCount, match="fold"):
            train_fold(variant, plan, 3, hyper=HYPER, layers=reduced_layers())


@pytest.fixture(scope="module")
def run(variant, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    plan = make_folds(variant, k=3, seed=2)
    results = train_run(
        variant, plan, hyper=HYPER, seed=2, out_dir=out, layers=reduced_layers()
    )
    return out, plan, results


class TestRunAndReports:
    def test_covers_every_fold(self, run, variant):
        _, plan, results = run
        assert [r.fold for r in results] == [0, 1, 2]
        assert sum(r.counts.total for r in results) == len(variant.items)

    def test_checkpoints_written_per_fold(self, run):
        out, _, results = run
        for r in results:
            assert r.checkpoint_path is not None and r.checkpoint_path.is_file()
        assert sorted(p.name for p in out.glob("*.ckpt")) == [
            "ds1_fold00.ckpt",
            "ds1_fold01.ckpt",
            "ds1_fold02.ckpt",
        ]

    def test_results_csv_format(self, run, tmp_path):
        _, _, results = run
        path = tmp_path / "results.csv"
        write_results_csv(results, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0].keys()) == RESULTS_FIELDS
        assert len(rows) == 3
        for row, r in zip(rows, results):
            assert int(row["fold"]) == r.fold
            assert row["variant"] == "ds1"
            assert row["acc"] == f"{r.metrics.accuracy:.2f}"
            counts = ConfusionCounts(
                tp=int(row["tp"]), tn=int(row["tn"]), fp=int(row["fp"]), fn=int(row["fn"])
            )
            assert counts == r.counts

    def test_results_csv_round_trip(self, run, tmp_path):
        _, _, results = run
        path = tmp_path / "results.csv"
        write_results_csv(results, path)
        back = read_results_csv(path)
        assert [(r.fold, r.variant_id, r.epochs_run) for r in back] == [
            (r.fold, r.variant_id, r.epochs_run) for r in results
        ]
        assert [(r.counts, r.metrics) for r in back] == [
            (r.counts, r.metrics) for r in results
        ]

    @pytest.mark.parametrize(
        "header, row",
        [
            ("fold,variant,tp,tn,fp,fn,acc,sen,spe", "0,ds1,3,4,0,1,87.50,75.00,100.00"),
            (",".join(RESULTS_FIELDS), "0,ds1,3,4,0,x,87.50,75.00,100.00,2"),
            (",".join(RESULTS_FIELDS), "0,ds1,3,4"),
        ],
        ids=["header", "count", "short-row"],
    )
    def test_read_results_rejects_malformed_file(self, tmp_path, header, row):
        path = tmp_path / "results.csv"
        path.write_text(f"{header}\n{row}\n")
        with pytest.raises(BuildError, match="results.csv"):
            read_results_csv(path)

    def test_curves_csv_format(self, run, tmp_path):
        _, _, results = run
        path = tmp_path / "curves.csv"
        write_curves_csv(results, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == sum(r.epochs_run for r in results)
        assert rows[0]["fold"] == "0" and rows[0]["epoch"] == "1"
        float(rows[0]["train_loss"])  # 6-decimal fixed-point strings
        assert "." in rows[0]["val_acc"]

    def test_summary_statistics(self, run):
        _, _, results = run
        stats = summarize(results)
        accs = np.array([r.metrics.accuracy for r in results])
        mean, std = stats["accuracy"]
        assert np.isclose(mean, accs.mean(), atol=1e-12)
        assert np.isclose(std, accs.std(), atol=1e-12)  # population std
        assert set(stats) == {"accuracy", "sensitivity", "specificity"}

    def test_report_text(self, run, tmp_path):
        _, _, results = run
        path = tmp_path / "report.txt"
        write_report(results, path, seed=2, split="beat")
        text = path.read_text()
        assert "variant: ds1" in text
        assert "folds: 3" in text
        assert "seed: 2" in text
        assert "split: beat" in text
        assert "accuracy: mean=" in text
        assert len([l for l in text.splitlines() if l[:4].strip().isdigit()]) == 3


class TestBlasPin:
    def test_names_the_library(self):
        name = train_eval.pin_blas_threads(1)
        assert name == "unpinned" or name.startswith("OpenBLAS "), name

    def test_unknown_blas_warns_and_is_unpinned(self, monkeypatch):
        monkeypatch.setattr(train_eval, "_blas", lambda: None)
        with pytest.warns(RuntimeWarning, match="unknown BLAS"):
            assert train_eval.pin_blas_threads(1) == "unpinned"

    def test_train_run_workers_run_blas_on_one_thread(self, variant, tmp_path):
        plan = make_folds(variant, k=3, seed=2)
        hyper = Hyperparams(learning_rate=0.003, batch_size=8, max_epochs=2, patience=2)
        checkpoints = {}
        for threads in (2, 1):
            library = train_eval.pin_blas_threads(threads)
            out = tmp_path / str(threads)
            train_run(variant, plan, hyper=hyper, seed=2, out_dir=out)
            checkpoints[threads] = [p.read_bytes() for p in sorted(out.glob("*.ckpt"))]
        assert len(checkpoints[1]) == 3
        assert checkpoints[1] == checkpoints[2], f"{library}: checkpoints differ"
