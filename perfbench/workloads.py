"""The three workloads: `train`, `frontend` and `screen`.

Each workload sets up in a directory of its own, then runs whole rounds of
its timed operation. The first round's outputs are checked against
``checks``; every later round must reproduce them byte for byte. Checks run
outside the timed region and with tracing off.
"""
from __future__ import annotations

import contextlib
import io
import shutil
import statistics
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

import archive
import checks
from checks import require
from spans import CLI_STAGES, Tracer, classify_forward, one, sized

from gafecg import cli, cnn, gaf_encode, qrs_segment, signal_prep, train_eval, wfdb_ingest

FOLDS = 10
BATCH = 8
EPOCHS = 2  # patience is set to the same value, so no fold stops early
SCREEN_EPOCHS = 3  # the screening model trains on one fold in set-up
# Mean held-out accuracy floors, in percent; chance is about 50. At two
# epochs about one fold in fifteen has not yet learned, hence the lower floor.
MIN_TRAIN_ACCURACY = Fraction(75)
MIN_SCREEN_ACCURACY = Fraction(90)
SAMPLED_IMAGES = 20  # per variant, compared pixel by pixel with the reference
FRONTEND_STAGES = CLI_STAGES[:4]


def run_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def front_end(dataset: Path, out: Path, variant: str) -> None:
    for stage in FRONTEND_STAGES:
        code = run_cli([stage, "--dataset-root", dataset, "--out", out, "--variant", variant])
        require(code == 0, f"gafecg {stage} exited {code}")


def item_labels(manifest_rows: list[dict], subjects) -> np.ndarray:
    """Generated class (0 healthy, 1 infarction) of every manifest row."""
    label = {s.record_id: s.label for s in subjects}
    for row in manifest_rows:
        require(row["label"] == label[row["record_id"]], f"{row['path']}: wrong label")
    return np.array([label[row["record_id"]] == "mi" for row in manifest_rows], dtype=np.int64)


def fold_seed(labels: np.ndarray, seed: int) -> int:
    """The first fold seed from ``seed`` on whose beat split every held-out
    fold holds both classes. A single-class fold aborts the program's
    training run (the metric is undefined), which no workload includes."""
    s = seed
    while True:
        folds = checks.deal_folds(len(labels), FOLDS, s)
        if all(0 < labels[folds == f].sum() < (folds == f).sum() for f in range(FOLDS)):
            return s
        s += 1


def train_size(n_items: int, held_out: int) -> int:
    pool = n_items - held_out
    return pool - max(1, int(round(0.2 * pool)))


def hyper_args(seed: int) -> list:
    return [
        "--variant", "ds4", "--split", "beat", "--seed", seed, "--batch", BATCH,
        "--epochs", EPOCHS, "--patience", EPOCHS,
    ]


class Workload:
    """Set-up, whole rounds of the timed operation, and the end-to-end metrics."""

    boundaries: list = []

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir
        self.seed = seed
        self.rounds = 0
        self.first: object = None

    def install(self, tracer: Tracer) -> None:
        for module, attr, classify in self.boundaries:
            tracer.wrap(module, attr, classify)


# --- train ----------------------------------------------------------------------


class Train(Workload):
    """`gafecg train` then `gafecg eval` on a ds4 archive; an operation is one
    fold trained and re-scored."""

    boundaries = [
        (cli, "stage_train", one("cli.train")),
        (cli, "stage_eval", one("cli.eval")),
        (train_eval, "load_variant", one("train_eval.load_variant")),
        (train_eval, "read_gray_png", one("png_io.read")),
        (train_eval, "train_fold", one("train_eval.fold")),
        (train_eval, "batched_probs", sized("train_eval.score", 1)),
        (cnn, "forward", classify_forward),
        (cnn, "backward", sized("cnn.backward", 2)),
        (cnn, "adam_step", one("cnn.adam")),
        (cnn, "save_checkpoint", one("cnn.save_checkpoint")),
        (cnn, "load_checkpoint", one("cnn.load_checkpoint")),
    ]
    ops_per_round = FOLDS

    def setup(self, directory: Path) -> None:
        self.subjects = archive.write_archive(directory / "archive", archive.TRAIN, self.seed)
        self.out = directory / "out"
        front_end(directory / "archive", self.out, "ds4")
        self.encode_dir = self.out / "encode" / "ds4"
        self.manifest = checks.read_csv(self.encode_dir / "manifest.csv")
        self.labels = item_labels(self.manifest, self.subjects)
        self.fold_seed = fold_seed(self.labels, self.seed)
        self.folds = checks.deal_folds(len(self.labels), FOLDS, self.fold_seed)
        sizes = [(self.encode_dir / r["path"]).stat().st_size for r in self.manifest]
        self.png_bytes = float(np.mean(sizes))
        self.train_s: list[float] = []
        self.fold_ms: list[float] = []

    def run_round(self, tracer: Tracer) -> None:
        args = ["--out", self.out, *hyper_args(self.fold_seed), "--force"]
        with tracer.active():
            t0 = time.perf_counter()
            trained = run_cli(["train", *args])
            t1 = time.perf_counter()
            # eval exits 1 unless the re-scored checkpoints reproduce results.csv
            rescored = run_cli(["eval", *args])
            t2 = time.perf_counter()
        require(trained == 0 and rescored == 0, f"train/eval exited {trained}/{rescored}")
        self.train_s.append(t1 - t0)
        self.fold_ms.append(1000.0 * (t2 - t0) / FOLDS)
        train_dir = self.out / "train" / "ds4"
        outputs = checks.digest([train_dir / "results.csv", *train_dir.glob("*.ckpt")])
        if self.first is None:
            self.check(train_dir)
            self.first = outputs
        require(outputs == self.first, "a repeat wrote different results.csv or checkpoints")

    def check(self, train_dir: Path) -> None:
        rows = checks.read_csv(train_dir / "results.csv")
        require([int(r["fold"]) for r in rows] == list(range(FOLDS)), "results.csv folds")
        images = np.stack(
            [checks.read_png((self.encode_dir / r["path"]).read_bytes()) for r in self.manifest]
        )
        correct = 0
        for row in rows:
            fold = int(row["fold"])
            require(int(row["epochs_run"]) == EPOCHS, f"fold {fold}: epochs_run")
            held_out = np.nonzero(self.folds == fold)[0]
            checks.check_fold_row(row, self.labels[held_out])
            path = train_dir / f"ds4_fold{fold:02d}.ckpt"
            reference = checks.reference_probs(path.read_bytes(), images[held_out])
            model = cnn.load_checkpoint(path)
            probs = train_eval.batched_probs(model, images[held_out], BATCH)
            checks.check_probs(probs, reference, f"fold {fold}")
            decided = reference.argmax(axis=1)
            truth = self.labels[held_out]
            require(
                int(row["tp"]) == int(((decided == 1) & (truth == 1)).sum())
                and int(row["tn"]) == int(((decided == 0) & (truth == 0)).sum()),
                f"fold {fold}: counts differ from the reference decisions",
            )
            correct += int((decided == truth).sum())
        accuracy = Fraction(100 * correct, len(self.labels))
        require(accuracy >= MIN_TRAIN_ACCURACY, f"held-out accuracy {float(accuracy):.1f}%")

    def end_to_end(self) -> dict:
        n = len(self.labels)
        trained = sum(EPOCHS * train_size(n, int((self.folds == f).sum())) for f in range(FOLDS))
        return {
            "throughput_per_s": statistics.median(trained / t for t in self.train_s),
            "latency_ms": statistics.median(self.fold_ms),
        }

    def extras(self) -> dict:
        return {"png_io.bytes_per_image": self.png_bytes}


# --- frontend -------------------------------------------------------------------


class Frontend(Workload):
    """`gafecg ingest`, `preprocess`, `segment` and `encode --variant all` of
    PTB-length records into a fresh output root; an operation is one record."""

    boundaries = [
        *[(cli, f"stage_{s}", one(f"cli.{s}")) for s in FRONTEND_STAGES],
        (cli, "scan_dataset", one("wfdb_ingest.scan")),
        (cli, "load_record", one("wfdb_ingest.load")),
        (cli, "denoise", one("signal_prep.denoise")),
        (cli, "pan_tompkins", one("qrs_segment.detect")),
        (cli, "segment_beats", one("qrs_segment.segment")),
        (cli, "encode_beats", sized("gaf_encode.encode", 0)),
        (cli, "write_images", sized("gaf_encode.write", 0)),
        (gaf_encode, "write_gray_png", one("png_io.write")),
    ]

    def setup(self, directory: Path) -> None:
        self.dataset = directory / "archive"
        self.subjects = archive.write_archive(self.dataset, archive.FRONTEND, self.seed)
        self.ops_per_round = len(self.subjects)
        self.wall_s: list[float] = []
        self.images = 0

    def run_round(self, tracer: Tracer) -> None:
        # Deleting the last round's outputs here keeps what a run leaves to
        # delete at exit, and so the file-system work it hands to the next
        # run, to one round.
        out = self.workdir / "frontend-out"
        shutil.rmtree(out, ignore_errors=True)
        with tracer.active():
            t0 = time.perf_counter()
            front_end(self.dataset, out, "all")
            t1 = time.perf_counter()
        self.wall_s.append(t1 - t0)
        pngs = list(out.glob("encode/*/*.png"))
        self.images = len(pngs)
        outputs = checks.digest([p for p in out.rglob("*") if p.is_file()])
        if self.first is None:
            self.check(out)
            self.first = outputs
            self.png_bytes = float(np.mean([p.stat().st_size for p in pngs]))
        require(outputs == self.first, "a repeat wrote different front-end outputs")

    def check(self, out: Path) -> None:
        records = checks.read_csv(out / "ingest" / "records.csv")
        checks.check_records([(r["record_id"], r["label"]) for r in records], self.subjects)
        signals = {}
        for row in checks.read_csv(out / "preprocess" / "signals.csv"):
            signals[row["record_id"], row["noise_variant"]] = np.load(out / "preprocess" / row["path"])
        for s in self.subjects:
            raw = signals[s.record_id, "noisy"]
            clean = signals[s.record_id, "clean"]
            checks.check_drift_removed(raw, clean, s.drift_hz, archive.FS, s.record_id)
        for noise in ("noisy", "clean"):
            beats = checks.read_csv(out / "segment" / f"beats_{noise}.csv")
            for s in self.subjects:
                mine = [r for r in beats if r["record_id"] == s.record_id]
                require(all(r["label"] == s.label for r in mine), f"{s.record_id}: beat labels")
                checks.check_peaks(
                    [int(r["r_peak_index"]) for r in mine], s.r_indices, s.n_samples,
                    f"{s.record_id} ({noise})",
                )
        for variant, (noise, kind) in train_eval.VARIANTS.items():
            directory = out / "encode" / variant
            rows = checks.read_csv(directory / "manifest.csv")
            checks.check_manifest(directory, rows, kind, noise)
            item_labels(rows, self.subjects)
            sampled = set(np.linspace(0, len(rows) - 1, SAMPLED_IMAGES).astype(int))
            for i, row in enumerate(rows):
                if i not in sampled and kind == "gadf":
                    continue
                pixels = checks.read_png((directory / row["path"]).read_bytes())
                if i in sampled:
                    signal = signals[row["record_id"], noise]
                    checks.check_field(pixels, signal, int(row["r_peak_index"]), kind, row["path"])
                else:
                    require(np.array_equal(pixels, pixels.T), f"{row['path']}: GASF not symmetric")

    def end_to_end(self) -> dict:
        return {
            "throughput_per_s": statistics.median(self.ops_per_round / t for t in self.wall_s),
            "latency_ms": statistics.median(1000.0 * t / self.images for t in self.wall_s),
        }

    def extras(self) -> dict:
        return {"png_io.bytes_per_image": self.png_bytes}


# --- screen ---------------------------------------------------------------------


class Screen(Workload):
    """Held-out records screened in memory, one beat at a time, with a ds4
    model trained in set-up; an operation is one beat decided."""

    boundaries = [
        (wfdb_ingest, "load_record", one("wfdb_ingest.load")),
        (signal_prep, "denoise", one("signal_prep.denoise")),
        (qrs_segment, "pan_tompkins", one("qrs_segment.detect")),
        (qrs_segment, "segment_beats", one("qrs_segment.segment")),
        (gaf_encode, "encode_series", one("gaf_encode.encode")),
        (cnn, "forward", classify_forward),
    ]

    def setup(self, directory: Path) -> None:
        subjects = archive.write_archive(directory / "train-archive", archive.TRAIN, self.seed)
        out = directory / "out"
        front_end(directory / "train-archive", out, "ds4")
        variant = train_eval.load_variant(out / "encode" / "ds4", "ds4")
        labels = item_labels(checks.read_csv(out / "encode" / "ds4" / "manifest.csv"), subjects)
        seed = fold_seed(labels, self.seed)
        plan = train_eval.make_folds(variant, k=FOLDS, seed=seed, split="beat")
        hyper = train_eval.Hyperparams(
            batch_size=BATCH, max_epochs=SCREEN_EPOCHS, patience=SCREEN_EPOCHS
        )
        result = train_eval.train_fold(variant, plan, 0, hyper=hyper, seed=seed, out_dir=directory)
        self.checkpoint = result.checkpoint_path.read_bytes()
        self.model = cnn.load_checkpoint(result.checkpoint_path)
        self.dataset = directory / "screen-archive"
        self.subjects = archive.write_archive(self.dataset, archive.SCREEN, self.seed)
        self.beat_ms: list[float] = []
        self.beats_per_s: list[float] = []

    def run_round(self, tracer: Tracer) -> None:
        peaks, decisions, images = [], [], []
        busy = 0.0
        with tracer.active():
            for s in self.subjects:
                t0 = time.perf_counter()
                record = wfdb_ingest.load_record(self.dataset, s.record_id)
                clean = signal_prep.denoise(record)
                found = qrs_segment.pan_tompkins(clean)
                beats = qrs_segment.segment_beats(clean, found).beats
                for beat in beats:
                    b0 = time.perf_counter()
                    image = gaf_encode.encode_series(beat.samples, "gadf")
                    decision = cnn.predict(self.model, image).label
                    self.beat_ms.append(1000.0 * (time.perf_counter() - b0))
                    decisions.append(decision)
                    images.append(image)
                busy += time.perf_counter() - t0
                peaks.append([b.r_peak_index for b in beats])
        self.ops_per_round = len(decisions)
        self.beats_per_s.append(len(decisions) / busy)
        outputs = (peaks, decisions)
        if self.first is None:
            self.check(peaks, decisions, np.stack(images))
            self.first = outputs
        require(outputs == self.first, "a repeat found other beats or decisions")

    def check(self, peaks, decisions, images) -> None:
        truth = []
        for s, found in zip(self.subjects, peaks):
            checks.check_peaks(found, s.r_indices, s.n_samples, s.record_id)
            truth += [int(s.label == "mi")] * len(found)
        reference = checks.reference_probs(self.checkpoint, images)
        checks.check_decisions(decisions, reference, "screen")
        hits = int((np.asarray(decisions) == np.array(truth)).sum())
        accuracy = Fraction(100 * hits, len(truth))
        require(accuracy >= MIN_SCREEN_ACCURACY, f"screening accuracy {float(accuracy):.1f}%")

    def end_to_end(self) -> dict:
        return {
            "throughput_per_s": statistics.median(self.beats_per_s),
            "latency_ms": statistics.median(self.beat_ms),
        }

    def extras(self) -> dict:
        return {}


WORKLOADS = {"train": Train, "frontend": Frontend, "screen": Screen}
