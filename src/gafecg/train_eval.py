"""K-fold training and evaluation of the beat-image classifier.

Four dataset variants pair a noise condition with a field kind: ds1 =
raw + summation, ds2 = raw + difference, ds3 = denoised + summation,
ds4 = denoised + difference. Items are split into k folds (shuffled
round-robin over beats, or over subjects to keep a subject inside one
fold); each fold's remainder is split 80/20 into train/validation, the
network trains with Adam and early stopping on validation loss, and the
best-validation model is scored on the held-out fold.

The infarction class is positive: sensitivity counts infarction beats
recovered, specificity counts healthy beats recovered.
"""
from __future__ import annotations

import copy
import csv
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import cnn
from .errors import BuildError, InvalidFoldCount, UndefinedMetric
from .gaf_encode import MANIFEST_FIELDS
from .png_io import read_gray_png

logger = logging.getLogger(__name__)

POSITIVE_LABEL = "mi"
NEGATIVE_LABEL = "healthy"
LABEL_TO_CLASS = {NEGATIVE_LABEL: 0, POSITIVE_LABEL: 1}

# variant id -> (noise condition, field kind)
VARIANTS: dict[str, tuple[str, str]] = {
    "ds1": ("noisy", "gasf"),
    "ds2": ("noisy", "gadf"),
    "ds3": ("clean", "gasf"),
    "ds4": ("clean", "gadf"),
}

RESULTS_FIELDS = [
    "fold", "variant", "tp", "tn", "fp", "fn", "acc", "sen", "spe", "epochs_run",
]
CURVES_FIELDS = ["fold", "epoch", "train_loss", "val_loss", "train_acc", "val_acc"]


@dataclass(frozen=True)
class Hyperparams:
    learning_rate: float = 0.001
    batch_size: int = 8
    max_epochs: int = 50
    patience: int = 5


@dataclass
class DatasetItem:
    path: str
    label: str
    record_id: str
    r_peak_index: int
    kind: str
    noise_variant: str


@dataclass
class DatasetVariant:
    variant_id: str
    noise_variant: str
    kind: str
    items: list[DatasetItem]
    images: np.ndarray  # (N, H, W) uint8
    labels: np.ndarray  # (N,) int, LABEL_TO_CLASS values


@dataclass
class FoldPlan:
    k: int
    assignments: np.ndarray  # item index -> fold number
    split: str  # "beat" | "patient"
    seed: int


@dataclass
class ConfusionCounts:
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass
class Metrics:
    accuracy: float
    sensitivity: float
    specificity: float


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    train_acc: float
    val_acc: float


@dataclass
class FoldResult:
    fold: int
    variant_id: str
    counts: ConfusionCounts
    metrics: Metrics
    epochs_run: int
    curve: list[EpochStats] = field(default_factory=list)
    checkpoint_path: Path | None = None


def load_variant(encode_dir: str | Path, variant_id: str) -> DatasetVariant:
    """Assemble one dataset variant from an encode-stage output directory."""
    if variant_id not in VARIANTS:
        raise BuildError(f"unknown variant {variant_id!r}; expected {list(VARIANTS)}")
    noise_variant, kind = VARIANTS[variant_id]
    encode_dir = Path(encode_dir)
    manifest = encode_dir / "manifest.csv"
    if not manifest.is_file():
        raise BuildError(f"missing manifest {manifest}")
    items: list[DatasetItem] = []
    with open(manifest, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != MANIFEST_FIELDS:
            raise BuildError(
                f"{manifest}: bad columns {reader.fieldnames}, expected {MANIFEST_FIELDS}"
            )
        for row in reader:
            items.append(
                DatasetItem(
                    path=row["path"],
                    label=row["label"],
                    record_id=row["record_id"],
                    r_peak_index=int(row["r_peak_index"]),
                    kind=row["kind"],
                    noise_variant=row["noise_variant"],
                )
            )
    items = [
        it for it in items if it.kind == kind and it.noise_variant == noise_variant
    ]
    if not items:
        raise BuildError(
            f"{manifest}: no items for kind={kind!r}, noise={noise_variant!r}"
        )
    missing = [it.path for it in items if not (encode_dir / it.path).is_file()]
    if missing:
        shown = ", ".join(missing[:5])
        raise BuildError(
            f"{len(missing)} image files missing under {encode_dir}: {shown}"
        )
    bad_labels = sorted({it.label for it in items} - set(LABEL_TO_CLASS))
    if bad_labels:
        raise BuildError(f"unknown labels in manifest: {bad_labels}")
    labels = np.array([LABEL_TO_CLASS[it.label] for it in items], dtype=np.int64)
    for name, cls in LABEL_TO_CLASS.items():
        if not np.any(labels == cls):
            raise BuildError(f"variant {variant_id}: no {name!r} items")
    images = [read_gray_png(encode_dir / it.path) for it in items]
    for it, image in zip(items, images):
        if image.shape != images[0].shape:
            (h, w), (h0, w0) = image.shape, images[0].shape
            raise BuildError(
                f"{encode_dir / it.path}: image is {h}x{w}, "
                f"but {encode_dir / items[0].path} is {h0}x{w0}"
            )
    images = np.stack(images)
    return DatasetVariant(
        variant_id=variant_id,
        noise_variant=noise_variant,
        kind=kind,
        items=items,
        images=images,
        labels=labels,
    )


def make_folds(
    variant: DatasetVariant, k: int = 10, seed: int = 0, split: str = "beat"
) -> FoldPlan:
    """Assign every item to exactly one of ``k`` folds.

    "beat" shuffles items and deals them round-robin. "patient" deals whole
    subjects (the part of the record id before "/"), so no subject
    contributes to more than one fold.
    """
    n = len(variant.items)
    if k < 2:
        raise InvalidFoldCount(f"need at least 2 folds, got {k}")
    rng = np.random.Generator(np.random.PCG64(seed))
    assignments = np.empty(n, dtype=np.int64)
    if split == "beat":
        if k > n:
            raise InvalidFoldCount(f"{k} folds for {n} items")
        order = rng.permutation(n)
        assignments[order] = np.arange(n) % k
    elif split == "patient":
        subject_of = [it.record_id.split("/")[0] for it in variant.items]
        subjects = sorted(set(subject_of))
        if k > len(subjects):
            n_records = len({it.record_id for it in variant.items})
            raise InvalidFoldCount(
                f"{k} folds for {len(subjects)} subjects ({n_records} records)"
            )
        order = rng.permutation(len(subjects))
        fold_of = {subjects[r]: int(pos % k) for pos, r in enumerate(order)}
        assignments[:] = [fold_of[subject] for subject in subject_of]
    else:
        raise InvalidFoldCount(f"unknown split mode {split!r}")
    return FoldPlan(k=k, assignments=assignments, split=split, seed=seed)


def confusion(labels: np.ndarray, predicted: np.ndarray) -> ConfusionCounts:
    labels = np.asarray(labels)
    predicted = np.asarray(predicted)
    return ConfusionCounts(
        tp=int(np.sum((labels == 1) & (predicted == 1))),
        tn=int(np.sum((labels == 0) & (predicted == 0))),
        fp=int(np.sum((labels == 0) & (predicted == 1))),
        fn=int(np.sum((labels == 1) & (predicted == 0))),
    )


def compute_metrics(counts: ConfusionCounts) -> Metrics:
    """Accuracy, sensitivity and specificity as percentages.

    Values are full precision; reports format them to 2 decimal places.
    """
    if counts.total == 0:
        raise UndefinedMetric("no predictions; accuracy undefined")
    if counts.tp + counts.fn == 0:
        raise UndefinedMetric("no positive ground truth; sensitivity undefined")
    if counts.tn + counts.fp == 0:
        raise UndefinedMetric("no negative ground truth; specificity undefined")
    return Metrics(
        accuracy=100.0 * (counts.tp + counts.tn) / counts.total,
        sensitivity=100.0 * counts.tp / (counts.tp + counts.fn),
        specificity=100.0 * counts.tn / (counts.tn + counts.fp),
    )


def batched_probs(model: cnn.CnnModel, images: np.ndarray, batch: int) -> np.ndarray:
    parts = []
    for lo in range(0, len(images), batch):
        probs, _ = cnn.forward(model, images[lo : lo + batch])
        parts.append(probs)
    return np.concatenate(parts, axis=0)


def evaluate(
    model: cnn.CnnModel, images: np.ndarray, labels: np.ndarray, batch: int
) -> tuple[ConfusionCounts, Metrics]:
    """Score ``model`` on labelled images: confusion counts and their metrics."""
    counts = confusion(labels, np.argmax(batched_probs(model, images, batch), axis=1))
    return counts, compute_metrics(counts)


def _eval_split(
    model: cnn.CnnModel, images: np.ndarray, labels: np.ndarray, batch: int
) -> tuple[float, float]:
    probs = batched_probs(model, images, batch)
    predicted = np.argmax(probs, axis=1)
    return float(cnn.loss(probs, labels)), float(np.mean(predicted == labels))


def train_fold(
    variant: DatasetVariant,
    plan: FoldPlan,
    fold: int,
    hyper: Hyperparams = Hyperparams(),
    seed: int = 0,
    out_dir: str | Path | None = None,
    layers=None,
    input_shape: tuple[int, int] | None = None,
) -> FoldResult:
    """Train on one fold's complement and score the held-out fold."""
    if not 0 <= fold < plan.k:
        raise InvalidFoldCount(f"fold {fold} outside [0, {plan.k})")
    test_idx = np.nonzero(plan.assignments == fold)[0]
    pool_idx = np.nonzero(plan.assignments != fold)[0]
    if len(test_idx) == 0 or len(pool_idx) < 2:
        raise BuildError(f"fold {fold}: not enough items to train and test")
    fold_seed = seed * 9973 + fold
    rng = np.random.Generator(np.random.PCG64(fold_seed))
    pool = rng.permutation(pool_idx)
    n_val = max(1, int(round(0.2 * len(pool))))
    if len(pool) - n_val < 1:
        raise BuildError(f"fold {fold}: not enough items for a train/val split")
    val_idx = pool[:n_val]
    train_idx = pool[n_val:]

    if input_shape is None:
        input_shape = variant.images.shape[1:3]
    model = cnn.model_init(
        seed=fold_seed,
        layers=layers if layers is not None else cnn.classifier_layers(),
        input_shape=input_shape,
    )
    images, labels = variant.images, variant.labels
    best_val = np.inf
    best_state: tuple | None = None
    stale = 0
    curve: list[EpochStats] = []
    epochs_run = 0
    for epoch in range(1, hyper.max_epochs + 1):
        epochs_run = epoch
        order = rng.permutation(train_idx)
        total_loss = 0.0
        total_hits = 0
        for lo in range(0, len(order), hyper.batch_size):
            batch = order[lo : lo + hyper.batch_size]
            probs, caches = cnn.forward(model, images[batch], with_caches=True)
            grads = cnn.backward(model, caches, labels[batch])
            cnn.adam_step(model, grads, lr=hyper.learning_rate)
            total_loss += cnn.loss(probs, labels[batch]) * len(batch)
            total_hits += int(np.sum(np.argmax(probs, axis=1) == labels[batch]))
        train_loss = total_loss / len(order)
        train_acc = total_hits / len(order)
        val_loss, val_acc = _eval_split(
            model, images[val_idx], labels[val_idx], hyper.batch_size
        )
        curve.append(EpochStats(epoch, train_loss, val_loss, train_acc, val_acc))
        if val_loss < best_val:
            best_val = val_loss
            best_state = (
                [p.copy() for p in model.params],
                copy.deepcopy(model.adam),
            )
            stale = 0
        else:
            stale += 1
            if stale >= hyper.patience:
                break
    if best_state is not None:
        model.params, model.adam = best_state

    counts, metrics = evaluate(
        model, images[test_idx], labels[test_idx], hyper.batch_size
    )
    checkpoint_path = None
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        checkpoint_path = out_dir / f"{variant.variant_id}_fold{fold:02d}.ckpt"
        cnn.save_checkpoint(model, checkpoint_path)
    logger.info(
        "%s fold %d: acc=%.2f sen=%.2f spe=%.2f (%d epochs)",
        variant.variant_id, fold, metrics.accuracy, metrics.sensitivity,
        metrics.specificity, epochs_run,
    )
    return FoldResult(
        fold=fold,
        variant_id=variant.variant_id,
        counts=counts,
        metrics=metrics,
        epochs_run=epochs_run,
        curve=curve,
        checkpoint_path=checkpoint_path,
    )


def train_run(
    variant: DatasetVariant,
    plan: FoldPlan,
    hyper: Hyperparams = Hyperparams(),
    seed: int = 0,
    out_dir: str | Path | None = None,
    layers=None,
    input_shape: tuple[int, int] | None = None,
) -> list[FoldResult]:
    """Train and score every fold in turn."""
    return [
        train_fold(
            variant, plan, fold, hyper=hyper, seed=seed, out_dir=out_dir,
            layers=layers, input_shape=input_shape,
        )
        for fold in range(plan.k)
    ]


def write_results_csv(results: list[FoldResult], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RESULTS_FIELDS)
        writer.writeheader()
        for r in results:
            writer.writerow(
                {
                    "fold": r.fold,
                    "variant": r.variant_id,
                    "tp": r.counts.tp,
                    "tn": r.counts.tn,
                    "fp": r.counts.fp,
                    "fn": r.counts.fn,
                    "acc": f"{r.metrics.accuracy:.2f}",
                    "sen": f"{r.metrics.sensitivity:.2f}",
                    "spe": f"{r.metrics.specificity:.2f}",
                    "epochs_run": r.epochs_run,
                }
            )


def read_results_csv(path: str | Path) -> list[FoldResult]:
    """Read a ``write_results_csv`` file; metrics are recomputed from the counts."""
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != RESULTS_FIELDS:
            raise BuildError(
                f"{path}: bad columns {reader.fieldnames}, expected {RESULTS_FIELDS}"
            )
        results = []
        for row in reader:
            if None in row or None in row.values():
                raise BuildError(
                    f"{path} line {reader.line_num}: expected {len(RESULTS_FIELDS)} cells"
                )
            try:
                counts = ConfusionCounts(*(int(row[k]) for k in ("tp", "tn", "fp", "fn")))
                fold, epochs_run = int(row["fold"]), int(row["epochs_run"])
            except ValueError as exc:
                raise BuildError(f"{path} line {reader.line_num}: {exc}") from exc
            results.append(
                FoldResult(
                    fold=fold,
                    variant_id=row["variant"],
                    counts=counts,
                    metrics=compute_metrics(counts),
                    epochs_run=epochs_run,
                )
            )
    return results


def write_curves_csv(results: list[FoldResult], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CURVES_FIELDS)
        writer.writeheader()
        for r in results:
            for e in r.curve:
                writer.writerow(
                    {
                        "fold": r.fold,
                        "epoch": e.epoch,
                        "train_loss": f"{e.train_loss:.6f}",
                        "val_loss": f"{e.val_loss:.6f}",
                        "train_acc": f"{e.train_acc:.6f}",
                        "val_acc": f"{e.val_acc:.6f}",
                    }
                )


def summarize(results: list[FoldResult]) -> dict[str, tuple[float, float]]:
    """Mean and population standard deviation of each metric over folds."""
    out = {}
    for name in ("accuracy", "sensitivity", "specificity"):
        values = np.array([getattr(r.metrics, name) for r in results], dtype=np.float64)
        out[name] = (float(np.mean(values)), float(np.std(values)))
    return out


def write_report(
    results: list[FoldResult], path: str | Path, seed: int, split: str
) -> None:
    """Human-readable per-fold metrics plus mean and standard deviation."""
    lines = [
        f"variant: {results[0].variant_id}" if results else "variant: (none)",
        f"folds: {len(results)}",
        f"seed: {seed}",
        f"split: {split}",
        "",
        f"{'fold':>4} {'tp':>6} {'tn':>6} {'fp':>5} {'fn':>5} "
        f"{'acc':>7} {'sen':>7} {'spe':>7} {'epochs':>6}",
    ]
    for r in results:
        lines.append(
            f"{r.fold:>4} {r.counts.tp:>6} {r.counts.tn:>6} {r.counts.fp:>5} "
            f"{r.counts.fn:>5} {r.metrics.accuracy:>7.2f} "
            f"{r.metrics.sensitivity:>7.2f} {r.metrics.specificity:>7.2f} "
            f"{r.epochs_run:>6}"
        )
    lines.append("")
    for name, (mean, std) in summarize(results).items():
        lines.append(f"{name}: mean={mean:.4f} std={std:.4f}")
    Path(path).write_text("\n".join(lines) + "\n")
