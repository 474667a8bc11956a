"""K-fold training and evaluation of the beat-image classifier.

Four dataset variants pair a noise condition with a field kind: ds1 =
raw + summation, ds2 = raw + difference, ds3 = denoised + summation,
ds4 = denoised + difference. Items are split into k folds (shuffled
round-robin over beats, or over subjects to keep a subject inside one
fold); each fold's remainder is split 80/20 into train/validation, the
network trains with Adam and early stopping on validation loss, and the
best-validation model is scored on the held-out fold. ``train_run`` trains
the folds in forked worker processes, one per usable CPU (``taskset``
limits them), each with BLAS on one thread; the results and files do not
depend on the number of workers or on the BLAS thread count.

The infarction class is positive: sensitivity counts infarction beats
recovered, specificity counts healthy beats recovered.
"""
from __future__ import annotations

import ctypes
import functools
import logging
import multiprocessing
import os
import signal
import warnings
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import cnn
from .errors import BuildError, InvalidFoldCount, PipelineError, UndefinedMetric
from .gaf_encode import MANIFEST_FIELDS
from .png_io import read_gray_png
from .tables import read_table, write_table
from .wfdb_ingest import subject_of

logger = logging.getLogger(__name__)

POSITIVE_LABEL = "mi"
NEGATIVE_LABEL = "healthy"
LABEL_TO_CLASS = {NEGATIVE_LABEL: 0, POSITIVE_LABEL: 1}
# Fold f of a run at seed s splits and initializes from seed s * stride + f.
FOLD_SEED_STRIDE = 9973

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
class DatasetItem:  # one manifest row: its fields are MANIFEST_FIELDS, in order
    path: str
    label: str
    record_id: str
    r_peak_index: int
    kind: str
    noise_variant: str


@dataclass
class DatasetVariant:
    variant_id: str
    items: list[DatasetItem]
    images: np.ndarray  # (N, H, W) uint8
    labels: np.ndarray  # (N,) int, LABEL_TO_CLASS values


@dataclass
class FoldPlan:
    k: int
    assignments: np.ndarray  # item index -> fold number


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
    rows = read_table(manifest, MANIFEST_FIELDS, "encode", parse={"r_peak_index": int})
    for line, row in enumerate(rows, start=2):
        if (row["noise_variant"], row["kind"]) != (noise_variant, kind):
            raise BuildError(
                f"{manifest} line {line}: kind {row['kind']!r}, noise "
                f"{row['noise_variant']!r}; {variant_id} is {kind!r}, {noise_variant!r}"
            )
    items = [DatasetItem(**row) for row in rows]
    missing = [encode_dir / it.path for it in items if not (encode_dir / it.path).is_file()]
    if missing:
        shown = ", ".join(map(str, missing[:5]))
        raise BuildError(f"{len(missing)} image files missing: {shown}")
    bad_labels = sorted({it.label for it in items} - set(LABEL_TO_CLASS))
    if bad_labels:
        raise BuildError(f"{manifest}: unknown labels {bad_labels}")
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
    return DatasetVariant(variant_id=variant_id, items=items, images=images, labels=labels)


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
        subject_ids = [subject_of(it.record_id) for it in variant.items]
        subjects = sorted(set(subject_ids))
        if k > len(subjects):
            n_records = len({it.record_id for it in variant.items})
            raise InvalidFoldCount(
                f"{k} folds for {len(subjects)} subjects ({n_records} records)"
            )
        order = rng.permutation(len(subjects))
        fold_of = {subjects[r]: int(pos % k) for pos, r in enumerate(order)}
        assignments[:] = [fold_of[subject] for subject in subject_ids]
    else:
        raise InvalidFoldCount(f"unknown split mode {split!r}")
    return FoldPlan(k=k, assignments=assignments)


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


def checkpoint_name(variant_id: str, fold: int) -> str:
    """The file name of a fold's checkpoint in the train stage's directory."""
    return f"{variant_id}_fold{fold:02d}.ckpt"


def train_fold(
    variant: DatasetVariant,
    plan: FoldPlan,
    fold: int,
    hyper: Hyperparams = Hyperparams(),
    seed: int = 0,
    out_dir: str | Path | None = None,
    layers=None,
) -> FoldResult:
    """Train on one fold's complement and score the held-out fold."""
    if not 0 <= fold < plan.k:
        raise InvalidFoldCount(f"fold {fold} outside [0, {plan.k})")
    test_idx = np.nonzero(plan.assignments == fold)[0]
    pool_idx = np.nonzero(plan.assignments != fold)[0]
    if len(test_idx) == 0 or len(pool_idx) < 2:
        raise BuildError(f"fold {fold}: not enough items to train and test")
    fold_seed = seed * FOLD_SEED_STRIDE + fold
    rng = np.random.Generator(np.random.PCG64(fold_seed))
    pool = rng.permutation(pool_idx)
    n_val = max(1, int(round(0.2 * len(pool))))
    val_idx = pool[:n_val]
    train_idx = pool[n_val:]

    model = cnn.model_init(
        seed=fold_seed,
        layers=layers if layers is not None else cnn.classifier_layers(),
        input_shape=variant.images.shape[1:3],
    )
    images, labels = variant.images, variant.labels
    best_val = np.inf
    best_params: list[np.ndarray] | None = None
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
            best_params = [p.copy() for p in model.params]
            stale = 0
        else:
            stale += 1
            if stale >= hyper.patience:
                break
    if best_params is not None:
        model.params = best_params

    counts, metrics = evaluate(
        model, images[test_idx], labels[test_idx], hyper.batch_size
    )
    checkpoint_path = None
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        checkpoint_path = out_dir / checkpoint_name(variant.variant_id, fold)
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


# (prefix, suffix) of the symbols of each OpenBLAS build numpy links: the
# scipy-openblas of numpy's own wheels, then plain 64-bit and 32-bit OpenBLAS.
_OPENBLAS_SYMBOLS = [("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", "")]


@functools.cache
def _blas():
    """numpy's BLAS thread-count setter and the library's name, version and
    core type (the kernels picked for this CPU), or None for a BLAS without
    a known setter."""
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath
    # dlsym on numpy's extension module also searches the libraries it links.
    lib = ctypes.CDLL(_multiarray_umath.__file__)
    for prefix, suffix in _OPENBLAS_SYMBOLS:
        setter = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            config = getattr(lib, f"{prefix}get_config{suffix}")
            config.argtypes, config.restype = [], ctypes.c_char_p
            name = config().decode().split()[:2]
            corename = getattr(lib, f"{prefix}get_corename{suffix}", None)
            if corename is not None:
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                name.append(corename().decode())
            return setter, " ".join(name)
    return None


def pin_blas_threads(threads: int) -> str:
    """Run numpy's BLAS on ``threads`` threads in this process. Returns the
    library's name, version and core type, such as "OpenBLAS 0.3.31.188.0
    SkylakeX", or "unpinned", after one warning, for a BLAS whose thread
    count this cannot set."""
    found = _blas()
    if found is None:
        warnings.warn(
            "unknown BLAS: thread count unpinned, so training bytes may depend on it",
            RuntimeWarning,
        )
        return "unpinned"
    setter, name = found
    setter(threads)
    return name


_fold_args: tuple = ()  # set in each worker only: (variant, plan, train_fold keywords)


def _start_worker(variant: DatasetVariant, plan: FoldPlan, kwargs: dict) -> None:
    global _fold_args
    # Ctrl-C ends a worker at once: caught, the worker would go on to the
    # next queued fold and the interrupted run would wait for it.
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    # A worker outliving its parent would wait on the task queue for good,
    # so Linux kills it when the parent dies.
    prctl = ctypes.CDLL(None).prctl
    prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
    prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    if os.getppid() != multiprocessing.parent_process().pid:  # died before prctl
        os._exit(1)
    pin_blas_threads(1)
    _fold_args = (variant, plan, kwargs)


def _run_fold(fold: int) -> FoldResult:
    variant, plan, kwargs = _fold_args
    return train_fold(variant, plan, fold, **kwargs)


def train_run(
    variant: DatasetVariant,
    plan: FoldPlan,
    hyper: Hyperparams = Hyperparams(),
    seed: int = 0,
    out_dir: str | Path | None = None,
    layers=None,
) -> list[FoldResult]:
    """Train and score every fold; the results are in fold order.

    The folds run in worker processes forked from this one, one per usable
    CPU (``taskset`` limits them) and at most ``plan.k``. Workers share the
    variant's image pages, so only each fold number and FoldResult is
    pickled, and run BLAS on one thread. Each fold is seeded on its own, so
    results and files do not depend on the number of workers. A fold's
    error is raised as a PipelineError naming the fold, once the pending
    folds are cancelled and every worker has exited. Ctrl-C, or the death
    of this process, ends every worker at once.
    """
    kwargs = dict(hyper=hyper, seed=seed, out_dir=out_dir, layers=layers)
    # fork, not spawn, so the workers share the images instead of loading or
    # unpickling a copy each; the stages start no thread that outlives them.
    pool = ProcessPoolExecutor(
        min(plan.k, len(os.sched_getaffinity(0))),
        multiprocessing.get_context("fork"),
        initializer=_start_worker,
        initargs=(variant, plan, kwargs),
    )
    try:
        futures = [pool.submit(_run_fold, fold) for fold in range(plan.k)]
        results = []
        for fold, future in enumerate(futures):
            try:
                results.append(future.result())
            except (PipelineError, OSError) as exc:
                raise PipelineError(f"fold {fold}: {exc}") from exc
            except BrokenProcessPool as exc:
                raise PipelineError(
                    f"a training worker died before fold {fold} finished: {exc}"
                ) from exc
        return results
    finally:
        pool.shutdown(cancel_futures=True)


def write_results_csv(results: list[FoldResult], path: str | Path) -> None:
    write_table(path, RESULTS_FIELDS, [
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
        for r in results
    ])


def read_results_csv(path: str | Path) -> list[FoldResult]:
    """Read a ``write_results_csv`` file; metrics are recomputed from the counts."""
    integers = dict.fromkeys(("fold", "tp", "tn", "fp", "fn", "epochs_run"), int)
    results = []
    for row in read_table(path, RESULTS_FIELDS, "train", parse=integers):
        counts = ConfusionCounts(row["tp"], row["tn"], row["fp"], row["fn"])
        metrics = compute_metrics(counts)
        results.append(FoldResult(row["fold"], row["variant"], counts, metrics, row["epochs_run"]))
    return results


def write_curves_csv(results: list[FoldResult], path: str | Path) -> None:
    write_table(path, CURVES_FIELDS, [
        {
            "fold": r.fold,
            "epoch": e.epoch,
            "train_loss": f"{e.train_loss:.6f}",
            "val_loss": f"{e.val_loss:.6f}",
            "train_acc": f"{e.train_acc:.6f}",
            "val_acc": f"{e.val_acc:.6f}",
        }
        for r in results
        for e in r.curve
    ])


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
