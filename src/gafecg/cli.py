"""Command-line pipeline driver.

Stages: ingest -> preprocess -> segment -> encode -> train -> eval ->
report, plus "pipeline" to run them all. STAGE_TABLE gives each stage's
upstream stage, inputs, primary output and the settings it reads. A stage
stores its key in ``config.json``: those settings and the sha256 of its
upstream stage's ``config.json``, but never the output root. It is skipped
when its primary output exists and its stored key equals the one it would
write (--force re-runs it); a missing upstream key never lets it count as
current. It removes its key before it writes and stores it again last.
Eval and report refuse settings that train did not use, and eval fails
unless the re-scored checkpoints reproduce train's ``results.csv``.
``main`` runs numpy's BLAS on one thread before any stage: train's folds
run in worker processes instead, and no output depends on the count.

Exit status: 0 on success, 1 when a stage fails, 2 for usage errors.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import cnn, train_eval
from .errors import PipelineError
from .gaf_encode import encode_beats, manifest_rows, safe_name, write_images, write_manifest
from .qrs_segment import pan_tompkins, segment_beats
from .signal_prep import denoise
from .tables import atomic_write, read_table, write_table
from .train_eval import Hyperparams, VARIANTS
from .wfdb_ingest import EcgRecord, Label, load_record, scan_dataset, subject_of

LEAD = "ii"
FOLDS = 10
# The largest --seed whose every fold seed fits a checkpoint's int64 seed field.
MAX_SEED = (2**63 - 1 - (FOLDS - 1)) // train_eval.FOLD_SEED_STRIDE
NOISE_VARIANTS = ("noisy", "clean")
# Reference beat counts for a full-archive run, used in stage reports.
REFERENCE_BEATS = {"healthy": 10139, "mi": 30128}
# Beats per encode chunk: the main thread encodes a chunk while one writer
# thread writes the chunk before it, so at most two chunks are held.
ENCODE_CHUNK = 64

# The columns of each stage table cli writes; its reader passes the same list.
RECORDS_FIELDS = ["record_id", "label"]
SIGNALS_FIELDS = ["record_id", "label", "noise_variant", "path", "n_samples", "sampling_rate"]
BEATS_FIELDS = ["record_id", "label", "r_peak_index"]
SUMMARY_FIELDS = [
    "variant", "mean_acc", "std_acc", "mean_sen", "std_sen", "mean_spe", "std_spe",
]


@dataclass
class PipelineConfig:
    dataset_root: str
    output_root: str
    variant: str = "all"  # ds1..ds4 | all
    split: str = "beat"  # beat | patient
    seed: int = 0
    learning_rate: float = Hyperparams.learning_rate
    batch_size: int = Hyperparams.batch_size
    max_epochs: int = Hyperparams.max_epochs
    patience: int = Hyperparams.patience
    inferior_only: bool = False
    force: bool = False

    def variants(self) -> list[str]:
        return list(VARIANTS) if self.variant == "all" else [self.variant]

    def hyperparams(self) -> Hyperparams:
        return Hyperparams(
            learning_rate=self.learning_rate,
            batch_size=self.batch_size,
            max_epochs=self.max_epochs,
            patience=self.patience,
        )


@dataclass(frozen=True)
class Stage:
    """A row of STAGE_TABLE. Inputs are paths under the output root, with
    ``{v}`` for a variant and ``{noise}`` for its noise condition."""

    per_variant: bool  # runs once per selected variant, in <stage>/<variant>
    upstream: str | None  # the stage whose config.json's sha256 is in the key
    inputs: tuple[str, ...]  # files the stage requires
    primary: str  # the output that, with a matching key, marks the stage current
    fields: tuple[str, ...] = ()  # the PipelineConfig fields in the key
    trained: tuple[str, ...] = ()  # fields that must equal train's stored ones


STAGE_TABLE = {
    "ingest": Stage(False, None, (), "records.csv", ("dataset_root", "inferior_only")),
    "preprocess": Stage(False, "ingest", ("ingest/records.csv",), "signals.csv", ("dataset_root",)),
    "segment": Stage(False, "preprocess", ("preprocess/signals.csv",), "beats_clean.csv"),
    "encode": Stage(
        True, "segment", ("segment/beats_{noise}.csv", "segment/beats_{noise}.npy"), "manifest.csv"
    ),
    "train": Stage(
        True, "encode", ("encode/{v}/manifest.csv",), "results.csv",
        ("split", "seed", "learning_rate", "batch_size", "max_epochs", "patience"),
    ),
    "eval": Stage(
        True, "train", ("train/{v}/results.csv", "encode/{v}/manifest.csv"), "eval_results.csv",
        trained=("split", "seed", "batch_size"),
    ),
    "report": Stage(
        False, "train", ("train/{v}/results.csv",), "summary.csv", ("variant",),
        trained=("split", "seed"),
    ),
}
STAGES = tuple(STAGE_TABLE)


def _read_key(path: Path) -> bytes | None:
    """A stage's stored ``config.json``, or None when it cannot be read."""
    try:
        return path.read_bytes()
    except OSError:
        return None


def _key(cfg: PipelineConfig, row: Stage, variant_ids: list[str]) -> tuple[str, bool]:
    """The ``config.json`` a stage reading ``variant_ids`` stores: its fields
    and the sha256 of each upstream ``config.json`` (null when unreadable),
    and whether every upstream key could be read."""
    upstream = {}
    if row.upstream is not None:
        per_variant = STAGE_TABLE[row.upstream].per_variant
        for rel in [f"{row.upstream}/{v}" for v in variant_ids] if per_variant else [row.upstream]:
            raw = _read_key(Path(cfg.output_root) / rel / "config.json")
            upstream[rel] = None if raw is None else hashlib.sha256(raw).hexdigest()
    settings = {field: getattr(cfg, field) for field in row.fields}
    if "dataset_root" in settings:  # one archive, however its path is spelled
        settings["dataset_root"] = str(Path(cfg.dataset_root).resolve())
    key = {**settings, "upstream": upstream}
    return json.dumps(key, indent=2, sort_keys=True) + "\n", None not in upstream.values()


def _check_trained(cfg: PipelineConfig, fields: tuple[str, ...], variant_ids: list[str]) -> None:
    """Refuse a value of ``fields`` other than the one train stored for each
    of ``variant_ids``; a variant whose train stage stored no key is not checked."""
    for variant_id in variant_ids:
        path = Path(cfg.output_root) / "train" / variant_id / "config.json"
        raw = _read_key(path)
        if raw is None:
            continue
        try:
            stored = json.loads(raw)
        except ValueError as exc:
            raise PipelineError(f"cannot read {path}: {exc}") from exc
        for field in fields:
            given = getattr(cfg, field)
            if stored.get(field) != given:
                raise PipelineError(
                    f"train/{variant_id} used {field} {stored.get(field)!r}, not {given!r}"
                )


def _stage(body):
    """Make ``body(cfg, out, variant_id)`` the stage ``stage_<name>(cfg)`` of
    STAGE_TABLE's row ``<name>``. For each of its outputs (one per selected
    variant when the row says so) it prints a skip line if the output is
    current; otherwise it unlinks the stored key, so a run that dies part-way
    stays unmarked, requires the inputs, runs ``body`` and stores the key."""
    name = body.__name__.removeprefix("stage_")
    row = STAGE_TABLE[name]

    @functools.wraps(body)
    def stage(cfg: PipelineConfig) -> None:
        root = Path(cfg.output_root)
        for variant_id in cfg.variants() if row.per_variant else [None]:
            reads = [variant_id] if variant_id else cfg.variants()
            if row.trained:
                _check_trained(cfg, row.trained, reads)
            out = root / name / (variant_id or "")
            key, complete = _key(cfg, row, reads)
            matches = complete and _read_key(out / "config.json") == key.encode()
            if matches and not cfg.force and (out / row.primary).exists():
                label = f"{name}:{variant_id}" if variant_id else name
                print(f"[{label}] up to date, skipping")
                continue
            (out / "config.json").unlink(missing_ok=True)
            inputs = [t.format(v=v, noise=VARIANTS[v][0]) for v in reads for t in row.inputs]
            for path in dict.fromkeys(inputs):
                _require(root / path, path.split("/")[0])
            out.mkdir(parents=True, exist_ok=True)
            body(cfg, out, variant_id)
            with atomic_write(out / "config.json", "w") as fh:
                fh.write(key)

    return stage


def _require(path: Path, producer: str) -> Path:
    if not path.exists():
        raise PipelineError(
            f"missing {path}; run the {producer!r} stage first"
        )
    return path


def _read_results(results_csv: Path) -> list[train_eval.FoldResult]:
    """Train's per-fold results, checked to hold folds 0..FOLDS-1 in order."""
    results = train_eval.read_results_csv(results_csv)
    if [r.fold for r in results] != list(range(FOLDS)):
        raise PipelineError(f"{results_csv}: expected folds 0..{FOLDS - 1} in order")
    return results


def _load_array(path: Path) -> np.ndarray:
    try:
        return np.load(path)
    except (ValueError, EOFError) as exc:  # truncated or not an .npy file
        raise PipelineError(f"cannot read {path}: {exc}") from exc


# --- stages ---------------------------------------------------------------


@_stage
def stage_ingest(cfg: PipelineConfig, out: Path, _: None) -> None:
    result = scan_dataset(cfg.dataset_root, lead_name=LEAD, inferior_only=cfg.inferior_only)
    write_table(out / "records.csv", RECORDS_FIELDS, [
        {"record_id": record_id, "label": label.value} for record_id, label in result.labeled
    ])
    with open(out / "skipped.txt", "w") as fh:
        for record_id, reason in result.skipped:
            fh.write(f"{record_id}\t{reason}\n")
    by_label = {label: [] for label in Label}
    for record_id, label in result.labeled:
        by_label[label].append(record_id)
    subjects = {
        label: len({subject_of(rid) for rid in rids})
        for label, rids in by_label.items()
    }
    lines = [
        f"records: total={len(result.labeled)} "
        f"healthy={len(by_label[Label.HEALTHY])} mi={len(by_label[Label.MI])} "
        f"skipped={len(result.skipped)}",
        f"subjects: healthy={subjects[Label.HEALTHY]} mi={subjects[Label.MI]}",
    ]
    (out / "ingest_report.txt").write_text("\n".join(lines) + "\n")
    print(f"[ingest] {len(result.labeled)} records ({len(result.skipped)} skipped)")


@_stage
def stage_preprocess(cfg: PipelineConfig, out: Path, _: None) -> None:
    records_csv = Path(cfg.output_root) / "ingest" / "records.csv"
    records = read_table(records_csv, RECORDS_FIELDS, "ingest")
    rows = []
    report = []
    for entry in records:
        record_id, label = entry["record_id"], entry["label"]
        record = load_record(cfg.dataset_root, record_id, lead_name=LEAD)
        clean = denoise(record)
        for noise_variant, samples in (("noisy", record.samples), ("clean", clean.samples)):
            name = f"{safe_name(record_id)}__{noise_variant}.npy"
            with atomic_write(out / name) as fh:
                np.save(fh, np.asarray(samples, dtype=np.float64))
            rows.append(
                {
                    "record_id": record_id,
                    "label": label,
                    "noise_variant": noise_variant,
                    "path": name,
                    "n_samples": len(samples),
                    "sampling_rate": record.sampling_rate,
                }
            )
        report.append(f"{record_id}\t{len(record.samples)} samples")
    write_table(out / "signals.csv", SIGNALS_FIELDS, rows)
    (out / "preprocess_report.txt").write_text("\n".join(report) + "\n")
    print(f"[preprocess] {len(records)} records -> {len(rows)} signals")


@_stage
def stage_segment(cfg: PipelineConfig, out: Path, _: None) -> None:
    pre_dir = Path(cfg.output_root) / "preprocess"
    rows = read_table(
        pre_dir / "signals.csv", SIGNALS_FIELDS, "preprocess",
        parse={"label": Label, "sampling_rate": float},
    )
    report = ["record_id\tnoise\tbeats\tskipped_bounds\tskipped_degenerate"]
    totals: dict[str, dict[str, int]] = {
        nv: {label.value: 0 for label in Label} for nv in NOISE_VARIANTS
    }
    for noise_variant in NOISE_VARIANTS:
        beats_rows = []
        arrays = []
        for row in rows:
            if row["noise_variant"] != noise_variant:
                continue
            samples = _load_array(pre_dir / row["path"])
            record = EcgRecord(
                subject_id=row["record_id"],
                label=row["label"],
                lead_name=LEAD,
                samples=samples,
                sampling_rate=row["sampling_rate"],
            )
            peaks = pan_tompkins(record)
            seg = segment_beats(record, peaks)
            for beat in seg.beats:
                beats_rows.append(
                    {
                        "record_id": beat.source_record,
                        "label": beat.label,
                        "r_peak_index": beat.r_peak_index,
                    }
                )
                arrays.append(beat.samples.astype(np.float32))
                totals[noise_variant][beat.label] += 1
            report.append(
                f"{row['record_id']}\t{noise_variant}\t{len(seg.beats)}"
                f"\t{seg.skipped_bounds}\t{seg.skipped_degenerate}"
            )
        if not arrays:
            raise PipelineError(f"segment produced no {noise_variant} beats")
        with atomic_write(out / f"beats_{noise_variant}.npy") as fh:
            np.save(fh, np.stack(arrays))
        write_table(out / f"beats_{noise_variant}.csv", BEATS_FIELDS, beats_rows)
    summary = []
    for noise_variant in NOISE_VARIANTS:
        healthy = totals[noise_variant]["healthy"]
        mi = totals[noise_variant]["mi"]
        summary.append(
            f"{noise_variant}: beats healthy={healthy} mi={mi} total={healthy + mi}"
        )
    summary.append(
        f"reference: healthy={REFERENCE_BEATS['healthy']} "
        f"mi={REFERENCE_BEATS['mi']} "
        f"total={sum(REFERENCE_BEATS.values())}"
    )
    (out / "segment_report.txt").write_text(
        "\n".join(summary) + "\n\n" + "\n".join(report) + "\n"
    )
    print(f"[segment] {' | '.join(summary[:2])}")


@_stage
def stage_encode(cfg: PipelineConfig, out: Path, variant_id: str) -> None:
    noise_variant, kind = VARIANTS[variant_id]
    beats_csv = Path(cfg.output_root) / "segment" / f"beats_{noise_variant}.csv"
    meta = read_table(beats_csv, BEATS_FIELDS, "segment", parse={"r_peak_index": int})
    beats_npy = beats_csv.with_suffix(".npy")
    samples = _load_array(beats_npy)
    if len(meta) != len(samples):
        raise PipelineError(
            f"{beats_csv} has {len(meta)} rows but {beats_npy} has "
            f"{len(samples)} beats"
        )
    rows = manifest_rows(meta, kind, noise_variant)
    _encode_and_write(samples, [row["path"] for row in rows], kind, out)
    write_manifest(rows, out)
    print(f"[encode:{variant_id}] {len(rows)} images ({noise_variant}, {kind})")


def _encode_and_write(samples: np.ndarray, names: list[str], kind: str, out: Path) -> None:
    """Encode the beats ENCODE_CHUNK at a time on this thread while one writer
    thread writes the previous chunk's PNGs under ``names``. A failure raised
    is the one encoding and writing chunk by chunk in turn would meet first,
    and the writer has finished when this returns."""
    pending = None
    with ThreadPoolExecutor(max_workers=1) as writer:
        for start in range(0, len(samples), ENCODE_CHUNK):
            chunk = slice(start, start + ENCODE_CHUNK)
            try:
                images = encode_beats(samples[chunk], kind)
            finally:
                # The previous chunk's write comes first: its error wins.
                if pending is not None:
                    pending.result()
            pending = writer.submit(write_images, images, names[chunk], out)
        if pending is not None:
            pending.result()


@_stage
def stage_train(cfg: PipelineConfig, out: Path, variant_id: str) -> None:
    encode_dir = Path(cfg.output_root) / "encode" / variant_id
    variant = train_eval.load_variant(encode_dir, variant_id)
    plan = train_eval.make_folds(variant, k=FOLDS, seed=cfg.seed, split=cfg.split)
    results = train_eval.train_run(
        variant, plan, hyper=cfg.hyperparams(), seed=cfg.seed, out_dir=out
    )
    train_eval.write_results_csv(results, out / "results.csv")
    train_eval.write_curves_csv(results, out / "curves.csv")
    train_eval.write_report(results, out / "report.txt", cfg.seed, cfg.split)
    mean_acc = train_eval.summarize(results)["accuracy"][0]
    print(f"[train:{variant_id}] mean accuracy {mean_acc:.2f}")


@_stage
def stage_eval(cfg: PipelineConfig, out: Path, variant_id: str) -> None:
    train_dir = Path(cfg.output_root) / "train" / variant_id
    encode_dir = Path(cfg.output_root) / "encode" / variant_id
    trained = _read_results(train_dir / "results.csv")
    variant = train_eval.load_variant(encode_dir, variant_id)
    plan = train_eval.make_folds(variant, k=FOLDS, seed=cfg.seed, split=cfg.split)
    rescored = []
    for result in trained:
        checkpoint = train_dir / train_eval.checkpoint_name(variant_id, result.fold)
        model = cnn.load_checkpoint(
            _require(checkpoint, "train"), expected_layers=cnn.classifier_layers()
        )
        test_idx = np.nonzero(plan.assignments == result.fold)[0]
        counts, metrics = train_eval.evaluate(
            model, variant.images[test_idx], variant.labels[test_idx], cfg.batch_size
        )
        rescored.append(dataclasses.replace(result, counts=counts, metrics=metrics))
    train_eval.write_results_csv(rescored, out / "eval_results.csv")
    mismatches = [
        new.fold for old, new in zip(trained, rescored) if new.counts != old.counts
    ]
    if mismatches:
        raise PipelineError(
            f"eval:{variant_id} checkpoint predictions disagree with "
            f"results.csv for folds {mismatches}"
        )
    print(f"[eval:{variant_id}] {len(rescored)} folds re-scored, counts match")


@_stage
def stage_report(cfg: PipelineConfig, out: Path, _: None) -> None:
    rows = []
    lines = [f"seed: {cfg.seed}", f"split: {cfg.split}", ""]
    lines.append(
        f"{'variant':>7} {'acc':>17} {'sen':>17} {'spe':>17}"
    )
    for variant_id in cfg.variants():
        results_csv = Path(cfg.output_root) / "train" / variant_id / "results.csv"
        stats = train_eval.summarize(_read_results(results_csv))
        cells = [variant_id, *(f"{v:.4f}" for pair in stats.values() for v in pair)]
        rows.append(dict(zip(SUMMARY_FIELDS, cells)))
        lines.append(
            f"{variant_id:>7} "
            + " ".join(f"{mean:>8.4f}+-{std:<7.4f}" for mean, std in stats.values())
        )
    write_table(out / "summary.csv", SUMMARY_FIELDS, rows)
    (out / "report.txt").write_text("\n".join(lines) + "\n")
    print(f"[report] {len(rows)} variants summarized")


def stage_pipeline(cfg: PipelineConfig) -> None:
    for name in STAGES:
        globals()[f"stage_{name}"](cfg)


# --- argument parsing -----------------------------------------------------


def _positive(cast):
    """An argparse type: ``cast`` of the option's text, refused unless > 0
    and finite."""

    def parse(text: str):
        value = cast(text)
        if not 0 < value < float("inf"):
            raise argparse.ArgumentTypeError(f"must be > 0 and finite, got {text}")
        return value

    parse.__name__ = cast.__name__  # argparse names the type in its errors
    return parse


def _seed(text: str) -> int:
    """An argparse type: a seed in 0..MAX_SEED."""
    value = int(text)
    if not 0 <= value <= MAX_SEED:
        raise argparse.ArgumentTypeError(f"must be in 0..{MAX_SEED}, got {text}")
    return value


_seed.__name__ = "int"  # argparse names the type in its errors


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gafecg",
        description="ECG infarction-detection pipeline over beat images",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in (*STAGES, "pipeline"):
        p = sub.add_parser(command, help=f"run the {command} stage")
        p.add_argument("--dataset-root", help="root of the record tree")
        p.add_argument("--out", required=True, help="output root directory")
        p.add_argument(
            "--variant",
            default="all",
            choices=[*VARIANTS, "all"],
            help="dataset variant to process",
        )
        p.add_argument(
            "--split",
            default="beat",
            choices=["beat", "patient"],
            help="fold assignment granularity",
        )
        p.add_argument("--seed", type=_seed, default=0)
        p.add_argument("--lr", type=_positive(float), default=Hyperparams.learning_rate,
                       dest="learning_rate")
        p.add_argument("--batch", type=_positive(int), default=Hyperparams.batch_size,
                       dest="batch_size")
        p.add_argument("--epochs", type=_positive(int), default=Hyperparams.max_epochs,
                       dest="max_epochs")
        p.add_argument("--patience", type=_positive(int), default=Hyperparams.patience)
        p.add_argument(
            "--inferior-only",
            action="store_true",
            help="keep only infarction records with an inferior localization",
        )
        p.add_argument(
            "--force", action="store_true", help="re-run even if outputs exist"
        )
    return parser


def _config_from_args(args: argparse.Namespace, parser: argparse.ArgumentParser) -> PipelineConfig:
    needs_dataset = args.command in ("ingest", "preprocess", "pipeline")
    if needs_dataset and not args.dataset_root:
        parser.error(f"{args.command} requires --dataset-root")
    # Every field after the two roots has an option of its own name.
    options = {f.name: getattr(args, f.name) for f in dataclasses.fields(PipelineConfig)[2:]}
    return PipelineConfig(args.dataset_root or "", args.out, **options)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    cfg = _config_from_args(args, parser)
    train_eval.pin_blas_threads(1)
    try:
        globals()[f"stage_{args.command}"](cfg)
    except (PipelineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
