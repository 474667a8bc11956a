"""Command-line pipeline driver.

Stages: ingest -> preprocess -> segment -> encode -> train -> eval ->
report, plus "pipeline" to run them all. Each stage reads the previous
stage's manifest, writes its own outputs plus the resolved configuration
under the output root, and is skipped on re-runs when its outputs already
exist for an identical configuration (override with --force). Eval fails
unless the re-scored checkpoints reproduce train's ``results.csv``.

Exit status: 0 on success, 1 when a stage fails, 2 for usage errors.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import cnn, train_eval
from .errors import PipelineError
from .gaf_encode import encode_beats, write_images
from .qrs_segment import Beat, pan_tompkins, segment_beats
from .signal_prep import denoise
from .train_eval import Hyperparams, VARIANTS
from .wfdb_ingest import EcgRecord, Label, load_record, scan_dataset

LEAD = "ii"
FOLDS = 10
NOISE_VARIANTS = ("noisy", "clean")
# Reference beat counts for a full-archive run, used in stage reports.
REFERENCE_BEATS = {"healthy": 10139, "mi": 30128}

STAGES = ("ingest", "preprocess", "segment", "encode", "train", "eval", "report")
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
    learning_rate: float = 0.001
    batch_size: int = 8
    max_epochs: int = 50
    patience: int = 5
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

    def comparable(self) -> dict:
        out = dataclasses.asdict(self)
        out.pop("force")
        return out


def _write_config(cfg: PipelineConfig, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "config.json").write_text(
        json.dumps(cfg.comparable(), indent=2, sort_keys=True) + "\n"
    )


def _stage_current(cfg: PipelineConfig, directory: Path, primary: Path) -> bool:
    """A stage is current when its main output and a matching config exist."""
    if cfg.force:
        return False
    config_path = directory / "config.json"
    if not primary.exists() or not config_path.exists():
        return False
    try:
        stored = json.loads(config_path.read_text())
    except json.JSONDecodeError:
        return False
    return stored == cfg.comparable()


def _require(path: Path, producer: str) -> Path:
    if not path.exists():
        raise PipelineError(
            f"missing {path}; run the {producer!r} stage first"
        )
    return path


def _read_table(
    path: Path, fields: tuple[str, ...], producer: str, parse: dict | None = None
) -> list[dict]:
    """Rows of a stage's CSV table, checked to have every one of ``fields``
    and as many cells as the header. ``parse`` maps a column to the function
    that converts its cells; a ValueError there names the file and line."""
    with open(_require(path, producer), newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [f for f in fields if f not in (reader.fieldnames or ())]
        if missing:
            raise PipelineError(
                f"{path} has no {', '.join(missing)}; re-run {producer}"
            )
        rows = []
        for row in reader:
            where = f"{path} line {reader.line_num}"
            if None in row or None in row.values():
                raise PipelineError(
                    f"{where}: expected {len(reader.fieldnames)} cells; re-run {producer}"
                )
            for column, convert in (parse or {}).items():
                try:
                    row[column] = convert(row[column])
                except ValueError:
                    raise PipelineError(
                        f"{where}: bad {column} {row[column]!r}; re-run {producer}"
                    ) from None
            rows.append(row)
        return rows


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


def _safe_name(record_id: str) -> str:
    return record_id.replace("/", "__")


# --- stages ---------------------------------------------------------------


def stage_ingest(cfg: PipelineConfig) -> None:
    out = Path(cfg.output_root) / "ingest"
    records_csv = out / "records.csv"
    if _stage_current(cfg, out, records_csv):
        print("[ingest] up to date, skipping")
        return
    result = scan_dataset(cfg.dataset_root, lead_name=LEAD, inferior_only=cfg.inferior_only)
    out.mkdir(parents=True, exist_ok=True)
    with open(records_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["record_id", "label"])
        for record_id, label in result.labeled:
            writer.writerow([record_id, label.value])
    with open(out / "skipped.txt", "w") as fh:
        for record_id, reason in result.skipped:
            fh.write(f"{record_id}\t{reason}\n")
    by_label = {label: [] for label in Label}
    for record_id, label in result.labeled:
        by_label[label].append(record_id)
    subjects = {
        label: len({rid.split("/")[0] for rid in rids})
        for label, rids in by_label.items()
    }
    lines = [
        f"records: total={len(result.labeled)} "
        f"healthy={len(by_label[Label.HEALTHY])} mi={len(by_label[Label.MI])} "
        f"skipped={len(result.skipped)}",
        f"subjects: healthy={subjects[Label.HEALTHY]} mi={subjects[Label.MI]}",
    ]
    (out / "ingest_report.txt").write_text("\n".join(lines) + "\n")
    _write_config(cfg, out)
    print(f"[ingest] {len(result.labeled)} records ({len(result.skipped)} skipped)")


def _read_records(cfg: PipelineConfig) -> list[tuple[str, str]]:
    records_csv = Path(cfg.output_root) / "ingest" / "records.csv"
    rows = _read_table(records_csv, ("record_id", "label"), "ingest")
    return [(row["record_id"], row["label"]) for row in rows]


def stage_preprocess(cfg: PipelineConfig) -> None:
    out = Path(cfg.output_root) / "preprocess"
    signals_csv = out / "signals.csv"
    if _stage_current(cfg, out, signals_csv):
        print("[preprocess] up to date, skipping")
        return
    records = _read_records(cfg)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    report = []
    for record_id, label in records:
        record = load_record(cfg.dataset_root, record_id, lead_name=LEAD)
        clean = denoise(record)
        for noise_variant, samples in (("noisy", record.samples), ("clean", clean.samples)):
            name = f"{_safe_name(record_id)}__{noise_variant}.npy"
            np.save(out / name, np.asarray(samples, dtype=np.float64))
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
    with open(signals_csv, "w", newline="") as fh:
        writer = csv.DictWriter(
            fh,
            fieldnames=[
                "record_id", "label", "noise_variant", "path", "n_samples",
                "sampling_rate",
            ],
        )
        writer.writeheader()
        writer.writerows(rows)
    (out / "preprocess_report.txt").write_text("\n".join(report) + "\n")
    _write_config(cfg, out)
    print(f"[preprocess] {len(records)} records -> {len(rows)} signals")


def stage_segment(cfg: PipelineConfig) -> None:
    out = Path(cfg.output_root) / "segment"
    done_marker = out / "beats_clean.csv"
    if _stage_current(cfg, out, done_marker):
        print("[segment] up to date, skipping")
        return
    pre_dir = Path(cfg.output_root) / "preprocess"
    rows = _read_table(
        pre_dir / "signals.csv",
        ("record_id", "label", "noise_variant", "path", "sampling_rate"),
        "preprocess",
        parse={"label": Label, "sampling_rate": float},
    )
    out.mkdir(parents=True, exist_ok=True)
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
        np.save(out / f"beats_{noise_variant}.npy", np.stack(arrays))
        with open(out / f"beats_{noise_variant}.csv", "w", newline="") as fh:
            writer = csv.DictWriter(
                fh, fieldnames=["record_id", "label", "r_peak_index"]
            )
            writer.writeheader()
            writer.writerows(beats_rows)
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
    _write_config(cfg, out)
    print(f"[segment] {' | '.join(summary[:2])}")


def stage_encode(cfg: PipelineConfig) -> None:
    seg_dir = Path(cfg.output_root) / "segment"
    for variant_id in cfg.variants():
        noise_variant, kind = VARIANTS[variant_id]
        out = Path(cfg.output_root) / "encode" / variant_id
        manifest = out / "manifest.csv"
        if _stage_current(cfg, out, manifest):
            print(f"[encode:{variant_id}] up to date, skipping")
            continue
        beats_csv = seg_dir / f"beats_{noise_variant}.csv"
        meta = _read_table(
            beats_csv, ("record_id", "label", "r_peak_index"), "segment",
            parse={"r_peak_index": int},
        )
        beats_npy = _require(seg_dir / f"beats_{noise_variant}.npy", "segment")
        samples = _load_array(beats_npy)
        if len(meta) != len(samples):
            raise PipelineError(
                f"{beats_csv} has {len(meta)} rows but {beats_npy} has "
                f"{len(samples)} beats"
            )
        beats = [
            Beat(
                samples=samples[i].astype(np.float64),
                source_record=meta[i]["record_id"],
                r_peak_index=meta[i]["r_peak_index"],
                label=meta[i]["label"],
            )
            for i in range(len(meta))
        ]
        images = encode_beats(beats, kind)
        write_images(images, out, noise_variant=noise_variant)
        _write_config(cfg, out)
        print(f"[encode:{variant_id}] {len(images)} images ({noise_variant}, {kind})")


def stage_train(cfg: PipelineConfig) -> None:
    for variant_id in cfg.variants():
        out = Path(cfg.output_root) / "train" / variant_id
        results_csv = out / "results.csv"
        if _stage_current(cfg, out, results_csv):
            print(f"[train:{variant_id}] up to date, skipping")
            continue
        encode_dir = Path(cfg.output_root) / "encode" / variant_id
        _require(encode_dir / "manifest.csv", "encode")
        variant = train_eval.load_variant(encode_dir, variant_id)
        plan = train_eval.make_folds(variant, k=FOLDS, seed=cfg.seed, split=cfg.split)
        results = train_eval.train_run(
            variant, plan, hyper=cfg.hyperparams(), seed=cfg.seed, out_dir=out
        )
        train_eval.write_results_csv(results, results_csv)
        train_eval.write_curves_csv(results, out / "curves.csv")
        train_eval.write_report(results, out / "report.txt", cfg.seed, cfg.split)
        _write_config(cfg, out)
        mean_acc = train_eval.summarize(results)["accuracy"][0]
        print(f"[train:{variant_id}] mean accuracy {mean_acc:.2f}")


def stage_eval(cfg: PipelineConfig) -> None:
    for variant_id in cfg.variants():
        out = Path(cfg.output_root) / "eval" / variant_id
        eval_csv = out / "eval_results.csv"
        if _stage_current(cfg, out, eval_csv):
            print(f"[eval:{variant_id}] up to date, skipping")
            continue
        train_dir = Path(cfg.output_root) / "train" / variant_id
        results_csv = _require(train_dir / "results.csv", "train")
        encode_dir = Path(cfg.output_root) / "encode" / variant_id
        _require(encode_dir / "manifest.csv", "encode")
        trained = _read_results(results_csv)
        variant = train_eval.load_variant(encode_dir, variant_id)
        plan = train_eval.make_folds(variant, k=FOLDS, seed=cfg.seed, split=cfg.split)
        rescored = []
        for result in trained:
            checkpoint = _require(
                train_dir / f"{variant_id}_fold{result.fold:02d}.ckpt", "train"
            )
            model = cnn.load_checkpoint(
                checkpoint, expected_layers=cnn.classifier_layers()
            )
            test_idx = np.nonzero(plan.assignments == result.fold)[0]
            counts, metrics = train_eval.evaluate(
                model, variant.images[test_idx], variant.labels[test_idx], cfg.batch_size
            )
            rescored.append(dataclasses.replace(result, counts=counts, metrics=metrics))
        out.mkdir(parents=True, exist_ok=True)
        train_eval.write_results_csv(rescored, eval_csv)
        mismatches = [
            new.fold for old, new in zip(trained, rescored) if new.counts != old.counts
        ]
        if mismatches:
            raise PipelineError(
                f"eval:{variant_id} checkpoint predictions disagree with "
                f"results.csv for folds {mismatches}"
            )
        _write_config(cfg, out)
        print(f"[eval:{variant_id}] {len(rescored)} folds re-scored, counts match")


def stage_report(cfg: PipelineConfig) -> None:
    out = Path(cfg.output_root) / "report"
    summary_csv = out / "summary.csv"
    if _stage_current(cfg, out, summary_csv):
        print("[report] up to date, skipping")
        return
    rows = []
    lines = [f"seed: {cfg.seed}", f"split: {cfg.split}", ""]
    lines.append(
        f"{'variant':>7} {'acc':>17} {'sen':>17} {'spe':>17}"
    )
    for variant_id in cfg.variants():
        results_csv = _require(
            Path(cfg.output_root) / "train" / variant_id / "results.csv", "train"
        )
        stats = train_eval.summarize(_read_results(results_csv))
        rows.append([variant_id, *(f"{v:.4f}" for pair in stats.values() for v in pair)])
        lines.append(
            f"{variant_id:>7} "
            + " ".join(f"{mean:>8.4f}+-{std:<7.4f}" for mean, std in stats.values())
        )
    out.mkdir(parents=True, exist_ok=True)
    with open(summary_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_FIELDS)
        writer.writerows(rows)
    (out / "report.txt").write_text("\n".join(lines) + "\n")
    _write_config(cfg, out)
    print(f"[report] {len(rows)} variants summarized")


def stage_pipeline(cfg: PipelineConfig) -> None:
    stage_ingest(cfg)
    stage_preprocess(cfg)
    stage_segment(cfg)
    stage_encode(cfg)
    stage_train(cfg)
    stage_eval(cfg)
    stage_report(cfg)


# --- argument parsing -----------------------------------------------------


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
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--lr", type=float, default=0.001, dest="learning_rate")
        p.add_argument("--batch", type=int, default=8, dest="batch_size")
        p.add_argument("--epochs", type=int, default=50, dest="max_epochs")
        p.add_argument("--patience", type=int, default=5)
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
    return PipelineConfig(
        dataset_root=args.dataset_root or "",
        output_root=args.out,
        variant=args.variant,
        split=args.split,
        seed=args.seed,
        learning_rate=args.learning_rate,
        batch_size=args.batch_size,
        max_epochs=args.max_epochs,
        patience=args.patience,
        inferior_only=args.inferior_only,
        force=args.force,
    )


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    cfg = _config_from_args(args, parser)
    stage = {
        "ingest": stage_ingest,
        "preprocess": stage_preprocess,
        "segment": stage_segment,
        "encode": stage_encode,
        "train": stage_train,
        "eval": stage_eval,
        "report": stage_report,
        "pipeline": stage_pipeline,
    }[args.command]
    try:
        stage(cfg)
    except (PipelineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
