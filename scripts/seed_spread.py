#!/usr/bin/env python3
"""Seed-to-seed spread of 10-fold training on one small synthetic archive.

Writes a toy archive of 2 healthy and 2 infarction subjects, 12 s each
(about 55 beats), runs the ds4 front end on it once, then runs
`gafecg train --variant ds4 --split beat --batch 8` at the first ``--seeds``
seeds, from ``--first-seed`` on, whose beat split puts both classes in every
held-out fold. A seed whose split leaves a fold with one class is skipped
and counted: its training run would abort on an undefined metric.

Prints one JSON line per trained seed (mean held-out accuracy, sensitivity
and specificity over the folds, in percent), then one JSON line with the
skipped seeds, the BLAS that ran, and the min, max, mean and std of each
metric over the seeds. Run from the repository root, for example:

    PYTHONPATH=src python3 scripts/seed_spread.py --out /tmp/spread --epochs 20 --patience 3
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
from pathlib import Path

import numpy as np

from gafecg import cli, train_eval
from gafecg.synthetic import write_toy_corpus

METRICS = ("accuracy", "sensitivity", "specificity")


def run_cli(argv: list) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise SystemExit(f"gafecg {argv[0]} exited {code}")


def both_classes_in_every_fold(variant: train_eval.DatasetVariant, seed: int) -> bool:
    folds = train_eval.make_folds(variant, k=cli.FOLDS, seed=seed, split="beat").assignments
    labels = variant.labels
    return all(0 < labels[folds == f].sum() < (folds == f).sum() for f in range(cli.FOLDS))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path, help="work directory to create")
    count = cli._positive(int)
    parser.add_argument("--seeds", type=count, default=10, help="seeds to train")
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--data-seed", type=int, default=1, help="seed of the archive")
    parser.add_argument("--epochs", type=count, default=2)
    parser.add_argument("--patience", type=count, default=2)
    args = parser.parse_args()

    archive, out = args.out / "archive", args.out / "out"
    write_toy_corpus(archive, n_healthy=2, n_mi=2, duration_s=12.0, seed=args.data_seed)
    for stage in cli.STAGES[:4]:  # ingest through encode
        run_cli([stage, "--dataset-root", archive, "--out", out, "--variant", "ds4"])
    variant = train_eval.load_variant(out / "encode" / "ds4", "ds4")

    rows, skipped, seed = [], [], args.first_seed
    while len(rows) < args.seeds:
        if not both_classes_in_every_fold(variant, seed):
            skipped.append(seed)
            seed += 1
            continue
        run_cli([
            "train", "--out", out, "--variant", "ds4", "--split", "beat", "--seed", seed,
            "--batch", 8, "--epochs", args.epochs, "--patience", args.patience, "--force",
        ])
        results = train_eval.read_results_csv(out / "train" / "ds4" / "results.csv")
        means = {name: mean for name, (mean, _) in train_eval.summarize(results).items()}
        rows.append({"seed": seed, **{m: round(means[m], 4) for m in METRICS}})
        print(json.dumps(rows[-1]), flush=True)
        seed += 1

    summary = {
        "beats": len(variant.labels),
        "skipped_seeds": skipped,
        "blas": train_eval.pin_blas_threads(1),
        "epochs": args.epochs,
        "patience": args.patience,
    }
    for name in METRICS:
        values = np.array([row[name] for row in rows])
        summary[name] = {
            "min": float(values.min()),
            "max": float(values.max()),
            "mean": round(float(values.mean()), 4),
            "std": round(float(values.std()), 4),
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
