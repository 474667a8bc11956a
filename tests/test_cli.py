"""End-to-end command-line pipeline tests over the synthetic corpus."""
import csv
import hashlib
import json
import multiprocessing
import os
import re
import shlex
import shutil
import signal
import struct
import subprocess
import sys
import threading
import time
import zlib
from pathlib import Path

import numpy as np
import pytest

from gafecg import cli, gaf_encode, train_eval
from gafecg.cli import main
from gafecg.errors import PipelineError, UndefinedMetric
from gafecg.gaf_encode import MANIFEST_FIELDS, encode_beat
from gafecg.png_io import PNG_SIGNATURE, read_gray_png, write_gray_png
from gafecg.qrs_segment import Beat
from gafecg.synthetic import synth_ecg
from gafecg.train_eval import (
    ConfusionCounts,
    FoldResult,
    compute_metrics,
    summarize,
    write_results_csv,
)
from gafecg.wfdb_ingest import write_record

REPO = Path(__file__).resolve().parents[1]


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _copy_run(pipeline_run, out):
    """A copy of the pipeline's output root at ``out``, and the pipeline's
    argv pointed at it."""
    shutil.copytree(pipeline_run[0], out)
    argv = list(pipeline_run[1])
    argv[argv.index("--out") + 1] = str(out)
    return argv


def _without_dataset_root(argv):
    at = argv.index("--dataset-root")
    return argv[:at] + argv[at + 2:]


# Each stage's directory: the settings its key holds, and its upstream stage.
STAGE_KEYS = {
    "ingest": ({"dataset_root", "inferior_only"}, None),
    "preprocess": ({"dataset_root"}, "ingest"),
    "segment": (set(), "preprocess"),
    "encode/ds1": (set(), "segment"),
    "train/ds1": (
        {"split", "seed", "learning_rate", "batch_size", "max_epochs", "patience"},
        "encode/ds1",
    ),
    "eval/ds1": (set(), "train/ds1"),
    "report": ({"variant"}, "train/ds1"),
}


class TestStageOutputs:
    def test_stage_directories_and_configs(self, pipeline_run):
        out, _ = pipeline_run
        for stage_dir, (fields, upstream) in STAGE_KEYS.items():
            config = out / stage_dir / "config.json"
            assert config.is_file(), stage_dir
            stored = json.loads(config.read_text())
            assert set(stored) == fields | {"upstream"}, stage_dir
            digests = {}
            if upstream:
                key = (out / upstream / "config.json").read_bytes()
                digests[upstream] = hashlib.sha256(key).hexdigest()
            assert stored["upstream"] == digests, stage_dir
        train = json.loads((out / "train" / "ds1" / "config.json").read_text())
        assert train["seed"] == 3 and train["max_epochs"] == 2
        assert json.loads((out / "report" / "config.json").read_text())["variant"] == "ds1"

    def test_ingest_outputs(self, pipeline_run, toy_corpus):
        out, _ = pipeline_run
        _, truth = toy_corpus
        rows = _read_csv(out / "ingest" / "records.csv")
        assert [r["record_id"] for r in rows] == sorted(truth)
        for row in rows:
            assert row["label"] == truth[row["record_id"]]["label"]
        report = (out / "ingest" / "ingest_report.txt").read_text()
        assert "records: total=6 healthy=3 mi=3 skipped=0" in report
        assert "subjects: healthy=3 mi=3" in report
        assert (out / "ingest" / "skipped.txt").read_text() == ""

    def test_preprocess_outputs(self, pipeline_run):
        out, _ = pipeline_run
        rows = _read_csv(out / "preprocess" / "signals.csv")
        assert len(rows) == 12  # 6 records x (raw, denoised)
        assert {r["noise_variant"] for r in rows} == {"noisy", "clean"}
        for row in rows:
            samples = np.load(out / "preprocess" / row["path"])
            assert len(samples) == int(row["n_samples"]) == 25000

    def test_segment_outputs(self, pipeline_run, toy_corpus):
        out, _ = pipeline_run
        _, truth = toy_corpus
        report = (out / "segment" / "segment_report.txt").read_text()
        assert "reference: healthy=10139 mi=30128 total=40267" in report
        for noise_variant in ("noisy", "clean"):
            beats = np.load(out / "segment" / f"beats_{noise_variant}.npy")
            rows = _read_csv(out / "segment" / f"beats_{noise_variant}.csv")
            assert beats.dtype == np.float32
            assert beats.shape == (len(rows), 651)
            assert f"{noise_variant}: beats healthy=" in report
            # Every truth R peak yields one beat at this noise level.
            per_record = {}
            for row in rows:
                per_record[row["record_id"]] = per_record.get(row["record_id"], 0) + 1
            for record_id, info in truth.items():
                assert per_record[record_id] == len(info["r_indices"]), (
                    noise_variant,
                    record_id,
                )

    def test_encode_outputs(self, pipeline_run):
        out, _ = pipeline_run
        seg_rows = _read_csv(out / "segment" / "beats_noisy.csv")
        manifest = _read_csv(out / "encode" / "ds1" / "manifest.csv")
        assert len(manifest) == len(seg_rows)
        assert {r["kind"] for r in manifest} == {"gasf"}
        assert {r["noise_variant"] for r in manifest} == {"noisy"}
        pngs = sorted(p.name for p in (out / "encode" / "ds1").glob("*.png"))
        assert pngs == sorted(r["path"] for r in manifest)
        sample = read_gray_png(out / "encode" / "ds1" / manifest[0]["path"])
        assert sample.shape == (128, 128)

    def test_train_outputs(self, pipeline_run):
        out, _ = pipeline_run
        train_dir = out / "train" / "ds1"
        rows = _read_csv(train_dir / "results.csv")
        assert [int(r["fold"]) for r in rows] == list(range(10))
        assert {r["variant"] for r in rows} == {"ds1"}
        checkpoints = sorted(p.name for p in train_dir.glob("*.ckpt"))
        assert checkpoints == [f"ds1_fold{i:02d}.ckpt" for i in range(10)]
        assert (train_dir / "curves.csv").is_file()
        assert "variant: ds1" in (train_dir / "report.txt").read_text()

    def test_eval_matches_train(self, pipeline_run):
        out, _ = pipeline_run
        scored = out / "eval" / "ds1" / "eval_results.csv"
        assert len(_read_csv(scored)) == 10
        assert scored.read_bytes() == (out / "train" / "ds1" / "results.csv").read_bytes()

    def test_report_outputs(self, pipeline_run):
        out, _ = pipeline_run
        rows = _read_csv(out / "report" / "summary.csv")
        assert len(rows) == 1 and rows[0]["variant"] == "ds1"
        for key in ("mean_acc", "std_acc", "mean_sen", "std_sen", "mean_spe", "std_spe"):
            float(rows[0][key])
        text = (out / "report" / "report.txt").read_text()
        assert "seed: 3" in text
        assert "ds1" in text


class TestReport:
    def test_summary_comes_from_the_counts(self, tmp_path):
        # Counts whose 2-decimal metrics do not average to the exact mean.
        results = []
        for fold in range(10):
            counts = ConfusionCounts(
                tp=3001 + 7 * fold, tn=997 + 3 * fold, fp=fold % 7, fn=(3 * fold) % 5
            )
            results.append(FoldResult(fold, "ds1", counts, compute_metrics(counts), 4))
        train_dir = tmp_path / "out" / "train" / "ds1"
        train_dir.mkdir(parents=True)
        write_results_csv(results, train_dir / "results.csv")
        assert main(["report", "--out", str(tmp_path / "out"), "--variant", "ds1"]) == 0
        (row,) = _read_csv(tmp_path / "out" / "report" / "summary.csv")
        stats = summarize(results)
        names = {"acc": "accuracy", "sen": "sensitivity", "spe": "specificity"}
        for short, name in names.items():
            mean, std = stats[name]
            assert row[f"mean_{short}"] == f"{mean:.4f}", short
            assert row[f"std_{short}"] == f"{std:.4f}", short
        text = (tmp_path / "out" / "report" / "report.txt").read_text()
        assert f"{stats['accuracy'][0]:>8.4f}+-{stats['accuracy'][1]:<7.4f}" in text

    @pytest.mark.parametrize("stage", ["report", "eval"])
    def test_results_file_with_wrong_header_is_one_error_line(
        self, pipeline_run, tmp_path, capsys, stage
    ):
        out, _ = pipeline_run
        copy = tmp_path / "out"
        # Checkpoints are left out: the header is checked before any is read.
        shutil.copytree(out, copy, ignore=shutil.ignore_patterns("*.ckpt"))
        results_csv = copy / "train" / "ds1" / "results.csv"
        # The nine columns eval_results.csv had before it gained epochs_run.
        lines = results_csv.read_text().splitlines()
        results_csv.write_text("".join(f"{line.rsplit(',', 1)[0]}\n" for line in lines))
        capsys.readouterr()
        argv = [stage, "--out", str(copy), "--variant", "ds1", "--seed", "3", "--force"]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert str(results_csv) in err[0]


class TestResumability:
    def test_second_run_skips_everything(self, pipeline_run, capsys):
        out, argv = pipeline_run
        results = out / "train" / "ds1" / "results.csv"
        before = results.stat().st_mtime_ns
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "[ingest] up to date, skipping" in captured.out
        assert "[train:ds1] up to date, skipping" in captured.out
        assert "[report] up to date, skipping" in captured.out
        assert results.stat().st_mtime_ns == before

    def test_force_reruns_a_stage(self, pipeline_run, capsys):
        out, argv = pipeline_run
        marker = out / "segment" / "beats_clean.csv"
        before_bytes = marker.read_bytes()
        before_mtime = marker.stat().st_mtime_ns
        segment_argv = ["segment", *argv[1:], "--force"]
        assert main(segment_argv) == 0
        captured = capsys.readouterr()
        assert "up to date" not in captured.out
        assert marker.stat().st_mtime_ns > before_mtime
        assert marker.read_bytes() == before_bytes  # deterministic rebuild

    def test_changed_config_invalidates_stage(self, pipeline_run, tmp_path, capsys):
        argv = _copy_run(pipeline_run, tmp_path / "out")
        # Every toy infarction is inferior, so ingest's outputs stay the same;
        # its stored setting no longer matches.
        assert main(["ingest", *argv[1:], "--inferior-only"]) == 0
        assert "up to date" not in capsys.readouterr().out
        # preprocess and segment read no setting that changed, but each one's
        # upstream stage now stores another key.
        for stage in ("preprocess", "segment"):
            assert main([stage, *argv[1:]]) == 0
            assert "up to date" not in capsys.readouterr().out, stage
        assert main(["segment", *argv[1:]]) == 0
        assert capsys.readouterr().out == "[segment] up to date, skipping\n"

    def test_hyperparameter_change_reruns_train_only(self, pipeline_run, tmp_path, capsys):
        argv = _copy_run(pipeline_run, tmp_path / "out")
        argv[argv.index("--epochs") + 1] = "3"
        assert main(argv) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[:4] == [
            f"[{stage}] up to date, skipping"
            for stage in ("ingest", "preprocess", "segment", "encode:ds1")
        ]
        assert [line.split("]")[0] for line in out[4:]] == ["[train:ds1", "[eval:ds1", "[report"]
        assert "up to date" not in "".join(out[4:])

    def test_stage_run_alone_after_pipeline_skips(self, pipeline_run, tmp_path, capsys):
        argv = _without_dataset_root(_copy_run(pipeline_run, tmp_path / "out"))
        for stage in ("segment", "encode", "train", "eval", "report"):
            assert main([stage, *argv[1:]]) == 0
            label = f"{stage}:ds1" if stage in ("encode", "train", "eval") else stage
            assert capsys.readouterr().out == f"[{label}] up to date, skipping\n"

    def test_dataset_root_spellings_share_a_key(self, toy_corpus, tmp_path, capsys, monkeypatch):
        root, _ = toy_corpus
        monkeypatch.chdir(root.parent)
        out = tmp_path / "out"
        for i, spelling in enumerate([root.name, f"./{root.name}", str(root)]):
            assert main(["ingest", "--dataset-root", spelling, "--out", str(out)]) == 0
            skipped = capsys.readouterr().out == "[ingest] up to date, skipping\n"
            assert skipped == (i > 0), spelling

    def test_copied_output_root_is_current(self, pipeline_run, tmp_path, capsys):
        argv = _copy_run(pipeline_run, tmp_path / "out")
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"[{label}] up to date, skipping"
            for label in (
                "ingest", "preprocess", "segment", "encode:ds1", "train:ds1", "eval:ds1", "report"
            )
        ]


class TestTrainedSettings:
    """eval and report refuse settings that train did not use."""

    @pytest.mark.parametrize(
        "change, message",
        [
            (["--seed", "0"], "error: train/ds1 used seed 3, not 0"),
            (["--batch", "4"], "error: train/ds1 used batch_size 8, not 4"),
        ],
        ids=["seed", "batch"],
    )
    def test_eval(self, pipeline_run, tmp_path, capsys, change, message):
        argv = _copy_run(pipeline_run, tmp_path / "out")
        capsys.readouterr()
        assert main(["eval", *argv[1:], *change, "--force"]) == 1
        assert capsys.readouterr().err == message + "\n"

    def test_report(self, pipeline_run, tmp_path, capsys):
        out = tmp_path / "out"
        shutil.copytree(pipeline_run[0], out)
        before = (out / "report" / "report.txt").read_text()
        capsys.readouterr()
        assert main(["report", "--out", str(out), "--variant", "ds1", "--force"]) == 1
        assert capsys.readouterr().err == "error: train/ds1 used seed 3, not 0\n"
        assert (out / "report" / "report.txt").read_text() == before


class TestFailureModes:
    def test_train_without_encode_fails(self, tmp_path, capsys):
        code = main(["train", "--out", str(tmp_path / "fresh"), "--variant", "ds1"])
        assert code == 1
        err = capsys.readouterr().err
        assert "manifest.csv" in err
        assert "encode" in err

    def test_eval_without_train_fails(self, pipeline_run, tmp_path, capsys):
        code = main(["eval", "--out", str(tmp_path / "fresh"), "--variant", "ds1"])
        assert code == 1
        assert "train" in capsys.readouterr().err

    def test_missing_dataset_root_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pipeline", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "--dataset-root" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ingest", "--out", str(tmp_path / "o"), "--fast"])
        assert exc.value.code == 2

    def test_missing_out_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["report"])
        assert exc.value.code == 2

    def test_unknown_variant_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--out", str(tmp_path / "o"), "--variant", "ds7"])
        assert exc.value.code == 2


def _rename_column(old, new):
    def corrupt(path):
        header, rest = path.read_text().split("\n", 1)
        path.write_text(header.replace(old, new) + "\n" + rest)

    return corrupt


def _truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def _edit_first_row(edit):
    """Damage the first data row of a CSV file: edit(header, cells) -> cells."""

    def corrupt(path):
        header, first, *rest = path.read_text().splitlines()
        cells = edit(header.split(","), first.split(","))
        path.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")

    return corrupt


def _set_cell(column, value):
    def edit(header, cells):
        cells[header.index(column)] = value
        return cells

    return _edit_first_row(edit)


def _keep_cells(n):
    return _edit_first_row(lambda header, cells: cells[:n])


def _keep_header(path):
    path.write_text(path.read_text().splitlines()[0] + "\n")


def _add_column(path):
    path.write_text("".join(f"{line},x\n" for line in path.read_text().splitlines()))


def _swap_first_columns(path):
    rows = [line.split(",") for line in path.read_text().splitlines()]
    path.write_text("".join(",".join([r[1], r[0], *r[2:]]) + "\n" for r in rows))


def _delete(path):
    path.unlink()


def _write_png(path, ihdr, rows):
    """Write a PNG with the given IHDR payload and inflated IDAT rows."""
    chunks = [(b"IHDR", ihdr), (b"IDAT", zlib.compress(rows)), (b"IEND", b"")]
    path.write_bytes(PNG_SIGNATURE + b"".join(
        struct.pack(">I", len(payload)) + tag + payload
        + struct.pack(">I", zlib.crc32(tag + payload))
        for tag, payload in chunks
    ))


def _short_ihdr(path):
    height, width = read_gray_png(path).shape
    ihdr = struct.pack(">IIBBBB", width, height, 8, 0, 0, 0)  # 12 bytes
    _write_png(path, ihdr, bytes(height * (width + 1)))


def _zero_width(path):
    height = read_gray_png(path).shape[0]
    _write_png(path, struct.pack(">IIBBBBB", 0, height, 8, 0, 0, 0, 0), bytes(height))


def _half_size(path):
    write_gray_png(path, read_gray_png(path)[::2, ::2])


# stage, the input it reads (a glob under the output root), how it is damaged
UNREADABLE_INPUTS = {
    "records-without-record_id": (
        "preprocess", "ingest/records.csv", _rename_column("record_id", "rid")
    ),
    "signals-without-path": (
        "segment", "preprocess/signals.csv", _rename_column("path", "file")
    ),
    "beats-without-r_peak_index": (
        "encode", "segment/beats_noisy.csv", _rename_column("r_peak_index", "r")
    ),
    "truncated-signal-npy": ("segment", "preprocess/*__noisy.npy", _truncate),
    "truncated-beats-npy": ("encode", "segment/beats_noisy.npy", _truncate),
    "signals-label-misspelled": (
        "segment", "preprocess/signals.csv", _set_cell("label", "heathy")
    ),
    "signals-short-row": ("segment", "preprocess/signals.csv", _keep_cells(4)),
    "beats-r_peak_index-not-integer": (
        "encode", "segment/beats_noisy.csv", _set_cell("r_peak_index", "12.5")
    ),
    "results-short-row-eval": ("eval", "train/ds1/results.csv", _keep_cells(4)),
    "results-short-row-report": ("report", "train/ds1/results.csv", _keep_cells(4)),
    "results-without-folds": ("report", "train/ds1/results.csv", _keep_header),
    "png-short-ihdr": ("train", "encode/ds1/*.png", _short_ihdr),
    "png-zero-size": ("train", "encode/ds1/*.png", _zero_width),
    "png-wrong-size": ("train", "encode/ds1/*.png", _half_size),
    "manifest-r_peak_index-not-integer": (
        "train", "encode/ds1/manifest.csv", _set_cell("r_peak_index", "12.5")
    ),
    "manifest-short-row": ("train", "encode/ds1/manifest.csv", _keep_cells(4)),
    "truncated-checkpoint-eval": ("eval", "train/ds1/*.ckpt", _truncate),
    "records-extra-column": ("preprocess", "ingest/records.csv", _add_column),
    "beats-columns-swapped": ("encode", "segment/beats_noisy.csv", _swap_first_columns),
    "records-short-row": ("preprocess", "ingest/records.csv", _keep_cells(1)),
    "missing-records": ("preprocess", "ingest/records.csv", _delete),
    "missing-signals": ("segment", "preprocess/signals.csv", _delete),
    "missing-signal-npy": ("segment", "preprocess/*__noisy.npy", _delete),
    "missing-beats-csv": ("encode", "segment/beats_noisy.csv", _delete),
    "missing-beats-npy": ("encode", "segment/beats_noisy.npy", _delete),
    "missing-manifest-train": ("train", "encode/ds1/manifest.csv", _delete),
    "missing-manifest-eval": ("eval", "encode/ds1/manifest.csv", _delete),
    "missing-png": ("train", "encode/ds1/*.png", _delete),
    "missing-results-eval": ("eval", "train/ds1/results.csv", _delete),
    "missing-results-report": ("report", "train/ds1/results.csv", _delete),
    "missing-checkpoint-eval": ("eval", "train/ds1/*.ckpt", _delete),
}


class TestUnreadableInputs:
    @pytest.mark.parametrize("case", UNREADABLE_INPUTS)
    def test_one_error_line(self, pipeline_run, tmp_path, capsys, case):
        stage, pattern, corrupt = UNREADABLE_INPUTS[case]
        out = tmp_path / "out"
        # PNGs and checkpoints are copied only for the cases that damage them.
        skip = {".png": ["*.ckpt"], ".ckpt": []}.get(
            Path(pattern).suffix, ["*.ckpt", "*.png"]
        )
        shutil.copytree(pipeline_run[0], out, ignore=shutil.ignore_patterns(*skip))
        damaged = sorted(out.glob(pattern))[0]
        corrupt(damaged)
        capsys.readouterr()
        argv = [stage, *pipeline_run[1][1:], "--force"]
        argv[argv.index("--out") + 1] = str(out)
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert str(damaged) in err[0]


def _segment_only(pipeline_out, out, n_beats=None):
    """An output root holding only ``pipeline_out``'s segment stage, cut to
    its first ``n_beats`` beats per noise variant when given."""
    shutil.copytree(pipeline_out / "segment", out / "segment")
    for noise in cli.NOISE_VARIANTS if n_beats is not None else ():
        npy = out / "segment" / f"beats_{noise}.npy"
        table = out / "segment" / f"beats_{noise}.csv"
        lines = table.read_text().splitlines()[: n_beats + 1]
        assert len(lines) == n_beats + 1
        np.save(npy, np.load(npy)[:n_beats])
        table.write_text("\n".join(lines) + "\n")
    return out


def _fail_on_image(monkeypatch, n):
    """Make the ``n``-th PNG written raise OSError."""
    calls = []
    real = gaf_encode.write_gray_png

    def write(path, pixels):
        calls.append(path)
        if len(calls) == n:
            raise OSError(f"disk full writing {path.name}")
        real(path, pixels)

    monkeypatch.setattr(gaf_encode, "write_gray_png", write)


class TestChunkedEncode:
    @pytest.mark.parametrize("n_beats", [63, 64, 65, 129])
    def test_same_bytes_as_per_image_writes(self, pipeline_run, tmp_path, capsys, n_beats):
        out = _segment_only(pipeline_run[0], tmp_path / "out", n_beats)
        assert cli.ENCODE_CHUNK == 64
        assert main(["encode", "--out", str(out), "--variant", "all"]) == 0
        for variant, (noise, kind) in train_eval.VARIANTS.items():
            samples = np.load(out / "segment" / f"beats_{noise}.npy")
            meta = _read_csv(out / "segment" / f"beats_{noise}.csv")
            expected = tmp_path / "expected" / variant
            expected.mkdir(parents=True)
            rows = []
            for row, beat in zip(meta, samples):
                image = encode_beat(
                    Beat(beat.astype(np.float64), row["record_id"],
                         int(row["r_peak_index"]), row["label"]),
                    kind,
                )
                write_gray_png(expected / image.file_name, image.pixels)
                rows.append([image.file_name, row["label"], row["record_id"],
                             row["r_peak_index"], kind, noise])
            with open(expected / "manifest.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(MANIFEST_FIELDS)
                writer.writerows(sorted(rows))
            written = out / "encode" / variant
            names = sorted(p.name for p in written.iterdir() if p.name != "config.json")
            assert names == sorted(p.name for p in expected.iterdir())
            assert len(names) == n_beats + 1
            for name in names:
                assert (written / name).read_bytes() == (expected / name).read_bytes(), name

    @pytest.mark.parametrize("encode_fails", [False, True])
    def test_writer_failure_is_one_error_line(
        self, pipeline_run, tmp_path, capsys, monkeypatch, encode_fails
    ):
        out = _segment_only(pipeline_run[0], tmp_path / "out")
        _fail_on_image(monkeypatch, 70)  # in the second chunk
        if encode_fails:
            # Encoding the third chunk fails too, while the second is being
            # written; the write came first, so its error is the one reported.
            real, calls = cli.encode_beats, []

            def encode(beats, kind):
                calls.append(len(beats))
                if len(calls) == 3:
                    raise PipelineError("encode failed in chunk 2")
                return real(beats, kind)

            monkeypatch.setattr(cli, "encode_beats", encode)
        threads = threading.active_count()
        assert main(["encode", "--out", str(out), "--variant", "ds1"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: disk full writing"), err
        assert not (out / "encode" / "ds1" / "manifest.csv").exists()
        assert not (out / "encode" / "ds1" / "config.json").exists()
        assert threading.active_count() == threads


class TestAbortedRerun:
    """A re-run with changed settings that dies part-way leaves the stage
    unmarked, so going back to the old settings runs it again."""

    def test_encode(self, pipeline_run, tmp_path, capsys, monkeypatch):
        out = _segment_only(pipeline_run[0], tmp_path / "out")
        argv = ["encode", "--out", str(out), "--variant", "ds1", "--seed", "3"]
        assert main(argv) == 0
        with monkeypatch.context() as patch:
            _fail_on_image(patch, 70)
            # encode reads no setting, so the re-run that dies is a forced one.
            assert main([*argv, "--force"]) == 1
        capsys.readouterr()
        assert main(argv) == 0
        assert "up to date" not in capsys.readouterr().out

    def test_train(self, pipeline_run, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        shutil.copytree(pipeline_run[0], out)
        argv = ["train", *pipeline_run[1][1:]]
        argv[argv.index("--out") + 1] = str(out)
        assert main(argv) == 0
        assert "[train:ds1] up to date, skipping" in capsys.readouterr().out
        real = train_eval.train_fold

        def die_in_fold(k, message):
            def train_fold(variant, plan, fold, **kwargs):
                if fold == k:
                    raise PipelineError(message)
                return real(variant, plan, fold, **kwargs)

            return train_fold

        monkeypatch.setattr(train_eval, "train_fold", die_in_fold(1, "killed in fold 1"))
        assert main([*argv, "--lr", "0.002"]) == 1
        monkeypatch.setattr(train_eval, "train_fold", die_in_fold(0, "train re-ran"))
        capsys.readouterr()
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "up to date" not in captured.out
        assert captured.err == "error: fold 0: train re-ran\n"


def _train_argv(pipeline_run, out):
    """``gafecg train --force`` on a copy of the pipeline's output root."""
    argv = _copy_run(pipeline_run, out)
    return ["train", *argv[1:], "--force"]


def _digests(directory):
    return {
        p.relative_to(directory).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*")) if p.is_file()
    }


def _quick_folds(k, fail):
    """A train_fold that calls ``fail()`` in fold ``k``; the other folds
    return a result after a short sleep, so fold k fails out of order."""
    def train_fold(variant, plan, fold, **kwargs):
        if fold == k:
            fail()
        time.sleep(0.2)
        counts = ConfusionCounts(1, 1, 0, 0)
        return FoldResult(fold, variant.variant_id, counts, compute_metrics(counts), 1)

    return train_fold


class TestParallelFolds:
    """train_run trains the folds in forked worker processes, one per usable CPU."""

    def test_fold_error_is_one_line_naming_the_fold(
        self, pipeline_run, tmp_path, capsys, monkeypatch
    ):
        argv = _train_argv(pipeline_run, tmp_path / "out")

        def fail():
            raise UndefinedMetric("no negative ground truth; specificity undefined")

        monkeypatch.setattr(train_eval, "train_fold", _quick_folds(7, fail))
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == "error: fold 7: no negative ground truth; specificity undefined\n"
        assert multiprocessing.active_children() == []

    def test_dead_worker_is_one_error_line(self, pipeline_run, tmp_path, capsys, monkeypatch):
        argv = _train_argv(pipeline_run, tmp_path / "out")
        monkeypatch.setattr(train_eval, "train_fold", _quick_folds(3, lambda: os._exit(3)))
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: a training worker died") and err.count("\n") == 1, err
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("stop", ["ctrl-c", "kill the parent"])
    def test_stopping_a_run_ends_every_worker_at_once(self, pipeline_run, tmp_path, stop):
        # 50 epochs make each fold take far longer than the waits below.
        argv = [*_train_argv(pipeline_run, tmp_path / "out"), "--epochs", "50", "--patience", "50"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "gafecg.cli", *argv],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True,
        )
        try:
            time.sleep(3)
            if stop == "ctrl-c":
                os.killpg(proc.pid, signal.SIGINT)  # the whole process group
            else:
                proc.kill()  # the parent alone, which cannot clean up
            proc.wait(timeout=10)  # no fold runs on after the stop
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                try:
                    os.killpg(proc.pid, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.1)
            with pytest.raises(ProcessLookupError):
                os.killpg(proc.pid, 0)  # no process is left in the group
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()

    def test_outputs_do_not_depend_on_the_worker_count(
        self, pipeline_run, tmp_path, capsys, monkeypatch
    ):
        real = train_eval.train_fold
        digests = {}
        for cpus in ({0}, {0, 1}):
            out = tmp_path / f"cpus{len(cpus)}"
            argv = _train_argv(pipeline_run, out)
            pids = tmp_path / f"pids{len(cpus)}"
            pids.mkdir()

            def train_fold(*args, _pids=pids, **kwargs):
                (_pids / str(os.getpid())).touch()
                return real(*args, **kwargs)

            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, _cpus=cpus: _cpus)
            monkeypatch.setattr(train_eval, "train_fold", train_fold)
            assert main(argv) == 0
            assert len(list(pids.iterdir())) == len(cpus)  # the number of workers
            digests[len(cpus)] = _digests(out / "train")
        assert digests[1] == digests[2]
        assert multiprocessing.active_children() == []

    def test_outputs_do_not_depend_on_the_blas_thread_count(
        self, pipeline_run, tmp_path, capsys
    ):
        digests = {}
        for threads in (2, 1):
            library = train_eval.pin_blas_threads(threads)
            if library == "unpinned":
                pytest.skip("this BLAS's thread count cannot be set")
            out = tmp_path / f"threads{threads}"
            assert main(_train_argv(pipeline_run, out)) == 0
            digests[threads] = _digests(out / "train")
        one, two = digests[1], digests[2]
        differ = sorted(k for k in one if one[k] != two.get(k))
        assert one == two, f"{library} at 1 and 2 threads: {differ} differ"


class TestPerfbenchContract:
    """perfbench wraps package functions by name from outside; these pin the
    names and the call shapes it relies on."""

    @pytest.fixture(scope="class")
    def workloads(self):
        sys.path.insert(0, str(REPO / "perfbench"))
        try:
            import workloads
        finally:
            sys.path.remove(str(REPO / "perfbench"))
        return workloads

    def test_every_boundary_exists(self, workloads):
        for name, workload in workloads.WORKLOADS.items():
            for module, attr, _ in workload.boundaries:
                assert callable(getattr(module, attr, None)), (name, module.__name__, attr)

    def test_encode_calls_are_sized(
        self, workloads, pipeline_run, tmp_path, capsys, monkeypatch
    ):
        out = _segment_only(pipeline_run[0], tmp_path / "out")
        items: dict[str, list[int]] = {}
        for module, attr, classify in workloads.Frontend.boundaries:
            if module is cli and attr in ("encode_beats", "write_images"):
                real = getattr(cli, attr)

                def traced(*args, _real=real, _classify=classify, **kwargs):
                    name, n = _classify(*args, **kwargs)
                    items.setdefault(name, []).append(n)
                    return _real(*args, **kwargs)

                monkeypatch.setattr(cli, attr, traced)
        assert main(["encode", "--out", str(out), "--variant", "all"]) == 0
        beats = sum(
            len(np.load(out / "segment" / f"beats_{noise}.npy"))
            for noise, _ in train_eval.VARIANTS.values()
        )
        assert set(items) == {"gaf_encode.encode", "gaf_encode.write"}
        for name, sizes in items.items():
            assert sum(sizes) == beats, name
            assert max(sizes) <= cli.ENCODE_CHUNK, name

    def test_each_stage_is_called_once_per_command(
        self, pipeline_run, tmp_path, capsys, monkeypatch
    ):
        # The cli.<stage> spans wrap cli.stage_<name>, so main and pipeline
        # must look a stage up by name when they call it.
        calls = []
        for name in (*cli.STAGES, "pipeline"):

            def counted(cfg, _real=getattr(cli, f"stage_{name}"), _name=name):
                calls.append(_name)
                return _real(cfg)

            monkeypatch.setattr(cli, f"stage_{name}", counted)
        out = _segment_only(pipeline_run[0], tmp_path / "encoded")
        assert main(["encode", "--out", str(out), "--variant", "all"]) == 0
        assert calls == ["encode"]
        calls.clear()
        argv = _copy_run(pipeline_run, tmp_path / "out")
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out.count("up to date, skipping") == len(cli.STAGES)
        assert calls == ["pipeline", *cli.STAGES]


class TestRecordFilters:
    def test_inferior_only_drops_other_sites(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        mv = synth_ecg(10.0, bpm=70, seed=1).samples
        write_record(
            root / "patient001", "s0001", mv,
            comments=["Reason for admission: Healthy control"],
        )
        write_record(
            root / "patient002", "s0002", mv,
            comments=[
                "Reason for admission: Myocardial infarction",
                "Acute infarction (localization): inferior",
            ],
        )
        write_record(
            root / "patient003", "s0003", mv,
            comments=[
                "Reason for admission: Myocardial infarction",
                "Acute infarction (localization): antero-septal",
            ],
        )
        out = tmp_path / "out"
        code = main(
            [
                "ingest",
                "--dataset-root", str(root),
                "--out", str(out),
                "--inferior-only",
            ]
        )
        assert code == 0
        rows = _read_csv(out / "ingest" / "records.csv")
        assert [r["record_id"] for r in rows] == [
            "patient001/s0001",
            "patient002/s0002",
        ]
        skipped = (out / "ingest" / "skipped.txt").read_text()
        assert "patient003/s0003\tnon-inferior infarction excluded" in skipped


class TestSamplingRate:
    def test_preprocess_rejects_rate_the_denoiser_is_not_calibrated_for(
        self, tmp_path, capsys
    ):
        root = tmp_path / "corpus"
        for i, reason in enumerate(("Healthy control", "Myocardial infarction")):
            ecg = synth_ecg(20.0, bpm=70, sampling_rate=500.0, seed=i)
            write_record(
                root / f"patient00{i}", "s0001", ecg.samples, sampling_rate=500.0,
                comments=[f"Reason for admission: {reason}"],
            )
        out = tmp_path / "out"
        base = ["--dataset-root", str(root), "--out", str(out)]
        assert main(["ingest", *base]) == 0
        capsys.readouterr()
        assert main(["preprocess", *base]) == 1
        err = capsys.readouterr().err
        assert err == "error: denoiser calibrated for 1000 Hz, got 500 Hz\n"
        assert not (out / "preprocess" / "signals.csv").exists()

    def test_segment_rejects_rate_the_detector_is_not_calibrated_for(
        self, pipeline_run, tmp_path, capsys
    ):
        out = tmp_path / "out"
        shutil.copytree(pipeline_run[0] / "preprocess", out / "preprocess")
        signals = out / "preprocess" / "signals.csv"
        lines = signals.read_text().splitlines()
        assert lines[0].endswith(",sampling_rate")
        assert all(line.endswith(",1000.0") for line in lines[1:])
        rows = "".join(f"{line.rsplit(',', 1)[0]},500.0\n" for line in lines[1:])
        signals.write_text(f"{lines[0]}\n{rows}")
        capsys.readouterr()
        assert main(["segment", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: detector calibrated for 1000 Hz, got 500 Hz\n"
        assert not (out / "segment" / "beats_clean.csv").exists()
        # A signals.csv written before the rate was recorded is refused.
        signals.write_text("".join(f"{line.rsplit(',', 1)[0]}\n" for line in lines))
        assert main(["segment", "--out", str(out)]) == 1
        assert "has no sampling_rate; re-run preprocess" in capsys.readouterr().err


class TestReadme:
    def test_commands_parse(self):
        """Every CLI command in README.md's code blocks is one the CLI accepts."""
        readme = (REPO / "README.md").read_text()
        blocks = re.findall(r"^```\w*\n(.*?)^```", readme, re.M | re.S)
        commands = []
        for line in "\n".join(blocks).replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["gafecg"]:
                commands.append(words[1:])
            elif words[:3] == ["python3", "-m", "gafecg.cli"]:
                commands.append(words[3:])
            elif len(words) > 1 and words[0] == "python3" and words[1].endswith(".py"):
                assert (REPO / words[1]).is_file(), line
        assert len(commands) >= 2
        for argv in commands:
            parser = cli._build_parser()
            cli._config_from_args(parser.parse_args(argv), parser)


class TestEntryPoint:
    def test_module_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gafecg.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "pipeline" in proc.stdout
