"""End-to-end command-line pipeline tests over the synthetic corpus."""
import csv
import json
import re
import shlex
import shutil
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from gafecg import cli
from gafecg.cli import main
from gafecg.png_io import PNG_SIGNATURE, read_gray_png, write_gray_png
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


class TestStageOutputs:
    def test_stage_directories_and_configs(self, pipeline_run):
        out, _ = pipeline_run
        for stage_dir in (
            "ingest",
            "preprocess",
            "segment",
            "encode/ds1",
            "train/ds1",
            "eval/ds1",
            "report",
        ):
            config = out / stage_dir / "config.json"
            assert config.is_file(), stage_dir
            stored = json.loads(config.read_text())
            assert stored["variant"] == "ds1"
            assert stored["seed"] == 3
            assert "force" not in stored

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
        out, argv = pipeline_run
        # Same outputs, different seed: the stored config no longer matches.
        ingest_argv = ["ingest", *argv[1:]]
        seed_at = ingest_argv.index("--seed") + 1
        ingest_argv[seed_at] = "4"
        assert main(ingest_argv) == 0
        captured = capsys.readouterr()
        assert "up to date" not in captured.out
        # Restore the original configuration for later tests.
        assert main(["ingest", *argv[1:]]) == 0
        capsys.readouterr()


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
}


class TestUnreadableInputs:
    @pytest.mark.parametrize("case", UNREADABLE_INPUTS)
    def test_one_error_line(self, pipeline_run, toy_corpus, tmp_path, capsys, case):
        stage, pattern, corrupt = UNREADABLE_INPUTS[case]
        out = tmp_path / "out"
        skip = ["*.ckpt"] if pattern.endswith(".png") else ["*.ckpt", "*.png"]
        shutil.copytree(pipeline_run[0], out, ignore=shutil.ignore_patterns(*skip))
        damaged = sorted(out.glob(pattern))[0]
        corrupt(damaged)
        capsys.readouterr()
        argv = [stage, "--dataset-root", str(toy_corpus[0]), "--out", str(out)]
        assert main([*argv, "--variant", "ds1", "--force"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert str(damaged) in err[0]


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
