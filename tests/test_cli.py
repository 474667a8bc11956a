"""End-to-end command-line pipeline tests over the synthetic corpus."""
import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from gafecg.cli import main
from gafecg.png_io import read_gray_png
from gafecg.synthetic import synth_ecg
from gafecg.wfdb_ingest import write_record


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
        trained = {int(r["fold"]): r for r in _read_csv(out / "train" / "ds1" / "results.csv")}
        scored = _read_csv(out / "eval" / "ds1" / "eval_results.csv")
        assert len(scored) == 10
        for row in scored:
            ref = trained[int(row["fold"])]
            for key in ("tp", "tn", "fp", "fn", "acc", "sen", "spe"):
                assert row[key] == ref[key], (row["fold"], key)

    def test_report_outputs(self, pipeline_run):
        out, _ = pipeline_run
        rows = _read_csv(out / "report" / "summary.csv")
        assert len(rows) == 1 and rows[0]["variant"] == "ds1"
        for key in ("mean_acc", "std_acc", "mean_sen", "std_sen", "mean_spe", "std_spe"):
            float(rows[0][key])
        text = (out / "report" / "report.txt").read_text()
        assert "seed: 3" in text
        assert "ds1" in text


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
    def test_segment_rejects_rate_the_detector_is_not_calibrated_for(
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
        assert main(["preprocess", *base]) == 0
        rows = _read_csv(out / "preprocess" / "signals.csv")
        assert [r["sampling_rate"] for r in rows] == ["500.0"] * 4
        capsys.readouterr()
        assert main(["segment", *base]) == 1
        err = capsys.readouterr().err
        assert err == "error: detector calibrated for 1000 Hz, got 500 Hz\n"
        assert not (out / "segment" / "beats_clean.csv").exists()
        # A signals.csv written before the rate was recorded is refused.
        signals = out / "preprocess" / "signals.csv"
        lines = signals.read_text().splitlines()
        signals.write_text("".join(f"{line.rsplit(',', 1)[0]}\n" for line in lines))
        assert main(["segment", *base]) == 1
        assert "has no sampling_rate; re-run preprocess" in capsys.readouterr().err


class TestEntryPoint:
    def test_module_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gafecg.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "pipeline" in proc.stdout
