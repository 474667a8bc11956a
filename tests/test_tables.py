"""Stage tables and atomic writes: one checked reader, one temp-then-rename writer."""
import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

import gafecg
from gafecg.cnn import load_checkpoint, model_init, reduced_layers, save_checkpoint
from gafecg.errors import BuildError
from gafecg.gaf_encode import MANIFEST_FIELDS
from gafecg.tables import read_table, write_table
from gafecg.train_eval import DatasetItem

FIELDS = ["record_id", "label", "r_peak_index"]
EXPECTED = "expected record_id, label, r_peak_index"
ROWS = [
    {"record_id": "patient001/s0010", "label": "mi", "r_peak_index": 1200},
    {"record_id": "patient002/s0020", "label": "healthy", "r_peak_index": 870},
]


def _siblings(path):
    return sorted(p.name for p in path.parent.iterdir())


class TestWriteTable:
    def test_csv_bytes_and_round_trip(self, tmp_path):
        path = tmp_path / "beats.csv"
        write_table(path, FIELDS, ROWS)
        assert path.read_bytes() == (
            b"record_id,label,r_peak_index\r\n"
            b"patient001/s0010,mi,1200\r\n"
            b"patient002/s0020,healthy,870\r\n"
        )
        assert read_table(path, FIELDS, "segment", parse={"r_peak_index": int}) == ROWS
        assert _siblings(path) == ["beats.csv"]

    def test_failure_part_way_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "beats.csv"
        write_table(path, FIELDS, ROWS)
        before = path.read_bytes()

        def rows():
            yield ROWS[0]
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            write_table(path, FIELDS, rows())
        assert path.read_bytes() == before
        assert _siblings(path) == ["beats.csv"]


class TestSaveCheckpoint:
    def test_failure_part_way_keeps_the_previous_file(self, tmp_path):
        model = model_init(seed=1, layers=reduced_layers(), input_shape=(16, 16))
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        before = path.read_bytes()
        # The last parameter tensor cannot be written, after every other one has been.
        model.params[-1] = np.array([object()], dtype=object)
        with pytest.raises(TypeError):
            save_checkpoint(model, path)
        assert path.read_bytes() == before
        assert _siblings(path) == ["model.ckpt"]
        load_checkpoint(path)


class TestReadTable:
    @pytest.mark.parametrize(
        "header, problem",
        [
            ("record_id,label", "has no r_peak_index"),
            ("", "has no record_id, label, r_peak_index"),
            ("record_id,label,r_peak_index,extra", f"has {', '.join(FIELDS)}, extra, {EXPECTED}"),
            ("label,record_id,r_peak_index", f"has label, record_id, r_peak_index, {EXPECTED}"),
        ],
        ids=["missing", "empty", "extra", "order"],
    )
    def test_header_must_be_the_declared_columns(self, tmp_path, header, problem):
        path = tmp_path / "beats.csv"
        path.write_text(f"{header}\n" if header else "")
        with pytest.raises(BuildError) as exc:
            read_table(path, FIELDS, "segment")
        assert str(exc.value) == f"{path}: bad columns: {problem}; re-run segment"

    @pytest.mark.parametrize(
        "line, message",
        [
            ("patient001/s0010,mi", "line 2: expected 3 cells"),
            ("patient001/s0010,mi,1200,7", "line 2: expected 3 cells"),
            ("patient001/s0010,mi,12.5", "line 2: bad r_peak_index '12.5'"),
        ],
        ids=["short", "long", "not-integer"],
    )
    def test_rows_must_be_whole_and_parse(self, tmp_path, line, message):
        path = tmp_path / "beats.csv"
        path.write_text(f"{','.join(FIELDS)}\n{line}\n")
        with pytest.raises(BuildError) as exc:
            read_table(path, FIELDS, "segment", parse={"r_peak_index": int})
        assert str(exc.value) == f"{path} {message}; re-run segment"

    def test_missing_file(self, tmp_path):
        path = tmp_path / "beats.csv"
        with pytest.raises(BuildError) as exc:
            read_table(path, FIELDS, "segment")
        assert str(exc.value) == f"missing {path}; re-run segment"


def test_only_tables_imports_csv():
    package = Path(gafecg.__file__).parent
    importers = []
    for source in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if "csv" in names:
                importers.append(source.name)
    assert importers == ["tables.py"]


def test_dataset_item_is_a_manifest_row():
    # load_variant builds DatasetItem(**row) from each manifest row.
    assert [f.name for f in dataclasses.fields(DatasetItem)] == MANIFEST_FIELDS
