"""Header parsing, signal decoding, labeling, and dataset scan tests."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gafecg.errors import (
    IoError,
    LeadNotFound,
    ParseError,
    UnlabeledRecord,
    UnsupportedFormat,
)
from gafecg.wfdb_ingest import (
    DEFAULT_ADC_GAIN,
    Label,
    adc_quantize,
    format_header,
    is_inferior_mi,
    label_record,
    load_record,
    parse_header,
    read_signal,
    scan_dataset,
    write_record,
)

HEADER = """\
s0017 3 1000/1000 6000
s0017.dat 16 2000(-489)/mV 16 0 -1085 0 0 i
s0017.dat 16 2000(0)/mV 16 0 312 0 0 ii
s0017.dat 16 2000(0)/mV 16 0 0 0 0 avr
# age: 55
# Reason for admission: Myocardial infarction
# Acute infarction (localization): inferior
"""


class TestParseHeader:
    def test_record_line_fields(self):
        header = parse_header(HEADER)
        assert header.record_name == "s0017"
        assert header.num_signals == 3
        assert header.sampling_rate == 1000.0
        assert header.samples_per_signal == 6000

    def test_signal_specs(self):
        spec = parse_header(HEADER).signals[0]
        assert spec.file_name == "s0017.dat"
        assert spec.storage_format == 16
        assert spec.adc_gain == 2000.0
        assert spec.baseline == -489
        assert spec.initial_value == -1085
        assert spec.description == "i"

    def test_comments_preserved_in_order(self):
        comments = parse_header(HEADER).comments
        assert len(comments) == 3
        assert comments[0].strip() == "age: 55"
        assert "Myocardial infarction" in comments[1]

    def test_zero_gain_replaced_by_default(self):
        text = "r 1 1000 10\nr.dat 16 0(0) 16 0 0 0 0 ii\n"
        assert parse_header(text).signals[0].adc_gain == DEFAULT_ADC_GAIN

    def test_baseline_falls_back_to_adc_zero(self):
        text = "r 1 1000 10\nr.dat 16 2000 16 -489 7 0 0 ii\n"
        spec = parse_header(text).signals[0]
        assert spec.baseline == -489
        assert spec.initial_value == 7

    def test_gain_without_units_suffix(self):
        text = "r 1 1000 10\nr.dat 16 1024.5(3) 16 0 0 0 0 ii\n"
        spec = parse_header(text).signals[0]
        assert spec.adc_gain == 1024.5
        assert spec.baseline == 3

    def test_round_trip_through_formatter(self):
        header = parse_header(HEADER)
        again = parse_header(format_header(header))
        assert again == header

    @pytest.mark.parametrize(
        "text,match",
        [
            ("", "no record line"),
            ("# only a comment\n", "no record line"),
            ("s0017 3 1000\n", "record line"),
            ("r x 1000 10\nr.dat 16 2000 16 0 0 0 0 ii\n", "signal count"),
            ("r 1 fast 10\nr.dat 16 2000 16 0 0 0 0 ii\n", "sampling rate"),
            ("r 1 1000 ten\nr.dat 16 2000 16 0 0 0 0 ii\n", "sample count"),
            ("r 0 1000 10\n", "signal count"),
            ("r 1 -5 10\nr.dat 16 2000 16 0 0 0 0 ii\n", "sampling rate"),
            ("r 1 1000 0\nr.dat 16 2000 16 0 0 0 0 ii\n", "sample count"),
            ("r 2 1000 10\nr.dat 16 2000 16 0 0 0 0 ii\n", "signal lines"),
            ("r 1 1000 10\nr.dat 16\n", "too few fields"),
            ("r 1 1000 10\nr.dat sixteen 2000 16 0 0 0 0 ii\n", "storage format"),
            ("r 1 1000 10\nr.dat 16 gain?? 16 0 0 0 0 ii\n", "gain"),
            ("r 1 nan 10\nr.dat 16 2000 16 0 0 0 0 ii\n", "sampling rate"),
            ("r 1 inf 10\nr.dat 16 2000 16 0 0 0 0 ii\n", "sampling rate"),
            ("r 1 1e999/1000 10\nr.dat 16 2000 16 0 0 0 0 ii\n", "sampling rate"),
            ("r 1 1000 10\nr.dat 16 1e999(0) 16 0 0 0 0 ii\n", "gain"),
            ("r 1 1000 10\nr.dat 16 -1e999/mV 16 0 0 0 0 ii\n", "gain"),
        ],
    )
    def test_malformed_headers_rejected(self, text, match):
        with pytest.raises(ParseError, match=match):
            parse_header(text)

    def test_multisegment_record_unsupported(self):
        with pytest.raises(UnsupportedFormat, match="multi-segment"):
            parse_header("r/3 1 1000 10\nr.dat 16 2000 16 0 0 0 0 ii\n")

    def test_other_storage_format_unsupported(self):
        with pytest.raises(UnsupportedFormat, match="212"):
            parse_header("r 1 1000 10\nr.dat 212 2000 16 0 0 0 0 ii\n")


def _int16(values):
    return np.array(values, dtype="<i2").tobytes()


class TestReadSignal:
    def test_single_signal_physical_units(self):
        text = "r 1 1000 3\nr.dat 16 2000(-489) 16 0 0 0 0 ii\n"
        header = parse_header(text)
        record = read_signal(header, _int16([2000, 0, -489]), "ii")
        np.testing.assert_allclose(
            record.samples, [(2000 + 489) / 2000, 489 / 2000, 0.0]
        )
        assert record.sampling_rate == 1000.0
        assert record.lead_name == "ii"

    def test_interleaved_channels(self):
        text = (
            "r 2 1000 5\n"
            "r.dat 16 1000(0) 16 0 0 0 0 i\n"
            "r.dat 16 1000(0) 16 0 0 0 0 ii\n"
        )
        header = parse_header(text)
        raw = _int16([10, 11, 20, 21, 30, 31, 40, 41, 50, 51])
        lead_i = read_signal(header, raw, "i")
        lead_ii = read_signal(header, raw, "ii")
        np.testing.assert_allclose(lead_i.samples * 1000, [10, 20, 30, 40, 50])
        np.testing.assert_allclose(lead_ii.samples * 1000, [11, 21, 31, 41, 51])

    def test_channel_index_counts_within_one_file(self):
        # Three declared signals split over two files: the channel index of
        # lead iii inside b.dat is 1, not its global position 2.
        text = (
            "r 3 1000 4\n"
            "a.dat 16 1000(0) 16 0 0 0 0 i\n"
            "b.dat 16 1000(0) 16 0 0 0 0 ii\n"
            "b.dat 16 1000(0) 16 0 0 0 0 iii\n"
        )
        header = parse_header(text)
        raw_b = _int16([1, 2, 3, 4, 5, 6, 7, 8])
        np.testing.assert_allclose(
            read_signal(header, raw_b, "ii").samples * 1000, [1, 3, 5, 7]
        )
        np.testing.assert_allclose(
            read_signal(header, raw_b, "iii").samples * 1000, [2, 4, 6, 8]
        )
        raw_a = _int16([9, 10, 11, 12])
        np.testing.assert_allclose(
            read_signal(header, raw_a, "i").samples * 1000, [9, 10, 11, 12]
        )

    def test_lead_match_is_case_insensitive(self):
        text = "r 1 1000 2\nr.dat 16 1000(0) 16 0 0 0 0 II\n"
        record = read_signal(parse_header(text), _int16([5, 6]), "ii")
        np.testing.assert_allclose(record.samples * 1000, [5, 6])

    def test_wrong_byte_count_rejected(self):
        text = "r 1 1000 3\nr.dat 16 2000(0) 16 0 0 0 0 ii\n"
        with pytest.raises(ParseError, match="bytes"):
            read_signal(parse_header(text), _int16([1, 2]), "ii")

    def test_missing_lead_rejected(self):
        text = "r 1 1000 2\nr.dat 16 2000(0) 16 0 0 0 0 v5\n"
        with pytest.raises(LeadNotFound, match="ii"):
            read_signal(parse_header(text), _int16([1, 2]), "ii")

    def test_duplicate_lead_rejected(self):
        text = (
            "r 2 1000 2\n"
            "r.dat 16 2000(0) 16 0 0 0 0 ii\n"
            "r.dat 16 2000(0) 16 0 0 0 0 ii\n"
        )
        with pytest.raises(LeadNotFound, match="2 signals"):
            read_signal(parse_header(text), _int16([1, 2, 3, 4]), "ii")


class TestLabeling:
    def _header(self, comments):
        return parse_header(
            "r 1 1000 2\nr.dat 16 2000(0) 16 0 0 0 0 ii\n"
            + "".join(f"#{c}\n" for c in comments)
        )

    def test_infarction_label(self):
        header = self._header(["Reason for admission: Myocardial infarction"])
        assert label_record(header) is Label.MI

    def test_healthy_label(self):
        header = self._header(["Reason for admission: Healthy control"])
        assert label_record(header) is Label.HEALTHY

    def test_matching_is_case_insensitive(self):
        header = self._header(["diagnosis: MYOCARDIAL INFARCTION"])
        assert label_record(header) is Label.MI

    def test_both_markers_rejected(self):
        header = self._header(
            ["Reason: Myocardial infarction", "History: healthy control"]
        )
        with pytest.raises(UnlabeledRecord, match="both"):
            label_record(header)

    def test_neither_marker_rejected(self):
        header = self._header(["Reason for admission: Dysrhythmia"])
        with pytest.raises(UnlabeledRecord, match="neither"):
            label_record(header)

    @pytest.mark.parametrize(
        "comment,expected",
        [
            ("Acute infarction (localization): inferior", True),
            ("Acute infarction (localization): infero-lateral", True),
            ("Acute infarction (localization): antero-septal", False),
            ("Site unknown, inferior wall suspected", False),  # no localization key
            ("age: 55", False),
        ],
    )
    def test_inferior_localization(self, comment, expected):
        header = self._header(
            ["Reason for admission: Myocardial infarction", comment]
        )
        assert is_inferior_mi(header) is expected


class TestAdcQuantize:
    @given(
        mv=st.lists(
            st.floats(min_value=-15.0, max_value=15.0, allow_nan=False),
            min_size=1,
            max_size=64,
        )
    )
    def test_round_trip_within_half_step(self, mv):
        gain, baseline = 2000.0, -489
        adc = adc_quantize(np.array(mv), gain, baseline)
        back = (adc.astype(np.float64) - baseline) / gain
        assert np.max(np.abs(back - np.array(mv))) <= 0.5 / gain + 1e-12

    def test_exact_on_grid_values(self, rng):
        gain, baseline = 2000.0, 100
        adc0 = rng.integers(-30000, 30000, size=50).astype("<i2")
        mv = (adc0.astype(np.float64) - baseline) / gain
        np.testing.assert_array_equal(adc_quantize(mv, gain, baseline), adc0)

    def test_overflow_rejected(self):
        with pytest.raises(ParseError, match="int16"):
            adc_quantize(np.array([20.0]), 2000.0, 0)


class TestRecordIo:
    def test_write_then_load(self, tmp_path):
        t = np.arange(3000) / 1000.0
        mv = 0.8 * np.sin(2 * np.pi * 1.3 * t)
        write_record(
            tmp_path / "patient001",
            "s0001",
            mv,
            comments=["Reason for admission: Healthy control"],
        )
        record = load_record(tmp_path, "patient001/s0001")
        assert record.subject_id == "patient001/s0001"
        assert record.label is Label.HEALTHY
        assert record.sampling_rate == 1000.0
        assert np.max(np.abs(record.samples - mv)) <= 0.5 / 2000.0

    def test_missing_header_rejected(self, tmp_path):
        with pytest.raises(IoError, match="header"):
            load_record(tmp_path, "nope/s0001")

    def test_missing_signal_file_rejected(self, tmp_path):
        path = write_record(
            tmp_path / "p",
            "s1",
            np.zeros(10) + 0.1,
            comments=["healthy control"],
        )
        (path.parent / "s1.dat").unlink()
        with pytest.raises(IoError, match="signal"):
            load_record(tmp_path, "p/s1")


class TestScanDataset:
    @pytest.fixture()
    def tree(self, tmp_path):
        mv = 0.5 * np.sin(np.arange(1000) / 50.0)
        write_record(
            tmp_path / "patient001",
            "s0001",
            mv,
            comments=["Reason for admission: Healthy control"],
        )
        write_record(
            tmp_path / "patient002",
            "s0002",
            mv,
            comments=[
                "Reason for admission: Myocardial infarction",
                "Acute infarction (localization): infero-lateral",
            ],
        )
        write_record(
            tmp_path / "patient003",
            "s0003",
            mv,
            comments=[
                "Reason for admission: Myocardial infarction",
                "Acute infarction (localization): antero-septal",
            ],
        )
        (tmp_path / "patient004").mkdir()
        (tmp_path / "patient004" / "s0004.hea").write_text("garbage\n")
        write_record(
            tmp_path / "patient005",
            "s0005",
            mv,
            comments=["Reason for admission: Dysrhythmia"],
        )
        write_record(
            tmp_path / "patient006",
            "s0006",
            mv,
            lead_name="v5",
            comments=["Reason for admission: Healthy control"],
        )
        return tmp_path

    def test_labels_and_skip_reasons(self, tree):
        result = scan_dataset(tree)
        assert result.labeled == [
            ("patient001/s0001", Label.HEALTHY),
            ("patient002/s0002", Label.MI),
            ("patient003/s0003", Label.MI),
        ]
        reasons = dict(result.skipped)
        assert reasons["patient004/s0004"].startswith("ParseError")
        assert reasons["patient005/s0005"].startswith("UnlabeledRecord")
        assert reasons["patient006/s0006"].startswith("LeadNotFound")

    def test_non_finite_gain_or_rate_skipped(self, tree):
        mv = 0.5 * np.sin(np.arange(1000) / 50.0)
        comments = ["Reason for admission: Healthy control"]
        for name, old, new in (("s0007", " 2000(0) ", " 1e999(0) "), ("s0008", " 1000 ", " nan ")):
            header = write_record(tree / "patient007", name, mv, comments=comments)
            header.write_text(header.read_text().replace(old, new, 1))
        reasons = dict(scan_dataset(tree).skipped)
        assert reasons["patient007/s0007"] == "ParseError: gain field '1e999(0)' is not finite"
        assert reasons["patient007/s0008"] == (
            "ParseError: sampling rate must be positive and finite, got nan"
        )

    def test_inferior_only_excludes_other_sites(self, tree):
        result = scan_dataset(tree, inferior_only=True)
        ids = [record_id for record_id, _ in result.labeled]
        assert ids == ["patient001/s0001", "patient002/s0002"]
        reasons = dict(result.skipped)
        assert reasons["patient003/s0003"] == "non-inferior infarction excluded"

    def test_ids_sorted(self, tree):
        result = scan_dataset(tree)
        assert result.labeled == sorted(result.labeled)
        assert result.skipped == sorted(result.skipped)

    def test_missing_root_rejected(self, tmp_path):
        with pytest.raises(IoError, match="root"):
            scan_dataset(tmp_path / "absent")
