"""Reader and writer for text-header ECG records (format-16 signals).

A record is a plain-text ``.hea`` header plus one or more binary signal
files holding interleaved little-endian int16 samples. Physical units are
recovered as ``(adc - baseline) / gain`` millivolts. Diagnostic class is
taken from the header comments: "myocardial infarction" or
"healthy control" (exactly one must match).
"""
from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    IoError,
    LeadNotFound,
    ParseError,
    UnlabeledRecord,
    UnsupportedFormat,
)

SUPPORTED_FORMAT = 16
DEFAULT_ADC_GAIN = 200.0  # standard fallback when a header stores gain 0
INT16_MIN, INT16_MAX = -32768, 32767

MI_MARKER = "myocardial infarction"
HEALTHY_MARKER = "healthy control"
LOCALIZATION_KEY = "localization"
INFERIOR_MARKER = "infer"


class Label(str, enum.Enum):
    HEALTHY = "healthy"
    MI = "mi"


@dataclass
class SignalSpec:
    """One signal line of a header."""

    file_name: str
    storage_format: int
    adc_gain: float  # ADC units per millivolt, never 0
    baseline: int  # ADC value corresponding to 0 mV
    initial_value: int
    description: str


@dataclass
class RecordHeader:
    record_name: str
    num_signals: int
    sampling_rate: float
    samples_per_signal: int
    signals: list[SignalSpec]
    comments: list[str]  # text after '#', verbatim, in order


@dataclass
class EcgRecord:
    """A single lead in physical units (millivolts)."""

    subject_id: str
    label: Label | None
    lead_name: str
    samples: np.ndarray
    sampling_rate: float


@dataclass
class ScanResult:
    labeled: list[tuple[str, Label]]  # (record id, class), sorted by id
    skipped: list[tuple[str, str]]  # (record id, reason), sorted by id


def _parse_gain_field(token: str) -> tuple[float, int | None]:
    # Forms: "2000", "2000(-489)", "2000/mV", "2000(-489)/mV".
    m = re.fullmatch(r"([-+0-9.eE]+)(?:\(([-+0-9]+)\))?(?:/(\S+))?", token)
    if not m:
        raise ParseError(f"cannot parse gain field {token!r}")
    try:
        gain = float(m.group(1))
    except ValueError as exc:
        raise ParseError(f"cannot parse gain field {token!r}") from exc
    baseline = int(m.group(2)) if m.group(2) is not None else None
    if gain == 0.0:
        gain = DEFAULT_ADC_GAIN
    return gain, baseline


def _parse_signal_line(line: str) -> SignalSpec:
    tokens = line.split()
    if len(tokens) < 3:
        raise ParseError(f"signal line has too few fields: {line!r}")
    file_name = tokens[0]
    fmt_token = tokens[1]
    if not fmt_token.isdigit():
        raise ParseError(f"cannot parse storage format {fmt_token!r}")
    storage_format = int(fmt_token)
    if storage_format != SUPPORTED_FORMAT:
        raise UnsupportedFormat(
            f"storage format {storage_format} not supported (only {SUPPORTED_FORMAT})"
        )
    gain, baseline = _parse_gain_field(tokens[2])
    # Optional trailing fields: adcres adczero initval cksum bsize description.
    adc_zero = 0
    initial_value = 0
    if len(tokens) > 4:
        try:
            adc_zero = int(tokens[4])
        except ValueError as exc:
            raise ParseError(f"cannot parse ADC zero {tokens[4]!r}") from exc
    if len(tokens) > 5:
        try:
            initial_value = int(tokens[5])
        except ValueError as exc:
            raise ParseError(f"cannot parse initial value {tokens[5]!r}") from exc
    description = " ".join(tokens[8:]) if len(tokens) > 8 else ""
    if baseline is None:
        baseline = adc_zero
    return SignalSpec(
        file_name=file_name,
        storage_format=storage_format,
        adc_gain=gain,
        baseline=baseline,
        initial_value=initial_value,
        description=description,
    )


def parse_header(text: str) -> RecordHeader:
    """Parse header text into a RecordHeader.

    Raises ParseError for malformed or inconsistent content and
    UnsupportedFormat for storage formats other than 16 or multi-segment
    records.
    """
    body: list[str] = []
    comments: list[str] = []
    for raw in text.splitlines():
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            comments.append(stripped[1:])
        else:
            body.append(stripped)
    if not body:
        raise ParseError("header has no record line")
    first = body[0].split()
    if len(first) < 4:
        raise ParseError(
            f"record line needs name, signal count, sampling rate and "
            f"sample count: {body[0]!r}"
        )
    record_name = first[0]
    if "/" in record_name:
        raise UnsupportedFormat(f"multi-segment record {record_name!r} not supported")
    try:
        num_signals = int(first[1])
    except ValueError as exc:
        raise ParseError(f"cannot parse signal count {first[1]!r}") from exc
    try:
        # Sampling rate may carry a counter frequency suffix: "1000/1000".
        sampling_rate = float(first[2].split("/")[0])
    except ValueError as exc:
        raise ParseError(f"cannot parse sampling rate {first[2]!r}") from exc
    try:
        samples_per_signal = int(first[3])
    except ValueError as exc:
        raise ParseError(f"cannot parse sample count {first[3]!r}") from exc
    if num_signals < 1:
        raise ParseError(f"signal count must be >= 1, got {num_signals}")
    if sampling_rate <= 0:
        raise ParseError(f"sampling rate must be positive, got {sampling_rate}")
    if samples_per_signal < 1:
        raise ParseError(f"sample count must be >= 1, got {samples_per_signal}")
    signal_lines = body[1:]
    if len(signal_lines) != num_signals:
        raise ParseError(
            f"header declares {num_signals} signals but has "
            f"{len(signal_lines)} signal lines"
        )
    signals = [_parse_signal_line(line) for line in signal_lines]
    return RecordHeader(
        record_name=record_name,
        num_signals=num_signals,
        sampling_rate=sampling_rate,
        samples_per_signal=samples_per_signal,
        signals=signals,
        comments=comments,
    )


def _format_number(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(value)


def format_header(header: RecordHeader) -> str:
    """Serialize a RecordHeader; parsing the result recovers the structure."""
    lines = [
        f"{header.record_name} {header.num_signals} "
        f"{_format_number(header.sampling_rate)} {header.samples_per_signal}"
    ]
    for spec in header.signals:
        gain = _format_number(spec.adc_gain)
        lines.append(
            f"{spec.file_name} {spec.storage_format} {gain}({spec.baseline}) "
            f"16 0 {spec.initial_value} 0 0 {spec.description}".rstrip()
        )
    for comment in header.comments:
        lines.append(f"#{comment}")
    return "\n".join(lines) + "\n"


def _match_lead(header: RecordHeader, lead_name: str) -> SignalSpec:
    wanted = lead_name.strip().lower()
    matches = [
        s for s in header.signals if s.description.strip().lower() == wanted
    ]
    if not matches:
        available = [s.description for s in header.signals]
        raise LeadNotFound(f"no signal described as {lead_name!r}; have {available}")
    if len(matches) > 1:
        raise LeadNotFound(f"{len(matches)} signals described as {lead_name!r}")
    return matches[0]


def read_signal(
    header: RecordHeader,
    raw_bytes: bytes,
    lead_name: str,
    label: Label | None = None,
) -> EcgRecord:
    """Decode one lead from the signal file holding it.

    ``raw_bytes`` must be the complete contents of the file named by the
    matching signal line; samples of all signals stored in that file are
    interleaved sample-by-sample.
    """
    spec = _match_lead(header, lead_name)
    mates = [s for s in header.signals if s.file_name == spec.file_name]
    channel = next(i for i, s in enumerate(mates) if s is spec)
    group = len(mates)
    expected = header.samples_per_signal * group * 2
    if len(raw_bytes) != expected:
        raise ParseError(
            f"signal file {spec.file_name!r} has {len(raw_bytes)} bytes, "
            f"expected {expected} ({group} signals x "
            f"{header.samples_per_signal} samples x 2 bytes)"
        )
    adc = np.frombuffer(raw_bytes, dtype="<i2").reshape(
        header.samples_per_signal, group
    )[:, channel]
    millivolts = (adc.astype(np.float64) - spec.baseline) / spec.adc_gain
    return EcgRecord(
        subject_id=header.record_name,
        label=label,
        lead_name=lead_name,
        samples=millivolts,
        sampling_rate=header.sampling_rate,
    )


def label_record(header: RecordHeader) -> Label:
    """Classify from header comments; exactly one class marker must match."""
    joined = "\n".join(header.comments).lower()
    is_mi = MI_MARKER in joined
    is_healthy = HEALTHY_MARKER in joined
    if is_mi and is_healthy:
        raise UnlabeledRecord(
            f"record {header.record_name!r} matches both class markers"
        )
    if is_mi:
        return Label.MI
    if is_healthy:
        return Label.HEALTHY
    raise UnlabeledRecord(
        f"record {header.record_name!r} matches neither "
        f"{MI_MARKER!r} nor {HEALTHY_MARKER!r}"
    )


def is_inferior_mi(header: RecordHeader) -> bool:
    """True when a localization comment mentions an inferior site."""
    for comment in header.comments:
        lowered = comment.lower()
        if LOCALIZATION_KEY in lowered and INFERIOR_MARKER in lowered:
            return True
    return False


def load_record(root: str | Path, record_id: str, lead_name: str = "ii") -> EcgRecord:
    """Load and label one lead of the record at ``root/record_id``."""
    root = Path(root)
    header_path = root / f"{record_id}.hea"
    if not header_path.is_file():
        raise IoError(f"missing header file {header_path}")
    header = parse_header(header_path.read_text())
    label = label_record(header)
    spec = _match_lead(header, lead_name)
    signal_path = header_path.parent / spec.file_name
    if not signal_path.is_file():
        raise IoError(f"missing signal file {signal_path}")
    record = read_signal(header, signal_path.read_bytes(), lead_name, label=label)
    return EcgRecord(
        subject_id=record_id,
        label=label,
        lead_name=lead_name,
        samples=record.samples,
        sampling_rate=record.sampling_rate,
    )


def scan_dataset(
    root: str | Path,
    lead_name: str = "ii",
    inferior_only: bool = False,
) -> ScanResult:
    """Walk a dataset tree and classify every record.

    Records that cannot be parsed, labeled, or that lack the requested lead
    are collected with a reason instead of aborting the scan. With
    ``inferior_only``, infarction records without an inferior localization
    comment are skipped.
    """
    root = Path(root)
    if not root.is_dir():
        raise IoError(f"dataset root {root} is not a directory")
    labeled: list[tuple[str, Label]] = []
    skipped: list[tuple[str, str]] = []
    for header_path in sorted(root.rglob("*.hea")):
        record_id = header_path.relative_to(root).with_suffix("").as_posix()
        try:
            header = parse_header(header_path.read_text())
            label = label_record(header)
            _match_lead(header, lead_name)
        except (ParseError, UnsupportedFormat, LeadNotFound, UnlabeledRecord) as exc:
            skipped.append((record_id, f"{type(exc).__name__}: {exc}"))
            continue
        if inferior_only and label is Label.MI and not is_inferior_mi(header):
            skipped.append((record_id, "non-inferior infarction excluded"))
            continue
        labeled.append((record_id, label))
    labeled.sort(key=lambda item: item[0])
    skipped.sort(key=lambda item: item[0])
    return ScanResult(labeled=labeled, skipped=skipped)


def subject_of(record_id: str) -> str:
    """The subject of a record id ("subject/record")."""
    return record_id.split("/")[0]


def adc_quantize(samples_mv: np.ndarray, gain: float, baseline: int) -> np.ndarray:
    """Convert millivolts to int16 ADC units; exact inverse of decoding."""
    adc = np.rint(np.asarray(samples_mv, dtype=np.float64) * gain + baseline)
    if np.any(adc < INT16_MIN) or np.any(adc > INT16_MAX):
        raise ParseError("samples exceed int16 ADC range at this gain")
    return adc.astype("<i2")


def write_record(
    directory: str | Path,
    record_name: str,
    samples_mv: np.ndarray,
    sampling_rate: float = 1000.0,
    lead_name: str = "ii",
    comments: list[str] | None = None,
    gain: float = 2000.0,
    baseline: int = 0,
) -> Path:
    """Write a single-lead record as ``.hea`` + ``.dat``; returns header path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    adc = adc_quantize(samples_mv, gain, baseline)
    header = RecordHeader(
        record_name=record_name,
        num_signals=1,
        sampling_rate=sampling_rate,
        samples_per_signal=len(adc),
        signals=[
            SignalSpec(
                file_name=f"{record_name}.dat",
                storage_format=SUPPORTED_FORMAT,
                adc_gain=gain,
                baseline=baseline,
                initial_value=int(adc[0]) if len(adc) else 0,
                description=lead_name,
            )
        ],
        comments=list(comments or []),
    )
    (directory / f"{record_name}.dat").write_bytes(adc.tobytes())
    header_path = directory / f"{record_name}.hea"
    header_path.write_text(format_header(header))
    return header_path
