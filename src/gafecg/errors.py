"""Exception hierarchy shared by every pipeline stage.

All errors raised deliberately by this package derive from
:class:`PipelineError`, so callers (and the CLI) can catch one type and
report a clean diagnostic instead of a traceback.
"""


class PipelineError(Exception):
    """Base class for all errors raised by this package."""


# --- record ingestion ---------------------------------------------------


class ParseError(PipelineError):
    """Header or signal payload is malformed or inconsistent."""


class UnsupportedFormat(PipelineError):
    """Record uses a storage format this reader does not implement."""


class LeadNotFound(PipelineError):
    """Requested lead does not match exactly one signal description."""


class UnlabeledRecord(PipelineError):
    """Record comments do not identify exactly one diagnostic class."""


class IoError(PipelineError):
    """A required file or directory is missing or unreadable."""


# --- signal conditioning ------------------------------------------------


class InvalidInput(PipelineError):
    """Input violates a documented precondition (length, range, rate)."""


class InvalidLevels(PipelineError):
    """Requested wavelet depth is not admissible for the signal length."""


class InvalidDecomposition(PipelineError):
    """Wavelet coefficient structure is internally inconsistent."""


class DegenerateBeat(PipelineError):
    """Beat is constant (zero variance), so normalization is undefined."""


class UnsupportedRate(PipelineError):
    """Operation is calibrated for 1000 Hz and got a different rate."""


# --- model --------------------------------------------------------------


class ShapeError(PipelineError):
    """Array shape does not match the layer stack."""


class NumericalError(PipelineError):
    """A non-finite value appeared where the math requires finite input."""


class CheckpointError(PipelineError):
    """Checkpoint bytes are truncated, corrupt, or from another network."""


# --- training / evaluation ----------------------------------------------


class BuildError(PipelineError):
    """Dataset assembly failed (missing images, empty class), or a stage
    table is missing or malformed (bad columns, short rows, bad cells)."""


class InvalidFoldCount(PipelineError):
    """Cross-validation fold count is not satisfiable for the dataset."""


class UndefinedMetric(PipelineError):
    """Metric denominator is zero for the given confusion counts."""
