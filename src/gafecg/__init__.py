"""Lead-II ECG myocardial infarction detection pipeline.

Stages: record ingestion (`wfdb_ingest`), wavelet denoising and
normalization (`signal_prep`), R-peak detection and beat windowing
(`qrs_segment`), Gramian angular field imaging (`gaf_encode`, `png_io`),
a from-scratch convolutional classifier (`cnn`), k-fold training and
metrics (`train_eval`), the stage tables and atomic file writes
(`tables`), and a CLI that chains everything (`cli`).
"""

__version__ = "0.1.0"
