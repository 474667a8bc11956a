"""Gramian angular field encoding of fixed-length beats.

A beat is downsampled to 128 points by piecewise aggregate approximation,
rescaled to [-1, 1], mapped to polar angles phi = arccos(x), and expanded
into a 128x128 matrix: the summation field cos(phi_i + phi_j) or the
difference field sin(phi_i - phi_j). The matrix is quantized to uint8 for
storage as a grayscale image.

``encode_beats`` encodes the rows of a beat array, ``image_name`` names each
image's PNG, ``write_images`` writes the PNGs, and ``manifest_rows`` and
``write_manifest`` index them in ``manifest.csv``.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import DegenerateBeat, InvalidInput
from .png_io import write_gray_png
from .tables import write_table

IMAGE_SIZE = 128
GAF_KINDS = ("gasf", "gadf")


def paa_downsample(x: np.ndarray, target: int = IMAGE_SIZE) -> np.ndarray:
    """Piecewise aggregate approximation: mean of each of ``target`` frames.

    Frame ``i`` covers samples ``[floor(i*n/target), floor((i+1)*n/target))``,
    so frame sizes differ by at most one and every sample is used once.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise InvalidInput(f"expected a 1-D series, got shape {x.shape}")
    n = len(x)
    if target < 1 or target > n:
        raise InvalidInput(f"target={target} not in [1, {n}]")
    bounds = (np.arange(target + 1) * n) // target
    sums = np.add.reduceat(x, bounds[:-1])
    return sums / np.diff(bounds)


def minmax_rescale(x: np.ndarray) -> np.ndarray:
    """Rescale to [-1, 1] with the endpoints mapped exactly to -1 and +1."""
    x = np.asarray(x, dtype=np.float64)
    lo = float(np.min(x))
    hi = float(np.max(x))
    if hi == lo:
        raise DegenerateBeat("constant series; min-max rescale undefined")
    scaled = ((x - lo) + (x - hi)) / (hi - lo)
    return np.clip(scaled, -1.0, 1.0)


def to_polar(x: np.ndarray) -> np.ndarray:
    """Map values in [-1, 1] to polar angles arccos(x) in [0, pi]."""
    x = np.asarray(x, dtype=np.float64)
    if np.any(x < -1.0) or np.any(x > 1.0):
        raise InvalidInput("values outside [-1, 1]; rescale first")
    return np.arccos(x)


def gasf(angles: np.ndarray) -> np.ndarray:
    """Summation field cos(phi_i + phi_j); symmetric by construction."""
    phi = np.asarray(angles, dtype=np.float64)
    return np.cos(phi[:, None] + phi[None, :])


def gadf(angles: np.ndarray) -> np.ndarray:
    """Difference field sin(phi_i - phi_j); zero diagonal, antisymmetric."""
    phi = np.asarray(angles, dtype=np.float64)
    return np.sin(phi[:, None] - phi[None, :])


def quantize(matrix: np.ndarray) -> np.ndarray:
    """Map [-1, 1] to uint8 with round-half-up: -1 -> 0, 0 -> 128, 1 -> 255."""
    g = np.asarray(matrix, dtype=np.float64)
    if np.any(g < -1.0 - 1e-12) or np.any(g > 1.0 + 1e-12):
        raise InvalidInput("matrix entries outside [-1, 1]")
    levels = np.floor((np.clip(g, -1.0, 1.0) + 1.0) / 2.0 * 255.0 + 0.5)
    return levels.astype(np.uint8)


def safe_name(record_id: str) -> str:
    """A record id ("subject/record") as one file-name component."""
    return record_id.replace("/", "__")


def encode_series(samples: np.ndarray, kind: str) -> np.ndarray:
    """Encode one series into a quantized IMAGE_SIZE x IMAGE_SIZE uint8 field."""
    if kind not in GAF_KINDS:
        raise InvalidInput(f"kind must be one of {GAF_KINDS}, got {kind!r}")
    angles = to_polar(minmax_rescale(paa_downsample(samples, IMAGE_SIZE)))
    field = gasf(angles) if kind == "gasf" else gadf(angles)
    return quantize(field)


def encode_beats(samples: np.ndarray, kind: str) -> list[np.ndarray]:
    """Encode each row of an (N, beat length) array, in order."""
    return [encode_series(row, kind) for row in samples]


def image_name(record_id: str, r_peak_index: int, kind: str) -> str:
    """The PNG file name of the ``kind`` image of the beat at ``r_peak_index``."""
    return f"{safe_name(record_id)}_r{r_peak_index:07d}_{kind}.png"


MANIFEST_FIELDS = ["path", "label", "record_id", "r_peak_index", "kind", "noise_variant"]


def manifest_rows(beats: list[dict], kind: str, noise_variant: str) -> list[dict]:
    """The manifest row of the ``kind`` image of each beat row (its
    ``record_id``, ``label`` and ``r_peak_index``), in order; ``noise_variant``
    is "noisy" for beats of raw signals, "clean" for denoised ones."""
    return [
        {**beat, "path": image_name(beat["record_id"], beat["r_peak_index"], kind),
         "kind": kind, "noise_variant": noise_variant}
        for beat in beats
    ]


def write_images(images: list[np.ndarray], names: list[str], out_dir: str | Path) -> None:
    """Write each image as the PNG of the same position in ``names`` in ``out_dir``."""
    out_dir = Path(out_dir)
    for pixels, name in zip(images, names, strict=True):
        write_gray_png(out_dir / name, pixels)


def write_manifest(rows, out_dir: str | Path) -> Path:
    """Write ``manifest.csv`` indexing the PNGs in ``out_dir``; returns its path.

    Rows are sorted by file name, so the manifest is independent of the
    order the images were written in.
    """
    manifest = Path(out_dir) / "manifest.csv"
    write_table(manifest, MANIFEST_FIELDS, sorted(rows, key=lambda r: r["path"]))
    return manifest
