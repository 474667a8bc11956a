"""Output checks computed apart from the program under test.

Every check raises ``CheckFailed`` with a one-line reason. Nothing here
calls into ``gafecg``: the PNG reader, the angular field, the network's
forward pass and the metric arithmetic are written out from their
definitions, so a fault in the program cannot hide in its own reference.
"""
from __future__ import annotations

import csv
import hashlib
import struct
import zlib
from fractions import Fraction
from pathlib import Path

import numpy as np

PRE, POST = 250, 400  # beat window around R, in samples
IMAGE = 128
R_TOLERANCE = 5  # samples (5 ms at 1000 Hz)


class CheckFailed(AssertionError):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# --- images -----------------------------------------------------------------


def read_png(data: bytes) -> np.ndarray:
    """Decode an 8-bit grayscale PNG whose rows all use filter 0."""
    require(data[:8] == b"\x89PNG\r\n\x1a\n", "not a PNG signature")
    pos, idat, size = 8, b"", None
    while pos < len(data):
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        tag, payload = data[pos + 4 : pos + 8], data[pos + 8 : pos + 8 + length]
        if tag == b"IHDR":
            width, height, depth, color = struct.unpack(">IIBB", payload[:10])
            require(depth == 8 and color == 0, "PNG is not 8-bit grayscale")
            size = (height, width)
        elif tag == b"IDAT":
            idat += payload
        pos += 12 + length
    require(size is not None, "PNG has no IHDR")
    rows = np.frombuffer(zlib.decompress(idat), dtype=np.uint8)
    rows = rows.reshape(size[0], size[1] + 1)
    require(not rows[:, 0].any(), "PNG row filter other than 0")
    return rows[:, 1:]


def reference_field(signal: np.ndarray, r: int, kind: str) -> np.ndarray:
    """The quantized angular field of the beat at ``r``, from its definition."""
    window = np.asarray(signal, dtype=np.float64)[r - PRE : r + POST + 1]
    z = (window - window.mean()) / window.std()
    edges = np.arange(IMAGE + 1) * len(z) // IMAGE
    paa = np.array([z[a:b].mean() for a, b in zip(edges[:-1], edges[1:])])
    lo, hi = paa.min(), paa.max()
    phi = np.arccos(np.clip(2.0 * (paa - lo) / (hi - lo) - 1.0, -1.0, 1.0))
    if kind == "gasf":
        field = np.cos(phi[:, None] + phi[None, :])
    else:
        field = np.sin(phi[:, None] - phi[None, :])
    return np.floor((field + 1.0) / 2.0 * 255.0 + 0.5).astype(np.int64)


def check_field(pixels: np.ndarray, signal: np.ndarray, r: int, kind: str, name: str) -> None:
    diff = np.abs(pixels.astype(np.int64) - reference_field(signal, r, kind))
    require(
        diff.max() <= 1,
        f"{name}: {int((diff > 1).sum())} pixels differ from the {kind} "
        f"reference by more than one gray level",
    )
    if kind == "gasf":
        require(np.array_equal(pixels, pixels.T), f"{name}: GASF image is not symmetric")


def check_manifest(directory: Path, rows: list[dict], kind: str, noise: str) -> None:
    paths = [row["path"] for row in rows]
    require(len(paths) == len(set(paths)), f"{directory.name}: manifest lists an image twice")
    on_disk = {p.name for p in directory.glob("*.png")}
    require(set(paths) == on_disk, f"{directory.name}: manifest and PNG files differ")
    require(
        all(row["kind"] == kind and row["noise_variant"] == noise for row in rows),
        f"{directory.name}: manifest rows of the wrong kind or noise variant",
    )
    require(
        {row["label"] for row in rows} == {"healthy", "mi"},
        f"{directory.name}: manifest does not hold both classes",
    )


# --- records and beats ------------------------------------------------------


def check_records(rows: list[tuple[str, str]], subjects) -> None:
    expected = sorted((s.record_id, s.label) for s in subjects)
    require(sorted(rows) == expected, f"records {sorted(rows)} != generated {expected}")


def check_peaks(detected, truth: np.ndarray, n_samples: int, name: str) -> None:
    """Each detected R lies near a generated R; each generated R whose
    window fits in the record is found exactly once."""
    detected = np.asarray(detected, dtype=np.int64)
    fits = truth[(truth - PRE >= 0) & (truth + POST < n_samples)]
    nearest = np.abs(detected[:, None] - fits[None, :]).argmin(axis=1) if len(fits) else []
    errors = np.abs(detected - fits[nearest]) if len(detected) else np.zeros(0)
    require(
        len(detected) == 0 or errors.max() <= R_TOLERANCE,
        f"{name}: detected R off by {int(errors.max()) if len(errors) else 0} samples",
    )
    hits = np.bincount(nearest, minlength=len(fits)) if len(detected) else np.zeros(len(fits))
    require(
        np.all(hits == 1),
        f"{name}: {int((hits == 0).sum())} generated R missed, "
        f"{int((hits > 1).sum())} found more than once",
    )


def drift_amplitude(signal: np.ndarray, freq_hz: float, fs: float) -> float:
    """Amplitude of the projection onto a sinusoid of ``freq_hz``."""
    t = np.arange(len(signal)) / fs
    return float(2.0 * abs(np.mean(signal * np.exp(-2j * np.pi * freq_hz * t))))


def check_drift_removed(raw: np.ndarray, clean: np.ndarray, freq_hz: float, fs: float, name: str) -> None:
    before = drift_amplitude(raw, freq_hz, fs)
    after = drift_amplitude(clean, freq_hz, fs)
    require(
        after < 0.1 * before,
        f"{name}: drift at {freq_hz:.3f} Hz only fell from {before:.4f} to {after:.4f} mV",
    )


# --- network ----------------------------------------------------------------


def parse_checkpoint(data: bytes) -> tuple[list[tuple], list[np.ndarray]]:
    """Layer list and parameter tensors of a checkpoint (format version 1)."""
    require(data[:8] == b"GAFECGCK", "checkpoint magic")
    itemsize = data[12]
    (desc_len,) = struct.unpack("<I", data[13:17])
    desc = data[17 : 17 + desc_len].decode()
    pos = 17 + desc_len + 32 + 16  # descriptor digest, seed, Adam step
    parts = desc.split("|")
    h, w = (int(v) for v in parts[0].split(":")[1].split("x"))
    shape, layers, shapes = (h, w, 1), [], []
    for part in parts[1:]:
        f = part.split(":")
        if f[0] == "conv":
            k, cout = int(f[2]), int(f[1])
            shapes += [(k, k, shape[2], cout), (cout,)]
            oh = shape[0] if f[3] == "same" else shape[0] - k + 1
            ow = shape[1] if f[3] == "same" else shape[1] - k + 1
            shape = (oh, ow, cout)
            layers.append(("conv", k, f[3]))
        elif f[0] == "pool":
            size = int(f[1])
            shape = (shape[0] // size, shape[1] // size, shape[2])
            layers.append(("pool", size))
        else:
            units = int(f[1])
            shapes += [(int(np.prod(shape)), units), (units,)]
            shape = (units,)
            layers.append(("dense", f[2]))
    dtype = np.dtype("<f4" if itemsize == 4 else "<f8")
    params = []
    for s in shapes:
        n = int(np.prod(s))
        params.append(np.frombuffer(data, dtype, n, pos).reshape(s))
        pos += n * itemsize
    return layers, params


def reference_probs(checkpoint: bytes, images: np.ndarray, batch: int = 8) -> np.ndarray:
    """Sigmoid outputs of the checkpoint's network, written out plainly."""
    layers, params = parse_checkpoint(checkpoint)
    dtype = params[0].dtype.newbyteorder("=")
    out = []
    for lo in range(0, len(images), batch):
        a = (images[lo : lo + batch].astype(dtype) / dtype.type(255.0))[..., None]
        p = 0
        for layer in layers:
            if layer[0] == "conv":
                _, k, padding = layer
                weight, bias = params[p], params[p + 1]
                p += 2
                if padding == "same":
                    top = (k - 1) // 2
                    a = np.pad(a, ((0, 0), (top, k - 1 - top), (top, k - 1 - top), (0, 0)))
                ho, wo = a.shape[1] - k + 1, a.shape[2] - k + 1
                z = bias + sum(
                    a[:, i : i + ho, j : j + wo, :] @ weight[i, j]
                    for i in range(k)
                    for j in range(k)
                )
                a = np.maximum(z, 0)
            elif layer[0] == "pool":
                s = layer[1]
                b, h, w, c = a.shape
                a = a[:, : h - h % s, : w - w % s, :].reshape(b, h // s, s, w // s, s, c)
                a = a.max(axis=(2, 4))
            else:
                weight, bias = params[p], params[p + 1]
                p += 2
                z = a.reshape(len(a), -1) @ weight + bias
                if layer[1] == "relu":
                    a = np.maximum(z, 0)
                else:
                    with np.errstate(over="ignore"):
                        a = 1.0 / (1.0 + np.exp(-z))
        out.append(a)
    return np.concatenate(out)


def check_probs(probs: np.ndarray, reference: np.ndarray, name: str) -> None:
    """The program's probabilities equal the reference within float32 rounding."""
    require(
        np.allclose(probs, reference, rtol=1e-4, atol=1e-5),
        f"{name}: probabilities differ from the reference forward pass "
        f"by {np.abs(probs - reference).max():.2e}",
    )


def check_decisions(decisions, reference: np.ndarray, name: str) -> None:
    decisions = np.asarray(decisions)
    require(
        np.array_equal(decisions, reference.argmax(axis=1)),
        f"{name}: {int((decisions != reference.argmax(axis=1)).sum())} decisions "
        f"differ from the reference forward pass",
    )


# --- fold metrics -----------------------------------------------------------


def deal_folds(n: int, k: int, seed: int) -> np.ndarray:
    """The documented beat split: a PCG64 permutation dealt round-robin."""
    order = np.random.Generator(np.random.PCG64(seed)).permutation(n)
    folds = np.empty(n, dtype=np.int64)
    folds[order] = np.arange(n) % k
    return folds


def check_fold_row(row: dict, labels: np.ndarray) -> None:
    """Counts cover the held-out labels; acc, sen and spe are their exact
    ratios at the printed precision."""
    tp, tn, fp, fn = (int(row[key]) for key in ("tp", "tn", "fp", "fn"))
    fold = row["fold"]
    require(tp + tn + fp + fn == len(labels), f"fold {fold}: counts do not sum to held-out size")
    require(tp + fn == int(labels.sum()), f"fold {fold}: infarction total differs from generated")
    require(tn + fp == int((labels == 0).sum()), f"fold {fold}: healthy total differs from generated")
    exact = {
        "acc": Fraction(100 * (tp + tn), tp + tn + fp + fn),
        "sen": Fraction(100 * tp, tp + fn),
        "spe": Fraction(100 * tn, tn + fp),
    }
    for key, value in exact.items():
        require(
            abs(Fraction(row[key]) - value) <= Fraction(1, 200),
            f"fold {fold}: {key}={row[key]} but the counts give {float(value):.4f}",
        )


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()
