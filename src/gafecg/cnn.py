"""From-scratch 2-D convolutional classifier on numpy.

The production network takes a 128x128 grayscale image through four
conv/max-pool blocks (16, 32, 64, 128 channels), a 100-unit ReLU layer and
a 2-unit sigmoid head. Forward and backward passes are written out
explicitly and optimized with Adam on a mean per-unit binary cross-entropy:

- The network is a stack of conv->pool blocks under the dense layers:
  every Conv has a Pool right above it, and Pool(1) spells a conv with
  no pooling. A block is one conv, ``np.fmax`` max pooling over
  non-overlapping size x size windows, then ReLU. ReLU is monotone, so
  the values, the winners (a window with no positive cell routes to its
  first cell) and the gradients are those of ReLU-then-pool.
- Convolutions are im2col GEMMs, lowered with a sliding-window gather.
  The conv holding the first parameters is lowered cell-major instead: a
  (k*k, size**2 * B*hp*wp) im2col with one strided copy per kernel
  offset, its columns ordered pool cell first. ``cols.T @ W`` then
  returns each of the size**2 cells of every pool window as one
  contiguous block, and conv outputs no window covers are never
  computed.
- With caches kept, pooling records the first cell, in row-major window
  order, that holds the maximum, so the gradient of a tie goes to the
  first tied cell, as with ``np.argmax``; it keeps the ReLU mask at
  pooled size. The backward pass applies the mask to the pooled
  gradient, routes it to the winning cells, and accumulates one GEMM per
  kernel offset into the padded input gradient. The first conv computes
  no input gradient: no parameter below uses it. Its weight gradient is
  ``cols @ dz`` over the routed blocks, and its bias gradient sums the
  pooled, masked delta, which has one row per window.
- The training pass (with caches) adds the conv bias before the max,
  since its winners are chosen among the biased cells. Scoring
  (``forward`` without caches) computes only the conv outputs a pool
  window covers and adds the bias to the pooled array, after the max, at
  1/size**2 of the elements. Rounding is monotone, so
  ``fl(max z + b) == max fl(z + b)`` and the scores are the same bytes.
- ReLU is ``np.fmax(z, 0)``: NaN maps to 0 as under a ``z > 0`` mask.
- Adam updates the moments and parameters in place, in the operation order
  of the textbook formula, so the bytes equal an out-of-place update.
- A checkpoint holds the architecture, the seed and the parameters: what
  scoring reads. Adam's moments are not saved, so a loaded model is for
  scoring and starts any further training from a fresh optimizer state.

A reduced configuration (`reduced_layers`) keeps every layer type but
shrinks the image and channel counts so finite-difference gradient checks
run in well under a second.
"""
from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CheckpointError, NumericalError, ShapeError
from .tables import atomic_write

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
LOSS_EPS = 1e-7  # probability clip inside the cross-entropy

CHECKPOINT_MAGIC = b"GAFECGCK"
CHECKPOINT_VERSION = 2


@dataclass(frozen=True)
class Conv:
    """3x3 or 2x2 convolution, stride 1; the Pool right above it takes its
    ReLU."""

    out_channels: int
    kernel: int
    padding: str  # "same" | "valid"


@dataclass(frozen=True)
class Pool:
    """Max pooling over non-overlapping size x size windows of the conv
    right below it; odd trailing rows/columns are dropped. Pool(1) spells
    a conv with no pooling."""

    size: int = 2


@dataclass(frozen=True)
class Dense:
    units: int
    activation: str  # "relu" | "sigmoid"


LayerSpec = Conv | Pool | Dense


def classifier_layers() -> tuple[LayerSpec, ...]:
    """The production stack for 128x128 inputs (670,894 parameters)."""
    return (
        Conv(16, 3, "same"),
        Pool(),
        Conv(32, 2, "valid"),
        Pool(),
        Conv(64, 2, "valid"),
        Pool(),
        Conv(128, 2, "valid"),
        Pool(),
        Dense(100, "relu"),
        Dense(2, "sigmoid"),
    )


def reduced_layers() -> tuple[LayerSpec, ...]:
    """Small stack for 16x16 inputs; same layer types, 175 parameters. Its
    last two blocks pool with Pool(1): convs with no pooling."""
    return (
        Conv(2, 3, "same"),
        Pool(),
        Conv(3, 2, "valid"),
        Pool(),
        Conv(3, 2, "valid"),
        Pool(1),
        Conv(4, 2, "valid"),
        Pool(1),
        Dense(5, "relu"),
        Dense(2, "sigmoid"),
    )


def _plan(layers: tuple[LayerSpec, ...], input_shape: tuple[int, int]) -> list[tuple]:
    """Resolve the activation shape entering every layer.

    Returns one (in_shape, out_shape) pair per layer, where conv/pool shapes
    are (H, W, C) and dense shapes are (units,). Raises ShapeError when a
    layer cannot be applied, or when a conv and a pool do not pair up into
    a conv->pool block.
    """
    shape: tuple = (input_shape[0], input_shape[1], 1)
    plan: list[tuple] = []
    for n, layer in enumerate(layers):
        if isinstance(layer, Conv):
            if not (n + 1 < len(layers) and isinstance(layers[n + 1], Pool)):
                raise ShapeError(f"layer {n} {layer} needs a Pool right above it")
            if len(shape) != 3:
                raise ShapeError(f"conv layer after flatten: input shape {shape}")
            h, w, c = shape
            if layer.padding == "same":
                oh, ow = h, w
            elif layer.padding == "valid":
                oh, ow = h - layer.kernel + 1, w - layer.kernel + 1
            else:
                raise ShapeError(f"unknown padding {layer.padding!r}")
            if oh < 1 or ow < 1:
                raise ShapeError(f"conv kernel {layer.kernel} too large for {shape}")
            out = (oh, ow, layer.out_channels)
        elif isinstance(layer, Pool):
            if not (n > 0 and isinstance(layers[n - 1], Conv)):
                raise ShapeError(f"layer {n} {layer} must sit right above a Conv")
            if not 1 <= layer.size <= 16:
                raise ShapeError(f"pool needs size in 1..16, got {layer}")
            h, w, c = shape
            oh, ow = h // layer.size, w // layer.size
            if oh < 1 or ow < 1:
                raise ShapeError(f"pool too large for {shape}")
            out = (oh, ow, c)
        elif isinstance(layer, Dense):
            if layer.activation not in ("relu", "sigmoid"):
                raise ShapeError(f"layer {n} {layer}: unknown activation")
            out = (layer.units,)
        else:
            raise ShapeError(f"unknown layer type {type(layer).__name__}")
        plan.append((shape, out))
        shape = out
    return plan


def layer_output_shapes(
    layers: tuple[LayerSpec, ...], input_shape: tuple[int, int]
) -> list[tuple]:
    """Output shape of every layer, in order."""
    return [out for _, out in _plan(layers, input_shape)]


@dataclass
class AdamState:
    step: int
    m: list[np.ndarray]
    v: list[np.ndarray]


@dataclass
class CnnModel:
    layers: tuple[LayerSpec, ...]
    input_shape: tuple[int, int]
    params: list[np.ndarray]  # conv/dense weights and biases, layer order
    adam: AdamState
    seed: int
    dtype: np.dtype


def _param_shapes(
    layers: tuple[LayerSpec, ...], input_shape: tuple[int, int]
) -> list[tuple[tuple, str]]:
    """(shape, init kind) for every parameter tensor, in declaration order."""
    shapes: list[tuple[tuple, str]] = []
    for layer, (in_shape, _) in zip(layers, _plan(layers, input_shape)):
        if isinstance(layer, Conv):
            k, cin = layer.kernel, in_shape[2]
            shapes.append(((k, k, cin, layer.out_channels), "he"))
            shapes.append(((layer.out_channels,), "zero"))
        elif isinstance(layer, Dense):
            fan_in = int(np.prod(in_shape))
            kind = "he" if layer.activation == "relu" else "glorot"
            shapes.append(((fan_in, layer.units), kind))
            shapes.append(((layer.units,), "zero"))
    return shapes


def model_init(
    seed: int = 0,
    layers: tuple[LayerSpec, ...] | None = None,
    input_shape: tuple[int, int] = (128, 128),
    dtype=np.float32,
) -> CnnModel:
    """Build a model with He-uniform conv/ReLU weights, Glorot-uniform
    sigmoid-head weights, and zero biases, reproducible from ``seed``."""
    if layers is None:
        layers = classifier_layers()
    rng = np.random.Generator(np.random.PCG64(seed))
    params: list[np.ndarray] = []
    for shape, kind in _param_shapes(layers, input_shape):
        if kind == "zero":
            params.append(np.zeros(shape, dtype=dtype))
            continue
        if kind == "he":
            fan_in = int(np.prod(shape[:-1]))
            limit = np.sqrt(6.0 / fan_in)
        else:  # glorot
            fan_in = int(np.prod(shape[:-1]))
            limit = np.sqrt(6.0 / (fan_in + shape[-1]))
        params.append(rng.uniform(-limit, limit, size=shape).astype(dtype))
    return _model(layers, input_shape, params, seed, dtype)


def _model(
    layers: tuple[LayerSpec, ...],
    input_shape: tuple[int, int],
    params: list[np.ndarray],
    seed: int,
    dtype,
) -> CnnModel:
    """A model around ``params`` with a fresh Adam state (step 0, zero moments)."""
    adam = AdamState(
        step=0,
        m=[np.zeros(p.shape, p.dtype) for p in params],
        v=[np.zeros(p.shape, p.dtype) for p in params],
    )
    return CnnModel(
        layers=tuple(layers),
        input_shape=tuple(input_shape),
        params=params,
        adam=adam,
        seed=seed,
        dtype=np.dtype(dtype),
    )


def num_params(model: CnnModel) -> int:
    return int(sum(p.size for p in model.params))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _im2col(x: np.ndarray, kernel: int) -> np.ndarray:
    # x: (B, H, W, C) -> (B, H-k+1, W-k+1, k, k, C)
    windows = np.lib.stride_tricks.sliding_window_view(x, (kernel, kernel), axis=(1, 2))
    return np.ascontiguousarray(windows.transpose(0, 1, 2, 4, 5, 3))


def _im2col_cells(x: np.ndarray, kernel: int, size: int) -> np.ndarray:
    # x: (B, H, W, 1) -> (k*k, size*size*B*hp*wp), for the hp x wp pooled
    # output of a size x size pool. Row (di, dj) holds, for each pool cell
    # (i, j) in row-major order, then each (b, r, c), the input at
    # x[b, size*r + i + di, size*c + j + dj]: one strided copy per offset.
    bsz = x.shape[0]
    hp, wp = (x.shape[1] - kernel + 1) // size, (x.shape[2] - kernel + 1) // size
    cols = np.empty((kernel, kernel, size, size, bsz, hp, wp), dtype=x.dtype)
    for di, dj in np.ndindex(kernel, kernel):
        window = x[:, di : di + size * hp, dj : dj + size * wp, 0]
        cols[di, dj] = window.reshape(bsz, hp, size, wp, size).transpose(2, 4, 0, 1, 3)
    return cols.reshape(kernel * kernel, -1)


def _relu(z: np.ndarray) -> np.ndarray:
    # In place. Adding +0 turns the -0 that fmax may keep for a -0 input
    # into +0, so the bytes equal np.where(z > 0, z, 0).
    np.fmax(z, 0, out=z)
    z += 0
    return z


def _column_sums(a: np.ndarray) -> np.ndarray:
    # Equal to a.sum(axis=0) byte for byte, and about 3x faster on a tall
    # (N, c) array. Both add each column's entries one by one in row order,
    # except that add.reduce sums a single contiguous column pairwise.
    if a.shape[1] == 1:
        return a.sum(axis=0)
    return np.einsum("ij->j", a)


def _pool_cells(a: np.ndarray, size: int) -> list[np.ndarray]:
    # The size**2 cells of every window, in row-major order: the blocks of
    # a cell-major (size**2, B, hp, wp, C) array, or strided views.
    if a.ndim == 5:
        return list(a)
    hc, wc = a.shape[1] - a.shape[1] % size, a.shape[2] - a.shape[2] % size
    return [a[:, i:hc:size, j:wc:size, :] for i in range(size) for j in range(size)]


def _pad_same(x: np.ndarray, kernel: int) -> tuple[np.ndarray, tuple[int, int]]:
    total = kernel - 1
    top = total // 2
    bottom = total - top
    bsz, h, w, c = x.shape
    xp = np.zeros((bsz, h + total, w + total, c), dtype=x.dtype)
    xp[:, top : top + h, top : top + w] = x
    return xp, (top, bottom)


def forward(
    model: CnnModel, images: np.ndarray, with_caches: bool = False
) -> tuple[np.ndarray, list | None]:
    """Run the network on a batch of images.

    ``images`` is (B, H, W) or (H, W); uint8 input is scaled to [0, 1].
    Returns ``(probs, caches)``: per-class sigmoid probabilities of shape
    (B, units), and the caches ``backward`` reads when ``with_caches`` is
    set, else None. Each conv->pool block runs in its conv's turn; without
    caches it computes only the conv outputs the pool reads and adds the
    bias after the max.
    """
    x = np.asarray(images)
    if x.ndim == 2:
        x = x[None]
    if x.ndim != 3 or x.shape[1:] != model.input_shape:
        raise ShapeError(
            f"expected images of shape (B, {model.input_shape[0]}, "
            f"{model.input_shape[1]}), got {np.asarray(images).shape}"
        )
    if x.dtype == np.uint8:
        x = x.astype(model.dtype) / np.asarray(255.0, dtype=model.dtype)
    else:
        x = x.astype(model.dtype, copy=False)
    a = x[..., None]  # channels-last
    caches: list = []
    p = 0
    layers = model.layers
    for n, layer in enumerate(layers):
        if isinstance(layer, Conv):
            # One conv->pool block, in the conv's turn (the pool's turn has
            # nothing left to do): conv, fmax pooling, then ReLU. ReLU is
            # monotone, so relu(max(y)) equals max(relu(y)) with the same
            # winner, and fmax skips a NaN cell as ReLU-first pooling does.
            size = layers[n + 1].size
            weight, bias = model.params[p], model.params[p + 1]
            first = p == 0
            p += 2
            if layer.padding == "same":
                xp, pad = _pad_same(a, layer.kernel)
            else:
                xp, pad = a, (0, 0)
            k, cout = layer.kernel, weight.shape[-1]
            bsz, ho, wo = xp.shape[0], xp.shape[1] - k + 1, xp.shape[2] - k + 1
            if first:
                # Cell-major: the GEMM returns each pool cell as one block.
                flat = _im2col_cells(xp, k, size)
                z = flat.T @ weight.reshape(-1, cout)
                shape = (size * size, bsz, ho // size, wo // size, cout)
            else:
                if not with_caches:
                    # Scoring computes only the outputs a pool window covers.
                    ho, wo = ho - ho % size, wo - wo % size
                    xp = xp[:, : ho + k - 1, : wo + k - 1]
                flat = _im2col(xp, k).reshape(bsz * ho * wo, -1)
                z = flat @ weight.reshape(-1, cout)
                shape = (bsz, ho, wo, cout)
            if with_caches:
                # Training picks its winners among the biased cells.
                z += bias
            cells = _pool_cells(z.reshape(shape), size)
            pooled = np.fmax(cells[0], cells[1]) if size > 1 else cells[0]
            for cell in cells[2:]:
                np.fmax(pooled, cell, out=pooled)
            if with_caches:
                # arg counts the cells before the first one holding the max.
                # A window whose max is not positive is all zero after ReLU,
                # and a tie of zeros goes to the first cell.
                arg = np.zeros(pooled.shape, dtype=np.uint8)
                before = np.ones(pooled.shape, dtype=bool)
                for cell in cells[:-1]:
                    before &= cell != pooled
                    arg += before
                alive = pooled > 0
                arg *= alive
                caches.append(
                    ("block", layer, size, flat, xp.shape, pad, (bsz, ho, wo, cout), arg, alive)
                )
            else:
                # Rounding is monotone, so fl(max(z) + b) equals max(fl(z + b)).
                pooled += bias
            a = _relu(pooled)
        elif isinstance(layer, Dense):
            if a.ndim == 4:
                spatial = a.shape
                a = a.reshape(a.shape[0], -1)
                if with_caches:
                    caches.append(("flatten", None, spatial, None))
            weight, bias = model.params[p], model.params[p + 1]
            p += 2
            z = a @ weight + bias
            if layer.activation == "relu":
                out = _relu(z)
                if with_caches:
                    caches.append(("dense", layer, a, out > 0))
            else:
                out = _sigmoid(z)
                if with_caches:
                    caches.append(("dense", layer, a, out))
            a = out
    if with_caches:
        caches.append(("probs", None, a, None))
        return a, caches
    return a, None


@dataclass
class Prediction:
    probabilities: np.ndarray  # (2,)
    label: int  # argmax; first index on ties


def predict(model: CnnModel, image: np.ndarray) -> Prediction:
    """Probabilities and label of one (H, W) image or a (1, H, W) batch."""
    shape = np.shape(image)
    if not (len(shape) == 2 or (len(shape) == 3 and shape[0] == 1)):
        raise ShapeError(f"predict takes one (H, W) image or a (1, H, W) batch, got {shape}")
    probs, _ = forward(model, image)
    return Prediction(probabilities=probs[0], label=int(np.argmax(probs[0])))


def _as_onehot(labels: np.ndarray, units: int) -> np.ndarray:
    y = np.asarray(labels)
    if y.ndim == 1:
        onehot = np.zeros((len(y), units), dtype=np.float64)
        onehot[np.arange(len(y)), y.astype(int)] = 1.0
        return onehot
    return y.astype(np.float64)


def loss(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean per-unit binary cross-entropy with probability clipping."""
    p = np.clip(np.asarray(probs, dtype=np.float64), LOSS_EPS, 1.0 - LOSS_EPS)
    y = _as_onehot(labels, p.shape[-1])
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def _loss_grad_z(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Gradient of the loss through the sigmoid, at the head pre-activation.

    Where the probability is inside the clip range the product of the
    cross-entropy and sigmoid derivatives collapses to (p - y) / N; where
    it is clipped the loss is locally constant, so the gradient is zero.
    """
    p = np.asarray(probs, dtype=np.float64)
    y = _as_onehot(labels, p.shape[-1])
    inside = (p > LOSS_EPS) & (p < 1.0 - LOSS_EPS)
    return np.where(inside, p - y, 0.0) / p.size


def backward(model: CnnModel, caches: list, labels: np.ndarray) -> list[np.ndarray]:
    """Gradients of the loss for every parameter, in declaration order."""
    if not caches or caches[-1][0] != "probs":
        raise ShapeError("caches do not come from forward(with_caches=True)")
    probs = caches[-1][2]
    grads: list[np.ndarray | None] = [None] * len(model.params)
    delta = _loss_grad_z(probs, labels).astype(model.dtype)

    p = len(model.params)
    for entry in reversed(caches[:-1]):
        kind, layer, *rest = entry
        if kind == "dense":
            a_in, act_cache = rest
            p -= 2
            weight = model.params[p]
            if layer.activation == "relu":
                # delta currently holds dL/da for this layer's output
                np.multiply(delta, act_cache, out=delta)
            grads[p] = (a_in.T @ delta).astype(model.dtype, copy=False)
            grads[p + 1] = delta.sum(axis=0).astype(model.dtype, copy=False)
            delta = delta @ weight.T
        elif kind == "flatten":
            spatial, _ = rest
            delta = delta.reshape(spatial)
        elif kind == "block":
            size, flat, xp_shape, pad, (bsz, ho, wo, cout), arg, alive = rest
            p -= 2
            weight = model.params[p]
            # The ReLU mask, taken at the winners. delta is an array backward
            # made (a dxp slice or the dense gradient reshaped).
            np.multiply(delta, alive, out=delta)
            # Route on the integer view of delta: a product with 0 or 1 is
            # exact there, and a cell that did not win gets +0, never -0.
            bits = delta.view(f"i{delta.itemsize}")
            if p == 0:  # the cell-major first conv: one block per pool cell
                dz = np.empty((size * size, *arg.shape), dtype=bits.dtype)
            else:
                dz = np.empty((bsz, ho, wo, cout), dtype=bits.dtype)
                hc, wc = arg.shape[1] * size, arg.shape[2] * size
                dz[:, hc:] = 0  # rows and columns no window covers
                dz[:, :hc, wc:] = 0
            for k, cell in enumerate(_pool_cells(dz, size)):
                np.multiply(bits, arg == k, out=cell)
            dz = dz.view(delta.dtype)
            if p == 0:
                # The bias gradient sums the pooled delta: one row per window.
                grads[p] = (flat @ dz.reshape(-1, cout)).reshape(weight.shape)
                grads[p + 1] = _column_sums(delta.reshape(-1, cout))
                break  # the input gradient of the first layer feeds nothing
            dflat = dz.reshape(-1, cout)
            grads[p] = (flat.T @ dflat).reshape(weight.shape)
            grads[p + 1] = _column_sums(dflat)
            dxp = np.zeros(xp_shape, dtype=delta.dtype)
            dx_ij = np.empty((bsz, ho, wo, weight.shape[2]), dtype=delta.dtype)
            for i, j in np.ndindex(weight.shape[:2]):
                np.matmul(dflat, weight[i, j].T, out=dx_ij.reshape(len(dflat), -1))
                dxp[:, i : i + ho, j : j + wo, :] += dx_ij
            top, bottom = pad
            if top or bottom:
                delta = dxp[:, top : xp_shape[1] - bottom, top : xp_shape[2] - bottom, :]
            else:
                delta = dxp
        else:
            raise ShapeError(f"unknown cache entry {kind!r}")
    if p != 0:
        raise ShapeError("cache/parameter mismatch in backward pass")
    return grads  # type: ignore[return-value]


def adam_step(model: CnnModel, grads: list[np.ndarray], lr: float = 0.001) -> CnnModel:
    """One Adam update in place; returns the model for chaining."""
    if len(grads) != len(model.params):
        raise ShapeError(
            f"got {len(grads)} gradients for {len(model.params)} parameters"
        )
    for g in grads:
        if not np.all(np.isfinite(g)):
            raise NumericalError("non-finite gradient")
    state = model.adam
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for i, g in enumerate(grads):
        g = g.astype(model.dtype, copy=False)
        m, v = state.m[i], state.v[i]
        scratch = np.empty_like(m)
        # m = b1*m + (1-b1)*g and v = b2*v + (1-b2)*(g*g)
        m *= ADAM_BETA1
        np.multiply(g, 1.0 - ADAM_BETA1, out=scratch)
        m += scratch
        v *= ADAM_BETA2
        np.multiply(g, g, out=scratch)
        scratch *= 1.0 - ADAM_BETA2
        v += scratch
        # params -= lr*(m/bc1) / (sqrt(v/bc2) + eps)
        np.divide(v, bc2, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += ADAM_EPS
        step = m / bc1
        step *= lr
        step /= scratch
        model.params[i] -= step
    return model


# --- checkpoints ----------------------------------------------------------


def _describe_arch(model: CnnModel) -> str:
    parts = [f"in:{model.input_shape[0]}x{model.input_shape[1]}"]
    for layer in model.layers:
        if isinstance(layer, Conv):
            parts.append(f"conv:{layer.out_channels}:{layer.kernel}:{layer.padding}")
        elif isinstance(layer, Pool):
            parts.append(f"pool:{layer.size}")
        else:
            parts.append(f"dense:{layer.units}:{layer.activation}")
    return "|".join(parts)


def _parse_arch(desc: str) -> tuple[tuple[LayerSpec, ...], tuple[int, int]]:
    parts = desc.split("|")
    head = parts[0].split(":")
    if head[0] != "in" or len(head) != 2:
        raise CheckpointError(f"bad architecture descriptor {desc!r}")
    try:
        h, w = (int(v) for v in head[1].split("x"))
        layers: list[LayerSpec] = []
        for part in parts[1:]:
            fields = part.split(":")
            if fields[0] == "conv":
                layers.append(Conv(int(fields[1]), int(fields[2]), fields[3]))
            elif fields[0] == "pool":
                layers.append(Pool(int(fields[1])))
            elif fields[0] == "dense":
                layers.append(Dense(int(fields[1]), fields[2]))
            else:
                raise CheckpointError(f"unknown layer {part!r}")
    except (ValueError, IndexError) as exc:
        raise CheckpointError(f"bad architecture descriptor {desc!r}") from exc
    return tuple(layers), (h, w)


def save_checkpoint(model: CnnModel, path: str | Path) -> None:
    """Write magic, version, architecture, seed, Adam step, then the raw
    little-endian parameter tensors in declaration order; the file appears
    whole or not at all. The Adam step is informational: no reader uses it,
    and the moments are not written."""
    desc = _describe_arch(model).encode()
    le = np.dtype(model.dtype).newbyteorder("<")
    with atomic_write(path) as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<IBI", CHECKPOINT_VERSION, model.dtype.itemsize, len(desc)))
        fh.write(desc)
        fh.write(hashlib.sha256(desc).digest())
        fh.write(struct.pack("<qq", model.seed, model.adam.step))
        for tensor in model.params:
            fh.write(np.ascontiguousarray(tensor, dtype=le).data)


def load_checkpoint(
    path: str | Path,
    expected_layers: tuple[LayerSpec, ...] | None = None,
    expected_input_shape: tuple[int, int] | None = None,
) -> CnnModel:
    """Inverse of save_checkpoint for scoring: the parameters round-trip
    bitwise-exact, and the model gets a fresh Adam state as from model_init.

    When an expected architecture is given, a checkpoint from any other
    network is rejected with CheckpointError. Every CheckpointError names
    the file.
    """
    data = Path(path).read_bytes()
    try:
        return _decode_checkpoint(data, expected_layers, expected_input_shape)
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from None


def _decode_checkpoint(
    data: bytes,
    expected_layers: tuple[LayerSpec, ...] | None,
    expected_input_shape: tuple[int, int] | None,
) -> CnnModel:
    view = memoryview(data)
    pos = 0

    def take(n: int, what: str) -> memoryview:
        nonlocal pos
        if pos + n > len(data):
            raise CheckpointError(f"checkpoint truncated in {what}")
        chunk = view[pos : pos + n]
        pos += n
        return chunk

    if bytes(take(len(CHECKPOINT_MAGIC), "magic")) != CHECKPOINT_MAGIC:
        raise CheckpointError("bad magic bytes; not a checkpoint file")
    (version,) = struct.unpack("<I", take(4, "version"))
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version} (this program reads "
            f"version {CHECKPOINT_VERSION})"
        )
    (itemsize,) = struct.unpack("<B", take(1, "dtype"))
    if itemsize == 4:
        dtype = np.dtype(np.float32)
    elif itemsize == 8:
        dtype = np.dtype(np.float64)
    else:
        raise CheckpointError(f"unsupported parameter width {itemsize}")
    (desc_len,) = struct.unpack("<I", take(4, "descriptor length"))
    desc = bytes(take(desc_len, "descriptor"))
    digest = bytes(take(32, "digest"))
    if hashlib.sha256(desc).digest() != digest:
        raise CheckpointError("architecture descriptor digest mismatch")
    layers, input_shape = _parse_arch(desc.decode())
    try:
        shapes = _param_shapes(layers, input_shape)
    except ShapeError as exc:
        raise CheckpointError(f"bad architecture: {exc}") from None
    if expected_layers is not None and tuple(expected_layers) != layers:
        raise CheckpointError("checkpoint belongs to a different layer stack")
    if expected_input_shape is not None and tuple(expected_input_shape) != input_shape:
        raise CheckpointError(
            f"checkpoint input shape {input_shape} != {tuple(expected_input_shape)}"
        )
    (seed,) = struct.unpack("<q", take(8, "seed"))
    take(8, "adam step")
    le = dtype.newbyteorder("<")
    params = []
    for shape, _ in shapes:
        chunk = take(int(np.prod(shape)) * itemsize, "parameters")
        params.append(np.frombuffer(chunk, dtype=le).astype(dtype).reshape(shape))
    if pos != len(data):
        raise CheckpointError(f"{len(data) - pos} trailing bytes in checkpoint")
    return _model(layers, input_shape, params, seed, dtype)
