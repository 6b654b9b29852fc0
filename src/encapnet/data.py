"""Dataset IO: IDX files, a synthetic oriented-bar set, and batching.

IDX layout (big-endian throughout): u32 magic, then u32 dims, then raw
bytes. Magic 2051 (0x803) is an image tensor (N, H, W) of unsigned bytes,
scaled to [0, 1] floats on load; magic 2049 (0x801) is a label vector.
Saving a loaded array reproduces the original file byte for byte.

The synthetic set is one bright bar per image whose orientation encodes the
class: class k out of K uses angle pi*k/K. The first K samples carry the
canonical pose (centered, no jitter, no noise) so tests can pin exact
pixels; the rest get small rotation/position jitter and additive noise,
keeping classes separated because the jitter stays below half the angular
spacing.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataFormatError
from .tensor import seeded_rng

IMAGES_MAGIC = 2051
LABELS_MAGIC = 2049


def load_idx(path: str) -> np.ndarray:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 4:
        raise DataFormatError(f"{path}: truncated IDX header")
    magic = struct.unpack(">I", raw[:4])[0]
    if magic == IMAGES_MAGIC:
        if len(raw) < 16:
            raise DataFormatError(f"{path}: truncated IDX image header")
        n, h, w = struct.unpack(">III", raw[4:16])
        body = raw[16:]
        if len(body) != n * h * w:
            raise DataFormatError(
                f"{path}: expected {n * h * w} image bytes, found {len(body)}")
        pixels = np.frombuffer(body, dtype=np.uint8).reshape(n, h, w)
        return pixels.astype(np.float64) / 255.0
    if magic == LABELS_MAGIC:
        if len(raw) < 8:
            raise DataFormatError(f"{path}: truncated IDX label header")
        n = struct.unpack(">I", raw[4:8])[0]
        body = raw[8:]
        if len(body) != n:
            raise DataFormatError(f"{path}: expected {n} label bytes, found {len(body)}")
        return np.frombuffer(body, dtype=np.uint8).astype(np.int64)
    raise DataFormatError(f"{path}: bad IDX magic 0x{magic:08x}")


def save_idx(path: str, arr: np.ndarray) -> None:
    """The package's exported IDX writer, the inverse of load_idx: (N, H, W)
    images, uint8 or floats in [0, 1], or (N,) labels that fit in a byte."""
    if arr.ndim == 3:
        if arr.dtype == np.uint8:
            body = arr
        else:
            if arr.min() < -1e-9 or arr.max() > 1 + 1e-9:
                raise DataFormatError("image values must lie in [0, 1] to serialize")
            body = np.rint(np.asarray(arr, dtype=np.float64) * 255.0).astype(np.uint8)
        header = struct.pack(">IIII", IMAGES_MAGIC, *arr.shape)
    elif arr.ndim == 1:
        if arr.min() < 0 or arr.max() > 255:
            raise DataFormatError("labels must fit in a byte")
        body = arr.astype(np.uint8)
        header = struct.pack(">II", LABELS_MAGIC, arr.shape[0])
    else:
        raise DataFormatError(f"cannot serialize array of ndim {arr.ndim} as IDX")
    with open(path, "wb") as f:
        f.write(header)
        f.write(body.tobytes())


@dataclass(frozen=True)
class DataConfig:
    source: str = "synthetic"
    dir: str = "data"
    train_images: str = "train-images-idx3-ubyte"
    train_labels: str = "train-labels-idx1-ubyte"
    test_images: str = "t10k-images-idx3-ubyte"
    test_labels: str = "t10k-labels-idx1-ubyte"
    n_train: int = 2000
    n_test: int = 400
    noise: float = 0.05
    seed: int = 0
    limit_train: int = 0
    limit_test: int = 0

    def __post_init__(self):
        if self.source not in ("idx", "synthetic"):
            raise ConfigError(f"unknown data source {self.source!r}")


# Images synth_generate renders per bar_image call; few enough that the
# render's full-size temporaries add little to the process's memory.
SYNTH_CHUNK = 16


def bar_image(size: int, angle, center, half_len: float,
              half_width: float = 1.5, out: np.ndarray | None = None) -> np.ndarray:
    """Analytic anti-aliased bars: intensity falls off linearly across and along.

    angle (...) and center (..., 2) as (cy, cx) give images (..., size, size),
    written to out when given; a scalar angle and one center give one image.
    """
    angle = np.asarray(angle, dtype=np.float64)[..., None, None]
    center = np.asarray(center, dtype=np.float64)
    cy, cx = center[..., 0, None, None], center[..., 1, None, None]
    grid = np.arange(size, dtype=np.float64)
    dx, dy = grid - cx, grid[:, None] - cy
    cos, sin = np.cos(angle), np.sin(angle)
    along = dx * cos + dy * sin
    across = -dx * sin + dy * cos
    img = np.clip(1.0 - np.abs(across) / half_width, 0.0, 1.0, out=out)
    img *= np.clip(half_len + 1.0 - np.abs(along), 0.0, 1.0)
    return img


def synth_generate(n: int, n_classes: int = 10, image_size: int = 28,
                   noise: float = 0.05, seed: int = 0):
    """n bar images with orientation classes; first n_classes are canonical.

    Each jittered image draws its angle, cy, cx and noise in that order; the
    bars are rendered SYNTH_CHUNK images at a time.
    """
    if n_classes < 2 or n < n_classes:
        raise ConfigError("need n >= n_classes >= 2")
    rng = seeded_rng(seed, "synth")
    labels = np.arange(n, dtype=np.int64) % n_classes
    images = np.empty((n, image_size, image_size), dtype=np.float64)
    c0 = (image_size - 1) / 2.0
    half_len = 0.35 * image_size
    max_rot = 0.5 * np.pi / n_classes * 0.8
    angles = np.pi * labels / n_classes
    for lo in range(0, n, SYNTH_CHUNK):
        hi = min(lo + SYNTH_CHUNK, n)
        centers = np.full((hi - lo, 2), c0)
        jitter = np.zeros((hi - lo, image_size, image_size))
        for i in range(max(lo, n_classes), hi):
            angles[i] += rng.uniform(-max_rot, max_rot)
            centers[i - lo] = c0 + rng.uniform(-2.0, 2.0), c0 + rng.uniform(-2.0, 2.0)
            jitter[i - lo] = rng.normal(0.0, noise, size=(image_size, image_size))
        out = bar_image(image_size, angles[lo:hi], centers, half_len, out=images[lo:hi])
        out += jitter
        np.clip(out, 0.0, 1.0, out=out)
    return images, labels


def load_dataset(dc: DataConfig, n_classes: int, image_size: int):
    """(train_x, train_y, test_x, test_y) for a network of n_classes classes
    that takes image_size-square images; images are (N, H, W) in [0, 1].

    The synthetic set is rendered at that size. IDX images of another size,
    or a label outside range(n_classes), raise DataFormatError.
    """
    if dc.source == "idx":
        paths = [os.path.join(dc.dir, f) for f in (dc.train_images, dc.train_labels,
                                                   dc.test_images, dc.test_labels)]
        tx, ty, ex, ey = (load_idx(p) for p in paths)
        for path, x in zip(paths[::2], (tx, ex)):
            if x.shape[1:] != (image_size, image_size):
                raise DataFormatError(
                    f"{path}: images are {'x'.join(map(str, x.shape[1:]))}, "
                    f"but [net] image_size is {image_size}")
        for path, y in zip(paths[1::2], (ty, ey)):
            if y.size and y.max() >= n_classes:
                raise DataFormatError(
                    f"{path}: label {y.max()} is out of range for [net] "
                    f"n_classes = {n_classes}")
    else:
        tx, ty = synth_generate(dc.n_train, n_classes, image_size, dc.noise, dc.seed)
        ex, ey = synth_generate(dc.n_test, n_classes, image_size, dc.noise, dc.seed + 1)
    if tx.shape[0] != ty.shape[0] or ex.shape[0] != ey.shape[0]:
        raise DataFormatError("image/label counts disagree")
    if dc.limit_train:
        tx, ty = tx[:dc.limit_train], ty[:dc.limit_train]
    if dc.limit_test:
        ex, ey = ex[:dc.limit_test], ey[:dc.limit_test]
    return tx, ty, ex, ey


def augment_crop(x: np.ndarray, rng: np.random.Generator, pad: int = 1) -> np.ndarray:
    """Zero-pad each side by `pad` then crop back at a random offset per image."""
    n, h, w = x.shape
    padded = np.zeros((n, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    padded[:, pad:pad + h, pad:pad + w] = x
    oy = rng.integers(0, 2 * pad + 1, size=n)
    ox = rng.integers(0, 2 * pad + 1, size=n)
    out = np.empty_like(x)
    for i in range(n):
        out[i] = padded[i, oy[i]:oy[i] + h, ox[i]:ox[i] + w]
    return out


def batches(images: np.ndarray, labels: np.ndarray, batch_size: int,
            seed: int = 0, epoch: int = 0, shuffle: bool = True,
            augment: bool = False):
    """Deterministic minibatch stream for one epoch.

    The order is a pure function of (seed, epoch); the final short batch is
    kept. Yields (x (B,1,H,W) float, y (B,) int) pairs.
    """
    if batch_size < 1:
        raise ConfigError("batch_size must be positive")
    n = images.shape[0]
    if shuffle:
        order = seeded_rng(seed, "batches", epoch).permutation(n)
    else:
        order = np.arange(n)
    crop_rng = seeded_rng(seed, "augment", epoch) if augment else None
    for start in range(0, n, batch_size):
        idx = order[start:start + batch_size]
        x = images[idx]
        if augment:
            x = augment_crop(x, crop_rng)
        yield x[:, None, :, :], labels[idx]
