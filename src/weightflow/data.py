"""Deterministic dataset ingestion and synthesis.

Loaders are pure given (paths, seeds): repeated calls return bit-identical
datasets. Iris ships embedded so the flagship pipeline needs no network.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from ._iris_data import IRIS_ROWS
from .checkpoint_io import _read_exact
from .errors import ArgumentError, ConfigError, DataError
from .rng import make_rng

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass(frozen=True)
class LabeledDataset:
    features: np.ndarray  # (n, d) float32
    labels: np.ndarray    # (n,) int64

    def __post_init__(self):
        if self.features.shape[0] == 0:
            raise ArgumentError("dataset must be nonempty")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ArgumentError("features/labels length mismatch")
        if np.isnan(self.features).any():
            raise ArgumentError("NaN features")

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1

    def __len__(self) -> int:
        return self.features.shape[0]


def _stratified_split(features, labels, test_fraction, seed):
    """Deterministic per-class split; test gets round(frac * class size).
    ConfigError if that leaves a class no train or no test point.

    Labels are non-negative int64, so the classes present are the nonzero
    bins of `np.bincount`, in ascending order as `np.unique` gives them;
    `np.unique` would load `numpy.ma` into the process."""
    rng = make_rng(seed, "split")
    train_idx, test_idx = [], []
    for c in np.flatnonzero(np.bincount(labels)):
        idx = np.flatnonzero(labels == c)
        idx = idx[rng.permutation(len(idx))]
        n_test = int(round(test_fraction * len(idx)))
        if not 0 < n_test < len(idx):
            raise ConfigError(f"test_fraction {test_fraction} leaves class {c} {n_test} of "
                              f"{len(idx)} points to test; it needs >= 1 train and test point")
        test_idx.append(idx[:n_test])
        train_idx.append(idx[n_test:])
    train_idx = np.sort(np.concatenate(train_idx))
    test_idx = np.sort(np.concatenate(test_idx))
    return (
        LabeledDataset(features[train_idx], labels[train_idx]),
        LabeledDataset(features[test_idx], labels[test_idx]),
    )


def load_iris(test_fraction: float = 0.2, seed: int = 0):
    """Embedded Iris: 150 samples, 4 features, 3 classes, stratified split.

    Features are min-max scaled to [0, 1] per dimension using train-split
    statistics, applied to both splits (monotone per feature).
    """
    arr = np.array(IRIS_ROWS, dtype=np.float64)
    features = arr[:, :4].astype(np.float32)
    labels = arr[:, 4].astype(np.int64)
    train, test = _stratified_split(features, labels, test_fraction, seed)
    lo = train.features.min(axis=0)
    span = train.features.max(axis=0) - lo
    span = np.where(span == 0.0, 1.0, span)
    return (
        LabeledDataset(((train.features - lo) / span).astype(np.float32), train.labels),
        LabeledDataset(((test.features - lo) / span).astype(np.float32), test.labels),
    )


def load_idx(images_path, labels_path, limit: int | None = None) -> LabeledDataset:
    """Read an IDX image/label file pair (big-endian MNIST format).

    Pixels are scaled to [0,1]; 28x28 images flatten row-major to 784.
    """
    with open(images_path, "rb") as f:
        magic, n_img, rows, cols = struct.unpack(">IIII", _read_exact(f, 16, images_path, "header"))
        if magic != IDX_IMAGES_MAGIC:
            raise DataError(f"{images_path}: bad magic 0x{magic:08x} at byte offset 0")
        take = n_img if limit is None else min(limit, n_img)
        raw = _read_exact(f, take * rows * cols, images_path, f"{take} images")
        images = np.frombuffer(raw, dtype=np.uint8).reshape(take, rows * cols)
    with open(labels_path, "rb") as f:
        magic, n_lab = struct.unpack(">II", _read_exact(f, 8, labels_path, "header"))
        if magic != IDX_LABELS_MAGIC:
            raise DataError(f"{labels_path}: bad magic 0x{magic:08x} at byte offset 0")
        if n_lab != n_img:
            raise DataError(
                f"{labels_path}: label count {n_lab} != image count {n_img}"
            )
        raw = _read_exact(f, take, labels_path, f"{take} labels")
        labels = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)
    features = (images.astype(np.float32) / 255.0)
    return LabeledDataset(features, labels)


def make_blobs(num_classes: int = 3, per_class: int = 50, d: int = 4,
               spread: float = 1.0, seed: int = 0, test_fraction: float = 0.2):
    """Gaussian clusters at deterministic class centers, stratified split."""
    if num_classes < 2 or per_class < 2:
        raise ArgumentError("need num_classes >= 2 and per_class >= 2")
    center_rng = make_rng(0, "blobs", 0)  # centers fixed per geometry, not per seed
    centers = center_rng.normal(0.0, 3.0, size=(num_classes, d))
    rng = make_rng(seed, "blobs", 1)
    features = np.empty((num_classes * per_class, d), dtype=np.float32)
    labels = np.empty(num_classes * per_class, dtype=np.int64)
    for c in range(num_classes):
        block = slice(c * per_class, (c + 1) * per_class)
        features[block] = centers[c] + rng.normal(0.0, spread, size=(per_class, d))
        labels[block] = c
    return _stratified_split(features, labels, test_fraction, seed)
