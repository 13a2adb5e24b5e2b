"""Accuracy and diversity metrics for generated populations.

Behavioral diversity uses the intersection-over-union of wrong-prediction
index sets; distributional distances compare pooled scalar weight values
(1-D Wasserstein, Jensen-Shannon over shared histograms) and vector
geometry (mean pairwise cosine similarity and L2, nearest-neighbor L2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError


def wrong_set(predictions: np.ndarray, labels: np.ndarray) -> frozenset:
    """Indices where prediction != label."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ArgumentError("predictions/labels length mismatch")
    return frozenset(np.flatnonzero(predictions != labels).tolist())


def iou(a, b) -> float:
    """|a & b| / |a | b|; two empty sets count as identical (1.0)."""
    a, b = frozenset(a), frozenset(b)
    union = a | b
    if not union:
        return 1.0
    return len(a & b) / len(union)


@dataclass
class MaxIouResult:
    per_query: np.ndarray
    mean: float
    std: float


def max_iou(queries, references) -> MaxIouResult:
    """Per-query maximum IoU against all references."""
    if len(references) == 0:
        raise ArgumentError("references must be nonempty")
    per_query = np.array([max(iou(q, r) for r in references) for q in queries])
    return MaxIouResult(per_query, float(per_query.mean()), float(per_query.std()))


# Quantile-grid points interpolated at a time by wasserstein_1d.
W1_BLOCK = 1 << 16


def wasserstein_1d(a: np.ndarray, b: np.ndarray) -> float:
    """W1 between two scalar empirical distributions.

    Equal sizes reduce to the mean absolute difference of sorted samples;
    unequal sizes integrate |F_a^-1 - F_b^-1| with linear interpolation on
    the midpoints of 4 max(|a|, |b|) equal cells of [0, 1]. The grid and
    both quantile functions are evaluated W1_BLOCK points at a time into one
    array of |qa - qb|, whose mean is taken once.
    """
    a = np.sort(np.asarray(a, dtype=np.float64).ravel())
    b = np.sort(np.asarray(b, dtype=np.float64).ravel())
    if a.size == 0 or b.size == 0:
        raise ArgumentError("empty sample set")
    if a.size == b.size:
        return float(np.mean(np.abs(a - b)))
    n = 4 * max(a.size, b.size)
    step, half = 1.0 / n, 0.5 / n     # grid k = k * step + half, as linspace
    xa = (np.arange(a.size) + 0.5) / a.size
    xb = (np.arange(b.size) + 0.5) / b.size
    gap = np.empty(n)
    for start in range(0, n, W1_BLOCK):
        grid = np.arange(start, min(start + W1_BLOCK, n), dtype=np.float64)
        grid *= step
        grid += half
        out = gap[start:start + grid.size]
        np.subtract(np.interp(grid, xa, a), np.interp(grid, xb, b), out=out)
        np.abs(out, out=out)
    return float(np.mean(gap))


def jensen_shannon(a: np.ndarray, b: np.ndarray, bins: int = 100) -> float:
    """JS distance (sqrt of base-2 JS divergence) between histogram
    estimates over the pooled min/max range."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    lo = min(a.min(), b.min())
    hi = max(a.max(), b.max())
    if lo == hi:
        hi = lo + 1.0
    pa, _ = np.histogram(a, bins=bins, range=(lo, hi))
    pb, _ = np.histogram(b, bins=bins, range=(lo, hi))
    pa = pa / pa.sum()
    pb = pb / pb.sum()
    m = 0.5 * (pa + pb)

    def kl(p, q):
        mask = p > 0
        return float(np.sum(p[mask] * np.log2(p[mask] / q[mask])))

    div = 0.5 * kl(pa, m) + 0.5 * kl(pb, m)
    return float(np.sqrt(max(0.0, div)))


@dataclass
class DistributionDistances:
    wasserstein: float
    jensen_shannon: float
    cosine: float
    l2: float
    nn_mean: float
    nn_std: float


def distribution_distances(a: np.ndarray, b: np.ndarray) -> DistributionDistances:
    """Distances between two sets of flat vectors (rows are samples)."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ArgumentError("empty vector set")
    if a.shape[1] != b.shape[1]:
        raise ArgumentError("dimension mismatch")
    w1 = wasserstein_1d(a.ravel(), b.ravel())
    js = jensen_shannon(a.ravel(), b.ravel())

    norms_a = np.linalg.norm(a, axis=1)
    norms_b = np.linalg.norm(b, axis=1)
    dots = a @ b.T
    denom = np.outer(norms_a, norms_b)
    denom[denom == 0] = 1.0
    cosine = float((dots / denom).mean())

    sq = (norms_a[:, None] ** 2 + norms_b[None, :] ** 2 - 2 * dots)
    dist = np.sqrt(np.clip(sq, 0.0, None))
    l2 = float(dist.mean())

    same_set = a.shape == b.shape and np.array_equal(a, b)
    nn = []
    for i in range(a.shape[0]):
        row = dist[i].copy()
        if same_set:
            row[i] = np.inf
        nn.append(row.min())
    nn = np.array(nn)
    return DistributionDistances(
        wasserstein=w1, jensen_shannon=js, cosine=cosine, l2=l2,
        nn_mean=float(nn.mean()), nn_std=float(nn.std()),
    )
