"""Accuracy and diversity metrics for generated populations.

Behavioral diversity uses the intersection-over-union of wrong-prediction
index sets; distributional distances compare pooled scalar weight values
(1-D Wasserstein, Jensen-Shannon over shared histograms) and vector
geometry (mean pairwise cosine similarity and L2, nearest-neighbor L2).

The distances take float32 populations as they are and compute in float64
one block at a time: each float32 value's cast to float64 is exact, so the
results are the bits of the same functions on whole float64 copies.
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
    """Per-query maximum IoU against all references.

    Every pair at once: the intersection counts are one float64 product of
    0/1 indicator matrices (rows are sets, columns the elements of their
    union), each union is |q| + |r| - |q & r|, and an empty union counts as
    1.0. The counts are exact integers and each division is correctly
    rounded, so every value equals `iou`'s bit for bit."""
    if len(references) == 0:
        raise ArgumentError("references must be nonempty")
    column = {e: k for k, e in enumerate(frozenset().union(*queries, *references))}

    def indicator(sets):
        rows = np.zeros((len(sets), len(column)))
        for i, s in enumerate(sets):
            rows[i, [column[e] for e in s]] = 1.0
        return rows

    q, r = indicator(queries), indicator(references)
    inter = q @ r.T
    union = q.sum(axis=1)[:, None] + r.sum(axis=1) - inter
    empty = union == 0
    scores = np.divide(inter, union, out=np.ones_like(inter), where=~empty)
    per_query = scores.max(axis=1)
    return MaxIouResult(per_query, float(per_query.mean()), float(per_query.std()))


# Most values one block of a distance holds: the quantile-grid points
# wasserstein_1d interpolates at a time, the values jensen_shannon bins at a
# time, and the float64 values of one row block (`block_rows`). `_tree_sum`
# equals numpy's sum only when W1_BLOCK >= 128, numpy's unsplit pairwise
# block: numpy adds a run of at most 128 as 8 interleaved partial sums, and
# splitting such a run into smaller leaves adds in another order.
W1_BLOCK = 1 << 15


def block_rows(width: int) -> int:
    """Rows of `width` values in one block of at most W1_BLOCK values, at
    least one."""
    return max(1, W1_BLOCK // max(1, width))


def _values(x) -> np.ndarray:
    """x as an array: float32 as it is, anything else as float64."""
    x = np.asarray(x)
    return x if x.dtype == np.float32 else x.astype(np.float64, copy=False)


def _tree_sum(leaf, start: int, count: int) -> float:
    """`np.add.reduce` of a contiguous float64 run of `count` values from
    index `start`, bit for bit, from `leaf(start, size)` arrays of at most
    W1_BLOCK of them.

    numpy sums a contiguous run pairwise: a run longer than 128 is split at
    half its length rounded down to a multiple of 8, and the two halves'
    sums are added. Splitting at the same points down to runs of at most
    W1_BLOCK and reducing each with numpy walks the same tree."""
    if count > W1_BLOCK:
        left = count // 2 - count // 2 % 8
        return _tree_sum(leaf, start, left) + _tree_sum(leaf, start + left, count - left)
    return np.add.reduce(leaf(start, count))


def wasserstein_1d(a: np.ndarray, b: np.ndarray) -> float:
    """W1 between two scalar empirical distributions.

    Equal sizes reduce to the mean absolute difference of sorted samples;
    unequal sizes integrate |F_a^-1 - F_b^-1| with linear interpolation on
    the midpoints of n = 4 max(|a|, |b|) equal cells of [0, 1]. The n values
    (|a - b| or |qa - qb|) are never held at once: `_tree_sum` evaluates
    them W1_BLOCK at a time and adds the blocks along numpy's pairwise-sum
    tree, so the result is `np.mean` of the whole array bit for bit.
    Nor are the knots (j + 0.5) / m of a sorted sample of size m: each block
    interpolates on the knots j = lo..hi-1 that its span [g0, g1] reads,
    lo = int(g0 m - 0.5) - 1 and hi = int(g1 m - 0.5) + 3 clipped to 0..m,
    one knot beyond each end. `np.interp` takes a value from the interval
    that holds the point and the two knots that bound it, and the knots are
    formed by the same operations as the whole array's, so the values are
    the same bits.

    It holds the two sorted samples in their own dtype (float32 samples
    are sorted as float32: the cast to float64 is exact and monotone, so it
    commutes with the sort, and zeros of either sign, which the sorts may
    order differently, give the same |differences|), plus one block's
    float64 values: `np.interp` casts a block's float32 knots itself, and
    the equal-size differences are taken in float64.
    """
    a = np.sort(_values(a).ravel())
    b = np.sort(_values(b).ravel())
    if a.size == 0 or b.size == 0:
        raise ArgumentError("empty sample set")
    if a.size == b.size:
        def diff(start, size):
            out = np.subtract(a[start:start + size], b[start:start + size],
                              dtype=np.float64)
            return np.abs(out, out=out)

        return float(_tree_sum(diff, 0, a.size) / a.size)
    n = 4 * max(a.size, b.size)
    step, half = 1.0 / n, 0.5 / n     # grid k = k * step + half, as linspace

    def quantiles(grid, v):
        m = v.size
        lo = max(0, int(grid[0] * m - 0.5) - 1)
        hi = min(m, int(grid[-1] * m - 0.5) + 3)
        return np.interp(grid, (np.arange(lo, hi) + 0.5) / m, v[lo:hi])

    def gap(start, size):
        grid = np.arange(start, start + size, dtype=np.float64)
        grid *= step
        grid += half
        out = quantiles(grid, a)
        out -= quantiles(grid, b)
        return np.abs(out, out=out)

    return float(_tree_sum(gap, 0, n) / n)


def jensen_shannon(a: np.ndarray, b: np.ndarray, bins: int = 100) -> float:
    """JS distance (sqrt of base-2 JS divergence) between histogram
    estimates over the pooled min/max range.

    Each sample is binned W1_BLOCK values at a time, each block cast to
    float64 first (`np.histogram` takes its bin edges' dtype from its
    input), and the blocks' integer counts are added: a value's bin depends
    on it and the range alone, so the counts are those of the whole float64
    array. Beyond its inputs it holds one block and its histogram."""
    a, b = _values(a).ravel(), _values(b).ravel()
    lo = float(min(a.min(), b.min()))
    hi = float(max(a.max(), b.max()))
    if lo == hi:
        hi = lo + 1.0

    def counts(v):
        return sum(np.histogram(v[s:s + W1_BLOCK].astype(np.float64), bins=bins,
                                range=(lo, hi))[0]
                   for s in range(0, v.size, W1_BLOCK))

    pa, pb = counts(a), counts(b)
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


def _row_norms(m: np.ndarray) -> np.ndarray:
    """`np.linalg.norm` of each row of m cast to float64, bit for bit (each
    row is reduced alone), from `block_rows` rows at a time."""
    rows = block_rows(m.shape[1])
    return np.concatenate([np.linalg.norm(m[s:s + rows].astype(np.float64, copy=False), axis=1)
                           for s in range(0, m.shape[0], rows)])


def distribution_distances(a: np.ndarray, b: np.ndarray) -> DistributionDistances:
    """Distances between two sets of flat vectors (rows are samples).

    float32 sets are read as they are; every value is that of the same
    computation on float64 copies. Beyond its inputs it holds, one after
    the other: W1's sorted copies of both sets; blocks (see
    `jensen_shannon` and `_row_norms`); float64 copies of both sets for the
    one product a @ b.T, which stays whole, as OpenBLAS gives a row block
    of it other bits than the same rows of the whole product."""
    a = np.atleast_2d(_values(a))
    b = np.atleast_2d(_values(b))
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ArgumentError("empty vector set")
    if a.shape[1] != b.shape[1]:
        raise ArgumentError("dimension mismatch")
    w1 = wasserstein_1d(a.ravel(), b.ravel())
    js = jensen_shannon(a.ravel(), b.ravel())

    norms_a, norms_b = _row_norms(a), _row_norms(b)
    dots = a.astype(np.float64, copy=False) @ b.astype(np.float64, copy=False).T
    denom = np.outer(norms_a, norms_b)
    denom[denom == 0] = 1.0
    cosine = float((dots / denom).mean())

    sq = (norms_a[:, None] ** 2 + norms_b[None, :] ** 2 - 2 * dots)
    dist = np.sqrt(np.clip(sq, 0.0, None))
    l2 = float(dist.mean())

    if a.shape == b.shape and np.array_equal(a, b):
        np.fill_diagonal(dist, np.inf)    # a row is not its own neighbour
    nn = dist.min(axis=1)
    return DistributionDistances(
        wasserstein=w1, jensen_shannon=js, cosine=cosine, l2=l2,
        nn_mean=float(nn.mean()), nn_std=float(nn.std()),
    )
