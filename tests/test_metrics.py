import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weightflow import metrics
from weightflow.errors import ArgumentError
from weightflow.metrics import (W1_BLOCK, _tree_sum, distribution_distances, iou,
                                jensen_shannon, max_iou, wasserstein_1d,
                                wrong_set)


def reference_wasserstein_1d(a, b):
    """W1 with the whole quantile grid held at once."""
    a = np.sort(np.asarray(a, dtype=np.float64).ravel())
    b = np.sort(np.asarray(b, dtype=np.float64).ravel())
    if a.size == b.size:
        return float(np.mean(np.abs(a - b)))
    n = 4 * max(a.size, b.size)
    grid = np.linspace(0.0, 1.0, n, endpoint=False) + 0.5 / n
    qa = np.interp(grid, (np.arange(a.size) + 0.5) / a.size, a)
    qb = np.interp(grid, (np.arange(b.size) + 0.5) / b.size, b)
    return float(np.mean(np.abs(qa - qb)))


def reference_jensen_shannon(a, b, bins=100):
    """JS with both samples cast and binned whole."""
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

    return float(np.sqrt(max(0.0, 0.5 * kl(pa, m) + 0.5 * kl(pb, m))))


def reference_distribution_distances(a, b):
    """Every distance from whole float64 copies of both sets."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    norms_a = np.linalg.norm(a, axis=1)
    norms_b = np.linalg.norm(b, axis=1)
    dots = a @ b.T
    denom = np.outer(norms_a, norms_b)
    denom[denom == 0] = 1.0
    sq = (norms_a[:, None] ** 2 + norms_b[None, :] ** 2 - 2 * dots)
    dist = np.sqrt(np.clip(sq, 0.0, None))
    l2 = float(dist.mean())
    if a.shape == b.shape and np.array_equal(a, b):
        np.fill_diagonal(dist, np.inf)
    nn = dist.min(axis=1)
    return metrics.DistributionDistances(
        wasserstein=reference_wasserstein_1d(a.ravel(), b.ravel()),
        jensen_shannon=reference_jensen_shannon(a.ravel(), b.ravel()),
        cosine=float((dots / denom).mean()), l2=l2,
        nn_mean=float(nn.mean()), nn_std=float(nn.std()))


def _bits(distances):
    """The bytes of every field (a lone row's nn_std is NaN)."""
    return np.array(dataclasses.astuple(distances)).tobytes()


def float32_sets(gen, shapes, levels):
    """float32 samples: heavy-tailed, or small integers of both zero signs
    (ties, and +0 and -0 that sort in either order) when `levels` > 0."""
    def draw(shape):
        if levels:
            v = gen.integers(-levels, levels + 1, size=shape) * gen.choice([-1.0, 1.0], shape)
        else:
            v = gen.standard_cauchy(shape)
        return v.astype(np.float32)
    return [draw(shape) for shape in shapes]


@given(na=st.integers(1, 40), nb=st.integers(1, 40), p=st.integers(1, 30),
       equal=st.booleans(), levels=st.sampled_from([0, 1, 3]),
       block=st.sampled_from([128, 300, W1_BLOCK]), seed=st.integers(0, 2 ** 32 - 1))
@example(na=1, nb=1, p=1, equal=True, levels=0, block=128, seed=0)
@example(na=1, nb=2, p=5, equal=False, levels=1, block=128, seed=1)
@example(na=2, nb=2, p=200, equal=True, levels=3, block=128, seed=2)
@settings(max_examples=150, deadline=None)
def test_float32_sets_give_the_bits_of_their_float64_copies(na, nb, p, equal, levels,
                                                            block, seed):
    # W1 (both paths), JS and every distance read float32 sets a block at a
    # time; blocks of 128-300 values and rows split the sets at many points.
    # The references cast each float32 argument to its own float64 copy, as
    # the evaluate stage once did (so a @ a.T is a general product there too);
    # float64 sets must keep their bits as well.
    sets = float32_sets(np.random.default_rng(seed), [(na, p), (na if equal else nb, p)],
                        levels)
    with pytest.MonkeyPatch.context() as mp, np.errstate(invalid="ignore"):
        mp.setattr(metrics, "W1_BLOCK", block)      # a lone row's nn_std is NaN
        for a, b in (sets, [v.astype(np.float64) for v in sets]):
            assert wasserstein_1d(a, b) == reference_wasserstein_1d(a, b)
            assert jensen_shannon(a, b) == reference_jensen_shannon(a, b)
            for x, y in ((a, b), (a, a)):
                assert (_bits(distribution_distances(x, y))
                        == _bits(reference_distribution_distances(x, y)))


class TestWrongSet:
    def test_perfect(self):
        assert wrong_set(np.array([0, 1, 2]), np.array([0, 1, 2])) == frozenset()

    def test_all_wrong(self):
        assert wrong_set(np.array([1, 2, 0]), np.array([0, 1, 2])) == {0, 1, 2}

    def test_hand_case(self):
        assert wrong_set(np.array([0, 1, 2, 2]),
                         np.array([0, 1, 1, 2])) == {2}

    def test_length_mismatch(self):
        with pytest.raises(ArgumentError):
            wrong_set(np.array([0, 1]), np.array([0]))


class TestIou:
    def test_identical_nonempty(self):
        assert iou({1, 2}, {1, 2}) == 1.0

    def test_disjoint(self):
        assert iou({1}, {2}) == 0.0

    def test_hand_case(self):
        assert iou({1, 2, 3}, {2, 3, 4}) == 0.5

    def test_both_empty(self):
        assert iou(set(), set()) == 1.0

    def test_empty_vs_nonempty(self):
        assert iou(set(), {1}) == 0.0

    @given(a=st.frozensets(st.integers(0, 20)), b=st.frozensets(st.integers(0, 20)))
    @settings(max_examples=100, deadline=None)
    def test_symmetric_bounded(self, a, b):
        v = iou(a, b)
        assert v == iou(b, a)
        assert 0.0 <= v <= 1.0
        assert iou(a, a) == 1.0


class TestMaxIou:
    def test_query_in_references(self):
        r = max_iou([{1, 2}], [{3}, {1, 2}])
        assert r.per_query[0] == 1.0

    def test_single_reference_hand_value(self):
        r = max_iou([{1, 2, 3}], [{2, 3, 4}])
        assert r.per_query[0] == 0.5
        assert r.mean == 0.5 and r.std == 0.0

    def test_empty_references(self):
        with pytest.raises(ArgumentError):
            max_iou([{1}], [])

    @given(queries=st.lists(st.frozensets(st.integers(0, 40)), min_size=1, max_size=8),
           references=st.lists(st.frozensets(st.integers(0, 40)), min_size=1, max_size=8))
    @example(queries=[frozenset(), frozenset({3})], references=[frozenset({3}), frozenset()])
    @settings(max_examples=200, deadline=None)
    def test_matches_the_iou_loop(self, queries, references):
        got = max_iou(queries, references)
        want = np.array([max(iou(q, r) for r in references) for q in queries])
        assert got.per_query.tobytes() == want.tobytes()
        assert got.mean == float(want.mean()) and got.std == float(want.std())


class TestWasserstein:
    def test_identical(self, rng):
        a = rng.normal(size=100)
        assert wasserstein_1d(a, a) == 0.0

    def test_translation_identity(self, rng):
        a = rng.normal(size=200)
        assert abs(wasserstein_1d(a, a + 2.5) - 2.5) <= 1e-12

    def test_two_point_hand_case(self):
        assert wasserstein_1d(np.array([0.0, 1.0]), np.array([0.0, 3.0])) == 1.0

    def test_symmetric_nonnegative(self, rng):
        a, b = rng.normal(size=50), rng.normal(1.0, 2.0, size=80)
        v = wasserstein_1d(a, b)
        assert v >= 0
        assert abs(v - wasserstein_1d(b, a)) <= 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ArgumentError):
            wasserstein_1d(np.array([]), np.array([1.0]))

    @pytest.mark.parametrize("na,nb", [
        (1, 5), (3, 7), (64, 64), (17, W1_BLOCK + 3), (W1_BLOCK // 4, 3),
        (25 * 531, 400 * 531)])
    def test_bit_equal_to_whole_grid(self, rng, na, nb):
        a, b = rng.normal(size=na), rng.normal(0.3, 2.0, size=nb)
        assert wasserstein_1d(a, b) == reference_wasserstein_1d(a, b)
        assert wasserstein_1d(b, a) == reference_wasserstein_1d(b, a)

    def test_peak_memory_at_generated_population_shapes(self, rng):
        # 25 originals against 400 generated networks of 531 weights
        a, b = rng.normal(size=(25, 531)), rng.normal(size=(400, 531))
        tracemalloc.start()
        try:
            wasserstein_1d(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6, peak

    def test_float32_peak_memory_is_the_sorted_samples_and_blocks(self, rng):
        # 25 and 400 float32 networks of 531 weights: the two sorted float32
        # samples (0.9 MB) and three float64 blocks of W1_BLOCK values, not
        # float64 copies of the samples.
        a, b = (rng.normal(size=(n, 531)).astype(np.float32) for n in (25, 400))
        for x, y in ((a, b), (b, b)):
            tracemalloc.start()
            try:
                wasserstein_1d(x, y)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= x.nbytes + y.nbytes + 3 * 8 * W1_BLOCK + 2 ** 16, peak

    def test_peak_memory_holds_knots_per_block(self, rng):
        # The same shapes: each block reads only its own knots, so no
        # full-size knot array sits next to the two sorted samples.
        a, b = rng.normal(size=(25, 531)), rng.normal(size=(400, 531))
        tracemalloc.start()
        try:
            wasserstein_1d(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6, peak

    @given(na=st.integers(1, 3000), nb=st.integers(1, 3000), block=st.integers(128, 400),
           levels=st.sampled_from([0, 2, 7]), seed=st.integers(0, 2 ** 32 - 1))
    @example(na=1, nb=3000, block=128, levels=0, seed=0)
    @example(na=2999, nb=3000, block=400, levels=2, seed=1)
    @settings(max_examples=60, deadline=None)
    def test_bit_equal_with_small_blocks(self, na, nb, block, levels, seed):
        # Blocks of 128-400 grid points start and end inside knot windows
        # and at both ends of the grid; `levels` > 0 draws ties.
        gen = np.random.default_rng(seed)

        def draw(size):
            if levels:
                return gen.integers(0, levels, size).astype(np.float64)
            return gen.standard_cauchy(size)

        a, b = draw(na), draw(nb)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "W1_BLOCK", block)
            assert wasserstein_1d(a, b) == reference_wasserstein_1d(a, b)
            assert wasserstein_1d(b, a) == reference_wasserstein_1d(b, a)

    @given(blocks=st.integers(0, 3), offset=st.integers(-9, 9), start=st.integers(0, 16),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_tree_sum_is_numpy_sum(self, blocks, offset, start, seed):
        # Lengths around multiples of W1_BLOCK (the leaves) and of 8 (numpy's
        # split points), from a run that starts inside a larger array.
        count = max(1, blocks * W1_BLOCK + 8 * offset + offset % 3)
        x = np.abs(np.random.default_rng(seed).standard_cauchy(start + count))
        want = np.add.reduce(x[start:])
        got = _tree_sum(lambda s, size: x[s:s + size], start, count)
        assert got == want

    @given(seed=st.integers(0, 1000), shift=st.floats(-5, 5))
    @settings(max_examples=40, deadline=None)
    def test_translation_property(self, seed, shift):
        a = np.random.default_rng(seed).normal(size=64)
        assert abs(wasserstein_1d(a, a + shift) - abs(shift)) <= 1e-9


class TestJensenShannon:
    def test_identical(self, rng):
        a = rng.normal(size=500)
        assert jensen_shannon(a, a) == 0.0

    def test_bounded_by_one(self, rng):
        a = rng.normal(0, 1, size=500)
        b = rng.normal(100, 1, size=500)
        v = jensen_shannon(a, b)
        assert 0.99 <= v <= 1.0 + 1e-12

    def test_symmetric(self, rng):
        a, b = rng.normal(size=300), rng.normal(2, 1, size=300)
        assert abs(jensen_shannon(a, b) - jensen_shannon(b, a)) <= 1e-12


class TestJensenShannonMemory:
    def test_float32_peak_memory_is_one_block(self, rng):
        # np.histogram's temporaries of one W1_BLOCK block, and the block's
        # float64 cast, not a float64 copy of either sample (1.7 MB here).
        a, b = (rng.normal(size=(n, 531)).astype(np.float32) for n in (25, 400))
        tracemalloc.start()
        try:
            jensen_shannon(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 8 * W1_BLOCK, peak


class TestDistributionDistances:
    def test_float32_peak_memory_is_the_product_copies(self, rng):
        # 10 and 200 float32 networks of 5,187 weights (4.4 MB): float64
        # copies of both for the one product a @ b.T, and blocks.
        a, b = (rng.normal(size=(n, 5187)).astype(np.float32) for n in (10, 200))
        tracemalloc.start()
        try:
            distribution_distances(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * (a.nbytes + b.nbytes) + 6 * 8 * W1_BLOCK, peak

    def test_identical_sets(self, rng):
        x = rng.normal(size=(8, 12))
        d = distribution_distances(x, x)
        assert d.wasserstein == 0.0
        assert d.jensen_shannon == 0.0
        assert d.nn_mean > 0  # self-excluded, all rows distinct

    def test_shift(self, rng):
        x = rng.normal(size=(6, 10))
        d = distribution_distances(x, x + 3.0)
        assert abs(d.wasserstein - 3.0) <= 1e-12

    def test_nn_self_exclusion_duplicates(self):
        x = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 5.0]])
        d = distribution_distances(x, x)
        assert d.nn_mean > 0  # the two duplicates contribute 0; mean > 0
        dup = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert distribution_distances(dup, dup).nn_mean == 0.0

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ArgumentError):
            distribution_distances(rng.normal(size=(3, 4)),
                                   rng.normal(size=(3, 5)))

    def test_cosine_of_aligned_vectors(self):
        x = np.array([[1.0, 0.0]])
        y = np.array([[2.0, 0.0]])
        d = distribution_distances(x, y)
        assert abs(d.cosine - 1.0) <= 1e-12
        assert abs(d.l2 - 1.0) <= 1e-12
