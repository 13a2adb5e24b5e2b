import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weightflow.errors import ArgumentError
from weightflow.metrics import (W1_BLOCK, distribution_distances, iou,
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
        assert peak < 16e6, peak

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


class TestDistributionDistances:
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
