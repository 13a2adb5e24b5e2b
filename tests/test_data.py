import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weightflow.data import LabeledDataset, load_idx, load_iris, make_blobs
from weightflow.errors import ArgumentError, DataError


def write_idx_pair(tmp_path, images, labels):
    n, rows, cols = images.shape
    img_path = tmp_path / "images.idx"
    lab_path = tmp_path / "labels.idx"
    with open(img_path, "wb") as f:
        f.write(struct.pack(">IIII", 0x803, n, rows, cols))
        f.write(images.astype(np.uint8).tobytes())
    with open(lab_path, "wb") as f:
        f.write(struct.pack(">II", 0x801, n))
        f.write(labels.astype(np.uint8).tobytes())
    return img_path, lab_path


class TestIris:
    def test_counts_and_classes(self, iris):
        train, test = iris
        assert len(train) + len(test) == 150
        assert set(np.unique(np.concatenate([train.labels, test.labels]))) == {0, 1, 2}
        assert train.features.shape[1] == 4

    def test_split_sizes_80_20(self, iris):
        train, test = iris
        assert len(train) == 120 and len(test) == 30

    def test_stratified(self, iris):
        _, test = iris
        counts = np.bincount(test.labels)
        assert counts.tolist() == [10, 10, 10]

    def test_repeatable(self, iris):
        train2, test2 = load_iris(0.2, seed=0)
        assert np.array_equal(iris[0].features, train2.features)
        assert np.array_equal(iris[1].labels, test2.labels)

    def test_different_seed_differs(self, iris):
        train2, _ = load_iris(0.2, seed=1)
        assert not np.array_equal(iris[0].features, train2.features)


class TestIdx:
    def test_round_trip(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(20, 4, 5), dtype=np.uint8)
        labels = rng.integers(0, 3, size=20, dtype=np.uint8)
        data = load_idx(*write_idx_pair(tmp_path, images, labels))
        assert data.features.shape == (20, 20)
        assert np.allclose(data.features,
                           images.reshape(20, 20).astype(np.float32) / 255.0)
        assert np.array_equal(data.labels, labels)

    def test_limit_prefix(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(20, 2, 2), dtype=np.uint8)
        labels = rng.integers(0, 3, size=20, dtype=np.uint8)
        full = load_idx(*write_idx_pair(tmp_path, images, labels))
        part = load_idx(*write_idx_pair(tmp_path, images, labels), limit=7)
        assert len(part) == 7
        assert np.array_equal(part.features, full.features[:7])

    def test_bad_magic(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(4, 2, 2), dtype=np.uint8)
        labels = rng.integers(0, 3, size=4, dtype=np.uint8)
        img_path, lab_path = write_idx_pair(tmp_path, images, labels)
        blob = bytearray(img_path.read_bytes())
        blob[0] = 0xFF
        img_path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="magic"):
            load_idx(img_path, lab_path)

    def test_truncated(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(4, 2, 2), dtype=np.uint8)
        labels = rng.integers(0, 3, size=4, dtype=np.uint8)
        img_path, lab_path = write_idx_pair(tmp_path, images, labels)
        img_path.write_bytes(img_path.read_bytes()[:-3])
        with pytest.raises(DataError, match="byte offset"):
            load_idx(img_path, lab_path)

    def test_count_mismatch(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(4, 2, 2), dtype=np.uint8)
        labels = rng.integers(0, 3, size=4, dtype=np.uint8)
        img_path, _ = write_idx_pair(tmp_path, images, labels)
        lab_path = tmp_path / "bad_labels.idx"
        with open(lab_path, "wb") as f:
            f.write(struct.pack(">II", 0x801, 5))
            f.write(bytes(5))
        with pytest.raises(DataError, match="count"):
            load_idx(img_path, lab_path)


class TestBlobs:
    def test_shape(self, blobs):
        train, test = blobs
        assert len(train) + len(test) == 150
        assert train.features.shape[1] == 4

    def test_degenerate_clusters_separable(self):
        train, test = make_blobs(num_classes=3, per_class=20, d=4,
                                 spread=1e-6, seed=0)
        # 1-NN from any train point classifies test perfectly
        for x, y in zip(test.features, test.labels):
            nn = np.argmin(np.linalg.norm(train.features - x, axis=1))
            assert train.labels[nn] == y

    def test_seed_determinism(self):
        a = make_blobs(seed=3)[0]
        b = make_blobs(seed=3)[0]
        assert np.array_equal(a.features, b.features)

    def test_invalid_args(self):
        with pytest.raises(ArgumentError):
            make_blobs(num_classes=1)

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_pure_given_seed(self, seed):
        a = make_blobs(num_classes=2, per_class=5, seed=seed)[1]
        b = make_blobs(num_classes=2, per_class=5, seed=seed)[1]
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)


class TestDataset:
    def test_rejects_empty(self):
        with pytest.raises(ArgumentError):
            LabeledDataset(np.zeros((0, 3), dtype=np.float32),
                           np.zeros(0, dtype=np.int64))

    def test_rejects_nan(self):
        feats = np.array([[np.nan, 1.0]], dtype=np.float32)
        with pytest.raises(ArgumentError):
            LabeledDataset(feats, np.zeros(1, dtype=np.int64))
