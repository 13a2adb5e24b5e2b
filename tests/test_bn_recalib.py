import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weightflow import nn_core
from weightflow.activations import ACTIVATIONS
from weightflow.bn_recalib import PooledStats, recalibrate
from weightflow.data import LabeledDataset
from weightflow.errors import ArgumentError
from weightflow.nn_core import (BN_EPS, ArchitectureSpec, Population, evaluate,
                                forward, init_population, member_blocks)


def dataset(features):
    feats = np.asarray(features, dtype=np.float32)
    return LabeledDataset(feats, np.zeros(feats.shape[0], dtype=np.int64))


def recalibrated(net, data, batch_size=64, calib_fraction=1.0):
    """A copy of `net` with its BN statistics recalibrated."""
    out = Population(net.arch, net.params.copy(),
                     {l: tuple(c.copy() for c in cols) for l, cols in net.bn.items()})
    recalibrate(out, data, batch_size, calib_fraction)
    return out


class TestPooledStats:
    def test_hand_case_two_batches(self):
        stats = PooledStats.zeros(1)
        stats.update(np.array([1.0]), np.array([1.0]), 2)   # batch [0, 2]
        stats.update(np.array([5.0]), np.array([1.0]), 2)   # batch [4, 6]
        assert stats.mean[0] == 3.0
        assert stats.var[0] == 5.0
        assert stats.count == 4

    def test_single_batch(self, rng):
        batch = rng.normal(size=(10, 3))
        stats = PooledStats.zeros(3)
        stats.update_from_batch(batch)
        assert np.allclose(stats.mean, batch.mean(axis=0))
        assert np.allclose(stats.var, batch.var(axis=0))

    def test_invalid_count(self):
        with pytest.raises(ArgumentError):
            PooledStats.zeros(2).update(np.zeros(2), np.ones(2), 0)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_partition_invariance(self, seed):
        gen = np.random.default_rng(seed)
        stream = gen.normal(size=(40, 3))
        cuts = np.sort(gen.choice(np.arange(1, 40), size=gen.integers(1, 6),
                                  replace=False))
        stats = PooledStats.zeros(3)
        for part in np.split(stream, cuts):
            stats.update_from_batch(part)
        ref_mean = stream.mean(axis=0)
        ref_var = stream.var(axis=0)
        assert np.max(np.abs(stats.mean - ref_mean)
                      / np.maximum(np.abs(ref_mean), 1e-12)) <= 1e-10
        assert np.max(np.abs(stats.var - ref_var)
                      / np.maximum(np.abs(ref_var), 1e-12)) <= 1e-10


class TestRecalibrate:
    ARCH = ArchitectureSpec((4, 6, 3), "relu", (True,))

    def test_batch_size_n_equals_batch_stats(self, rng):
        net = init_population(self.ARCH, [0])
        data = dataset(rng.normal(size=(32, 4)))
        out = recalibrated(net, data, batch_size=32)
        pre = data.features.astype(np.float64) @ net.weights[0][0].T.astype(np.float64) \
            + net.biases[0][0, 0].astype(np.float64)
        assert np.allclose(out.bn[0][0][0], pre.mean(axis=0), rtol=1e-12)
        assert np.allclose(out.bn[0][1][0], pre.var(axis=0), rtol=1e-12)

    def test_partition_independent(self, rng):
        net = init_population(self.ARCH, [1])
        data = dataset(rng.normal(size=(50, 4)))
        a = recalibrated(net, data, batch_size=7)
        b = recalibrated(net, data, batch_size=50)
        assert np.max(np.abs(a.bn[0][0] - b.bn[0][0])) <= 1e-12
        assert np.max(np.abs(a.bn[0][1] - b.bn[0][1])) <= 1e-12

    def test_deep_bn_partition_independent(self, rng):
        arch = ArchitectureSpec((4, 6, 6, 3), "relu", (True, True))
        net = init_population(arch, [2])
        data = dataset(rng.normal(size=(48, 4)))
        a = recalibrated(net, data, batch_size=5)
        b = recalibrated(net, data, batch_size=48)
        for l in (0, 1):
            assert np.max(np.abs(a.bn[l][1] - b.bn[l][1])) <= 1e-10

    def test_weights_untouched(self, rng):
        net = init_population(self.ARCH, [3])
        out = recalibrated(net, dataset(rng.normal(size=(20, 4))))
        assert np.array_equal(net.params, out.params)

    def test_idempotent(self, rng):
        net = init_population(self.ARCH, [4])
        data = dataset(rng.normal(size=(20, 4)))
        once = recalibrated(net, data, batch_size=6)
        twice = recalibrated(once, data, batch_size=6)
        assert np.array_equal(once.bn[0][0], twice.bn[0][0])
        assert np.array_equal(once.bn[0][1], twice.bn[0][1])

    def test_no_bn_warns(self, rng):
        net = init_population(ArchitectureSpec((4, 6, 3)), [0])
        with pytest.warns(UserWarning, match="no BN"):
            out = recalibrated(net, dataset(rng.normal(size=(8, 4))))
        assert np.array_equal(net.params, out.params)

    def test_changes_eval_outputs(self, rng):
        # recalibrated stats actually flow into eval-mode normalization
        net = init_population(self.ARCH, [5])
        data = dataset(rng.normal(2.0, 1.0, size=(30, 4)))
        out = recalibrated(net, data)
        a = forward(net, data.features, "eval")
        b = forward(out, data.features, "eval")
        assert not np.allclose(a, b)

    def test_calib_fraction(self, rng):
        net = init_population(self.ARCH, [6])
        data = dataset(rng.normal(size=(40, 4)))
        half = recalibrated(net, data, calib_fraction=0.5)
        assert half.bn[0][2].tolist() == [20]
        with pytest.raises(ArgumentError):
            recalibrate(net, data, calib_fraction=0.0)

    def test_block_writes_through(self, rng):
        arch = ArchitectureSpec((4, 6, 5, 3), "relu", (True, True))
        pop = init_population(arch, [1, 2, 3, 4])
        data = dataset(rng.normal(size=(30, 4)))
        recalibrate(pop[1:3], data, batch_size=8)
        whole = recalibrated(pop, data, batch_size=8)
        for l, (mean, var, count) in pop.bn.items():
            assert count.tolist() == [0, 30, 30, 0]
            assert np.array_equal(mean[1:3], whole.bn[l][0][1:3])
            assert np.array_equal(var[1:3], whole.bn[l][1][1:3])
            assert not np.any(mean[[0, 3]]) and np.all(var[[0, 3]] == 1.0)


def reference_recalibrate(net, data, batch_size=64, calib_fraction=1.0):
    """Member 0's BN recalibration written out on its own (B, d) float64
    batches, from 2-D and 1-D copies of its tensors. Returns BN layer ->
    (mean, var, count)."""
    arch = net.arch
    n_use = max(1, int(round(calib_fraction * data.features.shape[0])))
    act, _ = ACTIVATIONS[arch.activation]
    features = data.features[:n_use]
    zs = [features[s:s + batch_size] for s in range(0, n_use, batch_size)]
    out = {}
    for l in range(max(net.bn) + 1):
        w = net.weights[l][0].T.astype(np.float64)
        b = net.biases[l][0, 0].astype(np.float64)
        zs = [z.astype(np.float64) @ w + b for z in zs]
        if arch.has_bn(l):
            gamma, beta = (v[0, 0].copy() for v in net.bn_views[l][:2])
            stats = PooledStats.zeros(w.shape[1])
            for a in zs:
                stats.update(a.mean(axis=0), a.var(axis=0), a.shape[0])
            out[l] = (stats.mean, stats.var, stats.count)
            zs = [gamma * (a - stats.mean) / np.sqrt(stats.var + BN_EPS) + beta for a in zs]
        zs = [act(a) for a in zs]
    return out


class TestStackedRecalibration:
    ARCHS = [ArchitectureSpec((4, 6, 5, 3), "relu", (True, True)),
             ArchitectureSpec((4, 6, 5, 3), "gelu", (False, True))]
    BLOCK = 4

    @pytest.fixture
    def small_blocks(self, monkeypatch):
        """Budget for BLOCK members of the calibration sets below."""
        def use(arch, n_rows):
            per_member = 8 * n_rows * max(arch.layer_dims[1:])
            monkeypatch.setattr(nn_core, "MEMBER_BLOCK_BYTES",
                                self.BLOCK * per_member + per_member - 1)
        return use

    @pytest.mark.parametrize("arch", ARCHS, ids=["relu-bn-bn", "gelu-bn-last"])
    @pytest.mark.parametrize("members", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    @pytest.mark.parametrize("batch_size,calib_fraction", [(7, 1.0), (64, 0.7)])
    def test_blocks_match_per_member_reference(self, small_blocks, arch, members,
                                               batch_size, calib_fraction):
        gen = np.random.default_rng(members)
        calib = dataset(gen.normal(0.5, 1.5, size=(45, 4)))
        test = LabeledDataset(gen.normal(size=(23, 4)).astype(np.float32),
                              gen.integers(0, 3, size=23))
        params = gen.normal(0.0, 0.6, size=(members, arch.param_count())).astype(np.float32)
        small_blocks(arch, calib.features.shape[0])
        blocks = member_blocks(members, arch, calib.features.shape[0])
        assert [b.stop - b.start for b in blocks][:-1] == [self.BLOCK] * (len(blocks) - 1)
        assert blocks[-1].stop == members
        seen = 0
        for block in blocks:
            pop = Population(arch, params[block])
            recalibrate(pop, calib, batch_size, calib_fraction)
            for j, result in enumerate(evaluate(pop, test)):
                i = block.start + j
                ref = Population(arch, params[i:i + 1])
                for l, (mean, var, count) in reference_recalibrate(
                        ref, calib, batch_size, calib_fraction).items():
                    assert np.array_equal(pop.bn[l][0][j], mean)
                    assert np.array_equal(pop.bn[l][1][j], var)
                    assert pop.bn[l][2][j] == count
                    ref.bn[l][0][0], ref.bn[l][1][0], ref.bn[l][2][0] = mean, var, count
                preds = forward(ref, test.features, "eval")[0].argmax(axis=1)
                assert np.array_equal(result.predictions, preds)
                assert result.accuracy == float(np.mean(preds == test.labels))
                seen += 1
        assert seen == members

    def test_recalibrate_is_one_member_case(self, rng):
        arch = self.ARCHS[0]
        net = init_population(arch, [9])
        data = dataset(rng.normal(size=(30, 4)))
        ref = reference_recalibrate(net, data, batch_size=8)
        recalibrate(net, data, batch_size=8)
        for l, (mean, var, _) in ref.items():
            assert net.bn[l][0][0].shape == mean.shape
            assert np.array_equal(net.bn[l][0][0], mean)
            assert np.array_equal(net.bn[l][1][0], var)

    def test_block_budget_bounds_members(self):
        arch = ArchitectureSpec((8, 16, 16, 3), "relu", (True, True))
        blocks = member_blocks(400, arch, 480)
        per_member = 8 * 480 * 16
        assert all(0 < (b.stop - b.start) * per_member <= nn_core.MEMBER_BLOCK_BYTES
                   for b in blocks)
        assert member_blocks(0, arch, 480) == []
        assert member_blocks(3, arch, 10 ** 9) == [slice(0, 1), slice(1, 2), slice(2, 3)]
