import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weightflow import nn_core
from weightflow.activations import ACTIVATIONS
from weightflow.bn_recalib import PooledStats, recalibrate, recalibrate_members
from weightflow.data import LabeledDataset
from weightflow.errors import ArgumentError
from weightflow.nn_core import (BN_EPS, ArchitectureSpec, Population,
                                evaluate_members, flatten, forward, init_weights,
                                member_blocks, unflatten)


def dataset(features):
    feats = np.asarray(features, dtype=np.float32)
    return LabeledDataset(feats, np.zeros(feats.shape[0], dtype=np.int64))


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
        ckpt = init_weights(self.ARCH, seed=0)
        data = dataset(rng.normal(size=(32, 4)))
        out = recalibrate(ckpt, data, batch_size=32)
        pre = data.features.astype(np.float64) @ ckpt.weights[0].T.astype(np.float64) \
            + ckpt.biases[0].astype(np.float64)
        assert np.allclose(out.bn[0].running_mean, pre.mean(axis=0), rtol=1e-12)
        assert np.allclose(out.bn[0].running_var, pre.var(axis=0), rtol=1e-12)

    def test_partition_independent(self, rng):
        ckpt = init_weights(self.ARCH, seed=1)
        data = dataset(rng.normal(size=(50, 4)))
        a = recalibrate(ckpt, data, batch_size=7)
        b = recalibrate(ckpt, data, batch_size=50)
        assert np.max(np.abs(a.bn[0].running_mean - b.bn[0].running_mean)) <= 1e-12
        assert np.max(np.abs(a.bn[0].running_var - b.bn[0].running_var)) <= 1e-12

    def test_deep_bn_partition_independent(self, rng):
        arch = ArchitectureSpec((4, 6, 6, 3), "relu", (True, True))
        ckpt = init_weights(arch, seed=2)
        data = dataset(rng.normal(size=(48, 4)))
        a = recalibrate(ckpt, data, batch_size=5)
        b = recalibrate(ckpt, data, batch_size=48)
        for l in (0, 1):
            assert np.max(np.abs(a.bn[l].running_var - b.bn[l].running_var)) <= 1e-10

    def test_weights_untouched(self, rng):
        ckpt = init_weights(self.ARCH, seed=3)
        out = recalibrate(ckpt, dataset(rng.normal(size=(20, 4))))
        assert np.array_equal(flatten(ckpt), flatten(out))

    def test_idempotent(self, rng):
        ckpt = init_weights(self.ARCH, seed=4)
        data = dataset(rng.normal(size=(20, 4)))
        once = recalibrate(ckpt, data, batch_size=6)
        twice = recalibrate(once, data, batch_size=6)
        assert np.array_equal(once.bn[0].running_mean, twice.bn[0].running_mean)
        assert np.array_equal(once.bn[0].running_var, twice.bn[0].running_var)

    def test_no_bn_warns(self, rng):
        ckpt = init_weights(ArchitectureSpec((4, 6, 3)), seed=0)
        with pytest.warns(UserWarning, match="no BN"):
            out = recalibrate(ckpt, dataset(rng.normal(size=(8, 4))))
        assert np.array_equal(flatten(ckpt), flatten(out))

    def test_changes_eval_outputs(self, rng):
        # recalibrated stats actually flow into eval-mode normalization
        ckpt = init_weights(self.ARCH, seed=5)
        data = dataset(rng.normal(2.0, 1.0, size=(30, 4)))
        out = recalibrate(ckpt, data)
        a = forward(ckpt, data.features, "eval")
        b = forward(out, data.features, "eval")
        assert not np.allclose(a, b)

    def test_calib_fraction(self, rng):
        ckpt = init_weights(self.ARCH, seed=6)
        data = dataset(rng.normal(size=(40, 4)))
        half = recalibrate(ckpt, data, calib_fraction=0.5)
        assert half.bn[0].count == 20
        with pytest.raises(ArgumentError):
            recalibrate(ckpt, data, calib_fraction=0.0)


def reference_recalibrate(ckpt, data, batch_size=64, calib_fraction=1.0):
    """One checkpoint's BN recalibration written out on its own (B, d)
    float64 batches."""
    out = ckpt.copy()
    n_use = max(1, int(round(calib_fraction * data.features.shape[0])))
    act, _ = ACTIVATIONS[out.arch.activation]
    features = data.features[:n_use]
    zs = [features[s:s + batch_size] for s in range(0, n_use, batch_size)]
    for l in range(max(out.bn) + 1):
        w = out.weights[l].T.astype(np.float64)
        b = out.biases[l].astype(np.float64)
        zs = [z.astype(np.float64) @ w + b for z in zs]
        st = out.bn[l] if out.arch.has_bn(l) else None
        if st is not None:
            stats = PooledStats.zeros(w.shape[1])
            for a in zs:
                stats.update(a.mean(axis=0), a.var(axis=0), a.shape[0])
            st.running_mean, st.running_var, st.count = stats.mean, stats.var, stats.count
            zs = [st.gamma * (a - st.running_mean) / np.sqrt(st.running_var + BN_EPS)
                  + st.beta for a in zs]
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
            net = pop.net()
            recalibrate_members(net, calib, batch_size, calib_fraction)
            for j, result in enumerate(evaluate_members(net, test)):
                i = block.start + j
                got = pop.member(j)
                ref = reference_recalibrate(unflatten(params[i], arch), calib,
                                            batch_size, calib_fraction)
                for l, st in ref.bn.items():
                    assert np.array_equal(got.bn[l].running_mean, st.running_mean)
                    assert np.array_equal(got.bn[l].running_var, st.running_var)
                    assert got.bn[l].count == st.count
                preds = forward(ref, test.features, "eval").argmax(axis=1)
                assert np.array_equal(result.predictions, preds)
                assert result.accuracy == float(np.mean(preds == test.labels))
                seen += 1
        assert seen == members

    def test_recalibrate_is_one_member_case(self, rng):
        arch = self.ARCHS[0]
        ckpt = init_weights(arch, seed=9)
        data = dataset(rng.normal(size=(30, 4)))
        ref = reference_recalibrate(ckpt, data, batch_size=8)
        out = recalibrate(ckpt, data, batch_size=8)
        for l, st in ref.bn.items():
            assert out.bn[l].running_mean.shape == st.running_mean.shape
            assert np.array_equal(out.bn[l].running_mean, st.running_mean)
            assert np.array_equal(out.bn[l].running_var, st.running_var)

    def test_block_budget_bounds_members(self):
        arch = ArchitectureSpec((8, 16, 16, 3), "relu", (True, True))
        blocks = member_blocks(400, arch, 480)
        per_member = 8 * 480 * 16
        assert all(0 < (b.stop - b.start) * per_member <= nn_core.MEMBER_BLOCK_BYTES
                   for b in blocks)
        assert member_blocks(0, arch, 480) == []
        assert member_blocks(3, arch, 10 ** 9) == [slice(0, 1), slice(1, 2), slice(2, 3)]
