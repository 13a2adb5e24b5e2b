import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import assert_numpy_bn_statistics
from weightflow import nn_core
from weightflow.bn_recalib import recalibrate
from weightflow.data import LabeledDataset
from weightflow.errors import ArgumentError
from weightflow.nn_core import (ArchitectureSpec, Population, evaluate, forward,
                                init_population, member_blocks)


def dataset(features):
    feats = np.asarray(features, dtype=np.float32)
    return LabeledDataset(feats, np.zeros(feats.shape[0], dtype=np.int64))


def copy(net):
    return Population(net.arch, net.params.copy(),
                      {l: tuple(c.copy() for c in cols) for l, cols in net.bn.items()})


def recalibrated(net, data, calib_fraction=1.0):
    """A copy of `net` with its BN statistics recalibrated."""
    out = copy(net)
    recalibrate(out, data, calib_fraction)
    return out


def assert_same_statistics(a, b):
    for l, columns in a.bn.items():
        for x, y in zip(columns, b.bn[l]):
            assert x.tobytes() == y.tobytes(), l


class TestRecalibrate:
    ARCH = ArchitectureSpec((4, 6, 3), "relu", (True,))

    def test_batch_size_n_equals_batch_stats(self, rng):
        # The calibration set is one batch of n rows: the statistics are
        # that batch's, bit for bit.
        net = init_population(self.ARCH, [0])
        data = dataset(rng.normal(size=(32, 4)))
        assert_numpy_bn_statistics(recalibrated(net, data), data.features)

    @pytest.mark.parametrize("arch", [
        ArchitectureSpec((4, 6, 5, 3), "relu", (True, True)),
        ArchitectureSpec((4, 6, 5, 3), "gelu", (False, True)),
        ArchitectureSpec((4, 1, 1, 3), "relu", (True, True)),
        ArchitectureSpec((4, 7, 6, 5, 3), "gelu", (True, False, True)),
    ], ids=["relu-bn-bn", "gelu-bn-last", "width-1", "gelu-bn-skip"])
    @pytest.mark.parametrize("rows", [1, 2, 45])
    @pytest.mark.parametrize("calib_fraction", [1.0, 0.7])
    def test_statistics_are_numpy_statistics_of_eval_pre_bn_activations(
            self, arch, rows, calib_fraction):
        gen = np.random.default_rng(rows)
        data = dataset(gen.normal(0.5, 1.5, size=(rows, 4)))
        pop = Population(arch, gen.normal(0.0, 0.6, size=(5, arch.param_count()))
                         .astype(np.float32))
        recalibrate(pop, data, calib_fraction)
        n_use = max(1, int(round(calib_fraction * rows)))
        assert_numpy_bn_statistics(pop, data.features[:n_use])

    def test_partition_independent(self, rng, monkeypatch):
        # However the members are split into blocks, each gets the same bits.
        pop = init_population(self.ARCH, [1, 2, 3, 4, 5])
        data = dataset(rng.normal(size=(50, 4)))
        whole = recalibrated(pop, data)
        monkeypatch.setattr(nn_core, "MEMBER_BLOCK_BYTES", 1)
        assert_same_statistics(recalibrated(pop, data), whole)

    def test_deep_bn_partition_independent(self, rng, monkeypatch):
        arch = ArchitectureSpec((4, 6, 6, 3), "relu", (True, True))
        pop = init_population(arch, [2, 3, 4, 5, 6])
        data = dataset(rng.normal(size=(48, 4)))
        whole = recalibrated(pop, data)
        monkeypatch.setattr(nn_core, "MEMBER_BLOCK_BYTES", 2 * 32 * 48 * 6)
        assert [b.stop - b.start for b in member_blocks(5, arch, 48)] == [2, 2, 1]
        blocked = recalibrated(pop, data)
        assert_same_statistics(blocked, whole)
        assert_numpy_bn_statistics(blocked, data.features)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("activation", ["relu", "gelu"])
    def test_layers_after_the_last_bn_layer_are_not_run(self, rng, activation, value):
        # No statistic depends on them: hostile weights there change no
        # bit and, never multiplied, raise no inf * 0 warning.
        arch = ArchitectureSpec((4, 6, 5, 3), activation, (True, False))
        pop = init_population(arch, [1, 2, 3])
        data = dataset(rng.normal(size=(30, 4)))
        clean = recalibrated(pop, data)
        for l in (1, 2):
            pop.weights[l][...] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_same_statistics(recalibrated(pop, data), clean)

    def test_weights_untouched(self, rng):
        net = init_population(self.ARCH, [3])
        out = recalibrated(net, dataset(rng.normal(size=(20, 4))))
        assert np.array_equal(net.params, out.params)

    def test_idempotent(self, rng):
        net = init_population(self.ARCH, [4])
        data = dataset(rng.normal(size=(20, 4)))
        once = recalibrated(net, data)
        assert_same_statistics(recalibrated(once, data), once)

    def test_no_bn_warns(self, rng):
        net = init_population(ArchitectureSpec((4, 6, 3)), [0])
        with pytest.warns(UserWarning, match="no BN"):
            out = recalibrated(net, dataset(rng.normal(size=(8, 4))))
        assert np.array_equal(net.params, out.params)

    def test_no_members_is_a_no_op(self, rng):
        pop = Population(self.ARCH, np.zeros((0, self.ARCH.param_count()), np.float32))
        recalibrate(pop, dataset(rng.normal(size=(8, 4))))
        assert pop.bn[0][0].shape == (0, 6) and pop.bn[0][2].shape == (0,)

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
        assert_numpy_bn_statistics(half, data.features[:20])
        for bad in (0.0, 1.5):
            with pytest.raises(ArgumentError):
                recalibrate(net, data, calib_fraction=bad)
        with pytest.raises(ArgumentError):
            recalibrate(net, dataset(np.zeros((0, 4))))

    def test_block_writes_through(self, rng):
        arch = ArchitectureSpec((4, 6, 5, 3), "relu", (True, True))
        pop = init_population(arch, [1, 2, 3, 4])
        data = dataset(rng.normal(size=(30, 4)))
        recalibrate(pop[1:3], data)
        whole = recalibrated(pop, data)
        for l, (mean, var, count) in pop.bn.items():
            assert count.tolist() == [0, 30, 30, 0]
            assert np.array_equal(mean[1:3], whole.bn[l][0][1:3])
            assert np.array_equal(var[1:3], whole.bn[l][1][1:3])
            assert not np.any(mean[[0, 3]]) and np.all(var[[0, 3]] == 1.0)


class TestStackedRecalibration:
    ARCHS = [ArchitectureSpec((4, 6, 5, 3), "relu", (True, True)),
             ArchitectureSpec((4, 6, 5, 3), "gelu", (False, True))]
    BLOCK = 4

    @pytest.fixture
    def small_blocks(self, monkeypatch):
        """Budget for BLOCK members of a pass over `n_rows` rows."""
        def use(arch, n_rows):
            per_member = 4 * 8 * n_rows * max(arch.layer_dims[1:])
            monkeypatch.setattr(nn_core, "MEMBER_BLOCK_BYTES",
                                self.BLOCK * per_member + per_member - 1)
        return use

    @pytest.mark.parametrize("arch", ARCHS, ids=["relu-bn-bn", "gelu-bn-last"])
    @pytest.mark.parametrize("members", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    @pytest.mark.parametrize("n_rows,calib_fraction", [(7, 1.0), (64, 0.7)])
    def test_blocks_match_per_member_reference(self, small_blocks, arch, members,
                                               n_rows, calib_fraction):
        # The reference is each member recalibrated and evaluated alone.
        gen = np.random.default_rng(members)
        calib = dataset(gen.normal(0.5, 1.5, size=(n_rows, 4)))
        test = LabeledDataset(gen.normal(size=(23, 4)).astype(np.float32),
                              gen.integers(0, 3, size=23))
        params = gen.normal(0.0, 0.6, size=(members, arch.param_count())).astype(np.float32)
        n_use = max(1, int(round(calib_fraction * n_rows)))
        small_blocks(arch, n_use)
        blocks = member_blocks(members, arch, n_use)
        assert [b.stop - b.start for b in blocks][:-1] == [self.BLOCK] * (len(blocks) - 1)
        assert blocks[-1].stop == members
        pop = Population(arch, params.copy())
        recalibrate(pop, calib, calib_fraction)
        results = evaluate(pop, test)
        assert len(results) == members
        for i, result in enumerate(results):
            ref = Population(arch, params[i:i + 1].copy())
            recalibrate(ref, calib, calib_fraction)
            assert_same_statistics(pop[i:i + 1], ref)
            preds = forward(ref, test.features, "eval")[0].argmax(axis=1)
            assert np.array_equal(result.predictions, preds)
            assert result.accuracy == float(np.mean(preds == test.labels))
        assert_numpy_bn_statistics(pop, calib.features[:n_use])

    def test_recalibrate_is_one_member_case(self, rng):
        arch = self.ARCHS[0]
        pop = init_population(arch, [8, 9, 10])
        data = dataset(rng.normal(size=(30, 4)))
        net = copy(pop[1:2])
        recalibrate(net, data)
        recalibrate(pop, data)
        assert net.bn[0][0][0].shape == (6,)
        assert_same_statistics(pop[1:2], net)
        assert_numpy_bn_statistics(net, data.features)

    def test_block_budget_bounds_members(self):
        # At the bn-pca-sample shape, what an evaluate or recalibrate pass
        # over 400 members traces stays near one block's budget.
        arch = ArchitectureSpec((8, 16, 16, 3), "relu", (True, True))
        gen = np.random.default_rng(0)
        pop = Population(arch, gen.normal(0.0, 0.5, size=(400, arch.param_count()))
                         .astype(np.float32))
        test = LabeledDataset(gen.normal(size=(120, 8)).astype(np.float32),
                              gen.integers(0, 3, size=120))
        train = dataset(gen.normal(size=(480, 8)))
        for run in (lambda: evaluate(pop, test), lambda: recalibrate(pop, train)):
            tracemalloc.start()
            try:
                run()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 1.5 * nn_core.MEMBER_BLOCK_BYTES, peak
        assert member_blocks(0, arch, 480) == []
        assert member_blocks(3, arch, 10 ** 9) == [slice(0, 1), slice(1, 2), slice(2, 3)]
