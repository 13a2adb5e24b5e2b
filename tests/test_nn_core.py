import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weightflow.activations import ACTIVATIONS
from weightflow.data import LabeledDataset, make_blobs
from weightflow.errors import (ArgumentError, ConfigError, ShapeError,
                               TrainingDivergedError)
from weightflow.nn_core import (BN_EPS, BN_MOMENTUM, ArchitectureSpec,
                                ADAM_CHUNK, AttentionSpec, Population, TrainHyper,
                                _Adam, _SGD, cross_entropy, evaluate, forward,
                                init_population, mha_forward, random_attention,
                                train_population)
from weightflow.rng import make_rng


def identity_net(dims):
    """One network of all-identity weights, zero biases (requires square layers)."""
    arch = ArchitectureSpec(dims, "identity")
    net = init_population(arch, [0])
    for l in range(arch.num_layers):
        net.weights[l][0] = np.eye(dims[l + 1], dims[l], dtype=np.float32)
        net.biases[l][0] = 0.0
    return net


def train_one(arch, data, hyper, seed=0, holdout=None):
    """One network seeded by `seed`: a one-member `train_population`."""
    return train_population(arch, data, hyper, [seed], holdout)


class TestInit:
    def test_iris_param_count(self):
        # [4,16,3]: 4*16+16 + 16*3+3 = 131
        arch = ArchitectureSpec((4, 16, 3))
        assert arch.param_count() == 131
        assert init_population(arch, [0]).params.shape == (1, 131)

    def test_mnist_param_count(self):
        arch = ArchitectureSpec((784, 32, 32, 10))
        assert arch.param_count() == 26506

    def test_deterministic(self):
        arch = ArchitectureSpec((4, 16, 3))
        a = init_population(arch, [3], "kaiming").params
        b = init_population(arch, [3], "kaiming").params
        assert np.array_equal(a, b)
        c = init_population(arch, [4], "kaiming").params
        assert not np.array_equal(a, c)

    def test_unknown_scheme(self):
        with pytest.raises(ConfigError):
            init_population(ArchitectureSpec((4, 4, 3)), [0], "bogus")

    def test_single_bn_flag_broadcasts(self):
        assert ArchitectureSpec((4, 8, 8, 3), bn_layers=(1,)).bn_layers == (True, True)

    @pytest.mark.parametrize("bn", [(2,), (1, 0, 1)])
    def test_bad_bn_flags(self, bn):
        with pytest.raises(ConfigError, match="one 0/1 flag per hidden layer"):
            ArchitectureSpec((4, 8, 8, 3), bn_layers=bn)

    def test_kaiming_scale(self):
        arch = ArchitectureSpec((200, 300, 3))
        net = init_population(arch, [0], "kaiming")
        std = net.weights[0].std()
        assert abs(std - np.sqrt(2.0 / 200)) < 0.01


class TestForward:
    def test_identity_network(self):
        net = identity_net((3, 3, 3))
        x = np.arange(6, dtype=np.float32).reshape(2, 3)
        assert np.allclose(forward(net, x), x[None])

    def test_hand_2_2_2_relu(self):
        arch = ArchitectureSpec((2, 2, 2), "relu")
        net = init_population(arch, [0])
        net.weights[0][0] = [[1.0, -1.0], [2.0, 0.0]]
        net.biases[0][0] = [0.5, -1.0]
        net.weights[1][0] = [[1.0, 1.0], [0.0, -1.0]]
        net.biases[1][0] = [0.0, 2.0]
        x = np.array([[1.0, 2.0]], dtype=np.float32)
        # pre-act: [1-2+0.5, 2-1] = [-0.5, 1] -> relu [0, 1]
        # logits: [0+1, 0-1+2] = [1, 1]
        out = forward(net, x)
        assert np.allclose(out, [[[1.0, 1.0]]], atol=1e-6)

    def test_eval_mode_pure(self, rng):
        arch = ArchitectureSpec((4, 8, 3), bn_layers=(True,))
        net = init_population(arch, [0])
        x = rng.normal(size=(5, 4)).astype(np.float32)
        a = forward(net, x, "eval")
        b = forward(net, x, "eval")
        assert np.array_equal(a, b)

    def test_train_mode_updates_bn(self, rng):
        arch = ArchitectureSpec((4, 8, 3), bn_layers=(True,))
        net = init_population(arch, [0])
        before = net.bn[0][0].copy()
        forward(net, rng.normal(size=(16, 4)).astype(np.float32), "train")
        assert not np.array_equal(before, net.bn[0][0])

    def test_bad_input_dim(self):
        net = init_population(ArchitectureSpec((4, 8, 3)), [0])
        with pytest.raises(ShapeError):
            forward(net, np.zeros((2, 5), dtype=np.float32))

    @given(seed=st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_hidden_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        arch = ArchitectureSpec((4, 8, 3), "relu")
        net = init_population(arch, [seed])
        p = rng.permutation(8)
        permuted = Population(arch, net.params.copy())
        permuted.weights[0][0] = net.weights[0][0][p]
        permuted.biases[0][0, 0] = net.biases[0][0, 0][p]
        permuted.weights[1][0] = net.weights[1][0][:, p]
        x = rng.normal(size=(10, 4)).astype(np.float32)
        assert np.max(np.abs(forward(net, x) - forward(permuted, x))) <= 1e-5


class TestMhaForward:
    def test_uniform_attention(self, rng):
        spec = AttentionSpec(embed_dim=4, num_heads=1, head_dim=4)
        attn = random_attention(spec, seed=0)
        attn.w_q = np.zeros_like(attn.w_q)
        attn.w_k = np.zeros_like(attn.w_k)
        attn.w_v = np.eye(4)[None]
        attn.w_o = np.eye(4)
        tokens = rng.normal(size=(3, 4))
        out = mha_forward(attn, tokens)
        expected = np.tile(tokens.mean(axis=0), (3, 1))
        assert np.allclose(out, expected, atol=1e-10)

    def test_head_permutation_symmetry(self, rng):
        spec = AttentionSpec(embed_dim=8, num_heads=2, head_dim=4)
        attn = random_attention(spec, seed=1)
        tokens = rng.normal(size=(5, 8))
        base = mha_forward(attn, tokens)
        swapped = random_attention(spec, seed=1)
        order = [1, 0]
        swapped.w_q = attn.w_q[order]
        swapped.w_k = attn.w_k[order]
        swapped.w_v = attn.w_v[order]
        blocks = [attn.w_o[:, h * 4:(h + 1) * 4] for h in order]
        swapped.w_o = np.concatenate(blocks, axis=1)
        assert np.max(np.abs(mha_forward(swapped, tokens) - base)) <= 1e-5

    def test_two_head_hand_example(self):
        # 2 tokens, embed 2, heads with head_dim 1; softmax arithmetic by hand
        spec = AttentionSpec(embed_dim=2, num_heads=2, head_dim=1)
        attn = random_attention(spec, seed=0)
        attn.w_q = np.array([[[1.0, 0.0]], [[0.0, 0.0]]])
        attn.w_k = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])
        attn.w_v = np.array([[[0.0, 1.0]], [[1.0, 0.0]]])
        attn.w_o = np.eye(2)
        tokens = np.array([[1.0, 0.0], [0.0, 1.0]])
        # head 0: q=[1,0], k=[1,0], v=[0,1]; head 1: q=[0,0], k=[0,1], v=[1,0]
        s = 1.0  # scale = 1/sqrt(1)
        a0 = np.exp([1.0, 0.0]) / np.exp([1.0, 0.0]).sum()  # token 0 row
        head0_t0 = a0[0] * 0.0 + a0[1] * 1.0
        out = mha_forward(attn, tokens)
        assert abs(out[0, 0] - head0_t0) < 1e-12
        # head 1 logits are all zero -> uniform mean of v = [1,0] -> 0.5
        assert abs(out[0, 1] - 0.5) < 1e-12
        assert s == 1.0


class TestTrain:
    def test_separable_blobs_perfect(self):
        train, test = make_blobs(num_classes=2, per_class=40, d=4,
                                 spread=0.05, seed=0)
        net = train_one(ArchitectureSpec((4, 8, 2)), train,
                        TrainHyper(epochs=30), holdout=test)
        assert net.metrics[0] == 1.0

    def test_zero_epochs_keeps_init(self, blobs):
        train, _ = blobs
        arch = ArchitectureSpec((4, 8, 3))
        net = train_one(arch, train, TrainHyper(epochs=0), seed=7)
        assert np.array_equal(net.params, init_population(arch, [7]).params)

    def test_deterministic(self, blobs):
        train, _ = blobs
        arch = ArchitectureSpec((4, 8, 3))
        a = train_one(arch, train, TrainHyper(epochs=5), seed=1)
        b = train_one(arch, train, TrainHyper(epochs=5), seed=1)
        assert np.array_equal(a.params, b.params)

    def test_iris_accuracy_band(self, iris):
        train, test = iris
        net = train_one(ArchitectureSpec((4, 16, 3)), train,
                        TrainHyper(), seed=100, holdout=test)
        assert 0.7 <= net.metrics[0] <= 1.0

    def test_labels_out_of_range(self, blobs):
        train, _ = blobs
        with pytest.raises(ArgumentError):
            train_one(ArchitectureSpec((4, 8, 2)), train, TrainHyper(epochs=1))

    def test_full_batch_loss_decreases(self, blobs):
        train, _ = blobs
        arch = ArchitectureSpec((4, 8, 3))
        hyper = TrainHyper(learning_rate=1e-3, batch_size=len(train), epochs=1)
        prev = None
        for epochs in (1, 5, 20):
            net = train_one(arch, train,
                            TrainHyper(learning_rate=1e-3,
                                       batch_size=len(train),
                                       epochs=epochs))
            loss = cross_entropy(forward(net, train.features)[0], train.labels)
            if prev is not None:
                assert loss <= prev + 1e-9
            prev = loss
        assert hyper.batch_size == len(train)


def serial_reference(arch, data, hyper, seed):
    """One network trained by a plain 2-D loop: per-batch forward, backward
    and a per-tensor optimizer step, in the arithmetic order the stacked
    trainer must keep. Its tensors are 2-D and 1-D views of a one-member
    population, which it returns."""
    net = init_population(arch, [seed])
    weights = [w[0] for w in net.weights]
    biases = [b[0, 0] for b in net.biases]
    bn = {l: (gamma[0, 0], beta[0, 0], net.bn[l][0][0], net.bn[l][1][0])
          for l, (gamma, beta, *_) in net.bn_views.items()}
    act, act_grad = ACTIVATIONS[arch.activation]
    params = weights + biases + [t for l in sorted(bn) for t in bn[l][:2]]
    if hyper.optimizer == "sgd":
        opt = _SGD(params, hyper.weight_decay)
    else:
        opt = _Adam(params, (0.9, 0.999), hyper.weight_decay,
                    decoupled=hyper.optimizer == "adamw")
    rng = make_rng(seed, "shuffle")
    x, y = data.features, data.labels
    for _ in range(hyper.epochs):
        order = rng.permutation(len(y))
        for start in range(0, len(y), hyper.batch_size):
            idx = order[start:start + hyper.batch_size]
            z, caches = x[idx].astype(np.float32), []
            for l in range(arch.num_layers):
                z_in, a = z, z @ weights[l].T + biases[l]
                xhat = inv_std = None
                if arch.has_bn(l):
                    gamma, beta, running_mean, running_var = bn[l]
                    mu = a.mean(axis=0, dtype=np.float64)
                    var = a.astype(np.float64).var(axis=0)
                    running_mean[:] = (1 - BN_MOMENTUM) * running_mean + BN_MOMENTUM * mu
                    running_var[:] = (1 - BN_MOMENTUM) * running_var + BN_MOMENTUM * var
                    net.bn[l][2][0] += len(idx)
                    inv_std = 1.0 / np.sqrt(var + BN_EPS)
                    xhat = ((a - mu) * inv_std).astype(np.float32)
                    a = gamma * xhat + beta
                    inv_std = inv_std.astype(np.float32)
                z = act(a) if l < arch.num_hidden else a
                caches.append((z_in, a, xhat, inv_std))
            shifted = z - z.max(axis=1, keepdims=True)
            delta = (np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)).astype(np.float32)
            delta[np.arange(len(idx)), y[idx]] -= 1.0
            delta /= len(idx)
            gw, gb, gbn = [None] * arch.num_layers, [None] * arch.num_layers, []
            for l in reversed(range(arch.num_layers)):
                z_in, pre_act, xhat, inv_std = caches[l]
                if l < arch.num_hidden:
                    delta = delta * act_grad(pre_act)
                if arch.has_bn(l):
                    gbn = [(delta * xhat).sum(axis=0), delta.sum(axis=0)] + gbn
                    dxhat = delta * bn[l][0]
                    delta = inv_std * (dxhat - dxhat.mean(axis=0)
                                       - xhat * (dxhat * xhat).mean(axis=0))
                gw[l], gb[l] = delta.T @ z_in, delta.sum(axis=0)
                if l > 0:
                    delta = delta @ weights[l]
            opt.step(gw + gb + gbn, hyper.learning_rate)
    return net


def assert_same_network(a, b):
    """Bit-identical parameters and BN running statistics."""
    assert np.array_equal(a.params, b.params)
    assert sorted(a.bn) == sorted(b.bn)
    for l, columns in b.bn.items():
        for got, want in zip(a.bn[l], columns):
            assert np.array_equal(got, want)


class TestTrainPopulation:
    """A stacked population equals its members trained one at a time."""

    SEEDS = (3, 4, 5)

    def assert_matches_one_member_runs(self, arch, data, hyper, holdout=None):
        trained = train_population(arch, data, hyper, self.SEEDS, holdout=holdout)
        assert trained.seeds.tolist() == list(self.SEEDS)
        if hyper.epochs:
            assert not np.array_equal(trained.params[0], trained.params[1])
        for i, seed in enumerate(self.SEEDS):
            one = train_one(arch, data, hyper, seed, holdout=holdout)
            assert_same_network(trained[i:i + 1], one)
            assert trained.metrics[i] == one.metrics[0]

    @pytest.mark.parametrize("activation,bn,optimizer", [
        ("relu", (True, True), "adam"), ("gelu", (False, True), "adamw"),
        ("gelu", (False, False), "sgd")])
    def test_matches_serial_reference(self, blobs, activation, bn, optimizer):
        train, _ = blobs
        arch = ArchitectureSpec((4, 8, 6, 3), activation, bn)
        hyper = TrainHyper(optimizer=optimizer, weight_decay=1e-2,
                           learning_rate=1e-2, batch_size=7, epochs=3)
        trained = train_population(arch, train, hyper, self.SEEDS)
        for i, seed in enumerate(self.SEEDS):
            assert_same_network(
                trained[i:i + 1], serial_reference(arch, train, hyper, seed))

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
    @pytest.mark.parametrize("optimizer", ["adam", "adamw", "sgd"])
    def test_optimizers(self, blobs, optimizer, weight_decay):
        train, test = blobs
        arch = ArchitectureSpec((4, 8, 6, 3), bn_layers=(True, False))
        hyper = TrainHyper(optimizer=optimizer, weight_decay=weight_decay,
                           learning_rate=1e-2, epochs=3)
        self.assert_matches_one_member_runs(arch, train, hyper, holdout=test)

    @pytest.mark.parametrize("activation", ["relu", "gelu"])
    @pytest.mark.parametrize("bn", [(False, False), (True, True)])
    def test_layouts(self, blobs, activation, bn):
        train, _ = blobs
        arch = ArchitectureSpec((4, 8, 6, 3), activation, bn)
        self.assert_matches_one_member_runs(arch, train, TrainHyper(epochs=3))

    @pytest.mark.parametrize("batch_size", [7, 1000])
    def test_ragged_and_oversized_batches(self, blobs, batch_size):
        train, test = blobs
        assert len(train) % 7 and len(train) < 1000
        arch = ArchitectureSpec((4, 8, 3), bn_layers=(True,))
        hyper = TrainHyper(batch_size=batch_size, epochs=4)
        self.assert_matches_one_member_runs(arch, train, hyper, holdout=test)

    def test_zero_epochs(self, blobs):
        train, _ = blobs
        arch = ArchitectureSpec((4, 8, 3), bn_layers=(True,))
        self.assert_matches_one_member_runs(arch, train, TrainHyper(epochs=0))

    def test_divergence_names_seed(self, blobs):
        train, _ = blobs
        hyper = TrainHyper(learning_rate=1e30, epochs=2)
        with np.errstate(all="ignore"), \
                pytest.raises(TrainingDivergedError, match=r"epoch 0, .*seed 3"):
            train_population(ArchitectureSpec((4, 8, 3)), train, hyper, self.SEEDS)

    def test_needs_a_seed(self, blobs):
        train, _ = blobs
        with pytest.raises(ArgumentError):
            train_population(ArchitectureSpec((4, 8, 3)), train, TrainHyper(), [])


class TestEvaluate:
    def test_perfect(self):
        data = LabeledDataset(np.eye(3, dtype=np.float32), np.arange(3), "test")
        net = identity_net((3, 3, 3))
        assert evaluate(net, data)[0].accuracy == 1.0

    def test_three_of_four(self):
        feats = np.array([[1, 0], [1, 0], [0, 1], [0, 1]], dtype=np.float32)
        labels = np.array([0, 0, 1, 0])
        net = identity_net((2, 2, 2))
        assert evaluate(net, LabeledDataset(feats, labels, "test"))[0].accuracy == 0.75

    def test_chance_level_constant_predictor(self):
        arch = ArchitectureSpec((4, 4, 3), "identity")
        net = init_population(arch, [0])
        net.params[...] = 0
        net.biases[1][0] = [1, 0, 0]
        feats = np.zeros((30, 4), dtype=np.float32)
        labels = np.repeat(np.arange(3), 10)
        acc = evaluate(net, LabeledDataset(feats, labels, "test"))[0].accuracy
        assert abs(acc - 1 / 3) < 1e-12


class TestFlatten:
    """The stacked views cover the flat vector: per layer W row-major, b,
    then BN gamma and beta."""

    def test_2_2_2_layout(self):
        net = identity_net((2, 2, 2))
        net.weights[0][0] = [[1, 2], [3, 4]]
        net.biases[0][0] = [5, 6]
        net.weights[1][0] = [[7, 8], [9, 10]]
        net.biases[1][0] = [11, 12]
        assert net.params[0].tolist() == list(map(float, range(1, 13)))

    def test_wrong_length(self):
        with pytest.raises(ShapeError):
            Population(ArchitectureSpec((4, 16, 3)), np.zeros((1, 10), dtype=np.float32))

    @given(st.integers(0, 50))
    @settings(max_examples=15, deadline=None)
    def test_bijection(self, seed):
        arch = ArchitectureSpec((3, 5, 4, 2), bn_layers=(True, False))
        vec = make_rng(seed, "test").normal(size=arch.param_count()).astype(np.float32)
        net = Population(arch, vec[None].copy())
        parts = []
        for l in range(arch.num_layers):
            parts += [net.weights[l][0].ravel(), net.biases[l][0, 0]]
            if l in net.bn_views:
                parts += [view[0, 0] for view in net.bn_views[l][:2]]
        assert np.array_equal(np.concatenate(parts), vec)


class TestPopulationBlocks:
    ARCH = ArchitectureSpec((4, 6, 5, 3), "relu", (True, True))

    def test_block_is_views_of_the_rows(self, rng):
        pop = Population(self.ARCH, rng.normal(size=(4, self.ARCH.param_count())).astype(np.float32),
                         seeds=np.arange(4), metrics=np.zeros(4))
        block = pop[1:3]
        assert len(block) == 2 and np.array_equal(block.seeds, [1, 2])
        block.params[...] = 7.0
        block.metrics[...] = 0.5
        for mean, var, count in block.bn.values():
            mean[...], var[...], count[...] = 3.0, 2.0, 9
        assert np.array_equal(pop.params[1:3], np.full((2, self.ARCH.param_count()), 7.0))
        assert not np.any(pop.params[[0, 3]] == 7.0)
        assert pop.metrics.tolist() == [0.0, 0.5, 0.5, 0.0]
        for mean, var, count in pop.bn.values():
            assert mean[:, 0].tolist() == [0.0, 3.0, 3.0, 0.0]
            assert var[:, 0].tolist() == [1.0, 2.0, 2.0, 1.0]
            assert count.tolist() == [0, 9, 9, 0]

    def test_train_forward_on_a_block_updates_the_parent(self, rng):
        pop = init_population(self.ARCH, [1, 2, 3, 4])
        x = rng.normal(size=(16, 4)).astype(np.float32)
        whole = init_population(self.ARCH, [1, 2, 3, 4])
        forward(whole, x, "train")
        forward(pop[1:3], x, "train")
        for l, (mean, var, count) in pop.bn.items():
            assert count.tolist() == [0, 16, 16, 0]
            assert np.array_equal(mean[1:3], whole.bn[l][0][1:3])
            assert np.array_equal(var[1:3], whole.bn[l][1][1:3])
            assert not np.any(mean[[0, 3]]) and np.all(var[[0, 3]] == 1.0)

    def test_indexed_by_slices_only(self):
        pop = init_population(self.ARCH, [1, 2])
        with pytest.raises(ArgumentError):
            pop[0]


def reference_adam(params, grads_per_step, lrs, betas, weight_decay, decoupled):
    """Textbook per-tensor Adam (Kingma & Ba, Algorithm 1) with whole-array
    temporaries and bias-corrected moments."""
    b1, b2 = betas
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, (grads, lr) in enumerate(zip(grads_per_step, lrs), start=1):
        b1t, b2t = 1 - b1 ** t, 1 - b2 ** t
        for i, (p, g) in enumerate(zip(params, grads)):
            if weight_decay and not decoupled:
                g = g + weight_decay * p
            m[i] = b1 * m[i] + (1 - b1) * g
            v[i] = b2 * v[i] + (1 - b2) * g * g
            update = (m[i] / b1t) / (np.sqrt(v[i] / b2t) + 1e-8)
            if weight_decay and decoupled:
                update = update + weight_decay * p
            p -= (lr * update).astype(p.dtype)


def folded_adam(params, grads_per_step, lrs, betas, weight_decay, decoupled):
    """Per-tensor Adam in the step-size form (moments stored as m / (1 - b1)
    and v / (1 - b2), bias corrections folded into alpha_t and eps_hat), with
    whole-array temporaries, in the operation order `_Adam` keeps."""
    b1, b2 = betas
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, (grads, lr) in enumerate(zip(grads_per_step, lrs), start=1):
        lr = float(lr)
        root_b2t = math.sqrt((1 - b2 ** t) / (1 - b2))
        alpha = lr * (1 - b1) * root_b2t / (1 - b1 ** t)
        eps_hat = 1e-8 * root_b2t
        for i, (p, g) in enumerate(zip(params, grads)):
            if weight_decay and not decoupled:
                g = g + weight_decay * p
            m[i] = b1 * m[i] + g
            v[i] = b2 * v[i] + g * g
            update = m[i] / (np.sqrt(v[i]) + eps_hat) * alpha
            if weight_decay and decoupled:
                p *= 1 - lr * weight_decay
            p -= update


def adam_case(size, dtype):
    """Start parameters, four steps of gradients and learning rates: Python
    floats as in population training, numpy float64 as the flow's cosine
    schedule yields."""
    rng = np.random.default_rng(size)
    shapes = [(size,), (3, 5)]
    start = [rng.normal(size=s).astype(dtype) for s in shapes]
    grads = [[rng.normal(size=s).astype(dtype) for s in shapes] for _ in range(4)]
    return start, grads, [1e-2, 3e-3, np.float64(1e-3), np.float64(7e-4)]


def run_adam(start, grads, lrs, betas, decoupled):
    params = [p.copy() for p in start]
    opt = _Adam(params, betas, 1e-2, decoupled)
    for g, lr in zip(grads, lrs):
        opt.step(g, lr)
    return params


class TestAdam:
    @pytest.mark.parametrize("size", [1, ADAM_CHUNK - 1, ADAM_CHUNK,
                                      ADAM_CHUNK + 1, 3 * ADAM_CHUNK + 7])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("decoupled", [False, True])
    def test_chunked_matches_per_tensor_reference(self, size, dtype, decoupled):
        start, grads, lrs = adam_case(size, dtype)
        ref = [p.copy() for p in start]
        folded_adam(ref, grads, lrs, (0.9, 0.95), 1e-2, decoupled)
        for got, want in zip(run_adam(start, grads, lrs, (0.9, 0.95), decoupled), ref):
            assert got.dtype == dtype
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("size", [1, ADAM_CHUNK + 1])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("decoupled", [False, True])
    @pytest.mark.parametrize("betas", [(0.9, 0.95), (0.9, 0.999), (0.0, 0.95),
                                       (0.9, 0.0), (0.0, 0.0)])
    def test_matches_textbook_reference(self, size, dtype, decoupled, betas):
        start, grads, lrs = adam_case(size, dtype)
        ref = [p.copy() for p in start]
        reference_adam(ref, grads, lrs, betas, 1e-2, decoupled)
        got = run_adam(start, grads, lrs, betas, decoupled)
        # The folded form rounds differently: after four steps p differs by
        # at most 4e-6 (float32) and 2e-14 (float64) here, the largest with
        # b2 = 0, where a small |g| divides a larger bias-corrected m.
        tol = 1e-5 if dtype == np.float32 else 1e-12
        for g, want, p0 in zip(got, ref, start):
            assert g.dtype == dtype
            assert not np.array_equal(want, p0)
            np.testing.assert_allclose(g, want, rtol=tol, atol=tol)

    def test_updates_the_callers_arrays(self):
        p = np.ones((2, 3))
        _Adam([p], (0.9, 0.999), 0.0, False).step([np.ones((2, 3))], 0.1)
        assert np.all(p < 1.0)

    def test_non_contiguous_param_rejected(self):
        with pytest.raises(ValueError):
            _Adam([np.ones((4, 4))[:, :2]], (0.9, 0.999), 0.0, False)


class TestRng:
    def test_stream_independence(self):
        a = make_rng(0, "init").normal(size=4)
        b = make_rng(0, "shuffle").normal(size=4)
        assert not np.array_equal(a, b)

    def test_reproducible(self):
        assert np.array_equal(make_rng(5, "init").normal(size=8),
                              make_rng(5, "init").normal(size=8))

    def test_unknown_stream(self):
        with pytest.raises(KeyError):
            make_rng(0, "nonexistent-stream")
