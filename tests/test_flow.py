import math
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weightflow import flow
from weightflow.activations import gelu_tanh
from weightflow.errors import (ArgumentError, DataError, IntegrationError,
                               TrainingDivergedError)
from weightflow.flow import (LN_EPS, FlowConfig, FlowModel, FlowWorkspace,
                             fm_loss_and_grads, fm_training_step,
                             flow_backward, flow_forward, init_flow_model,
                             load_flow, rk4_integrate, sample, sample_grid,
                             save_flow, train_flow, _dropout_masks,
                             _FrozenField, _param_count, _param_layout)
from weightflow.nn_core import _Adam
from weightflow.rng import make_rng

TINY = FlowConfig(input_dim=4, hidden_dim=8, time_embed_dim=4, dropout=0.0,
                  iterations=50, batch_size=4)


TANH_C, TANH_K = math.sqrt(2.0 / math.pi), 0.044715


def trunk_product(h, w):
    """h W^T formed as `flow_forward` forms it, (W h^T)^T in C order. On
    OpenBLAS's SkylakeX kernels that has the bits of h @ W.T; on others
    (Haswell) it need not, so a reference that is to match the field bit
    for bit under any kernel multiplies this way too."""
    return np.ascontiguousarray((w @ h.T).T)


def reference_forward(model, x, t, dropout_masks=None):
    """The vector field written out with a new array per step, in the
    model's dtype; returns (v, cache) in flow_backward's cache layout."""
    p = model.params
    dtype = model.flat.dtype
    x = np.atleast_2d(np.asarray(x, dtype=dtype))
    t = np.asarray(t, dtype=dtype).reshape(-1, 1)
    h1 = t @ p["time.w1"].T + p["time.b1"]
    a1 = gelu_tanh(h1)
    t_emb = a1 @ p["time.w2"].T + p["time.b2"]
    h = np.concatenate([x, t_emb], axis=1)
    trunk_caches = []
    for i in range(len(model.config.trunk_dims)):
        pre = trunk_product(h, p[f"trunk.w{i}"]) + p[f"trunk.b{i}"]
        mu = pre.mean(axis=1, keepdims=True)
        var = pre.var(axis=1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + LN_EPS)
        xhat = (pre - mu) * inv_std
        ln = p[f"trunk.ln_g{i}"] * xhat + p[f"trunk.ln_b{i}"]
        # GELU's tanh form, c (x + k x^3) written as x (c k x^2 + c)
        cdf = 0.5 * (1.0 + np.tanh(ln * ((TANH_C * TANH_K) * (ln * ln) + TANH_C)))
        act = ln * cdf
        dropped = act if dropout_masks is None else act * dropout_masks[i]
        trunk_caches.append((h, xhat, inv_std, ln, cdf))
        h = dropped
    v = h @ p["out.w"].T + p["out.b"]
    return v, ((t, h1, a1), trunk_caches, h)


def reference_folded_field(model, x, t):
    """`sample`'s field at rows x and one time t, written out with a new
    array per step in the model's dtype. The parameters are folded in
    float64 and cast once: each trunk layer's weights and bias centred
    over its output units, the weights after a GELU halved, and layer 0's
    time columns and bias turned into one bias row at t. LayerNorm then
    needs no mean, and each activation is twice GELU's."""
    p64 = {name: view.astype(np.float64) for name, view in model.params.items()}
    p, dtype, d = model.params, model.flat.dtype, model.config.input_dim
    depth = len(model.config.trunk_dims)

    def centred(a):
        return a - a.mean(axis=0)

    weights = [centred(p64["trunk.w0"])]
    weights += [0.5 * centred(p64[f"trunk.w{i}"]) for i in range(1, depth)]
    weights.append(0.5 * p64["out.w"])
    t_emb = p64["time.w2"] @ gelu_tanh(p64["time.w1"][:, 0] * t + p64["time.b1"]) + p64["time.b2"]
    biases = [weights[0][:, d:] @ t_emb + centred(p64["trunk.b0"])]
    biases += [centred(p64[f"trunk.b{i}"]) for i in range(1, depth)]
    biases.append(p64["out.b"])
    weights[0] = weights[0][:, :d]
    # The field multiplies on C-order copies of the folded transposes.
    weights_t = [np.ascontiguousarray(w.astype(dtype).T) for w in weights]
    h = np.atleast_2d(np.asarray(x)).astype(dtype)
    for i in range(depth):
        pre = h @ weights_t[i] + biases[i].astype(dtype)
        var = np.einsum("ij,ij->i", pre, pre)[:, None] / pre.shape[1]
        xhat = pre * (1.0 / np.sqrt(var + LN_EPS))
        ln = p[f"trunk.ln_g{i}"] * xhat + p[f"trunk.ln_b{i}"]
        h = ln * (1.0 + np.tanh(ln * ((TANH_C * TANH_K) * (ln * ln) + TANH_C)))
    return h @ weights_t[-1] + biases[-1].astype(dtype)


def reference_train_flow(population, cfg, seed=0):
    """`train_flow` as one draw per stream per step, each step's loss and
    gradients from `reference_forward` and `np.mean`."""
    population = np.asarray(population, dtype=np.float64)
    model = FlowModel(cfg, init_flow_model(cfg, seed).flat.astype(np.float32))
    optimizer = _Adam([model.flat], (cfg.beta1, cfg.beta2), cfg.weight_decay,
                      decoupled=True)
    n, d = population.shape
    batch = min(cfg.batch_size, n)
    workspace = FlowWorkspace(cfg, batch, np.float32)
    rngs = {name: make_rng(seed, f"flow-{name}")
            for name in ("batch", "time", "source", "noise", "dropout")}
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.iterations):
            x1 = population[rngs["batch"].integers(0, n, size=batch)]
            t = rngs["time"].uniform(0.0, 1.0, batch)
            x0 = rngs["source"].normal(0.0, cfg.source_std, size=(batch, d))
            eps = rngs["noise"].normal(0.0, cfg.noise_scale, size=(batch, d))
            masks = _dropout_masks(cfg, rngs["dropout"], workspace)
            masks = None if masks is None else masks[0]
            x_t = (1.0 - t[:, None]) * x0 + t[:, None] * x1 + eps
            v, cache = reference_forward(model, x_t, t, masks)
            diff = v - (x1 - x0)
            loss = float(np.mean(diff * diff))
            dv = (2.0 * diff / diff.size).astype(np.float32)
            flow_backward(model, cache, dv, masks, workspace.grads)
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite flow-matching loss at step {optimizer.t}")
            optimizer.step([workspace.grad], flow._cosine_lr(cfg, optimizer.t))
            model.loss_history.append(loss)
    return model


def reference_rk4(fn, x0, grid):
    """Fixed-step RK4 written out as expressions, a new array per term:
    step i from grid[i] to grid[i+1]."""
    x = np.asarray(x0, dtype=np.float64).copy()
    for step in range(len(grid) - 1):
        t, t_end = float(grid[step]), float(grid[step + 1])
        h = t_end - t
        k1 = np.asarray(fn(x, t), dtype=np.float64)
        k2 = np.asarray(fn(x + 0.5 * h * k1, t + 0.5 * h), dtype=np.float64)
        k3 = np.asarray(fn(x + 0.5 * h * k2, t + 0.5 * h), dtype=np.float64)
        k4 = np.asarray(fn(x + h * k3, t_end), dtype=np.float64)
        incr = (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        if not np.all(np.isfinite(incr)):
            raise IntegrationError(f"non-finite vector field at step {step}")
        x = x + h * incr
    return x


def uniform_grid(steps):
    """`steps` equal RK4 steps from t = 0 to t = 1."""
    return np.linspace(0.0, 1.0, steps + 1)


def bounded_field(dim, dtype, seed, reuse=False):
    """A bounded field a x + b t + c x / (1 + x^2) of per-coordinate
    coefficients, evaluated in float64 and returned in `dtype`; with
    `reuse`, always into one buffer, as `sample`'s field returns its
    frozen output buffer."""
    a, b, c = np.random.default_rng(seed).normal(size=(3, dim))
    out = {}

    def fn(x, t):
        v = (a * x + b * t + c * x / (1.0 + x * x)).astype(dtype)
        if not reuse:
            return v
        buf = out.setdefault("v", np.empty_like(v))
        buf[...] = v
        return buf
    return fn


class TestForward:
    def test_shapes(self, rng):
        model = init_flow_model(TINY, seed=0)
        x = rng.normal(size=(6, 4))
        v = flow_forward(model, x, rng.uniform(size=6))
        assert v.shape == (6, 4)

    def test_deterministic_eval(self, rng):
        model = init_flow_model(TINY, seed=0)
        x = rng.normal(size=(3, 4))
        t = rng.uniform(size=3)
        assert np.array_equal(flow_forward(model, x, t),
                              flow_forward(model, x, t))



WIDE = FlowConfig(input_dim=6, hidden_dim=16, time_embed_dim=3, dropout=0.3)


class TestWorkspace:
    def test_eval_forward_matches_reference(self, rng):
        model = init_flow_model(WIDE, seed=3)
        x, t = rng.normal(size=(9, 6)), rng.uniform(size=9)
        ref, _ = reference_forward(model, x, t)
        assert np.array_equal(flow_forward(model, x, t), ref)
        model32 = FlowModel(WIDE, model.flat.astype(np.float32))
        ref32, _ = reference_forward(model32, x, t)
        assert np.array_equal(flow_forward(model32, x, t), ref32)

    def test_train_forward_and_gradients_match_reference(self, rng):
        model = init_flow_model(WIDE, seed=4)
        x1, x0 = rng.normal(size=(9, 6)), rng.normal(0, 0.01, size=(9, 6))
        t, eps = rng.uniform(size=9), rng.normal(0, 1e-3, size=(9, 6))
        masks, = _dropout_masks(WIDE, make_rng(0, "flow-dropout"), FlowWorkspace(WIDE, 9))
        x_t = (1.0 - t[:, None]) * x0 + t[:, None] * x1 + eps
        v_ref, cache = reference_forward(model, x_t, t, masks)
        assert np.array_equal(flow_forward(model, x_t, t, masks), v_ref)
        v, got_cache = flow_forward(model, x_t, t, masks, want_cache=True)
        assert np.array_equal(v, v_ref)
        for got, ref in zip(got_cache[1], cache[1]):
            assert all(np.array_equal(a, b) for a, b in zip(got, ref))
        diff = v_ref - (x1 - x0)
        grads_ref = flow_backward(model, cache, 2.0 * diff / diff.size, masks)
        for out in (None, FlowWorkspace(WIDE, 9).grads):
            loss, grads = fm_loss_and_grads(model, x1, x0, t, eps, masks, out)
            assert loss == float(np.mean(diff * diff))
            for name in grads_ref:
                assert np.array_equal(grads[name], grads_ref[name]), name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows, d_in, d_out", [(9, 9, 16), (8, 135, 256), (8, 256, 128),
                                                   (8, 128, 256), (400, 24, 128)])
    def test_trunk_product_agrees_with_h_w_t_to_rounding(self, rng, dtype, rows, d_in, d_out):
        # (W h^T)^T and h W^T are the same sums in some order; whatever the
        # BLAS kernel, they differ by at most d_in roundings of |h| |W|^T.
        h = rng.normal(size=(rows, d_in)).astype(dtype)
        w = rng.normal(size=(d_out, d_in)).astype(dtype)
        bound = d_in * np.finfo(dtype).eps * (np.abs(h) @ np.abs(w).T)
        assert np.all(np.abs(trunk_product(h, w) - h @ w.T) <= bound)

    def test_dtype_follows_the_model(self, rng):
        model = init_flow_model(WIDE, seed=0)
        model32 = FlowModel(WIDE, model.flat.astype(np.float32))
        x = rng.normal(size=(4, 6))
        assert flow_forward(model32, x, np.zeros(4)).dtype == np.float32
        assert flow_forward(model32, x.astype(np.float32), np.zeros(4)).dtype == np.float32
        assert flow_forward(model, x.astype(np.float32), np.zeros(4)).dtype == np.float64

    @pytest.mark.parametrize("time_embed_dim", [1, 4])
    @pytest.mark.parametrize("rows", range(1, 10))
    def test_sample_matches_rk4_over_reference(self, rows, time_embed_dim):
        cfg = FlowConfig(input_dim=6, hidden_dim=16, time_embed_dim=time_embed_dim,
                         integration_steps=7)
        model = init_flow_model(cfg, seed=7)
        # Nonzero biases and LayerNorm shifts, which the folding moves.
        model.flat += np.random.default_rng(7).normal(0.0, 0.1, model.flat.size)
        model32 = FlowModel(cfg, model.flat.astype(np.float32))
        x0 = make_rng(11, "sample").normal(0.0, cfg.source_std, size=(rows, 6))
        steps = cfg.integration_steps
        ref = reference_rk4(lambda x, t: reference_folded_field(model32, x, t),
                            x0, (np.arange(steps + 1) / steps) ** 2)
        assert np.array_equal(sample(model, rows, seed=11), ref)

    @pytest.mark.parametrize("time_embed_dim", [1, 4])
    @pytest.mark.parametrize("rows", range(1, 10))
    def test_frozen_forward_matches_reference(self, rng, rows, time_embed_dim):
        cfg = FlowConfig(input_dim=6, hidden_dim=16, time_embed_dim=time_embed_dim)
        flat = init_flow_model(cfg, seed=5).flat + rng.normal(0.0, 0.1, _param_count(cfg))
        model32 = FlowModel(cfg, flat.astype(np.float32))
        x = rng.normal(size=(rows, 6))
        frozen = _FrozenField(model32, rows)
        for t in (0.0, 0.375, 0.375, 1.0):  # repeats run on earlier calls' buffers
            v = flow_forward(model32, x, t, frozen=frozen)
            assert np.array_equal(v, reference_folded_field(model32, x, t))
            assert np.shares_memory(v, frozen.out)

    def test_folded_field_is_the_field_in_float64(self, rng):
        # Folding is exact algebra, so in float64 it moves only rounding,
        # even with a common offset that LayerNorm's mean would remove.
        model = init_flow_model(WIDE, seed=6)
        for i in range(len(WIDE.trunk_dims)):
            model.params[f"trunk.b{i}"][...] = rng.normal(size=WIDE.trunk_dims[i]) + 1e3
        x = rng.normal(size=(9, 6))
        frozen = _FrozenField(model, 9)
        for t in (0.0, 0.3, 1.0):
            ref = flow_forward(model, x, np.full(9, t))
            v = flow_forward(model, x, t, frozen=frozen)
            assert v.dtype == np.float64
            assert np.abs(v - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_frozen_forward_rejects_a_cache_or_another_batch(self, rng):
        model = init_flow_model(WIDE, seed=0)
        frozen = _FrozenField(model, 4)
        x = rng.normal(size=(4, 6))
        with pytest.raises(ArgumentError):
            flow_forward(model, x, 0.5, want_cache=True, frozen=frozen)
        with pytest.raises(ArgumentError):
            flow_forward(model, x, np.zeros(4), frozen=frozen)  # one time per call
        with pytest.raises(ArgumentError):
            flow_forward(model, rng.normal(size=(5, 6)), 0.5, frozen=frozen)

    def test_sample_agrees_with_float64_rk4(self):
        # sample's float32 field against the same field in float64, over a
        # trained flow: per sample, the largest coordinate difference
        # relative to the sample's largest coordinate.
        cfg = FlowConfig(input_dim=6, hidden_dim=16, time_embed_dim=3,
                         iterations=300, integration_steps=20)
        pop = np.random.default_rng(2).normal(size=(10, 6))
        model = train_flow(pop, cfg, seed=3)
        model64 = FlowModel(cfg, model.flat.astype(np.float64))
        x0 = make_rng(5, "sample").normal(0.0, cfg.source_std, size=(40, 6))
        ref = rk4_integrate(
            lambda x, t: flow_forward(model64, x, np.full(x.shape[0], t)),
            x0, sample_grid(cfg.integration_steps))
        got = sample(model, 40, seed=5)
        assert got.dtype == np.float64
        rel = np.abs(got - ref).max(axis=1) / np.abs(ref).max(axis=1)
        assert rel.max() <= 1e-4, rel.max()

    def test_sample_peak_memory_is_about_one_workspace(self):
        # Three times the float64 trunk intermediates of one 400-row field
        # call: the [x, t_emb] input and, per trunk layer, four arrays of
        # its width (12,556,800 bytes).
        cfg = FlowConfig(input_dim=24, hidden_dim=128, integration_steps=3)
        model = init_flow_model(cfg, seed=0)
        budget = 3 * 8 * 400 * (cfg.trunk_input_dim + 4 * sum(cfg.trunk_dims))
        tracemalloc.start()
        try:
            sample(model, 400, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < budget, (peak, budget)


class TestLoss:
    def test_perfect_regressor_zero_loss(self):
        # zero every weight, then set the output bias to x1 - x0: the model
        # is constant at the target velocity, so the loss vanishes
        model = init_flow_model(TINY, seed=0)
        x1 = np.array([[1.0, -2.0, 0.5, 3.0]])
        x0 = np.array([[0.5, 0.5, 0.5, 0.5]])
        for name in model.params:
            model.params[name][:] = 0.0
        model.params["out.b"][:] = (x1 - x0)[0]
        t = np.array([0.3])
        eps = np.zeros_like(x1)
        loss, _ = fm_loss_and_grads(model, x1, x0, t, eps)
        assert loss <= 1e-30

    def test_initial_loss_finite_positive(self, rng):
        model = init_flow_model(TINY, seed=1)
        x1 = rng.normal(size=(8, 4))
        x0 = rng.normal(0, 0.01, size=(8, 4))
        loss, _ = fm_loss_and_grads(model, x1, x0, rng.uniform(size=8),
                                    np.zeros((8, 4)))
        assert np.isfinite(loss) and loss > 0

    def test_gradient_check_central_differences(self, rng):
        cfg = FlowConfig(input_dim=4, hidden_dim=8, time_embed_dim=4,
                         dropout=0.0)
        model = init_flow_model(cfg, seed=2)
        x1 = rng.normal(size=(3, 4))
        x0 = rng.normal(0, 0.01, size=(3, 4))
        t = rng.uniform(size=3)
        eps = rng.normal(0, 0.001, size=(3, 4))
        _, grads = fm_loss_and_grads(model, x1, x0, t, eps)
        h = 1e-4
        worst = 0.0
        for name, p in model.params.items():
            flat = p.ravel()
            for idx in range(0, flat.size, max(1, flat.size // 5)):
                orig = flat[idx]
                flat[idx] = orig + h
                lp, _ = fm_loss_and_grads(model, x1, x0, t, eps)
                flat[idx] = orig - h
                lm, _ = fm_loss_and_grads(model, x1, x0, t, eps)
                flat[idx] = orig
                fd = (lp - lm) / (2 * h)
                an = grads[name].ravel()[idx]
                denom = max(abs(fd), abs(an), 1e-8)
                worst = max(worst, abs(fd - an) / denom)
        assert worst <= 1e-4

    def test_gradients_do_not_alias_across_calls(self, rng):
        model = init_flow_model(TINY, seed=0)
        x1, x0 = rng.normal(size=(3, 4)), rng.normal(0, 0.01, size=(3, 4))
        t, eps = rng.uniform(size=3), np.zeros((3, 4))
        _, first = fm_loss_and_grads(model, x1, x0, t, eps)
        kept = {name: g.copy() for name, g in first.items()}
        _, second = fm_loss_and_grads(model, -x1, x0, 1 - t, eps)
        for name in first:
            assert not np.shares_memory(first[name], second[name])
            assert np.array_equal(first[name], kept[name])

    def test_reused_buffer_matches_fresh_gradients(self, rng):
        model = init_flow_model(TINY, seed=0)
        buf = np.full_like(model.flat, np.nan)
        for _ in range(2):
            x1, x0 = rng.normal(size=(3, 4)), rng.normal(0, 0.01, size=(3, 4))
            t, eps = rng.uniform(size=3), np.zeros((3, 4))
            _, fresh = fm_loss_and_grads(model, x1, x0, t, eps)
            _, reused = fm_loss_and_grads(model, x1, x0, t, eps, out=buf)
            for name in fresh:
                assert np.shares_memory(reused[name], buf)
                assert np.array_equal(reused[name], fresh[name])

    def test_loss_decreases_10x(self):
        rng = np.random.default_rng(0)
        pop = rng.normal(0.0, 0.3, size=(100, 20))
        cfg = FlowConfig(input_dim=20, hidden_dim=64, dropout=0.0,
                         iterations=4000, batch_size=8)
        model = train_flow(pop, cfg, seed=0)
        first = np.mean(model.loss_history[:100])
        last = np.mean(model.loss_history[-100:])
        assert first / last >= 10.0


# Each Generator call the flow's training makes, at a shape of (k, *s)
# (k training steps) or s (one step).
FLOW_DRAWS = {
    "integers": lambda rng, shape: rng.integers(0, 37, size=shape),
    "uniform": lambda rng, shape: rng.uniform(0.0, 1.0, shape),
    "normal": lambda rng, shape: rng.normal(0.0, 0.01, size=shape),
    "random": lambda rng, shape: rng.random(out=np.empty(shape)),
}

BLOCK = flow.DRAW_BLOCK


class TestBlockDraws:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(k=st.integers(1, 9), s=st.lists(st.integers(1, 7), min_size=1, max_size=2),
           seed=st.integers(0, 2 ** 32 - 1), call=st.sampled_from(sorted(FLOW_DRAWS)))
    def test_one_call_of_k_steps_equals_k_calls(self, k, s, seed, call):
        draw = FLOW_DRAWS[call]
        per_step, block = make_rng(seed, "test"), make_rng(seed, "test")
        steps = np.stack([draw(per_step, tuple(s)) for _ in range(k)])
        assert draw(block, (k, *s)).tobytes() == steps.tobytes()
        # Both generators are left at the same point of the stream.
        assert draw(block, tuple(s)).tobytes() == draw(per_step, tuple(s)).tobytes()

    @pytest.mark.parametrize("iterations", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    @pytest.mark.parametrize("variant", [
        {"dropout": 0.0},
        {"dropout": 0.3},
        {"dropout": 0.3, "batch_size": 16},  # larger than the population
    ], ids=["no-dropout", "dropout", "batch-over-population"])
    def test_train_flow_equals_per_step_reference(self, iterations, variant):
        cfg = FlowConfig(**{"input_dim": 6, "hidden_dim": 16, "time_embed_dim": 3,
                            "batch_size": 5, "iterations": iterations, **variant})
        pop = np.random.default_rng(iterations).normal(size=(12, 6))
        got, ref = train_flow(pop, cfg, seed=4), reference_train_flow(pop, cfg, seed=4)
        assert got.flat.tobytes() == ref.flat.tobytes()
        assert got.loss_history == ref.loss_history
        assert len(got.loss_history) == iterations

    def test_divergence_inside_a_block_names_the_same_step(self):
        # One population row is too large for float32: the first step whose
        # batch draws it has a non-finite loss. Pick a row that is first
        # drawn inside a later block.
        n, seed = 20, 6
        rows = make_rng(seed, "flow-batch").integers(0, n, size=4 * BLOCK)
        step = next(s for s in range(BLOCK + 1, 4 * BLOCK)
                    if s % BLOCK and rows[s] not in rows[:s])
        pop = np.random.default_rng(0).normal(size=(n, 6))
        pop[rows[step]] = 1e200
        cfg = FlowConfig(input_dim=6, hidden_dim=16, time_embed_dim=3, batch_size=1,
                         iterations=4 * BLOCK)
        for train in (train_flow, reference_train_flow):
            with pytest.raises(TrainingDivergedError, match=f"at step {step}$"):
                train(pop, cfg, seed=seed)

    def test_cached_trunk_arrays_are_c_contiguous(self, rng):
        model32 = FlowModel(WIDE, init_flow_model(WIDE, seed=1).flat.astype(np.float32))
        masks, = _dropout_masks(WIDE, make_rng(0, "flow-dropout"),
                                FlowWorkspace(WIDE, 8, np.float32))
        _, (_, trunk_caches, last_h) = flow_forward(
            model32, rng.normal(size=(8, 6)), rng.uniform(size=8), masks, want_cache=True)
        arrays = [last_h, *(a for c in trunk_caches for a in c)]
        assert all(a.flags.c_contiguous and a.dtype == np.float32 for a in arrays)


def _cpu_has(feature: str) -> bool:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return bool(__cpu_features__.get(feature))


# The tests that hold the field, its training and RK4 to a reference bit for
# bit, and the product agreement test: each must hold under every BLAS
# kernel, not only under the one this CPU picks.
BIT_FOR_BIT = [
    "TestWorkspace::test_eval_forward_matches_reference",
    "TestWorkspace::test_train_forward_and_gradients_match_reference",
    "TestWorkspace::test_trunk_product_agrees_with_h_w_t_to_rounding",
    "TestWorkspace::test_sample_matches_rk4_over_reference",
    "TestWorkspace::test_frozen_forward_matches_reference",
    "TestBlockDraws::test_train_flow_equals_per_step_reference",
    "TestRk4::test_buffered_matches_expressions",
]


@pytest.mark.skipif(not _cpu_has("AVX2"),
                    reason="OpenBLAS's Haswell kernels need AVX2, which this CPU lacks")
def test_bit_for_bit_tests_pass_under_haswell_blas_kernels():
    # numpy's OpenBLAS picks its kernels by CPU; OPENBLAS_CORETYPE forces
    # the ones an AVX2 CPU without AVX-512 runs, so a bit-for-bit test that
    # holds on one kernel only fails here too.
    here = Path(__file__).resolve()
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *(f"{here}::{test}" for test in BIT_FOR_BIT)],
        cwd=here.parents[1], env=env, capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-2000:]


class TestTrain:
    def test_deterministic(self):
        pop = np.random.default_rng(1).normal(size=(10, 4))
        a = train_flow(pop, TINY, seed=5)
        b = train_flow(pop, TINY, seed=5)
        for name in a.params:
            assert np.array_equal(a.params[name], b.params[name])

    def test_single_point_collapse(self):
        target = np.full((1, 4), 0.37)
        cfg = FlowConfig(input_dim=4, hidden_dim=32, dropout=0.0,
                         iterations=3000, batch_size=4, source_std=0.01)
        model = train_flow(target, cfg, seed=0)
        out = sample(model, 10, seed=1)
        dist = np.linalg.norm(out - target, axis=1)
        assert dist.max() <= 0.05 * np.sqrt(4)

    def test_dimension_mismatch(self):
        with pytest.raises(ArgumentError):
            train_flow(np.zeros((4, 7)), TINY, seed=0)


    def test_params_are_views_of_one_buffer(self, tmp_path):
        pop = np.random.default_rng(0).normal(size=(6, 4))
        trained = train_flow(pop, TINY, seed=0)
        save_flow(trained, tmp_path / "m.dwff")
        for model, dtype in ((init_flow_model(TINY, seed=0), np.float64),
                             (trained, np.float32),
                             (load_flow(tmp_path / "m.dwff"), np.float32)):
            assert model.flat.dtype == dtype and model.flat.flags.c_contiguous
            assert sum(p.size for p in model.params.values()) == model.flat.size
            for p in model.params.values():
                assert np.shares_memory(p, model.flat)


    def test_wrong_buffer_size_rejected(self):
        with pytest.raises(ArgumentError):
            FlowModel(TINY, np.zeros(3))


class TestDropout:
    def test_mask_values_are_zero_or_inverse_keep(self):
        ws = FlowWorkspace(WIDE, 9)
        masks, = _dropout_masks(WIDE, make_rng(0, "flow-dropout"), ws)
        assert [m.shape for m in masks] == [(9, d) for d in WIDE.trunk_dims]
        keep = 1.0 - WIDE.dropout
        for m in masks:
            assert set(np.unique(m)) <= {0.0, 1.0 / keep}

    def test_kept_fraction_within_binomial_bound(self):
        ws = FlowWorkspace(WIDE, 50)
        rng = make_rng(1, "flow-dropout")
        keep, kept, total = 1.0 - WIDE.dropout, 0, 0
        for _ in range(200):
            masks, = _dropout_masks(WIDE, rng, ws)
            kept += sum(int(np.count_nonzero(m)) for m in masks)
            total += sum(m.size for m in masks)
        # Six standard deviations of a Binomial(total, keep) count.
        assert abs(kept - keep * total) <= 6.0 * math.sqrt(total * keep * (1.0 - keep))

    def test_redrawn_each_step(self):
        ws = FlowWorkspace(WIDE, 9)
        rng = make_rng(2, "flow-dropout")
        first = [m.copy() for m in _dropout_masks(WIDE, rng, ws)[0]]
        second, = _dropout_masks(WIDE, rng, ws)
        assert not all(np.array_equal(a, b) for a, b in zip(first, second))

    def test_no_dropout_gives_none(self):
        cfg = FlowConfig(input_dim=6, hidden_dim=16, time_embed_dim=3, dropout=0.0)
        assert _dropout_masks(cfg, make_rng(0, "flow-dropout"),
                              FlowWorkspace(cfg, 4)) is None

    def test_same_seed_trains_byte_identical_flows(self):
        pop = np.random.default_rng(3).normal(size=(12, 6))
        cfg = FlowConfig(input_dim=6, hidden_dim=16, time_embed_dim=3,
                         dropout=0.3, iterations=40, batch_size=5)
        a, b = train_flow(pop, cfg, seed=2), train_flow(pop, cfg, seed=2)
        assert a.flat.tobytes() == b.flat.tobytes()
        assert a.loss_history == b.loss_history


class TestFloat32Training:
    def test_loss_and_grads_agree_with_float64(self, rng):
        # The same parameters and draws, once in float32 and once in
        # float64: the losses agree within 1e-6 relative, and every
        # gradient tensor within 1e-4 of its largest float64 entry (over
        # five draws the worst were 6e-8 and 5e-6).
        model32 = FlowModel(WIDE, init_flow_model(WIDE, seed=8).flat.astype(np.float32))
        model64 = FlowModel(WIDE, model32.flat.astype(np.float64))
        x1, x0 = rng.normal(size=(9, 6)), rng.normal(0, 0.01, size=(9, 6))
        t, eps = rng.uniform(size=9), rng.normal(0, 1e-3, size=(9, 6))
        results = {}
        for model in (model32, model64):
            ws = FlowWorkspace(WIDE, 9, dtype=model.flat.dtype)
            masks, = _dropout_masks(WIDE, make_rng(0, "flow-dropout"), ws)
            results[model.flat.dtype.name] = fm_loss_and_grads(
                model, x1, x0, t, eps, masks, ws.grads)
        (loss32, g32), (loss64, g64) = results["float32"], results["float64"]
        assert abs(loss32 - loss64) <= 1e-6 * loss64
        for name in g64:
            assert g32[name].dtype == np.float32
            scale = np.abs(g64[name]).max()
            assert np.abs(g32[name] - g64[name]).max() <= 1e-4 * scale, name

    def test_training_step_stays_in_float32(self, monkeypatch):
        # Every array the step keeps or hands on is float32: parameters,
        # moments, gradients, masks, and what the backward pass receives
        # (dv and every cached intermediate), where a float64 operand would
        # send numpy's matmuls down their slow mixed-dtype path.
        received = []
        backward = flow.flow_backward

        def recording_backward(model, cache, dv, *args):
            t_cache, trunk_caches, last_h = cache
            received.extend([dv, last_h, *t_cache, *(a for c in trunk_caches for a in c)])
            return backward(model, cache, dv, *args)

        monkeypatch.setattr(flow, "flow_backward", recording_backward)
        draw = np.random.default_rng(4)
        x1, x0 = draw.normal(size=(5, 6)), draw.normal(0, 0.01, size=(5, 6))
        t, eps = draw.uniform(size=5), draw.normal(0, 1e-3, size=(5, 6))
        mask_ws = FlowWorkspace(WIDE, 5, dtype=np.float32)
        masks, = _dropout_masks(WIDE, make_rng(1, "flow-dropout"), mask_ws)
        flats = []
        for workspace in (mask_ws, None):
            model = FlowModel(WIDE, init_flow_model(WIDE, seed=9).flat.astype(np.float32))
            optimizer = _Adam([model.flat], (WIDE.beta1, WIDE.beta2),
                              WIDE.weight_decay, decoupled=True)
            loss = fm_training_step(model, optimizer, x1, x0, t, eps, masks, workspace)
            assert np.isfinite(loss)
            flats.append(model.flat)
            arrays = [model.flat, *optimizer.m, *optimizer.v, *received, *masks]
            if workspace is not None:
                arrays += [workspace.grad, workspace.mask]
            assert all(a.dtype == np.float32 for a in arrays)
            received.clear()
            assert set(optimizer._scratch) == {np.dtype(np.float32)}
        # Without a workspace the step builds one in the model's dtype.
        assert flats[0].tobytes() == flats[1].tobytes()


class TestRk4:
    def test_constant_field(self):
        u = np.array([1.0, -2.0, 0.5])
        out = rk4_integrate(lambda x, t: u, np.zeros(3), uniform_grid(10))
        assert np.max(np.abs(out - u)) <= 1e-6

    def test_exponential_field(self):
        x0 = np.array([1.0, -0.5, 2.0])
        out = rk4_integrate(lambda x, t: x, x0, uniform_grid(100))
        assert np.max(np.abs(out - np.e * x0) / np.abs(np.e * x0)) <= 1e-8

    def test_zero_field(self):
        x0 = np.array([3.0, 4.0])
        assert np.array_equal(rk4_integrate(lambda x, t: np.zeros_like(x),
                                            x0, uniform_grid(5)), x0)

    def test_affine_field_closed_form(self):
        # dx/dt = x + 1 -> x(1) = (x0 + 1) e - 1
        x0 = np.array([0.3])
        out = rk4_integrate(lambda x, t: x + 1.0, x0, uniform_grid(100))
        expected = (x0 + 1.0) * np.e - 1.0
        assert abs(out[0] - expected[0]) / abs(expected[0]) <= 1e-6

    def test_non_finite_field(self):
        with pytest.raises(IntegrationError, match="step"):
            rk4_integrate(lambda x, t: x * np.inf, np.ones(2), uniform_grid(3))

    @pytest.mark.parametrize("grid", [[0.0], [], np.zeros((5, 1))])
    def test_bad_steps(self, grid):
        with pytest.raises(ArgumentError, match="at least 2 times"):
            rk4_integrate(lambda x, t: x, np.ones(2), grid)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(rows=st.integers(1, 64), dim=st.integers(1, 40), steps=st.integers(1, 12),
           dtype=st.sampled_from([np.float32, np.float64]), reuse=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1), power=st.sampled_from([None, 1, 1.5, 2, 3]))
    def test_buffered_matches_expressions(self, rows, dim, steps, dtype, reuse, seed, power):
        # On a power grid (i/N)^p, uniform at p = 1, or (None) on random
        # increasing times from 0 to 1. The reference keeps each stage's
        # array, so it gets a new one per call.
        draw = np.random.default_rng(seed)
        if power is None:
            grid = np.concatenate([[0.0], np.sort(draw.uniform(size=steps - 1)), [1.0]])
        else:
            grid = (np.arange(steps + 1) / steps) ** power
        x0 = draw.normal(size=(rows, dim))
        got = rk4_integrate(bounded_field(dim, dtype, seed, reuse), x0, grid)
        assert got.dtype == np.float64
        assert np.array_equal(got, reference_rk4(bounded_field(dim, dtype, seed), x0, grid))

    @pytest.mark.parametrize("steps", [25, 50, 100])
    def test_linear_field_on_the_squared_grid(self, steps):
        # dx/dt = a x has x(1) = x0 e^a. An RK4 step of size h multiplies by
        # e^(a h) (1 - (a h)^5 / 120 + ...), so the relative error is
        # sum_i |a h_i|^5 / 120 to leading order; on the squared grid,
        # h_i = (2i + 1) / N^2, that sum is |a|^5 (2N)^6 / (12 120 N^10)
        # = 4 |a|^5 / (90 N^4). It is 5.3 times the uniform grid's
        # |a|^5 / (120 N^4): a field as smooth at t = 0 as after it gains
        # nothing from the warp.
        a = np.array([-3.0, -1.0, 0.5, 1.0, 3.0])
        x0 = np.array([1.0, -0.5, 2.0, 0.3, -1.2])
        got = rk4_integrate(lambda x, t: a * x, x0, sample_grid(steps))
        err = np.abs(got / (x0 * np.exp(a)) - 1.0)
        leading = 4.0 * np.abs(a) ** 5 / (90.0 * steps ** 4)
        assert np.all(err <= 1.5 * leading), err / leading
        assert np.all(err >= 0.5 * leading), err / leading

    @pytest.mark.parametrize("bad_step", [0, 1, 4])
    @pytest.mark.parametrize("bad_stage", [0, 1, 2, 3])
    def test_non_finite_field_names_its_step(self, bad_step, bad_stage):
        # The field turns NaN from stage `bad_stage` of step `bad_step` on.
        steps, field = 6, bounded_field(3, np.float32, 0)
        calls = []

        def fn(x, t):
            calls.append(t)
            v = field(x, t)
            return v * np.nan if len(calls) > 4 * bad_step + bad_stage else v
        for integrate in (rk4_integrate, reference_rk4):
            calls.clear()
            with pytest.raises(IntegrationError, match=f"at step {bad_step}$"):
                integrate(fn, np.ones((2, 3)), uniform_grid(steps))


class TestSample:
    def test_same_seed_identical(self):
        model = init_flow_model(TINY, seed=0)
        a = sample(model, 4, seed=9)
        b = sample(model, 4, seed=9)
        assert np.array_equal(a, b)

    def test_distinct_samples(self):
        model = init_flow_model(TINY, seed=0)
        s = sample(model, 5, seed=1)
        d = np.linalg.norm(s[:, None] - s[None, :], axis=-1)
        iu = np.triu_indices(5, k=1)
        assert d[iu].min() > 0

    def test_count_zero(self):
        model = init_flow_model(TINY, seed=0)
        assert sample(model, 0, seed=0).shape == (0, 4)

    @pytest.mark.parametrize("steps", [1, 7, 25])
    def test_one_time_row_per_distinct_rk4_time(self, monkeypatch, steps):
        # Step i's last stage and step i+1's first read the same grid time,
        # so 4N field calls need 2N + 1 time rows: the grid and its midpoints.
        built = []

        class Recording(_FrozenField):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        monkeypatch.setattr(flow, "_FrozenField", Recording)
        cfg = FlowConfig(input_dim=4, hidden_dim=8, integration_steps=steps)
        sample(init_flow_model(cfg, seed=0), 3, seed=0)
        grid = sample_grid(steps)
        mids = grid[:-1] + 0.5 * np.diff(grid)
        frozen, = built
        assert len(frozen._rows) == 2 * steps + 1
        assert sorted(frozen._rows) == sorted([*grid.tolist(), *mids.tolist()])

    def test_calls_return_arrays_of_their_own(self):
        model = init_flow_model(TINY, seed=0)
        a = sample(model, 4, seed=9)
        a_bytes = a.tobytes()
        b = sample(model, 4, seed=9)
        assert not np.shares_memory(a, b) and a.tobytes() == a_bytes

    @pytest.mark.parametrize("name", ["out.b", "trunk.b0", "trunk.w1", "trunk.ln_g2",
                                      "time.w1"])
    @pytest.mark.parametrize("value", [np.inf, 1e300], ids=["inf", "float32-overflow"])
    def test_non_finite_field_raises_without_warnings(self, value, name):
        # 1e300 is finite in float64 but overflows the float32 cast; either
        # way the folding meets inf - inf or inf * 0.
        model = init_flow_model(TINY, seed=0)
        model.params[name][...] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError, match="step 0"):
                sample(model, 3, seed=0)


# The DWFF header of TINY: its FlowConfig, one line per field.
TINY_HEADER = """\
input_dim=4
hidden_dim=8
time_embed_dim=4
dropout=0.0
noise_scale=0.001
source_std=0.01
iterations=50
batch_size=4
learning_rate=0.0005
weight_decay=1e-05
beta1=0.9
beta2=0.95
lr_min=1e-06
integration_steps=25
"""

# TINY's header as version 3 files written before the flow's training
# times became uniform-only: it also held `time_distribution` and the
# pair `time_beta`.
TINY_HEADER_WITH_TIME_KEYS = TINY_HEADER.replace(
    "iterations=", "time_distribution='uniform'\niterations=") + "time_beta=2.0,5.0\n"


def tiny_bytes(model, version=3, header=TINY_HEADER) -> bytes:
    """The DWFF file of a TINY model, written by hand."""
    header = header.encode()
    blob = b"DWFF" + struct.pack("<II", version, len(header)) + header
    for name, _ in _param_layout(TINY):
        blob += b"".join(struct.pack("<f", v) for v in model.params[name].ravel())
    return blob


class TestSerialization:
    def test_reference_bytes(self, tmp_path):
        model = train_flow(np.random.default_rng(0).normal(size=(6, 4)), TINY, seed=0)
        path = tmp_path / "m.dwff"
        save_flow(model, path)
        assert path.read_bytes() == tiny_bytes(model)

    def test_file_with_retired_time_keys_loads(self, tmp_path):
        model = train_flow(np.random.default_rng(0).normal(size=(6, 4)), TINY, seed=0)
        path = tmp_path / "m.dwff"
        path.write_bytes(tiny_bytes(model, header=TINY_HEADER_WITH_TIME_KEYS))
        loaded = load_flow(path)
        assert loaded.config == model.config
        assert loaded.flat.tobytes() == model.flat.tobytes()

    def test_version_1_rejected(self, tmp_path):
        path = tmp_path / "v1.dwff"
        path.write_bytes(tiny_bytes(init_flow_model(TINY, seed=0), 1))
        with pytest.raises(DataError, match="unsupported version 1"):
            load_flow(path)

    def test_version_2_rejected(self, tmp_path):
        # Version 2 files hold a field trained with the exact-erf GELU.
        path = tmp_path / "v2.dwff"
        path.write_bytes(tiny_bytes(init_flow_model(TINY, seed=0), 2))
        with pytest.raises(DataError, match="unsupported version 2"):
            load_flow(path)

    def test_round_trip(self, tmp_path):
        pop = np.random.default_rng(0).normal(size=(6, 4))
        model = train_flow(pop, TINY, seed=0)
        path = tmp_path / "m.dwff"
        save_flow(model, path)
        loaded = load_flow(path)
        assert loaded.config == model.config
        for name, _ in _param_layout(model.config):
            # float32 on disk
            assert np.array_equal(loaded.params[name],
                                  model.params[name].astype(np.float32))

    def test_save_load_save_byte_identical(self, tmp_path):
        pop = np.random.default_rng(0).normal(size=(6, 4))
        p1, p2 = tmp_path / "a.dwff", tmp_path / "b.dwff"
        save_flow(train_flow(pop, TINY, seed=0), p1)
        save_flow(load_flow(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_sampling_agrees_after_reload(self, tmp_path):
        pop = np.random.default_rng(0).normal(size=(6, 4))
        model = train_flow(pop, TINY, seed=0)
        path = tmp_path / "m.dwff"
        save_flow(model, path)
        loaded = load_flow(path)
        a = sample(loaded, 3, seed=4)
        b = sample(loaded, 3, seed=4)
        assert np.array_equal(a, b)

    def test_damaged(self, tmp_path, damage):
        path = tmp_path / "d.dwff"
        save_flow(init_flow_model(TINY, seed=0), path)
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(DataError):
            load_flow(path)

    def test_deterministic_bytes(self, tmp_path):
        pop = np.random.default_rng(0).normal(size=(6, 4))
        model = train_flow(pop, TINY, seed=0)
        p1, p2 = tmp_path / "a.dwff", tmp_path / "b.dwff"
        save_flow(model, p1)
        save_flow(model, p2)
        assert p1.read_bytes() == p2.read_bytes()
